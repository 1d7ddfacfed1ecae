"""The normalised Karoubi envelope over any environment-structured backend.

Objects are pairs (base system, normalised idempotent); morphisms of the
envelope are the backend morphisms invariant under the chosen idempotents.
Decohered systems arise from sharp preparation/observation pairs and are
equivalent to classical systems; `classicalise` / `declassicalise` realise
that equivalence concretely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .matcat import Morphism, ShapeError


class KaroubiError(ShapeError):
    pass


@dataclass(frozen=True)
class KaroubiObject:
    base: Any  # backend object
    idem: Any  # backend morphism base -> base


@dataclass(frozen=True)
class SpoPair:
    prep: Any  # backend morphism X -> H, X classical
    obs: Any  # backend morphism H -> X


def make_object(backend, base, idem) -> KaroubiObject:
    """Validate and wrap a normalised idempotent on a base system."""
    if backend.dom(idem) != base or backend.cod(idem) != base:
        raise KaroubiError("idempotent must be an endomorphism of the base system")
    if not backend.equal(backend.compose(idem, idem), idem):
        raise KaroubiError("process is not idempotent")
    disc = backend.discard(base)
    if not backend.equal(backend.compose(disc, idem), disc):
        raise KaroubiError("idempotent is not normalised (not absorbed by discard)")
    return KaroubiObject(base, idem)


def object_tensor(backend, a: KaroubiObject, b: KaroubiObject) -> KaroubiObject:
    return make_object(
        backend, backend.obj_tensor(a.base, b.base), backend.tensor(a.idem, b.idem)
    )


def is_hom(backend, f, src: KaroubiObject, dst: KaroubiObject) -> bool:
    """f is a morphism (H,h) -> (G,g) of the envelope iff f = g . f . h."""
    if backend.dom(f) != src.base or backend.cod(f) != dst.base:
        raise KaroubiError("shape mismatch against the Karoubi objects")
    return backend.equal(f, backend.compose(dst.idem, backend.compose(f, src.idem)))


def project_hom(backend, f, src: KaroubiObject, dst: KaroubiObject):
    """g . f . h, the canonical invariant representative."""
    return backend.compose(dst.idem, backend.compose(f, src.idem))


@dataclass(frozen=True)
class SpoReport:
    sharp: bool
    obs_normalised: bool
    prep_normalised: bool

    @property
    def normalised(self) -> bool:
        return self.obs_normalised and self.prep_normalised


def spo_validate(backend, pair: SpoPair) -> SpoReport:
    """Check sharpness m . p = id; note the normalisation facts.

    When the observation is normalised, normalisation of the preparation is
    implied and asserted.
    """
    x = backend.dom(pair.prep)
    if backend.cod(pair.obs) != x:
        raise KaroubiError("observation must land back on the preparation's control system")
    sharp = backend.equal(backend.compose(pair.obs, pair.prep), backend.identity(x))
    if not sharp:
        raise KaroubiError("not a sharp pair: m . p differs from the identity")
    obs_n = backend.is_normalised(pair.obs)
    prep_n = backend.is_normalised(pair.prep)
    if obs_n and not prep_n:
        raise KaroubiError(
            "observation normalised but preparation not: contradicts m.p = id with discard.m = discard"
        )
    return SpoReport(sharp, obs_n, prep_n)


def _require_normalised(backend, pair: SpoPair) -> None:
    if not spo_validate(backend, pair).normalised:
        raise KaroubiError("decoherence map requires a normalised SPO pair")


def decoherence_map(backend, pair: SpoPair):
    """p . m for a normalised SPO pair. Validating the pair proves it a
    normalised idempotent: m . p = id gives p . m . p . m = p . m, and
    normalised p and m give discard . p . m = discard . m = discard."""
    _require_normalised(backend, pair)
    return backend.compose(pair.prep, pair.obs)


def decohered_object(backend, pair: SpoPair) -> KaroubiObject:
    return KaroubiObject(backend.cod(pair.prep), decoherence_map(backend, pair))


def classicalise(backend, f, src_pair: SpoPair, dst_pair: SpoPair) -> Morphism:
    """The classical matrix m_d . f . p_s induced by an invariant morphism.

    Invariance under the decoherence maps is checked as
    f = p_d . (m_d . f . p_s) . m_s, reusing the result and never building them.
    """
    _require_normalised(backend, src_pair)
    _require_normalised(backend, dst_pair)
    if backend.dom(f) != backend.cod(src_pair.prep) or backend.cod(f) != backend.cod(dst_pair.prep):
        raise KaroubiError("shape mismatch against the Karoubi objects")
    g = backend.compose(dst_pair.obs, backend.compose(f, src_pair.prep))
    if not backend.equal(f, backend.compose(dst_pair.prep, backend.compose(g, src_pair.obs))):
        raise KaroubiError("morphism is not invariant under the decoherence idempotents")
    return backend.to_classical(g)


def declassicalise(backend, f_classical: Morphism, src_pair: SpoPair, dst_pair: SpoPair):
    """The invariant backend morphism q . F . m representing a classical matrix."""
    lifted = backend.from_classical(f_classical)
    if backend.dom(lifted) != backend.dom(src_pair.prep):
        raise KaroubiError("classical domain does not match the source SPO control system")
    if backend.cod(lifted) != backend.dom(dst_pair.prep):
        raise KaroubiError("classical codomain does not match the target SPO control system")
    return backend.compose(dst_pair.prep, backend.compose(lifted, src_pair.obs))
