"""Theory backends: a common morphism-level interface over Mat(R) and CPM.

Both backends expose the same duck-typed surface (compose, tensor, add,
scale, identity, zero, discard, swap, equal, is_normalised, classical object
constructors, conversion to/from plain classical matrices) so that the
Karoubi envelope, the Bell evaluator and the diagram evaluator are generic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import matcat, quantum
from .matcat import Morphism, Obj, ShapeError
from .semirings import (
    PositivePart,
    Semiring,
    SemiringError,
    axioms_check,
    get_semiring,
    is_positive,
    positive_part,
)


class ClassicalBackend:
    """Mat(R) seen through the generic backend interface."""

    kind = "classical"

    def __init__(self, sr: Semiring):
        self.sr = sr
        self.scalar_ring = sr  # distributions are read in the ambient semiring

    # objects -------------------------------------------------------------
    def classical_obj(self, labels) -> Obj:
        return matcat.obj(*labels)

    def quantum_obj(self, dim: int):
        raise ShapeError("the classical backend has no quantum systems")

    def obj_tensor(self, a: Obj, b: Obj) -> Obj:
        return matcat.obj_tensor(a, b)

    @property
    def unit(self) -> Obj:
        return matcat.UNIT

    # morphisms -----------------------------------------------------------
    def compose(self, g, f):
        return matcat.compose(g, f)

    def tensor(self, f, g):
        return matcat.tensor(f, g)

    def add(self, f, g):
        return matcat.madd(f, g)

    def scale(self, s, f):
        return matcat.scale(s, f)

    def identity(self, x):
        return matcat.identity(self.sr, x)

    def zero(self, dom, cod):
        return matcat.zero(self.sr, dom, cod)

    def discard(self, x):
        return matcat.discard(self.sr, x)

    def swap(self, a, b):
        return matcat.swap(self.sr, a, b)

    def equal(self, f, g) -> bool:
        return matcat.equal(f, g)

    def is_normalised(self, f) -> bool:
        return matcat.is_normalised(f)

    def dom(self, f):
        return f.dom

    def cod(self, f):
        return f.cod

    # classical interface -------------------------------------------------
    def delta_state(self, x: Obj, label):
        return matcat.delta_state(self.sr, x, label)

    def point_effect(self, x: Obj, label):
        return matcat.point_effect(self.sr, x, label)

    def to_classical(self, f) -> Morphism:
        return f

    def from_classical(self, f: Morphism):
        if f.sr is not self.sr:
            raise ShapeError("classical matrix is over a different semiring")
        return f

    def distribution(self, state, outcome_obj: Obj) -> dict:
        """Read a state on a classical system as a label -> scalar table."""
        if state.dom != matcat.UNIT or state.cod != outcome_obj:
            raise ShapeError("not a state on the expected classical system")
        return {lab: state.entries[i][0] for i, lab in enumerate(outcome_obj.labels)}

    def random_morphism(self, dom, cod, rng):
        return matcat.random_morphism(self.sr, dom, cod, rng)

    def random_normalised(self, dom, cod, rng):
        return matcat.random_normalised(self.sr, dom, cod, rng)


class QuantumBackend:
    """The doubled CPM theory over an involutive semiring S, scalars R."""

    kind = "quantum"

    def __init__(self, sr: Semiring):
        self.sr = sr
        self.pp: PositivePart = positive_part(sr)
        self.scalar_ring = self.pp.ring

    # objects: wire lists -------------------------------------------------
    def classical_obj(self, labels) -> tuple:
        return (quantum.cwire(matcat.obj(*labels)),)

    def quantum_obj(self, dim: int) -> tuple:
        return (quantum.QWire(dim),)

    def obj_tensor(self, a: tuple, b: tuple) -> tuple:
        return tuple(a) + tuple(b)

    @property
    def unit(self) -> tuple:
        return ()

    # morphisms -----------------------------------------------------------
    def compose(self, g, f):
        return quantum.s_compose(g, f)

    def tensor(self, f, g):
        return quantum.s_tensor(f, g)

    def add(self, f, g):
        return quantum.s_add(f, g)

    def scale(self, s, f):
        return quantum.s_scale(s, f)

    def identity(self, wires):
        return quantum.s_identity(self.sr, wires)

    def zero(self, dom, cod):
        return quantum.s_zero(self.sr, dom, cod)

    def discard(self, wires):
        return quantum.s_discard(self.sr, wires)

    def swap(self, a, b):
        if len(a) != 1 or len(b) != 1:
            raise ShapeError("swap is primitive only for single adjacent wires")
        return quantum.s_swap(self.sr, a[0], b[0])

    def equal(self, f, g) -> bool:
        return quantum.s_equal(f, g)

    def is_normalised(self, f) -> bool:
        return quantum.s_is_normalised(f)

    def dom(self, f):
        return f.dom

    def cod(self, f):
        return f.cod

    # classical interface -------------------------------------------------
    def delta_state(self, x: tuple, label):
        if len(x) != 1 or not isinstance(x[0], quantum.CWire):
            raise ShapeError("delta states live on single classical wires")
        f = matcat.delta_state(self.pp.ring, x[0].as_obj(), label)
        return quantum.classical_embed(f, self.pp, dom=(), cod=x)

    def point_effect(self, x: tuple, label):
        if len(x) != 1 or not isinstance(x[0], quantum.CWire):
            raise ShapeError("point effects live on single classical wires")
        f = matcat.point_effect(self.pp.ring, x[0].as_obj(), label)
        return quantum.classical_embed(f, self.pp, dom=x, cod=())

    def to_classical(self, f) -> Morphism:
        return quantum.classical_extract(f, self.pp)

    def from_classical(self, f: Morphism, dom=None, cod=None):
        if f.sr is not self.pp.ring:
            raise ShapeError(
                f"classical matrix must be over the scalar semiring {self.pp.ring.id}"
            )
        return quantum.classical_embed(f, self.pp, dom, cod)

    def distribution(self, state, outcome_obj) -> dict:
        """The outcome weights of a state; a weight outside R raises a
        SemiringError that names its outcome."""
        try:
            cls = quantum.classical_extract(state, self.pp)
        except SemiringError as exc:
            weights = (state.entries[k][0] for k in quantum._diagonal(state.cod))
            labels = quantum._wires_as_obj(state.cod).labels
            bad = next(lab for lab, w in zip(labels, weights) if not self.pp.member(w))
            raise SemiringError(f"outcome {'|'.join(map(str, bad))}: {exc}") from None
        return {lab: cls.entries[i][0] for i, lab in enumerate(cls.cod.labels)}

    def double(self, mat, dom, cod):
        return quantum.double(self.sr, mat, dom, cod)

    def random_normalised(self, dom, cod, rng):
        """A random channel: basis measurement, stochastic map, preparation."""
        xd, xc = (matcat.obj_of_size(quantum.plain_dim(w)) for w in (dom, cod))
        stoch = matcat.random_normalised(self.pp.ring, xd, xc, rng)
        return quantum.classical_embed(stoch, self.pp, dom, cod)

    def random_morphism(self, dom, cod, rng):
        """A random CP map built from Kraus data. If any wire is classical,
        every wire is decohered, so the sample is a classical process between
        the standard bases (on Q -> C, a basis measurement)."""
        k = rng.randrange(1, 3)
        mats = [
            [[self.sr.sample(rng) for _ in range(quantum.plain_dim(dom))]
             for _ in range(quantum.plain_dim(cod))]
            for _ in range(k)
        ]
        phi = quantum.cpm_from_kraus(quantum.kraus_family(self.sr, dom, cod, mats))
        if any(isinstance(w, quantum.CWire) for w in tuple(dom) + tuple(cod)):
            phi = quantum.decohere(phi)
        return phi


# ---------------------------------------------------------------------------
# toy-theory zoo

TOY_THEORIES = {
    "quantum-exact": ("gauss-rat", "ordinary quantum theory, exact Gaussian-rational amplitudes"),
    "quantum-f64": ("complex-f64", "ordinary quantum theory, double-precision amplitudes"),
    "real": ("rat", "real quantum theory (identity involution)"),
    "hyperbolic": ("split-rat", "hyperbolic quantum theory (signed probabilities)"),
    "relational": ("bool", "relational quantum theory (possibilities)"),
    "modal": ("gf2 {p}", "modal quantum theory over GF(p^2), scalars GF(p)"),
}


def toy_theory(name: str, p: int = 2, tolerance: float = 1e-9) -> QuantumBackend:
    """A fully wired quantum backend for one of the toy theories."""
    name = name.strip()
    if name.startswith("modal"):
        inner = name[len("modal"):].strip("() ")
        if inner:
            p = int(inner)
        return QuantumBackend(get_semiring(f"gf2 {p}"))
    if name.startswith("p-adic"):
        raise SemiringError("p-adic quantum theory is out of scope")
    if name not in TOY_THEORIES:
        raise SemiringError(f"unknown toy theory {name!r}")
    sid, _ = TOY_THEORIES[name]
    return QuantumBackend(get_semiring(sid, tolerance=tolerance))


def toyzoo_table() -> list:
    """Rows (name, S, involution, R, description) for the supported theories."""
    rows = []
    for name, (sid, desc) in TOY_THEORIES.items():
        sr = get_semiring(sid.format(p=2))
        rid = positive_part(sr).ring.id
        if name == "modal":  # one theory per prime p
            sid, rid = "gf2 p", "gf p"
        rows.append((name, sid, sr.involution, rid, desc))
    return rows


# ---------------------------------------------------------------------------
# backend self-test: the three clauses of the probabilistic-theory definition


def backend_self_test(backend, seed: int = 0, rounds: int = 25) -> list:
    """Check the SMC + enrichment + environment-structure laws on random data.

    Returns a list of violation descriptions (empty on success).
    """
    rng = random.Random(seed)
    problems = []

    def chk(cond, msg):
        if not cond:
            problems.append(msg)

    if backend.kind == "classical":
        objs = [backend.classical_obj(["0", "1"]), backend.classical_obj(["a", "b", "c"])]
    else:
        objs = [backend.quantum_obj(2), backend.classical_obj(["0", "1"])]

    for _ in range(rounds):
        a, b = rng.choice(objs), rng.choice(objs)
        c = rng.choice(objs)
        f = backend.random_morphism(a, b, rng)
        g = backend.random_morphism(b, c, rng)
        h = backend.random_morphism(a, b, rng)
        k = backend.random_morphism(b, c, rng)

        # enrichment: commutative monoids, with composition and tensor bilinear
        chk(backend.equal(backend.add(f, h), backend.add(h, f)), "addition is not commutative")
        chk(backend.equal(backend.add(f, backend.zero(a, b)), f), "zero is not a unit for addition")
        chk(
            backend.equal(
                backend.compose(g, backend.add(f, h)),
                backend.add(backend.compose(g, f), backend.compose(g, h)),
            ),
            "composition is not linear on the right",
        )
        chk(
            backend.equal(
                backend.compose(backend.add(g, k), f),
                backend.add(backend.compose(g, f), backend.compose(k, f)),
            ),
            "composition is not linear on the left",
        )
        chk(
            backend.equal(
                backend.tensor(backend.add(f, h), g),
                backend.add(backend.tensor(f, g), backend.tensor(h, g)),
            ),
            "tensor is not linear",
        )
        chk(
            backend.equal(backend.compose(g, backend.zero(a, b)), backend.zero(a, c)),
            "composition with the impossible process is not impossible",
        )

        # interchange
        f2 = backend.random_morphism(b, c, rng)
        g2 = backend.random_morphism(a, b, rng)
        lhs = backend.compose(backend.tensor(f2, g), backend.tensor(f, g2))
        rhs = backend.tensor(backend.compose(f2, f), backend.compose(g, g2))
        chk(backend.equal(lhs, rhs), "interchange law fails")

        # environment structure
        chk(
            backend.equal(
                backend.tensor(backend.discard(a), backend.discard(b)),
                backend.discard(backend.obj_tensor(a, b)),
            ),
            "discard does not respect tensor",
        )
        n = backend.random_normalised(a, b, rng)
        chk(backend.is_normalised(n), "random normalised morphism fails normalisation")
        chk(
            backend.equal(backend.compose(backend.discard(b), n), backend.discard(a)),
            "normalised process is not absorbed by discard",
        )

    # clause 1: the classical sub-theory embeds faithfully
    x = backend.classical_obj(["0", "1"])
    scalars = backend.scalar_ring
    fcl = matcat.random_normalised(scalars, matcat.obj("0", "1"), matcat.obj("0", "1"), rng)
    gcl = matcat.random_morphism(scalars, matcat.obj("0", "1"), matcat.obj("0", "1"), rng)
    emb_f = backend.from_classical(fcl)
    emb_g = backend.from_classical(gcl)
    comp = backend.compose(emb_g, emb_f)
    chk(
        matcat.equal(backend.to_classical(comp), matcat.compose(gcl, fcl)),
        "classical embedding does not preserve composition",
    )
    chk(
        matcat.equal(backend.to_classical(emb_f), fcl),
        "classical embedding is not split by extraction",
    )
    chk(backend.is_normalised(emb_f), "embedding does not preserve normalisation")
    chk(
        backend.equal(backend.compose(backend.discard(x), emb_f), backend.discard(x)),
        "embedded stochastic map is not absorbed by discard",
    )

    # ambient semiring laws
    problems.extend(axioms_check(backend.sr, budget=60, seed=seed))
    return problems


def positivity_report(sr: Semiring) -> str:
    rep = is_positive(sr)
    if rep.positive:
        return "positive semiring: yes"
    wit = ", ".join(sr.fmt(x) for x in rep.witness)
    return f"positive semiring: no (witness family: {wit})"
