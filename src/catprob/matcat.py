"""The classical theory Mat(R): finite label sets and R-valued matrices.

Objects are ordered lists of labels; each label is a tuple of atoms so that
the tensor product (concatenation of atom tuples, row-major with the first
factor major) is strictly associative and the unit object is the singleton
with the empty atom tuple.

Morphisms are cod-by-dom matrices stored row-major. All operations are pure;
values are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from .semirings import ConditioningError, Semiring


class ShapeError(ValueError):
    pass


@dataclass(frozen=True)
class Obj:
    """A finite nonempty classical system; labels are tuples of atoms."""

    labels: tuple

    def __post_init__(self):
        if len(self.labels) == 0:
            raise ShapeError("classical systems are finite *non-empty* sets")
        if len(set(self.labels)) != len(self.labels):
            raise ShapeError(f"duplicate labels: {self.labels}")

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label) -> int:
        if not isinstance(label, tuple):
            label = (label,)
        return self.labels.index(label)

    def __repr__(self):
        return "Obj[" + ",".join(".".join(map(str, l)) or "()" for l in self.labels) + "]"


def obj(*atoms) -> Obj:
    """An atomic classical object with the given labels."""
    return Obj(tuple((a,) for a in atoms))


def obj_of_size(n: int, prefix: str = "") -> Obj:
    return obj(*(f"{prefix}{k}" for k in range(n)))


UNIT = Obj(((),))  # the singleton system 1


def obj_tensor(a: Obj, b: Obj) -> Obj:
    return Obj(tuple(x + y for x in a.labels for y in b.labels))


@dataclass(frozen=True)
class Morphism:
    """A cod-by-dom matrix of semiring elements."""

    dom: Obj
    cod: Obj
    entries: tuple  # tuple of row tuples, entries[r][c]
    sr: Semiring

    def __post_init__(self):
        rows, cols = self.cod.size, self.dom.size
        if len(self.entries) != rows or any(len(row) != cols for row in self.entries):
            raise ShapeError(
                f"entry shape {len(self.entries)}x{len(self.entries[0]) if self.entries else 0}"
                f" does not match {rows}x{cols}"
            )

    def __getitem__(self, rc):
        return self.entries[rc[0]][rc[1]]

    def entry(self, out_label, in_label):
        return self.entries[self.cod.index(out_label)][self.dom.index(in_label)]

    def __repr__(self):
        rows = "; ".join(" ".join(self.sr.fmt(x) for x in row) for row in self.entries)
        return f"Morphism({self.dom}->{self.cod} | {rows})"


def _coerced(sr: Semiring, x):
    if sr.is_element(x):
        return x
    try:
        return sr.coerce(x)
    except (TypeError, ValueError, IndexError):
        return x


def morphism(sr: Semiring, dom: Obj, cod: Obj, rows) -> Morphism:
    entries = tuple(tuple(_coerced(sr, x) for x in row) for row in rows)
    for row in entries:
        for x in row:
            if not sr.is_element(x):
                raise ShapeError(f"{x!r} is not a valid element of {sr.id}")
    return Morphism(dom, cod, entries, sr)


def _same_semiring(a, b) -> Semiring:
    """The semiring of both values; a ShapeError naming the two otherwise."""
    if a.sr is not b.sr:
        names = (sr.id if sr.exact else f"{sr.id} (tolerance {sr.tolerance})" for sr in (a.sr, b.sr))
        raise ShapeError("semiring mismatch: {} vs {}".format(*names))
    return a.sr


# ---------------------------------------------------------------------------
# entry loops, shared with the doubled matrices of `quantum`: `f` and `g` may
# be any values with `dom`, `cod`, `sr` and row-tuple `entries`


def _kron(sr: Semiring, f_rows, g_rows) -> tuple:
    """The Kronecker product of two row-tuple matrices, first factor major.

    Over an exact semiring a zero entry of f gives a block of `sr.zero` and a
    zero row of g a zero segment, with no multiplication, since 0 b = a 0 = 0
    holds there exactly. A float product keeps its computed value: `fmt`
    prints its signed zeros, and `(-1+0j) * 0j` is `-0+0j`."""
    mul = sr.mul
    if not sr.exact:
        return tuple(tuple([mul(a, b) for a in rf for b in rg]) for rf in f_rows for rg in g_rows)
    zero = sr.zero
    zg = (zero,) * len(g_rows[0])
    zrow = zg * len(f_rows[0])
    g_live = [rg if rg != zg else None for rg in g_rows]
    out = []
    for rf in f_rows:
        rf = [a if a != zero else None for a in rf]
        for rg in g_live:
            if rg is None:
                out.append(zrow)
                continue
            row = []
            for a in rf:
                row += zg if a is None else [mul(a, b) for b in rg]
            out.append(tuple(row))
    return tuple(out)


def _sum_rows(f, g) -> tuple:
    """The entrywise sum f + g of two values of one semiring and shape."""
    sr = _same_semiring(f, g)
    if f.dom != g.dom or f.cod != g.cod:
        raise ShapeError("sum needs matching shapes")
    return tuple(tuple(map(sr.add, rf, rg)) for rf, rg in zip(f.entries, g.entries))


def _scaled_rows(s, f) -> tuple:
    """The entries of f, each x replaced by s x."""
    mul = f.sr.mul
    return tuple(tuple([mul(s, x) for x in row]) for row in f.entries)


def _first_difference(f, g):
    """The first (row, col, lhs, rhs) where f and g differ under f's `eq`,
    (-1, -1, None, None) if their shapes differ, or None."""
    if f.dom != g.dom or f.cod != g.cod:
        return (-1, -1, None, None)
    eq = f.sr.eq
    for r, (rf, rg) in enumerate(zip(f.entries, g.entries)):
        for c, (a, b) in enumerate(zip(rf, rg)):
            if not eq(a, b):
                return (r, c, a, b)
    return None


# ---------------------------------------------------------------------------
# SMC structure


def identity(sr: Semiring, x: Obj) -> Morphism:
    n = x.size
    return Morphism(
        x, x, tuple(tuple(sr.one if r == c else sr.zero for c in range(n)) for r in range(n)), sr
    )


def zero(sr: Semiring, dom: Obj, cod: Obj) -> Morphism:
    return Morphism(dom, cod, tuple(tuple(sr.zero for _ in range(dom.size)) for _ in range(cod.size)), sr)


def compose(g: Morphism, f: Morphism) -> Morphism:
    """Sequential composition g . f (first f, then g): matrix product."""
    sr = _same_semiring(g, f)
    if f.cod != g.dom:
        raise ShapeError(f"cannot compose: cod {f.cod} != dom {g.dom}")
    return Morphism(f.dom, g.cod, sr.matmul(g.entries, f.entries), sr)


def tensor(f: Morphism, g: Morphism) -> Morphism:
    """Parallel composition: the Kronecker product, first factor major."""
    sr = _same_semiring(f, g)
    return Morphism(
        obj_tensor(f.dom, g.dom), obj_tensor(f.cod, g.cod), _kron(sr, f.entries, g.entries), sr
    )


def madd(f: Morphism, g: Morphism) -> Morphism:
    return Morphism(f.dom, f.cod, _sum_rows(f, g), f.sr)


def scale(s, f: Morphism) -> Morphism:
    return Morphism(f.dom, f.cod, _scaled_rows(s, f), f.sr)


def msum(fs) -> Morphism:
    fs = list(fs)
    acc = fs[0]
    for f in fs[1:]:
        acc = madd(acc, f)
    return acc


def equal(f: Morphism, g: Morphism) -> bool:
    return _first_difference(f, g) is None


def first_difference(f: Morphism, g: Morphism):
    """The first (row, col, lhs, rhs) where the two matrices differ, or None."""
    return _first_difference(f, g)


def swap(sr: Semiring, a: Obj, b: Obj) -> Morphism:
    """The symmetry a (x) b -> b (x) a."""
    dom = obj_tensor(a, b)
    cod = obj_tensor(b, a)
    rows = [[sr.zero] * dom.size for _ in range(cod.size)]
    for i, la in enumerate(a.labels):
        for j, lb in enumerate(b.labels):
            rows[j * a.size + i][i * b.size + j] = sr.one
    return Morphism(dom, cod, tuple(map(tuple, rows)), sr)


# ---------------------------------------------------------------------------
# environment structure and classical generators


def discard(sr: Semiring, x: Obj) -> Morphism:
    """The all-ones effect implementing marginalisation."""
    return Morphism(x, UNIT, (tuple(sr.one for _ in range(x.size)),), sr)


def scalar(sr: Semiring, value) -> Morphism:
    return Morphism(UNIT, UNIT, ((value,),), sr)


def delta_state(sr: Semiring, x: Obj, label) -> Morphism:
    """The deterministic state concentrated on one label."""
    i = x.index(label)
    return Morphism(UNIT, x, tuple((sr.one if r == i else sr.zero,) for r in range(x.size)), sr)


def point_effect(sr: Semiring, x: Obj, label) -> Morphism:
    """The effect sending one label to 1 and everything else to 0."""
    i = x.index(label)
    return Morphism(x, UNIT, (tuple(sr.one if c == i else sr.zero for c in range(x.size)),), sr)


def state(sr: Semiring, x: Obj, weights) -> Morphism:
    return Morphism(UNIT, x, tuple((w,) for w in weights), sr)


def deterministic_embed(sr: Semiring, dom: Obj, cod: Obj, fn: Callable) -> Morphism:
    """The 0/1 matrix of a (possibly partial) function on labels.

    `fn` maps dom labels to cod labels; returning None means undefined there.
    """
    rows = [[sr.zero] * dom.size for _ in range(cod.size)]
    for c, lab in enumerate(dom.labels):
        target = fn(lab)
        if target is None:
            continue
        if not isinstance(target, tuple):
            target = (target,)
        if target not in cod.labels:
            raise ShapeError(f"function target {target!r} is not a label of {cod}")
        rows[cod.labels.index(target)][c] = sr.one
    return Morphism(dom, cod, tuple(map(tuple, rows)), sr)


def copy_map(sr: Semiring, x: Obj) -> Morphism:
    """The wire-splitting X -> X (x) X with ((x,x),x) entries 1."""
    xx = obj_tensor(x, x)
    rows = [[sr.zero] * x.size for _ in range(xx.size)]
    for i in range(x.size):
        rows[i * x.size + i][i] = sr.one
    return Morphism(x, xx, tuple(map(tuple, rows)), sr)


def is_normalised(f: Morphism) -> bool:
    """discard . f = discard, i.e. every column sums to one."""
    sr = f.sr
    return all(
        sr.eq(sr.sum(f.entries[r][c] for r in range(f.cod.size)), sr.one)
        for c in range(f.dom.size)
    )


# ---------------------------------------------------------------------------
# operational constructions (tests, conditioning, control, coarse-graining)


def _check_split(whole: Obj, left: Obj, right: Obj):
    if obj_tensor(left, right) != whole:
        raise ShapeError(f"{left} (x) {right} is not a factorisation of {whole}")


def test_against(f: Morphism, k: Obj, y: Obj, label) -> Morphism:
    """The weighted process f_y = (id_K (x) <y|) . f for cod(f) = K (x) Y."""
    _check_split(f.cod, k, y)
    proj = tensor(identity(f.sr, k), point_effect(f.sr, y, label))
    g = compose(proj, f)
    return Morphism(f.dom, k, g.entries, f.sr)  # strip the unit atoms


def output_probability(rho: Morphism, h: Obj, y: Obj, label):
    """The R-probability of classical output `label` in a preparation test."""
    if rho.dom != UNIT:
        raise ShapeError("output_probability expects a state (domain 1)")
    _check_split(rho.cod, h, y)
    eff = tensor(discard(rho.sr, h), point_effect(rho.sr, y, label))
    return compose(eff, rho).entries[0][0]


def condition(rho: Morphism, h: Obj, y: Obj, label) -> Morphism:
    """The state on H obtained by conditioning on output `label`."""
    p = output_probability(rho, h, y, label)
    sr = rho.sr
    if not sr.invertible(p):
        raise ConditioningError(
            f"cannot condition: probability {sr.fmt(p)} is not invertible in {sr.id}"
        )
    rho_y = compose(tensor(identity(sr, h), point_effect(sr, y, label)), rho)
    rho_y = Morphism(UNIT, h, rho_y.entries, sr)
    return scale(sr.inv(p), rho_y)


def restrict(rho: Morphism, h: Obj, y: Obj) -> Morphism:
    """The reduced state on H: discard the classical output."""
    _check_split(rho.cod, h, y)
    red = compose(tensor(identity(rho.sr, h), discard(rho.sr, y)), rho)
    return Morphism(UNIT, h, red.entries, rho.sr)


def control_apply(f: Morphism, h: Obj, x: Obj, p: Morphism) -> Morphism:
    """Apply f with dom(f) = H (x) X to a control state p on X."""
    _check_split(f.dom, h, x)
    if p.dom != UNIT or p.cod != x:
        raise ShapeError("control state must be a state on the control system")
    applied = compose(f, tensor(identity(f.sr, h), p))
    return Morphism(h, f.cod, applied.entries, f.sr)


def fix_control(f: Morphism, h: Obj, x: Obj, label) -> Morphism:
    """The branch f^(x) for a definite control value."""
    return control_apply(f, h, x, delta_state(f.sr, x, label))


def coarse_grain(f: Morphism, k: Obj, x: Obj, q: Callable, z: Obj) -> Morphism:
    """Post-process the classical output factor X of f by a total function q."""
    _check_split(f.cod, k, x)
    for lab in x.labels:
        if q(lab) is None:
            raise ShapeError(f"coarse-graining function undefined at {lab!r}")
    qm = deterministic_embed(f.sr, x, z, q)
    return compose(tensor(identity(f.sr, k), qm), f)


def preparation_test(f: Morphism, x: Obj, q: Morphism) -> Morphism:
    """Preparation test (f (x) id_X) . copy . q from a controlled preparation.

    Requires both the controlled preparation and the distribution to be
    normalised, so that the classical output is distributed exactly as q.
    """
    if f.dom != x:
        raise ShapeError("controlled preparation must have the control system as domain")
    if q.dom != UNIT or q.cod != x:
        raise ShapeError("q must be a state on the control system")
    if not is_normalised(f):
        raise ShapeError("controlled preparation must be normalised")
    if not is_normalised(q):
        raise ShapeError("control distribution must be normalised")
    return compose(tensor(f, identity(f.sr, x)), compose(copy_map(f.sr, x), q))


# ---------------------------------------------------------------------------
# random generation helpers (for tests and self-checks)


def random_morphism(sr: Semiring, dom: Obj, cod: Obj, rng) -> Morphism:
    return Morphism(
        dom,
        cod,
        tuple(tuple(sr.sample(rng) for _ in range(dom.size)) for _ in range(cod.size)),
        sr,
    )


def random_normalised(sr: Semiring, dom: Obj, cod: Obj, rng) -> Morphism:
    """A random column-stochastic matrix (each column an R-distribution)."""
    cols = [sr.distribution(sr, rng, cod.size) for _ in range(dom.size)]
    rows = tuple(tuple(col[r] for col in cols) for r in range(cod.size))
    return Morphism(dom, cod, rows, sr)
