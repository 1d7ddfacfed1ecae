"""Doubled (CPM-style) processes over an involutive semiring.

A `Superoperator` acts between lists of wires. Every wire is doubled: a
quantum wire of dimension d contributes an index pair (i, i') with i, i' < d;
a classical wire with n labels likewise contributes a pair (i, i') but its
off-diagonal blocks are constrained to zero (decoherence invariance), which
is what makes the wire classical.

The global index of a wire list is the mixed-radix number with digits
(i_1, i_1', i_2, i_2', ...), row-major with the first wire major. Under this
fixed linearisation doubling is functorial: double(f (x) g) equals
double(f) (x) double(g) entry for entry. `_plain_pairs` is the one place
that maps a doubled index to its plain indices (y, y'); every construction
that needs the layout reads it from there. Likewise `_live` (the doubled
indices diagonal on every classical wire) is the one statement of the
classical-wire rule, and decoherence is an index mask, not a matrix product.

A superoperator is a Mat(S) matrix on doubled indices, so its tensor, sum,
scaling and equality run `matcat`'s entry loops, and its product runs
`Semiring.matmul`, behind this module's wire checks.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Optional

from . import matcat
from .matcat import (
    Morphism, Obj, ShapeError, _first_difference, _kron, _same_semiring, _scaled_rows, _sum_rows,
)
from .semirings import PositivePart, Semiring, SemiringError


@dataclass(frozen=True)
class QWire:
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ShapeError("quantum wire dimension must be positive")

    @property
    def size(self) -> int:
        return self.dim

    def __repr__(self):
        return f"Q{self.dim}"


@dataclass(frozen=True)
class CWire:
    """A classical wire, carrying the labels of the classical system."""

    labels: tuple  # tuples of atoms, as in matcat.Obj

    @property
    def size(self) -> int:
        return len(self.labels)

    def as_obj(self) -> Obj:
        return Obj(self.labels)

    def __repr__(self):
        return f"C{self.size}"


def cwire(x: Obj) -> CWire:
    return CWire(x.labels)


def doubled_dim(wires: tuple) -> int:
    d = 1
    for w in wires:
        d *= w.size * w.size
    return d


def plain_dim(wires: tuple) -> int:
    d = 1
    for w in wires:
        d *= w.size
    return d


def index_pairs(wires: tuple):
    """All digit tuples ((i1,i1'),(i2,i2'),...) in linearisation order."""
    return itertools.product(*(itertools.product(range(w.size), repeat=2) for w in wires))


def lin(wires: tuple, pairs) -> int:
    idx = 0
    for w, (i, j) in zip(wires, pairs):
        idx = (idx * w.size + i) * w.size + j
    return idx


def plain_lin(wires: tuple, digits) -> int:
    idx = 0
    for w, i in zip(wires, digits):
        idx = idx * w.size + i
    return idx


@dataclass(frozen=True)
class Superoperator:
    """A matrix between doubled wire lists; classical wires are constrained."""

    dom: tuple  # wires
    cod: tuple
    entries: tuple  # row-major over the doubled indices
    sr: Semiring

    def __post_init__(self):
        cols = doubled_dim(self.dom)
        if len(self.entries) != doubled_dim(self.cod) or any(len(r) != cols for r in self.entries):
            raise ShapeError("superoperator entry shape mismatch")

    def __getitem__(self, rc):
        return self.entries[rc[0]][rc[1]]

    def __repr__(self):
        return f"Superoperator({list(self.dom)}->{list(self.cod)} over {self.sr.id})"


class NotDecoheredError(ShapeError):
    pass


def check_classical_invariance(phi: Superoperator) -> None:
    """Entries touching an off-diagonal classical digit pair must vanish."""
    diff = _first_difference(phi, _masked(phi, _live(phi.cod), _live(phi.dom)))
    if diff is not None:
        raise NotDecoheredError(
            f"entry at row {diff[0]}, col {diff[1]} breaks decoherence invariance on a classical wire"
        )


def superoperator(sr: Semiring, dom: tuple, cod: tuple, entries) -> Superoperator:
    phi = Superoperator(tuple(dom), tuple(cod), tuple(tuple(r) for r in entries), sr)
    check_classical_invariance(phi)
    return phi


def _masked(phi: Superoperator, rows: tuple, cols: tuple) -> Superoperator:
    """phi with every entry outside the block rows x cols set to zero."""
    blank = (phi.sr.zero,) * doubled_dim(phi.dom)
    out = [blank] * doubled_dim(phi.cod)
    for r in rows:
        out[r] = kept = list(blank)
        for c in cols:
            kept[c] = phi.entries[r][c]
    return Superoperator(phi.dom, phi.cod, tuple(map(tuple, out)), phi.sr)


def _zeros(rows: int, cols: int, z):
    return [[z] * cols for _ in range(rows)]


# ---------------------------------------------------------------------------
# SMC structure


def s_identity(sr: Semiring, wires: tuple) -> Superoperator:
    n = doubled_dim(wires)
    rows = _zeros(n, n, sr.zero)
    for i in _live(wires):
        rows[i][i] = sr.one
    return Superoperator(tuple(wires), tuple(wires), tuple(map(tuple, rows)), sr)


def s_zero(sr: Semiring, dom: tuple, cod: tuple) -> Superoperator:
    return Superoperator(
        tuple(dom), tuple(cod),
        tuple(map(tuple, _zeros(doubled_dim(cod), doubled_dim(dom), sr.zero))), sr,
    )


def s_compose(g: Superoperator, f: Superoperator) -> Superoperator:
    sr = _same_semiring(g, f)
    if f.cod != g.dom:
        raise ShapeError(f"cannot compose: cod {f.cod} != dom {g.dom}")
    return Superoperator(f.dom, g.cod, sr.matmul(g.entries, f.entries), sr)


def s_tensor(f: Superoperator, g: Superoperator) -> Superoperator:
    sr = _same_semiring(f, g)
    return Superoperator(f.dom + g.dom, f.cod + g.cod, _kron(sr, f.entries, g.entries), sr)


def s_add(f: Superoperator, g: Superoperator) -> Superoperator:
    return Superoperator(f.dom, f.cod, _sum_rows(f, g), f.sr)


def s_scale(s, f: Superoperator) -> Superoperator:
    return Superoperator(f.dom, f.cod, _scaled_rows(s, f), f.sr)


def s_equal(f: Superoperator, g: Superoperator) -> bool:
    return _first_difference(f, g) is None


def s_swap(sr: Semiring, a, b) -> Superoperator:
    """The symmetry swapping two adjacent wires."""
    dom, cod = (a, b), (b, a)
    rows = _zeros(doubled_dim(cod), doubled_dim(dom), sr.zero)
    row_of = {yy: r for r, yy in enumerate(zip(*_plain_pairs(cod)))}
    ys, yps = _plain_pairs(dom)
    for c in _live(dom):
        (i, j), (ip, jp) = divmod(ys[c], b.size), divmod(yps[c], b.size)
        rows[row_of[j * a.size + i, jp * a.size + ip]][c] = sr.one
    return Superoperator(dom, cod, tuple(map(tuple, rows)), sr)


def s_discard(sr: Semiring, wires: tuple) -> Superoperator:
    """Trace on quantum wires, marginalisation on classical wires."""
    row = [sr.zero] * doubled_dim(wires)
    for k in _diagonal(wires):
        row[k] = sr.one
    return Superoperator(tuple(wires), (), (tuple(row),), sr)


def s_is_normalised(f: Superoperator) -> bool:
    return s_equal(s_compose(s_discard(f.sr, f.cod), f), s_discard(f.sr, f.dom))


# ---------------------------------------------------------------------------
# doubling and Kraus data


def double(sr: Semiring, mat, dom: tuple, cod: tuple) -> Superoperator:
    """The CPM doubling f (x) f* of a pure matrix between the wire lists.

    `mat` is a plain cod-by-dom matrix (plain dims), nested sequences.
    """
    dom, cod = tuple(dom), tuple(cod)
    mat = [list(r) for r in mat]
    cols = plain_dim(dom)
    if len(mat) != plain_dim(cod) or any(len(r) != cols for r in mat):
        raise ShapeError("pure matrix shape does not match the wire lists")
    conj = [list(map(sr.star, r)) for r in mat]
    xs, xps = _plain_pairs(dom)
    rows = tuple(
        tuple(map(sr.mul, map(mat[y].__getitem__, xs), map(conj[yp].__getitem__, xps)))
        for y, yp in zip(*_plain_pairs(cod))
    )
    return Superoperator(dom, cod, rows, sr)


@functools.lru_cache(maxsize=64)
def _plain_pairs(wires: tuple) -> tuple:
    """The plain indices (y, y') of each doubled index of `wires`, as two
    tuples in linearisation order: the one map from doubled to plain
    indices."""
    pairs = list(index_pairs(wires))
    return (
        tuple(plain_lin(wires, [i for i, _ in p]) for p in pairs),
        tuple(plain_lin(wires, [j for _, j in p]) for p in pairs),
    )


@functools.lru_cache(maxsize=64)
def _diagonal(wires: tuple) -> tuple:
    """The doubled index of each (y, y), in plain order y = 0, 1, ..."""
    return tuple(k for k, (y, yp) in enumerate(zip(*_plain_pairs(wires))) if y == yp)


@functools.lru_cache(maxsize=64)
def _live(wires: tuple) -> tuple:
    """The doubled indices diagonal on every classical wire, in order."""
    return tuple(
        k for k, pairs in enumerate(index_pairs(wires))
        if all(i == j for w, (i, j) in zip(wires, pairs) if isinstance(w, CWire))
    )


@dataclass(frozen=True)
class KrausFamily:
    """A nonempty list of pure cod-by-dom matrices sharing one shape."""

    elements: tuple  # tuple of matrices (tuple of row tuples)
    dom: tuple
    cod: tuple
    sr: Semiring

    def __post_init__(self):
        if not self.elements:
            raise ShapeError("Kraus family must be nonempty")
        for k in self.elements:
            if len(k) != plain_dim(self.cod) or any(len(r) != plain_dim(self.dom) for r in k):
                raise ShapeError("inconsistent Kraus element shapes")

    @property
    def env_dim(self) -> int:
        return len(self.elements)


def kraus_family(sr: Semiring, dom: tuple, cod: tuple, mats) -> KrausFamily:
    return KrausFamily(tuple(tuple(tuple(r) for r in m) for m in mats), tuple(dom), tuple(cod), sr)


def cpm_from_kraus(k: KrausFamily) -> Superoperator:
    """Sum of doubled Kraus elements (environment leg contracted)."""
    acc = s_zero(k.sr, k.dom, k.cod)
    for m in k.elements:
        acc = s_add(acc, double(k.sr, m, k.dom, k.cod))
    return acc


def stack_environment(k: KrausFamily):
    """The pure map H -> G (x) E whose environment contraction gives the channel.

    Returns (pure matrix, wire list cod + (QWire(env_dim),)).
    """
    rows = tuple(tuple(m[y]) for y in range(plain_dim(k.cod)) for m in k.elements)
    return rows, k.cod + (QWire(k.env_dim),)


def decoherence_superop(sr: Semiring, a: QWire) -> Superoperator:
    """Standard-basis decoherence: kill all off-diagonal doubled entries."""
    return decoherence_all(sr, (a,))


def decoherence_all(sr: Semiring, wires: tuple) -> Superoperator:
    """Decoherence projector on every wire (identity has the same effect on
    classical wires, which are diagonal already)."""
    return decohere(s_identity(sr, tuple(wires)))


def decohere(phi: Superoperator) -> Superoperator:
    """dec o phi o dec, every wire decohered: phi on the diagonal of both
    wire lists, zero elsewhere."""
    return _masked(phi, _diagonal(phi.cod), _diagonal(phi.dom))


def is_decoherence_invariant(phi: Superoperator) -> bool:
    return s_equal(phi, decohere(phi))


# ---------------------------------------------------------------------------
# Born-rule classical extraction (and its inverse embedding)


def classical_extract(phi: Superoperator, pp: PositivePart) -> Morphism:
    """The classical matrix <y| f(|x><x|) |y> of a decoherence-invariant map.

    All wires are reinterpreted as classical; entries are retracted into the
    positive scalar semiring R.
    """
    if not is_decoherence_invariant(phi):
        raise NotDecoheredError("superoperator is not decoherence-invariant")
    cols = _diagonal(phi.dom)
    rows = tuple(tuple(pp.retract(phi.entries[r][c]) for c in cols) for r in _diagonal(phi.cod))
    return Morphism(_wires_as_obj(phi.dom), _wires_as_obj(phi.cod), rows, pp.ring)


def classical_embed(f: Morphism, pp: PositivePart, dom: tuple = None, cod: tuple = None) -> Superoperator:
    """Embed a classical matrix over R as a decohered superoperator over S."""
    sr = pp.ambient
    dom = tuple(dom) if dom is not None else (cwire(f.dom),)
    cod = tuple(cod) if cod is not None else (cwire(f.cod),)
    if plain_dim(dom) != f.dom.size or plain_dim(cod) != f.cod.size:
        raise ShapeError("wire lists do not match the classical matrix shape")
    rows = _zeros(doubled_dim(cod), doubled_dim(dom), sr.zero)
    cols = _diagonal(dom)
    for r, frow in zip(_diagonal(cod), f.entries):
        for c, x in zip(cols, frow):
            rows[r][c] = pp.embed(x)
    return Superoperator(dom, cod, tuple(map(tuple, rows)), sr)


def _wires_as_obj(wires: tuple) -> Obj:
    if not wires:
        return matcat.UNIT
    o = None
    for w in wires:
        cur = Obj(w.labels) if isinstance(w, CWire) else matcat.obj_of_size(w.dim)
        o = cur if o is None else matcat.obj_tensor(o, cur)
    return o


# ---------------------------------------------------------------------------
# Choi matrix, purity, purification


def choi_matrix(phi: Superoperator):
    """Choi[(y,x),(y',x')] = Phi[(y,y'),(x,x')] (frozen reshuffle convention),
    on quantum-only wires."""
    if any(isinstance(w, CWire) for w in phi.dom + phi.cod):
        raise ShapeError("choi_matrix expects quantum-only wires")
    din = plain_dim(phi.dom)
    n = plain_dim(phi.cod) * din
    choi = _zeros(n, n, phi.sr.zero)
    xs, xps = _plain_pairs(phi.dom)
    for row, y, yp in zip(phi.entries, *_plain_pairs(phi.cod)):
        for v, x, xp in zip(row, xs, xps):
            choi[y * din + x][yp * din + xp] = v
    return choi


def _matrix_rank_field(sr: Semiring, mat) -> int:
    """Rank by Gaussian elimination; needs multiplicative inverses in sr."""
    m = [list(r) for r in mat]
    rows, cols = len(m), len(m[0]) if m else 0
    rank = 0
    for c in range(cols):
        piv = None
        for r in range(rank, rows):
            if not sr.eq(m[r][c], sr.zero):
                if sr.tolerance is not None:
                    if piv is None or abs(m[r][c]) > abs(m[piv][c]):
                        piv = r
                else:
                    piv = r
                    break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = sr.inv(m[rank][c])
        m[rank] = [sr.mul(inv, v) for v in m[rank]]
        for r in range(rows):
            if r != rank and not sr.eq(m[r][c], sr.zero):
                factor = m[r][c]
                m[r] = [
                    sr.add(v, sr.mul(sr.neg(factor), w)) for v, w in zip(m[r], m[rank])
                ]
        rank += 1
    return rank


def is_pure_choi(phi: Superoperator) -> bool:
    """Desk-scale purity test: the Choi matrix has rank at most one."""
    sr = phi.sr
    if sr.neg is None:
        raise SemiringError("purity test needs a semiring with division")
    choi = choi_matrix(phi)
    if sr.tolerance is not None:
        import numpy as np

        a = np.array([[complex(v) for v in row] for row in choi])
        if a.size == 0:
            return True
        svals = np.linalg.svd(a, compute_uv=False)
        scale = max(svals[0], 1.0)
        return sum(1 for s in svals if s > sr.tolerance * scale) <= 1
    return _matrix_rank_field(sr, choi) <= 1


class NotCompletelyPositiveError(ShapeError):
    pass


def purify(phi: Superoperator, tol: float = None) -> KrausFamily:
    """Kraus decomposition of an approximate-complex channel via the Choi matrix.

    Eigenvalues are sorted descending; components below tolerance are dropped.
    The stacked family is a pure map into cod (x) environment reproducing phi
    when the environment is discarded.
    """
    import numpy as np

    sr = phi.sr
    if sr.tolerance is None:
        raise SemiringError("purify is only available in approximate-complex mode")
    tol = sr.tolerance if tol is None else tol
    choi = np.array([[complex(v) for v in row] for row in choi_matrix(phi)])
    herm_err = np.abs(choi - choi.conj().T).max()
    evals, evecs = np.linalg.eigh((choi + choi.conj().T) / 2)
    scale = max(np.abs(evals).max(), 1.0)
    if herm_err > 1e-7 * scale or evals.min() < -1e-7 * scale:
        raise NotCompletelyPositiveError("Choi matrix is not PSD within tolerance")
    order = np.argsort(-evals)
    din, dout = plain_dim(phi.dom), plain_dim(phi.cod)
    mats = []
    for k in order:
        lam = evals[k]
        if lam <= max(tol, 1e-12) * scale:
            continue
        v = evecs[:, k] * np.sqrt(lam)
        mats.append(tuple(tuple(complex(v[y * din + x]) for x in range(din)) for y in range(dout)))
    if not mats:
        mats = [tuple(tuple(0j for _ in range(din)) for _ in range(dout))]
    return kraus_family(sr, phi.dom, phi.cod, mats)
