"""Exact arithmetic for the commutative involutive semirings used as scalars.

Every instance is described by a `Semiring` record whose callables act on
plain Python values:

    bool        -> bool
    nat         -> int >= 0
    ratnn, rat  -> fractions.Fraction
    gauss-rat   -> (Fraction, Fraction)  meaning a + b*i, i^2 = -1
    split-rat   -> (Fraction, Fraction)  meaning a + b*j, j^2 = +1
    gf p        -> int in range(p)
    gf2 p       -> (int, int) meaning a + b*t over GF(p^2)
    complex-f64 -> complex (approximate mode, tolerance-based equality)

All exact representations are canonical (Fraction keeps lowest terms with
positive denominator, residues live in range(p)), so structural equality is
semantic equality in exact mode.
"""

from __future__ import annotations

import itertools
import math
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from operator import and_, mul
from typing import Any, Callable, Iterable, Optional


def _point_column(sr: "Semiring", rng: random.Random, n: int) -> list:
    """A deterministic distribution on n outcomes, at a random outcome."""
    col = [sr.zero] * n
    col[rng.randrange(n)] = sr.one
    return col


def _weighted_column(sr: "Semiring", rng: random.Random, n: int) -> list:
    """A distribution on n outcomes with weights x x* for sampled x, normalised
    by division (a point distribution when the total is not invertible)."""
    weights = [sr.mul(x, sr.star(x)) for x in (sr.sample(rng) for _ in range(n))]
    total = sr.sum(weights)
    if not sr.invertible(total):
        return _point_column(sr, rng, n)
    inv = sr.inv(total)
    return [sr.mul(w, inv) for w in weights]


@dataclass(frozen=True, eq=False)
class Semiring:
    """A commutative involutive semiring with exact (or tolerance) equality.

    `get_semiring` returns one shared instance per (id, tolerance) and
    equality is identity, so values over the same semiring compare with `==`.
    Besides its operations, each instance carries as data what the rest of
    the package needs to know about it, set by its constructor below:

    - `neg`: additive inverse in the number system of the representation
      (ratnn negates into the rationals, which Gaussian elimination needs);
      None for bool and nat;
    - `witness`: builds a family with sum zero and a nonzero member; None
      exactly when the semiring is `positive`;
    - `scalars`, `embed`, `member`, `project`: the positive sub-semiring R of
      Born-rule probabilities, R -> S, membership of the image of R, and
      S -> R on that image (see `positive_part`); `scalars` is None when
      no R is tabulated;
    - `involution`: the name of `star`;
    - `distribution`: draws one random R-distribution on n outcomes;
    - `elements`: the full carrier of a finite instance, lazily re-iterable;
    - `matmul(g_rows, f_rows)`: the matrix product g . f of two row-major
      tuples of row tuples (r x m times m x c gives r x c), the sequential
      composition of Mat(S) and of its CPM doubling. Each constructor picks a
      kernel for its representation; its results are `==` to the
      zero-skipping `add`/`mul` loop, which is the default. Every kernel runs
      only on the live block: the inner indices whose row of f is not all
      zero, the rows of g and the columns of f not all zero on them. The
      rest of the r x c result is `zero`. Classical wires of a CPM matrix
      keep only their diagonal, so most of its rows and columns are zero.
      Products of fewer than 64 multiply-adds skip this scan.
    """

    id: str
    add: Callable[[Any, Any], Any]
    mul: Callable[[Any, Any], Any]
    zero: Any
    one: Any
    star: Callable[[Any], Any]
    invertible: Callable[[Any], bool]
    inv: Callable[[Any], Any]
    sample: Callable[[random.Random], Any]
    parse: Callable[[str], Any]
    fmt: Callable[[Any], str]
    tolerance: Optional[float] = None  # None => exact mode
    elements: Optional[Iterable] = None
    is_element: Callable[[Any], bool] = field(default=lambda x: True)
    coerce: Callable[[Any], Any] = field(default=lambda x: x)
    neg: Optional[Callable[[Any], Any]] = None
    witness: Optional[Callable[[], tuple]] = None
    scalars: Optional[Callable[[], "Semiring"]] = None
    embed: Callable[[Any], Any] = field(default=lambda q: q)
    member: Callable[[Any], bool] = field(default=lambda x: True)
    project: Callable[[Any], Any] = field(default=lambda x: x)
    involution: str = "identity"
    distribution: Callable[["Semiring", random.Random, int], list] = _weighted_column
    matmul: Optional[Callable[[tuple, tuple], tuple]] = None

    def __post_init__(self):
        kernel = self.matmul or _zero_skipping_matmul(self)
        object.__setattr__(self, "matmul", _on_live_block(kernel, self.zero))

    @property
    def exact(self) -> bool:
        return self.tolerance is None

    @property
    def positive(self) -> bool:
        return self.witness is None

    def eq(self, a, b) -> bool:
        if self.tolerance is None:
            return a == b
        return abs(a - b) <= self.tolerance

    def sum(self, xs):
        acc = self.zero
        for x in xs:
            acc = self.add(acc, x)
        return acc

    def __repr__(self):
        return f"Semiring({self.id!r})"


class SemiringError(ValueError):
    pass


class ConditioningError(SemiringError):
    """Raised when a scalar that must be inverted is not invertible."""


# ---------------------------------------------------------------------------
# literal parsing helpers

_RAT_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$")


def _parse_frac(tok: str) -> Fraction:
    tok = tok.strip()
    m = _RAT_RE.match(tok)
    if not m:
        raise SemiringError(f"bad rational literal: {tok!r}")
    den = int(m.group(2) or 1)
    if not den:
        raise SemiringError(f"zero denominator in rational literal: {tok!r}")
    return Fraction(int(m.group(1)), den)


def _parse_pair(tok: str, unit: str) -> tuple:
    """Parse `a`, `bi`, `a+bi`, `a-bi` style literals (unit 'i' or 'j')."""
    tok = tok.strip().replace(" ", "")
    if unit not in tok:
        return (_parse_frac(tok), Fraction(0))
    head, _, _ = tok.partition(unit)
    # split off the imaginary coefficient: last top-level + or - not at pos 0
    cut = -1
    for k in range(len(head) - 1, 0, -1):
        if head[k] in "+-" and head[k - 1] not in "+-/":
            cut = k
            break
    if cut == -1:
        re_part, im_part = "0", head
    else:
        re_part, im_part = head[:cut], head[cut:]
    if im_part in ("", "+"):
        im = Fraction(1)
    elif im_part == "-":
        im = Fraction(-1)
    else:
        im = _parse_frac(im_part)
    return (_parse_frac(re_part or "0"), im)


_BOOLS = {"0": False, "1": True, "true": True, "false": False}


def _parse_bool(tok: str) -> bool:
    try:
        return _BOOLS[tok.strip().lower()]
    except KeyError:
        raise SemiringError(f"bad bool literal: {tok.strip()!r}") from None


def _parse_int(tok: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise SemiringError(f"bad integer literal: {tok.strip()!r}") from None


def _fmt_pair(x: tuple, unit: str) -> str:
    a, b = x
    if b == 0:
        return str(a)
    sb = f"{b}{unit}" if b >= 0 else f"{b}{unit}"
    if a == 0:
        return sb
    return f"{a}+{sb}" if b >= 0 else f"{a}{sb}"


def _parse_cf64(tok: str) -> complex:
    tok = tok.strip().replace(" ", "")
    if tok.endswith("i"):
        tok = tok[:-1] + "j"
    try:
        z = complex(tok)
    except ValueError as exc:
        raise SemiringError(f"bad complex literal: {tok!r}") from exc
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise SemiringError(f"complex literal must be finite: {tok!r}")
    return z


# ---------------------------------------------------------------------------
# matrix product kernels: g_rows (r x m) times f_rows (m x c), row-major


def _zero_skipping_matmul(sr: Semiring) -> Callable[[tuple, tuple], tuple]:
    """The generic product through `sr.add` and `sr.mul`."""

    def matmul(g_rows, f_rows):
        # structural zeros contribute nothing; skipping them keeps sparse products cheap
        live = [[(k, x) for k, x in enumerate(col) if x != sr.zero] for col in zip(*f_rows)]
        return tuple(tuple(sr.sum(sr.mul(row[k], x) for k, x in col) for col in live) for row in g_rows)

    return matmul


# Below this many multiply-adds (r * m * c) the scan for zero lines costs about
# as much as it can save, so small products go straight to the kernel.
_MIN_SCANNED_PRODUCT = 64


def _on_live_block(kernel, zero) -> Callable[[tuple, tuple], tuple]:
    """`kernel` restricted to the live block of g . f (see `Semiring.matmul`).

    A row or column is tested by one tuple comparison with a row of zeros,
    which stops at the first nonzero entry, so a dense product pays
    O(r + m + c) comparisons and gets its operands unchanged."""

    def matmul(g_rows, f_rows):
        c = len(f_rows[0]) if f_rows else 0
        if len(g_rows) * len(f_rows) * c < _MIN_SCANNED_PRODUCT:
            return kernel(g_rows, f_rows)
        zm, zc = (zero,) * len(f_rows), (zero,) * c
        if zc not in f_rows and zm not in g_rows and zm not in zip(*f_rows):
            return kernel(g_rows, f_rows)
        inner = [t for t, row in enumerate(f_rows) if row != zc]
        if len(inner) < len(f_rows):
            f_rows = [f_rows[t] for t in inner]
            g_rows = [tuple(map(row.__getitem__, inner)) for row in g_rows]
            zm = (zero,) * len(inner)
        rows = [i for i, row in enumerate(g_rows) if row != zm]
        cols = [j for j, col in enumerate(zip(*f_rows)) if col != zm]
        out = [zc] * len(g_rows)
        if not (rows and cols):
            return tuple(out)
        if len(cols) < c:
            f_rows = [tuple(map(row.__getitem__, cols)) for row in f_rows]
        for i, row in zip(rows, kernel([g_rows[i] for i in rows], f_rows)):
            if len(cols) < c:
                full = list(zc)
                for j, x in zip(cols, row):
                    full[j] = x
                row = tuple(full)
            out[i] = row
        return tuple(out)

    return matmul


def _by_inner_products(dot) -> Callable[[tuple, tuple], tuple]:
    """The product whose (r, c) entry is dot(row r of g, column c of f). A float
    `dot` that sums in the loop's order gives the loop's bits, because adding a
    zero term leaves a finite sum unchanged."""

    def matmul(g_rows, f_rows):
        cols = list(zip(*f_rows))
        return tuple(tuple(dot(row, col) for col in cols) for row in g_rows)

    return matmul


def _over_one_denominator(rows) -> tuple:
    """(N, d) with N a Python-int matrix and rows = N / d."""
    den = math.lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in rows], den


def _rat_matmul(g_rows, f_rows):
    (g, dg), (f, df) = _over_one_denominator(g_rows), _over_one_denominator(f_rows)
    return _by_inner_products(lambda row, col: Fraction(sum(map(mul, row, col)), dg * df))(g, f)


def _pair_matmul(sq: int) -> Callable[[tuple, tuple], tuple]:
    """a + bu with u^2 = sq, as the rational block product
    [A B] . [[C, D], [sq D, C]] = [AC + sq BD, AD + BC]."""

    def matmul(g_rows, f_rows):
        n = len(f_rows[0])
        g = [[x[0] for x in row] + [x[1] for x in row] for row in g_rows]
        f = [[x[0] for x in row] + [x[1] for x in row] for row in f_rows]
        f += [[sq * x[1] for x in row] + [x[0] for x in row] for row in f_rows]
        return tuple(tuple(zip(row[:n], row[n:])) for row in _rat_matmul(g, f))

    return matmul


# ---------------------------------------------------------------------------
# instance constructors


def _bool() -> Semiring:
    return Semiring(
        id="bool",
        add=lambda a, b: a or b,
        mul=lambda a, b: a and b,
        zero=False,
        one=True,
        star=lambda a: a,
        invertible=lambda a: a is True or a == 1,
        inv=lambda a: True,
        sample=lambda rng: rng.random() < 0.5,
        parse=_parse_bool,
        fmt=lambda a: "1" if a else "0",
        elements=(False, True),
        is_element=lambda a: isinstance(a, bool),
        scalars=lambda: get_semiring("bool"),
        distribution=_point_column,
        matmul=_by_inner_products(lambda row, col: any(map(and_, row, col))),
    )


def _nat() -> Semiring:
    return Semiring(
        id="nat",
        add=lambda a, b: a + b,
        mul=lambda a, b: a * b,
        zero=0,
        one=1,
        star=lambda a: a,
        invertible=lambda a: a == 1,
        inv=lambda a: 1,
        sample=lambda rng: rng.randrange(0, 5),
        parse=_parse_int,
        fmt=str,
        is_element=lambda a: isinstance(a, int) and a >= 0,
        scalars=lambda: get_semiring("nat"),
        distribution=_point_column,
        matmul=_by_inner_products(lambda row, col: sum(map(mul, row, col), 0)),
    )


def _rat(nonneg: bool) -> Semiring:
    def smp(rng: random.Random) -> Fraction:
        x = Fraction(rng.randrange(0, 7), rng.randrange(1, 5))
        if not nonneg and rng.random() < 0.5:
            x = -x
        return x

    return Semiring(
        id="ratnn" if nonneg else "rat",
        add=lambda a, b: a + b,
        mul=lambda a, b: a * b,
        zero=Fraction(0),
        one=Fraction(1),
        star=lambda a: a,
        invertible=lambda a: a != 0,
        inv=lambda a: 1 / a,
        sample=smp,
        parse=_parse_frac,
        fmt=str,
        is_element=(lambda a: isinstance(a, Fraction) and a >= 0)
        if nonneg
        else (lambda a: isinstance(a, Fraction)),
        coerce=lambda a: a if isinstance(a, Fraction) else Fraction(a),
        neg=lambda a: -a,
        witness=None if nonneg else (lambda: (Fraction(1), Fraction(-1))),
        scalars=lambda: get_semiring("ratnn"),
        member=lambda x: x >= 0,
        matmul=_rat_matmul,
    )


def _pair_ring(unit: str) -> Semiring:
    """Gaussian rationals (unit 'i', i^2=-1) or split-complex ('j', j^2=+1)."""
    gauss = unit == "i"
    sq = Fraction(-1) if gauss else Fraction(1)

    def add(x, y):
        return (x[0] + y[0], x[1] + y[1])

    def mul(x, y):
        a, b = x
        c, d = y
        return (a * c + sq * b * d, a * d + b * c)

    def star(x):
        return (x[0], -x[1])

    def inv(x):
        a, b = x
        n = a * a - sq * b * b
        if n == 0:
            raise ConditioningError(f"{_fmt_pair(x, unit)} is not invertible")
        return (a / n, -b / n)

    def invertible(x):
        a, b = x
        return a * a - sq * b * b != 0

    def smp(rng: random.Random):
        f = lambda: Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
        return (f(), f())

    return Semiring(
        id="gauss-rat" if gauss else "split-rat",
        add=add,
        mul=mul,
        zero=(Fraction(0), Fraction(0)),
        one=(Fraction(1), Fraction(0)),
        star=star,
        invertible=invertible,
        inv=inv,
        sample=smp,
        parse=lambda s: _parse_pair(s, unit),
        fmt=lambda x: _fmt_pair(x, unit),
        is_element=lambda x: isinstance(x, tuple)
        and len(x) == 2
        and all(isinstance(c, Fraction) for c in x),
        coerce=lambda x: (Fraction(x[0]), Fraction(x[1]))
        if isinstance(x, tuple)
        else (Fraction(x), Fraction(0)),
        neg=lambda x: (-x[0], -x[1]),
        witness=lambda: ((Fraction(1), Fraction(0)), (Fraction(-1), Fraction(0))),
        scalars=lambda: get_semiring("ratnn" if gauss else "rat"),
        embed=lambda q: (q, Fraction(0)),
        member=(lambda x: x[1] == 0 and x[0] >= 0) if gauss else (lambda x: x[1] == 0),
        project=lambda x: x[0],
        involution="complex conjugation" if gauss else "split-complex conjugation",
        matmul=_pair_matmul(-1 if gauss else 1),
    )


def _check_prime(p: int) -> None:
    if p < 2 or any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
        raise SemiringError(f"gf modulus must be prime, got {p}")


def _gf(p: int) -> Semiring:
    """GF(p): every element is a sum of squares, so no positive sub-semiring."""
    _check_prime(p)
    return Semiring(
        id=f"gf {p}",
        add=lambda a, b: (a + b) % p,
        mul=lambda a, b: (a * b) % p,
        zero=0,
        one=1 % p,
        star=lambda a: a,
        invertible=lambda a: a % p != 0,
        inv=lambda a: pow(a, p - 2, p),
        sample=lambda rng: rng.randrange(p),
        parse=lambda s: _parse_int(s) % p,
        fmt=str,
        elements=range(p),
        is_element=lambda a: isinstance(a, int) and 0 <= a < p,
        neg=lambda a: (-a) % p,
        witness=lambda: (1,) * p,
        matmul=_by_inner_products(lambda row, col: sum(map(mul, row, col)) % p),
    )


def _irreducible_quadratic(p: int) -> tuple:
    """Coefficients (u, v) with x^2 + u x + v irreducible over GF(p).

    Prefers x^2 + x + 1; falls back to x^2 + c for the least workable c.
    Deterministic per p, so element literals are stable across runs. For odd
    p a quadratic is irreducible iff its discriminant is a non-square, which
    Euler's criterion decides in O(log p).
    """
    if p == 2:
        return (1, 1)

    def irred(u, v):
        return pow((u * u - 4 * v) % p, (p - 1) // 2, p) == p - 1

    if irred(1, 1):
        return (1, 1)
    for c in range(1, p):
        if irred(0, c):
            return (0, c)
    raise SemiringError(f"no irreducible quadratic found for p={p}")  # pragma: no cover


class _PairsMod:
    """The carrier GF(p) x GF(p) in row-major order, enumerated on demand."""

    def __init__(self, p: int):
        self.p = p

    def __iter__(self):
        return itertools.product(range(self.p), repeat=2)

    def __len__(self):
        return self.p * self.p


def _gf2(p: int) -> Semiring:
    """GF(p^2) with the Frobenius involution; its positive part is GF(p)."""
    _check_prime(p)
    u, v = _irreducible_quadratic(p)

    def add(x, y):
        return ((x[0] + y[0]) % p, (x[1] + y[1]) % p)

    def mul(x, y):
        a, b = x
        c, d = y
        # (a + b t)(c + d t) with t^2 = -(u t + v)
        t2 = b * d
        return ((a * c - v * t2) % p, (a * d + b * c - u * t2) % p)

    def pw(x, n):
        acc = (1, 0)
        sq = x
        while n:
            if n & 1:
                acc = mul(acc, sq)
            sq = mul(sq, sq)
            n >>= 1
        return acc

    def star(x):  # Frobenius x -> x^p
        return pw(x, p)

    def inv(x):
        if x == (0, 0):
            raise ConditioningError("0 is not invertible in GF(p^2)")
        return pw(x, p * p - 2)

    return Semiring(
        id=f"gf2 {p}",
        add=add,
        mul=mul,
        zero=(0, 0),
        one=(1 % p, 0),
        star=star,
        invertible=lambda x: x != (0, 0),
        inv=inv,
        sample=lambda rng: (rng.randrange(p), rng.randrange(p)),
        parse=lambda s: tuple(int(c) % p for c in _split_gf2_literal(s)),
        fmt=lambda x: f"{x[0]}" if x[1] == 0 else f"{x[0]}+{x[1]}t",
        elements=_PairsMod(p),
        is_element=lambda x: isinstance(x, tuple) and len(x) == 2,
        neg=lambda x: ((-x[0]) % p, (-x[1]) % p),
        witness=lambda: ((1, 0),) * p,
        scalars=lambda: get_semiring(f"gf {p}"),
        embed=lambda q: (q, 0),
        member=lambda x: x[1] == 0,
        project=lambda x: x[0],
        involution="Frobenius x -> x^p",
    )


def _split_gf2_literal(s: str):
    s = s.strip().replace(" ", "")
    head, t, _ = s.partition("t")
    try:
        if not t:
            return (int(s), 0)
        if "+" in head[1:]:
            k = head.rindex("+")
            return (int(head[:k]), int(head[k + 1 :] or "1"))
        return (0, int(head or "1"))
    except ValueError:
        raise SemiringError(f"bad gf2 literal: {s!r}") from None


def _complex_f64(tolerance: float = 1e-9) -> Semiring:
    if not 0 <= tolerance < math.inf:  # also rejects nan
        raise SemiringError(f"tolerance must be finite and nonnegative, got {tolerance!r}")

    def member(x):
        return abs(complex(x).imag) <= tolerance and complex(x).real >= -tolerance

    return Semiring(
        id="complex-f64",
        add=lambda a, b: a + b,
        mul=lambda a, b: a * b,
        zero=0j,
        one=1 + 0j,
        star=lambda a: a.conjugate(),
        invertible=lambda a: abs(a) > tolerance,
        inv=lambda a: 1 / a,
        sample=lambda rng: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
        parse=_parse_cf64,
        fmt=lambda a: f"{a.real:.12g}+{a.imag:.12g}i",
        tolerance=tolerance,
        is_element=lambda a: isinstance(a, (complex, float, int)),
        coerce=complex,
        neg=lambda a: -a,
        witness=lambda: (1 + 0j, -1 + 0j),
        scalars=lambda: _interned(("real-f64", tolerance), lambda: _real_nn_f64(tolerance)),
        embed=complex,
        member=member,
        project=lambda x: complex(x).real,
        involution="complex conjugation",
        matmul=_by_inner_products(lambda row, col: sum(map(mul, row, col), 0j)),
    )


def _real_nn_f64(tolerance: float = 1e-9) -> Semiring:
    """Nonnegative double-precision reals: the scalar semiring of complex-f64."""
    return Semiring(
        id="real-f64",
        add=lambda a, b: a + b,
        mul=lambda a, b: a * b,
        zero=0.0,
        one=1.0,
        star=lambda a: a,
        invertible=lambda a: abs(a) > tolerance,
        inv=lambda a: 1 / a,
        sample=lambda rng: rng.uniform(0.0, 1.5),
        parse=float,
        fmt=lambda a: f"{a:.12g}",
        tolerance=tolerance,
        is_element=lambda a: isinstance(a, (float, int)),
        neg=lambda a: -a,
        matmul=_by_inner_products(lambda row, col: sum(map(mul, row, col), 0.0)),
    )


# ---------------------------------------------------------------------------
# registry: one shared instance per (id, tolerance)

_FIXED = {
    "bool": _bool,
    "nat": _nat,
    "ratnn": lambda: _rat(True),
    "rat": lambda: _rat(False),
    "gauss-rat": lambda: _pair_ring("i"),
    "split-rat": lambda: _pair_ring("j"),
}

KNOWN_IDS = ("bool", "nat", "ratnn", "rat", "gauss-rat", "split-rat", "gf <p>", "gf2 <p>", "complex-f64")

_INSTANCES: dict = {}


def _interned(key, build: Callable[[], Semiring]) -> Semiring:
    sr = _INSTANCES.get(key)
    if sr is None:
        sr = _INSTANCES[key] = build()
    return sr


def get_semiring(name: str, tolerance: float = 1e-9) -> Semiring:
    """Look up a semiring by its textual id, e.g. 'ratnn', 'gf 3', 'gf2 2'.

    Every call with the same id (and, for complex-f64, the same tolerance)
    returns the same instance.
    """
    name = " ".join(name.split())
    if name in _FIXED:
        return _interned(name, _FIXED[name])
    if name == "complex-f64":
        return _interned((name, tolerance), lambda: _complex_f64(tolerance))
    m = re.match(r"^(gf2?)\s+(\d+)$", name)
    if m:
        kind, p = m.group(1), int(m.group(2))
        return _interned(f"{kind} {p}", lambda: _gf2(p) if kind == "gf2" else _gf(p))
    raise SemiringError(f"unknown semiring id {name!r} (known: {', '.join(KNOWN_IDS)})")


# ---------------------------------------------------------------------------
# law checking


def axioms_check(sr: Semiring, budget: int = 100, seed: int = 0) -> list:
    """Randomized check of the commutative-semiring and involution laws.

    Returns a list of human-readable violation descriptions (empty when all
    sampled triples satisfy the laws). Deterministic for a given seed.
    """
    if budget < 1:
        raise SemiringError("budget must be >= 1")
    rng = random.Random(seed)
    eq, add, mul, st = sr.eq, sr.add, sr.mul, sr.star
    violations = []

    def report(law, *xs):
        violations.append(f"{law} violated at ({', '.join(sr.fmt(x) for x in xs)})")

    for _ in range(budget):
        a, b, c = sr.sample(rng), sr.sample(rng), sr.sample(rng)
        if not eq(add(a, b), add(b, a)):
            report("add commutativity", a, b)
        if not eq(add(add(a, b), c), add(a, add(b, c))):
            report("add associativity", a, b, c)
        if not eq(mul(a, b), mul(b, a)):
            report("mul commutativity", a, b)
        if not eq(mul(mul(a, b), c), mul(a, mul(b, c))):
            report("mul associativity", a, b, c)
        if not eq(mul(a, add(b, c)), add(mul(a, b), mul(a, c))):
            report("distributivity", a, b, c)
        if not eq(add(a, sr.zero), a):
            report("additive identity", a)
        if not eq(mul(a, sr.one), a):
            report("multiplicative identity", a)
        if not eq(mul(a, sr.zero), sr.zero):
            report("zero annihilation", a)
        if not eq(st(st(a)), a):
            report("involution self-inverse", a)
        if not eq(st(add(a, b)), add(st(a), st(b))):
            report("involution additivity", a, b)
        if not eq(st(mul(a, b)), mul(st(a), st(b))):
            report("involution multiplicativity", a, b)
    return violations


@dataclass(frozen=True)
class PositivityReport:
    positive: bool
    witness: Optional[tuple]  # family (p_x) with sum 0 and some p_x != 0


def _sample_set(sr: Semiring, count: int = 12, seed: int = 7) -> list:
    if sr.elements is not None:
        return list(sr.elements)
    rng = random.Random(seed)
    seen = [sr.zero, sr.one]
    for probe in (-1, 2, -2):
        try:
            x = sr.coerce(probe)
        except (TypeError, ValueError):
            continue
        if sr.is_element(x) and x not in seen:
            seen.append(x)
    for _ in range(count * 20):
        if len(seen) >= count:
            break
        x = sr.sample(rng)
        if x not in seen:
            seen.append(x)
    return seen


def positivity_witness_search(sr: Semiring, max_size: int = 3, seed: int = 7):
    """Brute-force search for a family summing to zero with a nonzero member."""
    pool = _sample_set(sr, seed=seed)
    for n in range(1, max_size + 1):
        for fam in itertools.combinations_with_replacement(pool, n):
            if any(not sr.eq(x, sr.zero) for x in fam) and sr.eq(sr.sum(fam), sr.zero):
                return fam
    return None


def is_positive(sr: Semiring) -> PositivityReport:
    """Report the declared positivity of the semiring, with a witness when false.

    The witness is a family (p_x) with sum zero and some nonzero member. When
    the semiring is declared positive, a bounded brute-force search double
    checks that no such small family exists.
    """
    if not sr.exact:
        raise SemiringError("is_positive is only supported in exact mode")
    if not sr.positive:
        return PositivityReport(False, sr.witness())
    found = positivity_witness_search(sr)
    if found is not None:  # pragma: no cover - declared flags are correct
        raise SemiringError(f"{sr.id} declared positive but witness found: {found}")
    return PositivityReport(True, None)


# ---------------------------------------------------------------------------
# the sub-semiring of positive elements R = closure of {x* x} under addition


@dataclass(frozen=True)
class PositivePart:
    """Scalar semiring R inside S, with the embedding and its retraction."""

    ring: Semiring  # R
    ambient: Semiring  # S
    embed: Callable[[Any], Any]  # R -> S
    member: Callable[[Any], bool]  # is this S element in the image of R?
    retract: Callable[[Any], Any]  # S -> R (raises off the image)


def positive_part(sr: Semiring) -> PositivePart:
    """The Born-rule scalar semiring for an involutive semiring.

    Assembled from the data the instance carries; `verify_positive_part`
    checks the closure property {x* x} subset R by enumeration/sampling.
    """
    if sr.scalars is None:
        raise SemiringError(f"no positive sub-semiring tabulated for {sr.id!r}")

    def retract(x):
        if not sr.member(x):
            raise SemiringError(f"{sr.fmt(x)} lies outside the positive sub-semiring of {sr.id}")
        return sr.project(x)

    return PositivePart(sr.scalars(), sr, sr.embed, sr.member, retract)


def scalar_subsemiring(sr: Semiring) -> Semiring:
    """The semiring R of positive elements of S (Born-rule scalars)."""
    pp = positive_part(sr)
    verify_positive_part(pp)
    return pp.ring


def verify_positive_part(pp: PositivePart, samples: int = 200, seed: int = 11) -> None:
    """Check that every x* x lies in R: over the whole carrier when S is finite
    with at most `samples` elements, else over `samples` seeded samples."""
    sr = pp.ambient
    xs = sr.elements
    if xs is None or len(xs) > samples:
        rng = random.Random(seed)
        xs = [sr.sample(rng) for _ in range(samples)]
    for x in xs:
        y = sr.mul(sr.star(x), x)
        if not pp.member(y):
            raise SemiringError(
                f"closure failure: {sr.fmt(x)}* {sr.fmt(x)} = {sr.fmt(y)} not in {pp.ring.id}"
            )
