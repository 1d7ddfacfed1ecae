"""Seeded input generators for the benchmark, each paired with its oracle.

Nothing here imports catprob: the inputs and the expected answers are built
from the seed with plain Python (and numpy for float unitaries), so an oracle
never shares code with the program it checks.

* GHZ `.scn` scenarios over `gauss-rat`, `complex-f64` and `bool`, with the
  closed-form GHZ/Mermin outcome table (Mermin, PRL 65, 1990).
* Sharp preparation/observation (SPO) pairs and Kraus families, exact and
  float, for the Karoubi round trip and the decohered extract/embed check.
* Equation instances for `catprob eq`: random rebindings of the shipped
  corpus, generated laws, and perturbed-binding controls with their exact
  expected difference line.
"""

from __future__ import annotations

import itertools
import math
import os
import re
from dataclasses import dataclass, field
from fractions import Fraction as F

# ---------------------------------------------------------------------------
# GHZ scenarios

# Scalar ring the CLI prints for each ambient semiring of a quantum scenario.
SCALAR_ID = {"gauss-rat": "ratnn", "complex-f64": "real-f64", "bool": "bool"}
PARTY_NAMES = "ABCDEF"


@dataclass(frozen=True)
class GhzCase:
    """An n-party GHZ scenario and the data its outcome table follows from.

    Quantum cases measure X-type (choice 0) and Y-type (choice 1) observables
    cos(phi) X + sin(phi) Y with phi = k * pi/2 (k even for X, odd for Y) on
    the state (|0..0> + e^{i theta} |1..1>)/sqrt 2, theta in {0, pi}. Then
    P(s) = 2^-n (1 + (-1)^{sum s} cos(sum phi + theta)); the full correlator
    is cos(sum phi + theta), so |<XXX>| + |<XYY>| + |<YXY>| + |<YYX>| = 4.

    Relational (`bool`) cases read each qubit in the computational basis,
    flipping the outcome label when `flips` says so; a joint outcome is
    possible iff the unflipped bits all agree.
    """

    semiring: str
    n: int
    text: str
    quarter_turns: tuple = ()  # [party][choice] -> k, phi = k pi/2
    theta_half_turns: int = 0  # theta = this * pi
    flips: tuple = ()  # bool only: [party][choice] -> 0/1


def _gauss_lit(re_part: F, im_part: F) -> str:
    return f"{re_part}{'+' if im_part >= 0 else '-'}{abs(im_part)}i"


# (1+i)/2 * c for c = 1, i, -1, -i: modulus^2 1/2 and exact over gauss-rat.
_HALF_ONE_PLUS_I = {
    0: (F(1, 2), F(1, 2)),
    1: (F(-1, 2), F(1, 2)),
    2: (F(-1, 2), F(-1, 2)),
    3: (F(1, 2), F(-1, 2)),
}


def _amp(semiring: str, quarter: int) -> str:
    re_part, im_part = _HALF_ONE_PLUS_I[quarter % 4]
    if semiring == "gauss-rat":
        return _gauss_lit(re_part, im_part)
    return f"{float(re_part)!r}{'+' if im_part >= 0 else '-'}{abs(float(im_part))!r}i"


def ghz_case(semiring: str, n: int, rng) -> GhzCase:
    """A seeded n-party GHZ scenario file over the given semiring."""
    if semiring not in SCALAR_ID:
        raise ValueError(f"no GHZ writer for {semiring!r}")
    big = 2**n
    lines = [f"# generated {n}-party GHZ scenario", f"semiring {semiring}", "backend quantum"]
    if semiring == "bool":
        theta = 0
        corner = "1"
        off = "1"
    else:
        theta = rng.randrange(2)
        corner = "1/2" if semiring == "gauss-rat" else "0.5"
        off = ("-" if theta else "") + corner
    rows = []
    for r in range(big):
        row = []
        for c in range(big):
            if r in (0, big - 1) and c in (0, big - 1):
                row.append(corner if r == c else off)
            else:
                row.append("0")
        rows.append("[" + ", ".join(row) + "]")
    lines.append("state density [" + ", ".join(rows) + "]")
    quarters, flips = [], []
    for p in range(n):
        lines += [f"party {PARTY_NAMES[p]}", "choices 2", "outcomes 2", "dim 2"]
        if semiring == "bool":
            fl = (rng.randrange(2), rng.randrange(2))
            flips.append(fl)
            for choice, f in enumerate(fl):
                blocks = ("[[1, 0]] [[0, 1]]", "[[0, 1]] [[1, 0]]")[f]
                lines.append(f"kraus {choice} {blocks}")
        else:
            ks = (2 * rng.randrange(2), 2 * rng.randrange(2) + 1)  # X-type, Y-type
            quarters.append(ks)
            for choice, k in enumerate(ks):
                blocks = " ".join(
                    f"[[{_amp(semiring, 0)}, {_amp(semiring, k + 2 * s)}]]" for s in (0, 1)
                )
                lines.append(f"kraus {choice} {blocks}")
    return GhzCase(semiring, n, "\n".join(lines) + "\n", tuple(quarters), theta, tuple(flips))


def ghz_expected(case: GhzCase) -> dict:
    """context tuple -> list of outcome probabilities (Fraction or bool), in
    the CLI's joint-outcome order (first party major)."""
    out = {}
    for ctx in itertools.product((0, 1), repeat=case.n):
        probs = []
        for s in itertools.product((0, 1), repeat=case.n):
            if case.semiring == "bool":
                bits = {si ^ case.flips[p][ctx[p]] for p, si in enumerate(s)}
                probs.append(len(bits) == 1)
            else:
                q = sum(case.quarter_turns[p][ctx[p]] for p in range(case.n)) + 2 * case.theta_half_turns
                cos = (1, 0, -1, 0)[q % 4]
                sign = -1 if sum(s) % 2 else 1
                probs.append(F(1 + sign * cos, 2**case.n))
        out[ctx] = probs
    return out


def correlator(probs) -> F:
    """Full correlator sum_s (-1)^{sum s} P(s) of one context row."""
    n = int(math.log2(len(probs)))
    return sum(
        (-1 if sum(s) % 2 else 1) * p for s, p in zip(itertools.product((0, 1), repeat=n), probs)
    )


def check_ghz_output(case: GhzCase, text: str) -> str | None:
    """None when the `bell --format machine` output matches the closed form,
    otherwise the reason it does not."""
    expected = ghz_expected(case)
    if case.n == 3 and case.semiring != "bool":
        mermin = sum(abs(correlator(expected[c])) for c in ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)))
        if mermin != 4:
            return f"generator bug: Mermin value {mermin} != 4"
    names = PARTY_NAMES[: case.n]
    want = [f"semiring {SCALAR_ID[case.semiring]}", f"parties {' '.join(names)}"]
    for nm in names:
        want += [f"choices {nm} 0 1", f"outcomes {nm} 0 1"]
    lines = text.splitlines()
    if lines[: len(want)] != want:
        return "header differs"
    rows = lines[len(want): len(want) + 2**case.n]
    if len(rows) != 2**case.n:
        return "missing context rows"
    for ctx, line in zip(itertools.product((0, 1), repeat=case.n), rows):
        key, *vals = line.split()
        if key != "row" or not vals or vals[0] != "|".join(map(str, ctx)):
            return f"row label for context {ctx} differs"
        got = vals[1:]
        exp = expected[ctx]
        if len(got) != len(exp):
            return f"context {ctx}: {len(got)} values, expected {len(exp)}"
        for g, e in zip(got, exp):
            if case.semiring == "gauss-rat":
                ok = g == str(e)
            elif case.semiring == "bool":
                ok = g == ("1" if e else "0")
            else:
                ok = _float_close(g, float(e), 1e-9)
            if not ok:
                return f"context {ctx}: {g} != {e}"
    tail = lines[len(want) + 2**case.n:]
    want_tail = ["rows normalised: PASS", "no-signalling: PASS"]
    if tail[:2] != want_tail:
        return "normalisation / no-signalling verdict differs"
    if case.semiring == "complex-f64":
        if len(tail) != 3 or not tail[2].startswith("max marginal discrepancy: "):
            return "missing discrepancy line"
        if not _float_close(tail[2].rsplit(" ", 1)[1], 0.0, 1e-9):
            return "marginal discrepancy above tolerance"
    elif len(tail) != 2:
        return "unexpected trailing lines"
    return None


def _float_close(token: str, want: float, tol: float) -> bool:
    try:
        return abs(float(token) - want) <= tol
    except ValueError:
        return False


# ---------------------------------------------------------------------------
# golden outputs of the shipped scenarios and corpus


def check_golden(got: str, golden: str, tolerance: float | None) -> str | None:
    """Exact outputs must match byte for byte; with a float tolerance, tokens
    that parse as numbers are compared within it and all others exactly."""
    if tolerance is None:
        return None if got == golden else "output differs from the golden file"
    gl, wl = got.splitlines(), golden.splitlines()
    if len(gl) != len(wl) or got.endswith("\n") != golden.endswith("\n"):
        return "line count differs from the golden file"
    for a, b in zip(gl, wl):
        ta, tb = a.split(), b.split()
        if len(ta) != len(tb):
            return f"line differs: {a!r}"
        for x, y in zip(ta, tb):
            if x == y:
                continue
            try:
                if abs(float(x) - float(y)) <= tolerance:
                    continue
            except ValueError:
                pass
            return f"token {x!r} != golden {y!r}"
    return None


def scenario_tolerance(text: str) -> float | None:
    """The comparison tolerance of a `.scn` file: None for exact semirings."""
    sem = re.search(r"^semiring\s+(.+?)\s*$", text, re.M).group(1)
    if sem != "complex-f64":
        return None
    m = re.search(r"^tolerance\s+(\S+)", text, re.M)
    return float(m.group(1)) if m else 1e-9


# ---------------------------------------------------------------------------
# SPO pairs and Kraus families


def gauss_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def gauss_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def exact_unitary(d: int, rng):
    """A d x d unitary over gauss-rat, as (re, im) Fraction pairs: one sweep
    of 3-4-5 rotations through the adjacent planes (0,1), (1,2), ..., each
    with a seeded orientation, then i-phases on two seeded axes. The fixed
    sweep keeps the denominators, and so the cost, the same for every seed."""
    zero, one = (F(0), F(0)), (F(1), F(0))
    u = [[one if i == j else zero for j in range(d)] for i in range(d)]
    for i in range(d - 1):
        c, s = (F(3, 5), F(4, 5)) if rng.randrange(2) else (F(4, 5), F(3, 5))
        s = -s if rng.randrange(2) else s
        u[i], u[i + 1] = (
            [gauss_add(gauss_mul((c, F(0)), a), gauss_mul((s, F(0)), b)) for a, b in zip(u[i], u[i + 1])],
            [gauss_add(gauss_mul((-s, F(0)), a), gauss_mul((c, F(0)), b)) for a, b in zip(u[i], u[i + 1])],
        )
    for _ in range(2):
        k = rng.randrange(d)
        u[k] = [gauss_mul((F(0), F(1)), a) for a in u[k]]
    return u


def float_unitary(d: int, rng):
    """A d x d unitary from the QR factorisation of a seeded complex Gaussian."""
    import numpy as np

    gen = np.random.default_rng(rng.randrange(2**32))
    z = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return [[complex(v) for v in row] for row in q]


def dagger(u, exact: bool):
    n = len(u)
    if exact:
        return [[(u[j][i][0], -u[j][i][1]) for j in range(n)] for i in range(n)]
    return [[u[j][i].conjugate() for j in range(n)] for i in range(n)]


def _weights(count: int, rng, exact: bool):
    if exact:
        w = [F(rng.randrange(1, 6)) for _ in range(count)]
        return [x / sum(w) for x in w]
    w = [rng.uniform(0.1, 1.0) for _ in range(count)]
    return [x / sum(w) for x in w]


@dataclass(frozen=True)
class ClassicalSpo:
    """A normalised SPO pair in Mat(R) through a random surjection d -> k:
    obs (k x d) reads the fibre, prep (d x k) spreads each label over its
    fibre with positive weights, so obs . prep = id."""

    d: int
    k: int
    prep: list
    obs: list


def classical_spo(d: int, k: int, rng, exact: bool) -> ClassicalSpo:
    picks = list(range(k)) + [rng.randrange(k) for _ in range(d - k)]
    rng.shuffle(picks)
    zero, one = (F(0), F(1)) if exact else (0.0, 1.0)
    obs = [[one if picks[h] == x else zero for h in range(d)] for x in range(k)]
    prep = [[zero] * k for _ in range(d)]
    for x in range(k):
        fibre = [h for h in range(d) if picks[h] == x]
        for h, w in zip(fibre, _weights(len(fibre), rng, exact)):
            prep[h][x] = w
    return ClassicalSpo(d, k, prep, obs)


@dataclass(frozen=True)
class RoundTripCase:
    """Declassicalise `matrix` (k_dst x k_src over the scalar ring) between
    two SPO pairs on one d-dimensional quantum wire, then classicalise it:
    the round trip must return `matrix`."""

    semiring: str
    d: int
    unitary_src: list
    unitary_dst: list
    spo_src: ClassicalSpo
    spo_dst: ClassicalSpo
    matrix: list

    @property
    def exact(self) -> bool:
        return self.semiring == "gauss-rat"


def roundtrip_case(semiring: str, d: int, rng) -> RoundTripCase:
    exact = semiring == "gauss-rat"
    k_src, k_dst = max(1, d - 1), max(1, d - 2)
    unitary = (lambda: exact_unitary(d, rng)) if exact else (lambda: float_unitary(d, rng))
    u_src, u_dst = unitary(), unitary()
    src = classical_spo(d, k_src, rng, exact)
    dst = classical_spo(d, k_dst, rng, exact)
    if exact:
        mat = [[F(rng.randrange(1, 7), rng.randrange(1, 5)) for _ in range(k_src)] for _ in range(k_dst)]
    else:
        mat = [[rng.uniform(0.0, 1.0) for _ in range(k_src)] for _ in range(k_dst)]
    return RoundTripCase(semiring, d, u_src, u_dst, src, dst, mat)


@dataclass(frozen=True)
class KrausCase:
    """A Kraus family on a d-dimensional wire. Decohered on both sides and
    extracted, its classical matrix is C[y][x] = sum_e |K_e[y][x]|^2."""

    semiring: str
    d: int
    elements: list

    @property
    def exact(self) -> bool:
        return self.semiring == "gauss-rat"

    def expected(self):
        if self.exact:
            return [
                [sum((k[y][x][0] ** 2 + k[y][x][1] ** 2 for k in self.elements), F(0)) for x in range(self.d)]
                for y in range(self.d)
            ]
        return [[sum(abs(k[y][x]) ** 2 for k in self.elements) for x in range(self.d)] for y in range(self.d)]


def kraus_case(semiring: str, d: int, rng) -> KrausCase:
    exact = semiring == "gauss-rat"
    count = rng.randrange(1, 3)
    if exact:
        el = lambda: (F(rng.randrange(-4, 5), rng.randrange(1, 4)), F(rng.randrange(-4, 5), rng.randrange(1, 4)))
    else:
        el = lambda: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    mats = [[[el() for _ in range(d)] for _ in range(d)] for _ in range(count)]
    return KrausCase(semiring, d, mats)


def matrix_close(got, want, exact: bool, tol: float = 1e-9) -> bool:
    if len(got) != len(want) or any(len(a) != len(b) for a, b in zip(got, want)):
        return False
    if exact:
        return all(a == b for ra, rb in zip(got, want) for a, b in zip(ra, rb))
    return all(abs(a - b) <= tol for ra, rb in zip(got, want) for a, b in zip(ra, rb))


# ---------------------------------------------------------------------------
# equation instances for `catprob eq`


@dataclass(frozen=True)
class EqCase:
    """Files for one `catprob eq` call and the exact expected result."""

    name: str
    lhs: str
    rhs: str
    bindings: str
    expected_out: str
    expected_rc: int
    files: dict = field(default_factory=dict)  # role -> path, once written

    def write(self, directory: str) -> "EqCase":
        paths = {}
        for role in ("lhs", "rhs", "bindings"):
            path = os.path.join(directory, f"{self.name}.{role}")
            with open(path, "w") as fh:
                fh.write(getattr(self, role))
            paths[role] = path
        return EqCase(self.name, self.lhs, self.rhs, self.bindings, self.expected_out, self.expected_rc, paths)


def _rand_entry(rng) -> F:
    return F(rng.randrange(0, 7), rng.randrange(1, 5))


def _rand_matrix(rows: int, cols: int, rng):
    return [[_rand_entry(rng) for _ in range(cols)] for _ in range(rows)]


def _rand_stochastic(rows: int, cols: int, rng):
    """Column-stochastic rows x cols over ratnn (each column sums to 1)."""
    cols_w = [_weights(rows, rng, True) for _ in range(cols)]
    return [[cols_w[c][r] for c in range(cols)] for r in range(rows)]


def _lit(mat) -> str:
    return "[" + ", ".join("[" + ", ".join(str(x) for x in row) + "]" for row in mat) + "]"


def _bindings(gens: dict) -> str:
    return "semiring ratnn\n" + "".join(f"gen {n} = {_lit(m)}\n" for n, m in gens.items())


def _matmul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), F(0)) for j in range(len(b[0]))] for i in range(len(a))]


_DIAG_SYS = re.compile(r"^\s*sys\s+(\w+)\s+classical\s+(\d+)\s*$")
_DIAG_GEN = re.compile(r"^\s*gen\s+(\w+)\s*:\s*([^-=]*)->\s*([^=]*?)\s*(=.*)?$")
# Corpus entries whose laws need structured bindings (as in the acceptance gate).
_SPO_ENTRIES = ("spo-sharpness", "spo-normalisation", "decoherence-idempotent")
_NORMALISED = {"normalised-absorb": "f", "prep-test-distribution": "p"}


def corpus_rebinding(name: str, lhs: str, rhs: str, rng) -> EqCase:
    """A random rebinding of one shipped corpus entry; the law still holds."""
    sizes, gens = {}, {}
    for line in lhs.splitlines():
        if m := _DIAG_SYS.match(line):
            sizes[m.group(1)] = int(m.group(2))
        elif m := _DIAG_GEN.match(line):
            if m.group(4) is None:
                gens[m.group(1)] = (m.group(2).split(), m.group(3).split())
    dim = lambda wires: math.prod(sizes[w] for w in wires)
    if name in _SPO_ENTRIES:
        spo = classical_spo(sizes["h"], sizes["x"], rng, True)
        bound = {"p": spo.prep, "m": spo.obs}
    else:
        bound = {}
        for g, (dom, cod) in gens.items():
            maker = _rand_stochastic if _NORMALISED.get(name) == g else _rand_matrix
            bound[g] = maker(dim(cod), dim(dom), rng)
    return EqCase(f"{name}-rebound", lhs, rhs, _bindings(bound), "equal\n", 0)


def law_case(kind: str, wires: int, rng) -> EqCase:
    """A generated law instance on `wires` parallel classical wires.

    interchange:  (f1*..*fw) ; (g1*..*gw)  =  (f1;g1) * .. * (fw;gw)
    bilinearity:  F ; (g + h)  =  F ; g + F ; h,  F = f1*..*fw
    absorption:   (f1*..*fw) ; (disc*..*disc)  =  disc*..*disc, fi stochastic
    absorption-perturbed: one fi entry raised, so the first column that uses
        it differs; the expected `unequal` line is computed here exactly.
    product-perturbed: f ; g against a binding h = g.f with one entry raised.
    """
    # shapes are fixed per law and wire count, so each job class has one
    # cost; the seed varies the entries and the perturbed position
    xs = [2 + i % 2 for i in range(wires)]
    ys = [3 - i % 2 for i in range(wires)]
    decl = [f"sys x{i} classical {xs[i]}" for i in range(wires)]
    decl += [f"sys y{i} classical {ys[i]}" for i in range(wires)]
    xw = " ".join(f"x{i}" for i in range(wires))
    yw = " ".join(f"y{i}" for i in range(wires))
    fs = " * ".join(f"f{i}" for i in range(wires))
    name = f"{kind}-w{wires}"
    gens = {}
    if kind == "interchange":
        zs = [2] * wires
        decl += [f"sys z{i} classical {zs[i]}" for i in range(wires)]
        decl += [f"gen f{i} : x{i} -> y{i}" for i in range(wires)]
        decl += [f"gen g{i} : y{i} -> z{i}" for i in range(wires)]
        for i in range(wires):
            gens[f"f{i}"] = _rand_matrix(ys[i], xs[i], rng)
            gens[f"g{i}"] = _rand_matrix(zs[i], ys[i], rng)
        lhs = f"({fs}) ; ({' * '.join(f'g{i}' for i in range(wires))})"
        rhs = " * ".join(f"(f{i} ; g{i})" for i in range(wires))
        return _eq(name, decl, lhs, rhs, gens, "equal\n", 0)
    if kind == "bilinearity":
        decl += ["sys z classical 2"]
        decl += [f"gen f{i} : x{i} -> y{i}" for i in range(wires)]
        decl += [f"gen g : {yw} -> z", f"gen h : {yw} -> z"]
        for i in range(wires):
            gens[f"f{i}"] = _rand_matrix(ys[i], xs[i], rng)
        ny = math.prod(ys)
        gens["g"] = _rand_matrix(2, ny, rng)
        gens["h"] = _rand_matrix(2, ny, rng)
        scalar = F(rng.randrange(1, 5), rng.randrange(1, 4))
        lhs = f"({fs}) ; ({scalar} . g + h)"
        rhs = f"{scalar} . (({fs}) ; g) + ({fs}) ; h"
        return _eq(name, decl, lhs, rhs, gens, "equal\n", 0)
    if kind in ("absorption", "absorption-perturbed"):
        decl += [f"gen f{i} : x{i} -> y{i}" for i in range(wires)]
        for i in range(wires):
            gens[f"f{i}"] = _rand_stochastic(ys[i], xs[i], rng)
        lhs = f"({fs}) ; ({' * '.join(f'disc[y{i}]' for i in range(wires))})"
        rhs = " * ".join(f"disc[x{i}]" for i in range(wires))
        if kind == "absorption":
            return _eq(name, decl, lhs, rhs, gens, "equal\n", 0)
        i = rng.randrange(wires)
        r, c = rng.randrange(ys[i]), rng.randrange(xs[i])
        gens[f"f{i}"][r][c] += F(1, rng.randrange(2, 9))
        # lhs is the row of products of column sums; rhs is all ones
        colsums = [[sum(col) for col in zip(*gens[f"f{j}"])] for j in range(wires)]
        for flat, digits in enumerate(itertools.product(*(range(n) for n in xs))):
            val = math.prod(colsums[j][digits[j]] for j in range(wires))
            if val != 1:
                out = f"unequal at row 0, col {flat}: {val} vs 1\n"
                return _eq(name, decl, lhs, rhs, gens, out, 1)
        raise AssertionError("perturbation left every column sum at 1")
    if kind == "product-perturbed":
        z = 2
        decl += ["sys z classical 2"]
        fdom = " ".join(f"x{i}" for i in range(wires))
        decl += [f"gen f : {fdom} -> y0", "gen g : y0 -> z", f"gen h : {fdom} -> z"]
        nx = math.prod(xs)
        gens["f"] = _rand_matrix(ys[0], nx, rng)
        gens["g"] = _rand_matrix(z, ys[0], rng)
        prod = _matmul(gens["g"], gens["f"])
        r, c = rng.randrange(z), rng.randrange(nx)
        h = [row[:] for row in prod]
        h[r][c] += F(1, rng.randrange(2, 9))
        gens["h"] = h
        out = f"unequal at row {r}, col {c}: {prod[r][c]} vs {h[r][c]}\n"
        return _eq(name, decl, "f ; g", "h", gens, out, 1)
    raise ValueError(f"unknown law {kind!r}")


def _eq(name, decl, lhs, rhs, gens, out, rc) -> EqCase:
    head = "\n".join(decl) + "\n"
    return EqCase(name, head + lhs + "\n", head + rhs + "\n", _bindings(gens), out, rc)
