"""The four workloads: their job classes, weights and oracles.

A job is one user-level action a researcher waits on: one in-process call
of `catprob.cli.main(argv)` with `--out`, or one Karoubi library check. Its
`run` is the timed part; `check` is the oracle, applied after the clock
stops, and returns None when the result is right or the reason it is not.

Weights set how often each class appears in the closed-loop schedule. They
are chosen so that `job_s.p50` and `job_s.p90` each fall inside one class
(see README.md): a percentile on the boundary between two classes of very
different cost jumps between them from run to run.
"""

from __future__ import annotations

import io
import os
import random
import sys
from dataclasses import dataclass
from typing import Any, Callable, Optional

import gen

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
SHIPPED_SCENARIOS = ("chsh-345", "correlated-coin", "relational-pair", "tsirelson")


@dataclass
class Job:
    cls: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]


@dataclass(frozen=True)
class JobClass:
    name: str
    weight: int
    make: Callable[["Context", random.Random], Job]


@dataclass
class Context:
    """What set-up leaves for the jobs: catprob modules, shared backends and
    the directory for generated input and `--out` files."""

    workdir: str
    cli: Any
    quantum: Any
    matcat: Any
    karoubi: Any
    backends: dict  # semiring id -> QuantumBackend, for the library jobs


def setup(workload: str, workdir: str) -> Context:
    """Import catprob and build what the workload's jobs share. This is the
    span `setup_s` measures."""
    import catprob.cli
    from catprob import karoubi, matcat, quantum
    from catprob.backend import QuantumBackend
    from catprob.semirings import get_semiring

    ctx = Context(workdir, catprob.cli, quantum, matcat, karoubi, {})
    if workload == "karoubi-roundtrip":
        for sid in ("gauss-rat", "complex-f64"):
            ctx.backends[sid] = QuantumBackend(get_semiring(sid))
    return ctx


# ---------------------------------------------------------------------------
# CLI jobs


@dataclass(frozen=True)
class CliResult:
    rc: Any
    out: Optional[str]
    err: str


def cli_job(ctx: Context, cls: str, argv: list, check: Callable[[CliResult], Optional[str]]) -> Job:
    """`catprob --out <file> argv...`, stderr captured; the oracle sees the
    exit code, the `--out` file (None when absent) and stderr."""
    out_path = os.path.join(ctx.workdir, "job.out")
    if os.path.exists(out_path):
        os.remove(out_path)
    full = ["--out", out_path] + list(argv)

    def run():
        err, saved = io.StringIO(), sys.stderr
        sys.stderr = err
        try:
            return ctx.cli.main(full), err
        finally:
            sys.stderr = saved

    def judge(res) -> Optional[str]:
        rc, err = res
        out = None
        if os.path.exists(out_path):
            with open(out_path) as fh:
                out = fh.read()
        return check(CliResult(rc, out, err.getvalue()))

    return Job(cls, run, judge)


def expect(rc: int, out: Optional[str] = None, verify: Callable[[str], Optional[str]] = None):
    """An oracle: exit code `rc`, and either exactly `out` or `verify(out)`."""

    def check(res: CliResult) -> Optional[str]:
        if res.rc != rc:
            return f"exit code {res.rc}, expected {rc}"
        if out is not None and res.out != out:
            return f"output {res.out!r}, expected {out!r}"
        if verify is not None:
            return "no --out file" if res.out is None else verify(res.out)
        return None

    return check


def _write(ctx: Context, name: str, text: str) -> str:
    path = os.path.join(ctx.workdir, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# bell-nparty


def shipped_bell(name: str) -> Callable:
    scn = os.path.join(ROOT, "scenarios", f"{name}.scn")

    def make(ctx: Context, rng) -> Job:
        golden = _read(os.path.join(GOLDEN, "scenarios", f"{name}.out"))
        tol = gen.scenario_tolerance(_read(scn))
        verify = lambda out: gen.check_golden(out, golden, tol)
        return cli_job(ctx, f"scn-{name}", ["bell", "--format", "machine", scn], expect(0, verify=verify))

    return make


def ghz_bell(semiring: str, n: int) -> Callable:
    def make(ctx: Context, rng) -> Job:
        case = gen.ghz_case(semiring, n, rng)
        path = _write(ctx, "ghz.scn", case.text)
        verify = lambda out: gen.check_ghz_output(case, out)
        return cli_job(ctx, f"ghz-{semiring}-{n}", ["bell", "--format", "machine", path], expect(0, verify=verify))

    return make


# In cost order. p50 falls inside the ~5 ms band of two-party jobs
# (relational-pair, tsirelson, bool and complex-f64 GHZ; ranks 6-60%), whose
# run-to-run spread on a noisy host is a few percent; p90 falls inside
# ghz-gauss-rat-3 (ranks 83-100%).
BELL = [
    JobClass("scn-correlated-coin", 3, shipped_bell("correlated-coin")),
    JobClass("scn-relational-pair", 7, shipped_bell("relational-pair")),
    JobClass("ghz-bool-2", 7, ghz_bell("bool", 2)),
    JobClass("ghz-complex-f64-2", 7, ghz_bell("complex-f64", 2)),
    JobClass("scn-tsirelson", 7, shipped_bell("tsirelson")),
    JobClass("ghz-bool-3", 2, ghz_bell("bool", 3)),
    JobClass("ghz-complex-f64-3", 2, ghz_bell("complex-f64", 3)),
    JobClass("scn-chsh-345", 3, shipped_bell("chsh-345")),
    JobClass("ghz-gauss-rat-2", 3, ghz_bell("gauss-rat", 2)),
    JobClass("ghz-bool-4", 1, ghz_bell("bool", 4)),
    JobClass("ghz-complex-f64-4", 1, ghz_bell("complex-f64", 4)),
    JobClass("ghz-gauss-rat-3", 9, ghz_bell("gauss-rat", 3)),
]


# ---------------------------------------------------------------------------
# karoubi-roundtrip


def _spo_pair(ctx: Context, backend, spo: gen.ClassicalSpo, u, u_dag):
    """prep = U . embed(P), obs = embed(M) . U^dagger on one quantum wire."""
    q, mc = ctx.quantum, ctx.matcat
    pp, sr = backend.pp, backend.sr
    w = q.QWire(spo.d)
    x, basis = mc.obj_of_size(spo.k), mc.obj_of_size(spo.d)
    prep_c = mc.Morphism(x, basis, tuple(map(tuple, spo.prep)), pp.ring)
    obs_c = mc.Morphism(basis, x, tuple(map(tuple, spo.obs)), pp.ring)
    prep = q.classical_embed(prep_c, pp, dom=(q.cwire(x),), cod=(w,))
    obs = q.classical_embed(obs_c, pp, dom=(w,), cod=(q.cwire(x),))
    du = q.double(sr, u, (w,), (w,))
    dud = q.double(sr, u_dag, (w,), (w,))
    return ctx.karoubi.SpoPair(prep=q.s_compose(du, prep), obs=q.s_compose(obs, dud))


def roundtrip(semiring: str, d: int) -> Callable:
    def make(ctx: Context, rng) -> Job:
        case = gen.roundtrip_case(semiring, d, rng)
        b = ctx.backends[semiring]
        src_dag = gen.dagger(case.unitary_src, case.exact)
        dst_dag = gen.dagger(case.unitary_dst, case.exact)
        mc, kb = ctx.matcat, ctx.karoubi

        def run():
            src = _spo_pair(ctx, b, case.spo_src, case.unitary_src, src_dag)
            dst = _spo_pair(ctx, b, case.spo_dst, case.unitary_dst, dst_dag)
            f = mc.Morphism(
                mc.obj_of_size(case.spo_src.k), mc.obj_of_size(case.spo_dst.k),
                tuple(map(tuple, case.matrix)), b.pp.ring,
            )
            lifted = kb.declassicalise(b, f, src, dst)
            return kb.classicalise(b, lifted, src, dst).entries

        def check(entries) -> Optional[str]:
            if gen.matrix_close(entries, case.matrix, case.exact):
                return None
            return "round trip did not return the classical matrix"

        return Job(f"roundtrip-{semiring}-{d}", run, check)

    return make


def kraus_extract(semiring: str, d: int) -> Callable:
    def make(ctx: Context, rng) -> Job:
        case = gen.kraus_case(semiring, d, rng)
        b, q = ctx.backends[semiring], ctx.quantum
        w = (q.QWire(d),)

        def run():
            phi = q.cpm_from_kraus(q.kraus_family(b.sr, w, w, case.elements))
            dec = q.decoherence_all(b.sr, w)
            psi = q.s_compose(dec, q.s_compose(phi, dec))
            cls = q.classical_extract(psi, b.pp)
            emb = q.classical_embed(cls, b.pp, dom=w, cod=w)
            return cls.entries, q.s_equal(emb, psi)

        def check(res) -> Optional[str]:
            entries, re_embeds = res
            if not gen.matrix_close(entries, case.expected(), case.exact):
                return "extracted matrix differs from sum_e |K_e|^2"
            return None if re_embeds is True else "embedding the extraction does not give the channel back"

        return Job(f"kraus-{semiring}-{d}", run, check)

    return make


# In cost order. p50 falls inside roundtrip-complex-f64-4 (ranks 30-63%),
# p90 inside roundtrip-complex-f64-6 (ranks 73-95%); the exact d=4 and float
# d=8 round trips above it carry a quarter of the timed work.
KAROUBI = [
    JobClass("kraus-gauss-rat-2", 6, kraus_extract("gauss-rat", 2)),
    JobClass("kraus-complex-f64-4", 6, kraus_extract("complex-f64", 4)),
    JobClass("roundtrip-gauss-rat-2", 6, roundtrip("gauss-rat", 2)),
    JobClass("roundtrip-complex-f64-4", 20, roundtrip("complex-f64", 4)),
    JobClass("roundtrip-gauss-rat-3", 6, roundtrip("gauss-rat", 3)),
    JobClass("roundtrip-complex-f64-6", 13, roundtrip("complex-f64", 6)),
    JobClass("roundtrip-gauss-rat-4", 2, roundtrip("gauss-rat", 4)),
    JobClass("roundtrip-complex-f64-8", 1, roundtrip("complex-f64", 8)),
]


# ---------------------------------------------------------------------------
# theory-check

# Positivity verdicts that follow from the definitions: a semiring is positive
# iff no nonzero family sums to zero; 1 + (-1) = 0 over the signed rationals,
# and p copies of 1 sum to 0 in characteristic p.
def positivity_line(sid: str) -> str:
    if sid in ("bool", "nat", "ratnn"):
        return "positive semiring: yes"
    if sid in ("rat", "gauss-rat", "split-rat"):
        return "positive semiring: no (witness family: 1, -1)"
    if sid == "complex-f64":
        return "positive semiring: n/a (approximate mode, tolerance 1e-09)"
    p = int(sid.split()[1])
    return "positive semiring: no (witness family: " + ", ".join(["1"] * p) + ")"


def theory_check(sid: str, backend: str) -> Callable:
    want = "".join(
        line + "\n"
        for line in (
            f"theory-check {sid} ({backend} backend)",
            "all probabilistic-theory laws hold on sampled instances",
            positivity_line(sid),
            "status: PASS",
        )
    )

    def make(ctx: Context, rng) -> Job:
        argv = ["--seed", str(rng.randrange(2**31)), "theory-check", sid, "--backend", backend]
        return cli_job(ctx, f"tc-{sid.replace(' ', '-')}-{backend}", argv, expect(0, out=want))

    return make


def theory_check_control(ctx: Context, rng) -> Job:
    """GF(p) has no positive part, so its quantum theory is a usage error."""

    def check(res: CliResult) -> Optional[str]:
        if res.rc != 2:
            return f"exit code {res.rc}, expected 2"
        if res.out is not None or "no positive sub-semiring" not in res.err:
            return "expected the missing positive part on stderr and no output"
        return None

    argv = ["--seed", str(rng.randrange(2**31)), "theory-check", "gf 3", "--backend", "quantum"]
    return cli_job(ctx, "tc-control-gf-3-quantum", argv, check)


# Roughly in cost order. p50 falls inside bool/quantum (ranks 40-60%), p90
# inside the 0.3-0.5 s band that gf2 1009 dominates (ranks 85-95%).
_TC_WEIGHTS = {
    ("bool", "classical"): 3, ("complex-f64", "classical"): 3, ("gf2 2", "classical"): 3,
    ("gf 3", "classical"): 3, ("nat", "classical"): 3, ("complex-f64", "quantum"): 3,
    ("rat", "classical"): 3, ("nat", "quantum"): 2,
    ("bool", "quantum"): 12,
    ("ratnn", "classical"): 7, ("gf2 2", "quantum"): 8,
    ("ratnn", "quantum"): 1, ("gauss-rat", "classical"): 1, ("gf2 1009", "classical"): 3,
    ("split-rat", "classical"): 1, ("rat", "quantum"): 1,
    ("split-rat", "quantum"): 1, ("gauss-rat", "quantum"): 1,
}

THEORY = [
    JobClass(f"tc-{sid.replace(' ', '-')}-{be}", w, theory_check(sid, be))
    for (sid, be), w in _TC_WEIGHTS.items()
] + [JobClass("tc-control-gf-3-quantum", 1, theory_check_control)]


# ---------------------------------------------------------------------------
# eq-corpus

CORPUS = os.path.join(ROOT, "eqcorpus")


def corpus_names() -> list:
    return sorted(os.listdir(CORPUS))


def corpus_stored(ctx: Context, rng) -> Job:
    """A shipped corpus entry under its stored bindings (golden output)."""
    names = corpus_names()
    name = names[rng.randrange(len(names))]
    d = os.path.join(CORPUS, name)
    golden = _read(os.path.join(GOLDEN, "eqcorpus", f"{name}.out"))
    argv = ["eq", os.path.join(d, "lhs.diag"), os.path.join(d, "rhs.diag"), os.path.join(d, "bindings.txt")]
    return cli_job(ctx, "corpus-stored", argv, expect(0, out=golden))


def corpus_rebound(ctx: Context, rng) -> Job:
    names = corpus_names()
    name = names[rng.randrange(len(names))]
    d = os.path.join(CORPUS, name)
    case = gen.corpus_rebinding(name, _read(os.path.join(d, "lhs.diag")), _read(os.path.join(d, "rhs.diag")), rng)
    return eq_job(ctx, "corpus-rebound", case)


def eq_job(ctx: Context, cls: str, case: gen.EqCase) -> Job:
    case = case.write(ctx.workdir)
    argv = ["eq", case.files["lhs"], case.files["rhs"], case.files["bindings"]]
    return cli_job(ctx, cls, argv, expect(case.expected_rc, out=case.expected_out))


def law(kind: str, wires: int) -> Callable:
    def make(ctx: Context, rng) -> Job:
        return eq_job(ctx, f"{kind}-w{wires}", gen.law_case(kind, wires, rng))

    return make


# p50 falls inside the ~2 ms one- and two-wire band (ranks 0-78%), p90 inside
# the three-wire interchange and bilinearity laws (ranks 78-100%).
EQ = [
    JobClass("corpus-stored", 10, corpus_stored),
    JobClass("corpus-rebound", 10, corpus_rebound),
    JobClass("absorption-w1", 1, law("absorption", 1)),
    JobClass("interchange-w1", 1, law("interchange", 1)),
    JobClass("bilinearity-w1", 1, law("bilinearity", 1)),
    JobClass("absorption-w2", 1, law("absorption", 2)),
    JobClass("absorption-perturbed-w2", 1, law("absorption-perturbed", 2)),
    JobClass("product-perturbed-w2", 1, law("product-perturbed", 2)),
    JobClass("interchange-w2", 1, law("interchange", 2)),
    JobClass("bilinearity-w2", 1, law("bilinearity", 2)),
    JobClass("absorption-w3", 1, law("absorption", 3)),
    JobClass("interchange-w3", 4, law("interchange", 3)),
    JobClass("bilinearity-w3", 4, law("bilinearity", 3)),
]


WORKLOADS = {
    "bell-nparty": BELL,
    "karoubi-roundtrip": KAROUBI,
    "theory-check": THEORY,
    "eq-corpus": EQ,
}


def schedule(classes: list):
    """Smooth weighted round robin: an endless, seed-independent order in
    which every prefix holds each class close to its weight share."""
    current = [0] * len(classes)
    total = sum(c.weight for c in classes)
    while True:
        for i, c in enumerate(classes):
            current[i] += c.weight
        best = max(range(len(classes)), key=lambda i: current[i])
        current[best] -= total
        yield classes[best]
