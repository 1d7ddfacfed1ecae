"""Each oracle accepts the program's real output and rejects a corrupted
one, so `ok_ratio` can fall; expected-failure controls score as ok only when
they fail the expected way."""

import random

import pytest

import gen
import workloads


@pytest.fixture(scope="module")
def ctx(tmp_path_factory):
    return workloads.setup("karoubi-roundtrip", str(tmp_path_factory.mktemp("work")))


def _run(job):
    return job.check(job.run())


def _judge_with(job, ctx, edit):
    """Run a CLI job, rewrite its `--out` file with `edit`, judge again."""
    rc, err = job.run()
    assert job.check((rc, err)) is None
    out_path = f"{ctx.workdir}/job.out"
    with open(out_path) as fh:
        text = fh.read()
    with open(out_path, "w") as fh:
        fh.write(edit(text))
    return job.check((rc, err))


@pytest.mark.parametrize("semiring,n", [("gauss-rat", 2), ("complex-f64", 2), ("bool", 2), ("gauss-rat", 3)])
def test_ghz_oracle(ctx, semiring, n):
    job = workloads.ghz_bell(semiring, n)(ctx, random.Random(n))
    # change the first probability of the first row to another value
    def edit(text):
        lines = text.splitlines(True)
        i = next(k for k, ln in enumerate(lines) if ln.startswith("row "))
        parts = lines[i].split()
        parts[2] = {"gauss-rat": "1/3", "complex-f64": "0.3", "bool": "1" if parts[2] == "0" else "0"}[semiring]
        lines[i] = " ".join(parts) + "\n"
        return "".join(lines)

    assert _judge_with(job, ctx, edit) is not None


def test_ghz_closed_form_gives_mermin_four():
    case = gen.ghz_case("gauss-rat", 3, random.Random(0))
    rows = gen.ghz_expected(case)
    contexts = ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0))
    assert sum(abs(gen.correlator(rows[c])) for c in contexts) == 4


@pytest.mark.parametrize("name", workloads.SHIPPED_SCENARIOS)
def test_golden_scenario_oracle(ctx, name):
    job = workloads.shipped_bell(name)(ctx, random.Random(0))
    assert _run(job) is None
    assert _judge_with(job, ctx, lambda t: t.replace("PASS", "FAIL", 1)) is not None


def test_float_golden_compares_within_tolerance():
    golden = "row 0|0 0.426776695297 0.0732233047034\n"
    assert gen.check_golden("row 0|0 0.426776695298 0.0732233047034\n", golden, 1e-9) is None
    assert gen.check_golden("row 0|0 0.426777 0.0732233047034\n", golden, 1e-9) is not None
    assert gen.check_golden("row 0|1 0.426776695297 0.0732233047034\n", golden, 1e-9) is not None


def test_theory_check_oracle(ctx):
    job = workloads.theory_check("bool", "classical")(ctx, random.Random(0))
    assert _judge_with(job, ctx, lambda t: t.replace("yes", "no")) is not None


def test_eq_oracles(ctx):
    rng = random.Random(4)
    job = workloads.corpus_stored(ctx, rng)
    assert _judge_with(job, ctx, lambda t: "unequal\n") is not None
    job = workloads.law("interchange", 2)(ctx, rng)
    assert _judge_with(job, ctx, lambda t: t + "\n") is not None


def test_roundtrip_oracle(ctx):
    for semiring in ("gauss-rat", "complex-f64"):
        job = workloads.roundtrip(semiring, 2 if semiring == "gauss-rat" else 4)(ctx, random.Random(1))
        entries = job.run()
        assert job.check(entries) is None
        bad = [list(r) for r in entries]
        bad[0][0] = bad[0][0] + (1 if semiring == "gauss-rat" else 1e-6)
        assert job.check(bad) is not None


def test_kraus_oracle(ctx):
    job = workloads.kraus_extract("gauss-rat", 2)(ctx, random.Random(2))
    entries, re_embeds = job.run()
    assert job.check((entries, re_embeds)) is None
    assert job.check((entries, False)) is not None
    bad = [list(r) for r in entries]
    bad[1][0] += 1
    assert job.check((bad, True)) is not None


def test_theory_check_control_ok_only_on_exit_2(ctx):
    job = workloads.theory_check_control(ctx, random.Random(0))
    rc, err = job.run()
    assert rc == 2 and job.check((rc, err)) is None
    assert job.check((0, err)) is not None
    assert job.check((1, err)) is not None


def test_perturbed_eq_control_ok_only_on_exit_1_unequal(ctx):
    rng = random.Random(5)
    for kind in ("absorption-perturbed", "product-perturbed"):
        job = workloads.law(kind, 2)(ctx, rng)
        rc, err = job.run()
        assert rc == 1 and job.check((rc, err)) is None
        assert _judge_with(job, ctx, lambda t: "equal\n") is not None
        assert job.check((0, err)) is not None
        assert job.check((2, err)) is not None


def test_raising_job_is_a_failure(ctx):
    import run

    def make(c, rng):
        def explode():
            raise ValueError("boom")

        return workloads.Job("boom", explode, lambda res: None)

    samples = run.closed_loop(ctx, [workloads.JobClass("boom", 1, make)], random.Random(0), count=2)
    assert [s.ok for s in samples] == [False, False]
    assert "boom" in samples[0].why
