"""The traced-run harness: every wrapped entry point is reached through its
wrapper, and the self times of a job's spans add up to the job's wall time."""

import random
import sys

import pytest

import run
import tracer as tracing
import workloads


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One tracer per process: installing wraps catprob in place."""
    ctx = workloads.setup("karoubi-roundtrip", str(tmp_path_factory.mktemp("work")))
    return ctx, tracing.Tracer().install()


def test_no_wrapped_entry_point_escapes(traced):
    _, tr = traced
    assert tr.escaped_bindings() == []
    for name in run.ENTRY_POINTS:
        assert name in tr.originals, name
    # names other modules bound with `from .x import f` now hold the wrappers
    diagram = sys.modules["catprob.diagram"]
    assert diagram.parse_nested.__wrapped__ is tr.originals["scenarios.parse_nested"]
    assert diagram.get_semiring.__wrapped__ is tr.originals["semirings.get_semiring"]
    cli = sys.modules["catprob.cli"]
    assert cli.get_semiring.__wrapped__ is tr.originals["semirings.get_semiring"]
    assert sys.modules["catprob"].evaluate.__wrapped__ is tr.originals["bell.evaluate"]


def test_self_times_sum_to_job_wall(traced):
    ctx, tr = traced
    rng = random.Random(7)
    makers = [
        workloads.ghz_bell("gauss-rat", 2),
        workloads.roundtrip("gauss-rat", 2),
        workloads.kraus_extract("complex-f64", 4),
        workloads.theory_check("bool", "quantum"),
        workloads.corpus_rebound,
    ]
    first = len(tr.job_self_totals())
    for i, make in enumerate(makers):
        job = make(ctx, rng)
        assert job.check(tr.run_job(1000 + i, job.cls, job.run)) is None
        assert tr.last_job_ns > 0
    totals = tr.job_self_totals()
    assert len(totals) == first + len(makers)
    for job_id, (self_sum, wall) in totals.items():
        assert self_sum == wall, job_id


def test_counts_follow_operands(traced):
    ctx, tr = traced
    before = dict(tr.counts)
    job = workloads.ghz_bell("bool", 2)(ctx, random.Random(3))
    assert job.check(tr.run_job(2000, job.cls, job.run)) is None
    grown = {k: tr.counts[k] - before.get(k, 0) for k in tr.counts}
    # per context: each party fixes its choice with delta (4x1) (x) id (4x4),
    # then the two 4x4 channels are tensored (16x16)
    assert grown["quantum.s_tensor.entries"] == 4 * (2 * 64 + 256)
    assert grown["bell.evaluate.tensor_entries"] == 4 * (2 * 64 + 256)
    assert 0 < grown["quantum.s_compose.mults"] <= grown["quantum.s_compose.dense"]


def test_s_tensor_dominates_three_party_exact_ghz(traced):
    ctx, tr = traced
    job = workloads.ghz_bell("gauss-rat", 3)(ctx, random.Random(11))
    assert job.check(tr.run_job(3000, job.cls, job.run)) is None
    totals = tr.totals(jobs={3000})
    by_self = sorted(totals.items(), key=lambda kv: kv[1][1], reverse=True)
    assert by_self[0][0] == "quantum.s_tensor"
    assert by_self[0][1][1] > 0.5 * sum(v[1] for v in totals.values())
