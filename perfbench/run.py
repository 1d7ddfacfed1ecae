"""catprob benchmark: closed-loop workloads of verified user-level jobs.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s>

Run it from the root of a catprob source tree; it imports catprob from
`src/`. One process runs one workload with one caller and no extra threads.
With `--trace 0` the last line of stdout is a JSON object with the
end-to-end metrics; with `--trace 1` it holds the per-layer metrics of a
traced replay of the same jobs, and the spans go to `.perfbench-out/`.
`--workload all` runs every workload in its own process and prints a table.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before anything can import numpy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from importlib import metadata
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 6  # fresh processes timed before the warm-up, and as many after the loop
TRACE_SHARE = 1 / 3  # share of --seconds spent on the untraced pass of a traced run
SCALAR_IDS = ("bool", "nat", "ratnn", "rat", "gauss-rat", "split-rat", "gf 3", "gf2 2", "complex-f64")
ENTRY_POINTS = (
    "semirings.get_semiring", "semirings.positive_part", "semirings.axioms_check", "semirings.is_positive",
    "matcat.compose", "matcat.tensor", "matcat.equal",
    "quantum.s_compose", "quantum.s_tensor", "quantum.s_equal", "quantum.double",
    "quantum.classical_extract", "quantum.classical_embed", "quantum.is_decoherence_invariant",
    "karoubi.declassicalise", "karoubi.classicalise", "karoubi.make_object", "karoubi.spo_validate",
    "bell.evaluate", "bell.no_signalling_check", "bell.export_empirical_model",
    "scenarios.parse_scenario_text",
    "diagram.parse", "diagram.typecheck", "diagram.evaluate", "diagram.bind_generators",
    "backend.backend_self_test", "backend.QuantumBackend.__init__", "backend.QuantumBackend.random_morphism",
    "cli.main", "cli.build_parser",
)
END_TO_END = {
    "job_s.p50": "s", "job_s.p90": "s", "jobs_per_s": "1/s",
    "ok_ratio": "1", "setup_s": "s", "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    """name -> unit of every per-layer metric, in report order. Times and
    counts are means per traced job unless the name says otherwise."""
    units = {f"{m}.self_s": "s/job" for m in tracing.MODULES}
    for e in ENTRY_POINTS:
        units[f"{e}.calls"] = "count/job"
        units[f"{e}.self_s"] = "s/job"
    units.update({
        "quantum.s_tensor.entries": "count/job",
        "bell.evaluate.tensor_entries": "count/job",
        "quantum.s_compose.mults": "count/job",
        "quantum.s_compose.live_ratio": "1",
        "matcat.compose.mults": "count/job",
        "matcat.compose.live_ratio": "1",
        "karoubi.roundtrip.compose_calls": "count",
    })
    for sid in SCALAR_IDS:
        units[f"semirings.mul_ns.{sid.replace(' ', '-')}"] = "ns"
        units[f"semirings.add_ns.{sid.replace(' ', '-')}"] = "ns"
    units["trace_overhead"] = "1"
    return units


@dataclass(frozen=True)
class Sample:
    cls: str
    seconds: float
    ok: bool
    why: Optional[str]


def closed_loop(ctx, classes, rng, seconds=None, count=None, tracer=None) -> list:
    """One caller: make the next job, run it (timed), check it, repeat, for
    `seconds` of wall time or `count` jobs.

    Each job starts from an empty young generation, as a fresh `catprob`
    process would: the collector runs before the clock starts, over what the
    harness itself allocated, so its pauses are not charged to the job."""
    sched = workloads.schedule(classes)
    samples = []
    start = time.perf_counter()
    while (len(samples) < count) if count is not None else (time.perf_counter() - start < seconds):
        job = next(sched).make(ctx, rng)
        gc.collect()
        why = None
        try:
            if tracer is None:
                t0 = time.perf_counter()
                res = job.run()
                dt = time.perf_counter() - t0
            else:
                res = tracer.run_job(len(samples), job.cls, job.run)
                dt = tracer.last_job_ns / 1e9
        except Exception as exc:  # a job that raises is a failed job, not a crash
            dt = time.perf_counter() - t0 if tracer is None else tracer.last_job_ns / 1e9
            why = f"raised {exc!r}"
        if why is None:
            why = job.check(res)
        samples.append(Sample(job.cls, dt, why is None, why))
    return samples


def measure_setup(workload: str, workdir: str) -> list:
    """Seconds from before `import catprob` to a ready job context, in each
    of SETUP_SAMPLES fresh processes (not warmed up: users pay it on every
    start)."""
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, probe, workload, workdir], capture_output=True, text=True, timeout=120, check=True
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def percentile_90(xs: list) -> float:
    return statistics.quantiles(xs, n=10, method="inclusive")[-1] if len(xs) > 1 else xs[0]


def end_to_end(samples: list, setup_s: float) -> dict:
    lat = [s.seconds for s in samples]
    ok = sum(s.ok for s in samples)
    return {
        "job_s.p50": statistics.median(lat),
        "job_s.p90": percentile_90(lat),
        "jobs_per_s": ok / sum(lat),
        "ok_ratio": ok / len(samples),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def scalar_costs() -> dict:
    """ns per `sr.mul` / `sr.add` call on a fixed seeded sample of elements."""
    from catprob.semirings import get_semiring

    out = {}
    for sid in SCALAR_IDS:
        sr = get_semiring(sid)
        rng = random.Random(20170901)
        xs = [sr.sample(rng) for _ in range(512)]
        ys = [sr.sample(rng) for _ in range(512)]
        for op in ("mul", "add"):
            fn = getattr(sr, op)
            reps = []
            for _ in range(7):
                t0 = time.perf_counter_ns()
                for a, b in zip(xs, ys):
                    fn(a, b)
                reps.append((time.perf_counter_ns() - t0) / len(xs))
            out[f"semirings.{op}_ns.{sid.replace(' ', '-')}"] = statistics.median(reps)
    return out


def per_layer(tracer, samples: list, untraced: list) -> dict:
    totals = tracer.totals()
    n = len(samples)
    out = {}
    for m in tracing.MODULES:
        out[f"{m}.self_s"] = sum(v[1] for k, v in totals.items() if k.startswith(m + ".")) / n / 1e9
    for e in ENTRY_POINTS:
        calls, self_ns = totals.get(e, (0, 0))
        out[f"{e}.calls"] = calls / n
        out[f"{e}.self_s"] = self_ns / n / 1e9
    c = tracer.counts
    out["quantum.s_tensor.entries"] = c["quantum.s_tensor.entries"] / n
    out["bell.evaluate.tensor_entries"] = c["bell.evaluate.tensor_entries"] / n
    out["quantum.s_compose.mults"] = c["quantum.s_compose.mults"] / n
    out["quantum.s_compose.live_ratio"] = c["quantum.s_compose.mults"] / max(1, c["quantum.s_compose.dense"])
    out["matcat.compose.mults"] = c["matcat.compose.mults"] / n
    out["matcat.compose.live_ratio"] = c["matcat.compose.mults"] / max(1, c["matcat.compose.dense"])
    trips = sum(1 for s in samples if s.cls.startswith("roundtrip-"))
    out["karoubi.roundtrip.compose_calls"] = c["karoubi.roundtrip.compose_calls"] / max(1, trips)
    out.update(scalar_costs())
    out["trace_overhead"] = sum(s.seconds for s in samples) / sum(s.seconds for s in untraced)
    return out


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    src = os.path.join(ROOT, "src", "catprob")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "catprob_git_sha": _git_sha(),
        "catprob_src_sha256": digest.hexdigest()[:16],
    }


def _git_sha() -> str:
    """HEAD of the source tree's own .git, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            return next((ln.split()[0] for ln in fh if ln.strip().endswith(" " + ref)), "unknown")
    except OSError:
        return "unknown"


def run_workload(args) -> dict:
    base = os.path.join(ROOT, ".perfbench-work")
    os.makedirs(base, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base)
    try:
        setup_times = [] if args.trace else measure_setup(args.workload, workdir)
        ctx = workloads.setup(args.workload, workdir)
        classes = workloads.WORKLOADS[args.workload]
        warm = random.Random(f"{args.seed}:warm-up")
        for jc in classes:
            job = jc.make(ctx, warm)
            job.check(job.run())
        gc.collect()
        gc.freeze()  # long-lived harness and catprob objects leave the collector's scans
        jobs_seed = f"{args.seed}:{args.workload}"
        if not args.trace:
            samples = closed_loop(ctx, classes, random.Random(jobs_seed), seconds=args.seconds)
            setup_times += measure_setup(args.workload, workdir)
            metrics = end_to_end(samples, statistics.median(setup_times))
            units = END_TO_END
        else:
            untraced = closed_loop(ctx, classes, random.Random(jobs_seed), seconds=args.seconds * TRACE_SHARE)
            tracer = tracing.Tracer().install()
            traced = closed_loop(ctx, classes, random.Random(jobs_seed), count=len(untraced), tracer=tracer)
            metrics = per_layer(tracer, traced, untraced)
            units = per_layer_units()
            out_dir = os.path.join(ROOT, ".perfbench-out")
            os.makedirs(out_dir, exist_ok=True)
            tracer.write(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.tsv.gz"))
            samples = untraced + traced
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = [s for s in samples if not s.ok]
    for s in failed[:5]:
        print(f"FAILED {s.cls}: {s.why}", file=sys.stderr)
    print("env " + json.dumps(environment()))
    print(f"workload {args.workload}: {len(samples)} jobs, {len(failed)} failed")
    for name, unit in units.items():
        print(f"  {name:48s} {metrics[name]:.6g} {unit}")
    for cls in dict.fromkeys(s.cls for s in samples):
        lat = [s.seconds for s in samples if s.cls == cls]
        print(f"  class {cls:42s} n={len(lat):<5d} median {statistics.median(lat):.6g} s")
    return {
        "correct": not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def run_all(args) -> int:
    """Every workload in its own process; a table of the end-to-end metrics."""
    results, status = {}, 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, res in results.items():
        print(f"{name}: {res['attempted']} jobs, {res['failed']} failed")
        for metric, v in res["metrics"].items():
            print(f"  {metric:48s} {v['value']:.6g} {v['unit']}")
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "catprob", "__init__.py")):
        print(f"perfbench: no catprob sources under {ROOT}/src", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    print(json.dumps(run_workload(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
