"""Per-layer tracing of catprob from outside the program.

`Tracer.install()` replaces the public functions of each catprob module, and
the public methods of the two backend classes, with wrappers that record a
span per call: (name, start, end, parent span, job id, self time). A wrapped
function is rebound at every site that holds it, including the names that
other modules bound with `from .x import f`; `escaped_bindings` lists any
site that still holds an original. Spans stay in memory until `write`.

Self time is a span's duration minus the durations of its direct children.
Spans nest strictly (one thread, plain calls), so the self times of all spans
under a job add up exactly to that job's duration.

A few index and shape helpers are left unwrapped because they run once per
matrix entry; their time counts as self time of the calling function.
"""

from __future__ import annotations

import gzip
import sys
import time
from collections import defaultdict

MODULES = ("semirings", "matcat", "quantum", "karoubi", "bell", "scenarios", "diagram", "backend", "cli")
BACKEND_CLASSES = ("ClassicalBackend", "QuantumBackend")
UNWRAPPED = {
    "quantum": {"doubled_dim", "plain_dim", "index_pairs", "lin", "plain_lin", "cwire"},
    "matcat": {"obj", "obj_of_size", "obj_tensor"},
}
JOB = "bench.job"
COUNT = "trace.count"


def _dense_and_live(g, f) -> tuple:
    """(products formed, dense r*m*c) of g . f when zero entries of f are
    skipped, as `matcat.compose` and `quantum.s_compose` do."""
    zero = f.sr.zero
    rows, mid = len(g.entries), len(f.entries)
    cols = len(f.entries[0]) if mid else 0
    live = sum(1 for row in f.entries for x in row if x != zero)
    return rows * live, rows * mid * cols


class Tracer:
    def __init__(self):
        self.names: list = []
        self.index: dict = {}
        self.spans: list = []  # sid -> (name idx, t0, t1, parent sid, job, self ns)
        self.stack: list = []  # open frames [sid, t0, child ns]
        self.open: list = []  # name idx -> number of open spans
        self.counts = defaultdict(int)
        self.job = -1
        self.last_job_ns = 0
        self.originals: dict = {}  # qualified name -> original function
        self._count_idx = self._name(COUNT)

    def _name(self, name: str) -> int:
        if name not in self.index:
            self.index[name] = len(self.names)
            self.names.append(name)
            self.open.append(0)
        return self.index[name]

    # -- recording ---------------------------------------------------------

    def _close(self, idx: int, frame: list, t1: int):
        self.stack.pop()
        self.open[idx] -= 1
        dur = t1 - frame[1]
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += dur
        self.spans[frame[0]] = (idx, frame[1], t1, parent[0] if parent else -1, self.job, dur - frame[2])

    def _open(self, idx: int, t0: int) -> list:
        frame = [len(self.spans), t0, 0]
        self.spans.append(None)
        self.stack.append(frame)
        self.open[idx] += 1
        return frame

    def run_job(self, job_id: int, label: str, fn):
        """Run fn() as the root span `bench.job.<label>` of one job; its
        duration is left in `last_job_ns`."""
        self.job = job_id
        idx = self._name(f"{JOB}.{label}")
        frame = self._open(idx, time.perf_counter_ns())
        try:
            return fn()
        finally:
            t1 = time.perf_counter_ns()
            self._close(idx, frame, t1)
            self.last_job_ns = t1 - frame[1]
            self.job = -1

    def wrap(self, name: str, fn, count=None):
        idx = self._name(name)
        clock = time.perf_counter_ns
        count_idx = self._count_idx
        tracer = self

        def wrapper(*args, **kwargs):
            if count is not None:
                frame = tracer._open(count_idx, clock())
                count(tracer, args)
                tracer._close(count_idx, frame, clock())
            frame = tracer._open(idx, clock())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx, frame, clock())

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters ----------------------------------------------------------

    def _is_open(self, name: str) -> bool:
        idx = self.index.get(name)
        return idx is not None and self.open[idx] > 0

    def _count_s_compose(self, args):
        g, f = args[0], args[1]
        live, dense = _dense_and_live(g, f)
        self.counts["quantum.s_compose.mults"] += live
        self.counts["quantum.s_compose.dense"] += dense

    def _count_m_compose(self, args):
        g, f = args[0], args[1]
        live, dense = _dense_and_live(g, f)
        self.counts["matcat.compose.mults"] += live
        self.counts["matcat.compose.dense"] += dense

    def _count_s_tensor(self, args):
        f, g = args[0], args[1]
        n = len(f.entries) * len(g.entries) * len(f.entries[0]) * len(g.entries[0])
        self.counts["quantum.s_tensor.entries"] += n
        if self._is_open("bell.evaluate"):
            self.counts["bell.evaluate.tensor_entries"] += n

    def _count_backend_compose(self, args):
        if self._is_open("karoubi.declassicalise") or self._is_open("karoubi.classicalise"):
            self.counts["karoubi.roundtrip.compose_calls"] += 1

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every public catprob function and backend method in place."""
        import catprob  # noqa: F401  (loads every module)

        counters = {
            "quantum.s_compose": Tracer._count_s_compose,
            "matcat.compose": Tracer._count_m_compose,
            "quantum.s_tensor": Tracer._count_s_tensor,
            "backend.QuantumBackend.compose": Tracer._count_backend_compose,
        }
        replace = {}  # id(original) -> wrapper
        for mod_name in MODULES:
            mod = sys.modules[f"catprob.{mod_name}"]
            skip = UNWRAPPED.get(mod_name, set())
            for attr, val in list(vars(mod).items()):
                if attr.startswith("_") or attr in skip or not callable(val) or isinstance(val, type):
                    continue
                if getattr(val, "__module__", None) != mod.__name__:
                    continue
                qual = f"{mod_name}.{attr}"
                self.originals[qual] = val
                replace[id(val)] = self.wrap(qual, val, counters.get(qual))
        backend = sys.modules["catprob.backend"]
        for cls_name in BACKEND_CLASSES:
            cls = getattr(backend, cls_name)
            for attr, val in list(vars(cls).items()):
                if not callable(val) or (attr.startswith("_") and attr != "__init__"):
                    continue
                qual = f"backend.{cls_name}.{attr}"
                self.originals[qual] = val
                setattr(cls, attr, self.wrap(qual, val, counters.get(qual)))
        for mod in _catprob_modules():
            for attr, val in list(vars(mod).items()):
                if id(val) in replace and val is not replace[id(val)]:
                    setattr(mod, attr, replace[id(val)])
        return self

    def escaped_bindings(self) -> list:
        """Every module-level name, class attribute or module-level container
        entry in catprob that still holds an unwrapped original."""
        originals = {id(f): q for q, f in self.originals.items()}
        found = []
        for mod in _catprob_modules():
            for attr, val in vars(mod).items():
                if id(val) in originals:
                    found.append(f"{mod.__name__}.{attr} -> {originals[id(val)]}")
                elif isinstance(val, type) and val.__module__ == mod.__name__:
                    for cattr, cval in vars(val).items():
                        if id(cval) in originals:
                            found.append(f"{mod.__name__}.{attr}.{cattr} -> {originals[id(cval)]}")
                elif isinstance(val, dict):
                    items = list(val.values()) + list(val.keys())
                    found += [f"{mod.__name__}.{attr}[...] -> {originals[id(v)]}" for v in items if id(v) in originals]
                elif isinstance(val, (tuple, list)):
                    found += [f"{mod.__name__}.{attr}[...] -> {originals[id(v)]}" for v in val if id(v) in originals]
        return found

    # -- results -----------------------------------------------------------

    def job_self_totals(self) -> dict:
        """job id -> (sum of self ns of its spans, duration ns of its root)."""
        out = {}
        for idx, t0, t1, parent, job, self_ns in self.spans:
            acc = out.setdefault(job, [0, 0])
            acc[0] += self_ns
            if parent == -1:
                acc[1] = t1 - t0
        return {k: tuple(v) for k, v in out.items() if k >= 0}

    def totals(self, jobs=None) -> dict:
        """name -> [calls, self ns] over the spans inside jobs (or inside the
        given job ids)."""
        out = defaultdict(lambda: [0, 0])
        for idx, _, _, _, job, self_ns in self.spans:
            if job >= 0 and (jobs is None or job in jobs):
                acc = out[self.names[idx]]
                acc[0] += 1
                acc[1] += self_ns
        return dict(out)

    def write(self, path: str):
        with gzip.open(path, "wt") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\tjob\tself_ns\n")
            for idx, t0, t1, parent, job, self_ns in self.spans:
                fh.write(f"{self.names[idx]}\t{t0}\t{t1}\t{parent}\t{job}\t{self_ns}\n")


def _catprob_modules() -> list:
    return [m for n, m in list(sys.modules.items()) if m is not None and (n == "catprob" or n.startswith("catprob."))]
