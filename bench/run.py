"""Benchmark of the ``dualfilter`` workloads.

Usage, from the root of a checkout::

    python3 bench/run.py --workload twin_mc --seed 1 --seconds 20 --trace 0

Runs the operations of one workload (see ``workloads.py``) in this process,
from one thread, pass after pass within a window of ``--seconds`` seconds
(at least two passes), into a scratch
directory under ``bench/.work``.  The program is imported from the
checkout's ``src``.  Every pass is checked: an operation fails on an
exception, a non-zero exit code, ``all_passed: false`` in its
``summary.json``, or CSV output that differs from the first pass.

``--trace 0`` reports the end-to-end metrics of untraced passes:
``setup_s`` (median over fresh interpreters of importing ``dualfilter.cli``
and building the workload's models), ``wall_s`` (median pass time,
artifact writes included), ``peak_rss_mb`` (this process's
``ru_maxrss``) and ``ops_passed_ratio`` (operations passed over operations
attempted).  ``--trace 1`` instead alternates untraced passes with
traced ones (see ``tracing.py``) and reports per-layer metrics, the
tracing overhead, and the import times seen by ``-X importtime``.  A
first traced pass, which also takes the cold start, records tracemalloc
peaks instead of timings.

The last line of standard output is the result object; the line before it
is a report with provenance, per-operation verdicts and output digests,
also written to ``bench/.runs``, next to the spans of traced runs.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
MIN_PASSES = 2           # two passes at least, so determinism is always checked
CHILD_TIMEOUT_S = 60


def unit(metric: str) -> str:
    """Unit of a metric, from its name's suffix."""
    for suffix, u in (("_s", "s"), ("_mb", "MB"), ("_ratio", "ratio")):
        if metric.endswith(suffix):
            return u
    return "count"


# Runs in a fresh interpreter: what a CLI invocation pays before its first
# experiment starts.  argv: src, bench dir, workload, seed, scale.
SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import dualfilter.cli
t1 = time.perf_counter()
sys.path.insert(0, sys.argv[2])
from workloads import operations
t2 = time.perf_counter()
for op in operations(sys.argv[3], int(sys.argv[4]), float(sys.argv[5])):
    op.build_model()
t3 = time.perf_counter()
print(t1 - t0 + t3 - t2)
"""


class Window:
    """Measuring window of ``seconds``.  Called once before each step,
    :meth:`room` says whether a step as long as the last one still ends
    inside the window."""

    def __init__(self, seconds: float):
        self.step_start = time.perf_counter()
        self.end = self.step_start + seconds

    def room(self) -> bool:
        now = time.perf_counter()
        step, self.step_start = now - self.step_start, now
        return now + step <= self.end


class Runner:
    """Runs passes of one workload and judges every operation."""

    def __init__(self, ops, work: Path):
        self.ops = ops
        self.work = work
        self.reference: list[dict | None] = [None] * len(ops)
        self.attempted = 0
        self.failed = 0
        self.crashed = 0
        self.mismatched = 0
        self.errors: dict[str, str] = {}
        self.passes: list[dict] = []

    def run_pass(self, kind: str = "plain", tracer=None) -> float:
        from tracing import instrument
        pass_dir = self.work / f"pass{len(self.passes)}"
        outs = [pass_dir / f"op{i}" for i in range(len(self.ops))]
        results = []
        gc.collect()
        with (instrument(tracer) if tracer is not None else contextlib.nullcontext()), \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            t0, c0 = time.perf_counter(), time.process_time()
            for op, out in zip(self.ops, outs):
                try:
                    results.append(op.run(out))
                except Exception as exc:   # a crash is a verdict, not a benchmark error
                    results.append(exc)
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        for i, (op, out, res) in enumerate(zip(self.ops, outs, results)):
            self._judge(i, op, out, res)
        shutil.rmtree(pass_dir, ignore_errors=True)
        self.passes.append({"kind": kind, "wall_s": wall, "cpu_s": cpu})
        return wall

    def _judge(self, i, op, out, res):
        from workloads import Verdict
        self.attempted += 1
        if isinstance(res, Exception):
            self.crashed += 1
            verdict = Verdict(False, {}, f"{type(res).__name__}: {res}")
        else:
            verdict = op.verdict(res, out)
        ok = verdict.passed
        if self.reference[i] is None:
            self.reference[i] = verdict.digests
        elif verdict.digests != self.reference[i]:
            self.mismatched += 1
            ok = False
            self.errors[op.name] = "output differs between passes with one seed"
        if not ok:
            self.failed += 1
            self.errors.setdefault(op.name, verdict.error or "failed")

    @property
    def correct(self) -> bool:
        """Every operation ran to a verdict and reproduced its outputs."""
        return self.crashed == 0 and self.mismatched == 0

    def report_ops(self) -> list[dict]:
        return [{"name": op.name, "digests": ref, "error": self.errors.get(op.name)}
                for op, ref in zip(self.ops, self.reference)]


def setup_sample(workload: str, seed: int, scale: float, importtime: bool = False):
    """Set-up time of one fresh interpreter and its ``-X importtime`` report."""
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []), "-c", SETUP_CHILD,
           str(SRC), str(BENCH), workload, str(seed), str(scale)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    return float(proc.stdout.split()[-1]), proc.stderr


def import_seconds(report: str, module: str) -> float:
    """Cumulative import time of ``module`` in an ``-X importtime`` report."""
    for line in report.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == module:
            return int(parts[1]) / 1e6
    return 0.0


def measure(workload: str, seed: int, seconds: float, trace: bool, scale: float = 1.0):
    """Run one workload; returns the result, the report and the tracers of
    the traced passes."""
    from tracing import Tracer, layer_metrics
    from workloads import operations
    ops = operations(workload, seed, scale)
    work_root = BENCH / ".work"
    work_root.mkdir(exist_ok=True)
    report: dict = {"workload": workload, "seed": seed, "trace": int(trace), "scale": scale}
    tracers = []
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        runner = Runner(ops, Path(tmp))
        if not trace:
            # set-up samples are taken between passes, so that they are
            # spread over the same stretch of machine speed as the passes
            setup = []
            window = Window(seconds)
            while window.room() or len(runner.passes) < MIN_PASSES:
                setup.append(setup_sample(workload, seed, scale)[0])
                runner.run_pass()
            while len(setup) < SETUP_SAMPLES:
                setup.append(setup_sample(workload, seed, scale)[0])
            walls = [p["wall_s"] for p in runner.passes]
            metrics = {
                "setup_s": statistics.median(setup),
                "wall_s": statistics.median(walls),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                # 1 - ops_failed_ratio, so that the metric is never 0
                "ops_passed_ratio": 1.0 - runner.failed / runner.attempted,
            }
            report["setup_s_samples"] = setup
        else:
            samples = [setup_sample(workload, seed, scale, importtime=True)
                       for _ in range(IMPORTTIME_SAMPLES)]
            window = Window(seconds)
            # the memory pass goes first: it also takes the cold start
            plan = ["memory", "plain", "traced"]
            while window.room() or plan:
                kind = plan.pop(0) if plan else ("plain" if runner.passes[-1]["kind"] != "plain" else "traced")
                tracer = None
                if kind != "plain":
                    tracer = Tracer(pass_id=len(runner.passes), memory=kind == "memory")
                    tracers.append(tracer)
                runner.run_pass(kind, tracer)
            timed = [layer_metrics(t.spans, t.counters) for t in tracers if not t.memory]
            memory = [layer_metrics(t.spans, t.counters) for t in tracers if t.memory]
            metrics = {k: statistics.median(m[k] for m in timed) for k in timed[0]}
            for key in ("duality.peak_alloc_mb", "stability.peak_alloc_mb"):
                metrics[key] = max(m[key] for m in memory)
            walls = {kind: statistics.median(p["wall_s"] for p in runner.passes if p["kind"] == kind)
                     for kind in ("plain", "traced")}
            metrics["trace.overhead_s"] = walls["traced"] - walls["plain"]
            metrics["setup.import_s"] = statistics.median(
                import_seconds(err, "dualfilter.cli") for _, err in samples)
            metrics["setup.scipy_sparse_import_s"] = statistics.median(
                import_seconds(err, "scipy.sparse") for _, err in samples)
    result = {
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }
    report.update(provenance=provenance(seed), passes=runner.passes, ops=runner.report_ops(),
                  ops_failed_ratio=runner.failed / runner.attempted,
                  samples={kind: sum(p["kind"] == kind for p in runner.passes)
                           for kind in ("plain", "memory", "traced")})
    return result, report, tracers


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({ln.split()[-1] for ln in maps.splitlines()
                   if "openblas" in ln.lower() and ln.split()[-1].startswith("/")})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit() -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                              text=True, env=env, timeout=CHILD_TIMEOUT_S)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(seed: int) -> dict:
    import numpy as np
    import scipy
    from importlib.metadata import version
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "click": version("click"),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                            if k in os.environ},
        "git_commit": _git_commit(),
        "seed": seed,
        "argv": sys.argv,
    }


def write_spans(path: Path, tracers) -> None:
    doc = {"fields": ["name", "layer", "start", "end", "parent", "pass"],
           "passes": [{"pass": t.pass_id, "memory": t.memory, "spans": t.spans,
                       "counters": {str(k): v for k, v in t.counters.items()}} for t in tracers]}
    path.write_text(json.dumps(doc, separators=(",", ":")))


def main(argv=None) -> int:
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dualfilter" / "__init__.py").is_file():
        print(f"no dualfilter package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dualfilter
    if Path(dualfilter.__file__).resolve().parent != SRC / "dualfilter":
        print(f"dualfilter imported from {dualfilter.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    result, report, tracers = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    runs = BENCH / ".runs"
    runs.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (runs / f"{stem}.json").write_text(json.dumps({**report, "result": result}, indent=1) + "\n")
    if tracers:    # large: kept for the latest traced run of each workload only
        write_spans(runs / f"{args.workload}.spans.json", tracers)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
