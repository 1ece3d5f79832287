"""Benchmark workloads: fixed lists of operations on the ``dualfilter`` package.

An operation is one in-process ``dualfilter.cli.run(ExperimentConfig(...))``
call into its own output directory, or a public library call where no CLI
command reaches the code.  Every operation takes the workload seed as its
``seed``; the program only ever sees the generated configurations.

Why each workload exists:

* ``twin_mc`` -- Monte-Carlo twin filters under ``P``.  The jump-chain loop
  of the simulation layer dominates, next to the batched Wonham filter and
  the stability reductions that hold ``(paths, n+1, d)`` arrays.  The
  single-record kernels are bypassed.
* ``long_record`` -- one long record (T=1000, dt=0.01, 1e5 steps) filtered
  and smoothed.  Per-step Python loops in ``filters``/``smoothing`` and CSV
  formatting and writing dominate; simulation is about 2%.  The Monte-Carlo
  batch path is bypassed.
* ``dual_ode`` -- the dual-control side: the Zakai-operator gramian, the
  controllable-subspace analysis, the Riccati/dual-LQ ODEs and the
  minimum-energy trajectory.  Simulation only draws reference-measure noise
  here.  ``gramian counter_example`` keeps its CLI defaults and fails its
  own rank check at them (the 10x-stderr rank heuristic returns too small a
  rank), so this workload counts one failed operation per pass; that
  failure is a known defect of the program and is kept visible on purpose.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# Fixed d=3, m=2 stable linear-Gaussian model (dX = A^T X dt + sigma dB).
LG_MODEL = {
    "a_mat": [[-1.0, 0.3, 0.0], [-0.2, -0.8, 0.1], [0.0, -0.1, -1.2]],
    "h_mat": [[1.0, 0.0], [0.0, 0.5], [0.3, 1.0]],
    "sigma": [[0.5, 0.0, 0.0], [0.0, 0.4, 0.0], [0.0, 0.0, 0.3]],
    "mean0": [0.0, 0.0, 0.0],
    "cov0": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
}
LG_HORIZON, LG_DT = 2.0, 1e-3


@dataclass(frozen=True)
class Verdict:
    """Outcome of one operation: passed or not, and digests of its outputs."""

    passed: bool
    digests: dict[str, str]
    error: str | None = None


@dataclass(frozen=True)
class Op:
    """One operation.  ``fields`` configure a ``cli.run`` call; ``call``
    instead runs a library operation and returns its verdict."""

    name: str
    fields: dict = field(default_factory=dict)
    call: Callable[[], Verdict] | None = None

    def run(self, out: Path) -> int | Verdict:
        """Execute the operation; a CLI op returns its exit code."""
        if self.call is not None:
            return self.call()
        from dualfilter import cli
        return cli.run(cli.ExperimentConfig(out=str(out), **self.fields))

    def verdict(self, result: int | Verdict, out: Path) -> Verdict:
        """Judge a finished operation from its exit code and ``summary.json``."""
        if isinstance(result, Verdict):
            return result
        digests = {p.name: sha256(p.read_bytes()) for p in sorted(out.glob("*.csv"))}
        summary = out / "summary.json"
        if not summary.is_file():
            return Verdict(False, digests, "no summary.json")
        doc = json.loads(summary.read_text())
        # computed values only: other summary blocks may carry run-dependent data
        digests["summary.values"] = sha256(json.dumps(doc.get("values"), sort_keys=True).encode())
        if result != 0 or doc.get("all_passed") is not True:
            failed = [c["name"] for c in doc.get("checks", []) if not c.get("passed")]
            return Verdict(False, digests, doc.get("error") or f"exit {result}, failed checks {failed}")
        return Verdict(True, digests)

    def build_model(self):
        """The model this operation runs on, built the way a CLI call builds it."""
        from dualfilter import cli
        from dualfilter.models import model_from_dict
        if self.call is not None:
            return model_from_dict(LG_MODEL)
        return cli.ExperimentConfig(**self.fields).resolve_model()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _min_energy(seed: int, scale: float) -> Callable[[], Verdict]:
    """``minimum_energy_trajectory`` and ``min_energy_cost`` on the seeded
    record of ``LG_MODEL``; checks the optimal cost against the prediction
    error integral it must equal."""

    def call() -> Verdict:
        import numpy as np
        from dualfilter.models import model_from_dict
        from dualfilter.sim import simulate_linear_gaussian
        from dualfilter.smoothing import (min_energy_cost, minimum_energy_trajectory,
                                          prediction_error_integral)
        model = model_from_dict(LG_MODEL)
        _, obs = simulate_linear_gaussian(model, LG_HORIZON * scale, LG_DT, seed)
        traj = minimum_energy_trajectory(model, obs)
        cost = min_energy_cost(model, traj, obs=obs)
        target = prediction_error_integral(model, traj, obs)
        gap = abs(cost - target)
        digest = sha256(traj.states.tobytes() + traj.controls.tobytes() + repr(cost).encode())
        ok = bool(np.isfinite(cost)) and gap <= 1e-6 * max(1.0, abs(target))
        return Verdict(ok, {"min_energy": digest}, None if ok else f"cost gap {gap:g}")

    return call


def operations(workload: str, seed: int, scale: float = 1.0) -> list[Op]:
    """The operations of one pass of ``workload``.

    ``scale`` < 1 shrinks horizons and path counts for the benchmark's own
    tests; measurements always use 1.
    """
    def paths(n: int) -> int:
        return max(4, round(n * scale))

    if workload == "twin_mc":
        return [
            Op("stability doeblin_demo", {"experiment": "stability", "model": "doeblin_demo",
                                          "horizon": 5.0 * scale, "dt": 1e-2,
                                          "n_paths": paths(2000), "seed": seed}),
            Op("detect-classes two_class_demo", {"experiment": "detect-classes",
                                                 "model": "two_class_demo",
                                                 "horizon": 30.0 * scale, "dt": 1e-2,
                                                 "n_paths": paths(500), "seed": seed}),
        ]
    if workload == "long_record":
        return [Op(f"{exp} doeblin_demo", {"experiment": exp, "model": "doeblin_demo",
                                           "horizon": 1000.0 * scale, "dt": 1e-2, "seed": seed})
                for exp in ("filter", "smooth")]
    if workload == "dual_ode":
        return [
            Op("gramian counter_example", {"experiment": "gramian", "model": "counter_example",
                                           "horizon": 5.0 * scale, "dt": 5e-3,
                                           "n_paths": paths(2000), "seed": seed}),
            Op("analyze counter_example", {"experiment": "analyze", "model": "counter_example",
                                           "seed": seed}),
            *(Op(f"{exp} lg3", {"experiment": exp, "model": LG_MODEL,
                                "horizon": LG_HORIZON * scale, "dt": LG_DT, "seed": seed})
              for exp in ("kalman", "smooth")),
            Op("min_energy lg3", call=_min_energy(seed, scale)),
        ]
    raise KeyError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


WORKLOADS = ("twin_mc", "long_record", "dual_ode")
