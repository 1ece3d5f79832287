"""Span tracing of the ``dualfilter`` layers from outside the package.

:func:`instrument` replaces, at every import site, each public function of
each layer module with a wrapper that records a span: name, layer, start,
end, parent span and pass id.  Spans stay in memory in a :class:`Tracer`;
:func:`layer_metrics` reduces one pass of them to per-layer self time,
call counts and work counters.  A layer's self time is its span time minus
the time covered by its child spans.  Spans come from one thread, so child
spans never overlap and their durations add.

Names are found by introspection, so a function that a later version
removes simply records no calls.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import pathlib
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# module -> layer; the catalog only builds models, so it counts as ``models``
LAYERS = {
    "dualfilter.cli": "cli",
    "dualfilter.models": "models",
    "dualfilter.catalog": "models",
    "dualfilter.sim": "sim",
    "dualfilter.filters": "filters",
    "dualfilter.smoothing": "smoothing",
    "dualfilter.duality": "duality",
    "dualfilter.stability": "stability",
    "dualfilter._linalg": "linalg",
}
# artifact formatting (``*_csv`` functions, ``.csv()`` methods) and writing
FORMAT, WRITE = "cli.format", "cli.write"
# wrapped by name rather than by introspection: scipy's expm where the
# package imports it, to count the misses of ``cached_expm``
NAMED = [("dualfilter._linalg", "expm", "linalg", "scipy.linalg.expm")]
# layers whose entry spans record a tracemalloc peak in memory passes
MEMORY_LAYERS = frozenset({"duality", "stability"})
MB = 1e6

NAME, LAYER, START, END, PARENT, PASS = range(6)


class Tracer:
    """In-memory span store.  Each span is ``[name, layer, start, end,
    parent index or -1, pass id]``; counters of a span whose parent lies in
    another layer (a layer entry) go to ``counters[index]``."""

    def __init__(self, pass_id: int = 0, memory: bool = False):
        self.spans: list[list] = []
        self.counters: dict[int, dict[str, float]] = {}
        self.pass_id = pass_id
        self.memory = memory      # record tracemalloc peaks at MEMORY_LAYERS entries
        self._stack: list[int] = []

    def wrap(self, fn, layer: str, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            entry = parent < 0 or tracer.spans[parent][LAYER] != layer
            idx = len(tracer.spans)
            span = [name, layer, 0.0, 0.0, parent, tracer.pass_id]
            tracer.spans.append(span)
            stack.append(idx)
            own_malloc = (entry and tracer.memory and layer in MEMORY_LAYERS
                          and not tracemalloc.is_tracing())
            if own_malloc:
                tracemalloc.start()
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
                if own_malloc:
                    tracer.counters.setdefault(idx, {})["peak_alloc"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if entry and layer in _COUNTERS:
                tracer.counters.setdefault(idx, {}).update(_COUNTERS[layer](args, kwargs, result))
            return result

        return traced


# -- work counters, taken at layer entries --------------------------------------

def _walk(obj, depth: int = 0):
    """Objects reachable from a result through tuples, lists and dataclasses."""
    yield obj
    if depth >= 3:
        return
    if isinstance(obj, (tuple, list)):
        children = obj
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        children = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    else:
        return
    for child in children:
        yield from _walk(child, depth + 1)


def _steps_in(args, kwargs) -> int:
    """Paths x grid steps of the observation input: an ``ObservationPath``
    (one path) or a stacked ``(paths, steps, m)`` increment array."""
    total = 0
    for a in (*args, *kwargs.values()):
        if isinstance(a, np.ndarray) and a.ndim == 3:
            total += a.shape[0] * a.shape[1]
        elif hasattr(a, "increments") and hasattr(a, "n_steps"):
            total += int(a.n_steps)
    return total


def _sim_counters(args, kwargs, result) -> dict:
    path_steps = jumps = 0
    for obj in _walk(result):
        if isinstance(obj, np.ndarray) and obj.ndim == 3:        # stacked increments
            path_steps += obj.shape[0] * obj.shape[1]
        elif hasattr(obj, "increments") and hasattr(obj, "n_steps"):
            path_steps += int(obj.n_steps)
        elif hasattr(obj, "jump_times"):
            jumps += len(obj.jump_times) - 1
    return {"path_steps": path_steps, "jumps": jumps}


def _filter_counters(args, kwargs, result) -> dict:
    out = sum(o.nbytes for o in _walk(result) if isinstance(o, np.ndarray))
    return {"steps": _steps_in(args, kwargs), "out_bytes": out}


def _smoothing_counters(args, kwargs, result) -> dict:
    return {"steps": _steps_in(args, kwargs)}


def _write_counters(args, kwargs, result) -> dict:
    return {"bytes": pathlib.Path(args[0]).stat().st_size}


_COUNTERS = {"sim": _sim_counters, "filters": _filter_counters, "smoothing": _smoothing_counters,
             WRITE: _write_counters}


# -- instrumentation ------------------------------------------------------------

def _targets(layers: dict[str, str], named: list[tuple[str, str, str, str]]):
    """``(original, layer, span name)`` for every function to wrap, plus
    ``(class, original csv method)`` pairs."""
    funcs, methods = [], []
    for mod_name, layer in layers.items():
        try:
            mod = importlib.import_module(mod_name)
        except ModuleNotFoundError:
            continue
        short = mod_name.rsplit(".", 1)[-1]
        for attr, obj in vars(mod).items():
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ == mod_name:
                fmt = attr.endswith("_csv")
                funcs.append((obj, FORMAT if fmt else layer, f"{short}.{attr}"))
            elif inspect.isclass(obj) and obj.__module__ == mod_name and inspect.isfunction(vars(obj).get("csv")):
                methods.append((obj, vars(obj)["csv"], f"{obj.__name__}.csv"))
    for mod_name, attr, layer, span_name in named:
        obj = getattr(sys.modules.get(mod_name), attr, None)
        if callable(obj):
            funcs.append((obj, layer, span_name))
    return funcs, methods


@contextmanager
def instrument(tracer: Tracer, package: str = "dualfilter", layers: dict[str, str] = LAYERS,
               named: list[tuple[str, str, str, str]] = NAMED):
    """Wrap the layers' public functions in every module of ``package`` that
    holds them, and ``Path.write_text``; restore everything on exit."""
    funcs, methods = _targets(layers, named)
    # ``funcs`` keeps every original alive, so its id identifies it
    wrappers = {id(fn): tracer.wrap(fn, layer, name) for fn, layer, name in funcs}
    patched = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrappers:
                patched.append((mod, attr, obj))
                setattr(mod, attr, wrappers[id(obj)])
    for cls, fn, name in methods:
        patched.append((cls, "csv", fn))
        setattr(cls, "csv", tracer.wrap(fn, FORMAT, name))
    write_text = pathlib.Path.write_text
    pathlib.Path.write_text = tracer.wrap(write_text, WRITE, "Path.write_text")
    try:
        yield tracer
    finally:
        pathlib.Path.write_text = write_text
        for owner, attr, obj in reversed(patched):
            setattr(owner, attr, obj)


# -- reduction --------------------------------------------------------------------

def self_times(spans: list[list]) -> list[float]:
    """Self time of each span: its duration minus its children's durations."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


PER_LAYER = ("sim", "filters", "smoothing", "duality", "stability", "models", "cli")


def layer_metrics(spans: list[list], counters: dict[int, dict[str, float]]) -> dict[str, float]:
    """Per-layer metrics of one traced pass; every key is always present."""
    own = self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    by_name: dict[str, int] = defaultdict(int)
    for s, t in zip(spans, own):
        self_s[s[LAYER]] += t
        calls[s[LAYER]] += 1
        by_name[s[NAME]] += 1
    count: dict[tuple[str, str], float] = defaultdict(float)
    peak: dict[str, float] = defaultdict(float)
    for idx, c in counters.items():
        layer = spans[idx][LAYER]
        for key, val in c.items():
            if key == "peak_alloc":
                peak[layer] = max(peak[layer], val)
            else:
                count[layer, key] += val
    cached = by_name["_linalg.cached_expm"]
    misses = sum(1 for s in spans
                 if s[NAME] == "scipy.linalg.expm" and s[PARENT] >= 0
                 and spans[s[PARENT]][NAME] == "_linalg.cached_expm")
    m: dict[str, float] = {}
    for layer in PER_LAYER:
        m[f"{layer}.self_s"] = self_s[layer]
        m[f"{layer}.calls"] = calls[layer]
    m["sim.path_steps"] = count["sim", "path_steps"]
    m["sim.jumps"] = count["sim", "jumps"]
    m["filters.steps"] = count["filters", "steps"]
    m["filters.out_mb"] = count["filters", "out_bytes"] / MB
    m["smoothing.steps"] = count["smoothing", "steps"]
    for layer in sorted(MEMORY_LAYERS):
        m[f"{layer}.peak_alloc_mb"] = peak[layer] / MB
    m["linalg.self_s"] = self_s["linalg"]
    m["linalg.cached_expm_calls"] = cached
    m["linalg.expm_calls"] = by_name["scipy.linalg.expm"]
    m["linalg.expm_hit_ratio"] = (cached - misses) / cached if cached else 0.0
    m["cli.format_s"] = self_s[FORMAT]
    m["cli.write_s"] = self_s[WRITE]
    m["cli.bytes_written"] = count[WRITE, "bytes"]
    m["trace.spans_per_pass"] = len(spans)
    return m
