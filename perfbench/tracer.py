"""Outside-in span recorder for the rankcp layers.

The package has no tracing of its own, so the traced run wraps the public
functions listed in :data:`LAYERS` and rebinds every name under which the
package's modules look them up (``predict_sets`` and ``fcp_calibration``, for
example, are imported by name into both ``cli`` and ``evaluate``).  Nothing
under ``src/`` changes.

A span's self time is its duration minus the part covered by its child spans.
Spans are recorded in a single thread: the benchmark runs with one worker, so
``run_chunks`` calls its chunks inline and spans nest strictly.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc

# Layer (package module) -> public functions timed in it.  ``streams`` is
# measured through its callers and ``errors`` does no work.
LAYERS = {
    "envelope": ("simulate_sorted_ranks", "fit_quantile_envelope"),
    "conformal": ("fcp_calibration", "predict_sets", "proxy_scores", "calibrate"),
    "targets": ("test_only_set", "topk_candidates"),
    "io": (
        "read_scores", "read_envelope", "write_envelope", "write_sets",
        "read_sets", "read_truth", "RunManifest.write",
    ),
    "evaluate": (
        "run_experiment", "synthesize_problem", "oracle_sets", "fcp",
        "relative_length",
    ),
    "ranks": ("ranks_within",),
    "cli": ("main",),
}

# Array kernels whose allocation peak is measured with tracemalloc.
MEMORY_LAYERS = (
    "envelope.simulate_sorted_ranks",
    "envelope.fit_quantile_envelope",
    "conformal.fcp_calibration",
    "conformal.predict_sets",
)

LAYER_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in output order."""
    out = []
    for layer in LAYER_NAMES:
        out.append((f"{layer}.self_s", "s"))
        out.append((f"{layer}.calls", "count"))
        if layer in MEMORY_LAYERS:
            out.append((f"{layer}.peak_mb", "MB"))
    out.append(("trace_overhead_s", "s"))
    return out


class Tracer:
    """Aggregates spans per layer: call count, self time and allocation peak.

    Allocation peaks are measured only while ``memory`` is set: tracemalloc
    slows every allocation made under it, so a pass that measures memory
    would inflate the self times of the kernels it wraps.
    """

    def __init__(self):
        self.memory = False
        self.calls = dict.fromkeys(LAYER_NAMES, 0)
        self.self_s = dict.fromkeys(LAYER_NAMES, 0.0)
        self.peak_mb = dict.fromkeys(MEMORY_LAYERS, 0.0)
        self.first_s = {}  # duration of each layer's first call
        self._child_cover = []  # one accumulator per open span

    def wrap(self, layer: str, fn):
        measure_memory = layer in MEMORY_LAYERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracking = measure_memory and self.memory and not tracemalloc.is_tracing()
            if tracking:
                tracemalloc.start()
            self._child_cover.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                cover = self._child_cover.pop()
                if self._child_cover:
                    self._child_cover[-1] += duration
                self.calls[layer] += 1
                self.self_s[layer] += duration - cover
                self.first_s.setdefault(layer, duration)
                if tracking:
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    self.peak_mb[layer] = max(self.peak_mb[layer], peak)

        return traced

    def timings(self) -> dict:
        out = {}
        for layer in LAYER_NAMES:
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.calls"] = self.calls[layer]
        return out

    def peaks(self) -> dict:
        return {f"{layer}.peak_mb": self.peak_mb[layer] for layer in MEMORY_LAYERS}


def _package_modules() -> list:
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "rankcp" or name.startswith("rankcp."))
    ]


def install(tracer: Tracer) -> None:
    """Replace every listed function with its traced wrapper, at every import site.

    Raises ``RuntimeError`` if a package module still holds an unwrapped
    original afterwards, so no span is dropped silently.
    """
    import rankcp.cli  # noqa: F401  (loads every module that imports a layer)

    modules = _package_modules()
    for mod_name, functions in LAYERS.items():
        module = sys.modules[f"rankcp.{mod_name}"]
        for qualname in functions:
            layer = f"{mod_name}.{qualname}"
            if "." in qualname:
                cls_name, method = qualname.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, method, tracer.wrap(layer, cls.__dict__[method]))
                continue
            original = getattr(module, qualname)
            wrapper = tracer.wrap(layer, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
    missed = unwrapped_sites()
    if missed:
        raise RuntimeError(f"unwrapped import sites: {', '.join(missed)}")


def unwrapped_sites() -> list[str]:
    """Package-module names bound to a listed function that is not wrapped.

    Matched by ``__module__`` and ``__qualname__`` rather than identity, so a
    second copy of a function (a re-import, say) is caught too.
    """
    listed = {(f"rankcp.{mod}", fn) for mod, fns in LAYERS.items() for fn in fns}
    return [
        f"{mod.__name__}.{attr}"
        for mod in _package_modules()
        for attr, value in vars(mod).items()
        if callable(value)
        and (getattr(value, "__module__", None),
             getattr(value, "__qualname__", None)) in listed
        and not hasattr(value, "__wrapped__")
    ]
