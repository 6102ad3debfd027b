"""Span recorder for the traced run, kept in the benchmark's own files.

The package itself carries no instrumentation. `installed()` wraps every
public function of each layer module in place, including the names other
modules re-bound with `from ... import` (`cli.export_grid_csv`,
`baselines.stft`, `baselines.frame_matrix`, the package's re-exports), and
restores every original on exit so that timed runs stay untraced.

A span is one wrapped call: name, start, end, the span it was called from,
and the operation it belongs to. Counts that need a call's arguments or
result (ridges per frame, distinct framings, bytes written) are taken from
outside the program, at the same boundary, after the span has ended.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import itertools
import os
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from time import perf_counter

import numpy as np

PACKAGE = "tfsqueeze"
# the package's modules, one layer each (errors holds only exception types)
LAYERS = ("cli", "signals", "windows", "tfr", "ridges", "squeeze", "baselines",
          "metrics", "io_export")


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str  # <layer>.<function>
    start: float
    end: float
    op: str  # the operation (one CLI command) the span belongs to

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Keeps spans and counters in memory until the run writes them out."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.frame_keys: list[str] = []
        self.op = ""
        self._ids = itertools.count()
        self._stack: list[int] = []

    def wrap(self, fn, name: str):
        observe = OBSERVERS.get(name)
        signature = inspect.signature(fn) if observe else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(self._ids)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans.append(Span(span_id, parent, name, start, end, self.op))
            if observe:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                observe(self, bound.arguments, result)
            return result

        return traced


def layer_functions() -> dict[str, object]:
    """Every public function defined in a layer module, by `<layer>.<name>`."""
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not name.startswith("_")):
                found[f"{layer}.{name}"] = obj
    return found


@contextmanager
def installed(recorder: Recorder):
    """Route every binding of every layer function through the recorder."""
    originals = layer_functions()
    wrappers = {id(fn): recorder.wrap(fn, name) for name, fn in originals.items()}
    patched = []
    try:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    patched.append((module, attr, value))
                    setattr(module, attr, wrapper)
        yield recorder
    finally:
        for module, attr, value in patched:
            setattr(module, attr, value)


# ---- counts taken at the layer boundary, from arguments and results ----

def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _observe_frame_matrix(rec, a, result):
    key = hashlib.blake2b(digest_size=16)
    key.update(np.ascontiguousarray(a["sig"].samples).tobytes())
    key.update(np.ascontiguousarray(a["weights"]).tobytes())
    key.update(str(a["nfft"]).encode())
    rec.frame_keys.append(key.hexdigest())


def _observe_grid_write(rec, a, result):
    data = a["grid"].data
    rec.counts["grid_cells_written"] += data.size
    rec.counts["grid_nonzero_written"] += int(np.count_nonzero(data))
    rec.counts["bytes_written"] += _file_size(a["path"])


def _observe_write(rec, a, result):
    rec.counts["bytes_written"] += _file_size(a["path"])


def _observe_grid_read(rec, a, result):
    rec.counts["bytes_read"] += _file_size(a["path"])


def _observe_squeeze(rec, a, result):
    # the gamma-filtered grid and the estimate (detected or injected ridges)
    # that the squeeze consumed
    rec.counts["gamma_cells_filtered"] += a["grid"].data.size
    rec.counts["gamma_cells_kept"] += int(np.count_nonzero(a["grid"].data))
    ridges = a["ifest"].counts()
    rec.counts["squeeze_frames"] += ridges.size
    rec.counts["squeeze_ridges"] += int(ridges.sum())
    rec.counts["squeeze_ridgeless_frames"] += int(np.count_nonzero(ridges == 0))


OBSERVERS = {
    "tfr.frame_matrix": _observe_frame_matrix,
    "io_export.export_grid_csv": _observe_grid_write,
    "io_export.export_heatmap_pgm": _observe_write,
    "io_export.export_report_json": _observe_write,
    "io_export.import_grid_csv": _observe_grid_read,
    "squeeze.modular_reassign": _observe_squeeze,
}


# ---- per-layer metrics of one traced iteration ----

def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the time its direct children cover. Calls are
    synchronous, so children never overlap one another."""
    covered = Counter()
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return {span.id: span.duration - covered[span.id] for span in spans}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder, traced_wall_s: float) -> dict[str, float]:
    """Every per-layer metric of one traced iteration, by name."""
    own = self_times(rec.spans)
    inclusive = Counter()
    calls = Counter()
    layer_self = Counter()
    layer_calls = Counter()
    for span in rec.spans:
        inclusive[span.name] += span.duration
        calls[span.name] += 1
        layer_self[span.layer] += own[span.id]
        layer_calls[span.layer] += 1
    c = rec.counts
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = layer_calls[layer]
        out[f"{layer}.self_s"] = layer_self[layer]
    out.update({
        "io_export.grid_write_s": inclusive["io_export.export_grid_csv"],
        "io_export.grid_read_s": inclusive["io_export.import_grid_csv"],
        "io_export.heatmap_s": inclusive["io_export.export_heatmap_pgm"],
        "io_export.bytes_written": c["bytes_written"],
        "io_export.bytes_read": c["bytes_read"],
        "io_export.nonzero_cell_frac": _ratio(c["grid_nonzero_written"],
                                              c["grid_cells_written"]),
        "ridges.estimate_calls": calls["ridges.estimate_ridges"],
        "ridges.ridges_per_frame": _ratio(c["squeeze_ridges"], c["squeeze_frames"]),
        "ridges.ridgeless_frame_frac": _ratio(c["squeeze_ridgeless_frames"],
                                              c["squeeze_frames"]),
        "ridges.gamma_kept_frac": _ratio(c["gamma_cells_kept"],
                                         c["gamma_cells_filtered"]),
        "baselines.sst_s": inclusive["baselines.sst"],
        "baselines.rm_s": inclusive["baselines.reassignment"],
        "baselines.set_s": inclusive["baselines.set_extract"],
        "baselines.lmsst_s": inclusive["baselines.lmsst"],
        "baselines.phase_if_map_calls": calls["baselines.phase_if_map"],
        "tfr.frame_matrix_calls": len(rec.frame_keys),
        "tfr.frame_matrix_distinct_frac": _ratio(len(set(rec.frame_keys)),
                                                 len(rec.frame_keys)),
        "metrics.renyi_s": inclusive["metrics.renyi_entropy"],
        "trace.coverage_frac": _ratio(sum(layer_self.values()), traced_wall_s),
    })
    return out


def spans_as_dicts(spans: list[Span]) -> list[dict]:
    own = self_times(spans)
    return [dict(asdict(s), self_s=own[s.id]) for s in spans]
