"""Every metric the benchmark reports, with its unit, and for each per-layer
metric the end-to-end metric and workload it is predicted to move.

BENCHMARK.json at the repository root lists the same names, units and
bounds; test_perfbench checks that the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass

RT, CMP = "roundtrip-crossover", "compare-chirp"


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    bound: float  # share of the parent's median a change may worsen it by
    what: str


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    moves: str  # the end-to-end metric and workload it should move


END_TO_END = (
    EndToEnd("wall_s", "s", 0.25,
             "median wall seconds of one iteration, fresh interpreter per command"),
    EndToEnd("peak_rss_mib", "MiB", 0.05,
             "median over iterations of the largest child ru_maxrss"),
    EndToEnd("artifact_mib", "MiB", 0.05,
             "bytes an iteration's commands wrote to their output directories"),
    EndToEnd("setup_s", "s", 0.25,
             "median of the set-up's generate rounds plus the warm-up iteration"),
)


# where each layer's self time should show
_SELF_MOVES = {
    "cli": f"wall_s on {RT}, the workload with the most commands",
    "signals": "setup_s (signal generation and CSV) and wall_s on every workload",
    "windows": "none: window sampling is microseconds",
    "tfr": f"wall_s and peak_rss_mib on {CMP}",
    "ridges": f"wall_s on {CMP} (about 13 %) and {RT}",
    "squeeze": f"a small share of wall_s on {RT} and {CMP}",
    "baselines": f"wall_s and peak_rss_mib on {CMP}; absent elsewhere",
    "metrics": f"wall_s on {CMP}",
    "io_export": f"wall_s and artifact_mib on {RT}",
}


def _layer_generic() -> tuple[PerLayer, ...]:
    out = []
    for layer, moves in _SELF_MOVES.items():
        out.append(PerLayer(f"{layer}.calls", "count", "lower",
                            "none by itself; a count that moves names the change"))
        out.append(PerLayer(f"{layer}.self_s", "s", "lower", moves))
    return tuple(out)


_SPECIFIC = (
    PerLayer("cli.import_s", "s", "lower",
             f"wall_s on every workload, paid per command; largest share on {RT}"),
    PerLayer("io_export.grid_write_s", "s", "lower", f"wall_s on {RT}"),
    PerLayer("io_export.grid_read_s", "s", "lower", f"wall_s on {RT}"),
    PerLayer("io_export.heatmap_s", "s", "lower", f"wall_s on {CMP}"),
    PerLayer("io_export.bytes_written", "bytes", "lower", f"artifact_mib on {RT}"),
    PerLayer("io_export.bytes_read", "bytes", "lower", f"wall_s on {RT}"),
    PerLayer("io_export.nonzero_cell_frac", "frac", "higher",
             f"artifact_mib on {RT}: 1.0 means no zero cell is written"),
    PerLayer("ridges.estimate_calls", "count", "lower", f"wall_s on {CMP}"),
    PerLayer("ridges.ridges_per_frame", "1/frame", "lower",
             "none: a property of the input; ridges.self_s grows with it"),
    PerLayer("ridges.ridgeless_frame_frac", "frac", "lower",
             "none: a property of the input"),
    PerLayer("ridges.gamma_kept_frac", "frac", "lower",
             "none: a property of the input and gamma"),
    PerLayer("baselines.sst_s", "s", "lower", f"wall_s and peak_rss_mib on {CMP}"),
    PerLayer("baselines.rm_s", "s", "lower", f"wall_s and peak_rss_mib on {CMP}"),
    PerLayer("baselines.set_s", "s", "lower", f"wall_s and peak_rss_mib on {CMP}"),
    PerLayer("baselines.lmsst_s", "s", "lower", f"wall_s and peak_rss_mib on {CMP}"),
    PerLayer("baselines.phase_if_map_calls", "count", "lower",
             f"wall_s and peak_rss_mib on {CMP}"),
    PerLayer("tfr.frame_matrix_calls", "count", "lower",
             f"wall_s on {CMP}; peak_rss_mib everywhere"),
    PerLayer("tfr.frame_matrix_distinct_frac", "frac", "higher",
             f"wall_s and peak_rss_mib on {CMP}"),
    PerLayer("metrics.renyi_s", "s", "lower", f"wall_s on {CMP}"),
    PerLayer("trace.coverage_frac", "frac", "higher",
             "none: layer self time over traced wall time, at least 0.95"),
    PerLayer("trace.overhead_frac", "frac", "lower",
             "none: traced over untraced in-process wall time, minus one"),
)

PER_LAYER = _layer_generic() + _SPECIFIC
