"""Tests of the benchmark itself: its output gate, span recorder and metric
catalogue. Run with `python -m pytest perfbench` from the repository root."""

import json
import shutil
import subprocess
import sys

import pytest

import catalog
import spans
from run import run_in_process, tail_percentile
from workloads import ROOT, WORKLOADS, Op, Outcome, check, run_commands

import tfsqueeze
from tfsqueeze import cli, io_export
from tfsqueeze.io_export import export_grid_csv, import_grid_csv


def _roundtrip(tmp_path, run):
    workload = WORKLOADS["roundtrip-crossover"]
    values = {"seed": "3", "gen": str(tmp_path / "gen"), "out": str(tmp_path / "it")}
    setup = run_commands(workload.setup, run_in_process, values, workload)
    assert [op.problems for op in setup] == [[]]
    return run_commands(workload.iteration, run, values, workload)


def test_roundtrip_passes_gate(tmp_path):
    ops = _roundtrip(tmp_path, run_in_process)
    assert [op.problems for op in ops] == [[], []]


def test_one_perturbed_grid_cell_is_a_failure(tmp_path):
    def perturbing(argv):
        if argv[0] == "reconstruct":
            grid = import_grid_csv(argv[1])
            data = grid.data.copy()
            data[grid.n_frames // 2, 0] += 1e-6 * abs(data).max()
            export_grid_csv(grid.with_data(data), argv[1])
        return run_in_process(argv)

    ops = _roundtrip(tmp_path, perturbing)
    assert [op.failed for op in ops] == [False, True]
    assert "recon_rel_l2" in ops[1].problems[0]


def _compare_outputs(tmp_path, report):
    out = tmp_path / "cmp"
    out.mkdir()
    (out / "report.json").write_text(json.dumps(report))
    for entry in report:
        (out / f"heatmap_{entry['method_tag']}.pgm").write_bytes(b"P5\n8192 512\n255\n")
    return out


GOOD_REPORT = [
    {"method_tag": "sst", "renyi_entropy_bits": 12.9, "recon_rel_l2": 2e-16,
     "framesum_max_dev": 7e-16},
    {"method_tag": "rm", "renyi_entropy_bits": 13.0, "recon_rel_l2": None,
     "framesum_max_dev": 47.3},
    {"method_tag": "proposed", "renyi_entropy_bits": 13.01, "recon_rel_l2": 0.046,
     "framesum_max_dev": 3e-16},
    {"method_tag": "lmsst", "renyi_entropy_bits": 13.03, "recon_rel_l2": 1.6e-16,
     "framesum_max_dev": 7e-16},
    {"method_tag": "set", "renyi_entropy_bits": 13.04, "recon_rel_l2": 0.95,
     "framesum_max_dev": 0.95},
    {"method_tag": "stft", "renyi_entropy_bits": 17.2, "recon_rel_l2": 1e-16,
     "framesum_max_dev": 0.0},
]


def _check_compare(tmp_path, report, gamma="0.1"):
    out = _compare_outputs(tmp_path, report)
    argv = ["compare", "--input", "chirp", "--gamma", gamma, "--out", str(out)]
    return check(Op(argv, Outcome(0, "", "", 1.0)), WORKLOADS["compare-chirp"])


def _edit(index, **changes):
    report = [dict(entry) for entry in GOOD_REPORT]
    report[index].update(changes)
    return report


def test_compare_gate_accepts_good_report(tmp_path):
    assert _check_compare(tmp_path, GOOD_REPORT) == []


@pytest.mark.parametrize("report, gamma", [
    (GOOD_REPORT[::-1], "0.1"),                              # not sorted
    (GOOD_REPORT[:-1], "0.1"),                               # a method missing
    (GOOD_REPORT, "0"),                                      # proposed lossy at gamma 0
    (_edit(0, recon_rel_l2=1e-9), "0.1"),                    # sst not exact
    (_edit(3, framesum_max_dev=1e-9), "0.1"),                # lmsst not conserving
    (_edit(1, recon_rel_l2=0.1), "0.1"),                     # rm reconstructed
    (_edit(4, recon_rel_l2=1e-16), "0.1"),                   # set not lossy
])
def test_compare_gate_trips(tmp_path, report, gamma):
    assert _check_compare(tmp_path, report, gamma)


def test_compare_gate_checks_heatmap_size(tmp_path):
    out = _compare_outputs(tmp_path, GOOD_REPORT)
    (out / "heatmap_sst.pgm").write_bytes(b"P5\n8192 511\n255\n")
    argv = ["compare", "--input", "chirp", "--out", str(out)]
    problems = check(Op(argv, Outcome(0, "", "", 1.0)), WORKLOADS["compare-chirp"])
    assert problems == ["heatmap_sst.pgm header ('P5', 8192, 511)"]


def test_nonzero_exit_and_stderr_are_failures():
    argv = ["compare", "--out", "nowhere"]
    assert check(Op(argv, Outcome(2, "", "", 1.0)), WORKLOADS["compare-chirp"])
    assert check(Op(argv, Outcome(0, "", "warning\n", 1.0)), WORKLOADS["compare-chirp"])


def _bindings():
    return {(name, attr): value
            for name, module in sys.modules.items() if name.startswith("tfsqueeze")
            for attr, value in vars(module).items()}


def test_recorder_wraps_rebound_names_and_restores_them(tmp_path):
    before = _bindings()
    original_export = io_export.export_grid_csv
    original_stft = tfsqueeze.tfr.stft
    recorder = spans.Recorder()
    with spans.installed(recorder):
        assert cli.export_grid_csv.__wrapped__ is original_export
        assert tfsqueeze.tfr.stft.__wrapped__ is original_stft
        # every binding of one function shares its wrapper
        assert tfsqueeze.baselines.stft is tfsqueeze.tfr.stft is tfsqueeze.stft
        assert tfsqueeze.baselines.frame_matrix is tfsqueeze.tfr.frame_matrix
        run_in_process(["compare", "--input", "fmam", "--out", str(tmp_path / "c")])
        outcome = run_in_process(["analyze", "--input", "fmam", "--gamma", "0",
                                  "--out", str(tmp_path / "a")])
    assert outcome.returncode == 0
    assert _bindings() == before

    names = {span.name for span in recorder.spans}
    assert {"cli.main", "io_export.export_grid_csv", "baselines.sst",
            "tfr.frame_matrix", "squeeze.modular_reassign"} <= names
    # value, derivative and time-weighted taps: three distinct framings
    assert len(set(recorder.frame_keys)) == 3
    metrics = spans.layer_metrics(recorder, outcome.wall_s)
    assert 0.0 < metrics["io_export.nonzero_cell_frac"] < 1.0
    assert metrics["ridges.ridges_per_frame"] > 0.0
    assert metrics["baselines.phase_if_map_calls"] >= 3
    reported = set(metrics) | {"trace.overhead_frac", "cli.import_s"}
    assert reported == {m.name for m in catalog.PER_LAYER}


def test_self_time_subtracts_direct_children():
    tree = [
        spans.Span(0, None, "cli.main", 0.0, 10.0, "op"),
        spans.Span(1, 0, "tfr.stft", 1.0, 4.0, "op"),
        spans.Span(2, 1, "tfr.frame_matrix", 1.5, 3.5, "op"),
        spans.Span(3, 0, "metrics.renyi_entropy", 5.0, 8.0, "op"),
    ]
    assert spans.self_times(tree) == {0: 4.0, 1: 1.0, 2: 2.0, 3: 3.0}


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile([1.0] * 99) is None
    assert tail_percentile([float(i) for i in range(100)]) == (90.0, 89.0)
    assert tail_percentile([float(i) for i in range(1000)])[0] == 99.0


def test_catalogue_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {w.name: w.why for w in WORKLOADS.values()}
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": "lower", "bound": m.bound}
        for m in catalog.END_TO_END]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in catalog.PER_LAYER]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compare-chirp",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
