import errno
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tfsqueeze as tq
from tfsqueeze import baselines, cli, signals, tfr, windows
from tfsqueeze.cli import METHODS, main

from conftest import rewrite_grid, write_wav


def tree(root):
    """Every entry under root, hidden ones too, by relative path: a file's
    bytes, or None for a directory."""
    return {p.relative_to(root).as_posix(): None if p.is_dir() else p.read_bytes()
            for p in root.rglob("*")}


def assert_no_stage(root):
    assert not list(root.rglob(".tfsqueeze-*"))


def read_pgm(path):
    blob = path.read_bytes()
    parts = blob.split(b"\n", 3)
    width, height = map(int, parts[1].split())
    pixels = np.frombuffer(parts[3], dtype=np.uint8)
    return pixels.reshape(height, width)


class TestGenerate:
    def test_fmam_signal_csv(self, tmp_path):
        assert main(["generate", "fmam", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "signal.csv").read_text().splitlines()
        assert "# fs=128" in lines[:2]
        data_rows = [ln for ln in lines if not ln.startswith("#")]
        assert len(data_rows) == 128

    def test_crossover_trajectories(self, tmp_path):
        assert main(["generate", "crossover", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "true_if.csv").read_text().splitlines()
        assert lines[0] == "time_s,f1_hz,f2_hz,f3_hz"
        assert len(lines) == 1 + 1024

    @pytest.mark.parametrize("generator, expected", [
        ("chirp", lambda: tq.gen_chirp_surrogate(30.0, 400.0, 3.0, 1024.0, 1.0)),
        ("tone", lambda: tq.gen_tone(32.0, 128.0, 1.0)),
    ])
    def test_default_options_match_the_generator(self, tmp_path, generator, expected):
        # argparse is the one home of the generators' run defaults
        assert main(["generate", generator, "--out", str(tmp_path / "cli")]) == 0
        sig, _ = expected()
        tq.save_signal_csv(sig, tmp_path / "lib.csv")
        assert ((tmp_path / "cli" / "signal.csv").read_bytes()
                == (tmp_path / "lib.csv").read_bytes())

    def test_nyquist_violation_exits_2(self, tmp_path, capsys):
        rc = main(["generate", "tone", "--f0", "600", "--fs", "1000",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_noisy_generation_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["generate", "chirp", "--snr-db", "10", "--seed", "5",
                         "--out", str(out)]) == 0
        assert (a / "signal.csv").read_bytes() == (b / "signal.csv").read_bytes()


class TestAnalyze:
    def test_proposed_writes_four_files_and_conserves(self, tmp_path):
        rc = main(["analyze", "--method", "proposed", "--input", "fmam",
                   "--out", str(tmp_path)])
        assert rc == 0
        for name in ("grid.npz", "heatmap.pgm", "report.json", "ridges.csv"):
            assert (tmp_path / name).exists(), name
        report = json.loads((tmp_path / "report.json").read_text())[0]
        assert report["method_tag"] == "proposed"
        assert report["framesum_max_dev"] <= 1e-12

    def test_rm_reconstruct_exits_4(self, tmp_path, capsys):
        rc = main(["analyze", "--method", "rm", "--input", "fmam",
                   "--reconstruct", "--out", str(tmp_path)])
        assert rc == 4
        assert "non-invertible" in capsys.readouterr().err

    def test_stft_tone_heatmap_brightest_row(self, tmp_path):
        rc = main(["analyze", "--method", "stft", "--input", "tone",
                   "--f0", "32", "--fs", "128", "--out", str(tmp_path)])
        assert rc == 0
        image = read_pgm(tmp_path / "heatmap.pgm")
        brightest = int(np.argmax(image.sum(axis=1)))
        assert brightest == (image.shape[0] - 1) - 32

    def test_unknown_method_exits_2(self, tmp_path):
        assert main(["analyze", "--method", "bogus", "--out", str(tmp_path)]) == 2

    def test_nfft_too_small_exits_2(self, tmp_path, capsys):
        rc = main(["analyze", "--method", "stft", "--input", "fmam",
                   "--nfft", "16", "--out", str(tmp_path)])
        assert rc == 2
        assert "nfft" in capsys.readouterr().err

    def test_default_nfft_covers_the_window(self, tmp_path, capsys):
        # 10 samples at 1024 Hz under the default 245-tap window: the default
        # DFT size is 256, where covering the signal alone gave 16
        rc = main(["analyze", "--input", "chirp", "--dur", "0.01", "--gamma", "0",
                   "--reconstruct", "--out", str(tmp_path)])
        assert rc == 0
        assert float(capsys.readouterr().out.split("=")[1]) <= 1e-10
        assert tq.import_grid_csv(tmp_path / "grid.npz").n_bins == 256

    def test_oversized_grid_exits_2(self, tmp_path, capsys):
        # 8 Msample tone x 4096-bin default grid would need half a terabyte
        rc = main(["analyze", "--method", "stft", "--input", "tone",
                   "--fs", "8192", "--dur", "1000", "--out", str(tmp_path)])
        assert rc == 2
        assert "budget" in capsys.readouterr().err

    def test_injected_oracle_ifs_on_crossover(self, tmp_path):
        gen_dir = tmp_path / "gen"
        assert main(["generate", "crossover", "--out", str(gen_dir)]) == 0
        out_dir = tmp_path / "run"
        rc = main(["analyze", "--method", "proposed", "--input", "crossover",
                   "--gamma", "0", "--if-from", str(gen_dir / "true_if.csv"),
                   "--reconstruct", "--out", str(out_dir)])
        assert rc == 0
        report = json.loads((out_dir / "report.json").read_text())[0]
        assert report["recon_rel_l2"] <= 1e-10

    def test_injected_tracks_on_a_real_signal_keep_its_conjugate_half(self, tmp_path):
        # each track's mirror at -f takes the upper half's mass, so it is not
        # squeezed onto the top track; the mirrors are listed as ridges, so
        # feeding ridges.csv back gives the same grid
        gen, run, again = tmp_path / "gen", tmp_path / "run", tmp_path / "again"
        assert main(["generate", "fmam", "--out", str(gen)]) == 0
        for if_from, out in ((gen / "true_if.csv", run), (run / "ridges.csv", again)):
            assert main(["analyze", "--input", str(gen / "signal.csv"), "--if-from",
                         str(if_from), "--gamma", "0", "--reconstruct", "--out", str(out)]) == 0
        report = json.loads((run / "report.json").read_text())[0]
        assert report["recon_rel_l2"] <= 1e-10
        assert report["framesum_max_dev"] <= 1e-12
        magnitude = np.abs(tq.import_grid_csv(run / "grid.npz").data)
        upper = magnitude[:, (magnitude.shape[1] + 1) // 2:].sum() / magnitude.sum()
        assert 0.4 <= upper <= 0.6
        assert (again / "grid.npz").read_bytes() == (run / "grid.npz").read_bytes()
        assert (again / "ridges.csv").read_bytes() == (run / "ridges.csv").read_bytes()

    def test_injected_track_near_0_hz_on_a_wav_tone(self, tmp_path):
        # fs - 0.1 Hz lies off the axis; the mirror wraps to -0.1 Hz, bin 0
        t = np.arange(128) / 128.0
        write_wav(tmp_path / "tone.wav", (8000 * np.cos(2 * np.pi * 32 * t)).astype("<i2"),
                  fs=128)
        (tmp_path / "dc.csv").write_text("time_s,f1_hz\n0,0.1\n1,0.1\n")
        assert main(["analyze", "--input", str(tmp_path / "tone.wav"), "--if-from",
                     str(tmp_path / "dc.csv"), "--out", str(tmp_path / "run")]) == 0
        assert (tmp_path / "run" / "ridges.csv").read_text().splitlines()[1] == "0,0"

    def test_per_frame_max_flag(self, tmp_path):
        rc = main(["analyze", "--method", "proposed", "--input", "fmam",
                   "--per-frame-max", "--out", str(tmp_path)])
        assert rc == 0

    def test_analyze_csv_file_input(self, tmp_path):
        gen_dir = tmp_path / "gen"
        assert main(["generate", "fmam", "--out", str(gen_dir)]) == 0
        rc = main(["analyze", "--method", "sst",
                   "--input", str(gen_dir / "signal.csv"), "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "report.json").read_text())[0]
        assert report["ridge_mae_bins"] is None  # file input has no ground truth


class TestCompare:
    def test_all_six_methods_sorted_by_entropy(self, tmp_path):
        rc = main(["compare", "--input", "fmam", "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert len(report) == 6
        entropies = [r["renyi_entropy_bits"] for r in report]
        assert entropies == sorted(entropies)
        for r in report:
            assert (tmp_path / f"heatmap_{r['method_tag'].split('+')[0]}.pgm").exists()

    def test_single_method_rejected(self, tmp_path):
        assert main(["compare", "--methods", "stft", "--out", str(tmp_path)]) == 2

    def test_unknown_method_rejected(self, tmp_path):
        assert main(["compare", "--methods", "stft,nope", "--out", str(tmp_path)]) == 2

    def test_analyze_rows_match_compare(self, tmp_path):
        # both commands run and score a method through one code path
        args = ["--input", "fmam", "--snr-db", "20", "--seed", "3"]
        assert main(["compare", *args, "--out", str(tmp_path / "compare")]) == 0
        compared = json.loads((tmp_path / "compare" / "report.json").read_text())
        rows = {r["method_tag"]: r for r in compared}
        assert sorted(rows) == sorted(METHODS)
        for method in METHODS:
            out = tmp_path / method
            assert main(["analyze", "--method", method, *args, "--out", str(out)]) == 0
            assert json.loads((out / "report.json").read_text()) == [rows[method]]

    def test_injected_rows_match_compare(self, tmp_path):
        # both commands hand proposed the same admitted tracks: with mirrors on
        # the real fmam signal, without them on the complex crossover
        gen = tmp_path / "gen"
        assert main(["generate", "fmam", "--out", str(gen / "fmam")]) == 0
        assert main(["generate", "crossover", "--out", str(gen / "crossover")]) == 0
        for name, source in (("fmam", str(gen / "fmam" / "signal.csv")),
                             ("crossover", "crossover")):
            args = ["--input", source, "--gamma", "0",
                    "--if-from", str(gen / name / "true_if.csv")]
            compared, analyzed = tmp_path / name / "compare", tmp_path / name / "analyze"
            assert main(["compare", *args, "--methods", "stft,proposed",
                         "--out", str(compared)]) == 0
            assert main(["analyze", "--method", "proposed", *args, "--out", str(analyzed)]) == 0
            rows = [r for r in json.loads((compared / "report.json").read_text())
                    if r["method_tag"].startswith("proposed")]
            assert json.loads((analyzed / "report.json").read_text()) == rows
            assert len(rows) == 1 and rows[0]["recon_rel_l2"] <= 1e-10

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["compare", "--input", "fmam", "--snr-db", "20", "--seed", "3"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        files_a = sorted(p.name for p in a.iterdir())
        files_b = sorted(p.name for p in b.iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


def _count_calls(monkeypatch, bindings):
    """Count calls through each (module, name) binding, keyed by name."""
    counts = Counter()
    for module, name in bindings:
        def counted(*args, _original=getattr(module, name), _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return counts


# baselines binds stft and frame_matrix by name, so both bindings are counted
FRAMING = [(tfr, "stft"), (baselines, "stft"),
           (tfr, "frame_matrix"), (baselines, "frame_matrix")]


class TestOneStftPerCommand:
    def test_compare_computes_the_stft_once(self, tmp_path, monkeypatch):
        counts = _count_calls(monkeypatch, FRAMING)
        assert main(["compare", "--input", "fmam", "--out", str(tmp_path)]) == 0
        # one STFT, then one derivative-window framing for each of SST, RM and
        # SET, and RM's time-weighted framing
        assert counts == {"stft": 1, "frame_matrix": 5}

    def test_analyze_computes_the_stft_once(self, tmp_path, monkeypatch):
        stft_calls = []
        for method in ("stft", "sst", "rm", "set", "lmsst", "proposed"):
            counts = _count_calls(monkeypatch, FRAMING)
            assert main(["analyze", "--method", method, "--input", "fmam",
                         "--out", str(tmp_path / method)]) == 0
            stft_calls.append(counts["stft"])
            monkeypatch.undo()
        assert stft_calls == [1] * 6


class TestReconstruct:
    def test_roundtrip_prints_tiny_error(self, tmp_path, capsys):
        gen_dir = tmp_path / "gen"
        assert main(["generate", "fmam", "--out", str(gen_dir)]) == 0
        run_dir = tmp_path / "run"
        assert main(["analyze", "--method", "proposed", "--input", "fmam",
                     "--gamma", "0", "--out", str(run_dir)]) == 0
        rec_dir = tmp_path / "rec"
        rc = main(["reconstruct", str(run_dir / "grid.npz"),
                   "--reference", str(gen_dir / "signal.csv"),
                   "--out", str(rec_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "recon_rel_l2=" in out
        assert float(out.split("=")[1]) <= 1e-10
        assert (rec_dir / "recovered.csv").exists()

    def test_mode_track_writes_per_mode_files(self, tmp_path):
        gen_dir = tmp_path / "gen"
        assert main(["generate", "fmam", "--out", str(gen_dir)]) == 0
        run_dir = tmp_path / "run"
        assert main(["analyze", "--method", "proposed", "--input", "fmam",
                     "--gamma", "0", "--out", str(run_dir)]) == 0
        rec_dir = tmp_path / "rec"
        rc = main(["reconstruct", str(run_dir / "grid.npz"),
                   "--mode-track", str(gen_dir / "true_if.csv"),
                   "--gamma-band", "3", "--out", str(rec_dir)])
        assert rc == 0
        assert (rec_dir / "mode_1.csv").exists()
        assert (rec_dir / "mode_2.csv").exists()

    def test_rm_grid_exits_4(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(["analyze", "--method", "rm", "--input", "fmam",
                     "--out", str(run_dir)]) == 0
        rc = main(["reconstruct", str(run_dir / "grid.npz"),
                   "--out", str(tmp_path / "rec")])
        assert rc == 4
        assert "non-invertible" in capsys.readouterr().err

    def test_corrupt_grid_exits_3_with_position(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(["analyze", "--method", "stft", "--input", "fmam",
                     "--out", str(run_dir)]) == 0
        grid_path = run_dir / "grid.npz"
        # one bin fewer per frame puts the last stored cells past the end
        rewrite_grid(grid_path, grid_path, shape=np.array([128, 127]))
        rc = main(["reconstruct", str(grid_path), "--out", str(tmp_path / "rec")])
        assert rc == 3
        assert "grid.npz: idx must increase strictly within [0, 16256)" in (
            capsys.readouterr().err)

    def test_missing_file_exits_3(self, tmp_path, capsys):
        rc = main(["reconstruct", str(tmp_path / "nope.npz"),
                   "--out", str(tmp_path)])
        assert rc == 3


class TestDegenerateInputs:
    def test_two_bin_half_circle_has_no_ridge_mae(self, tmp_path):
        # nfft 3 leaves two bins below fs/2, too few for an interior ridge
        for command in ("analyze", "compare"):
            out = tmp_path / command
            rc = main([command, "--input", "fmam", "--nfft", "3", "--sigma", "1e-9",
                       "--out", str(out)])
            assert rc == 0
            reports = json.loads((out / "report.json").read_text())
            assert [r["ridge_mae_bins"] for r in reports] == [None] * len(reports)

    def test_one_bin_grid_runs_every_method(self, tmp_path):
        # one bin leaves a one-bin half circle, with no bin width to measure
        # in, and LMSST's default radius must stay inside the axis
        out = tmp_path / "out"
        assert main(["compare", "--input", "fmam", "--nfft", "1", "--sigma", "1e-9",
                     "--out", str(out)]) == 0
        reports = json.loads((out / "report.json").read_text())
        assert [r["ridge_mae_bins"] for r in reports] == [None] * 6

    def test_trackless_ridge_table_has_no_dangling_comma(self, tmp_path, capsys):
        # a 1e-9 s window gives a flat spectrum with no ridge in any frame
        out = tmp_path / "out"
        assert main(["analyze", "--method", "proposed", "--input", "tone",
                     "--sigma", "1e-9", "--out", str(out)]) == 0
        table = out / "ridges.csv"
        lines = table.read_text().splitlines()
        assert lines[0] == "time_s" and len(lines) == 129
        assert not [line for line in lines if line.endswith(",")]
        assert main(["analyze", "--method", "proposed", "--input", "tone",
                     "--if-from", str(table), "--out", str(tmp_path / "again")]) == 3
        assert "line 2: need time and >= 1 frequency" in capsys.readouterr().err

    def test_padded_ridge_table_is_refused_by_name(self, tmp_path, capsys):
        # the detected ridge count changes between frames, so most rows are padded
        out = tmp_path / "out"
        assert main(["analyze", "--input", "fmam", "--out", str(out)]) == 0
        table = out / "ridges.csv"
        lines = table.read_text().splitlines()
        assert sum("" in line.split(",") for line in lines) == 121 and len(lines) == 129
        assert main(["analyze", "--input", "fmam", "--if-from", str(table),
                     "--out", str(tmp_path / "again")]) == 3
        err = capsys.readouterr().err
        assert "line 2: empty cell in column" in err
        assert "every track needs a value at every time" in err
        assert not (tmp_path / "again").exists()

    def test_all_zero_input_writes_nothing(self, tmp_path, capsys):
        signal = tmp_path / "zero.csv"
        signal.write_text("# fs=128\n" + "0\n" * 64)
        for command in ("analyze", "compare"):
            out = tmp_path / command
            assert main([command, "--input", str(signal), "--out", str(out)]) == 2
            assert not out.exists() or not any(out.iterdir())
            assert "error" in capsys.readouterr().err


class TestNoPartialOutput:
    @pytest.mark.parametrize("argv, code, match", [
        (["analyze", "--method", "rm", "--input", "fmam", "--reconstruct"], 4,
         "non-invertible"),
        (["generate", "tone", "--f0", "600", "--fs", "1000"], 2, "f0_hz 600"),
        (["reconstruct", "{inputs}/garbage.npz"], 3, "garbage.npz: not a readable grid file"),
        # the first track is inside the axis, the second is not
        (["reconstruct", "{inputs}/grid.npz", "--mode-track", "{inputs}/tracks.csv"], 2,
         "mode track range"),
        # refused at admission, before the STFT and before any method runs
        (["compare", "--input", "fmam", "--methods", "stft,lmsst", "--delta-bins", "-1"], 2,
         "delta_bins"),
        # a non-finite cell is a file fault, refused when the file is read
        (["analyze", "--input", "fmam", "--if-from", "{inputs}/nan.csv"], 3,
         "nan.csv: line 2: column 2: frequency nan is not finite"),
        (["reconstruct", "{inputs}/grid.npz", "--mode-track", "{inputs}/nan.csv"], 3,
         "nan.csv: line 2: column 2: frequency nan is not finite"),
        # a non-finite time too, which would lose or flatten the track
        (["analyze", "--input", "fmam", "--if-from", "{inputs}/nan_time.csv"], 3,
         "nan_time.csv: line 3: time nan is not finite"),
        (["analyze", "--input", "fmam", "--if-from", "{inputs}/inf_time.csv"], 3,
         "inf_time.csv: line 3: time inf is not finite"),
        # bad numbers are refused where they are used; NaN fails every check
        (["analyze", "--input", "fmam", "--sigma", "nan"], 2, "sigma_s=nan"),
        (["analyze", "--input", "tone", "--dur", "nan"], 2, "duration_s=nan"),
        (["analyze", "--input", "tone", "--dur", "inf"], 2, "duration_s=inf"),
        (["analyze", "--input", "tone", "--fs", "inf"], 2, "fs_hz=inf"),
        # a signal file's header the signal refuses is a file fault
        (["analyze", "--input", "{inputs}/fs_inf.csv"], 3, "fs_inf.csv: sample_rate_hz"),
        (["analyze", "--input", "{inputs}/t0_inf.csv"], 3, "t0_inf.csv: t0_s=inf"),
        (["analyze", "--input", "{inputs}/t0_nan.csv"], 3, "t0_nan.csv: t0_s=nan"),
        (["analyze", "--input", "{inputs}/rate0.wav"], 3, "rate0.wav: sample_rate_hz"),
        (["analyze", "--input", "fmam", "--snr-db", "1e300"], 2, "snr_db"),
        (["analyze", "--input", "fmam", "--snr-db=-1e300"], 2, "snr_db"),
        (["analyze", "--input", "fmam", "--snr-db=-inf"], 2, "snr_db"),
        (["analyze", "--method", "lmsst", "--input", "fmam", "--delta-bins", "100000"], 2,
         "delta_bins"),
        (["analyze", "--input", "fmam", "--snr-db", "10", "--seed", "-1"], 2, "seed"),
        (["generate", "fmam", "--snr-db", "10", "--seed", "-1"], 2, "seed"),
        (["reconstruct", "{inputs}/grid.npz", "--mode-track", "{inputs}/tone.csv",
          "--gamma-band", "nan"], 2, "half_width_hz"),
        # the rate is named before the duration, the budget and Nyquist
        (["analyze", "--input", "tone", "--fs=-inf", "--dur=-1"], 2, "fs_hz=-inf"),
        (["generate", "tone", "--fs", "nan"], 2, "fs_hz=nan"),
        (["generate", "tone", "--fs=-5", "--dur=-3"], 2, "fs_hz=-5"),
        (["analyze", "--input", "tone", "--fs", "1e300", "--dur", "1e300"], 2,
         "fs_hz x duration_s"),
        # a rate x duration under half a sample gives no sample at all
        (["generate", "chirp", "--dur", "0.0004"], 2,
         r"fs_hz x duration_s=0\.4096 rounds to 0 samples"),
        (["analyze", "--input", "tone", "--dur", "0.001"], 2,
         r"fs_hz x duration_s=0\.128 rounds to 0 samples"),
        # a repeated method would run twice and its heatmap would overwrite itself
        (["compare", "--input", "fmam", "--methods", "stft,sst,stft"], 2,
         r"repeated methods \['stft'\]"),
        # a grid value the grid refuses is a file fault
        (["reconstruct", "{inputs}/grid_dfreq.npz"], 3, "grid_dfreq.npz: df_hz="),
        # a sample near the float limit overflows a norm, an energy or a run sum
        (["analyze", "--method", "stft", "--input", "{inputs}/big.csv"], 2, "float range"),
        (["analyze", "--method", "rm", "--input", "{inputs}/big.csv"], 2,
         "grid entries must be finite"),
        (["analyze", "--method", "lmsst", "--input", "{inputs}/huge.csv"], 2,
         "grid entries must be finite"),
        # injected tracks feed only proposed; refused before the file is read
        (["analyze", "--method", "sst", "--input", "fmam", "--if-from",
          "{inputs}/missing.csv"], 2, "--if-from needs the proposed method"),
        (["compare", "--input", "fmam", "--methods", "sst,rm", "--if-from",
          "{inputs}/missing.csv"], 2, "--if-from needs the proposed method"),
        # a mode has no reference signal; refused before either file is read
        (["reconstruct", "{inputs}/missing.npz", "--mode-track", "{inputs}/missing.csv",
          "--reference", "{inputs}/missing.csv"], 2, "not allowed with"),
        # the band is refused before the grid file is read, with or without
        # --mode-track, the one option that reads it
        (["reconstruct", "{inputs}/grid.npz", "--gamma-band", "-1"], 2,
         r"\Aerror: half_width_hz must be > 0\n\Z"),
        (["reconstruct", "{inputs}/missing.npz", "--gamma-band", "nan"], 2,
         r"\Aerror: half_width_hz must be > 0\n\Z"),
    ], ids=["rm-reconstruct", "nyquist", "unparseable-grid",
            "track-off-axis", "compare-second-method", "nan-if-track", "nan-mode-track",
            "nan-if-time", "inf-if-time",
            "sigma-nan", "dur-nan", "dur-inf", "fs-inf", "csv-fs-inf", "csv-t0-inf",
            "csv-t0-nan", "wav-rate-zero", "snr-huge",
            "snr-minus-huge", "snr-minus-inf", "delta-bins-past-axis", "analyze-seed-negative",
            "generate-seed-negative", "gamma-band-nan", "fs-minus-inf-dur-negative",
            "generate-fs-nan", "generate-fs-dur-negative", "fs-dur-product-inf",
            "generate-no-sample", "analyze-no-sample", "compare-repeated-method",
            "grid-dfreq-zero", "overflow-norm-stft", "overflow-energy-rm",
            "overflow-sum-lmsst", "analyze-if-from-without-proposed",
            "compare-if-from-without-proposed", "mode-track-with-reference",
            "gamma-band-without-mode-track", "gamma-band-before-missing-grid"])
    def test_failure_leaves_no_output_directory(self, tmp_path, capsys, argv, code, match):
        inputs = tmp_path / "inputs"
        inputs.mkdir()
        sig, _ = tq.gen_fmam()
        tq.export_grid_csv(tq.stft(sig, tq.WindowSpec(0.04, 128.0), 128),
                           inputs / "grid.npz")
        rewrite_grid(inputs / "grid.npz", inputs / "grid_dfreq.npz", dfreq=np.float64(0.0))
        (inputs / "garbage.npz").write_text("garbage\n")
        write_wav(inputs / "rate0.wav", np.zeros(64, dtype="<i2"))
        blob = bytearray((inputs / "rate0.wav").read_bytes())
        blob[24:28] = bytes(4)  # the fmt chunk's frame rate
        (inputs / "rate0.wav").write_bytes(bytes(blob))
        (inputs / "tracks.csv").write_text("time_s,f1_hz,f2_hz\n0,20,20\n1,20,500\n")
        (inputs / "nan.csv").write_text("time_s,f1_hz\n0,nan\n1,nan\n")
        (inputs / "tone.csv").write_text("time_s,f1_hz\n0,20\n1,20\n")
        for time in ("nan", "inf"):
            (inputs / f"{time}_time.csv").write_text(f"time_s,f1_hz\n0,20\n{time},30\n")
        (inputs / "fs_inf.csv").write_text("# fs=inf\n1\n2\n3\n")
        (inputs / "big.csv").write_text("# fs=1\n1e300\n")
        (inputs / "huge.csv").write_text("# fs=1\n1.7e308\n")
        for t0 in ("inf", "nan"):
            (inputs / f"t0_{t0}.csv").write_text(f"# fs=128\n# t0={t0}\n1\n2\n3\n")
        out = tmp_path / "out"
        argv = [arg.format(inputs=inputs) for arg in argv] + ["--out", str(out)]
        assert main(argv) == code
        assert not out.exists()
        assert re.search(match, capsys.readouterr().err)
        # into an earlier run's directory, the same failure changes nothing
        out.mkdir()
        (out / "report.json").write_text("earlier\n")
        assert main(argv) == code
        assert tree(out) == {"report.json": b"earlier\n"}
        assert_no_stage(tmp_path)

    @pytest.mark.parametrize("command", ["analyze", "compare"])
    def test_late_write_failure_leaves_nothing(self, tmp_path, monkeypatch, capsys, command):
        # each command writes its report after its grid or heatmaps
        def disk_full(*args, **kwargs):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(cli, "export_report_json", disk_full)
        out = tmp_path / "out"
        assert main([command, "--input", "fmam", "--out", str(out)]) == 3
        assert not out.exists()
        assert_no_stage(tmp_path)
        assert os.strerror(errno.ENOSPC) in capsys.readouterr().err

    def test_failed_rerun_keeps_the_earlier_run(self, tmp_path):
        out = tmp_path / "out"
        assert main(["compare", "--input", "fmam", "--out", str(out)]) == 0
        earlier = tree(out)
        # the track file is refused at admission, before any method runs
        tracks = tmp_path / "tracks.csv"
        tracks.write_text("0,1,\n")
        assert main(["compare", "--input", "fmam", "--methods", "stft,proposed",
                     "--if-from", str(tracks), "--out", str(out)]) == 3
        assert tree(out) == earlier

    def test_directory_in_the_way_moves_nothing(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "report.json").mkdir(parents=True)
        assert main(["analyze", "--method", "stft", "--input", "fmam", "--out", str(out)]) == 3
        assert tree(out) == {"report.json": None}
        assert_no_stage(tmp_path)
        assert f"{out / 'report.json'}: a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("method", METHODS)
    def test_overflow_refusal_names_the_method(self, tmp_path, capsys, method):
        # a finite sample whose frame sum, energy or run sum passes the float range
        (tmp_path / "huge.csv").write_text("# fs=1\n1.7e308\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["analyze", "--method", method, "--input", str(tmp_path / "huge.csv"),
                         "--out", str(tmp_path / "out")]) == 2
        assert re.search(rf"\b{method} grid\b", capsys.readouterr().err)

    @pytest.mark.parametrize("method", [*METHODS, "proposed --gamma 0",
                                        "proposed --gamma 0 --per-frame-max"])
    def test_near_limit_complex_input_is_refused_without_a_warning(self, tmp_path, capsys,
                                                                   method):
        # a cell of V near the float limit overflows numpy's scaled complex
        # division V_x / V, which the phase map and RM take, and its |V|, which
        # the gamma filter scales
        rows = ["1.5e308,1.5e308" if n % 7 == 0 else "0.5,-0.25" for n in range(64)]
        (tmp_path / "near.csv").write_text("# fs=1\n" + "\n".join(rows) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["analyze", "--method", *method.split(),
                         "--input", str(tmp_path / "near.csv"),
                         "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"error: [^\n]*\n", captured.err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("amplitude, code", [(1e152, 0), (3e152, 2)])
    @pytest.mark.parametrize("command", [["analyze", "--method", "rm"],
                                         ["compare", "--methods", "stft,rm"]],
                             ids=["analyze-rm", "compare-stft-rm"])
    def test_near_limit_energies_are_scored_or_refused(self, tmp_path, capsys, command,
                                                       amplitude, code):
        # at 1e152 the sum of RM's energies passes the float range, which the
        # entropy's peak-scaled sums never reach; at 3e152 RM's frame sums do,
        # and the conservation metric is refused rather than reported as inf
        x = np.random.default_rng(0).standard_normal(256) * amplitude
        (tmp_path / "big.csv").write_text("# fs=128\n" + "\n".join(map(repr, x.tolist())) + "\n")
        out = tmp_path / "out"
        out.mkdir()
        (out / "report.json").write_text("earlier\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(command + ["--nfft", "64", "--input", str(tmp_path / "big.csv"),
                                   "--out", str(out)]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        if code:
            assert captured.err == "error: rm frame sums exceed the float range\n"
            assert tree(out) == {"report.json": b"earlier\n"}
        else:
            assert captured.err == ""
            reports = json.loads((out / "report.json").read_text())
            assert sorted(r["method_tag"] for r in reports) == sorted(command[-1].split(","))
            assert all(np.isfinite(r["renyi_entropy_bits"]) for r in reports)
        assert_no_stage(tmp_path)

    @pytest.mark.skipif(sys.platform != "linux", reason="reads VmPeak from /proc")
    def test_running_out_of_memory_exits_2(self, tmp_path):
        # the cell budget admits an 8192x1024 compare, but an address space of
        # the import's peak plus 192 MiB holds the 128 MiB STFT and not the
        # next grid: one error line, exit 2, and no output
        import resource  # Unix only

        def child(limit=None):
            def setup():
                os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
                if limit is not None:
                    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
            return setup

        root = Path(__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        probe = subprocess.run(
            [sys.executable, "-c", "import tfsqueeze.cli\n"
             "print(next(line.split()[1] for line in open('/proc/self/status')"
             " if line.startswith('VmPeak:')))"],
            env=env, capture_output=True, text=True, timeout=120, preexec_fn=child(),
            check=True)
        limit = int(probe.stdout) * 1024 + (192 << 20)
        out = tmp_path / "out"
        done = subprocess.run(
            [sys.executable, "-m", "tfsqueeze.cli", "compare", "--input", "chirp", "--dur", "8",
             "--nfft", "1024", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300, preexec_fn=child(limit))
        assert done.returncode == 2, done.stderr
        assert done.stdout == ""
        assert re.fullmatch(r"error: [^\n]*\n", done.stderr)
        assert not out.exists()
        assert_no_stage(tmp_path)


def test_no_noise_is_drawn_without_a_finite_snr(tmp_path, capsys):
    # add_noise alone decides: no --snr-db and --snr-db inf draw nothing, so
    # the seed is not read; a finite SNR still refuses a negative seed
    base = ["analyze", "--input", "chirp", "--dur", "0.25"]
    runs = {"plain": [], "snr-inf": ["--snr-db", "inf"], "seed-negative": ["--seed=-1"]}
    for name, extra in runs.items():
        assert main(base + extra + ["--out", str(tmp_path / name)]) == 0
    assert tree(tmp_path / "snr-inf") == tree(tmp_path / "plain")
    assert tree(tmp_path / "seed-negative") == tree(tmp_path / "plain")
    out = tmp_path / "noisy"
    assert main(base + ["--snr-db", "10", "--seed=-1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: seed must be >= 0\n"
    assert not out.exists()


def _refuse_call(*args, **kwargs):
    raise AssertionError("called before the run was admitted")


class TestAdmissionBeforeAllocation:
    """Refused runs exit before their window, signal, STFT or grid is built."""

    @pytest.mark.parametrize("argv", [
        ["analyze", "--input", "fmam", "--sigma", "1000"],  # 1.5M taps for 128 bins
        ["analyze", "--input", "{tmp}/fs_huge.csv"],  # 2.4e299 taps
    ], ids=["sigma-huge", "csv-fs-huge"])
    def test_window_is_not_built(self, tmp_path, monkeypatch, argv):
        (tmp_path / "fs_huge.csv").write_text("# fs=1e300\n1\n2\n3\n")
        for name in ("values", "d_values", "t_values"):
            monkeypatch.setattr(windows.WindowSpec, name, property(_refuse_call))
        out = tmp_path / "out"
        argv = [arg.format(tmp=tmp_path) for arg in argv] + ["--out", str(out)]
        assert main(argv) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["analyze", "generate"])
    def test_signal_is_not_generated(self, tmp_path, monkeypatch, command, capsys):
        # 8192 Hz x 1e5 s is 8.2e8 samples: past the budget at any --nfft
        monkeypatch.setattr(signals, "gen_tone", _refuse_call)
        argv = ([command, "--input", "tone"] if command == "analyze"
                else [command, "tone"])
        out = tmp_path / "out"
        assert main(argv + ["--fs", "8192", "--dur", "1e5", "--out", str(out)]) == 2
        assert "budget" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["analyze", "compare"])
    def test_gamma_is_refused_before_the_stft(self, tmp_path, monkeypatch, capsys, command):
        # neither run has the proposed method, so each reads --gamma only when
        # it scores its outputs, after the STFT
        path = tmp_path / "signal.csv"
        tq.save_signal_csv(tq.gen_tone(32.0, 128.0, 1.0)[0], path)
        argv = {"analyze": ["analyze", "--method", "sst", "--input", "tone"],
                "compare": ["compare", "--input", str(path), "--methods", "stft,sst"]}[command]
        monkeypatch.setattr(tfr, "stft", _refuse_call)
        out = tmp_path / "out"
        assert main(argv + ["--gamma", "5", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: gamma must lie in [0, 1)\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["analyze", "compare"])
    @pytest.mark.parametrize("tracks", ["missing", "malformed"])
    def test_track_file_is_read_before_the_stft(self, tmp_path, monkeypatch, capsys, command,
                                                tracks):
        # injected tracks are an input of the run, read once it is admitted
        (tmp_path / "malformed.csv").write_text("time_s,f1_hz\n0,abc\n")
        monkeypatch.setattr(tfr, "stft", _refuse_call)
        out = tmp_path / "out"
        assert main([command, "--input", "fmam", "--if-from", str(tmp_path / f"{tracks}.csv"),
                     "--out", str(out)]) == 3
        assert f"{tracks}.csv" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("argv", [
        ["analyze", "--input", "fmam", "--if-from"],
        ["compare", "--input", "fmam", "--if-from"],
        ["reconstruct", "{tmp}/grid.npz", "--mode-track"],
    ], ids=["analyze", "compare", "reconstruct"])
    def test_non_finite_track_is_refused_when_read(self, tmp_path, monkeypatch, capsys, argv,
                                                   value):
        # refused by the reader, before the STFT or the grid file it would index
        path = tmp_path / "tracks.csv"
        path.write_text(f"time_s,f1_hz,f2_hz\n0,20,30\n1,20,{value}\n")
        monkeypatch.setattr(tfr, "stft", _refuse_call)
        monkeypatch.setattr(cli, "import_grid_csv", _refuse_call)
        out = tmp_path / "out"
        argv = [arg.format(tmp=tmp_path) for arg in argv] + [str(path), "--out", str(out)]
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            f"error: {path}: line 3: column 3: frequency {value} is not finite\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["analyze", "--method", "sst", "--delta-bins", "-1"],
        ["compare", "--methods", "stft,sst", "--delta-bins", "128"],
    ], ids=["analyze", "compare"])
    def test_delta_bins_is_refused_before_the_stft(self, tmp_path, monkeypatch, capsys, argv):
        # neither run has LMSST, the one method that reads --delta-bins
        monkeypatch.setattr(tfr, "stft", _refuse_call)
        out = tmp_path / "out"
        assert main(argv + ["--input", "fmam", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: delta_bins must lie in [0, 128)\n"
        assert not out.exists()

    @pytest.mark.parametrize("option", ["--reference", "--mode-track"])
    def test_small_inputs_are_read_before_the_grid_file(self, tmp_path, monkeypatch, capsys,
                                                        option):
        path = tmp_path / "grid.npz"
        sig, _ = tq.gen_fmam()
        tq.export_grid_csv(tq.stft(sig, tq.WindowSpec(0.04, 128.0), 128), path)
        monkeypatch.setattr(cli, "import_grid_csv", _refuse_call)
        out = tmp_path / "out"
        assert main(["reconstruct", str(path), option, str(tmp_path / "missing.csv"),
                     "--out", str(out)]) == 3
        assert "missing.csv" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_file_shape_is_admitted_before_allocating(self, tmp_path, monkeypatch,
                                                          capsys):
        # 2^14 x 2^14 cells, twice the budget; idx and val stay valid
        path = tmp_path / "grid.npz"
        sig, _ = tq.gen_fmam()
        tq.export_grid_csv(tq.stft(sig, tq.WindowSpec(0.04, 128.0), 128), path)
        rewrite_grid(path, path, shape=np.array([1 << 14, 1 << 14]))
        monkeypatch.setattr(np, "zeros", _refuse_call)
        out = tmp_path / "out"
        assert main(["reconstruct", str(path), "--out", str(out)]) == 3
        assert "grid.npz: shape [16384, 16384]" in capsys.readouterr().err
        assert not out.exists()


# Every numeric flag of analyze draws from the same hostile list plus one
# ordinary value. On fmam (128 samples) and tone (the ordinary --fs and --dur
# give 128 samples; larger products are refused by the budget before
# anything is generated) no admitted grid exceeds 128 x 128 cells.
HOSTILE = ("nan", "inf", "-inf", "0", "-1", "1e300")
ORDINARY = {"--sigma": "0.04", "--gamma": "0.1", "--snr-db": "20", "--seed": "1",
            "--f0": "32", "--fs": "128", "--dur": "1", "--f-start": "30",
            "--f-end": "400", "--power": "3"}
FLAG_VALUES = {flag: HOSTILE + (value,) for flag, value in ORDINARY.items()}
FLAG_VALUES["--nfft"] = ("-1", "0", "1", "3", "128")
FLAG_VALUES["--delta-bins"] = ("-1", "0", "127", "128", "100000")


@st.composite
def analyze_argv(draw):
    argv = ["analyze", "--input", draw(st.sampled_from(["fmam", "tone"])),
            "--method", draw(st.sampled_from(METHODS))]
    # a few flags per run, so that most runs get past the first refusal; '='
    # keeps a value such as '-1' from reading as a flag
    for flag in draw(st.lists(st.sampled_from(sorted(FLAG_VALUES)), max_size=4, unique=True)):
        argv.append(f"{flag}={draw(st.sampled_from(FLAG_VALUES[flag]))}")
    for flag in ("--per-frame-max", "--reconstruct"):
        if draw(st.booleans()):
            argv.append(flag)
    return argv


def run_fuzzed(tmp_path, argv):
    """Run main with a fresh --out and check the CLI's contract: a stable
    exit code, no escaping exception, no output after a refusal, and no
    staging directory left either way."""
    out = tmp_path / "out"
    shutil.rmtree(out, ignore_errors=True)
    code = main(argv + ["--out", str(out)])
    assert code in (0, 2, 3, 4)
    assert code == 0 or not out.exists()
    assert_no_stage(tmp_path)


fuzz_settings = settings(deadline=None, derandomize=True,
                         suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestCliFuzz:
    @settings(fuzz_settings, max_examples=150)
    @given(argv=analyze_argv())
    def test_exit_code_and_no_partial_output(self, tmp_path, argv):
        run_fuzzed(tmp_path, argv)


# Each file reader, with the command that reaches it and the file name it reads
READERS = {
    "grid": (["reconstruct", "{path}"], "grid.npz"),
    "signal-csv": (["analyze", "--input", "{path}"], "in.csv"),
    "signal-wav": (["analyze", "--input", "{path}"], "in.wav"),
    "if-from": (["analyze", "--input", "fmam", "--if-from", "{path}"], "in.csv"),
}


def hostile_arrays(a: np.ndarray) -> dict[str, np.ndarray]:
    """Variants of a 1-D grid file member: wrong dtype, wrong rank, negative,
    huge and shuffled."""
    integer = a.dtype.kind == "i"
    huge = np.iinfo(np.int64).max if integer else np.finfo(float).max
    narrow = a.astype(np.int32 if integer else np.complex64)
    return {"narrow": narrow, "2-d": a.reshape(1, -1), "0-d": a[0],
            "negative": -a, "huge": np.full_like(a, huge),
            "shuffled": np.random.default_rng(0).permutation(a)}


@pytest.fixture(scope="module")
def fmam_grid(tmp_path_factory):
    """The fmam STFT grid file, as analyze --method stft writes it, and each
    member's hostile variants: HOSTILE numbers for the scalars, a number and
    bytes for the method tag, and hostile_arrays for shape, idx and val."""
    sig, _ = tq.gen_fmam()
    path = tmp_path_factory.mktemp("grid") / "grid.npz"
    tq.export_grid_csv(tq.stft(sig, tq.WindowSpec(0.04, 128.0), 128), path)
    with np.load(path) as npz:
        variants = {name: hostile_arrays(npz[name]) for name in ("shape", "idx", "val")}
    for name in ("fs", "t0", "dfreq", "rho"):
        variants[name] = {value: np.float64(value) for value in HOSTILE}
    variants["method"] = {"number": np.float64(1.0), "bytes": np.bytes_(b"stft")}
    return path, variants


class TestFileReaderFuzz:
    @settings(fuzz_settings, max_examples=120)
    @given(reader=st.sampled_from(sorted(READERS)), content=st.binary(max_size=2048))
    def test_arbitrary_bytes(self, tmp_path, reader, content):
        argv, name = READERS[reader]
        path = tmp_path / name
        path.write_bytes(content)
        run_fuzzed(tmp_path, [arg.format(path=path) for arg in argv])

    @settings(fuzz_settings, max_examples=60)
    @given(data=st.data())
    def test_grid_header_values(self, tmp_path, fmam_grid, data):
        # a few members per run take a variant, so that most runs get past
        # the first refusal; the others keep the written value
        source, variants = fmam_grid
        names = data.draw(st.lists(st.sampled_from(sorted(variants)), min_size=1,
                                   max_size=3, unique=True))
        members = {name: variants[name][data.draw(st.sampled_from(sorted(variants[name])),
                                                  label=name)]
                   for name in names}
        path = tmp_path / "grid.npz"
        rewrite_grid(source, path, **members)
        run_fuzzed(tmp_path, ["reconstruct", str(path)])
