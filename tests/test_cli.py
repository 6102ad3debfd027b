import json

import numpy as np
import pytest

import tfsqueeze as tq
from tfsqueeze.cli import main


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
        for name in ("grid.csv", "heatmap.pgm", "report.json", "ridges.csv"):
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


class TestReconstruct:
    def test_roundtrip_prints_tiny_error(self, tmp_path, capsys):
        gen_dir = tmp_path / "gen"
        assert main(["generate", "fmam", "--out", str(gen_dir)]) == 0
        run_dir = tmp_path / "run"
        assert main(["analyze", "--method", "proposed", "--input", "fmam",
                     "--gamma", "0", "--out", str(run_dir)]) == 0
        rec_dir = tmp_path / "rec"
        rc = main(["reconstruct", str(run_dir / "grid.csv"),
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
        rc = main(["reconstruct", str(run_dir / "grid.csv"),
                   "--mode-track", str(gen_dir / "true_if.csv"),
                   "--gamma-band", "3", "--out", str(rec_dir)])
        assert rc == 0
        assert (rec_dir / "mode_1.csv").exists()
        assert (rec_dir / "mode_2.csv").exists()

    def test_rm_grid_exits_4(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(["analyze", "--method", "rm", "--input", "fmam",
                     "--out", str(run_dir)]) == 0
        rc = main(["reconstruct", str(run_dir / "grid.csv"),
                   "--out", str(tmp_path / "rec")])
        assert rc == 4
        assert "non-invertible" in capsys.readouterr().err

    def test_corrupt_grid_exits_3_with_position(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(["analyze", "--method", "stft", "--input", "fmam",
                     "--out", str(run_dir)]) == 0
        grid_path = run_dir / "grid.csv"
        lines = grid_path.read_text().splitlines()
        lines[9] = "garbage,row"
        grid_path.write_text("\n".join(lines) + "\n")
        rc = main(["reconstruct", str(grid_path), "--out", str(tmp_path / "rec")])
        assert rc == 3
        assert "line 10" in capsys.readouterr().err

    def test_missing_file_exits_3(self, tmp_path, capsys):
        rc = main(["reconstruct", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path)])
        assert rc == 3


class TestDegenerateInputs:
    def test_one_bin_half_circle_has_no_ridge_mae(self, tmp_path):
        # nfft 3 leaves a single bin below fs/2: no bin width to measure in
        for command in ("analyze", "compare"):
            out = tmp_path / command
            rc = main([command, "--input", "fmam", "--nfft", "3", "--sigma", "1e-9",
                       "--out", str(out)])
            assert rc == 0
            reports = json.loads((out / "report.json").read_text())
            assert [r["ridge_mae_bins"] for r in reports] == [None] * len(reports)

    def test_all_zero_input_writes_nothing(self, tmp_path, capsys):
        signal = tmp_path / "zero.csv"
        signal.write_text("# fs=128\n" + "0\n" * 64)
        for command in ("analyze", "compare"):
            out = tmp_path / command
            assert main([command, "--input", str(signal), "--out", str(out)]) == 2
            assert not out.exists() or not any(out.iterdir())
            assert "error" in capsys.readouterr().err


class TestNoPartialOutput:
    @pytest.mark.parametrize("argv, code", [
        (["analyze", "--method", "rm", "--input", "fmam", "--reconstruct"], 4),
        (["generate", "tone", "--f0", "600", "--fs", "1000"], 2),
        (["reconstruct", "{inputs}/garbage.csv"], 3),
        (["reconstruct", "{inputs}/latin1.csv"], 3),
        # the first track is inside the axis, the second is not
        (["reconstruct", "{inputs}/grid.csv", "--mode-track", "{inputs}/tracks.csv"], 2),
        # the first method succeeds before the second is refused
        (["compare", "--input", "fmam", "--methods", "stft,lmsst", "--delta-bins", "-1"], 2),
    ], ids=["rm-reconstruct", "nyquist", "unparseable-grid", "non-utf8-grid",
            "track-off-axis", "compare-second-method"])
    def test_failure_leaves_no_output_directory(self, tmp_path, argv, code):
        inputs = tmp_path / "inputs"
        inputs.mkdir()
        sig, _ = tq.gen_fmam()
        tq.export_grid_csv(tq.stft(sig, tq.gaussian_window(0.04, 128.0), 128),
                           inputs / "grid.csv")
        (inputs / "garbage.csv").write_text("garbage\n")
        (inputs / "latin1.csv").write_bytes("# method=caf\u00e9\n".encode("latin-1"))
        (inputs / "tracks.csv").write_text("time_s,f1_hz,f2_hz\n0,20,20\n1,20,500\n")
        out = tmp_path / "out"
        argv = [arg.format(inputs=inputs) for arg in argv] + ["--out", str(out)]
        assert main(argv) == code
        assert not out.exists()
