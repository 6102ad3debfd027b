"""The frame-block kernels: the same bits as one whole-grid pass, whatever the
block edges and the CPU count, and faults raised inside a block surface in
the caller with no thread left running.

Each oracle below is the whole-grid formula the blocked kernel replaced. The
tests pretend the process may run on three CPUs, so the blocks spread over
threads even on a one-CPU host.
"""

import os
import re
import subprocess
import sys
import threading
import time
import types
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from tfsqueeze import baselines, io_export, metrics, ridges, signals, squeeze, tfr, windows
from tfsqueeze.cli import main
from tfsqueeze.errors import InvalidParameterError

from conftest import half_circle, no_floor

ROOT = Path(__file__).resolve().parent.parent
# the real mask and quota reader, before a test pretends otherwise
CPUS = os.sched_getaffinity(0)
QUOTA_CPUS = io_export._quota_cpus


@pytest.fixture(autouse=True)
def three_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(io_export, "_quota_cpus", lambda: None)  # nor a cgroup quota


@pytest.fixture(autouse=True)
def no_thread_left():
    before = threading.active_count()
    yield
    assert threading.active_count() == before


# ---- the whole-grid formulas the blocks replaced ----

def frame_matrix_oracle(sig, weights, nfft):
    half = (weights.size - 1) // 2
    frames = np.lib.stride_tricks.sliding_window_view(
        np.pad(sig.samples, half), weights.size) * weights
    buf = np.zeros((len(sig), nfft), dtype=np.complex128)
    buf[:, : half + 1] = frames[:, half:]
    buf[:, nfft - half:] = frames[:, :half]
    return np.fft.fft(buf, axis=1)


def regroup_oracle(data, dest):
    n_frames, n_bins = data.shape
    run_start = np.ones(dest.shape, dtype=bool)
    run_start[:, 1:] = dest[:, 1:] != dest[:, :-1]
    starts = np.flatnonzero(run_start)
    target = np.repeat(np.arange(n_frames) * n_bins, run_start.sum(axis=1))
    target += dest.ravel()[starts]
    out = np.zeros(n_frames * n_bins, dtype=np.complex128)
    with np.errstate(over="ignore"):
        np.add.at(out, target, np.add.reduceat(data.ravel(), starts))
    return out.reshape(n_frames, n_bins)


def ratio_oracle(a, taps):
    ratio = frame_matrix_oracle(a.sig, taps, a.nfft)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio /= a.grid.data
    return ratio


def phase_if_oracle(a):
    grid = a.grid
    ratio = ratio_oracle(a, a.w.d_values)
    mag = np.abs(grid.data)
    significant = mag > baselines.SIGNIFICANCE_FLOOR * mag.max()
    f_hat = grid.freq_axis_hz - np.imag(ratio) / (2.0 * np.pi)
    np.copyto(f_hat, grid.freq_axis_hz, where=~significant)
    return f_hat, significant


def if_bins_oracle(a):
    f_hat, significant = phase_if_oracle(a)
    f_hat /= a.grid.df_hz
    return np.rint(f_hat, out=f_hat).astype(np.int64) % a.grid.n_bins, significant


def reassignment_oracle(a):
    grid = a.grid
    bin_target, significant = if_bins_oracle(a)
    t_hat = grid.time_axis_s[:, None] + np.real(ratio_oracle(a, a.w.t_values))
    np.copyto(t_hat, grid.time_axis_s[:, None], where=~significant)
    frame_target = np.clip(
        np.rint((t_hat - grid.t0_s) * grid.source_fs_hz).astype(np.int64),
        0, grid.n_frames - 1)
    power = np.abs(grid.data) ** 2
    flat = frame_target.ravel() * grid.n_bins + bin_target.ravel()
    out = np.bincount(flat, weights=power.ravel(), minlength=grid.n_frames * grid.n_bins)
    return out.reshape(grid.data.shape).astype(np.complex128)


def set_oracle(a):
    target, significant = if_bins_oracle(a)
    keep = significant & (target == np.arange(a.grid.n_bins))
    return np.where(keep, a.grid.data, 0.0)


def lmsst_oracle(a, delta_bins):
    mag = np.abs(a.grid.data)
    n_bins = mag.shape[1]
    bins = np.arange(n_bins)
    best_val = np.full(mag.shape, -1.0)
    best_idx = np.zeros(mag.shape, dtype=np.int64)
    for d in range(-delta_bins, delta_bins + 1):
        lo, hi = max(0, -d), min(n_bins, n_bins - d)
        cand = mag[:, lo + d : hi + d]
        better = cand > best_val[:, lo:hi]
        np.copyto(best_val[:, lo:hi], cand, where=better)
        np.copyto(best_idx[:, lo:hi], bins[lo + d : hi + d], where=better)
    return regroup_oracle(a.grid.data, best_idx)


def filter_oracle(grid, gamma, per_frame):
    mag = np.abs(grid.data)
    ref = mag.max(axis=1, keepdims=True, initial=0.0) if per_frame else mag.max(initial=0.0)
    return np.where(mag > gamma * ref, grid.data, 0.0)


def local_maxima_oracle(grid, gamma):
    mag = np.abs(grid.data)
    mag[~(mag > gamma * mag.max(initial=0.0))] = 0.0
    n_frames, n_bins = mag.shape
    inner, left, right = mag[:, 1:-1], mag[:, :-2], mag[:, 2:]
    mask = np.zeros(mag.shape, dtype=bool)
    np.logical_and(inner > left, inner > right, out=mask[:, 1:-1])
    peaks = np.flatnonzero(mask)
    frame, ridge_bins = np.divmod(peaks, n_bins)
    offsets = np.searchsorted(peaks, np.arange(n_frames + 1) * n_bins)
    np.logical_and(inner < left, inner <= right, out=mask[:, 1:-1])
    lows = np.flatnonzero(mask)
    closing = np.searchsorted(peaks, lows)
    low_frame = lows // n_bins
    ridge_frame = np.concatenate([[-1], frame, [-1]])
    inside = (ridge_frame[closing] == low_frame) & (ridge_frame[closing + 1] == low_frame)
    closing, lows = closing[inside], lows[inside]
    order = np.lexsort((lows, mag.ravel()[lows], closing))
    closing, lows = closing[order], lows[order]
    pick = np.ones(closing.size, dtype=bool)
    pick[1:] = closing[1:] != closing[:-1]
    starts = np.zeros(ridge_bins.size, dtype=np.int64)
    starts[closing[pick]] = lows[pick] % n_bins
    return ridge_bins, offsets, starts


def renyi_oracle(grid):
    p = np.abs(grid.data.ravel())
    p /= p.sum()
    return float(np.log2(np.sum(np.power(p, metrics.ALPHA, out=p))) / (1.0 - metrics.ALPHA))


def heatmap_oracle(grid):
    peak = np.abs(grid.data).max()
    with np.errstate(divide="ignore"):
        db = 20.0 * np.log10(np.abs(half_circle(grid).data) / peak)
    db = np.clip(db, metrics.HEATMAP_FLOOR_DB, 0.0)
    pixels = np.rint(255.0 * (db - metrics.HEATMAP_FLOOR_DB)
                     / (-metrics.HEATMAP_FLOOR_DB)).astype(np.uint8)
    image = pixels.T[::-1]
    return f"P5\n{image.shape[1]} {image.shape[0]}\n255\n".encode("ascii") + image.tobytes()


# ---- grids whose frame counts sit on and around the block edges ----

def edge_frame_counts(n_bins):
    b = tfr._frames_per_block(n_bins)
    return sorted({1, max(1, b - 1), b, b + 1, 2 * b + 1})


def analysis(n_frames, nfft, complex_input=False, white_noise=False):
    """A noisy two-tone signal, or white noise alone, whose many ridges and
    valleys cross every block edge; 1 and 2 bins take a 1-tap window, 3 to
    63 bins a 3-tap one."""
    fs = 128.0
    rng = np.random.default_rng(n_frames * 1000 + nfft)
    t = np.arange(n_frames) / fs
    x = np.cos(2 * np.pi * 20.0 * t) + 0.5 * np.cos(2 * np.pi * 41.0 * t)
    x = rng.standard_normal(n_frames) if white_noise else x + 0.1 * rng.standard_normal(n_frames)
    if complex_input:
        x = x + 1j * rng.standard_normal(n_frames)
    sigma = 0.04 if nfft >= 64 else 0.002 if nfft >= 3 else 1e-9
    return tfr.Analysis(signals.Signal(x, fs), windows.WindowSpec(sigma, fs), nfft)


SHAPES = [(n_frames, n_bins) for n_bins in (1, 2, 127, 128)
          for n_frames in edge_frame_counts(n_bins)]


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and \
        got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n_bins", [1, 2, 3, 5, 33])
def test_lmsst_ties_keep_the_lower_bin(n_bins):
    # magnitudes 0-3 tie often, exactly under quarter-turn phases; every
    # radius, over three frame blocks
    rng = np.random.default_rng(n_bins)
    n_frames = 2 * tfr._frames_per_block(n_bins) + 1
    shape = (n_frames, n_bins)
    data = rng.integers(0, 4, shape) * rng.choice(np.array([1, 1j, -1, -1j]), shape)
    # lmsst reads only the grid once the radius is given
    a = types.SimpleNamespace(grid=tfr.TFRGrid(data, 0.0, 1.0, 1.0, "ties", 1.0))
    for delta in range(n_bins):
        assert same_bits(baselines.lmsst(a, delta).data, lmsst_oracle(a, delta))


@pytest.mark.parametrize("n_frames, n_bins", SHAPES)
class TestBlockEdges:
    def test_frame_matrix(self, n_frames, n_bins):
        a = analysis(n_frames, n_bins, complex_input=n_bins == 127)
        for taps in (a.w.values, a.w.d_values, a.w.t_values):
            assert same_bits(tfr.frame_matrix(a.sig, taps, n_bins)(slice(None)),
                             frame_matrix_oracle(a.sig, taps, n_bins))
        # the STFT frames the value taps block by block into its grid
        assert same_bits(a.grid.data, frame_matrix_oracle(a.sig, a.w.values, n_bins))

    def test_regroup(self, n_frames, n_bins):
        a = analysis(n_frames, n_bins)
        rng = np.random.default_rng(n_frames)
        dest = np.sort(rng.integers(0, n_bins, (n_frames, n_bins)), axis=1)
        out = tfr.regroup(a.grid, lambda rows: (dest[rows], a.grid.data[rows]), "x")
        assert same_bits(out.data, regroup_oracle(a.grid.data, dest))

    def test_phase_if_map_and_its_bins(self, n_frames, n_bins):
        a = analysis(n_frames, n_bins)
        # at most 128 bins, so every bin and -n_bins fit int8
        assert same_bits(baselines.phase_if_map(a), if_bins_oracle(a)[0].astype(np.int8))

    def test_baselines(self, n_frames, n_bins):
        a = analysis(n_frames, n_bins)
        assert same_bits(baselines.sst(a).data, regroup_oracle(a.grid.data, if_bins_oracle(a)[0]))
        assert same_bits(baselines.reassignment(a).data, reassignment_oracle(a))
        assert same_bits(baselines.set_extract(a).data, set_oracle(a))
        # delta 0 makes no doubling pass; the width 2*delta + 1 lies one above a
        # power of two at delta 1, 2, 4, 8 (the last pass joins windows one bin
        # apart) and one below at 3, 7 (they overlap by one bin)
        for delta in sorted({d for d in (0, 1, 2, 3, 4, 7, 8, n_bins - 1) if d < n_bins}):
            assert same_bits(baselines.lmsst(a, delta).data, lmsst_oracle(a, delta))

    def test_filter_grid(self, n_frames, n_bins):
        # detection and the squeeze at the gamma floor against the whole-grid
        # formulas on the filtered grid; at gamma 0 no cell is dropped, -0.0
        # ones included, and the kept sums are the grid's own
        grid = analysis(n_frames, n_bins).grid
        data = grid.data.copy()
        data[::3, ::2] = complex(-0.0, -0.0)
        grid = replace(grid, data=data)
        for gamma in (0.0, 0.1):
            for per_frame in (False, True):
                floor = ridges.gamma_floor(grid, gamma, per_frame)
                filtered = replace(grid, data=filter_oracle(grid, gamma, per_frame))
                est = ridges.local_maxima(grid, floor)
                for got, want in zip((est.ridges, est.offsets, est.starts),
                                     local_maxima_oracle(filtered, 0.0)):
                    assert same_bits(got, want)
                out, kept = squeeze.modular_reassign(grid, est, floor)
                assert same_bits(out.data,
                                 regroup_oracle(filtered.data, est.destinations(slice(None))))
                assert same_bits(kept, (grid if gamma == 0 else filtered).data.sum(axis=1))

    def test_local_maxima(self, n_frames, n_bins):
        for white_noise in (False, True):
            grid = analysis(n_frames, n_bins, white_noise=white_noise).grid
            for view in (grid, half_circle(grid)):
                for gamma in (0.0, 0.1):
                    est = ridges.local_maxima(view, ridges.gamma_floor(view, gamma))
                    for got, want in zip((est.ridges, est.offsets, est.starts),
                                         local_maxima_oracle(view, gamma)):
                        assert same_bits(got, want)

    def test_metrics(self, n_frames, n_bins):
        base = analysis(n_frames, n_bins).grid
        grid = replace(base, data=filter_oracle(base, 0.1, False))
        # block partial sums add in another order than the whole-grid oracle
        want = renyi_oracle(grid)
        assert abs(metrics.scan(grid, 0.0, False)[0] - want) <= 1e-14 * abs(want)
        for g in (base, grid, half_circle(grid)):
            assert same_bits(g.frame_peaks, np.max(np.abs(g.data), axis=1, initial=0.0))
            assert same_bits(g.frame_sums, g.data.sum(axis=1))
            assert metrics.scan(g, 0.0, False)[3] == np.count_nonzero(g.data) / g.data.size
        assert same_bits(tfr.istft(grid).samples, grid.rho * grid.data.sum(axis=1))
        sums_in, sums_out = base.data.sum(axis=1), grid.data.sum(axis=1)
        assert metrics.framesum_max_dev(base.frame_sums, grid) == \
            float(np.max(np.abs(sums_out - sums_in)) / float(np.max(np.abs(sums_in))))

    def test_heatmap(self, n_frames, n_bins, tmp_path):
        grid = analysis(n_frames, n_bins).grid
        io_export.export_pgm(metrics.scan(grid, 0.0, True)[2], tmp_path / "h.pgm")
        assert (tmp_path / "h.pgm").read_bytes() == heatmap_oracle(grid)


@pytest.mark.parametrize("n_frames, n_bins", [(n_frames, n_bins) for n_bins in (1, 2, 3, 128)
                                               for n_frames in edge_frame_counts(n_bins)])
@pytest.mark.parametrize("complex_input, real", [(False, True), (True, False), (True, True)],
                         ids=["real", "complex", "complex-half"])
def test_scan_gives_the_bits_of_the_three_passes(n_frames, n_bins, complex_input, real, tmp_path):
    # the entropy, the ridges of the view and the heatmap, each against its
    # whole-grid formula
    grid = analysis(n_frames, n_bins, complex_input=complex_input).grid
    if complex_input and real:  # the half circle peaks below the grid: its own floor
        data = grid.data.copy()
        data[:, (n_bins + 1) // 2:] *= 4.0
        grid = replace(grid, data=data)
    view = half_circle(grid) if real else grid
    want = renyi_oracle(grid)
    entropies = set()
    for gamma in (0.0, 0.1):
        entropy, found, image, _ = metrics.scan(grid, gamma, real)
        # block partial sums add in another order than the whole-grid oracle
        assert abs(entropy - want) <= 1e-14 * abs(want)
        entropies.add(entropy)
        io_export.export_pgm(image, tmp_path / "got.pgm")
        assert (tmp_path / "got.pgm").read_bytes() == heatmap_oracle(grid)
        ridge_bins, offsets, _ = local_maxima_oracle(view, gamma)
        assert same_bits(found.ridges, ridge_bins)
        assert same_bits(found.offsets, offsets)
        assert same_bits(found.counts(), np.diff(offsets))
        assert same_bits(found.time_axis_s, view.time_axis_s)
        assert same_bits(found.freq_axis_hz, view.freq_axis_hz)
        if n_bins == 128 and n_frames > 1:
            assert found.ridges.size > 0
    assert len(entropies) == 1  # detection leaves the score alone


def test_pixels_at_the_floor_are_the_formulas():
    # zeros, subnormals and magnitudes around the floor (10^-3 of the peak)
    # and the first grey level, which the helper raises to the floor first
    edge = 10.0 ** (metrics.HEATMAP_FLOOR_DB / 20.0)
    level = 10.0 ** ((metrics.HEATMAP_FLOOR_DB * (1 - 1 / 510)) / 20.0)
    q = np.array([0.0, 5e-324, 1e-310, 1e-30, edge / 2] +
                 [x * (1 + k * 2.0**-52) for x in (edge, level) for k in range(-4, 5)] +
                 [0.5, 1.0])[None, :]
    with np.errstate(divide="ignore"):
        db = np.clip(20.0 * np.log10(q), metrics.HEATMAP_FLOOR_DB, 0.0)
    want = np.rint(255.0 * (db - metrics.HEATMAP_FLOOR_DB)
                   / (-metrics.HEATMAP_FLOOR_DB)).astype(np.uint8)
    assert same_bits(np.ascontiguousarray(metrics._pixels(q)), want.T[::-1])


class TestScanRefusals:
    """The scan refuses what renyi_peak refuses, with its messages, before
    any block runs; a bad gamma comes first."""

    @pytest.mark.parametrize("gamma, real", [(0.0, True), (0.0, False), (0.1, True)])
    def test_all_zero_output(self, gamma, real):
        grid = tfr.TFRGrid(np.zeros((5, 8), dtype=complex), 0.0, 1.0, 1.0, "x", 8.0)
        with pytest.raises(InvalidParameterError,
                           match="^cannot measure entropy of an all-zero grid$"):
            metrics.scan(grid, gamma, real)

    @pytest.mark.parametrize("gamma, real", [(0.0, True), (0.0, False), (0.1, True)])
    def test_infinite_magnitude(self, gamma, real):
        data = np.ones((5, 8), dtype=complex)
        data[3, 2] = complex(1.5e308, 1.5e308)  # finite, but |V| overflows
        grid = tfr.TFRGrid(data, 0.0, 1.0, 1.0, "x", 8.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError, match="^cannot measure entropy of the x "
                               "grid: a magnitude exceeds the float range$"):
                metrics.scan(grid, gamma, real)

    def test_bad_gamma_comes_first(self):
        grid = tfr.TFRGrid(np.zeros((5, 8), dtype=complex), 0.0, 1.0, 1.0, "x", 8.0)
        with pytest.raises(InvalidParameterError, match="gamma must lie in"):
            metrics.scan(grid, 1.0, True)

    @pytest.mark.parametrize("command", [["analyze", "--method", "rm"],
                                         ["compare", "--methods", "rm,stft"]])
    def test_all_zero_rm_output_is_refused_by_the_entropy(self, tmp_path, capsys, command):
        # every input frame sums to zero too, which the conservation metric
        # refuses; the entropy's refusal comes first
        path = tmp_path / "zeros.csv"
        path.write_text("# fs=128\n" + "0\n" * 300)
        assert main(command + ["--input", str(path), "--nfft", "64",
                               "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: cannot measure entropy of an all-zero grid\n"
        assert not (tmp_path / "out").exists()


def test_frame_matrix_needs_no_numpy_2_fft_keyword(monkeypatch):
    # numpy before 2.0, which pyproject.toml admits, has no out= on np.fft.fft
    fft = np.fft.fft
    monkeypatch.setattr(np.fft, "fft", lambda a, n=None, axis=-1, norm=None: fft(a, n, axis, norm))
    a = analysis(3 * tfr._frames_per_block(64) + 1, 64)
    assert same_bits(tfr.frame_matrix(a.sig, a.w.values, 64)(slice(None)),
                     frame_matrix_oracle(a.sig, a.w.values, 64))


def test_gamma_zero_drops_nothing_and_bad_gamma_is_refused():
    # the smallest positive gamma drops only the exact zeros, as gamma 0's mask did
    data = analysis(300, 128).grid.data.copy()
    data[::7, 5:40] = 0.0
    grid = tfr.TFRGrid(data, 0.0, 1.0, 1.0, "x", 128.0)
    masked = ridges.local_maxima(grid, ridges.gamma_floor(grid, 5e-324))
    plain = ridges.local_maxima(grid, no_floor(grid))
    for name in ("ridges", "offsets", "starts"):
        assert same_bits(getattr(plain, name), getattr(masked, name))
    assert same_bits(metrics.scan(grid, 5e-324, False)[1].ridges, plain.ridges)
    for gamma in (-0.1, 1.0, float("nan")):
        with pytest.raises(InvalidParameterError, match="gamma"):
            ridges.gamma_floor(grid, gamma)
        with pytest.raises(InvalidParameterError, match="gamma"):
            metrics.scan(grid, gamma, False)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_non_finite_cell_in_the_last_block_is_refused(bad):
    b = tfr._frames_per_block(128)
    data = analysis(2 * b + 1, 128).grid.data.copy()  # three blocks, the last of one frame
    data[-1, 100] = bad
    with pytest.raises(InvalidParameterError, match="x grid entries must be finite"):
        tfr.TFRGrid(data, 0.0, 1.0, 1.0, "x", 128.0)


def test_an_overflowed_magnitude_is_not_a_non_finite_cell():
    data = np.zeros((3 * tfr._frames_per_block(2), 2), dtype=complex)
    data[-1] = complex(1.5e308, 1.5e308)  # finite, but |V| and the frame sum overflow
    grid = tfr.TFRGrid(data, 0.0, 1.0, 1.0, "x", 2.0)
    assert np.isinf(grid.frame_peaks[-1]) and not np.isfinite(grid.frame_sums[-1])


def test_a_grid_of_no_frames_has_no_ridges():
    grid = tfr.TFRGrid(np.zeros((0, 5), dtype=complex), 0.0, 1.0, 1.0, "x", 1.0)
    assert same_bits(grid.frame_peaks, np.zeros(0))
    assert same_bits(grid.frame_sums, np.zeros(0, dtype=complex))
    floor = ridges.gamma_floor(grid, 0.1)
    assert floor.shape == (0,)
    est = ridges.local_maxima(grid, floor)
    assert est.ridges.size == est.starts.size == 0
    assert est.offsets.tolist() == [0]
    out, kept = squeeze.modular_reassign(grid, est, floor)
    assert out.data.shape == (0, 5) and kept.shape == (0,)


class TestFaultsInBlocks:
    def test_lowest_failing_block_is_raised(self, monkeypatch):
        b = tfr._frames_per_block(16)

        def fn(rows):
            called.append(rows.start)
            if rows.start == 2 * b:
                time.sleep(0.2)  # so that later blocks fail first
            if rows.start >= 2 * b:
                raise KeyError(rows.start)
            done.append(rows.start)

        for cpus in (1, 3):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            called, done = [], []
            with pytest.raises(KeyError) as info:
                tfr._by_frame_blocks(fn, (6 * b, 16))
            assert info.value.args == (2 * b,)
            assert sorted(done) == [0, b]
            if cpus == 1:  # the caller's thread runs the blocks in order, stopping at the fault
                assert called == [0, b, 2 * b]

    def test_every_block_runs_once_under_contention(self, monkeypatch):
        # more threads than cores, switching as often as the interpreter allows
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
        b = tfr._frames_per_block(16)
        seen, returned = [], []

        def fn(rows):
            seen.append(rows.start)
            return rows.start

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(
                target=lambda: returned.append(tfr._by_frame_blocks(fn, (200 * b + 3, 16))))
            runner.start()
            runner.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert sorted(seen) == list(range(0, 200 * b + 3, b))
        # the parts come back in frame order, whatever order the blocks ran in
        assert returned == [list(range(0, 200 * b + 3, b))]

    def test_interrupt_outside_a_block_stops_the_claims(self, monkeypatch):
        # Ctrl-C lands in the caller's thread, here while it starts the second worker
        started = []
        start = threading.Thread.start

        def interrupted_start(thread):
            if started:
                raise KeyboardInterrupt
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", interrupted_start)
        seen = []

        def fn(rows):
            time.sleep(0.005)
            seen.append(rows.start)

        with pytest.raises(KeyboardInterrupt):
            tfr._by_frame_blocks(fn, (40 * tfr._frames_per_block(16), 16))
        assert not started[0].is_alive()
        assert len(seen) < 40  # the started worker ended after its current block

    def test_thread_count_is_capped(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
        made = []

        class Counted(threading.Thread):
            def __init__(self, *args, **kwargs):
                made.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(threading, "Thread", Counted)
        tfr._by_frame_blocks(lambda rows: None, (100 * tfr._frames_per_block(16), 16))
        assert len(made) == tfr._MAX_THREADS - 1  # the caller's thread is one of them

    @pytest.mark.parametrize("text, threads", [
        ("max 100000\n", 8), ("150000 100000\n", 2), ("100000 100000\n", 1), (None, 8),
        ("150000\n", 8), ("1.5 1\n", 8), ("0 100000\n", 8)],
        ids=["no-quota", "1.5-cpus", "1-cpu", "missing", "no-period", "not-integers", "zero"])
    def test_a_cgroup_v2_quota_caps_the_threads(self, monkeypatch, tmp_path, text, threads):
        # a quota buys ceil(quota / period) CPUs; "max", or a file that is
        # missing or malformed, sets no cap. The file is read once per process.
        path = tmp_path / "cpu.max"
        if text is not None:
            path.write_text(text)
        monkeypatch.setattr(io_export, "_CPU_MAX", str(path))
        monkeypatch.setattr(io_export, "_quota_cpus", QUOTA_CPUS)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
        made = []

        class Counted(threading.Thread):
            def __init__(self, *args, **kwargs):
                made.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(threading, "Thread", Counted)
        QUOTA_CPUS.cache_clear()
        try:
            for _ in range(2):
                tfr._by_frame_blocks(lambda rows: None, (100 * tfr._frames_per_block(16), 16))
                assert len(made) == threads - 1  # the caller's thread is one of them
                path.write_text("100000 100000\n")  # not read again
                made.clear()
        finally:
            QUOTA_CPUS.cache_clear()

    def test_one_block_runs_inline(self, monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("a grid of one block started a thread")

        monkeypatch.setattr(threading, "Thread", no_thread)
        a = analysis(tfr._frames_per_block(64), 64)
        baselines.sst(a)
        floor = ridges.gamma_floor(a.grid, 0.1)
        squeeze.modular_reassign(a.grid, ridges.local_maxima(a.grid, floor), floor)
        metrics.scan(a.grid, 0.1, True)

    @pytest.mark.parametrize("bad", [-1, 128])
    def test_destination_outside_the_bins_in_a_later_block(self, bad):
        a = analysis(3 * tfr._frames_per_block(128) + 5, 128)
        dest = np.tile(np.arange(128), (a.grid.n_frames, 1))
        dest[-1, 3] = bad
        with pytest.raises(InvalidParameterError, match=r"destination bins must lie in \[0, 128\)"):
            tfr.regroup(a.grid, lambda rows: (dest[rows], a.grid.data[rows]), "x")

    def test_rule_is_called_once_per_block(self):
        a = analysis(3 * tfr._frames_per_block(128) + 5, 128)
        dest = np.tile(np.arange(128), (a.grid.n_frames, 1))
        calls = []

        def rule(rows):
            calls.append(rows)
            return dest[rows], a.grid.data[rows]

        tfr.regroup(a.grid, rule, "x")
        # four blocks, each frame in exactly one, so no call takes the whole grid
        assert len(calls) == 4
        assert all(isinstance(rows, slice) for rows in calls)
        covered = np.concatenate([np.arange(a.grid.n_frames)[rows] for rows in calls])
        assert sorted(covered.tolist()) == list(range(a.grid.n_frames))

    def test_rule_of_the_wrong_shape_in_a_later_block(self):
        a = analysis(3 * tfr._frames_per_block(128) + 5, 128)
        dest = np.tile(np.arange(128), (a.grid.n_frames, 1))

        def rule(rows):  # the last block loses a frame
            return dest[rows.start:min(rows.stop, a.grid.n_frames - 1)], a.grid.data[rows]

        with pytest.raises(InvalidParameterError, match="do not match grid"):
            tfr.regroup(a.grid, rule, "x")

    def test_values_of_the_wrong_shape_in_a_later_block(self):
        a = analysis(3 * tfr._frames_per_block(128) + 5, 128)
        dest = np.tile(np.arange(128), (a.grid.n_frames, 1))

        def rule(rows):  # the last block's values lose a frame
            return dest[rows], a.grid.data[rows.start:min(rows.stop, a.grid.n_frames - 1)]

        with pytest.raises(InvalidParameterError, match="do not match grid"):
            tfr.regroup(a.grid, rule, "x")

    @pytest.mark.parametrize("fs, method, refused", [
        *[pytest.param("1", m, m, id=m) for m in ("sst", "lmsst", "stft")],
        *[pytest.param("128", m, "stft", id=f"fs128-{m}")
          for m in ("stft", "sst", "rm", "set", "lmsst", "proposed")],
    ])
    def test_overflow_in_a_later_block_is_refused_by_method(self, tmp_path, capsys,
                                                            fs, method, refused):
        # 64 bins: 1024 frames per block, the huge sample in the third. At 1 Hz
        # the window is one tap, so the STFT stays finite and the method's sums
        # overflow; at 128 Hz a multi-tap window's FFT overflows, silently
        samples = np.random.default_rng(0).standard_normal(3000)
        samples[2500] = 1.7e308
        path = tmp_path / "huge.csv"
        path.write_text(f"# fs={fs}\n" + "".join(f"{x!r}\n" for x in samples.tolist()))
        assert main(["analyze", "--method", method, "--input", str(path), "--nfft", "64",
                     "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(rf"error: [^\n]*\b{refused} grid\b[^\n]*\n", captured.err)
        assert not (tmp_path / "out").exists()


def run_cli(argv, out, one_cpu):
    """Run the CLI in a child on the whole affinity mask or pinned to one CPU;
    return its exit code, its stdout and stderr, and every file it wrote."""
    def pin():
        os.sched_setaffinity(0, {min(CPUS)})

    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, "-m", "tfsqueeze.cli", *argv, "--out", str(out)],
                          env=env, capture_output=True, timeout=300,
                          preexec_fn=pin if one_cpu else None)
    files = {p.relative_to(out).as_posix(): p.read_bytes()
             for p in sorted(out.rglob("*")) if p.is_file()}
    return done.returncode, done.stdout, done.stderr, files


@pytest.mark.parametrize("argv", [
    ["compare", "--input", "chirp", "--dur", "0.5", "--snr-db", "10", "--seed", "2"],
    ["analyze", "--method", "proposed", "--input", "chirp", "--dur", "0.5", "--snr-db", "10",
     "--reconstruct"],
    ["analyze", "--method", "proposed", "--input", "chirp", "--dur", "0.5", "--snr-db", "0",
     "--seed", "1", "--gamma", "0", "--reconstruct"],
], ids=["compare", "analyze-proposed", "analyze-proposed-0dB"])
def test_artifacts_do_not_depend_on_the_cpu_count(tmp_path, argv):
    # 512 frames of 512 bins: four blocks
    pinned = run_cli(argv, tmp_path / "one", one_cpu=True)
    spread = run_cli(argv, tmp_path / "all", one_cpu=False)
    assert pinned[0] == 0 and pinned[3]
    assert pinned == spread


def test_the_cli_does_not_import_concurrent_futures():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, tfsqueeze.cli; print('concurrent.futures' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.stdout == "False\n", done.stderr
