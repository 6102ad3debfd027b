import os
import tracemalloc

import numpy as np
import pytest

import tfsqueeze as tq
from tfsqueeze.errors import InvalidParameterError, NonInvertibleGridError

from conftest import half_circle, interior_mask, no_floor, rel_l2, squeezed
from test_blocks import phase_if_oracle


def band_energy_fraction(grid, lo, hi, frames, energy_valued=False):
    """Share of the selected frames' energy inside bin range [lo, hi]."""
    e = np.abs(grid.data.real) if energy_valued else np.abs(grid.data) ** 2
    e = e[frames]
    return e[:, lo:hi + 1].sum() / e.sum()


class TestPhaseIfOperator:
    # on a 256-point DFT at 128 Hz a bin is 0.5 Hz, so a bin index read as
    # Hz, or Hz read as a bin, is off by a factor of two
    def test_tone_oracle_locks_sign(self, tone32, w128):
        # every strong interior cell must map to 32 Hz's bin; any sign or
        # scale slip moves the estimate by whole bins
        sig, _ = tone32
        a = tq.Analysis(sig, w128, 256)
        grid = a.grid
        assert grid.df_hz == 0.5
        bins = tq.phase_if_map(a)
        mag = np.abs(grid.data)
        strong = mag >= 0.1 * mag.max()
        strong &= interior_mask(grid.n_frames, w128)[:, None]
        assert strong.sum() > grid.n_frames
        assert np.all(bins[strong] == 64)

    def test_insignificant_cells_fall_back_to_own_bin(self, w128):
        sig = tq.Signal(np.zeros(40), 128.0)
        a = tq.Analysis(sig, w128, 256)
        bins = tq.phase_if_map(a)
        assert bins.dtype == np.int16
        assert np.array_equal(bins, np.broadcast_to(np.arange(256), (40, 256)))

    @pytest.mark.parametrize("n_bins, dtype", [
        (127, np.int8), (128, np.int8), (129, np.int16),
        (32767, np.int16), (32768, np.int16), (32769, np.int32)])
    def test_map_takes_the_narrowest_signed_type(self, n_bins, dtype, w128):
        # every cell of a zero signal keeps its own bin, the top one too,
        # so a type too narrow for n_bins - 1 would wrap it
        a = tq.Analysis(tq.Signal(np.zeros(1), 128.0), w128, n_bins)
        bins = tq.phase_if_map(a)
        assert bins.dtype == dtype
        assert np.array_equal(bins, np.arange(n_bins)[None, :])

    def test_map_is_built_once_as_read_only_int16(self, tone32, w128):
        a = tq.Analysis(tone32[0], w128, 256)
        bins = tq.phase_if_map(a)
        assert bins.dtype == np.int16
        assert tq.phase_if_map(a) is bins  # every reader shares the one map
        with pytest.raises(ValueError, match="read-only"):
            bins[0, 0] = 0

    def test_matches_time_finite_difference_route(self, w128):
        # independent route: f = Im((dV/dt)/V) / 2pi with dV/dt from a
        # central difference across frames. Hop-1 differencing aliases as
        # sin(2*pi*f/fs), so compare at a low tone frequency where the
        # mismatch stays under a few permille. The bins are within half a
        # bin of that; the Hz map they are rounded from, the oracle's, within
        # the few permille.
        f0, fs = 2.0, 128.0
        sig, _ = tq.gen_tone(f0, fs, 1.0)
        a = tq.Analysis(sig, w128, 2048)
        grid = a.grid
        v = grid.data
        dv = (v[2:] - v[:-2]) * fs / 2.0
        with np.errstate(divide="ignore", invalid="ignore"):
            f_fd = np.imag(dv / v[1:-1]) / (2.0 * np.pi)
        strong = np.abs(v[1:-1]) >= 0.5 * np.abs(v).max()
        strong[: w128.half] = False
        strong[-w128.half:] = False
        assert strong.any()
        for f_hat, tol in ((tq.phase_if_map(a) * grid.df_hz, grid.df_hz / 2 + 5e-3 * f0),
                           (phase_if_oracle(a)[0], 5e-3 * f0)):
            # the two routes agree modulo fs: near-DC ridge mass also shows
            # up on the wrap side of the circle, unwrapped by one route only
            gap = np.abs(f_hat[1:-1][strong] - f_fd[strong])
            gap = np.minimum(gap, np.abs(gap - fs))
            assert gap.max() <= tol


class TestSst:
    def test_tone_concentration(self, tone32, w128):
        sig, _ = tone32
        out = tq.sst(tq.Analysis(sig, w128, 128))
        frames = interior_mask(out.n_frames, w128)
        assert band_energy_fraction(out, 31, 33, frames) >= 0.999

    def test_reconstruction_exact_on_fmam(self, fmam, w128):
        sig, _ = fmam
        out = tq.sst(tq.Analysis(sig, w128, 128))
        assert rel_l2(sig.samples, tq.istft(out).samples) <= 1e-9

    def test_frame_sums_conserved(self, fmam, w128):
        sig, _ = fmam
        base = tq.stft(sig, w128, 128)
        out = tq.sst(tq.Analysis(sig, w128, 128))
        assert tq.framesum_max_dev(base.frame_sums, out) <= 1e-12

    def test_zero_signal(self, w128):
        out = tq.sst(tq.Analysis(tq.Signal(np.zeros(50), 128.0), w128, 128))
        assert np.all(out.data == 0)
        assert out.method_tag == "sst"


class TestReassignment:
    def test_tone_concentration(self, tone32, w128):
        sig, _ = tone32
        out = tq.reassignment(tq.Analysis(sig, w128, 128))
        frames = interior_mask(out.n_frames, w128)
        assert band_energy_fraction(out, 31, 33, frames, energy_valued=True) >= 0.999

    def test_impulse_collapses_in_time(self, w128):
        samples = np.zeros(128)
        samples[60] = 1.0
        out = tq.reassignment(tq.Analysis(tq.Signal(samples, 128.0), w128, 128))
        e = out.data.real
        assert e[59:62].sum() / e.sum() >= 0.99

    def test_total_energy_conserved(self, tone32, w128):
        sig, _ = tone32
        base = tq.stft(sig, w128, 128)
        out = tq.reassignment(tq.Analysis(sig, w128, 128))
        e_in = (np.abs(base.data) ** 2).sum()
        assert abs(out.data.real.sum() - e_in) <= 1e-9 * e_in

    def test_grid_is_non_invertible(self, tone32, w128):
        sig, _ = tone32
        out = tq.reassignment(tq.Analysis(sig, w128, 128))
        assert np.isnan(out.rho) and not out.invertible
        with pytest.raises(NonInvertibleGridError):
            tq.istft(out)


class TestSetExtract:
    def test_tone_keeps_exactly_the_ridge_bin(self, tone32, w128):
        sig, _ = tone32
        out = tq.set_extract(tq.Analysis(sig, w128, 128))
        interior = interior_mask(out.n_frames, w128)
        cols = np.unique(np.nonzero(np.abs(out.data[interior]))[1])
        assert cols.tolist() == [32]

    def test_extraction_only_removes(self, fmam, w128):
        sig, _ = fmam
        base = tq.stft(sig, w128, 128)
        out = tq.set_extract(tq.Analysis(sig, w128, 128))
        assert np.count_nonzero(out.data) <= np.count_nonzero(base.data)
        kept = np.abs(out.data) > 0
        assert np.array_equal(out.data[kept], base.data[kept])

    def test_reconstruction_is_lossy_on_fmam(self, fmam, w128):
        sig, _ = fmam
        out = tq.set_extract(tq.Analysis(sig, w128, 128))
        assert rel_l2(sig.samples, tq.istft(out).samples) > 1e-3


class TestLmsst:
    def test_tone_all_energy_at_ridge_with_wide_interval(self, tone32, w128):
        sig, _ = tone32
        out = tq.lmsst(tq.Analysis(sig, w128, 128), delta_bins=16)
        interior = interior_mask(out.n_frames, w128)
        e = np.abs(out.data[interior]) ** 2
        assert e[:, 32].sum() / e.sum() >= 1.0 - 1e-9

    def test_tone_default_interval_concentrates(self, tone32, w128):
        sig, _ = tone32
        out = tq.lmsst(tq.Analysis(sig, w128, 128))
        frames = interior_mask(out.n_frames, w128)
        assert band_energy_fraction(out, 31, 33, frames) >= 0.99

    def test_column_sums_preserved_and_invertible(self, fmam, w128):
        sig, _ = fmam
        base = tq.stft(sig, w128, 128)
        out = tq.lmsst(tq.Analysis(sig, w128, 128))
        assert tq.framesum_max_dev(base.frame_sums, out) <= 1e-12
        assert rel_l2(sig.samples, tq.istft(out).samples) <= 1e-10

    def test_delta_zero_is_identity(self, fmam, w128):
        sig, _ = fmam
        base = tq.stft(sig, w128, 128)
        out = tq.lmsst(tq.Analysis(sig, w128, 128), delta_bins=0)
        assert np.array_equal(out.data, base.data)
        assert out.method_tag == "lmsst"

    @pytest.mark.parametrize("delta", [128, 100000])
    def test_delta_past_the_axis_rejected(self, fmam, w128, delta):
        sig, _ = fmam
        with pytest.raises(InvalidParameterError):
            tq.lmsst(tq.Analysis(sig, w128, 128), delta_bins=delta)

    def test_negative_delta_rejected(self, fmam, w128):
        sig, _ = fmam
        with pytest.raises(InvalidParameterError):
            tq.lmsst(tq.Analysis(sig, w128, 128), delta_bins=-1)

    def test_matches_brute_force_move_oracle(self, w128):
        # reimplement the move rule cell by cell and compare whole grids
        rng = np.random.default_rng(21)
        sig = tq.Signal(rng.standard_normal(64) + 1j * rng.standard_normal(64), 128.0)
        delta = 3
        base = tq.stft(sig, w128, 128)
        out = tq.lmsst(tq.Analysis(sig, w128, 128), delta_bins=delta)
        mag = np.abs(base.data)
        expect = np.zeros_like(base.data)
        for n in range(base.n_frames):
            for k in range(base.n_bins):
                lo, hi = max(0, k - delta), min(base.n_bins, k + delta + 1)
                target = lo + int(np.argmax(mag[n, lo:hi]))
                expect[n, target] += base.data[n, k]
        assert np.allclose(out.data, expect, rtol=0, atol=1e-12 * mag.max())


@pytest.fixture(scope="module")
def chirp_2048x1024():
    sig, _ = tq.gen_chirp_surrogate(30.0, 400.0, 3.0, 1024.0, 2.0)
    return tq.Analysis(sig, tq.WindowSpec(0.02, sig.sample_rate_hz), 1024)


# peak traced bytes of one call, output included, in grids of the analysis,
# on two CPUs: each further CPU adds one block's transients (a few MiB). Each
# bound sits just above the measured factor (sst 1.248, rm 1.291, set 1.192,
# each with the int16 IF map it builds on a fresh analysis, 0.125; lmsst
# 1.145, the gamma-0.1 floor, detection and squeeze from the STFT 1.108,
# ridge detection 0.047 at the gamma-0.1 floor and 0.082 on the 0 dB chirp at
# gamma 0), so a grid-sized transient more fails it. With an int32 map they
# read sst 1.374 and set 1.317, and rm 1.551 while it also kept its flat
# targets in an int32 array of their own. With an int64 map (0.5)
# and each derivative or time-weighted transform framed whole before its
# reader's pass, they read sst 1.624, rm 1.642 and set 1.567; RM also summed
# its energies through a float bincount and its complex cast. The chain read
# 2.067 while the gamma filter copied its kept cells into a grid of their
# own. RM read 2.157 while its energies sat beside V_tg, and SET 1.630 while
# the IF map came with a whole-grid significance mask; RM read 2.501 while
# its flat targets and energies lived on through the cast of its bincount to
# complex. LMSST read 1.140 with the 2*delta + 1 scan; the doubling search
# holds a block-sized copy more per thread. Before each method handed regroup
# a per-block rule and the ratio V_x / V was divided block by block, they
# read sst 2.098, rm 2.657, set 2.098, lmsst 1.609 and squeeze 1.563: the
# derivative transform alive beside the bins, a whole-grid magnitude, a
# second bin grid, LMSST's and the squeeze's grid-sized destinations. Before
# each block found its own ridges and basins, detection read 0.172 and 0.335:
# two grid-sized masks and a whole-grid valley sort. The scan holds one
# block's q and q^2 per thread beside its heatmap pixels, 1/32 grid: 0.095 at
# gamma 0.1 on the real view. Renyi scoring alone read 0.063, and 0.50 over a
# whole-grid magnitude buffer.
PEAK_GRIDS = {"sst": 1.26, "reassignment": 1.30, "set_extract": 1.20, "lmsst": 1.16,
              "modular_reassign": 1.20, "local_maxima": 0.06, "local_maxima-0dB": 0.10,
              "scan": 0.10}


@pytest.mark.parametrize("name", sorted(PEAK_GRIDS))
def test_peak_memory_in_grids(chirp_2048x1024, name, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    # a fresh analysis, so that no IF map cached by an earlier run escapes the trace
    a = tq.Analysis(chirp_2048x1024.sig, chirp_2048x1024.w, chirp_2048x1024.nfft)
    assert a.grid.data.shape == (2048, 1024)
    run = getattr(tq, name.split("-")[0])
    if name == "modular_reassign":  # the CLI's gamma-0.1 chain from the STFT
        run, args = lambda g: squeezed(g, tq.gamma_floor(g, 0.1)), (a.grid,)
    elif name == "local_maxima":  # detection at the gamma-0.1 floor
        args = a.grid, tq.gamma_floor(a.grid, 0.1)
    elif name == "scan":  # the STFT grid itself, at gamma 0.1 on the real view
        args = a.grid, 0.1, True
    elif name == "local_maxima-0dB":  # about 35 ridges per frame, with as many valleys
        noisy = tq.Analysis(tq.add_noise(a.sig, 0.0, 1), a.w, a.nfft).grid
        args = noisy, no_floor(noisy)
    else:
        args = (a,)
    tracemalloc.start()
    try:
        out = run(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del out
    assert peak / a.grid.data.nbytes <= PEAK_GRIDS[name]


# the same on an STFT lent as analyze lends it: each in-frame method writes its
# output over the grid, so it holds what it builds beside it. Measured on two
# CPUs: sst 0.267 and set 0.267, each with the IF map it builds (0.125),
# lmsst 0.145 and the gamma-0.1 chain 0.113; with a fresh output they read
# 1.248, 1.192, 1.145 and 1.108 (PEAK_GRIDS)
PEAK_GRIDS_LENT = {"sst": 0.28, "set_extract": 0.28, "lmsst": 0.16, "modular_reassign": 0.13}


@pytest.mark.parametrize("name", sorted(PEAK_GRIDS_LENT))
def test_peak_memory_in_grids_on_a_lent_stft(chirp_2048x1024, name, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    a = tq.Analysis(chirp_2048x1024.sig, chirp_2048x1024.w, chirp_2048x1024.nfft)
    a.grid.data.setflags(write=True)
    if name == "modular_reassign":
        def run(a):
            floor = tq.gamma_floor(a.grid, 0.1)
            return tq.modular_reassign(a.grid, tq.local_maxima(a.grid, floor), floor)
    else:
        run = getattr(tq, name)
    tracemalloc.start()
    try:
        out = run(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = out[0] if isinstance(out, tuple) else out
    assert np.shares_memory(out.data, a.grid.data)
    assert peak / a.grid.data.nbytes <= PEAK_GRIDS_LENT[name]


def test_reassignment_leaves_no_target_in_its_imaginary_half(chirp_2048x1024):
    # RM's flat targets wait in its output's imaginary half; every one must
    # be reset to +0.0, not left behind or turned into -0.0
    imag = tq.reassignment(chirp_2048x1024).data.imag
    assert not imag.view(np.uint64).any()


@pytest.mark.parametrize("per_frame", [False, True])
def test_gamma_zero_filters_without_a_grid(chirp_2048x1024, per_frame, monkeypatch):
    # the gamma filter is one floor per frame, 0.001 grids with its
    # transient, which detection and the squeeze apply in their own blocks,
    # so no grid is built for it. At gamma 0 the chain then holds the
    # squeeze's output beside the estimate of every ripple maximum, 1.268
    # grids on two CPUs, as when the filter shared the STFT's cells; a copy
    # of the kept cells into a zeroed grid read 2.268. With one injected
    # track a zero floor skips the mask: the squeeze reads 1.063, and 1.106
    # when every block masks its cells.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    a = chirp_2048x1024

    def peak_grids(run):
        tracemalloc.start()
        try:
            out = run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        del out
        return peak / a.grid.data.nbytes

    assert peak_grids(lambda: tq.gamma_floor(a.grid, 0.0, per_frame)) <= 0.002
    assert peak_grids(lambda: squeezed(a.grid, tq.gamma_floor(a.grid, 0.0, per_frame))) <= 1.35
    est = tq.inject_if(a.grid, [lambda t: np.full(t.shape, 100.0)])
    floor = tq.gamma_floor(a.grid, 0.0, per_frame)
    assert peak_grids(lambda: tq.modular_reassign(a.grid, est, floor)) <= 1.08


def test_peak_memory_of_building_a_grid(chirp_2048x1024, monkeypatch):
    # one pass takes a grid's frame peaks and frame sums, and holds one
    # block's |V| per thread: 0.042 grids, for the grid and its half
    # circle, on two CPUs. A whole-grid finiteness mask,
    # one bool per cell, read 0.0625.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    data = chirp_2048x1024.grid.data
    tracemalloc.start()
    try:
        half_circle(tq.TFRGrid(data, 0.0, 1.0, 1.0, "x", 1024.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / data.nbytes <= 0.05
