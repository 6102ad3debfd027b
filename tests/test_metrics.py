import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import tfsqueeze as tq
from tfsqueeze.errors import InvalidParameterError

from conftest import half_circle, interior_mask, no_floor, squeezed


def make_grid(rows, fs=1.0):
    return tq.TFRGrid(np.asarray(rows, dtype=complex), 0.0, 1.0, 1.0, "test", fs)


def entropy(grid):
    return tq.scan(grid, None, False)[0]


class TestRenyiEntropy:
    def test_point_mass_is_zero_bits(self):
        grid = make_grid([[0.0, 7.0, 0.0, 0.0]])
        assert entropy(grid) == 0.0

    def test_uniform_four_cells_is_two_bits(self):
        # (1/(1-3)) * log2(4 * (1/4)^3) = 2
        grid = make_grid([[1.0, 1.0], [1.0, 1.0]])
        assert abs(entropy(grid) - 2.0) <= 1e-12

    def test_spreading_increases_entropy(self):
        one = make_grid([[2.0, 0.0]])
        two = make_grid([[np.sqrt(2.0), np.sqrt(2.0)]])
        assert entropy(two) > entropy(one)

    def test_zero_grid_rejected(self):
        with pytest.raises(InvalidParameterError, match="entropy of an all-zero grid"):
            entropy(make_grid([[0.0, 0.0]]))

    def test_magnitude_past_the_float_range_rejected(self):
        # a finite cell whose |G| overflows: its frame peak is infinite
        grid = tq.TFRGrid(np.array([[1.5e308 + 1.5e308j, 1.0]]), 0.0, 1.0, 1.0, "t", 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError,
                               match="entropy of the t grid: a magnitude exceeds the float range"):
                entropy(grid)

    @pytest.mark.parametrize("exponent", [-500, 500])
    def test_power_of_two_scale_leaves_every_bit(self, w128, exponent):
        # four frame blocks of a noisy tone; q = |G| / max|G| is scale-free
        rng = np.random.default_rng(5)
        x = np.cos(2 * np.pi * 20.0 * np.arange(2048) / 128.0) + rng.standard_normal(2048)
        grid = tq.stft(tq.Signal(x, 128.0), w128, 128)
        scaled = replace(grid, data=grid.data * 2.0 ** exponent)
        assert entropy(scaled) == entropy(grid)

    def test_cells_near_the_float_limit_score_exactly(self):
        # 4096 equal cells are log2(4096) = 12 bits; sum|G| = 4.1e309 would overflow
        assert entropy(make_grid(np.full((64, 64), 1e306))) == 12.0

    def test_phase_invariance(self):
        mag = make_grid([[1.0, 2.0, 3.0]])
        rotated = make_grid([[1.0 * 1j, -2.0, 3.0 * np.exp(0.5j)]])
        assert np.isclose(entropy(mag), entropy(rotated))

    def test_in_frame_split_worked_example(self):
        # P = |G|/sum|G|: [1/2, 1/2] is 1 bit; [1/2, 1/4, 1/4] has
        # sum P^3 = 1/6.4, so 1/2 log2(6.4) bits. On |G|^2 the split frame
        # would score 0.855 bits, below the unsplit grid.
        whole = make_grid([[1.0, 0.0], [1.0, 0.0]])
        split = make_grid([[1.0, 0.0], [0.5, 0.5]])
        assert abs(entropy(whole) - 1.0) <= 1e-12
        assert abs(entropy(split) - 0.5 * np.log2(6.4)) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_in_frame_split_never_lowers_entropy(self, data):
        # Moving part of a cell, in phase, into an empty bin of its own frame
        # keeps the frame sum, as SST, LMSST and the squeeze do. The result is
        # majorised by the original, so no Renyi entropy may fall.
        n_frames = data.draw(st.integers(1, 5))
        n_bins = data.draw(st.integers(2, 8))
        parts = hnp.arrays(float, (n_frames, n_bins), elements=st.floats(-1e3, 1e3))
        grid = data.draw(parts) + 1j * data.draw(parts)
        n = data.draw(st.integers(0, n_frames - 1))
        src, dst = data.draw(st.lists(st.integers(0, n_bins - 1), min_size=2,
                                      max_size=2, unique=True))
        grid[n, dst] = 0.0
        assume(abs(grid[n, src]) > 0.0)
        lam = data.draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
        moved = grid.copy()
        moved[n, dst] = lam * grid[n, src]
        moved[n, src] = (1.0 - lam) * grid[n, src]
        scale = np.abs(grid).sum(axis=1)
        assert np.all(np.abs(moved.sum(axis=1) - grid.sum(axis=1)) <= 1e-12 * scale)
        before = entropy(make_grid(grid))
        after = entropy(make_grid(moved))
        assert after >= before - 1e-12, (before, after)


class TestRidgeMae:
    def test_oracle_injection_within_rounding(self, fmam, w128):
        sig, model = fmam
        grid = half_circle(tq.stft(sig, w128, 128))
        est = tq.inject_if(grid, [m.if_hz for m in model.modes])
        assert tq.ridge_mae(est, model, slice(None)) <= 0.5

    def test_tone_local_maxima(self, tone32, w128):
        sig, model = tone32
        grid = tq.stft(sig, w128, 128)
        est = tq.local_maxima(grid, tq.gamma_floor(grid, 0.1))
        interior = interior_mask(grid.n_frames, w128)
        assert tq.ridge_mae(est, model, frames=interior) <= 0.5

    def test_fmam_default_pipeline(self, fmam, w128):
        sig, model = fmam
        half = half_circle(tq.stft(sig, w128, 128))
        est = tq.local_maxima(half, tq.gamma_floor(half, 0.2))
        interior = interior_mask(half.n_frames, w128)
        assert tq.ridge_mae(est, model, frames=interior) <= 1.0

    def test_empty_model_rejected(self, tone32, w128):
        sig, _ = tone32
        grid = tq.stft(sig, w128, 128)
        est = tq.local_maxima(grid, no_floor(grid))
        with pytest.raises(InvalidParameterError, match="mode model has no components"):
            tq.ridge_mae(est, tq.ModeModel(modes=()), slice(None))

    def test_no_matching_frames_give_none(self, fmam, w128):
        # unfiltered full-circle grid never shows exactly K=2 ridges
        sig, model = fmam
        grid = tq.stft(sig, w128, 128)
        est = tq.local_maxima(grid, no_floor(grid))
        counts = est.counts()
        assert not np.any(counts == 2)
        assert tq.ridge_mae(est, model, slice(None)) is None

    def test_one_bin_axis_gives_none(self, tone32):
        # only an injected estimate has a ridge on a one-bin axis, which has
        # no bin width to measure the gap in
        _, model = tone32
        est = tq.inject_if(make_grid([[1.0], [2.0]]), [np.zeros_like])
        assert est.counts().tolist() == [1, 1]
        assert tq.ridge_mae(est, model, slice(None)) is None


class TestReconRelL2:
    def test_identical_is_zero(self, fmam):
        sig, _ = fmam
        assert tq.recon_rel_l2(sig, sig) == 0.0

    def test_zero_reconstruction_is_one(self):
        orig = tq.Signal(np.array([3.0, 4.0]), 10.0)
        rec = tq.Signal(np.array([0.0, 0.0]) + 0j, 10.0)
        # norm measures the full gap even though rec is "empty"
        assert np.isclose(tq.recon_rel_l2(orig, rec), 1.0)

    def test_hand_computed_sqrt_two(self):
        orig = tq.Signal(np.array([1.0, 0.0]), 10.0)
        rec = tq.Signal(np.array([0.0, 1.0]), 10.0)
        assert np.isclose(tq.recon_rel_l2(orig, rec), np.sqrt(2.0))

    def test_shape_and_rate_mismatch(self):
        a = tq.Signal(np.ones(4), 10.0)
        b = tq.Signal(np.ones(5), 10.0)
        with pytest.raises(InvalidParameterError, match="signal lengths differ"):
            tq.recon_rel_l2(a, b)
        c = tq.Signal(np.ones(4), 20.0)
        with pytest.raises(InvalidParameterError, match="sample rates differ"):
            tq.recon_rel_l2(a, c)

    def test_zero_original_rejected(self):
        z = tq.Signal(np.zeros(4), 10.0)
        with pytest.raises(InvalidParameterError):
            tq.recon_rel_l2(z, z)


class TestFramesumMaxDev:
    def test_identical_grids(self, fmam, w128):
        sig, _ = fmam
        grid = tq.stft(sig, w128, 128)
        assert tq.framesum_max_dev(grid.frame_sums, grid) == 0.0

    def test_squeeze_conserves(self, fmam, w128):
        sig, _ = fmam
        grid = tq.stft(sig, w128, 128)
        out, _ = squeezed(grid, no_floor(grid))
        assert tq.framesum_max_dev(grid.frame_sums, out) <= 1e-12

    def test_set_discards_mass(self, fmam, w128):
        sig, _ = fmam
        grid = tq.stft(sig, w128, 128)
        out = tq.set_extract(tq.Analysis(sig, w128, 128))
        assert tq.framesum_max_dev(grid.frame_sums, out) > 1e-3

    @pytest.mark.parametrize("amplitude", [1.0, 1e-20, 1e-100])
    def test_losing_every_frame_reads_one_at_any_scale(self, w128, amplitude):
        t = np.arange(64) / 128.0
        grid = tq.stft(tq.Signal(amplitude * np.cos(2 * np.pi * 20.0 * t), 128.0), w128, 128)
        lost = replace(grid, data=np.zeros(grid.data.shape))
        assert tq.framesum_max_dev(grid.frame_sums, lost) == 1.0

    def test_all_zero_input_has_no_scale(self, w128):
        grid = tq.stft(tq.Signal(np.zeros(64), 128.0), w128, 128)
        with pytest.raises(InvalidParameterError, match="every input frame sums to zero"):
            tq.framesum_max_dev(grid.frame_sums, grid)

    def test_frame_count_mismatch(self, fmam, tone32, w128):
        a, _ = fmam
        grid_a = tq.stft(a, w128, 128)
        short = tq.stft(tq.Signal(a.samples[:64], 128.0), w128, 128)
        with pytest.raises(InvalidParameterError, match="frame counts differ"):
            tq.framesum_max_dev(grid_a.frame_sums, short)


class TestNonzeroFraction:
    def test_counts_cells(self):
        grid = make_grid([[1.0, 0.0], [0.0, 0.0]])
        assert grid.nonzero_count / grid.data.size == 0.25


class TestEntropyOrderingInvariant:
    def test_proposed_well_below_stft(self, fmam, w128):
        sig, _ = fmam
        grid = tq.stft(sig, w128, 128)
        floor = tq.gamma_floor(grid, 0.1)
        proposed, _ = tq.modular_reassign(grid, tq.local_maxima(grid, floor), floor)
        assert entropy(proposed) < entropy(grid) - 2.0
