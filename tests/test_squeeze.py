import numpy as np
import pytest

import tfsqueeze as tq
from tfsqueeze.errors import InvalidParameterError, NonInvertibleGridError

from conftest import ideal_tfr, interior_mask, no_floor, rel_l2, ridge_bins, squeezed


class TestModularReassign:
    def test_tone_collapses_to_frame_sums(self, tone32, w128):
        # single known ridge: the whole frame lands on bin 32 and the value
        # is the exact per-frame inverse identity
        sig, _ = tone32
        grid = tq.stft(sig, w128, 128)
        est = tq.inject_if(grid, [lambda t: 32.0 * np.ones_like(t)])
        out, _ = tq.modular_reassign(grid, est, no_floor(grid))
        frame_sums = grid.data.sum(axis=1)
        target = 128 * sig.samples
        for n in range(grid.n_frames):
            nz = np.nonzero(np.abs(out.data[n]))[0]
            assert nz.tolist() == [32]
            assert abs(out.data[n, 32] - frame_sums[n]) <= 1e-9 * abs(frame_sums[n])
            assert abs(out.data[n, 32] - target[n]) <= 1e-9 * abs(target[n])

    def test_tone_detected_ridges_collapse(self, tone32, w128):
        # detected route: the filter removes truncation-ripple maxima, one
        # cell per interior frame survives carrying almost the whole frame
        sig, _ = tone32
        grid = tq.stft(sig, w128, 128)
        floor = tq.gamma_floor(grid, 0.1)
        out, _ = tq.modular_reassign(grid, tq.local_maxima(grid, floor), floor)
        target = 128 * sig.samples
        for n in np.nonzero(interior_mask(grid.n_frames, w128))[0]:
            nz = np.nonzero(np.abs(out.data[n]))[0]
            assert nz.tolist() == [32]
            # the filter discards the sub-threshold skirt, about 3% of mass
            assert abs(out.data[n, 32] - target[n]) <= 0.05 * abs(target[n])

    def test_zero_grid_passes_through(self, w128):
        grid = tq.stft(tq.Signal(np.zeros(40), 128.0), w128, 128)
        out, _ = squeezed(grid, no_floor(grid))
        assert np.all(out.data == 0)
        assert out.method_tag == "proposed"

    def test_fmam_support_at_most_two_below_nyquist(self, fmam, w128):
        sig, _ = fmam
        grid = tq.stft(sig, w128, 128)
        floor = tq.gamma_floor(grid, 0.2)
        out, _ = tq.modular_reassign(grid, tq.local_maxima(grid, floor), floor)
        interior = interior_mask(grid.n_frames, w128)
        support = (np.abs(out.data[:, :64]) > 0).sum(axis=1)
        assert np.all(support[interior] <= 2)

    @pytest.mark.parametrize("gen", ["tone", "fmam", "crossover"])
    def test_conservation_exact(self, gen, request):
        sig, _ = request.getfixturevalue({"tone": "tone32", "fmam": "fmam",
                                          "crossover": "crossover"}[gen])
        fs = sig.sample_rate_hz
        w = tq.WindowSpec(0.04 if fs <= 256 else 0.02, fs)
        grid = tq.stft(sig, w, len(sig))
        out, _ = squeezed(grid, no_floor(grid))
        assert tq.framesum_max_dev(grid.frame_sums, out) <= 1e-12

    def test_idempotent(self, fmam, w128):
        sig, _ = fmam
        grid = tq.stft(sig, w128, 128)
        floor = tq.gamma_floor(grid, 0.1)
        est = tq.local_maxima(grid, floor)
        once, _ = tq.modular_reassign(grid, est, floor)
        twice, _ = tq.modular_reassign(once, est, no_floor(once))
        assert np.array_equal(once.data, twice.data)

    def test_support_equals_injected_ridges(self, crossover, w1024):
        sig, model = crossover
        grid = tq.stft(sig, w1024, 1024)
        est = tq.inject_if(grid, [m.if_hz for m in model.modes])
        out, _ = tq.modular_reassign(grid, est, no_floor(grid))
        per_frame = ridge_bins(est)  # splits every frame's ridges
        for n in range(grid.n_frames):
            nz = np.nonzero(np.abs(out.data[n]))[0]
            assert nz.tolist() == per_frame[n].tolist()

    def test_output_support_matches_ideal_tfr(self, fmam, w128):
        # with oracle IFs the squeezed support must sit on the ideal ridge
        sig, model = fmam
        grid = tq.stft(sig, w128, 128)
        est = tq.inject_if(grid, [m.if_hz for m in model.modes])
        out, _ = tq.modular_reassign(grid, est, no_floor(grid))
        ideal = ideal_tfr(model, grid)
        for n in range(grid.n_frames):
            out_bins = np.nonzero(np.abs(out.data[n]))[0]
            ideal_bins = np.nonzero(np.abs(ideal.data[n]))[0]
            assert np.all(np.min(np.abs(out_bins[:, None] - ideal_bins), axis=1) <= 1)

    def test_estimate_from_other_grid_rejected(self, fmam, crossover, w128, w1024):
        sig, _ = fmam
        other, _ = crossover
        grid = tq.stft(sig, w128, 128)
        other_grid = tq.stft(other, w1024, 1024)
        est = tq.local_maxima(other_grid, no_floor(other_grid))
        with pytest.raises(InvalidParameterError, match="do not match grid"):
            tq.modular_reassign(grid, est, no_floor(grid))

    def test_estimate_with_more_frames_rejected(self, fmam, w128):
        # same bins, so every block of the grid would find its destinations
        sig, _ = fmam
        grid = tq.stft(tq.Signal(sig.samples[:100], sig.sample_rate_hz), w128, 128)
        other_grid = tq.stft(sig, w128, 128)
        est = tq.local_maxima(other_grid, no_floor(other_grid))
        with pytest.raises(InvalidParameterError, match="do not match grid"):
            tq.modular_reassign(grid, est, no_floor(grid))

    def test_frames_without_ridges_pass_through(self, w128):
        # one loud burst: quiet frames keep their (tiny) coefficients
        samples = np.zeros(64, dtype=complex)
        samples[30:34] = 1.0
        grid = tq.stft(tq.Signal(samples, 128.0), w128, 128)
        floor = tq.gamma_floor(grid, 0.5)
        est = tq.local_maxima(grid, floor)
        out, _ = tq.modular_reassign(grid, est, floor)
        kept = np.where(np.abs(grid.data) > floor[:, None], grid.data, 0.0)
        quiet = [n for n in range(64) if ridge_bins(est)[n].size == 0]
        assert quiet, "expected some frames below the filter threshold"
        for n in quiet:
            assert np.array_equal(out.data[n], kept[n])

    @pytest.mark.parametrize("gamma", [0.0, 0.1])
    def test_returns_what_it_conserves_and_writes_no_argument(self, fmam, w128, gamma):
        sig, _ = fmam
        grid = tq.stft(sig, w128, 128)
        floor = tq.gamma_floor(grid, gamma)
        est = tq.local_maxima(grid, floor)
        for arr in (floor, est.ridges, est.offsets, est.starts, est.time_axis_s,
                    est.freq_axis_hz):
            arr.setflags(write=False)
        before = floor.copy()
        out, kept = tq.modular_reassign(grid, est, floor)
        assert np.array_equal(floor, before)
        assert not kept.flags.writeable
        if gamma == 0.0:
            assert kept is grid.frame_sums
        else:
            cells = np.where(np.abs(grid.data) > floor[:, None], grid.data, 0.0)
            assert np.array_equal(kept, cells.sum(axis=1))
        assert tq.framesum_max_dev(kept, out) <= 1e-12


class TestReconstruct:
    @pytest.mark.parametrize("gen", ["tone32", "fmam", "crossover"])
    def test_exact_roundtrip_unfiltered(self, gen, request):
        sig, _ = request.getfixturevalue(gen)
        fs = sig.sample_rate_hz
        w = tq.WindowSpec(0.04 if fs <= 256 else 0.02, fs)
        grid = tq.stft(sig, w, len(sig))
        out, _ = squeezed(grid, no_floor(grid))
        rec = tq.istft(out)
        assert rel_l2(sig.samples, rec.samples) <= 1e-10

    def test_refuses_rm_grid(self, tone32, w128):
        sig, _ = tone32
        rm = tq.reassignment(tq.Analysis(sig, w128, 128))
        with pytest.raises(NonInvertibleGridError):
            tq.istft(rm)

    def test_filtered_pipeline_loses_a_little(self, fmam, w128):
        sig, _ = fmam
        grid = tq.stft(sig, w128, 128)
        floor = tq.gamma_floor(grid, 0.1)
        out, _ = tq.modular_reassign(grid, tq.local_maxima(grid, floor), floor)
        err = rel_l2(sig.samples, tq.istft(out).samples)
        assert 0.0 < err <= 0.05


class TestModeReconstruct:
    def test_two_separated_tones(self):
        # window chosen so cross-mode leakage sits below the 1e-6 budget
        t1, _ = tq.gen_tone(20, 128, 1)
        t2, _ = tq.gen_tone(50, 128, 1)
        both = tq.Signal(t1.samples + t2.samples, 128.0)
        w = tq.WindowSpec(0.06, 128)
        grid = tq.stft(both, w, 128)
        out, _ = squeezed(grid, no_floor(grid))
        rec = tq.mode_reconstruct(out, lambda t: 20.0 * np.ones_like(t), 2.0)
        sl = slice(w.half, 128 - w.half)
        assert rel_l2(t1.samples[sl], rec.samples[sl]) <= 1e-6

    def test_full_band_equals_reconstruct(self, fmam, w128):
        sig, _ = fmam
        grid = tq.stft(sig, w128, 128)
        out, _ = squeezed(grid, no_floor(grid))
        full = tq.mode_reconstruct(out, lambda t: 64.0 * np.ones_like(t), 1e6)
        assert np.array_equal(full.samples, tq.istft(out).samples)

    def test_fmam_mode_two_extraction(self, fmam, w128):
        sig, model = fmam
        grid = tq.stft(sig, w128, 128)
        out, _ = squeezed(grid, no_floor(grid))
        band = tq.mode_reconstruct(out, model.modes[1].if_hz, 3.0)
        rec = 2.0 * band.samples.real  # real carrier: fold the mirror back in
        truth = np.sin(model.modes[1].phase_rad(sig.times_s))
        sl = slice(w128.half, 128 - w128.half)
        assert rel_l2(truth[sl], rec[sl]) <= 0.05

    def test_refuses_rm_grid(self, tone32, w128):
        sig, _ = tone32
        rm = tq.reassignment(tq.Analysis(sig, w128, 128))
        with pytest.raises(NonInvertibleGridError):
            tq.mode_reconstruct(rm, lambda t: 32.0 * np.ones_like(t), 2.0)

    def test_track_outside_axis_rejected(self, tone32, w128):
        sig, _ = tone32
        grid = tq.stft(sig, w128, 128)
        out, _ = squeezed(grid, no_floor(grid))
        with pytest.raises(InvalidParameterError, match="mode track range"):
            tq.mode_reconstruct(out, lambda t: 500.0 * np.ones_like(t), 2.0)
        with pytest.raises(InvalidParameterError, match="half_width_hz must be > 0"):
            tq.mode_reconstruct(out, lambda t: 32.0 * np.ones_like(t), 0.0)
        # a NaN half width keeps no bin, which would give an all-zero mode
        with pytest.raises(InvalidParameterError, match="half_width_hz must be > 0"):
            tq.mode_reconstruct(out, lambda t: 32.0 * np.ones_like(t), np.nan)
