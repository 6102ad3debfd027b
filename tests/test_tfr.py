import numpy as np
import pytest

import tfsqueeze as tq
from tfsqueeze import tfr
from tfsqueeze.errors import InvalidParameterError, NonInvertibleGridError
from tfsqueeze.tfr import nearest_bins

from conftest import half_circle, ideal_tfr, interior_mask, rel_l2


def stft_frame_oracle(sig, w, nfft, frame):
    """Direct evaluation of sum_m s[m] g[m-n] exp(-2j pi k (m-n)/nfft)."""
    out = np.zeros(nfft, dtype=complex)
    n_samp = len(sig)
    for k in range(nfft):
        acc = 0.0 + 0.0j
        for m in range(max(0, frame - w.half), min(n_samp, frame + w.half + 1)):
            acc += (sig.samples[m] * w.values[m - frame + w.half]
                    * np.exp(-2j * np.pi * k * (m - frame) / nfft))
        out[k] = acc
    return out


class TestStft:
    def test_zero_signal_gives_zero_grid(self, w128):
        sig = tq.Signal(np.zeros(64), 128.0)
        grid = tq.stft(sig, w128, 128)
        assert np.all(grid.data == 0)

    def test_matches_brute_force_oracle_on_tone(self, tone32, w128):
        sig, _ = tone32
        grid = tq.stft(sig, w128, 128)
        for frame in (5, 60, 120):  # boundary and interior
            oracle = stft_frame_oracle(sig, w128, 128, frame)
            assert rel_l2(oracle, grid.data[frame]) <= 1e-12

    def test_matches_brute_force_oracle_on_random_signal(self, w128):
        rng = np.random.default_rng(11)
        sig = tq.Signal(rng.standard_normal(96) + 1j * rng.standard_normal(96), 128.0)
        grid = tq.stft(sig, w128, 128)
        oracle = stft_frame_oracle(sig, w128, 128, 48)
        assert rel_l2(oracle, grid.data[48]) <= 1e-12

    def test_tone_argmax_on_ridge_bin(self, tone32, w128):
        sig, _ = tone32
        grid = tq.stft(sig, w128, 128)
        interior = interior_mask(grid.n_frames, w128)
        peaks = np.argmax(np.abs(grid.data[interior]), axis=1)
        assert np.all(peaks == 32)

    def test_linearity(self, fmam, w128):
        sig, _ = fmam
        doubled = tq.Signal(2.0 * sig.samples, sig.sample_rate_hz)
        g1 = tq.stft(sig, w128, 128)
        g2 = tq.stft(doubled, w128, 128)
        assert rel_l2(2.0 * g1.data, g2.data) <= 1e-12

    def test_axes_and_rho(self, fmam, w128):
        sig, _ = fmam
        grid = tq.stft(sig, w128, 128)
        assert grid.n_frames == len(sig) and grid.n_bins == 128
        assert grid.freq_axis_hz[1] - grid.freq_axis_hz[0] == 1.0
        assert grid.rho == 1.0 / 128
        assert grid.method_tag == "stft"

    def test_nfft_below_window_length_rejected(self, fmam, w128):
        sig, _ = fmam
        with pytest.raises(InvalidParameterError):
            tq.stft(sig, w128, w128.taps - 1)

    def test_per_frame_inverse_identity(self, fmam, w128):
        # sum_k V[n,k] = nfft * g(0) * s[n], every frame including boundaries
        sig, _ = fmam
        grid = tq.stft(sig, w128, 128)
        sums = grid.data.sum(axis=1)
        target = 128 * sig.samples
        assert np.abs(sums - target).max() <= 1e-9 * np.abs(sig.samples).max()

    def test_slow_chirp_argmax_tracks_if(self, w128):
        # asymptotic regime: frame spectra cluster around the current IF
        sig, model = tq.gen_chirp_surrogate(20, 30, 1, 128, 1)
        grid = tq.stft(sig, w128, 128)
        interior = np.nonzero(interior_mask(grid.n_frames, w128))[0]
        peaks = np.argmax(np.abs(grid.data[interior]), axis=1)
        true_bins = model.modes[0].if_hz(grid.time_axis_s[interior]) / grid.df_hz
        assert np.abs(peaks - true_bins).max() <= 1.0


class TestIstft:
    def test_roundtrip_tone(self, tone32, w128):
        sig, _ = tone32
        rec = tq.istft(tq.stft(sig, w128, 128))
        assert rel_l2(sig.samples, rec.samples) <= 1e-10

    def test_roundtrip_fmam(self, fmam, w128):
        sig, _ = fmam
        rec = tq.istft(tq.stft(sig, w128, 128))
        assert rel_l2(sig.samples, rec.samples) <= 1e-10

    def test_zero_grid_gives_zero_signal(self, w128):
        sig = tq.Signal(np.zeros(32), 128.0)
        rec = tq.istft(tq.stft(sig, w128, 128))
        assert np.all(rec.samples == 0)

    def test_refuses_non_invertible_grid(self, tone32, w128):
        sig, _ = tone32
        rm = tq.reassignment(tq.Analysis(sig, w128, 128))
        with pytest.raises(NonInvertibleGridError):
            tq.istft(rm)

    def test_preserves_metadata(self, fmam, w128):
        sig, _ = fmam
        rec = tq.istft(tq.stft(sig, w128, 128))
        assert rec.sample_rate_hz == sig.sample_rate_hz
        assert rec.t0_s == sig.t0_s

    @pytest.mark.parametrize("nfft", [128, 135, 256])
    def test_roundtrip_any_dft_size(self, fmam, w128, nfft):
        # the inverse identity needs nfft >= window length, nothing else
        sig, _ = fmam
        rec = tq.istft(tq.stft(sig, w128, nfft))
        assert rel_l2(sig.samples, rec.samples) <= 1e-10

    def test_roundtrip_with_time_offset(self, w128):
        sig = tq.Signal(np.exp(2j * np.pi * 20 * np.arange(64) / 128), 128.0,
                        t0_s=1.5)
        grid = tq.stft(sig, w128, 128)
        assert grid.time_axis_s[0] == 1.5
        rec = tq.istft(grid)
        assert rec.t0_s == 1.5
        assert rel_l2(sig.samples, rec.samples) <= 1e-10


class TestGridValidation:
    def test_data_must_be_2d(self):
        with pytest.raises(InvalidParameterError, match="grid data must be 2-D"):
            tq.TFRGrid(np.zeros(4, complex), 0.0, 1.0, 1.0, "x", 1.0)

    def test_nonfinite_entries_rejected(self):
        data = np.zeros((2, 3), complex)
        data[0, 0] = np.nan
        with pytest.raises(InvalidParameterError):
            tq.TFRGrid(data, 0.0, 1.0, 1.0, "x", 1.0)

    # t0_s may be zero or negative; the rate and the bin width may not.
    # One frame is enough: no axis step is needed to see a bad rate.
    @pytest.mark.parametrize("name, value", [
        *(("t0_s", v) for v in (np.nan, np.inf, -np.inf)),
        *((name, v) for name in ("df_hz", "source_fs_hz")
          for v in (np.nan, np.inf, -np.inf, 0.0, -1.0)),
    ])
    def test_bad_sampling_refused(self, name, value):
        sampling = {"t0_s": 0.0, "df_hz": 1.0, "source_fs_hz": 1.0, name: value}
        with pytest.raises(InvalidParameterError, match=name):
            tq.TFRGrid(np.zeros((1, 3), complex), rho=1.0, method_tag="x", **sampling)

    def test_axes_follow_the_sampling(self):
        grid = tq.TFRGrid(np.zeros((3, 4), complex), -0.5, 2.5, 1.0, "x", 4.0)
        assert grid.time_axis_s.tolist() == [-0.5, -0.25, 0.0]
        assert grid.freq_axis_hz.tolist() == [0.0, 2.5, 5.0, 7.5]

    def test_half_circle_slices_low_bins(self, fmam, w128):
        sig, _ = fmam
        grid = tq.stft(sig, w128, 128)
        half = half_circle(grid)
        assert half.n_bins == 64
        assert half.freq_axis_hz[-1] == 63.0
        assert not half.invertible
        assert np.array_equal(half.data, grid.data[:, :64])


class TestAnalysis:
    def test_grid_is_the_stft_of_its_inputs(self, fmam, w128):
        sig, _ = fmam
        a = tq.Analysis(sig, w128, 128)
        assert (a.sig, a.w, a.nfft) == (sig, w128, 128)
        assert np.array_equal(a.grid.data, tq.stft(sig, w128, 128).data)

    def test_nfft_below_window_length_refused(self, fmam, w128):
        sig, _ = fmam
        with pytest.raises(InvalidParameterError):
            tq.Analysis(sig, w128, w128.taps - 1)

    def test_grid_of_2_31_cells_refused_before_any_framing(self, w128, monkeypatch):
        # the IF map and RM's targets hold flat cell indices in int32
        def refuse(*args):
            raise AssertionError("framed")

        monkeypatch.setattr(tfr, "frame_matrix", refuse)
        sig = tq.Signal(np.zeros(1 << 21), 128.0)
        with pytest.raises(InvalidParameterError, match="2097152 frames x 1024 bins"):
            tq.Analysis(sig, w128, 1024)

    @pytest.mark.parametrize("build", [tq.stft, tq.Analysis], ids=["stft", "Analysis"])
    def test_window_at_another_rate_refused(self, crossover, build):
        sig, _ = crossover  # 1024 Hz; the phase IF reads the window's taps in 1/s
        with pytest.raises(InvalidParameterError, match=r"128\.0 Hz.*1024\.0 Hz"):
            build(sig, tq.WindowSpec(0.02, 128.0), 1024)


class TestNearestBins:
    GRID = tq.TFRGrid(np.zeros((1, 8), complex), 0.0, 2.0, 1.0, "x", 16.0)  # 0..14 Hz

    def test_rounds_to_nearest_within_half_a_bin_of_the_axis(self):
        bins = nearest_bins(np.array([-1.0, 0.9, 1.1, 14.0, 15.0]), self.GRID, "x")
        assert bins.tolist() == [0, 0, 1, 7, 7]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 15.5, -1.5])
    def test_refuses_non_finite_and_off_axis_values(self, bad):
        with pytest.raises(InvalidParameterError, match="x range"):
            nearest_bins(np.array([4.0, bad]), self.GRID, "x")

    def test_every_track_consumer_refuses_non_finite_tracks(self, fmam, w128):
        sig, model = fmam
        grid = tq.stft(sig, w128, 128)
        for bad in (np.nan, np.inf):
            def track(t, bad=bad):
                return np.where(t < 0.5, 20.0, bad)

            with pytest.raises(InvalidParameterError, match="trajectory range"):
                tq.inject_if(grid, [track])
            with pytest.raises(InvalidParameterError, match="mode track range"):
                tq.mode_reconstruct(grid, track, 3.0)
            mode = tq.Mode(model.modes[0].amplitude, model.modes[0].phase_rad, track)
            with pytest.raises(InvalidParameterError, match="mode IF range"):
                ideal_tfr(tq.ModeModel((mode,)), grid)
