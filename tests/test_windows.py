import numpy as np
import pytest

import tfsqueeze as tq
from tfsqueeze.errors import InvalidParameterError
from tfsqueeze.windows import gaussian_length, halfwidth_bins


def scan_width_oracle(values: np.ndarray, fs: float, nfft: int) -> float:
    """Independent brute-force -3 dB scan over the DFT magnitude."""
    mag = np.abs(np.fft.fft(values, n=nfft))
    threshold = mag[0] * 10 ** (-3 / 20)
    k = 0
    while k <= nfft // 2 and mag[k] >= threshold:
        k += 1
    return 2.0 * min(k, nfft // 2) * fs / nfft


class TestGaussianWindow:
    def test_center_is_exactly_one(self):
        w = tq.gaussian_window(0.05, 128)
        assert w.center_value == 1.0
        assert w.values[w.half] == 1.0

    def test_odd_length_and_symmetry(self):
        for sigma, fs in [(0.05, 128), (0.02, 1024), (0.013, 777)]:
            w = tq.gaussian_window(sigma, fs)
            assert len(w) % 2 == 1
            assert np.array_equal(w.values, w.values[::-1])

    def test_antisymmetry_exact(self):
        w = tq.gaussian_window(0.03, 256)
        assert np.array_equal(w.d_values, -w.d_values[::-1])
        assert np.array_equal(w.t_values, -w.t_values[::-1])

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidParameterError):
            tq.gaussian_window(0.0, 128)
        with pytest.raises(InvalidParameterError):
            tq.gaussian_window(0.05, -1.0)

    @pytest.mark.parametrize("sigma, fs", [
        (np.nan, 128.0), (np.inf, 128.0), (-np.inf, 128.0), (0.05, np.nan),
        (0.05, np.inf), (1e300, 1e300),  # each finite, but the span is not
    ])
    def test_rejects_non_finite(self, sigma, fs):
        with pytest.raises(InvalidParameterError):
            gaussian_length(sigma, fs)
        with pytest.raises(InvalidParameterError):
            tq.gaussian_window(sigma, fs)

    @pytest.mark.parametrize("sigma, fs", [(0.05, 128), (0.02, 1024), (0.013, 777),
                                           (1e-9, 128)])
    def test_length_is_known_before_building(self, sigma, fs):
        assert gaussian_length(sigma, fs) == len(tq.gaussian_window(sigma, fs))

    def test_center_value_is_the_center_tap(self):
        # g(0) is read from the taps, so it cannot disagree with them
        w = tq.WindowSpec(np.array([0.5, 2.0, 0.5]), np.zeros(3), np.zeros(3), 0.1)
        assert w.center_value == 2.0
        with pytest.raises(InvalidParameterError):
            tq.WindowSpec(np.array([1.0, 0.0, 1.0]), np.zeros(3), np.zeros(3), 0.1)

    def test_truncation_tail_level(self):
        # the grid snaps inward of 6 sigma by at most one sample, so the
        # edge tap sits within exp(-0.5 * 5.5^2) of zero for sigma*fs >= 2
        w = tq.gaussian_window(0.05, 128)
        assert w.values[0] <= np.exp(-0.5 * 5.5**2)
        edge_t = w.half / 128.0
        assert w.values[0] == np.exp(-0.5 * (edge_t / 0.05) ** 2)

    @pytest.mark.parametrize("sigma,fs", [(0.0625, 1024), (0.125, 1024), (0.25, 1024)])
    def test_derivative_matches_finite_difference(self, sigma, fs):
        # FD truncation error ~ g'''/(6 fs^2); the 1e-6*fs budget needs
        # sigma*fs >= 64 (well-resolved window)
        w = tq.gaussian_window(sigma, fs)
        fd = (w.values[2:] - w.values[:-2]) * fs / 2.0
        assert np.abs(fd - w.d_values[1:-1]).max() <= 1e-6 * fs

    def test_finite_difference_gap_shrinks_quadratically(self):
        gaps = []
        for fs in (256.0, 512.0, 1024.0):
            w = tq.gaussian_window(0.05, fs)
            fd = (w.values[2:] - w.values[:-2]) * fs / 2.0
            gaps.append(np.abs(fd - w.d_values[1:-1]).max())
        assert 3.0 <= gaps[0] / gaps[1] <= 5.0
        assert 3.0 <= gaps[1] / gaps[2] <= 5.0


class TestResponseWidth:
    def test_matches_brute_force_scan(self):
        w = tq.gaussian_window(0.05, 128)
        assert tq.window_response_width(w, 128, 128) == \
            scan_width_oracle(w.values, 128, 128)

    def test_doubling_sigma_halves_width(self):
        # fine nfft so bin quantization stays below the 10% budget
        w1 = tq.gaussian_window(0.05, 128)
        w2 = tq.gaussian_window(0.10, 128)
        width1 = tq.window_response_width(w1, 128, 1024)
        width2 = tq.window_response_width(w2, 128, 1024)
        assert abs(width1 / width2 - 2.0) <= 0.2

    def test_width_positive(self):
        for sigma in (0.02, 0.05, 0.2):
            w = tq.gaussian_window(sigma, 256)
            assert tq.window_response_width(w, 256, 2048) > 0

    def test_nfft_smaller_than_window_rejected(self):
        w = tq.gaussian_window(0.05, 128)
        with pytest.raises(InvalidParameterError):
            tq.window_response_width(w, 128, len(w) - 1)

    def test_halfwidth_bins_at_least_one(self):
        w = tq.gaussian_window(0.5, 128)
        assert halfwidth_bins(w, 128, 1024) >= 1
