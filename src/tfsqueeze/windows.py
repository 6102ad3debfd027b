"""Symmetric Gaussian analysis windows and their measured frequency width.

The analysis window enters three transforms: plain (values), derivative
(d_values, for phase-based IF estimation) and time-weighted (t_values, for
group-delay estimation). All three are sampled on the same odd-length grid
centered at t = 0 so the center tap is exactly g(0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError

__all__ = ["WindowSpec", "gaussian_length", "gaussian_window", "window_response_width",
           "halfwidth_bins"]


@dataclass(frozen=True)
class WindowSpec:
    """Sampled symmetric window with derivative and time-weighted variants.

    values[i] samples g(t) at t = (i - half)/fs; d_values holds g'(t) in 1/s
    and t_values holds t*g(t) in s on the same grid. Length is odd and
    values[half] is g(0), which must be nonzero for reconstruction.
    """

    values: np.ndarray
    d_values: np.ndarray
    t_values: np.ndarray
    sigma_s: float

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        d_values = np.asarray(self.d_values, dtype=float)
        t_values = np.asarray(self.t_values, dtype=float)
        if values.ndim != 1 or values.size % 2 == 0:
            raise InvalidParameterError("window length must be odd")
        if d_values.shape != values.shape or t_values.shape != values.shape:
            raise InvalidParameterError("window variants must share one length")
        for arr in (values, d_values, t_values):
            arr.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "d_values", d_values)
        object.__setattr__(self, "t_values", t_values)
        if self.center_value == 0.0:
            raise InvalidParameterError("g(0) must be nonzero for reconstruction")

    def __len__(self):
        return self.values.size

    @property
    def half(self) -> int:
        return (len(self) - 1) // 2

    @property
    def center_value(self) -> float:
        """g(0), the tap the STFT's reconstruction factor divides by."""
        return float(self.values[self.half])


HALF_WIDTH_SIGMAS = 6.0


def gaussian_length(sigma_s: float, fs_hz: float) -> int:
    """Tap count of gaussian_window(sigma_s, fs_hz), known before it is built.

    sigma_s, fs_hz and their product must be finite and > 0; NaN fails too."""
    span = HALF_WIDTH_SIGMAS * sigma_s * fs_hz
    if not (0.0 < sigma_s < np.inf and 0.0 < fs_hz < np.inf and span < np.inf):
        raise InvalidParameterError(
            f"sigma_s={sigma_s}, fs_hz={fs_hz} and their product must be finite and > 0")
    return 2 * int(np.floor(span)) + 1


def gaussian_window(sigma_s: float, fs_hz: float) -> WindowSpec:
    """Sample g(t) = exp(-t^2 / (2 sigma^2)) at t = n/fs, |t| <= 6 sigma.

    The derivative taps use the analytic g'(t) = -t/sigma^2 * g(t), not a
    finite difference. The 6 sigma truncation keeps spectral leakage near
    1e-8 of the peak, below the significance floor of the reassignment
    operators; a 4 sigma window leaks around 1e-5, enough to leave stray
    cells in extraction-style methods.
    """
    half = gaussian_length(sigma_s, fs_hz) // 2
    t = np.arange(-half, half + 1) / fs_hz
    values = np.exp(-0.5 * (t / sigma_s) ** 2)
    d_values = -t / sigma_s**2 * values
    t_values = t * values
    return WindowSpec(values, d_values, t_values, float(sigma_s))


def window_response_width(w: WindowSpec, fs_hz: float, nfft: int) -> float:
    """Measured -3 dB full width of the window's DFT magnitude, in Hz.

    Scans bins upward from DC and doubles the index of the first bin whose
    magnitude drops below peak * 10**(-3/20). Used to pick ridge-separation
    thresholds and the default LMSST search radius.
    """
    if nfft < len(w):
        raise InvalidParameterError("nfft must be at least the window length")
    mag = np.abs(np.fft.fft(w.values, n=nfft))
    threshold = mag[0] * 10.0 ** (-3.0 / 20.0)
    below = np.nonzero(mag[: nfft // 2 + 1] < threshold)[0]
    k_edge = int(below[0]) if below.size else nfft // 2
    return 2.0 * k_edge * fs_hz / nfft


def halfwidth_bins(w: WindowSpec, fs_hz: float, nfft: int) -> int:
    """-3 dB half width rounded up to whole bins; at least 1."""
    width_hz = window_response_width(w, fs_hz, nfft)
    return max(1, int(np.ceil(width_hz / 2.0 / (fs_hz / nfft))))
