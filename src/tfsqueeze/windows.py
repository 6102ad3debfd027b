"""Symmetric Gaussian analysis windows and their measured frequency width.

The analysis window enters three transforms: plain (values), derivative
(d_values, for phase-based IF estimation) and time-weighted (t_values, for
group-delay estimation). All three are sampled on the same odd-length grid
centered at t = 0 so the center tap is exactly g(0) = 1, as tfr.stft's rho needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidParameterError

__all__ = ["WindowSpec", "halfwidth_bins"]

HALF_WIDTH_SIGMAS = 6.0


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class WindowSpec:
    """g(t) = exp(-t^2 / (2 sigma^2)) sampled at t = n/fs, |t| <= 6 sigma.

    The two scalars are the whole window: taps = 2*half + 1 is known before
    any tap is built, and values, d_values (g'(t) in 1/s) and t_values
    (t*g(t) in s) are computed on first use. The derivative taps use the
    analytic g'(t) = -t/sigma^2 * g(t), not a finite difference. The 6 sigma
    truncation keeps spectral leakage near 1e-8 of the peak, below the
    significance floor of the reassignment operators; a 4 sigma window leaks
    around 1e-5, enough to leave stray cells in extraction-style methods.

    sigma_s, fs_hz and their product must be finite and > 0; NaN fails too.
    """

    sigma_s: float
    fs_hz: float

    def __post_init__(self):
        if not (0.0 < self.sigma_s < np.inf and 0.0 < self.fs_hz < np.inf
                and HALF_WIDTH_SIGMAS * self.sigma_s * self.fs_hz < np.inf):
            raise InvalidParameterError(
                f"sigma_s={self.sigma_s}, fs_hz={self.fs_hz} and their product "
                "must be finite and > 0")
        object.__setattr__(self, "sigma_s", float(self.sigma_s))
        object.__setattr__(self, "fs_hz", float(self.fs_hz))

    @property
    def half(self) -> int:
        return int(np.floor(HALF_WIDTH_SIGMAS * self.sigma_s * self.fs_hz))

    @property
    def taps(self) -> int:
        """Tap count, odd and centred on g(0)."""
        return 2 * self.half + 1

    @property
    def _t(self) -> np.ndarray:
        return np.arange(-self.half, self.half + 1) / self.fs_hz

    @cached_property
    def values(self) -> np.ndarray:
        return _read_only(np.exp(-0.5 * (self._t / self.sigma_s) ** 2))

    @cached_property
    def d_values(self) -> np.ndarray:
        return _read_only(-self._t / self.sigma_s**2 * self.values)

    @cached_property
    def t_values(self) -> np.ndarray:
        return _read_only(self._t * self.values)


def halfwidth_bins(w: WindowSpec, nfft: int) -> int:
    """The window's measured -3 dB half width in whole DFT bins; at least 1.

    Scans bins upward from DC and returns the index of the first whose
    magnitude drops below peak * 10**(-3/20), or nfft // 2 if none does.
    Used as the default LMSST search radius.
    """
    if nfft < w.taps:
        raise InvalidParameterError("nfft must be at least the window length")
    mag = np.abs(np.fft.fft(w.values, n=nfft))
    threshold = mag[0] * 10.0 ** (-3.0 / 20.0)
    below = np.nonzero(mag[: nfft // 2 + 1] < threshold)[0]
    return max(1, int(below[0]) if below.size else nfft // 2)
