"""Hop-1 STFT analysis, its exact per-frame inverse, and the shared grid type.

The transform follows V[n, k] = sum_p s[n+p] * g[p] * exp(-j*2*pi*k*p/nfft)
with zero extension of s beyond its ends. Because the DFT kernel sums to
nfft at p = 0 and to zero elsewhere, summing a frame over the full DFT
circle returns nfft * g(0) * s[n] exactly, which is what makes every
frequency-only post-processor in this package invertible.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidParameterError, NonInvertibleGridError
from .signals import Signal
from .windows import WindowSpec

__all__ = ["TFRGrid", "Analysis", "stft", "istft", "regroup", "nearest_bins",
           "half_circle", "MAX_GRID_CELLS"]

# hop-1 grids are dense (n_samples x nfft complex): cap the cell count so a
# long recording or a grid file's shape fails fast instead of exhausting memory
MAX_GRID_CELLS = 1 << 27


@dataclass(frozen=True)
class TFRGrid:
    """Complex surface over (time frame, frequency bin).

    data[n, k] is the coefficient at time t0_s + n / source_fs_hz (one frame
    per sample) and frequency k * df_hz; time_axis_s and freq_axis_hz derive
    from this sampling. rho maps a frame's frequency sum back to the signal
    sample; NaN marks a non-invertible grid (reassignment-method output).
    """

    data: np.ndarray
    t0_s: float
    df_hz: float
    rho: float
    method_tag: str
    source_fs_hz: float

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.complex128)
        if data.ndim != 2:
            raise InvalidParameterError("grid data must be 2-D")
        if not np.all(np.isfinite(data)):
            raise InvalidParameterError(f"{self.method_tag} grid entries must be finite")
        # written so that NaN fails every comparison
        if not -np.inf < self.t0_s < np.inf:
            raise InvalidParameterError(f"t0_s={self.t0_s} must be finite")
        for value, name in ((self.df_hz, "df_hz"), (self.source_fs_hz, "source_fs_hz")):
            if not 0.0 < value < np.inf:
                raise InvalidParameterError(f"{name}={value} must be finite and > 0")
        data.setflags(write=False)
        object.__setattr__(self, "data", data)
        for name in ("t0_s", "df_hz", "rho", "source_fs_hz"):
            object.__setattr__(self, name, float(getattr(self, name)))

    @property
    def n_frames(self) -> int:
        return self.data.shape[0]

    @property
    def n_bins(self) -> int:
        return self.data.shape[1]

    @property
    def time_axis_s(self) -> np.ndarray:
        return self.t0_s + np.arange(self.n_frames) / self.source_fs_hz

    @property
    def freq_axis_hz(self) -> np.ndarray:
        return np.arange(self.n_bins) * self.df_hz

    @property
    def invertible(self) -> bool:
        return bool(np.isfinite(self.rho))

    def with_data(self, data: np.ndarray, method_tag: str | None = None,
                  rho: float | None = None) -> "TFRGrid":
        """Same sampling, new coefficients; optionally a new tag or rho."""
        return replace(
            self,
            data=data,
            method_tag=self.method_tag if method_tag is None else method_tag,
            rho=self.rho if rho is None else rho,
        )


def frame_matrix(sig: Signal, weights: np.ndarray, nfft: int) -> np.ndarray:
    """Windowed transform of every hop-1 frame for arbitrary window taps.

    Returns the (n_frames, nfft) complex matrix
    sum_p s[n+p] * weights[p + half] * exp(-j*2*pi*k*p/nfft). Used with the
    window's value, derivative and time-weighted taps alike.
    """
    length = weights.size
    half = (length - 1) // 2
    if nfft < length:
        raise InvalidParameterError(f"nfft={nfft} smaller than window length {length}")
    padded = np.pad(sig.samples, half)
    frames = np.lib.stride_tricks.sliding_window_view(padded, length) * weights
    # place offset p=0 at DFT index 0 so the kernel applies to p, not array index
    buf = np.zeros((len(sig), nfft), dtype=np.complex128)
    buf[:, : half + 1] = frames[:, half:]
    buf[:, nfft - half:] = frames[:, :half]
    return np.fft.fft(buf, axis=1)


def stft(sig: Signal, w: WindowSpec, nfft: int) -> TFRGrid:
    """Hop-1 short-time Fourier transform over the full DFT circle.

    Frequency bins are k * fs / nfft for k in [0, nfft); rho is
    1 / (nfft * g(0)) so that istft is exact. The window must be sampled at
    the signal's rate, since the phase-IF estimates read its taps in 1/s.
    """
    if w.fs_hz != sig.sample_rate_hz:
        raise InvalidParameterError(
            f"window sampled at {w.fs_hz} Hz, signal at {sig.sample_rate_hz} Hz")
    data = frame_matrix(sig, w.values, nfft)
    fs = sig.sample_rate_hz
    rho = 1.0 / (nfft * w.center_value)
    return TFRGrid(data, sig.t0_s, fs / nfft, rho, "stft", fs)


@dataclass(frozen=True)
class Analysis:
    """A signal's hop-1 STFT together with the window and DFT size it came from.

    Every method post-processes this one grid, so it is computed once, at
    construction, and always belongs to sig, w and nfft. The derivative-window
    and time-weighted transforms are not kept: each method that needs one
    computes it, so at most one of them is alive at a time.
    """

    sig: Signal
    w: WindowSpec
    nfft: int
    grid: TFRGrid = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "grid", stft(self.sig, self.w, self.nfft))


def istft(grid: TFRGrid) -> Signal:
    """Per-frame inverse: s[n] = rho * sum_k V[n, k].

    Exact (to rounding) for any grid whose construction conserved frame sums.
    """
    if not grid.invertible:
        raise NonInvertibleGridError(
            f"grid {grid.method_tag!r} has no finite reconstruction factor"
        )
    with np.errstate(all="ignore"):  # an overflowed sum is refused below
        samples = grid.rho * grid.data.sum(axis=1)
    if not np.all(np.isfinite(samples)):
        raise InvalidParameterError(
            f"inverting the {grid.method_tag} grid overflows the float range")
    return Signal(samples, grid.source_fs_hz, grid.t0_s)


def regroup(grid: TFRGrid, dest: np.ndarray, method_tag: str) -> TFRGrid:
    """Add every coefficient V[n, k] into bin dest[n, k] of its own frame n.

    This is the one move of every invertible post-processor here (SST, LMSST
    and the squeeze): coefficients never leave their frame, so each frame sum
    is kept and the output inverts through istft with the source grid's rho.
    dest is an integer (n_frames, n_bins) array of bins in [0, n_bins).

    Each run of consecutive cells sharing a destination is summed with one
    reduceat, so a contiguous basin adds up exactly as a per-frame reduceat
    would; the run sums are then added into the zeroed output.
    """
    n_frames, n_bins = grid.data.shape
    if dest.shape != grid.data.shape:
        raise InvalidParameterError(
            f"destinations {dest.shape} do not match grid {grid.data.shape}")
    if dest.min() < 0 or dest.max() >= n_bins:
        raise InvalidParameterError(f"destination bins must lie in [0, {n_bins})")
    run_start = np.ones(dest.shape, dtype=bool)  # a frame always starts a run
    run_start[:, 1:] = dest[:, 1:] != dest[:, :-1]
    starts = np.flatnonzero(run_start)
    # each run's flat target cell, frame base plus bin, summed in place to spare a copy
    target = np.repeat(np.arange(n_frames) * n_bins, run_start.sum(axis=1))
    target += dest.ravel()[starts]
    out = np.zeros(n_frames * n_bins, dtype=np.complex128)
    with np.errstate(over="ignore"):  # TFRGrid refuses an overflowed sum
        np.add.at(out, target, np.add.reduceat(grid.data.ravel(), starts))
    return grid.with_data(out.reshape(n_frames, n_bins), method_tag=method_tag)


def nearest_bins(values_hz: np.ndarray, grid: TFRGrid, what: str) -> np.ndarray:
    """Index of the bin nearest each frequency on the grid's frequency axis.

    Raises InvalidParameterError, calling the values what, unless every one is
    finite and within half a bin of the axis; the check is a conjunction of >=
    and <=, which NaN fails, so no NaN reaches the integer cast.
    """
    values = np.asarray(values_hz, dtype=float)
    f, df_hz = grid.freq_axis_hz, grid.df_hz
    if not np.all((values >= f[0] - df_hz / 2) & (values <= f[-1] + df_hz / 2)):
        raise InvalidParameterError(
            f"{what} range [{values.min()}, {values.max()}] Hz must be finite "
            f"and within the frequency axis [{f[0]}, {f[-1]}] Hz"
        )
    return np.clip(np.rint((values - f[0]) / df_hz).astype(np.int64), 0, f.size - 1)


def half_circle(grid: TFRGrid) -> TFRGrid:
    """Slice to the bins below fs/2 for display and ridge work on real signals.

    Bin k lies below fs/2 when 2k < n_bins, so (n_bins + 1) // 2 bins are
    kept: at least one, and the last one too when n_bins is odd. The slice is
    not invertible by the frame-sum formula, so rho is dropped.
    """
    keep = (grid.n_bins + 1) // 2
    return replace(grid, data=grid.data[:, :keep], rho=float("nan"),
                   method_tag=grid.method_tag + "+half")
