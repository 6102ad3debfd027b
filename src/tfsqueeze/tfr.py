"""Hop-1 STFT analysis, its exact per-frame inverse, and the shared grid type.

The transform follows V[n, k] = sum_p s[n+p] * g[p] * exp(-j*2*pi*k*p/nfft)
with zero extension of s beyond its ends. Because the DFT kernel sums to
nfft at p = 0 and to zero elsewhere, summing a frame over the full DFT
circle returns nfft * g(0) * s[n] exactly, which is what makes every
frequency-only post-processor in this package invertible.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidParameterError, NonInvertibleGridError, ShapeMismatchError
from .signals import Signal
from .windows import WindowSpec

__all__ = ["TFRGrid", "stft", "istft", "regroup", "energy", "half_circle"]


@dataclass(frozen=True)
class TFRGrid:
    """Complex surface over (time frame, frequency bin).

    data[n, k] is the coefficient at time_axis_s[n], freq_axis_hz[k].
    rho is the scalar that maps a frame's frequency sum back to the signal
    sample; NaN marks a non-invertible grid (reassignment-method output).
    """

    data: np.ndarray
    time_axis_s: np.ndarray
    freq_axis_hz: np.ndarray
    rho: float
    method_tag: str
    source_fs_hz: float

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.complex128)
        t = np.asarray(self.time_axis_s, dtype=float)
        f = np.asarray(self.freq_axis_hz, dtype=float)
        if data.ndim != 2:
            raise ShapeMismatchError("grid data must be 2-D")
        if data.shape != (t.size, f.size):
            raise ShapeMismatchError(
                f"data shape {data.shape} does not match axes ({t.size}, {f.size})"
            )
        for axis, name in ((t, "time"), (f, "frequency")):
            if axis.size > 1:
                steps = np.diff(axis)
                if np.any(steps <= 0) or not np.allclose(steps, steps[0], rtol=1e-9, atol=0):
                    raise InvalidParameterError(f"{name} axis must increase uniformly")
        if t.size > 1 and abs((t[1] - t[0]) * self.source_fs_hz - 1.0) > 1e-9:
            raise InvalidParameterError("time axis must advance one sample per frame")
        if not np.all(np.isfinite(data)):
            raise InvalidParameterError("grid entries must be finite")
        for arr in (data, t, f):
            arr.setflags(write=False)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "time_axis_s", t)
        object.__setattr__(self, "freq_axis_hz", f)
        object.__setattr__(self, "rho", float(self.rho))
        object.__setattr__(self, "source_fs_hz", float(self.source_fs_hz))

    @property
    def n_frames(self) -> int:
        return self.data.shape[0]

    @property
    def n_bins(self) -> int:
        return self.data.shape[1]

    @property
    def dt_s(self) -> float:
        return 1.0 / self.source_fs_hz

    @property
    def df_hz(self) -> float:
        return float(self.freq_axis_hz[1] - self.freq_axis_hz[0]) if self.n_bins > 1 \
            else self.source_fs_hz

    @property
    def invertible(self) -> bool:
        return bool(np.isfinite(self.rho))

    def with_data(self, data: np.ndarray, method_tag: str | None = None,
                  rho: float | None = None) -> "TFRGrid":
        """Same axes, new coefficients; optionally a new tag or rho."""
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
    padded = np.concatenate([
        np.zeros(half, dtype=np.complex128),
        sig.samples,
        np.zeros(half, dtype=np.complex128),
    ])
    frames = np.lib.stride_tricks.sliding_window_view(padded, length) * weights
    # place offset p=0 at DFT index 0 so the kernel applies to p, not array index
    buf = np.zeros((len(sig), nfft), dtype=np.complex128)
    buf[:, : half + 1] = frames[:, half:]
    if half:
        buf[:, nfft - half:] = frames[:, :half]
    return np.fft.fft(buf, axis=1)


def stft(sig: Signal, w: WindowSpec, nfft: int) -> TFRGrid:
    """Hop-1 short-time Fourier transform over the full DFT circle.

    Frequency bins are k * fs / nfft for k in [0, nfft); rho is
    1 / (nfft * g(0)) so that istft is exact.
    """
    data = frame_matrix(sig, w.values, nfft)
    fs = sig.sample_rate_hz
    freq_axis = np.arange(nfft) * fs / nfft
    rho = 1.0 / (nfft * w.center_value)
    return TFRGrid(data, sig.times_s, freq_axis, rho, "stft", fs)


def istft(grid: TFRGrid) -> Signal:
    """Per-frame inverse: s[n] = rho * sum_k V[n, k].

    Exact (to rounding) for any grid whose construction conserved frame sums.
    """
    if not grid.invertible:
        raise NonInvertibleGridError(
            f"grid {grid.method_tag!r} has no finite reconstruction factor"
        )
    samples = grid.rho * grid.data.sum(axis=1)
    return Signal(samples, grid.source_fs_hz, float(grid.time_axis_s[0]))


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
        raise ShapeMismatchError(
            f"destinations {dest.shape} do not match grid {grid.data.shape}")
    if dest.min() < 0 or dest.max() >= n_bins:
        raise InvalidParameterError(f"destination bins must lie in [0, {n_bins})")
    run_start = np.ones(dest.shape, dtype=bool)  # a frame always starts a run
    run_start[:, 1:] = dest[:, 1:] != dest[:, :-1]
    starts = np.flatnonzero(run_start)
    sums = np.add.reduceat(grid.data.ravel(), starts)
    frame_base = np.repeat(np.arange(n_frames) * n_bins, run_start.sum(axis=1))
    out = np.zeros(n_frames * n_bins, dtype=np.complex128)
    np.add.at(out, frame_base + dest.ravel()[starts], sums)
    return grid.with_data(out.reshape(n_frames, n_bins), method_tag=method_tag)


def energy(grid: TFRGrid) -> float:
    """Cell-weighted energy sum |V|^2 * dt * df."""
    return float(np.sum(np.abs(grid.data) ** 2) * grid.dt_s * grid.df_hz)


def half_circle(grid: TFRGrid) -> TFRGrid:
    """Slice to the bins below fs/2 for display and ridge work on real signals.

    The slice is not invertible by the frame-sum formula, so rho is dropped.
    """
    keep = grid.n_bins // 2
    return TFRGrid(
        grid.data[:, :keep],
        grid.time_axis_s,
        grid.freq_axis_hz[:keep],
        rho=float("nan"),
        method_tag=grid.method_tag + "+half",
        source_fs_hz=grid.source_fs_hz,
    )
