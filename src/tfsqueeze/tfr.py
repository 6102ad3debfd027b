"""Hop-1 STFT analysis, its exact per-frame inverse, and the shared grid type.

The transform follows V[n, k] = sum_p s[n+p] * g[p] * exp(-j*2*pi*k*p/nfft)
with zero extension of s beyond its ends. Because the DFT kernel sums to
nfft at p = 0 and to zero elsewhere, summing a frame over the full DFT
circle returns nfft * g(0) * s[n] exactly, which is what makes every
frequency-only post-processor in this package invertible.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidParameterError, NonInvertibleGridError
from .signals import Signal
from .windows import WindowSpec

__all__ = ["TFRGrid", "Analysis", "stft", "istft", "regroup", "nearest_bins",
           "MAX_GRID_CELLS"]

# hop-1 grids are dense (n_samples x nfft complex): cap the cell count so a
# long recording or a grid file's shape fails fast instead of exhausting memory
MAX_GRID_CELLS = 1 << 27
# cells per block of frames (1 MiB of complex128), so that a block's
# transients stay in one core's cache
_BLOCK_CELLS = 1 << 16
# each thread holds one block's transients, a few MiB; the cap bounds that
# extra memory on a many-core host
_MAX_THREADS = 8


def _frames_per_block(n_bins: int) -> int:
    return max(1, _BLOCK_CELLS // max(1, n_bins))


def _by_frame_blocks(fn, shape: tuple[int, int]) -> list:
    """Call fn(rows) on consecutive frame slices that cover the frames of a
    grid of shape (n_frames, n_bins) and return what each call returned, in
    frame order.

    The blocks run on one thread per CPU of the process's affinity mask, at
    most _MAX_THREADS, the caller's thread included; on one CPU, or for one
    block, no thread starts. So fn writes per-frame results into its own
    rows of arrays allocated before; what it returns, its part, is held
    until every block has run and so must be far smaller than a block,
    which per-frame values are not on a one-bin grid. fn calls numpy, which
    releases the GIL, and may call the package's private block helpers
    (ridges._strict_maxima, metrics._pixels), which perfbench does not
    wrap, but never a public function: its callers (a profiler, perfbench's
    span recorder) may track one call stack. Threads start with numpy's
    default errstate, so fn sets its own. The split depends only on the
    grid's shape, so results do not depend on the CPU count. If blocks
    raise, the lowest one's exception is raised here once every thread has
    ended, as the first one would be in a plain loop: blocks are claimed in
    order, so every block before it has run.
    """
    from .io_export import _quota_cpus  # io_export, which reads every file, imports tfr
    n_frames, n_bins = shape
    step = _frames_per_block(n_bins)
    # a grid of no frames is one empty block, so there is a part to return
    blocks = [slice(lo, min(lo + step, n_frames)) for lo in range(0, max(1, n_frames), step)]
    # where the platform has no affinity mask (macOS, Windows), every CPU;
    # a cgroup v2 quota, which the mask does not see, caps the threads too
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    n_threads = min(len(blocks), cpus or 1, _quota_cpus() or _MAX_THREADS, _MAX_THREADS)
    parts = [None] * len(blocks)
    pending = list(reversed(range(len(blocks))))  # popped lowest first
    lock = threading.Lock()
    errors = {}

    def work():
        while True:
            with lock:
                if not pending:
                    return
                i = pending.pop()
            try:
                parts[i] = fn(blocks[i])
            except BaseException as exc:  # re-raised in the caller's thread
                with lock:
                    errors[i] = exc
                    pending.clear()

    threads = [threading.Thread(target=work) for _ in range(n_threads - 1)]
    try:
        for t in threads:
            t.start()
        work()
    finally:
        # an interrupt reaches only this thread, and may land outside a
        # block: no thread claims another, each ends after its current one
        with lock:
            pending.clear()
        for t in threads:
            if t.ident is not None:  # started
                t.join()
    if errors:
        raise errors[min(errors)]
    return parts


@dataclass(frozen=True)
class TFRGrid:
    """Complex surface over (time frame, frequency bin).

    data[n, k] is the coefficient at time t0_s + n / source_fs_hz (one frame
    per sample) and frequency k * df_hz; time_axis_s and freq_axis_hz derive
    from this sampling. rho maps a frame's frequency sum back to the signal
    sample; NaN marks a non-invertible grid (reassignment-method output).
    One pass at construction keeps, read-only, frame_peaks (max |V|) and frame_sums.
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
        peaks, sums = np.empty(data.shape[0]), np.empty(data.shape[0], dtype=np.complex128)

        def block(rows):
            v = data[rows]
            with np.errstate(over="ignore", invalid="ignore"):  # a finite |V| or sum may overflow
                np.max(np.abs(v), axis=1, initial=0.0, out=peaks[rows])  # initial: 0-bin grids
                np.sum(v, axis=1, out=sums[rows])
            # a peak is finite unless a cell is not or its |V| overflowed; only then read the cells
            if not (np.isfinite(peaks[rows]).all() or np.isfinite(v).all()):
                raise InvalidParameterError(f"{self.method_tag} grid entries must be finite")

        _by_frame_blocks(block, data.shape)
        # written so that NaN fails every comparison
        if not -np.inf < self.t0_s < np.inf:
            raise InvalidParameterError(f"t0_s={self.t0_s} must be finite")
        for value, name in ((self.df_hz, "df_hz"), (self.source_fs_hz, "source_fs_hz")):
            if not 0.0 < value < np.inf:
                raise InvalidParameterError(f"{name}={value} must be finite and > 0")
        for name, array in (("data", data), ("frame_peaks", peaks), ("frame_sums", sums)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)
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

    def with_data(self, data: np.ndarray) -> "TFRGrid":
        """Same sampling, rho and tag, new coefficients. The package calls
        dataclasses.replace; this stays for perfbench's tests, which call it."""
        return replace(self, data=data)


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
    frames = np.lib.stride_tricks.sliding_window_view(padded, length)
    out = np.empty((len(sig), nfft), dtype=np.complex128)

    def block(rows):
        windowed = frames[rows] * weights
        # place offset p=0 at DFT index 0 so the kernel applies to p, not array index
        buf = np.zeros((windowed.shape[0], nfft), dtype=np.complex128)
        buf[:, : half + 1] = windowed[:, half:]
        buf[:, nfft - half:] = windowed[:, :half]
        with np.errstate(over="ignore", invalid="ignore"):  # TFRGrid refuses a non-finite sum
            out[rows] = np.fft.fft(buf, axis=1)

    _by_frame_blocks(block, out.shape)
    return out


def stft(sig: Signal, w: WindowSpec, nfft: int) -> TFRGrid:
    """Hop-1 short-time Fourier transform over the full DFT circle.

    Frequency bins are k * fs / nfft for k in [0, nfft); rho is 1 / nfft, exact for
    istft since the window's centre tap g(0) is 1. The window must be sampled at the
    signal's rate, since the phase-IF estimates read its taps in 1/s.
    """
    if w.fs_hz != sig.sample_rate_hz:
        raise InvalidParameterError(
            f"window sampled at {w.fs_hz} Hz, signal at {sig.sample_rate_hz} Hz")
    data = frame_matrix(sig, w.values, nfft)
    fs = sig.sample_rate_hz
    return TFRGrid(data, sig.t0_s, fs / nfft, 1.0 / nfft, "stft", fs)


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
    with np.errstate(all="ignore"):  # an overflowed sample is refused below
        samples = grid.rho * grid.frame_sums
    if not np.all(np.isfinite(samples)):
        raise InvalidParameterError(
            f"inverting the {grid.method_tag} grid overflows the float range")
    return Signal(samples, grid.source_fs_hz, grid.t0_s)


def regroup(grid: TFRGrid, rule: Callable[[slice], tuple[np.ndarray, np.ndarray]],
            method_tag: str) -> TFRGrid:
    """Add every value v[n, k] of a frame into bin dest[n, k] of that frame n.

    This is the one move of every invertible post-processor here (SST, LMSST
    and the squeeze): coefficients never leave their frame, so each frame sum
    of the moved values is kept and the output inverts through istft with
    the source grid's rho. Each method is a rule: rule(rows), called once per
    block of frames under the frame-block contract, returns (dest, v) for
    those frames, two (frames, n_bins) arrays: integer destinations, bins in
    [0, n_bins), and the values to move, the grid's own cells or a filtered
    copy of them.

    Each run of consecutive cells sharing a destination is summed with one
    reduceat, so a contiguous basin adds up exactly as a per-frame reduceat
    would; the run sums are then added into the zeroed output.
    """
    data, n_bins = grid.data, grid.n_bins
    out = np.zeros(data.shape, dtype=np.complex128)

    def block(rows):
        d, v = rule(rows)
        if not d.shape == v.shape == data[rows].shape:
            raise InvalidParameterError(f"block destinations {d.shape} and values "
                                        f"{v.shape} do not match grid {data.shape}")
        if d.size and (d.min() < 0 or d.max() >= n_bins):  # a grid may have no frames
            raise InvalidParameterError(f"destination bins must lie in [0, {n_bins})")
        run_start = np.ones(d.shape, dtype=bool)  # a frame always starts a run
        run_start[:, 1:] = d[:, 1:] != d[:, :-1]
        starts = np.flatnonzero(run_start)
        # each run's flat target cell, frame base plus bin, summed in place to spare a copy
        target = np.repeat(np.arange(d.shape[0]) * n_bins, run_start.sum(axis=1))
        target += d.ravel()[starts]
        with np.errstate(over="ignore"):  # TFRGrid refuses an overflowed sum
            np.add.at(out[rows].reshape(-1), target, np.add.reduceat(v.ravel(), starts))

    _by_frame_blocks(block, data.shape)
    return replace(grid, data=out, method_tag=method_tag)


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
