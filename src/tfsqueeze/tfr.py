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
from functools import cached_property

import numpy as np

from .errors import InvalidParameterError, NonInvertibleGridError
from .signals import Signal
from .windows import WindowSpec

__all__ = ["TFRGrid", "Analysis", "stft", "istft", "regroup", "nearest_bins",
           "MAX_GRID_CELLS"]

# hop-1 grids are dense (n_samples x nfft complex): cap the cell count so a
# long recording or a grid file's shape fails fast instead of exhausting memory
MAX_GRID_CELLS = 1 << 27
# coefficients at or below this fraction of the grid's peak magnitude have no
# usable phase; the IF map leaves them on their own bin
SIGNIFICANCE_FLOOR = 1e-8
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


def frame_matrix(sig: Signal, weights: np.ndarray, nfft: int) -> Callable[[slice], np.ndarray]:
    """Windowed transform of hop-1 frames for arbitrary window taps.

    Checks nfft against the taps and returns framed(rows), which gives the
    (frames, nfft) complex matrix sum_p s[n+p] * weights[p + half] *
    exp(-j*2*pi*k*p/nfft) of the frames n in rows as a fresh array. Used with
    the window's value, derivative and time-weighted taps alike; each reader
    frames its own blocks, so no whole transform but the STFT is ever held.
    """
    length = weights.size
    half = (length - 1) // 2
    if nfft < length:
        raise InvalidParameterError(f"nfft={nfft} smaller than window length {length}")
    frames = np.lib.stride_tricks.sliding_window_view(np.pad(sig.samples, half), length)

    def framed(rows: slice) -> np.ndarray:
        windowed = frames[rows] * weights
        # place offset p=0 at DFT index 0 so the kernel applies to p, not array index
        buf = np.zeros((windowed.shape[0], nfft), dtype=np.complex128)
        buf[:, : half + 1] = windowed[:, half:]
        buf[:, nfft - half:] = windowed[:, :half]
        with np.errstate(over="ignore", invalid="ignore"):  # TFRGrid refuses a non-finite sum
            return np.fft.fft(buf, axis=1)

    return framed


def stft(sig: Signal, w: WindowSpec, nfft: int) -> TFRGrid:
    """Hop-1 short-time Fourier transform over the full DFT circle.

    Frequency bins are k * fs / nfft for k in [0, nfft); rho is 1 / nfft, exact for
    istft since the window's centre tap g(0) is 1. The window must be sampled at the
    signal's rate, since the phase-IF estimates read its taps in 1/s.
    """
    if w.fs_hz != sig.sample_rate_hz:
        raise InvalidParameterError(
            f"window sampled at {w.fs_hz} Hz, signal at {sig.sample_rate_hz} Hz")
    framed = frame_matrix(sig, w.values, nfft)
    data = np.empty((len(sig), nfft), dtype=np.complex128)

    def block(rows):
        data[rows] = framed(rows)

    _by_frame_blocks(block, data.shape)
    fs = sig.sample_rate_hz
    return TFRGrid(data, sig.t0_s, fs / nfft, 1.0 / nfft, "stft", fs)


@dataclass(frozen=True)
class Analysis:
    """A signal's hop-1 STFT together with the window and DFT size it came from.

    Every method post-processes this one grid, so it is computed once, at
    construction, and always belongs to sig, w and nfft. The phase IF map
    (if_bins), which SST, SET and RM all read, is computed on first use and
    kept with the grid. The derivative-window and time-weighted transforms
    are never held whole: their readers frame them block by block. A grid
    of 2^31 cells or more is refused before any framing, so that the map is
    at most int32 and RM's flat cell targets, held as float64, are exact.
    """

    sig: Signal
    w: WindowSpec
    nfft: int
    grid: TFRGrid = field(init=False)

    def __post_init__(self):
        if len(self.sig) * self.nfft >= 1 << 31:
            raise InvalidParameterError(f"grid of {len(self.sig)} frames x {self.nfft} bins "
                                        "reaches 2^31 cells; its cell indices must fit int32")
        object.__setattr__(self, "grid", stft(self.sig, self.w, self.nfft))

    @property
    def floor(self) -> float:
        """The significance floor: a cell with |V| at or below it has no usable phase."""
        return SIGNIFICANCE_FLOOR * self.grid.frame_peaks.max()

    @cached_property
    def if_bins(self) -> np.ndarray:
        """Phase-derived IF of every cell of the grid, as a DFT bin.

        A read-only array of the grid's shape, in the narrowest signed type
        holding -n_bins, so no reader's arithmetic wraps: bin[n, k] is the bin
        the coefficient at bin k belongs to, f_hat = f_k - Im(V_dg / V) / (2*pi)
        from the derivative-window transform framed block by block, rounded to
        the nearest bin and wrapped on the DFT circle. Where |V| is at or below
        the significance floor, the bin is the cell's own; readers that treat
        such cells apart test |V| against the floor themselves.
        """
        grid = self.grid
        framed = frame_matrix(self.sig, self.w.d_values, self.nfft)
        floor, f_hz = self.floor, grid.freq_axis_hz
        bins = np.empty(grid.data.shape, dtype=np.min_scalar_type(-grid.n_bins))

        def block(rows):
            r, v = framed(rows), grid.data[rows]
            # V = 0 is insignificant; a near-limit V overflows numpy's scaled division
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                np.divide(r, v, out=r)
            f = np.imag(r) / (2.0 * np.pi)
            np.subtract(f_hz, f, out=f)
            np.copyto(f, f_hz, where=np.abs(v) <= floor)
            f /= grid.df_hz
            np.remainder(np.rint(f, out=f).astype(np.int64), grid.n_bins, out=bins[rows])

        _by_frame_blocks(block, bins.shape)
        bins.setflags(write=False)
        return bins


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
    would; the run sums are then added into the block's zeroed output rows.
    Those rows are the source's own where its data is writable (_output):
    the rule and the run sums have read the block's frames by then, and no
    block reads another's.
    """
    data, n_bins = grid.data, grid.n_bins
    out = _output(data)

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
            sums = np.add.reduceat(v.ravel(), starts)
            out[rows] = 0.0  # v may view these rows when out is data: zero them only now
            np.add.at(out[rows].reshape(-1), target, sums)

    _by_frame_blocks(block, data.shape)
    return replace(grid, data=out, method_tag=method_tag)


def _output(data: np.ndarray) -> np.ndarray:
    """Where an in-frame method writes its output: over data itself when it
    is writable, else into a fresh array of its shape. Either way the
    method writes every row of it.

    A TFRGrid's data is always read-only, so a grid's cells are written over
    only where its owner has made them writable again: the CLI's analyze,
    which lends its STFT to the one method it runs, since nothing reads the
    STFT after it. Every other caller gets a fresh output and keeps its grid.
    """
    return data if data.flags.writeable else np.empty(data.shape, dtype=np.complex128)


def nearest_bins(values_hz: np.ndarray, grid: TFRGrid, what: str) -> np.ndarray:
    """Index of the bin nearest each frequency on the grid's frequency axis.

    Raises InvalidParameterError, calling the values what, unless every one is
    finite and within half a bin of the axis (_check_on_axis).
    """
    values = _check_on_axis(values_hz, grid.df_hz, grid.n_bins, what)
    return np.clip(np.rint(values / grid.df_hz).astype(np.int64), 0, grid.n_bins - 1)


def _check_on_axis(values_hz: np.ndarray, df_hz: float, n_bins: int, what: str) -> np.ndarray:
    """values_hz as floats, once every one is finite and within half a bin of
    the axis of n_bins bins df_hz apart from 0 Hz; NaN fails the >= and <=."""
    values = np.asarray(values_hz, dtype=float)
    top = (n_bins - 1) * df_hz
    if not np.all((values >= -df_hz / 2) & (values <= top + df_hz / 2)):
        raise InvalidParameterError(
            f"{what} range [{values.min()}, {values.max()}] Hz must be finite "
            f"and within the frequency axis [0.0, {top}] Hz"
        )
    return values
