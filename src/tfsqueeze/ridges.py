"""Ridge detection and frequency-axis partitioning for IF estimation.

A ridge is a strict local maximum of a frame's magnitude profile. Each frame
gets a partition of its bins into basins, one ridge per basin; the squeeze
step later moves every coefficient to the ridge of the basin it sits in.
External IF trajectories can be injected in place of detected ridges, which
is what makes crossing components tractable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidParameterError
from .tfr import TFRGrid, _by_frame_blocks, nearest_bins

__all__ = ["Ridges", "IFEstimate", "gamma_floor", "local_maxima", "inject_if"]


@dataclass(frozen=True)
class Ridges:
    """Ridge bins of every frame, on the axes of the grid they were found on.

    The ridges are flat: ridges lists every ridge bin, frame by frame and
    strictly increasing inside a frame, and frame n owns
    ridges[offsets[n]:offsets[n+1]].
    """

    ridges: np.ndarray
    offsets: np.ndarray
    time_axis_s: np.ndarray
    freq_axis_hz: np.ndarray

    @property
    def n_frames(self) -> int:
        return self.offsets.size - 1

    @property
    def n_bins(self) -> int:
        return self.freq_axis_hz.size

    def counts(self) -> np.ndarray:
        """Number of ridges per frame."""
        return np.diff(self.offsets)

    def freq_table_hz(self) -> np.ndarray:
        """Ridge frequencies with one row per frame, left-aligned and padded
        with NaN to the largest ridge count."""
        counts = self.counts()
        columns = np.arange(counts.max(initial=0))
        table = np.full((self.n_frames, columns.size), np.nan)
        table[columns < counts[:, None]] = self.freq_axis_hz[self.ridges]
        return table


@dataclass(frozen=True)
class IFEstimate(Ridges):
    """Ridges and the basin partition of the frequency axis.

    Ridge i's basin is the half-open bin range from starts[i] up to the next
    ridge's start in the same frame (or n_bins); a frame's first basin starts
    at 0, and every ridge lies inside its own basin. A frame with no ridge
    keeps the single basin [0, n_bins) and is left untouched by the squeeze
    step.
    """

    starts: np.ndarray

    def destinations(self, rows: slice) -> np.ndarray:
        """Each cell's basin ridge in rows, a slice of consecutive frames, as
        a (frames, n_bins) bin array; a frame without a ridge maps every bin
        to itself."""
        first, stop, step = rows.indices(self.n_frames)
        if step != 1:
            raise InvalidParameterError(f"rows {rows} must be a slice of consecutive frames")
        lo, hi = self.offsets[first], self.offsets[stop]
        starts = self.starts[lo:hi]
        # a frame's first basin, and only that one, starts at bin 0, so a zero
        # next start marks the last basin of a frame
        ends = np.append(starts[1:], 0)
        ends[ends == 0] = self.n_bins
        has_ridge = np.diff(self.offsets[first:stop + 1]) > 0
        dest = np.empty((has_ridge.size, self.n_bins), dtype=np.int64)
        dest[~has_ridge] = np.arange(self.n_bins)
        dest[has_ridge] = np.repeat(self.ridges[lo:hi], ends - starts).reshape(-1, self.n_bins)
        return dest


def gamma_floor(grid: TFRGrid, gamma: float, per_frame: bool = False) -> np.ndarray:
    """The gamma filter as one magnitude floor per frame: detection and the
    squeeze drop every cell whose |V| is not above its frame's floor.

    The floor is gamma times the grid's maximum |V|; per_frame=True switches
    to each frame's own maximum, which keeps ridges alive in quiet frames at
    the cost of keeping noise there too. Every floor is zero at gamma 0 or on
    an all-zero grid, and then no cell is dropped. A grid with a finite cell
    whose |V| passes the float range is refused: its floor would be inf or
    NaN and drop every cell.
    """
    _check_gamma(gamma)
    peaks = grid.frame_peaks
    top = peaks.max(initial=0.0)
    if top == np.inf:
        raise InvalidParameterError(
            f"cannot filter the {grid.method_tag} grid: a magnitude exceeds the float range")
    return gamma * np.where(per_frame, peaks, top)


def _check_gamma(gamma: float) -> None:
    if not (0.0 <= gamma < 1.0):
        raise InvalidParameterError("gamma must lie in [0, 1)")


def _strict_maxima(m: np.ndarray, floor: float) -> np.ndarray:
    """Flat indices into m[:, 1:-1] of the cells of m above both neighbours
    in their frame and above floor, by frame then bin (column j is bin
    j + 1); below 3 bins there are none. On m >= 0 a floor of 0 keeps every
    strict maximum, and a floor keeps what zeroing m <= floor would. A block
    helper, so it calls only numpy."""
    inner = m[:, 1:-1]
    peaks = (inner > m[:, :-2]) & (inner > m[:, 2:])
    peaks &= inner > floor
    return np.flatnonzero(peaks)


def local_maxima(grid: TFRGrid, floor: np.ndarray | None = None) -> IFEstimate:
    """Detect per-frame ridges as strict interior local maxima of |G|.

    Plateaus yield no ridge and the first and last bins are never ridges.
    Basin boundaries sit at the smallest-magnitude bin strictly between
    consecutive ridges (ties resolve to the lower bin). floor, one magnitude
    per frame (gamma_floor's), first reads every |G| at or below its frame's
    floor as 0. Every block of frames finds its own ridges and basins, so it
    builds no grid-sized mask.
    """
    data = grid.data
    counts = np.empty(data.shape[0], dtype=np.int64)

    def block(rows):
        m = np.abs(data[rows])
        if floor is not None:
            m[m <= floor[rows, None]] = 0.0
        inner, left, right = m[:, 1:-1], m[:, :-2], m[:, 2:]
        peaks = _strict_maxima(m, 0.0)
        frame, ridges = np.divmod(peaks, inner.shape[1])  # a width of 0 divides nothing
        # The lowest-bin minimum of a valley between two ridges is strictly
        # below its left neighbour and not above its right one (the ridges
        # bounding the valley are strict maxima), so only such cells compete.
        lows = np.flatnonzero((inner < left) & (inner <= right))
        # a candidate lies in the valley that ridge i closes when ridges i-1
        # and i both sit in the candidate's frame
        closing = np.searchsorted(peaks, lows)
        low_frame, low_bin = np.divmod(lows, inner.shape[1])
        ridge_frame = np.concatenate([[-1], frame, [-1]])  # ridge i-1's frame at [i]
        inside = (ridge_frame[closing] == low_frame) & (ridge_frame[closing + 1] == low_frame)
        closing, low_frame, low_bin = closing[inside], low_frame[inside], low_bin[inside]
        # per valley: smallest magnitude first, then lowest bin
        order = np.lexsort((low_bin, inner[low_frame, low_bin], closing))
        closing, low_bin = closing[order], low_bin[order]
        pick = np.ones(closing.size, dtype=bool)
        pick[1:] = closing[1:] != closing[:-1]
        starts = np.zeros(peaks.size, dtype=np.int64)
        starts[closing[pick]] = low_bin[pick] + 1
        counts[rows] = np.bincount(frame, minlength=m.shape[0])
        return ridges + 1, starts

    ridges, starts = (np.concatenate(part) for part in zip(*_by_frame_blocks(block, data.shape)))
    offsets = np.concatenate([[0], np.cumsum(counts)])
    return IFEstimate(ridges, offsets, grid.time_axis_s, grid.freq_axis_hz, starts)


def inject_if(grid: TFRGrid, trajectories: Sequence[Callable[[np.ndarray], np.ndarray]]
              ) -> IFEstimate:
    """Build an estimate from externally supplied IF trajectories.

    Each trajectory maps time in seconds to frequency in Hz; per frame the
    nearest bins become the ridges (duplicates merge) and basin edges sit at
    the midpoint between consecutive ridges, nudged up when two ridges are
    adjacent so every ridge stays strictly inside its own basin.
    """
    t = grid.time_axis_s
    if not trajectories:
        raise InvalidParameterError("need at least one trajectory")
    tracks = [nearest_bins(np.broadcast_to(traj(t), t.shape), grid, "trajectory")
              for traj in trajectories]
    bins_per_frame = np.sort(np.stack(tracks, axis=1), axis=1)

    distinct = np.ones(bins_per_frame.shape, dtype=bool)
    distinct[:, 1:] = bins_per_frame[:, 1:] != bins_per_frame[:, :-1]
    ridges = bins_per_frame[distinct]
    offsets = np.concatenate([[0], np.cumsum(distinct.sum(axis=1))])
    below = np.concatenate([[0], ridges[:-1]])
    starts = np.maximum(below + 1, (below + ridges) // 2)
    starts[offsets[:-1]] = 0  # every frame has a ridge; its first basin starts at 0
    return IFEstimate(ridges, offsets, t, grid.freq_axis_hz, starts)
