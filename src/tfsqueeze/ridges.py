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
from .tfr import TFRGrid, nearest_bins

__all__ = ["IFEstimate", "filter_grid", "local_maxima", "inject_if",
           "estimate_ridges"]


@dataclass(frozen=True)
class IFEstimate:
    """Ridge bins of every frame and the basin partition of the frequency axis.

    The ridges are flat: ridges lists every ridge bin, frame by frame and
    strictly increasing inside a frame, and frame n owns
    ridges[offsets[n]:offsets[n+1]]. Ridge i's basin is the half-open bin
    range from starts[i] up to the next ridge's start in the same frame (or
    n_bins); a frame's first basin starts at 0, and every ridge lies inside
    its own basin. A frame with no ridge keeps the single basin [0, n_bins)
    and is left untouched by the squeeze step.
    """

    ridges: np.ndarray
    offsets: np.ndarray
    starts: np.ndarray
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

    @property
    def ridge_bins(self) -> tuple[np.ndarray, ...]:
        """Per-frame view: the strictly increasing ridge bins of each frame."""
        return tuple(np.split(self.ridges, self.offsets[1:-1]))

    def freq_table_hz(self) -> np.ndarray:
        """Ridge frequencies with one row per frame, left-aligned and padded
        with NaN to the largest ridge count."""
        counts = self.counts()
        columns = np.arange(counts.max(initial=0))
        table = np.full((self.n_frames, columns.size), np.nan)
        table[columns < counts[:, None]] = self.freq_axis_hz[self.ridges]
        return table

    @property
    def basin_edges(self) -> tuple[np.ndarray, ...]:
        """Per-frame view: 0, one interior edge between consecutive ridges,
        then n_bins, so basin i is [edges[i], edges[i+1])."""
        counts = self.counts()
        # a ridgeless frame keeps the lone basin [0, n_bins): give it start 0
        starts = np.insert(self.starts, self.offsets[:-1][counts == 0], 0)
        frame_ends = np.cumsum(np.maximum(counts, 1))
        edges = np.insert(starts, frame_ends, self.n_bins)
        return tuple(np.split(edges, (frame_ends + np.arange(1, counts.size + 1))[:-1]))


def filter_grid(grid: TFRGrid, gamma: float, per_frame: bool = False) -> TFRGrid:
    """Zero every cell whose magnitude is not above gamma times the maximum.

    The reference is the global grid maximum; per_frame=True switches to each
    frame's own maximum, which keeps ridges alive in quiet frames at the cost
    of keeping noise there too.
    """
    kept = np.where(_keep_mask(np.abs(grid.data), gamma, per_frame), grid.data, 0.0)
    return grid.with_data(kept, method_tag=grid.method_tag + "+filtered")


def _keep_mask(mag: np.ndarray, gamma: float, per_frame: bool) -> np.ndarray:
    if not (0.0 <= gamma < 1.0):
        raise InvalidParameterError("gamma must lie in [0, 1)")
    # initial=0 leaves magnitudes unchanged and lets a 0-bin half circle through
    ref = mag.max(axis=1, keepdims=True, initial=0.0) if per_frame else mag.max(initial=0.0)
    return mag > gamma * ref


def local_maxima(grid: TFRGrid, gamma: float = 0.0,
                 per_frame: bool = False) -> IFEstimate:
    """Detect per-frame ridges as strict interior local maxima of |G|.

    Plateaus yield no ridge and the first and last bins are never ridges.
    Basin boundaries sit at the smallest-magnitude bin strictly between
    consecutive ridges (ties resolve to the lower bin). gamma and per_frame
    detect on the magnitudes filter_grid would keep, without building the
    filtered grid; the default gamma of 0 drops nothing.
    """
    mag = np.abs(grid.data)
    mag[~_keep_mask(mag, gamma, per_frame)] = 0.0
    n_frames, n_bins = mag.shape
    inner, left, right = mag[:, 1:-1], mag[:, :-2], mag[:, 2:]
    mask = np.zeros(mag.shape, dtype=bool)
    np.logical_and(inner > left, inner > right, out=mask[:, 1:-1])
    peaks = np.flatnonzero(mask)  # flat cell index, by frame then bin
    frame, ridges = np.divmod(peaks, n_bins)
    offsets = np.searchsorted(peaks, np.arange(n_frames + 1) * n_bins)

    # The lowest-bin minimum of a valley between two ridges is strictly below
    # its left neighbour and not above its right one (the ridges bounding the
    # valley are strict maxima), so only such candidate cells compete.
    np.logical_and(inner < left, inner <= right, out=mask[:, 1:-1])
    lows = np.flatnonzero(mask)
    # a candidate lies in the valley that ridge i closes when ridges i-1 and i
    # both sit in the candidate's frame
    closing = np.searchsorted(peaks, lows)
    low_frame = lows // n_bins
    ridge_frame = np.concatenate([[-1], frame, [-1]])  # ridge i-1's frame at [i]
    inside = (ridge_frame[closing] == low_frame) & (ridge_frame[closing + 1] == low_frame)
    closing, lows = closing[inside], lows[inside]
    # per valley: smallest magnitude first, then lowest bin
    order = np.lexsort((lows, mag.ravel()[lows], closing))
    closing, lows = closing[order], lows[order]
    pick = np.ones(closing.size, dtype=bool)
    pick[1:] = closing[1:] != closing[:-1]
    starts = np.zeros(ridges.size, dtype=np.int64)
    starts[closing[pick]] = lows[pick] % n_bins
    return IFEstimate(ridges, offsets, starts, grid.time_axis_s, grid.freq_axis_hz)


def estimate_ridges(grid: TFRGrid, gamma: float = 0.0,
                    per_frame: bool = False) -> tuple[TFRGrid, IFEstimate]:
    """Filter-then-detect convenience: gamma-filter the grid and find its
    local maxima. Returns both the filtered grid and the estimate, which is
    the pair the squeeze step consumes."""
    # detect first, so the magnitudes are freed before the filtered copy exists
    est = local_maxima(grid, gamma, per_frame)
    return filter_grid(grid, gamma, per_frame), est


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
    return IFEstimate(ridges, offsets, starts, t, grid.freq_axis_hz)
