"""Frequency-axis squeeze of a TFR onto ridge bins, and per-mode reconstruction.

The squeeze moves every coefficient of a frame into the ridge bin of the
basin it belongs to, through tfr.regroup, the in-frame move that SST and
LMSST share. Because each frame's coefficients are only regrouped, the frame
sum is unchanged, so the same rho that inverts the source grid inverts the
squeezed one through tfr.istft. This works for any grid that reconstructs by a frequency sum,
not just the STFT; the grid carries its own rho.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import IFOutOfRangeError, NonInvertibleGridError, ShapeMismatchError
from .ridges import IFEstimate
from .signals import Signal
from .tfr import TFRGrid, regroup

__all__ = ["modular_reassign", "mode_reconstruct"]


def modular_reassign(grid: TFRGrid, ifest: IFEstimate) -> TFRGrid:
    """Sum each basin's coefficients into its ridge bin, frame by frame.

    Every cell's destination is its basin's ridge, and tfr.regroup makes the
    move. Frames without a detected ridge pass through unchanged; zeroing
    quiet frames is the gamma filter's job, not the squeeze's. The output
    keeps the source grid's axes and reconstruction factor.
    """
    if ifest.n_frames != grid.n_frames or ifest.n_bins != grid.n_bins:
        raise ShapeMismatchError(
            f"estimate covers ({ifest.n_frames}, {ifest.n_bins}) "
            f"but grid is ({grid.n_frames}, {grid.n_bins})"
        )
    n_bins = grid.n_bins
    # a frame's first basin, and only that one, starts at bin 0, so a zero
    # next start marks the last basin of a frame
    ends = np.append(ifest.starts[1:], 0)
    ends[ends == 0] = n_bins
    has_ridge = ifest.counts() > 0
    dest = np.empty(grid.data.shape, dtype=np.int64)
    dest[~has_ridge] = np.arange(n_bins)
    dest[has_ridge] = np.repeat(ifest.ridges, ends - ifest.starts).reshape(-1, n_bins)
    return regroup(grid, dest, "proposed")


def mode_reconstruct(tgrid: TFRGrid, ridge_track: Callable[[np.ndarray], np.ndarray],
                     half_width_hz: float) -> Signal:
    """Recover one mode by summing only bins near its IF track.

    Per frame, bins within half_width_hz of ridge_track(t) contribute; the
    sum is scaled by rho. The band integral returns the mode's analytic
    part: for a mode of a real signal, take twice the real part of the
    result to get the real waveform.
    """
    if not tgrid.invertible:
        raise NonInvertibleGridError(
            f"grid {tgrid.method_tag!r} has no finite reconstruction factor"
        )
    if half_width_hz <= 0:
        raise IFOutOfRangeError("half_width_hz must be > 0")
    t = tgrid.time_axis_s
    f = tgrid.freq_axis_hz
    track = np.broadcast_to(np.asarray(ridge_track(t), dtype=float), t.shape)
    if np.any(track < f[0] - tgrid.df_hz / 2) or np.any(track > f[-1] + tgrid.df_hz / 2):
        raise IFOutOfRangeError(
            f"mode track range [{track.min()}, {track.max()}] Hz "
            f"exceeds the frequency axis [{f[0]}, {f[-1]}] Hz"
        )
    in_band = np.abs(f[None, :] - track[:, None]) <= half_width_hz
    samples = tgrid.rho * np.sum(np.where(in_band, tgrid.data, 0.0), axis=1)
    return Signal(samples, tgrid.source_fs_hz, float(t[0]))
