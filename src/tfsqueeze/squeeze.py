"""Frequency-axis squeeze of a TFR onto ridge bins, and per-mode reconstruction.

The squeeze moves every coefficient of a frame into the ridge bin of the
basin it belongs to, through tfr.regroup, the in-frame move that SST and
LMSST share. Because each frame's coefficients are only regrouped, the frame
sum is unchanged, so the same rho that inverts the source grid inverts the
squeezed one through tfr.istft. This works for any grid that reconstructs by a frequency sum,
not just the STFT; the grid carries its own rho.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

import numpy as np

from .errors import InvalidParameterError
from .ridges import IFEstimate
from .signals import Signal
from .tfr import TFRGrid, istft, nearest_bins, regroup

__all__ = ["modular_reassign", "mode_reconstruct"]


def modular_reassign(grid: TFRGrid, ifest: IFEstimate, floor: np.ndarray
                     ) -> tuple[TFRGrid, np.ndarray]:
    """Sum each basin's kept coefficients into its ridge bin, frame by frame.

    The rule handed to tfr.regroup decodes, one block of frames at a time,
    every cell's destination, its basin's ridge, from the estimate, and then
    drops the cells at or below floor (ridges.gamma_floor's). Where every
    floor is zero no cell, not even -0.0, is dropped. A frame without a
    ridge keeps its cells in place. Returns (squeezed, kept): the squeezed
    grid keeps the source's axes and rho; kept holds, read-only, the frame
    sums of the kept cells, which squeezed conserves, and is grid.frame_sums
    itself when nothing is dropped. No argument is written, but for grid's
    cells where they are writable: tfr.regroup then writes squeezed over them.
    """
    data = grid.data
    if (ifest.n_frames, ifest.n_bins) != data.shape:
        raise InvalidParameterError(f"estimate's cells do not match grid {data.shape}")
    masked = floor.any()
    kept = np.empty(grid.n_frames, dtype=np.complex128) if masked else grid.frame_sums

    def rule(rows):
        dest, v = ifest.destinations(rows), data[rows]  # decoded before masking: measured faster
        if masked:
            v = np.where(np.abs(v) > floor[rows, None], v, 0.0)
            with np.errstate(over="ignore", invalid="ignore"):  # TFRGrid's frame-sum arithmetic
                np.sum(v, axis=1, out=kept[rows])
        return dest, v

    out = regroup(grid, rule, "proposed")
    kept.setflags(write=False)
    return out, kept


def mode_reconstruct(tgrid: TFRGrid, ridge_track: Callable[[np.ndarray], np.ndarray],
                     half_width_hz: float) -> Signal:
    """Recover one mode by inverting only the bins near its IF track.

    Per frame, bins within half_width_hz of ridge_track(t) are kept and the
    rest zeroed; istft inverts the result, so a non-invertible grid is
    refused there. The band integral returns the mode's analytic part: for a
    mode of a real signal, take twice the real part of the result to get the
    real waveform.
    """
    _check_band(half_width_hz)
    t = tgrid.time_axis_s
    track = np.broadcast_to(np.asarray(ridge_track(t), dtype=float), t.shape)
    nearest_bins(track, tgrid, "mode track")  # refuses off-axis and NaN tracks
    in_band = np.abs(tgrid.freq_axis_hz[None, :] - track[:, None]) <= half_width_hz
    return istft(replace(tgrid, data=np.where(in_band, tgrid.data, 0.0)))


def _check_band(half_width_hz: float) -> None:
    if not half_width_hz > 0:  # NaN fails this too
        raise InvalidParameterError("half_width_hz must be > 0")
