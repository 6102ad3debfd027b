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

from .errors import InvalidParameterError
from .ridges import IFEstimate
from .signals import Signal
from .tfr import TFRGrid, istft, nearest_bins, regroup

__all__ = ["modular_reassign", "mode_reconstruct"]


def modular_reassign(grid: TFRGrid, ifest: IFEstimate) -> TFRGrid:
    """Sum each basin's coefficients into its ridge bin, frame by frame.

    Every cell's destination is its basin's ridge, decoded by the estimate
    one block of frames at a time, and tfr.regroup makes the move. Frames
    without a detected ridge pass through unchanged; zeroing quiet frames is
    the gamma filter's job, not the squeeze's. The output keeps the source
    grid's axes and reconstruction factor.
    """
    if (ifest.n_frames, ifest.n_bins) != grid.data.shape:
        raise InvalidParameterError(f"estimate's cells do not match grid {grid.data.shape}")
    return regroup(grid, ifest.destinations, "proposed")


def mode_reconstruct(tgrid: TFRGrid, ridge_track: Callable[[np.ndarray], np.ndarray],
                     half_width_hz: float) -> Signal:
    """Recover one mode by inverting only the bins near its IF track.

    Per frame, bins within half_width_hz of ridge_track(t) are kept and the
    rest zeroed; istft inverts the result, so a non-invertible grid is
    refused there. The band integral returns the mode's analytic part: for a
    mode of a real signal, take twice the real part of the result to get the
    real waveform.
    """
    if not half_width_hz > 0:  # NaN fails this too
        raise InvalidParameterError("half_width_hz must be > 0")
    t = tgrid.time_axis_s
    track = np.broadcast_to(np.asarray(ridge_track(t), dtype=float), t.shape)
    nearest_bins(track, tgrid, "mode track")  # refuses off-axis and NaN tracks
    in_band = np.abs(tgrid.freq_axis_hz[None, :] - track[:, None]) <= half_width_hz
    return istft(tgrid.with_data(np.where(in_band, tgrid.data, 0.0)))
