"""Concentration, accuracy, and conservation metrics for method comparison."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, NoGroundTruthError
from .ridges import IFEstimate
from .signals import ModeModel, Signal
from .tfr import TFRGrid, _by_frame_blocks

__all__ = ["MethodReport", "renyi_entropy", "ridge_mae", "recon_rel_l2",
           "framesum_max_dev", "nonzero_fraction"]

# the Renyi order, the usual time-frequency choice
ALPHA = 3.0


@dataclass(frozen=True)
class MethodReport:
    """Summary numbers for one method run. None marks a metric that does not
    apply (no reconstruction factor, or no ground truth). report.json writes
    the fields in the order they are declared here."""

    method_tag: str
    renyi_entropy_bits: float
    nonzero_fraction: float
    recon_rel_l2: float | None
    ridge_mae_bins: float | None
    framesum_max_dev: float


def renyi_entropy(grid: TFRGrid) -> float:
    """Renyi entropy in bits of the distribution of the stored magnitudes.

    P = |G| / sum|G| and H = log2(sum P^ALPHA) / (1 - ALPHA); lower means
    more concentrated.

    The weight is |G|, not |G|^2: SST, LMSST and the squeeze conserve each
    frame's complex sum, not sum|G|^2, and approximate the amplitude-valued
    ideal sum_k A_k delta(f - f_k). Moving part of a cell in phase into an
    empty bin of its frame keeps sum|G|, so it can never lower H; on |G|^2
    it could. RM's grid stores reassigned energy, so it is scored on the
    reassigned spectrogram itself.
    """
    data = grid.data
    # one magnitude-sized buffer, however large the grid; the two sums run
    # over all of it, in the order a whole-grid sum takes
    p = np.empty(data.shape)
    _by_frame_blocks(lambda rows: np.abs(data[rows], out=p[rows]), *p.shape)
    total = p.sum()
    if total == 0.0:
        raise InvalidParameterError("cannot measure entropy of an all-zero grid")

    def block(rows):
        np.divide(p[rows], total, out=p[rows])
        np.power(p[rows], ALPHA, out=p[rows])

    _by_frame_blocks(block, *p.shape)
    return float(np.log2(np.sum(p)) / (1.0 - ALPHA))


def nonzero_fraction(grid: TFRGrid) -> float:
    """Fraction of grid cells holding a nonzero coefficient."""
    # exact integer counts per block; axis=1 counts complex cells twice as fast
    counts = _by_frame_blocks(lambda rows: np.count_nonzero(grid.data[rows], axis=1).sum(),
                              *grid.data.shape)
    return float(sum(counts) / grid.data.size)


def ridge_mae(ifest: IFEstimate, model: ModeModel,
              frames: np.ndarray | slice | None = None) -> float:
    """Mean absolute gap, in bins, between detected ridges and true IFs.

    Only frames whose ridge count equals the number of modes contribute;
    each true IF is matched to its nearest detected ridge. ``frames`` may
    restrict the evaluation (boolean mask, index array or slice), e.g. to
    interior frames. Raises when no frame qualifies.
    """
    if len(model) == 0:
        raise NoGroundTruthError("mode model has no components")
    if ifest.n_bins < 2:
        raise NoGroundTruthError("a frequency axis of fewer than 2 bins has no bin width")
    t = ifest.time_axis_s
    f0 = float(ifest.freq_axis_hz[0])
    df = float(ifest.freq_axis_hz[1] - ifest.freq_axis_hz[0])
    true_bins = (model.if_matrix_hz(t) - f0) / df  # (n_modes, n_frames), fractional

    selected = np.arange(ifest.n_frames) if frames is None else np.arange(ifest.n_frames)[frames]
    selected = selected[ifest.counts()[selected] == len(model)]
    if selected.size == 0:
        raise NoGroundTruthError("no frame has a ridge count matching the mode count")
    # (frame, ridge) matrix of the qualifying frames, against (frame, truth)
    ridges = ifest.ridges[ifest.offsets[selected][:, None] + np.arange(len(model))]
    truth = true_bins[:, selected].T
    gaps = np.abs(ridges[:, None, :] - truth[:, :, None]).min(axis=2)
    return float(np.mean(gaps))


def recon_rel_l2(original: Signal, recovered: Signal) -> float:
    """Relative L2 reconstruction error ||orig - rec|| / ||orig||."""
    if len(original) != len(recovered):
        raise InvalidParameterError(
            f"signal lengths differ: {len(original)} vs {len(recovered)}"
        )
    if original.sample_rate_hz != recovered.sample_rate_hz:
        raise InvalidParameterError("sample rates differ")
    with np.errstate(over="ignore"):  # a norm past the float range is refused below
        denom = float(np.linalg.norm(original.samples))
        err = float(np.linalg.norm(original.samples - recovered.samples))
    if not (np.isfinite(denom) and np.isfinite(err)):
        raise InvalidParameterError("signal norms exceed the float range")
    if denom == 0.0:
        raise InvalidParameterError("original signal is identically zero")
    return err / denom


def framesum_max_dev(g_in: TFRGrid, g_out: TFRGrid) -> float:
    """Worst-frame relative deviation between input and output frame sums.

    Zero (to rounding) certifies that a post-processor conserved per-frame
    mass and therefore reconstructs exactly.
    """
    if g_in.n_frames != g_out.n_frames:
        raise InvalidParameterError(
            f"frame counts differ: {g_in.n_frames} vs {g_out.n_frames}"
        )
    sums_in = g_in.data.sum(axis=1)
    sums_out = g_out.data.sum(axis=1)
    scale = float(np.max(np.abs(sums_in)))
    if scale == 0.0:
        raise InvalidParameterError("every input frame sums to zero")
    return float(np.max(np.abs(sums_out - sums_in)) / scale)
