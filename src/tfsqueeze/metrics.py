"""Concentration, accuracy, and conservation metrics for method comparison."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .ridges import Ridges, _check_gamma, _strict_maxima
from .signals import ModeModel, Signal
from .tfr import TFRGrid, _by_frame_blocks

__all__ = ["MethodReport", "scan", "ridge_mae", "recon_rel_l2", "framesum_max_dev"]

# the Renyi order, the usual time-frequency choice; scan cubes for it
ALPHA = 3.0
HEATMAP_FLOOR_DB = -60.0


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


def scan(grid: TFRGrid, gamma: float, real: bool) -> tuple[float, Ridges, np.ndarray, float]:
    """Score a method's output, find its ridges and render it in one
    frame-block pass, which takes each block's |G| once. Returns (entropy,
    ridges, image, nonzero_fraction):
    - entropy is the Renyi entropy in bits of the distribution of the stored
      magnitudes, P = |G| / sum|G| and H = log2(sum P^ALPHA) / (1 - ALPHA);
      lower means more concentrated. It is taken as
      log2(sum q^3 / (sum q)^3) / (1 - ALPHA) on q = |G| / max|G| <= 1,
      so no sum overflows and a power-of-two scale leaves H
      unchanged. Each block gives its (sum q, sum q^3), added in frame
      order: H does not depend on the CPU count;
    - ridges are, per frame, the interior bins of the view whose |G| lies
      above both neighbours and above gamma times the view's peak, with
      their per-frame counts and no basins: the ridges of
      local_maxima(view, gamma_floor(view, gamma)). The view is the
      (n_bins + 1) // 2 bins below fs/2 for a real signal (real=True) and
      grid otherwise;
    - image is the heatmap of the bins below fs/2, for io_export.export_pgm:
      one column per frame and one row per bin, the highest bin on top, each
      pixel 20 log10 q in dB clipped at HEATMAP_FLOOR_DB and mapped linearly
      to 0..255;
    - nonzero_fraction is the share of cells with |G| > 0, counted before q.
    A gamma outside [0, 1) is refused first, then an all-zero grid and one
    with a finite cell whose |G| passes the float range: neither has a
    max|G| to scale by.

    The weight is |G|, not |G|^2: SST, LMSST and the squeeze conserve each
    frame's complex sum, not sum|G|^2, and approximate the amplitude-valued
    ideal sum_k A_k delta(f - f_k). Moving part of a cell in phase into an
    empty bin of its frame keeps sum|G|, so it can never lower H; on |G|^2
    it could. RM's grid stores reassigned energy, so it is scored on the
    reassigned spectrogram itself.
    """
    _check_gamma(gamma)
    data, peak = grid.data, grid.frame_peaks.max(initial=0.0)
    if peak == 0.0:
        raise InvalidParameterError("cannot measure entropy of an all-zero grid")
    if peak == np.inf:
        raise InvalidParameterError(
            f"cannot measure entropy of the {grid.method_tag} grid: a magnitude exceeds the float range")
    n_frames, n_bins = data.shape
    shown = (n_bins + 1) // 2  # the bins below fs/2: the heatmap's, and a real signal's view
    width = shown if real else n_bins
    floor = 0.0
    if gamma:  # gamma times the view's peak
        floor = gamma * (max(_by_frame_blocks(
            lambda rows: np.abs(data[rows, :shown]).max(initial=0.0), data.shape)) if real else peak)
    image = np.empty((shown, n_frames), dtype=np.uint8)
    counts = np.empty(n_frames, dtype=np.int64)

    def block(rows):
        m = np.abs(data[rows])
        nonzero = int(np.count_nonzero(m))  # on |G|: a subnormal cell may be 0 in q
        view = m[:, :width]
        frame, bins = np.divmod(_strict_maxima(view, floor), max(0, width - 2))
        bins += 1
        counts[rows] = np.bincount(frame, minlength=view.shape[0])
        q = np.divide(m, peak, out=m)  # detection and the count have read |G|
        image[:, rows] = _pixels(q[:, :shown])
        cubes = q * q
        cubes *= q
        return q.sum(), cubes.sum(), bins, nonzero

    s1, s3, parts, nonzero = zip(*_by_frame_blocks(block, data.shape))
    found = Ridges(np.concatenate(parts), np.concatenate([[0], np.cumsum(counts)]),
                   grid.time_axis_s, grid.freq_axis_hz[:width])
    return float(np.log2(sum(s3) / sum(s1)**3) / (1.0 - ALPHA)), found, image, sum(nonzero) / data.size


def _pixels(q: np.ndarray) -> np.ndarray:
    """The heatmap's columns for a block of frames, from q = |G| / max|G| on
    the shown bins: 20 log10 q in dB, clipped at HEATMAP_FLOOR_DB and mapped
    linearly to 0..255, one column per frame and one row per bin, the
    highest bin on top. A block helper, so it calls only numpy."""
    # a cell at or below the floor is black either way; raising it to the
    # floor keeps zeros, whose -inf numpy's log takes a slow path for, out
    db = np.log10(np.maximum(q, 10.0 ** (HEATMAP_FLOOR_DB / 20.0)))
    # in place, in the order 255 * (clip(20 log10 q) - floor) / -floor rounds
    db *= 20.0
    np.clip(db, HEATMAP_FLOOR_DB, 0.0, out=db)
    db -= HEATMAP_FLOOR_DB
    db *= 255.0
    db /= -HEATMAP_FLOOR_DB
    return np.rint(db, out=db).astype(np.uint8).T[::-1]


def ridge_mae(ifest: Ridges, model: ModeModel, frames: np.ndarray | slice) -> float | None:
    """Mean absolute gap, in bins, between ridges (detected by local_maxima
    or scan, or injected) and true IFs.

    Only the frames selected by ``frames`` (boolean mask, index array or
    slice; the CLI passes the interior frames) whose ridge count equals the
    number of modes contribute; each true IF is matched to its nearest
    detected ridge. None when no frame qualifies or the axis has fewer than
    2 bins, so no bin width; an empty model is refused.
    """
    if len(model) == 0:
        raise InvalidParameterError("mode model has no components")
    if ifest.n_bins < 2:
        return None
    t = ifest.time_axis_s
    f0 = float(ifest.freq_axis_hz[0])
    df = float(ifest.freq_axis_hz[1] - ifest.freq_axis_hz[0])
    true_bins = (model.if_matrix_hz(t) - f0) / df  # (n_modes, n_frames), fractional

    selected = np.arange(ifest.n_frames)[frames]
    selected = selected[ifest.counts()[selected] == len(model)]
    if selected.size == 0:
        return None
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


def framesum_max_dev(sums_in: np.ndarray, g_out: TFRGrid) -> float:
    """Worst-frame relative deviation between input frame sums and g_out's.

    Zero (to rounding) certifies that a post-processor conserved per-frame
    mass and therefore reconstructs exactly.
    """
    if sums_in.size != g_out.n_frames:
        raise InvalidParameterError(
            f"frame counts differ: {sums_in.size} vs {g_out.n_frames}"
        )
    scale = float(np.max(np.abs(sums_in)))
    if scale == 0.0:
        raise InvalidParameterError("every input frame sums to zero")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        dev = float(np.max(np.abs(g_out.frame_sums - sums_in)) / scale)
    if not np.isfinite(dev):
        raise InvalidParameterError(f"{g_out.method_tag} frame sums exceed the float range")
    return dev
