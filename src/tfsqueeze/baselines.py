"""Reference post-processors: SST, reassignment, SET, and LMSST.

All four post-process the grid of one tfr.Analysis, the hop-1 STFT computed
once per signal, window and DFT size. SST and LMSST move complex
coefficients along the frequency axis only: each hands tfr.regroup, the
in-frame move the squeeze also uses, a rule giving a block of frames'
destination bins and its cells. SET only keeps or drops coefficients in
place. The reassignment method moves spectrogram energy in both time and
frequency and therefore cannot be inverted, which its grid records with a
NaN reconstruction factor.

SST, SET and RM read one bin map of each cell's IF, from Im of V_dg / V,
through phase_if_map: the Analysis builds it on the first call and every
later reader shares it. RM reads its group delay from Re of V_tg / V
(Auger & Flandrin 1995), tg the time-weighted window, framed in its own
blocks; for the Gaussian window V_tg is -sigma^2 times V_dg.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import InvalidParameterError
# SIGNIFICANCE_FLOOR is re-exported; stft is unused here but stays bound:
# perfbench asserts baselines.stft is tfr.stft
from .tfr import (SIGNIFICANCE_FLOOR, Analysis, TFRGrid, _by_frame_blocks,  # noqa: F401
                  _frames_per_block, frame_matrix, regroup, stft)
from .windows import halfwidth_bins

__all__ = ["phase_if_map", "sst", "reassignment", "set_extract", "lmsst", "SIGNIFICANCE_FLOOR"]


def phase_if_map(a: Analysis) -> np.ndarray:
    """Phase-derived IF bin of every grid cell: Analysis.if_bins, built on first call."""
    return a.if_bins


def sst(a: Analysis) -> TFRGrid:
    """Synchrosqueezing: add each significant coefficient into the bin
    nearest its phase-derived IF. Frame sums are conserved, so the result
    reconstructs exactly through istft."""
    bins = phase_if_map(a)
    return regroup(a.grid, lambda rows: (bins[rows], a.grid.data[rows]), "sst")


def reassignment(a: Analysis) -> TFRGrid:
    """Classic two-dimensional reassignment of spectrogram energy |V|^2.

    Energy moves to (t + Re(V_tg/V), IF estimate); time targets clamp to the
    grid, frequency targets wrap on the DFT circle. Total energy is
    conserved, invertibility is not: rho is NaN and istft refuses the grid.
    Flat targets wait in the output's imaginary half, zeroed as each block
    adds |V|^2 in frame order, the order of one whole-grid bincount.
    """
    grid = a.grid
    floor, t, bins = a.floor, grid.time_axis_s[:, None], phase_if_map(a)
    framed = frame_matrix(a.sig, a.w.t_values, a.nfft)  # V_tg, divided by V block by block
    out = np.zeros(grid.data.shape, dtype=np.complex128)  # imag: flat targets, exact below 2^31

    def targets(rows):
        r, v = framed(rows), grid.data[rows]
        # V = 0 is insignificant; a near-limit V overflows numpy's scaled division
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            np.divide(r, v, out=r)
        t_hat = t[rows] + np.real(r)
        np.copyto(t_hat, t[rows], where=np.abs(v) <= floor)
        frame_target = np.clip(
            np.rint((t_hat - grid.t0_s) * grid.source_fs_hz).astype(np.int64),
            0, grid.n_frames - 1,
        )
        np.add(frame_target * grid.n_bins, bins[rows], out=out.imag[rows])

    _by_frame_blocks(targets, grid.data.shape)
    energy = out.reshape(-1).real  # a view: the sums land in out
    step = _frames_per_block(grid.n_bins)
    for lo in range(0, grid.n_frames, step):  # one thread: blocks add into shared cells
        rows = slice(lo, lo + step)
        flat = out.imag[rows].astype(np.int64).ravel()
        out.imag[rows] = 0.0
        with np.errstate(over="ignore"):  # TFRGrid refuses the overflowed energy
            power = np.square(np.abs(grid.data[rows]))
        np.add.at(energy, flat, power.ravel())
    return replace(grid, data=out, method_tag="rm", rho=float("nan"))


def set_extract(a: Analysis) -> TFRGrid:
    """Synchroextracting: keep a coefficient only when its IF estimate rounds
    back onto its own bin; everything else, including the insignificant
    floor, is discarded. Sharp but deliberately lossy."""
    grid = a.grid
    floor, target = a.floor, phase_if_map(a)
    own = np.arange(grid.n_bins)
    out = np.empty(grid.data.shape, dtype=np.complex128)

    def block(rows):
        v = grid.data[rows]
        keep = (np.abs(v) > floor) & (target[rows] == own)
        out[rows] = np.where(keep, v, 0.0)

    _by_frame_blocks(block, out.shape)
    return replace(grid, data=out, method_tag="set")


def lmsst(a: Analysis, delta_bins: int | None = None) -> TFRGrid:
    """Local-maximum squeezing: each coefficient moves to the largest-magnitude
    bin within delta_bins of its own. Ties pick the lower bin. The move is a
    frequency-only permutation of frame mass, so reconstruction stays exact.

    Each bin's window maximum is found by doubling: |V|, padded by delta_bins
    on each side with -1 (which every |V| beats), gives the windows of width
    1; each pass joins windows of width w starting `step` bins apart into
    width w + step, with step = min(w, 2*delta_bins + 1 - w), so that
    ceil(log2(2*delta_bins + 1)) passes reach the full window. The upper
    window's bin wins only on a strict >, so ties keep the lower bin.

    delta_bins defaults to the window's measured -3 dB half width in bins,
    cut to the axis; it must lie in [0, n_bins).
    """
    n_bins = a.grid.n_bins
    if delta_bins is None:
        delta_bins = min(halfwidth_bins(a.w, a.nfft), n_bins - 1)
    _check_delta_bins(delta_bins, n_bins)
    full = 2 * delta_bins + 1
    padded_bins = np.arange(-delta_bins, n_bins + delta_bins)

    def best_bins(rows):
        v = a.grid.data[rows]
        span = padded_bins.size  # windows of the current width, one per start
        val = np.full((v.shape[0], span), -1.0)
        np.abs(v, out=val[:, delta_bins:delta_bins + n_bins])
        best = np.empty(val.shape, dtype=np.int64)
        best[:] = padded_bins
        width = 1
        while width < full:
            step = min(width, full - width)
            span -= step
            better = val[:, step:step + span] > val[:, :span]
            # each source overlaps its target, so numpy copies it first: one block more
            np.copyto(val[:, :span], val[:, step:step + span], where=better)
            np.copyto(best[:, :span], best[:, step:step + span], where=better)
            width += step
        return best[:, :n_bins], v

    return regroup(a.grid, best_bins, "lmsst")


def _check_delta_bins(delta_bins: int, n_bins: int) -> None:
    if not 0 <= delta_bins < n_bins:
        raise InvalidParameterError(f"delta_bins must lie in [0, {n_bins})")
