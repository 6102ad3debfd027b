"""Reference post-processors: SST, reassignment, SET, and LMSST.

All four post-process the grid of one tfr.Analysis, the hop-1 STFT computed
once per signal, window and DFT size. SST and LMSST move complex
coefficients along the frequency axis only: each hands tfr.regroup, the
in-frame move the squeeze also uses, a rule giving a block of frames'
destination bins and its cells. SET only keeps or drops coefficients in
place. The reassignment method moves spectrogram energy in both time and
frequency and therefore cannot be inverted, which its grid records with a
NaN reconstruction factor.

SST, SET and RM each build the same bin map of each cell's IF, from Im of
V_dg / V, by their own phase_if_map call: a compare builds three. RM reads
its group delay from Re of V_tg / V (Auger & Flandrin 1995), tg the
time-weighted window; for the Gaussian window V_tg is -sigma^2 times V_dg.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import InvalidParameterError
# stft is unused here but stays bound: perfbench asserts baselines.stft is tfr.stft
from .tfr import Analysis, TFRGrid, _by_frame_blocks, frame_matrix, regroup, stft  # noqa: F401
from .windows import halfwidth_bins

__all__ = ["phase_if_map", "sst", "reassignment", "set_extract", "lmsst", "SIGNIFICANCE_FLOOR"]

# Coefficients below this fraction of the grid's peak magnitude have no
# usable phase; they are left in place (conservative methods) or dropped (SET).
SIGNIFICANCE_FLOOR = 1e-8


def _floor(grid: TFRGrid) -> float:
    """The significance floor: a cell with |V| at or below it has no usable phase."""
    return SIGNIFICANCE_FLOOR * grid.frame_peaks.max()


def phase_if_map(a: Analysis) -> np.ndarray:
    """Phase-derived IF of every cell of the analysis grid, as a DFT bin.

    Returns an int64 array of the grid's shape: bin[n, k] is the bin the
    coefficient at bin k belongs to, f_hat = f_k - Im(V_dg / V) / (2*pi)
    from the derivative-window transform, rounded to the nearest bin and
    wrapped on the DFT circle. Where |V| is at or below the significance
    floor, the bin is the cell's own; readers that treat such cells apart
    test |V| against the floor themselves.
    """
    grid = a.grid
    ratio = frame_matrix(a.sig, a.w.d_values, a.nfft)  # V_dg, divided by V block by block
    floor, f_hz = _floor(grid), grid.freq_axis_hz
    bins = np.empty(grid.data.shape, dtype=np.int64)

    def block(rows):
        r, v = ratio[rows], grid.data[rows]
        # V = 0 is insignificant; a near-limit V overflows numpy's scaled division
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            np.divide(r, v, out=r)
        f = np.imag(r) / (2.0 * np.pi)
        np.subtract(f_hz, f, out=f)
        np.copyto(f, f_hz, where=np.abs(v) <= floor)
        f /= grid.df_hz
        np.remainder(np.rint(f, out=f).astype(np.int64), grid.n_bins, out=bins[rows])

    _by_frame_blocks(block, bins.shape)
    return bins


def sst(a: Analysis) -> TFRGrid:
    """Synchrosqueezing: add each significant coefficient into the bin
    nearest its phase-derived IF. Frame sums are conserved, so the result
    reconstructs exactly through istft."""
    # the bins exist, and the derivative transform is freed, before regroup's output
    bins = phase_if_map(a)
    return regroup(a.grid, lambda rows: (bins[rows], a.grid.data[rows]), "sst")


def reassignment(a: Analysis) -> TFRGrid:
    """Classic two-dimensional reassignment of spectrogram energy |V|^2.

    Energy moves to (t + Re(V_tg/V), IF estimate); time targets clamp to the
    grid, frequency targets wrap on the DFT circle. Total energy is
    conserved, invertibility is not: rho is NaN and istft refuses the grid.
    """
    grid = a.grid
    floor, t = _floor(grid), grid.time_axis_s[:, None]
    flat = phase_if_map(a)  # bins, turned into flat cell targets in place
    ratio = frame_matrix(a.sig, a.w.t_values, a.nfft)  # V_tg, divided by V block by block

    def targets(rows):
        r, v = ratio[rows], grid.data[rows]
        # V = 0 is insignificant; a near-limit V overflows numpy's scaled division
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            np.divide(r, v, out=r)
        t_hat = t[rows] + np.real(r)
        np.copyto(t_hat, t[rows], where=np.abs(v) <= floor)
        frame_target = np.clip(
            np.rint((t_hat - grid.t0_s) * grid.source_fs_hz).astype(np.int64),
            0, grid.n_frames - 1,
        )
        flat[rows] += frame_target * grid.n_bins

    _by_frame_blocks(targets, grid.data.shape)
    del ratio  # before the energies, so they never sit beside V_tg
    power = np.empty(grid.data.shape)

    def energies(rows):
        with np.errstate(over="ignore"):  # TFRGrid refuses the overflowed energy
            np.square(np.abs(grid.data[rows]), out=power[rows])

    _by_frame_blocks(energies, power.shape)
    out = np.bincount(flat.ravel(), weights=power.ravel(),
                      minlength=grid.n_frames * grid.n_bins)
    del flat, power  # so the complex cast holds only the summed energies beside it
    out = out.reshape(grid.data.shape).astype(np.complex128)
    return replace(grid, data=out, method_tag="rm", rho=float("nan"))


def set_extract(a: Analysis) -> TFRGrid:
    """Synchroextracting: keep a coefficient only when its IF estimate rounds
    back onto its own bin; everything else, including the insignificant
    floor, is discarded. Sharp but deliberately lossy."""
    grid = a.grid
    floor, target = _floor(grid), phase_if_map(a)
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
