"""Reference post-processors: SST, reassignment, SET, and LMSST.

All four post-process the grid of one tfr.Analysis, the hop-1 STFT computed
once per signal, window and DFT size. SST and LMSST move complex
coefficients along the frequency axis only: each computes a destination bin
per cell and hands it to tfr.regroup, the in-frame move the squeeze also
uses. SET only keeps or drops coefficients in place. The reassignment method
moves spectrogram energy in both time and frequency and therefore cannot be
inverted, which its grid records with a NaN reconstruction factor.

SST, SET and RM share one bin map of each cell's IF, from Im, and RM reads
its group delay from Re, of one ratio V_x / V (Auger & Flandrin 1995): x is
the derivative window for the IF and the time-weighted one for the delay.
For the Gaussian window the second transform is -sigma^2 times the first.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameterError
# stft is unused here but stays bound: perfbench asserts baselines.stft is tfr.stft
from .tfr import Analysis, TFRGrid, frame_matrix, regroup, stft  # noqa: F401
from .windows import halfwidth_bins

__all__ = ["phase_if_map", "sst", "reassignment", "set_extract", "lmsst", "SIGNIFICANCE_FLOOR"]

# Coefficients below this fraction of the grid's peak magnitude have no
# usable phase; they are left in place (conservative methods) or dropped (SET).
SIGNIFICANCE_FLOOR = 1e-8


def _ratio(a: Analysis, taps: np.ndarray) -> np.ndarray:
    """V_taps / V, divided in the transform's own buffer; inf or NaN where V is 0."""
    ratio = frame_matrix(a.sig, taps, a.nfft)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio /= a.grid.data
    return ratio


def phase_if_map(a: Analysis) -> tuple[np.ndarray, np.ndarray]:
    """Phase-derived IF estimate of every cell of the analysis grid.

    Returns (f_hat_hz, significant). f_hat[n, k] is the frequency the
    coefficient at bin k belongs to, obtained from the derivative-window
    transform: f_hat = f_k - Im(V_dg / V) / (2*pi). Where the magnitude is
    below the significance floor, f_hat falls back to the bin's own
    frequency and significant is False.
    """
    grid = a.grid
    ratio = _ratio(a, a.w.d_values)
    mag = np.abs(grid.data)
    significant = mag > SIGNIFICANCE_FLOOR * mag.max()
    f_hat = grid.freq_axis_hz - np.imag(ratio) / (2.0 * np.pi)
    np.copyto(f_hat, grid.freq_axis_hz, where=~significant)
    return f_hat, significant


def _if_bins(a: Analysis) -> tuple[np.ndarray, np.ndarray]:
    """(bin, significant): each cell's phase IF rounded to the nearest DFT bin,
    wrapped on the circle; an insignificant cell's bin is its own. The Hz map
    is freed on return, before the caller's next grid-sized step."""
    f_hat, significant = phase_if_map(a)
    f_hat /= a.grid.df_hz
    return np.rint(f_hat, out=f_hat).astype(np.int64) % a.grid.n_bins, significant


def sst(a: Analysis) -> TFRGrid:
    """Synchrosqueezing: add each significant coefficient into the bin
    nearest its phase-derived IF. Frame sums are conserved, so the result
    reconstructs exactly through istft."""
    return regroup(a.grid, _if_bins(a)[0], "sst")


def reassignment(a: Analysis) -> TFRGrid:
    """Classic two-dimensional reassignment of spectrogram energy |V|^2.

    Energy moves to (t + Re(V_tg/V), IF estimate); time targets clamp to the
    grid, frequency targets wrap on the DFT circle. Total energy is
    conserved, invertibility is not: rho is NaN and istft refuses the grid.
    """
    grid = a.grid
    bin_target, significant = _if_bins(a)
    t_hat = grid.time_axis_s[:, None] + np.real(_ratio(a, a.w.t_values))
    np.copyto(t_hat, grid.time_axis_s[:, None], where=~significant)
    frame_target = np.clip(
        np.rint((t_hat - grid.t0_s) * grid.source_fs_hz).astype(np.int64),
        0, grid.n_frames - 1,
    )
    with np.errstate(over="ignore"):  # TFRGrid refuses the overflowed energy
        power = np.abs(grid.data) ** 2
    flat = frame_target.ravel() * grid.n_bins + bin_target.ravel()
    out = np.bincount(flat, weights=power.ravel(),
                      minlength=grid.n_frames * grid.n_bins)
    out = out.reshape(grid.data.shape).astype(np.complex128)
    return grid.with_data(out, method_tag="rm", rho=float("nan"))


def set_extract(a: Analysis) -> TFRGrid:
    """Synchroextracting: keep a coefficient only when its IF estimate rounds
    back onto its own bin; everything else, including the insignificant
    floor, is discarded. Sharp but deliberately lossy."""
    grid = a.grid
    target, significant = _if_bins(a)
    keep = significant & (target == np.arange(grid.n_bins))
    return grid.with_data(np.where(keep, grid.data, 0.0), method_tag="set")


def lmsst(a: Analysis, delta_bins: int | None = None) -> TFRGrid:
    """Local-maximum squeezing: each coefficient moves to the largest-magnitude
    bin within delta_bins of its own. Ties pick the lower bin. The move is a
    frequency-only permutation of frame mass, so reconstruction stays exact.

    delta_bins defaults to the window's measured -3 dB half width in bins,
    cut to the axis; it must lie in [0, n_bins).
    """
    n_bins = a.grid.n_bins
    if delta_bins is None:
        delta_bins = min(halfwidth_bins(a.w, a.nfft), n_bins - 1)
    if not 0 <= delta_bins < n_bins:
        raise InvalidParameterError(f"delta_bins must lie in [0, {n_bins})")
    mag = np.abs(a.grid.data)
    bins = np.arange(n_bins)
    best_val = np.full(mag.shape, -1.0)
    best_idx = np.zeros(mag.shape, dtype=np.int64)
    # scan candidates in ascending bin order; strict > keeps the lowest tie
    for d in range(-delta_bins, delta_bins + 1):
        lo = max(0, -d)
        hi = min(n_bins, n_bins - d)
        cand = mag[:, lo + d : hi + d]
        better = cand > best_val[:, lo:hi]
        np.copyto(best_val[:, lo:hi], cand, where=better)
        np.copyto(best_idx[:, lo:hi], bins[lo + d : hi + d], where=better)
    return regroup(a.grid, best_idx, "lmsst")
