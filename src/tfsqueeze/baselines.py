"""Reference post-processors: SST, reassignment, SET, and LMSST.

All four post-process the grid of one tfr.Analysis, the hop-1 STFT computed
once per signal, window and DFT size. SST and LMSST move complex
coefficients along the frequency axis only: each computes a destination bin
per cell and hands it to tfr.regroup, the in-frame move the squeeze also
uses. SET only keeps or drops coefficients in place. The reassignment method
moves spectrogram energy in both time and frequency and therefore cannot be
inverted, which its grid records with a NaN reconstruction factor.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameterError
# stft is unused here but stays bound: perfbench asserts baselines.stft is tfr.stft
from .tfr import Analysis, TFRGrid, frame_matrix, regroup, stft  # noqa: F401
from .windows import halfwidth_bins

__all__ = ["phase_if_map", "group_delay_map", "sst", "reassignment",
           "set_extract", "lmsst", "SIGNIFICANCE_FLOOR"]

# Coefficients below this fraction of the grid's peak magnitude have no
# usable phase; they are left in place (conservative methods) or dropped (SET).
SIGNIFICANCE_FLOOR = 1e-8


def phase_if_map(a: Analysis) -> tuple[np.ndarray, np.ndarray]:
    """Phase-derived IF estimate of every cell of the analysis grid.

    Returns (f_hat_hz, significant). f_hat[n, k] is the frequency the
    coefficient at bin k belongs to, obtained from the derivative-window
    transform: f_hat = f_k - Im(V_dg / V) / (2*pi). Where the magnitude is
    below the significance floor, f_hat falls back to the bin's own
    frequency and significant is False.
    """
    grid = a.grid
    v_d = frame_matrix(a.sig, a.w.d_values, a.nfft)
    mag = np.abs(grid.data)
    significant = mag > SIGNIFICANCE_FLOOR * mag.max()
    f_hat = np.broadcast_to(grid.freq_axis_hz, grid.data.shape).copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        shift = np.imag(v_d / grid.data) / (2.0 * np.pi)
    f_hat[significant] -= shift[significant]
    return f_hat, significant


def group_delay_map(a: Analysis, significant: np.ndarray) -> np.ndarray:
    """Reassigned time t_hat = t + Re(V_tg / V), in seconds.

    Falls back to the frame's own time where the coefficient is below the
    significance floor.
    """
    grid = a.grid
    v_t = frame_matrix(a.sig, a.w.t_values, a.nfft)
    t_hat = np.broadcast_to(grid.time_axis_s[:, None], grid.data.shape).copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        shift = np.real(v_t / grid.data)
    t_hat[significant] += shift[significant]
    return t_hat


def _freq_bins(f_hat: np.ndarray, grid: TFRGrid) -> np.ndarray:
    """Nearest DFT bin to each estimated frequency, wrapped on the circle."""
    return np.rint(f_hat / grid.df_hz).astype(np.int64) % grid.n_bins


def sst(a: Analysis) -> TFRGrid:
    """Synchrosqueezing: add each significant coefficient into the bin
    nearest its phase-derived IF. Frame sums are conserved, so the result
    reconstructs exactly through istft."""
    f_hat, _ = phase_if_map(a)
    # an insignificant cell's f_hat is its own bin's frequency, so it stays put
    return regroup(a.grid, _freq_bins(f_hat, a.grid), "sst")


def reassignment(a: Analysis) -> TFRGrid:
    """Classic two-dimensional reassignment of spectrogram energy |V|^2.

    Energy moves to (t + Re(V_tg/V), IF estimate); time targets clamp to the
    grid, frequency targets wrap on the DFT circle. Total energy is
    conserved, invertibility is not: rho is NaN and istft refuses the grid.
    """
    grid = a.grid
    f_hat, significant = phase_if_map(a)
    t_hat = group_delay_map(a, significant)
    frame_target = np.clip(
        np.rint((t_hat - grid.t0_s) * grid.source_fs_hz).astype(np.int64),
        0, grid.n_frames - 1,
    )
    bin_target = _freq_bins(f_hat, grid)
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
    f_hat, significant = phase_if_map(a)
    target = _freq_bins(f_hat, grid)
    own = np.arange(grid.n_bins)[None, :]
    keep = significant & (target == own)
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
