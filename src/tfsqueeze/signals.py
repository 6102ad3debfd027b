"""Synthetic test signals and ground-truth oracles.

Every generator returns both the sampled signal and a mode model carrying
the exact amplitude, phase, and instantaneous-frequency laws of each
component, so tests and metrics can compare estimates against truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import IFOutOfRangeError, InvalidParameterError

__all__ = [
    "Signal",
    "Mode",
    "ModeModel",
    "gen_fmam",
    "gen_crossover",
    "gen_chirp_surrogate",
    "gen_tone",
    "add_noise",
    "ideal_tfr",
]


@dataclass(frozen=True)
class Signal:
    """Uniformly sampled complex time series.

    Parameters
    ----------
    samples : array_like
        Sample values; promoted to complex128. Real inputs get a zero
        imaginary part.
    sample_rate_hz : float
        Sampling rate, > 0.
    t0_s : float
        Time of the first sample.
    """

    samples: np.ndarray
    sample_rate_hz: float
    t0_s: float = 0.0

    def __post_init__(self):
        # copy so freezing never flips a caller-owned buffer to read-only
        samples = np.array(self.samples, dtype=np.complex128, copy=True)
        if samples.ndim != 1 or samples.size == 0:
            raise InvalidParameterError("samples must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(samples)):
            raise InvalidParameterError("samples must all be finite")
        if not (self.sample_rate_hz > 0):
            raise InvalidParameterError("sample_rate_hz must be > 0")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate_hz", float(self.sample_rate_hz))
        object.__setattr__(self, "t0_s", float(self.t0_s))

    def __len__(self):
        return self.samples.size

    @property
    def duration_s(self) -> float:
        return len(self) / self.sample_rate_hz

    @property
    def times_s(self) -> np.ndarray:
        return self.t0_s + np.arange(len(self)) / self.sample_rate_hz

    @property
    def is_real(self) -> bool:
        return bool(np.all(self.samples.imag == 0.0))


@dataclass(frozen=True)
class Mode:
    """One AM-FM component: amplitude(t), phase(t) in radians, if(t) in Hz.

    All three callables must accept numpy arrays. ``if_hz`` must be the
    derivative of ``phase_rad`` divided by 2*pi.
    """

    amplitude: Callable[[np.ndarray], np.ndarray]
    phase_rad: Callable[[np.ndarray], np.ndarray]
    if_hz: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ModeModel:
    """Ground-truth component laws for a multicomponent signal."""

    modes: tuple[Mode, ...]
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))

    def __len__(self):
        return len(self.modes)

    def if_matrix_hz(self, times_s: np.ndarray) -> np.ndarray:
        """Instantaneous frequencies of all modes, shape (n_modes, n_times)."""
        t = np.asarray(times_s, dtype=float)
        return np.stack([np.broadcast_to(m.if_hz(t), t.shape) for m in self.modes])

    def max_if_deviation_hz(self, duration_s: float, n_probes: int = 100) -> float:
        """Largest gap between each mode's stated IF and a finite-difference
        estimate from its phase, probed on a uniform time set.

        A correct model keeps this below 1e-3 Hz with h = 1e-6 s.
        """
        h = 1e-6
        t = np.linspace(h, duration_s - h, n_probes)
        worst = 0.0
        for m in self.modes:
            fd = (m.phase_rad(t + h) - m.phase_rad(t - h)) / (4.0 * np.pi * h)
            worst = max(worst, float(np.max(np.abs(m.if_hz(t) - fd))))
        return worst


def _check_nyquist(f_hz: float, fs_hz: float, what: str = "frequency"):
    if not (0.0 < f_hz < fs_hz / 2.0):
        raise InvalidParameterError(
            f"{what} {f_hz} Hz outside the open Nyquist interval (0, {fs_hz / 2}) Hz"
        )


def gen_fmam() -> tuple[Signal, ModeModel]:
    """Two-component real signal mixing sinusoidal FM with a cubic-phase mode.

    128 Hz sampling, 1 s duration. Component IFs are
    40 + 4*pi*cos(4*pi*t) Hz and 10 + 30*(t - 0.5)**2 Hz.
    """
    fs = 128.0
    t = np.arange(128) / fs

    phase1 = lambda tt: 2.0 * np.pi * (40.0 * tt + np.sin(4.0 * np.pi * tt))
    if1 = lambda tt: 40.0 + 4.0 * np.pi * np.cos(4.0 * np.pi * tt)
    phase2 = lambda tt: 2.0 * np.pi * (10.0 * tt + 10.0 * (tt - 0.5) ** 3)
    if2 = lambda tt: 10.0 + 30.0 * (tt - 0.5) ** 2

    one = lambda tt: np.ones_like(tt)
    samples = np.sin(phase1(t)) + np.sin(phase2(t))
    model = ModeModel(
        modes=(Mode(one, phase1, if1), Mode(one, phase2, if2)),
        label="fmam",
    )
    return Signal(samples, fs), model


def gen_crossover() -> tuple[Signal, ModeModel]:
    """Three complex modes whose IF laws cross: a 250 Hz carrier plus two
    oppositely modulated components 250 +/- 100*cos(2*pi*t) Hz.

    1024 Hz sampling, 1 s duration. Mode envelopes are 1, exp(-0.5 t) and
    0.8 exp(0.5 t). All three IFs coincide at t = 0.25 s and t = 0.75 s.
    """
    fs = 1024.0
    t = np.arange(1024) / fs

    p1 = lambda tt: 500.0 * np.pi * tt
    f1 = lambda tt: 250.0 * np.ones_like(tt)
    a1 = lambda tt: np.ones_like(tt)

    p2 = lambda tt: 500.0 * np.pi * tt + 100.0 * np.sin(2.0 * np.pi * tt)
    f2 = lambda tt: 250.0 + 100.0 * np.cos(2.0 * np.pi * tt)
    a2 = lambda tt: np.exp(-0.5 * tt)

    p3 = lambda tt: 500.0 * np.pi * tt - 100.0 * np.sin(2.0 * np.pi * tt)
    f3 = lambda tt: 250.0 - 100.0 * np.cos(2.0 * np.pi * tt)
    a3 = lambda tt: 0.8 * np.exp(0.5 * tt)

    samples = (
        a1(t) * np.exp(1j * p1(t))
        + a2(t) * np.exp(1j * p2(t))
        + a3(t) * np.exp(1j * p3(t))
    )
    model = ModeModel(
        modes=(Mode(a1, p1, f1), Mode(a2, p2, f2), Mode(a3, p3, f3)),
        label="crossover",
    )
    return Signal(samples, fs), model


def gen_chirp_surrogate(
    f_start_hz: float = 30.0,
    f_end_hz: float = 400.0,
    power: float = 3.0,
    fs_hz: float = 1024.0,
    duration_s: float = 1.0,
) -> tuple[Signal, ModeModel]:
    """Unit-amplitude complex chirp with a monotone power-law IF sweep.

    IF(t) = f_start + (f_end - f_start) * (t/dur)**power; the phase is the
    exact closed-form integral of 2*pi*IF.
    """
    if not (0.0 < f_start_hz < f_end_hz):
        raise InvalidParameterError("need 0 < f_start_hz < f_end_hz")
    _check_nyquist(f_end_hz, fs_hz, "f_end_hz")
    if power < 1.0:
        raise InvalidParameterError("power must be >= 1")
    if duration_s <= 0.0:
        raise InvalidParameterError("duration_s must be > 0")

    span = f_end_hz - f_start_hz

    def phase(tt):
        return 2.0 * np.pi * (
            f_start_hz * tt
            + span * duration_s * (tt / duration_s) ** (power + 1.0) / (power + 1.0)
        )

    def if_hz(tt):
        return f_start_hz + span * (tt / duration_s) ** power

    one = lambda tt: np.ones_like(tt)
    t = np.arange(int(round(fs_hz * duration_s))) / fs_hz
    samples = np.exp(1j * phase(t))
    model = ModeModel(modes=(Mode(one, phase, if_hz),), label="chirp")
    return Signal(samples, fs_hz), model


def gen_tone(f0_hz: float, fs_hz: float = 128.0, duration_s: float = 1.0
             ) -> tuple[Signal, ModeModel]:
    """Complex exponential exp(j*2*pi*f0*t)."""
    _check_nyquist(f0_hz, fs_hz, "f0_hz")
    if duration_s <= 0.0:
        raise InvalidParameterError("duration_s must be > 0")
    t = np.arange(int(round(fs_hz * duration_s))) / fs_hz
    phase = lambda tt: 2.0 * np.pi * f0_hz * tt
    if_hz = lambda tt: f0_hz * np.ones_like(tt)
    one = lambda tt: np.ones_like(tt)
    samples = np.exp(1j * phase(t))
    model = ModeModel(modes=(Mode(one, phase, if_hz),), label="tone")
    return Signal(samples, fs_hz), model


def add_noise(sig: Signal, snr_db: float | None, seed: int = 0) -> Signal:
    """Add circular white Gaussian noise at the requested signal-to-noise ratio.

    ``snr_db`` of None or +inf returns the input unchanged. The noise draw is
    complex; for a real carrier only its real part is added, scaled so the
    power of the noise actually added meets the target SNR. Deterministic for
    a fixed seed.
    """
    if snr_db is None or np.isinf(snr_db):
        return sig
    rng = np.random.default_rng(seed)
    n = len(sig)
    re = rng.standard_normal(n)
    im = rng.standard_normal(n)
    p_signal = float(np.mean(np.abs(sig.samples) ** 2))
    p_noise = p_signal / 10.0 ** (snr_db / 10.0)
    if sig.is_real:
        noise = np.sqrt(p_noise) * re
    else:
        noise = np.sqrt(p_noise / 2.0) * (re + 1j * im)
    return Signal(sig.samples + noise, sig.sample_rate_hz, sig.t0_s)


def ideal_tfr(model: ModeModel, time_axis_s: Sequence[float],
              freq_axis_hz: Sequence[float]):
    """Reference time-frequency surface: each mode contributes its complex
    envelope A(t)*exp(j*phase(t)) at the single bin nearest its IF.

    Coinciding modes sum. The result is the target every post-processor is
    judged against; its rho of 1 is nominal, not a reconstruction factor.
    """
    from .tfr import TFRGrid  # local import to avoid a module cycle

    t = np.asarray(time_axis_s, dtype=float)
    f = np.asarray(freq_axis_hz, dtype=float)
    df = f[1] - f[0]
    data = np.zeros((t.size, f.size), dtype=np.complex128)
    for mode in model.modes:
        if_hz = np.broadcast_to(mode.if_hz(t), t.shape)
        if np.any(if_hz < f[0] - df / 2) or np.any(if_hz > f[-1] + df / 2):
            raise IFOutOfRangeError(
                f"mode IF range [{if_hz.min()}, {if_hz.max()}] Hz exceeds the frequency axis"
            )
        bins = np.clip(np.rint((if_hz - f[0]) / df).astype(int), 0, f.size - 1)
        vals = mode.amplitude(t) * np.exp(1j * mode.phase_rad(t))
        np.add.at(data, (np.arange(t.size), bins), vals)
    fs = 1.0 / (t[1] - t[0]) if t.size > 1 else float(f.size * df)
    return TFRGrid(data, t, f, rho=1.0, method_tag="ideal", source_fs_hz=fs)
