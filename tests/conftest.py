import dataclasses
import wave

import numpy as np
import pytest

import tfsqueeze as tq
from tfsqueeze.tfr import nearest_bins


@pytest.fixture(scope="session")
def fmam():
    return tq.gen_fmam()


@pytest.fixture(scope="session")
def crossover():
    return tq.gen_crossover()


@pytest.fixture(scope="session")
def tone32():
    return tq.gen_tone(32.0, 128.0, 1.0)


@pytest.fixture(scope="session")
def w128():
    # default analysis window for the 128 Hz signals
    return tq.WindowSpec(0.04, 128.0)


@pytest.fixture(scope="session")
def w1024():
    return tq.WindowSpec(0.02, 1024.0)


def interior_mask(n_frames: int, w) -> np.ndarray:
    """Frames whose window support lies fully inside the signal."""
    mask = np.zeros(n_frames, dtype=bool)
    mask[w.half:n_frames - w.half] = True
    return mask


def squeezed(grid, floor):
    """The gamma-filtered squeeze, detection included: its output and the
    kept cells' frame sums."""
    return tq.modular_reassign(grid, tq.local_maxima(grid, floor), floor)


def ridge_bins(est) -> tuple[np.ndarray, ...]:
    """Per-frame view of an IFEstimate: the strictly increasing ridge bins of
    each frame."""
    return tuple(np.split(est.ridges, est.offsets[1:-1]))


def ideal_tfr(model, like):
    """Reference surface on the sampling of grid like: each mode contributes
    its complex envelope A(t)*exp(j*phase(t)) at the bin nearest its IF.

    Coinciding modes sum. The result is the target every post-processor is
    judged against; its rho of 1 is nominal, not a reconstruction factor.
    """
    t = like.time_axis_s
    data = np.zeros(like.data.shape, dtype=np.complex128)
    for mode in model.modes:
        bins = nearest_bins(np.broadcast_to(mode.if_hz(t), t.shape), like, "mode IF")
        vals = mode.amplitude(t) * np.exp(1j * mode.phase_rad(t))
        np.add.at(data, (np.arange(t.size), bins), vals)
    return dataclasses.replace(like, data=data, method_tag="ideal", rho=1.0)


def max_if_deviation_hz(model, duration_s: float) -> float:
    """Largest gap between each mode's stated IF and a finite-difference
    estimate from its phase, probed at 100 uniformly spaced times.

    A correct model keeps this below 1e-3 Hz with h = 1e-6 s.
    """
    h = 1e-6
    t = np.linspace(h, duration_s - h, 100)
    worst = 0.0
    for m in model.modes:
        fd = (m.phase_rad(t + h) - m.phase_rad(t - h)) / (4.0 * np.pi * h)
        worst = max(worst, float(np.max(np.abs(m.if_hz(t) - fd))))
    return worst


def rel_l2(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(a))


def rewrite_grid(src, dst, **members):
    """Copy the grid file src to dst with the given members replaced; a
    member given as None is left out."""
    with np.load(src) as npz:
        arrays = dict(npz)
    arrays.update(members)
    with open(dst, "wb") as fh:
        np.savez(fh, **{name: a for name, a in arrays.items() if a is not None})


def write_wav(path, data_int16, fs=8000, channels=1, width=2):
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(channels)
        wf.setsampwidth(width)
        wf.setframerate(fs)
        wf.writeframes(data_int16.tobytes())
