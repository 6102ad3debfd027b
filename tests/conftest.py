import wave

import numpy as np
import pytest

import tfsqueeze as tq


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
