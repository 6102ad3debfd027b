"""Exactness as a property: every invertible method keeps each frame's sum,
so its grid inverts to the same signal as the cells it moved mass from
(for the squeeze, the cells above the gamma floor). The squeeze keeps it on
any frame-local transform, not only on the STFT.

Inputs span the degenerate ends the CLI admits: 1 to 200 samples, real and
complex, with or without silent stretches, amplitudes from 1e-150 to 1e150,
windows from 1 to 73 taps, and DFT sizes from the tap count to 39 bins
above it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tfsqueeze as tq
from tfsqueeze.tfr import frame_matrix

FS_HZ = 128.0


@st.composite
def analyses(draw) -> tq.Analysis:
    n = draw(st.integers(1, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    samples = rng.standard_normal(n)
    if draw(st.booleans()):
        samples = samples + 1j * rng.standard_normal(n)
    if draw(st.booleans()):  # silent stretches: cells whose V is exactly 0
        samples[1:][rng.random(n - 1) < 0.5] = 0.0
    amplitude = 10.0 ** draw(st.floats(-150.0, 150.0))
    # 6 * sigma * fs = half + 0.5, which floors to `half` taps a side
    half = draw(st.integers(0, 36))
    w = tq.WindowSpec((half + 0.5) / (6.0 * FS_HZ), FS_HZ)
    nfft = w.taps + draw(st.integers(0, 39))
    return tq.Analysis(tq.Signal(amplitude * samples, FS_HZ), w, nfft)


def _proposed(grid, gamma, tracks_hz=()):
    """(frame sums of the kept cells, the squeeze's output)."""
    floor = tq.gamma_floor(grid, gamma)
    if tracks_hz:
        est = tq.inject_if(grid, [lambda t, f=f: f for f in tracks_hz])
    else:
        est = tq.local_maxima(grid, floor)
    out, kept = tq.modular_reassign(grid, est, floor)
    return kept, out


@st.composite
def runs(draw, method):
    """(frame sums of the cells the method moved, method output)."""
    a = draw(analyses())
    if method == "stft":
        return a.grid.frame_sums, a.grid
    if method == "sst":
        return a.grid.frame_sums, tq.sst(a)
    if method == "lmsst":
        return a.grid.frame_sums, tq.lmsst(a, draw(st.integers(0, a.grid.n_bins - 1)))
    gamma = draw(st.sampled_from([0.0, 0.1, 0.5]))
    tracks = []
    if method == "injected":
        top = a.grid.freq_axis_hz[-1]
        tracks = draw(st.lists(st.floats(0.0, top), min_size=1, max_size=3))
    return _proposed(a.grid, gamma, tracks)


@pytest.mark.parametrize("method", ["stft", "sst", "lmsst", "detected", "injected"])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_frame_sums_and_inverse_are_kept(method, data):
    sums, out = data.draw(runs(method))
    assert tq.framesum_max_dev(sums, out) <= 1e-12
    want = out.rho * sums
    got = tq.istft(out).samples
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@st.composite
def chirplet_grids(draw) -> tq.TFRGrid:
    """The hop-1 chirplet transform (Mann & Haykin 1995): window taps
    g(t) * exp(-j*pi*c*t^2) with a chirp rate c in Hz/s. Its frame sums are
    nfft * g(0) * s[n], as the STFT's are, so it inverts by the same rho."""
    a = draw(analyses())
    w = a.w
    t = np.arange(-w.half, w.half + 1) / w.fs_hz
    c = draw(st.floats(-FS_HZ**2, FS_HZ**2))
    taps = w.values * np.exp(-1j * np.pi * c * t**2)
    data = frame_matrix(a.sig, taps, a.nfft)(slice(None))
    return tq.TFRGrid(data, a.sig.t0_s, FS_HZ / a.nfft, 1.0 / a.nfft, "chirplet", FS_HZ)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(grid=chirplet_grids(), gamma=st.sampled_from([0.0, 0.1, 0.5]))
def test_the_squeeze_plugs_into_a_chirplet_grid(grid, gamma):
    sums, out = _proposed(grid, gamma)
    assert tq.framesum_max_dev(sums, out) <= 1e-12
    want = out.rho * sums
    got = tq.istft(out).samples
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
