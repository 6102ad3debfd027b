from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import tfsqueeze as tq
from tfsqueeze.errors import InvalidParameterError
from tfsqueeze.tfr import regroup

from conftest import ridge_bins


def make_grid(data):
    n_frames, n_bins = data.shape
    return tq.TFRGrid(data, 0.0, 1.0, 0.5, "test", 1.0)


@st.composite
def grids_and_destinations(draw):
    n_frames = draw(st.integers(1, 6))
    n_bins = draw(st.integers(1, 9))
    parts = hnp.arrays(float, (n_frames, n_bins), elements=st.floats(-1e6, 1e6))
    data = draw(parts) + 1j * draw(parts)
    dest = draw(hnp.arrays(np.int64, (n_frames, n_bins),
                           elements=st.integers(0, n_bins - 1)))
    return make_grid(data), dest


def moving(grid, dest):
    """The rule that moves the grid's own cells to dest."""
    return lambda rows: (dest[rows], grid.data[rows])


def per_cell_oracle(data, dest):
    out = np.zeros_like(data)
    for n in range(data.shape[0]):
        for k in range(data.shape[1]):
            out[n, dest[n, k]] += data[n, k]
    return out


class TestRegroupKernel:
    @settings(max_examples=200, deadline=None)
    @given(grids_and_destinations())
    def test_matches_per_cell_oracle_and_keeps_frame_sums(self, case):
        grid, dest = case
        out = regroup(grid, moving(grid, dest), "moved")
        scale = np.abs(grid.data).sum(axis=1)  # per frame, so cancellation is fair
        np.testing.assert_allclose(out.data, per_cell_oracle(grid.data, dest),
                                   rtol=0, atol=1e-12 * scale.max())
        drift = np.abs(out.data.sum(axis=1) - grid.data.sum(axis=1))
        assert np.all(drift <= 1e-12 * scale)
        assert out.method_tag == "moved" and out.rho == grid.rho
        assert np.array_equal(out.freq_axis_hz, grid.freq_axis_hz)

    def test_own_bins_are_the_identity(self):
        data = np.random.default_rng(2).standard_normal((5, 7)) + 0j
        grid = make_grid(data)
        out = regroup(grid, moving(grid, np.tile(np.arange(7), (5, 1))), "same")
        assert np.array_equal(out.data, data)


def reduceat_oracle(grid, est):
    """The squeeze as a per-frame reduceat over each frame's basins, read
    straight from the estimate's basin starts."""
    out = np.zeros_like(grid.data)
    for n, ridges in enumerate(ridge_bins(est)):
        if ridges.size == 0:
            out[n] = grid.data[n]
        else:
            starts = est.starts[est.offsets[n]:est.offsets[n + 1]]
            out[n, ridges] = np.add.reduceat(grid.data[n], starts)
    return out


def detected_noisy_crossover(w128, w1024):
    sig, _ = tq.gen_crossover()
    grid = tq.stft(tq.add_noise(sig, 0.0, 1), w1024, 1024)
    floor = tq.gamma_floor(grid, 0.0)
    return grid, floor, tq.local_maxima(grid, floor)


def detected_burst(w128, w1024):
    samples = np.zeros(64, dtype=complex)
    samples[30:34] = 1.0
    grid = tq.stft(tq.Signal(samples, 128.0), w128, 128)
    floor = tq.gamma_floor(grid, 0.5)  # leaves ridgeless frames
    return grid, floor, tq.local_maxima(grid, floor)


def injected_crossover(w128, w1024):
    sig, model = tq.gen_crossover()
    grid = tq.stft(sig, w1024, 1024)
    return grid, tq.gamma_floor(grid, 0.1), tq.inject_if(grid, [m.if_hz for m in model.modes])


class TestSqueezeBitwise:
    @pytest.mark.parametrize("build", [detected_noisy_crossover, detected_burst,
                                       injected_crossover])
    def test_matches_per_frame_reduceat(self, build, w128, w1024):
        grid, floor, est = build(w128, w1024)
        out, _ = tq.modular_reassign(grid, est, floor)
        kept = replace(grid, data=np.where(np.abs(grid.data) > floor[:, None], grid.data, 0.0))
        assert np.array_equal(out.data, reduceat_oracle(kept, est))


class TestRegroupRejects:
    def test_destination_outside_the_frame(self):
        grid = make_grid(np.ones((3, 4), dtype=complex))
        for bad in (4, -1):
            dest = np.zeros((3, 4), dtype=np.int64)
            dest[1, 2] = bad
            with pytest.raises(InvalidParameterError):
                regroup(grid, moving(grid, dest), "moved")

    def test_destination_shape_must_match(self):
        grid = make_grid(np.ones((3, 4), dtype=complex))
        with pytest.raises(InvalidParameterError, match="do not match grid"):
            regroup(grid, moving(grid, np.zeros((3, 3), dtype=np.int64)), "moved")
