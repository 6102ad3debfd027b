import warnings
from dataclasses import replace

import numpy as np
import pytest

import tfsqueeze as tq
from tfsqueeze.errors import FormatError, InvalidParameterError

from conftest import half_circle, interior_mask, no_floor, ridge_bins, squeezed
from test_blocks import same_bits


def make_grid(rows, fs=1.0, df=1.0):
    return tq.TFRGrid(np.asarray(rows, dtype=complex), 0.0, df, 1.0, "test", fs)


def detect(grid):
    """Ridges and basins of grid with no gamma filter."""
    return tq.local_maxima(grid, no_floor(grid))


def ridges_and_edges_oracle(column):
    """Pure-python scan: strict interior maxima and inter-ridge minima."""
    mag = np.abs(column)
    n = mag.size
    ridges = [k for k in range(1, n - 1) if mag[k] > mag[k - 1] and mag[k] > mag[k + 1]]
    edges = [0]
    for a, b in zip(ridges, ridges[1:]):
        best = a + 1
        for k in range(a + 1, b):
            if mag[k] < mag[best]:
                best = k
        edges.append(best)
    edges.append(n)
    return ridges, edges


def edges_to_destinations(ridges, edges):
    """Each bin's basin ridge, basin i being [edges[i], edges[i+1]); the
    identity for a frame without ridges."""
    return np.repeat(ridges, np.diff(edges)) if ridges else np.arange(edges[-1])


class TestFilterGrid:
    """The gamma filter is one floor per frame, applied by detection and the
    squeeze."""

    def test_gamma_zero_keeps_everything_nonzero(self, tone32, w128):
        sig, _ = tone32
        grid = tq.stft(sig, w128, 128)
        assert np.all(np.abs(grid.data) > 0)  # tone STFT has no exact zeros
        floor = tq.gamma_floor(grid, 0.0)
        assert floor.shape == (grid.n_frames,) and not floor.any()
        out, kept = squeezed(grid, floor)
        est = tq.local_maxima(grid, floor)
        for bins, column in zip(ridge_bins(est), grid.data):
            assert bins.tolist() == ridges_and_edges_oracle(column)[0]
        assert np.array_equal(kept, grid.frame_sums)

    def test_near_one_keeps_only_the_peak(self):
        grid = make_grid([[1.0, 5.0, 2.0], [0.5, 1.0, 5.0]])
        floor = tq.gamma_floor(grid, 0.999999)
        assert np.array_equal(floor, [5.0 * 0.999999] * 2)
        out, kept = squeezed(grid, floor)  # frame 1 has no ridge and passes through
        assert out.data.tolist() == [[0, 5, 0], [0, 0, 5]]
        assert kept.tolist() == [5, 5]

    def test_a_cell_at_the_floor_is_dropped(self):
        # the floor is 0.5 x 8 = 4 exactly: every 4 is dropped, so the valley
        # between the ridges at bins 1 and 4 is two zeros and starts at bin 2
        grid = make_grid([[4.0, 8.0, 4.0, 1.0, 6.0, 4.0]])
        floor = tq.gamma_floor(grid, 0.5)
        est = tq.local_maxima(grid, floor)
        assert est.ridges.tolist() == [1, 4] and est.starts.tolist() == [0, 2]
        out, kept = squeezed(grid, floor)
        assert out.data.tolist() == [[0, 8, 0, 0, 6, 0]]
        assert kept.tolist() == [14]

    def test_fmam_nonzeros_strictly_decrease(self, fmam, w128):
        sig, _ = fmam
        grid = tq.stft(sig, w128, 128)
        floor = tq.gamma_floor(grid, 0.1)
        assert np.count_nonzero(np.abs(grid.data) > floor[:, None]) < grid.nonzero_count
        out, kept = squeezed(grid, floor)
        unfiltered, _ = squeezed(grid, no_floor(grid))
        assert out.nonzero_count < unfiltered.nonzero_count
        assert not np.array_equal(kept, grid.frame_sums)

    def test_per_frame_reference_keeps_every_frame_peak(self):
        grid = make_grid([[1.0, 0.1], [100.0, 10.0]])
        global_out, _ = squeezed(grid, tq.gamma_floor(grid, 0.5))
        frame_out, _ = squeezed(grid, tq.gamma_floor(grid, 0.5, per_frame=True))
        assert np.array_equal(tq.gamma_floor(grid, 0.5, per_frame=True), [0.5, 50.0])
        assert np.count_nonzero(global_out.data[0]) == 0
        assert np.count_nonzero(frame_out.data[0]) == 1

    @pytest.mark.parametrize("per_frame", [False, True])
    def test_zero_threshold_shares_the_cells(self, per_frame):
        # a zero floor drops nothing and copies nothing: -0.0 cells flow into
        # the squeeze as they are, and the kept sums are the grid's own
        grid = make_grid([[-0.0, 2.0, complex(-0.0, -0.0), 1.0, -0.0],
                          [0.5, -0.0, 3.0, complex(0.0, -0.0), 0.25],
                          [-0.0, -0.0, -0.0, -0.0, -0.0]])
        floor = tq.gamma_floor(grid, 0.0, per_frame)
        out, kept = squeezed(grid, floor)
        assert same_bits(kept, grid.frame_sums)
        # what filtering once copied: the kept cells into a zeroed grid, -0.0 as +0.0
        copied = replace(grid, data=np.where(np.abs(grid.data) > 0, grid.data, 0.0))
        assert np.signbit(copied.data.real).sum() == 0
        est, copied_est = tq.local_maxima(grid, floor), detect(copied)
        for name in ("ridges", "offsets", "starts"):
            assert np.array_equal(getattr(est, name), getattr(copied_est, name))
        assert same_bits(out.data, tq.modular_reassign(copied, copied_est, no_floor(copied))[0].data)
        # frame sums differ at most in the sign of a zero
        assert np.array_equal(kept, copied.frame_sums)

    def test_all_zero_grid_shares_the_cells(self):
        grid = make_grid(np.zeros((2, 4)))
        for gamma in (0.0, 0.5):
            floor = tq.gamma_floor(grid, gamma)
            assert not floor.any()
            out, kept = squeezed(grid, floor)
            assert out.nonzero_count == 0 and same_bits(kept, grid.frame_sums)

    @pytest.mark.parametrize("per_frame", [False, True])
    @pytest.mark.parametrize("gamma", [0.0, 0.1])
    def test_magnitude_past_the_float_range_rejected(self, gamma, per_frame):
        # finite cells whose |V| overflows: 0 * inf and 0.1 * inf floors
        # would drop every cell
        grid = tq.TFRGrid([[1.5e308 + 1.5e308j, 1, 2], [1, 3, 0]], 0, 1, 1, "stft", 1)
        assert grid.frame_peaks.tolist() == [np.inf, 3.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError,
                               match=r"^cannot filter the stft grid: a magnitude exceeds "
                                     r"the float range$"):
                tq.gamma_floor(grid, gamma, per_frame)

    @pytest.mark.parametrize("gamma", [-0.1, 1.0, 2.0])
    def test_rejects_bad_gamma(self, gamma, tone32, w128):
        sig, _ = tone32
        grid = tq.stft(sig, w128, 128)
        # the gamma's range is checked before the magnitudes
        grid = replace(grid, data=np.where(np.arange(128) == 3, 1.5e308 + 1.5e308j, grid.data))
        with pytest.raises(InvalidParameterError, match="^gamma must lie in"):
            tq.gamma_floor(grid, gamma)


class TestLocalMaxima:
    def test_single_peak_column(self):
        est = detect(make_grid([[0, 1, 3, 2, 1]]))
        assert ridge_bins(est)[0].tolist() == [2]
        assert est.destinations(slice(None))[0].tolist() == [2, 2, 2, 2, 2]

    def test_constant_column_has_no_ridge(self):
        est = detect(make_grid([[2, 2, 2, 2]]))
        assert ridge_bins(est)[0].size == 0
        assert est.destinations(slice(None))[0].tolist() == [0, 1, 2, 3]

    def test_two_ridges_with_tied_minimum(self):
        # minima candidates bins 2 and 3 tie at 1; the lower bin wins
        est = detect(make_grid([[0, 2, 1, 1, 4, 0]]))
        assert ridge_bins(est)[0].tolist() == [1, 4]
        assert est.destinations(slice(None))[0].tolist() == [1, 1, 4, 4, 4, 4]

    def test_edges_never_ridge(self):
        est = detect(make_grid([[5, 1, 0, 1, 5]]))
        assert ridge_bins(est)[0].size == 0

    def test_matches_exhaustive_oracle_on_random_columns(self):
        rng = np.random.default_rng(4)
        formats = [
            rng.random((50, 17)),
            np.round(rng.random((50, 17)) * 4),          # many plateaus and ties
            rng.random((50, 17)) * (rng.random((50, 17)) > 0.4),  # zeros
        ]
        for block in formats:
            est = detect(make_grid(block))
            dest = est.destinations(slice(None))
            for n in range(block.shape[0]):
                ridges, edges = ridges_and_edges_oracle(block[n])
                assert ridge_bins(est)[n].tolist() == ridges
                assert dest[n].tolist() == edges_to_destinations(ridges, edges).tolist()

    def test_freq_table_pads_with_nan_after_each_frames_ridges(self):
        rng = np.random.default_rng(7)
        block = rng.random((40, 13)) * (rng.random((40, 13)) > 0.3)
        est = detect(make_grid(block, df=0.5))
        table = est.freq_table_hz()
        assert table.shape == (40, est.counts().max())
        for n, bins in enumerate(ridge_bins(est)):
            assert table[n, :bins.size].tolist() == (0.5 * bins).tolist()
            assert np.all(np.isnan(table[n, bins.size:]))

    def test_destinations_of_a_slice_are_its_rows(self, fmam, w128):
        sig, _ = fmam
        est = detect(tq.stft(sig, w128, 128))
        whole = est.destinations(slice(None))
        n = est.n_frames
        for rows in (slice(0, 5), slice(3, 17), slice(n - 2, n), slice(7, 7)):
            assert np.array_equal(est.destinations(rows), whole[rows])
        with pytest.raises(InvalidParameterError, match="consecutive frames"):
            est.destinations(slice(0, n, 2))

    def test_partition_invariants(self, fmam, w128):
        sig, _ = fmam
        grid = tq.stft(sig, w128, 128)
        est = detect(grid)
        dest = est.destinations(slice(None))
        assert dest.shape == (est.n_frames, grid.n_bins)
        for n in range(est.n_frames):
            ridges = ridge_bins(est)[n]
            # a basin is a run of one destination, so run starts are its edges;
            # ridges increase, so this also says the runs are distinct and in order
            edges = np.flatnonzero(np.diff(dest[n], prepend=-1))
            assert dest[n, edges].tolist() == ridges.tolist()
            for i, r in enumerate(ridges):
                assert dest[n, r] == r
                if i > 0:
                    assert dest[n, r - 1] == r  # strictly inside, never on the edge

    def test_tone_single_ridge_at_f0(self, tone32, w128):
        sig, _ = tone32
        grid = tq.stft(sig, w128, 128)
        est = tq.local_maxima(grid, tq.gamma_floor(grid, 0.1))
        interior = interior_mask(grid.n_frames, w128)
        for n in np.nonzero(interior)[0]:
            assert ridge_bins(est)[n].tolist() == [32]

    def test_fmam_two_ridges_below_nyquist(self, fmam, w128):
        sig, model = fmam
        half = half_circle(tq.stft(sig, w128, 128))
        est = tq.local_maxima(half, tq.gamma_floor(half, 0.2))
        interior = interior_mask(half.n_frames, w128)
        assert np.all(est.counts()[interior] == 2)
        assert tq.ridge_mae(est, model, frames=interior) <= 1.0


    @pytest.mark.parametrize("gamma", [0.0, 0.1, 0.6])
    def test_gamma_detects_on_the_filtered_grid(self, gamma):
        # the scan's ridges are those of local_maxima at the gamma floor, on
        # the grid or on its half circle
        rng = np.random.default_rng(7)
        grid = make_grid(rng.standard_normal((40, 64)) + 1j * rng.standard_normal((40, 64)))
        for real, view in ((False, grid), (True, half_circle(grid))):
            found = tq.scan(grid, gamma, real)[1]
            oracle = tq.local_maxima(view, tq.gamma_floor(view, gamma))
            for name in ("ridges", "offsets", "freq_axis_hz"):
                assert np.array_equal(getattr(found, name), getattr(oracle, name)), name


class TestInjectIf:
    def test_constant_trajectory(self, crossover, w1024):
        sig, _ = crossover
        grid = tq.stft(sig, w1024, 1024)
        est = tq.inject_if(grid, [lambda t: 250.0 * np.ones_like(t)])
        assert [bins.tolist() for bins in ridge_bins(est)] == [[250]] * est.n_frames

    def test_crossing_trajectories_merge(self, crossover, w1024):
        sig, model = crossover
        grid = tq.stft(sig, w1024, 1024)
        est = tq.inject_if(grid, [m.if_hz for m in model.modes])
        n_cross = int(np.argmin(np.abs(grid.time_axis_s - 0.25)))
        assert ridge_bins(est)[n_cross].tolist() == [250]
        n_mid = int(np.argmin(np.abs(grid.time_axis_s - 0.5)))
        assert ridge_bins(est)[n_mid].tolist() == [150, 250, 350]

    def test_out_of_range_on_half_circle(self, crossover, w1024):
        sig, _ = crossover
        half = half_circle(tq.stft(sig, w1024, 1024))
        with pytest.raises(InvalidParameterError, match="trajectory range"):
            tq.inject_if(half, [lambda t: 600.0 * np.ones_like(t)])

    def test_midpoint_edges(self, crossover, w1024):
        sig, _ = crossover
        grid = tq.stft(sig, w1024, 1024)
        est = tq.inject_if(grid, [lambda t: 100.0 * np.ones_like(t),
                                  lambda t: 105.0 * np.ones_like(t)])
        # midpoint of 100 and 105 is 102.5; the tie resolves to the lower bin
        assert est.destinations(slice(None))[0].tolist() == [100] * 102 + [105] * 922

    def test_adjacent_ridges_stay_in_own_basins(self, crossover, w1024):
        sig, _ = crossover
        grid = tq.stft(sig, w1024, 1024)
        est = tq.inject_if(grid, [lambda t: 250.0 * np.ones_like(t),
                                  lambda t: 251.0 * np.ones_like(t)])
        dest = est.destinations(slice(None))[0]
        ridges = ridge_bins(est)[0]
        assert ridges.tolist() == [250, 251]
        assert dest.tolist() == [250] * 251 + [251] * 773
        for r in ridges:
            assert dest[r] == r


class TestTrajectoryCsv:
    def test_interpolation(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("time_s,f1_hz,f2_hz\n0.0,100,200\n1.0,110,180\n")
        tracks = tq.load_trajectories_csv(path)
        assert len(tracks) == 2
        assert np.isclose(tracks[0](np.array(0.5)), 105.0)
        assert np.isclose(tracks[1](np.array(0.25)), 195.0)

    def test_clamps_outside_span(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("0.0,100\n1.0,110\n")
        track = tq.load_trajectories_csv(path)[0]
        assert track(np.array(2.0)) == 110.0

    def test_bad_rows_raise_with_position(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("0.0,100\n0.5,oops\n")
        with pytest.raises(FormatError, match="line 2"):
            tq.load_trajectories_csv(path)

    def test_column_count_mismatch(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("0.0,100,200\n0.5,100\n")
        with pytest.raises(FormatError, match="line 2"):
            tq.load_trajectories_csv(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("# nothing\n")
        with pytest.raises(FormatError):
            tq.load_trajectories_csv(path)


def inject_oracle(frame_bins, n_bins):
    """One frame of inject_if by hand: merged ridges, midpoint edges."""
    ridges = sorted(set(int(b) for b in frame_bins))
    edges = [0]
    for low, high in zip(ridges, ridges[1:]):
        edge = (low + high) // 2  # midpoint, ties to the lower bin
        if edge <= low:
            edge = low + 1  # adjacent ridges: the upper one starts its own basin
        edges.append(edge)
    edges.append(n_bins)
    return ridges, edges


class TestInjectIfOracle:
    @pytest.mark.parametrize("n_bins", [1, 2, 5, 16])
    def test_random_tracks_with_duplicates_and_neighbours(self, n_bins):
        rng = np.random.default_rng(n_bins)
        n_frames = 60
        bins = rng.integers(0, n_bins, size=(n_frames, 4))
        # second track repeats or neighbours the first on most frames
        bins[:, 1] = np.clip(bins[:, 0] + rng.integers(-1, 2, size=n_frames), 0, n_bins - 1)
        grid = make_grid(np.zeros((n_frames, n_bins)))
        times = grid.time_axis_s
        tracks = [lambda t, col=col: np.interp(t, times, grid.freq_axis_hz[col])
                  for col in bins.T]
        est = tq.inject_if(grid, tracks)
        assert est.counts().tolist() == [len(set(row)) for row in bins.tolist()]
        dest = est.destinations(slice(None))
        for n in range(n_frames):
            ridges, edges = inject_oracle(bins[n], n_bins)
            assert ridge_bins(est)[n].tolist() == ridges
            assert dest[n].tolist() == edges_to_destinations(ridges, edges).tolist()
            for i, r in enumerate(ridges):
                assert edges[i] <= r < edges[i + 1]
