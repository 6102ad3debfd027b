import numpy as np
import pytest

import tfsqueeze as tq
from tfsqueeze.errors import FormatError, InvalidParameterError

from conftest import interior_mask, ridge_bins


def make_grid(rows, fs=1.0, df=1.0):
    return tq.TFRGrid(np.asarray(rows, dtype=complex), 0.0, df, 1.0, "test", fs)


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
    def test_gamma_zero_keeps_everything_nonzero(self, tone32, w128):
        sig, _ = tone32
        grid = tq.stft(sig, w128, 128)
        assert np.all(np.abs(grid.data) > 0)  # tone STFT has no exact zeros
        out = tq.filter_grid(grid, 0.0)
        assert np.array_equal(out.data, grid.data)
        assert out.method_tag == "stft+filtered"

    def test_near_one_keeps_only_the_peak(self):
        grid = make_grid([[1.0, 5.0, 2.0], [0.5, 1.0, 5.0]])
        out = tq.filter_grid(grid, 0.999999)
        assert np.count_nonzero(out.data) == 2
        assert out.data[0, 1] == 5.0 and out.data[1, 2] == 5.0

    def test_fmam_nonzeros_strictly_decrease(self, fmam, w128):
        sig, _ = fmam
        grid = tq.stft(sig, w128, 128)
        out = tq.filter_grid(grid, 0.1)
        assert np.count_nonzero(out.data) < np.count_nonzero(grid.data)

    def test_per_frame_reference_keeps_every_frame_peak(self):
        grid = make_grid([[1.0, 0.1], [100.0, 10.0]])
        global_out = tq.filter_grid(grid, 0.5)
        frame_out = tq.filter_grid(grid, 0.5, per_frame=True)
        assert np.count_nonzero(global_out.data[0]) == 0
        assert np.count_nonzero(frame_out.data[0]) == 1

    @pytest.mark.parametrize("gamma", [-0.1, 1.0, 2.0])
    def test_rejects_bad_gamma(self, gamma, tone32, w128):
        sig, _ = tone32
        grid = tq.stft(sig, w128, 128)
        with pytest.raises(InvalidParameterError):
            tq.filter_grid(grid, gamma)


class TestLocalMaxima:
    def test_single_peak_column(self):
        est = tq.local_maxima(make_grid([[0, 1, 3, 2, 1]]))
        assert ridge_bins(est)[0].tolist() == [2]
        assert est.destinations(slice(None))[0].tolist() == [2, 2, 2, 2, 2]

    def test_constant_column_has_no_ridge(self):
        est = tq.local_maxima(make_grid([[2, 2, 2, 2]]))
        assert ridge_bins(est)[0].size == 0
        assert est.destinations(slice(None))[0].tolist() == [0, 1, 2, 3]

    def test_two_ridges_with_tied_minimum(self):
        # minima candidates bins 2 and 3 tie at 1; the lower bin wins
        est = tq.local_maxima(make_grid([[0, 2, 1, 1, 4, 0]]))
        assert ridge_bins(est)[0].tolist() == [1, 4]
        assert est.destinations(slice(None))[0].tolist() == [1, 1, 4, 4, 4, 4]

    def test_edges_never_ridge(self):
        est = tq.local_maxima(make_grid([[5, 1, 0, 1, 5]]))
        assert ridge_bins(est)[0].size == 0

    def test_matches_exhaustive_oracle_on_random_columns(self):
        rng = np.random.default_rng(4)
        formats = [
            rng.random((50, 17)),
            np.round(rng.random((50, 17)) * 4),          # many plateaus and ties
            rng.random((50, 17)) * (rng.random((50, 17)) > 0.4),  # zeros
        ]
        for block in formats:
            est = tq.local_maxima(make_grid(block))
            dest = est.destinations(slice(None))
            for n in range(block.shape[0]):
                ridges, edges = ridges_and_edges_oracle(block[n])
                assert ridge_bins(est)[n].tolist() == ridges
                assert dest[n].tolist() == edges_to_destinations(ridges, edges).tolist()

    def test_freq_table_pads_with_nan_after_each_frames_ridges(self):
        rng = np.random.default_rng(7)
        block = rng.random((40, 13)) * (rng.random((40, 13)) > 0.3)
        est = tq.local_maxima(make_grid(block, df=0.5))
        table = est.freq_table_hz()
        assert table.shape == (40, est.counts().max())
        for n, bins in enumerate(ridge_bins(est)):
            assert table[n, :bins.size].tolist() == (0.5 * bins).tolist()
            assert np.all(np.isnan(table[n, bins.size:]))

    def test_destinations_of_a_slice_are_its_rows(self, fmam, w128):
        sig, _ = fmam
        est = tq.local_maxima(tq.stft(sig, w128, 128))
        whole = est.destinations(slice(None))
        n = est.n_frames
        for rows in (slice(0, 5), slice(3, 17), slice(n - 2, n), slice(7, 7)):
            assert np.array_equal(est.destinations(rows), whole[rows])
        with pytest.raises(InvalidParameterError, match="consecutive frames"):
            est.destinations(slice(0, n, 2))

    def test_partition_invariants(self, fmam, w128):
        sig, _ = fmam
        grid = tq.stft(sig, w128, 128)
        est = tq.local_maxima(grid)
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
        est = tq.local_maxima(tq.filter_grid(grid, 0.1))
        interior = interior_mask(grid.n_frames, w128)
        for n in np.nonzero(interior)[0]:
            assert ridge_bins(est)[n].tolist() == [32]

    def test_fmam_two_ridges_below_nyquist(self, fmam, w128):
        sig, model = fmam
        half = tq.half_circle(tq.stft(sig, w128, 128))
        est = tq.local_maxima(tq.filter_grid(half, 0.2))
        interior = interior_mask(half.n_frames, w128)
        assert np.all(est.counts()[interior] == 2)
        assert tq.ridge_mae(est, model, frames=interior) <= 1.0


    @pytest.mark.parametrize("gamma", [0.0, 0.1, 0.6])
    def test_gamma_detects_on_the_filtered_grid(self, gamma):
        # the scan's ridges are those of local_maxima on filter_grid's output,
        # on the grid or on its half circle
        rng = np.random.default_rng(7)
        grid = make_grid(rng.standard_normal((40, 64)) + 1j * rng.standard_normal((40, 64)))
        for real, view in ((False, grid), (True, tq.half_circle(grid))):
            found = tq.scan(grid, gamma, real)[1]
            oracle = tq.local_maxima(tq.filter_grid(view, gamma))
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
        half = tq.half_circle(tq.stft(sig, w1024, 1024))
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
