import ast
import dataclasses
import io
import json
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import tfsqueeze as tq
from tfsqueeze import io_export
from tfsqueeze.errors import FormatError

from conftest import half_circle, rewrite_grid

# values that every file must carry exactly: signed zeros, subnormals and the
# ends of the finite range
EDGE_FLOATS = (-0.0, 0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e308, -1e308,
               1.7976931348623157e308, 0.1)
finite = st.one_of(st.sampled_from(EDGE_FLOATS),
                   st.floats(allow_nan=False, allow_infinity=False))
# a function-scoped tmp_path is fine: every example overwrites the same file
roundtrip_settings = settings(max_examples=100, deadline=None,
                              suppress_health_check=[HealthCheck.function_scoped_fixture])


def bits(values) -> np.ndarray:
    """The IEEE 754 bit patterns of float or complex values, as uint64."""
    return np.ascontiguousarray(values).view(np.uint64)


def random_grid(seed=0, n_frames=12, n_bins=16, rho=0.25, tag="stft"):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n_frames, n_bins)) * np.exp(
        2j * np.pi * rng.random((n_frames, n_bins)))
    fs = 16.0
    return tq.TFRGrid(data, 0.0, fs / n_bins, rho, tag, fs)


def _trip():
    raise AssertionError("a grid file member was unpickled")


class Trap:
    """Unpickling an instance calls _trip."""

    def __reduce__(self):
        return _trip, ()


def _blocks_full_empty_and_sparse():
    # 128 bins take 512 frames per block: a full block, an empty one, and a
    # sparse one whose -0.0 and subnormal cells must be kept
    data = np.zeros((1100, 128), dtype=np.complex128)
    data[:512] = random_grid(1, 512, 128).data
    rng = np.random.default_rng(2)
    data[1024:][rng.random((76, 128)) < 0.05] = 1 - 2j
    data[1030, 3], data[1031, 4], data[1099, 127] = complex(-0.0, 0.0), 5e-324j, -1.0
    return data


def _negative_zeros():
    data = np.zeros((600, 129), dtype=np.complex128)
    data.ravel()[::7] = complex(-0.0, 0.0)
    data.ravel()[3::11] = complex(0.0, -0.0)
    return data


# grids around the writer's block edges, and ones with no stored cell or only
# signed zeros stored
WRITER_GRIDS = {
    "dense": lambda: random_grid(0, 600, 257).data,  # 255 frames per block
    "blocks-full-empty-sparse": _blocks_full_empty_and_sparse,
    "all-zero": lambda: np.zeros((70, 1000), dtype=np.complex128),
    "negative-zeros": _negative_zeros,
    "one-frame": lambda: random_grid(3, 1, 9).data,
    "one-bin": lambda: random_grid(4, 65537, 1).data,  # two blocks of one bin
}


class TestGridCsv:
    """The grid file; the class is named after export_grid_csv."""

    def test_roundtrip_bit_exact(self, tmp_path):
        grid = random_grid(seed=3)
        path = tmp_path / "grid.npz"
        tq.export_grid_csv(grid, path)
        back = tq.import_grid_csv(path)
        assert np.array_equal(back.data, grid.data)
        assert back.method_tag == grid.method_tag
        assert back.rho == grid.rho
        assert back.source_fs_hz == grid.source_fs_hz
        assert np.array_equal(back.time_axis_s, grid.time_axis_s)
        assert np.array_equal(back.freq_axis_hz, grid.freq_axis_hz)

    # the axes are t0 + n / fs and k * df on both sides of the file; rebuilt
    # as t0 + n * dt, 144 of 1000 time stamps differ at 1 kHz
    @pytest.mark.parametrize("fs, n_samples, nfft", [
        (1000.0, 1000, 1), (44100.0, 44100, 1), (1024.0, 64, 100)])
    def test_axes_roundtrip_bit_exact(self, tmp_path, fs, n_samples, nfft):
        sig = tq.Signal(np.ones(n_samples), fs)
        grid = tq.stft(sig, tq.WindowSpec(1e-9, fs), nfft)
        path = tmp_path / "grid.npz"
        tq.export_grid_csv(grid, path)
        back = tq.import_grid_csv(path)
        assert np.array_equal(bits(back.time_axis_s), bits(sig.times_s))
        assert np.array_equal(bits(back.freq_axis_hz), bits(grid.freq_axis_hz))

    def test_nan_rho_roundtrips(self, tmp_path):
        grid = random_grid(rho=float("nan"), tag="rm")
        path = tmp_path / "grid.npz"
        tq.export_grid_csv(grid, path)
        back = tq.import_grid_csv(path)
        assert np.isnan(back.rho)

    def test_zero_grid_cells(self, tmp_path, w128):
        # no cell of an all-zero grid is stored, and all come back
        grid = tq.stft(tq.Signal(np.zeros(8), 128.0), w128, 128)
        path = tmp_path / "grid.npz"
        tq.export_grid_csv(grid, path)
        with np.load(path) as npz:
            assert npz["idx"].size == npz["val"].size == 0
            assert npz["shape"].tolist() == [8, 128]
        assert np.array_equal(bits(tq.import_grid_csv(path).data), bits(grid.data))

    def test_stores_exactly_the_bitwise_nonzero_cells(self, tmp_path):
        data = np.zeros((3, 4), dtype=np.complex128)
        data[0, 1] = complex(-0.0, 0.0)
        data[1, 0] = complex(0.0, -0.0)
        data[1, 3] = 5e-324j
        data[2, 2] = -1e308 + 1e308j
        grid = tq.TFRGrid(data, 0.0, 1.0, 0.5, "t", 4.0)
        path = tmp_path / "grid.npz"
        tq.export_grid_csv(grid, path)
        with np.load(path) as npz:
            assert sorted(npz.files) == ["dfreq", "fs", "idx", "method", "rho", "shape",
                                         "t0", "val"]
            assert npz["idx"].tolist() == [1, 4, 7, 10]
            assert np.array_equal(bits(npz["val"]), bits(data.ravel()[[1, 4, 7, 10]]))
        assert np.array_equal(bits(tq.import_grid_csv(path).data), bits(data))

    @pytest.mark.parametrize("name", sorted(WRITER_GRIDS))
    def test_bytes_are_np_savez_of_the_members(self, tmp_path, name):
        # the writer streams block by block; np.savez of the same members,
        # taken from the whole grid, on the running numpy writes the same bytes
        grid = tq.TFRGrid(WRITER_GRIDS[name](), 0.5, 2.0, 1 / 3, name, 4.0)
        path = tmp_path / "grid.npz"
        tq.export_grid_csv(grid, path)
        flat = grid.data.ravel()
        idx = np.flatnonzero(bits(flat).reshape(-1, 2).any(axis=1))
        members = io.BytesIO()
        np.savez(members, method=grid.method_tag, fs=grid.source_fs_hz, t0=grid.t0_s,
                 dfreq=grid.df_hz, rho=grid.rho,
                 shape=np.array(grid.data.shape, dtype=np.int64), idx=idx, val=flat[idx])
        assert path.read_bytes() == members.getvalue()
        assert np.array_equal(bits(tq.import_grid_csv(path).data), bits(grid.data))

    def test_dense_write_holds_no_whole_grid_array(self, tmp_path, monkeypatch):
        # one block's mask, indices and cells per thread, 0.034 grids on two CPUs;
        # the whole-grid bit mask, index and copy of the cells read 2
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(io_export, "_quota_cpus", lambda: None)
        grid = random_grid(n_frames=2048, n_bins=1024)
        tracemalloc.start()
        try:
            tq.export_grid_csv(grid, tmp_path / "grid.npz")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / grid.data.nbytes <= 0.05

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.npz", tmp_path / "b.npz"
        tq.export_grid_csv(random_grid(seed=9), a)
        tq.export_grid_csv(random_grid(seed=9), b)
        assert a.read_bytes() == b.read_bytes()

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "grid.npz"
        tq.export_grid_csv(random_grid(), path)
        rewrite_grid(path, path, method=None)
        with pytest.raises(FormatError, match="grid.npz: .*method"):
            tq.import_grid_csv(path)

    def test_pickled_member_refused_unloaded(self, tmp_path):
        path = tmp_path / "grid.npz"
        tq.export_grid_csv(random_grid(), path)
        rewrite_grid(path, path, method=np.array(Trap(), dtype=object))
        with pytest.raises(FormatError, match="grid.npz: .*allow_pickle"):
            tq.import_grid_csv(path)

    def test_compressed_member_refused(self, tmp_path):
        # a deflated member could inflate past the cell budget before any check
        path = tmp_path / "grid.npz"
        tq.export_grid_csv(random_grid(), path)
        with np.load(path) as npz:
            np.savez_compressed(tmp_path / "zipped.npz", **npz)
        with pytest.raises(FormatError, match="zipped.npz: .*compressed member"):
            tq.import_grid_csv(tmp_path / "zipped.npz")

    @pytest.mark.parametrize("edit", [
        lambda idx: idx[::-1], lambda idx: np.sort(np.r_[idx, idx[:1]]),
        lambda idx: np.r_[-1, idx[1:]], lambda idx: np.r_[idx[:-1], 12 * 16]],
        ids=["unsorted", "duplicate", "negative", "past-the-end"])
    def test_bad_idx_refused(self, tmp_path, edit):
        path = tmp_path / "grid.npz"
        tq.export_grid_csv(random_grid(), path)  # every one of its cells is stored
        with np.load(path) as npz:
            idx, val = npz["idx"], npz["val"]
        rewrite_grid(path, path, idx=edit(idx), val=np.resize(val, edit(idx).size))
        with pytest.raises(FormatError, match=r"grid.npz: idx must increase strictly"):
            tq.import_grid_csv(path)

    @pytest.mark.parametrize("n_val", [0, 191, 193])
    def test_val_idx_length_mismatch_refused(self, tmp_path, n_val):
        path = tmp_path / "grid.npz"
        tq.export_grid_csv(random_grid(), path)
        rewrite_grid(path, path, val=np.ones(n_val, dtype=np.complex128))
        with pytest.raises(FormatError, match=f"grid.npz: val holds {n_val} cells, idx 192"):
            tq.import_grid_csv(path)

    @roundtrip_settings
    @given(shape=st.tuples(st.integers(1, 4), st.integers(1, 5)), data=st.data(),
           rho=st.one_of(st.just(float("nan")), finite))
    def test_roundtrip_bit_exact_property(self, tmp_path, shape, data, rho):
        parts = hnp.arrays(float, shape, elements=finite)
        values = np.empty(shape, dtype=np.complex128)
        values.real, values.imag = data.draw(parts), data.draw(parts)
        fs = 16.0
        grid = tq.TFRGrid(values, 0.0, fs / shape[1], rho, "proposed", fs)
        path = tmp_path / "grid.npz"
        tq.export_grid_csv(grid, path)
        back = tq.import_grid_csv(path)
        assert np.array_equal(bits(back.data), bits(grid.data))
        assert np.array_equal(bits([back.rho, back.source_fs_hz]), bits([rho, fs]))


class TestSignalCsv:
    @roundtrip_settings
    @given(re=hnp.arrays(float, st.integers(1, 8), elements=finite),
           complex_valued=st.booleans(), data=st.data(),
           fs=st.floats(1e-300, 1e300), t0=finite)
    def test_roundtrip_bit_exact_property(self, tmp_path, re, complex_valued, data,
                                          fs, t0):
        samples = re.astype(np.complex128)
        if complex_valued:
            samples.imag = data.draw(hnp.arrays(float, re.shape, elements=finite))
            assume(np.any(samples.imag != 0.0))  # else it is written as real
        sig = tq.Signal(samples, fs, t0)
        path = tmp_path / "sig.csv"
        tq.save_signal_csv(sig, path)
        back = tq.load_signal(path)
        assert np.array_equal(bits(back.samples), bits(sig.samples))
        assert np.array_equal(bits([back.sample_rate_hz, back.t0_s]), bits([fs, t0]))


class TestTrajectoryCsv:
    def test_comments_and_name_rows_skipped(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("# written by an external tracker\n\n"
                        "time,mode a,mode b\nseconds,Hz,Hz\n"
                        "0.0,100,200\n# comment between rows\n1.0,110,180\n")
        tracks = tq.load_trajectories_csv(path)
        assert [track(np.array(0.5)) for track in tracks] == [105.0, 190.0]

    def test_nan_padded_rows_written_empty(self, tmp_path):
        nan = float("nan")
        path = tmp_path / "ridges.csv"
        tq.export_trajectories_csv([0.0, 0.5, 1.0],
                                   [[10.0, 0.1], [12.5, nan], [nan, nan]], path)
        assert path.read_bytes() == (b"time_s,f1_hz,f2_hz\n"
                                     b"0,10,0.10000000000000001\n"
                                     b"0.5,12.5,\n"
                                     b"1,,\n")
        # a ragged table is not trajectory input: every track needs every time
        with pytest.raises(FormatError, match="line 3"):
            tq.load_trajectories_csv(path)


    @pytest.mark.parametrize("time", ["nan", "inf", "-inf"])
    def test_non_finite_time_rejected(self, tmp_path, time):
        # a NaN time would drop its row from the interpolation, an infinite
        # one would flatten the track to one value
        path = tmp_path / "traj.csv"
        path.write_text(f"time_s,f1_hz\n0,20\n{time},30\n1,40\n")
        with pytest.raises(FormatError, match=f"traj.csv: line 3: time {time} is not finite"):
            tq.load_trajectories_csv(path)


@pytest.mark.parametrize("read", [tq.load_signal, tq.load_trajectories_csv])
def test_non_utf8_text_rejected(tmp_path, read):
    path = tmp_path / "latin1.csv"
    path.write_bytes("# fs=1\n0,caf\u00e9\n".encode("latin-1"))
    with pytest.raises(FormatError, match="not UTF-8"):
        read(path)


def write_heatmap(grid, path):
    tq.export_pgm(tq.scan(grid, 0.0, True)[2], path)


class TestHeatmapPgm:
    """The heatmap that scan renders and export_pgm writes."""

    def test_header_and_dimensions(self, tmp_path, fmam, w128):
        sig, _ = fmam
        grid = tq.stft(sig, w128, 128)
        path = tmp_path / "map.pgm"
        write_heatmap(grid, path)
        blob = path.read_bytes()
        magic, dims, maxval = blob.split(b"\n", 3)[:3]
        assert magic == b"P5" and maxval == b"255"
        width, height = map(int, dims.split())
        assert (width, height) == (128, 64)
        pixels = blob.split(b"\n", 3)[3]
        assert len(pixels) == width * height

    @pytest.mark.parametrize("nfft", [1, 2, 3, 5, 8])
    def test_rows_are_the_bins_below_nyquist(self, tmp_path, nfft):
        fs = 128.0
        grid = tq.stft(tq.Signal(np.ones(4), fs), tq.WindowSpec(1e-9, fs), nfft)
        below = np.count_nonzero(grid.freq_axis_hz < fs / 2)
        assert half_circle(grid).n_bins == below
        path = tmp_path / "map.pgm"
        write_heatmap(grid, path)
        assert path.read_bytes().split(b"\n", 3)[1] == f"4 {below}".encode()

    def test_peak_maps_to_255_and_floor_to_0(self, tmp_path):
        data = np.zeros((2, 8), dtype=complex)
        data[0, 1] = 1.0     # peak
        data[1, 2] = 1e-9    # far below -60 dB
        fs = 8.0
        grid = tq.TFRGrid(data, 0.0, 1.0, 1.0, "t", fs)
        path = tmp_path / "map.pgm"
        write_heatmap(grid, path)
        pixels = np.frombuffer(path.read_bytes().split(b"\n", 3)[3], dtype=np.uint8)
        image = pixels.reshape(4, 2)  # rows top..bottom = bins 3..0
        assert image[2, 0] == 255    # bin 1, frame 0
        assert image[1, 1] == 0      # bin 2, frame 1, clipped
        assert image.max() == 255

    def test_frequency_increases_upward(self, tmp_path, w128):
        sig, _ = tq.gen_tone(48, 128, 1)
        grid = tq.stft(sig, w128, 128)
        path = tmp_path / "map.pgm"
        write_heatmap(grid, path)
        blob = path.read_bytes()
        width, height = map(int, blob.split(b"\n", 3)[1].split())
        pixels = np.frombuffer(blob.split(b"\n", 3)[3], dtype=np.uint8)
        image = pixels.reshape(height, width)
        brightest_row = int(np.argmax(image.sum(axis=1)))
        assert brightest_row == (height - 1) - 48

    def test_builds_no_grid(self, monkeypatch, fmam, w128):
        # the shown bins and a real signal's view are slices of the data: a
        # half-circle TFRGrid would take its facts in a construction pass the
        # scan never reads
        grid = tq.stft(fmam[0], w128, 128)
        built, post_init = [], tq.TFRGrid.__post_init__
        monkeypatch.setattr(tq.TFRGrid, "__post_init__",
                            lambda self: built.append(self) or post_init(self))
        tq.scan(grid, 0.1, True)
        assert built == []
        half_circle(grid)
        assert len(built) == 1  # the count sees a construction


class TestReportJson:
    def test_empty_list(self, tmp_path):
        path = tmp_path / "report.json"
        tq.export_report_json([], path)
        assert path.read_text().strip() == "[]"

    def test_roundtrip_lossless(self, tmp_path):
        report = tq.MethodReport(
            method_tag="sst",
            renyi_entropy_bits=8.274619203847561,
            nonzero_fraction=1.0 / 3.0,
            recon_rel_l2=1.2345678901234567e-11,
            ridge_mae_bins=0.1875,
            framesum_max_dev=2.2e-16,
        )
        path = tmp_path / "report.json"
        tq.export_report_json([report], path)
        back = json.loads(path.read_text())
        assert back == [dataclasses.asdict(report)]

    def test_absent_metrics_serialize_as_null(self, tmp_path):
        report = tq.MethodReport("rm", 7.5, 0.01, None, None, 0.5)
        path = tmp_path / "report.json"
        tq.export_report_json([report], path)
        text = path.read_text()
        assert '"recon_rel_l2": null' in text
        assert '"ridge_mae_bins": null' in text

    def test_stable_key_order(self, tmp_path):
        report = tq.MethodReport("stft", 1.0, 1.0, 0.0, 0.0, 0.0)
        path = tmp_path / "report.json"
        tq.export_report_json([report], path)
        text = path.read_text()
        keys = ("method_tag", "renyi_entropy_bits", "nonzero_fraction",
                "recon_rel_l2", "ridge_mae_bins", "framesum_max_dev")
        positions = [text.index(k) for k in keys]
        assert positions == sorted(positions)


# calls that change the file system, and modules that read, write or change files
FS_CHANGES = ("mkdir", "unlink", "rmdir", "rename", "replace")
FILE_MODULES = ("wave", "json", "tempfile", "shutil")


def file_access(source: str) -> set[str]:
    """'open(' if the module calls any open(), '.mkdir(' and the like for each
    FS_CHANGES method it calls, plus each of FILE_MODULES it imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            if getattr(func, "id", None) == "open" or getattr(func, "attr", None) == "open":
                found.add("open(")
            if getattr(func, "attr", None) in FS_CHANGES:
                found.add(f".{func.attr}(")
        elif isinstance(node, ast.Import):
            found.update(a.name for a in node.names if a.name in FILE_MODULES)
        elif isinstance(node, ast.ImportFrom) and node.module in FILE_MODULES:
            found.add(node.module)
    return found


def test_only_io_export_touches_files():
    # every file format and the publishing of outputs live in io_export; no
    # other module may read, write, create, move or remove a file
    package = Path(tq.__file__).parent
    access = {path.stem: file_access(path.read_text()) for path in package.glob("*.py")}
    assert access.pop("io_export") == {"open(", "wave", "json", "tempfile", ".mkdir(",
                                       ".replace("}
    assert {name: found for name, found in access.items() if found} == {}
