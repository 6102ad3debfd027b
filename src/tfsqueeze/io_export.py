"""Every file format: signal CSV and WAV, IF trajectory CSV, the binary grid
file, PGM heatmaps and JSON reports; output_dir publishes a command's files,
and _quota_cpus reads the cgroup's CPU quota.

Text is UTF-8 with LF endings: optional '# key=value' header lines, then one
row of comma-separated cells per line, written by _write_lines and streamed
back row by row by _read_rows. Floats carry 17 significant digits, so reading
back is exact, and nothing embeds timestamps, so the same input always gives
the same bytes. A parse failure is a FormatError naming the file and, where
it is known, the line.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import math
import tempfile
import wave
import zipfile
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np
from numpy.lib import format as npy

from .errors import FormatError, InvalidParameterError
from .metrics import MethodReport
from .signals import Signal
from .tfr import MAX_GRID_CELLS, TFRGrid, _by_frame_blocks

__all__ = ["output_dir", "load_signal", "save_signal_csv", "load_trajectories_csv",
           "export_trajectories_csv", "export_grid_csv", "import_grid_csv",
           "export_pgm", "export_report_json"]

_CPU_MAX = "/sys/fs/cgroup/cpu.max"  # a cgroup v2 CPU quota: "<quota> <period>" or "max <period>"
# the grid file's members, each with the scalar type and rank it must have
_GRID_MEMBERS = {"method": (np.str_, 0), "fs": (np.float64, 0), "t0": (np.float64, 0),
                 "dfreq": (np.float64, 0), "rho": (np.float64, 0),
                 "shape": (np.int64, 1), "idx": (np.int64, 1), "val": (np.complex128, 1)}


@functools.cache
def _quota_cpus() -> int | None:
    """The CPUs a cgroup v2 quota buys per period, rounded up, read once per
    process; None if no quota is set or the file is unreadable."""
    try:
        with open(_CPU_MAX) as fh:
            quota, period = (int(word) for word in fh.read().split())
    except (OSError, ValueError):
        return None
    return -(-quota // period) if quota > 0 < period else None


@contextlib.contextmanager
def output_dir(path) -> Iterator[Path]:
    """Yield a hidden '.tfsqueeze-*' stage in the nearest existing directory of
    path and its parents, and rename every file staged there into path when
    the block ends without an exception; a failed command leaves path as it
    was. A staged name that is a directory in path is refused before any move.
    The stage is removed either way."""
    out = Path(path)
    near = next((p for p in (out, *out.parents) if p.is_dir()), out)
    with tempfile.TemporaryDirectory(prefix=".tfsqueeze-", dir=near) as stage:
        yield Path(stage)
        staged = sorted(Path(stage).iterdir())
        for file in staged:
            if (out / file.name).is_dir():
                raise IsADirectoryError(f"{out / file.name}: a directory is in the way")
        out.mkdir(parents=True, exist_ok=True)
        for file in staged:
            file.replace(out / file.name)


def _write_lines(path, lines: Iterable[str]) -> None:
    """Write each line as UTF-8 text ended by LF."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")


def _read_rows(path, header: dict[str, tuple[int, str]] | None = None
               ) -> Iterator[tuple[int, list[str]]]:
    """Yield (line number, cells) per non-blank data line, one at a time.

    With a header dict, every '#' line must be '# key=value' and is stored
    as key -> (line number, value); without one, '#' lines are comments.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    if header is not None:
                        key, sep, value = line[1:].partition("=")
                        if not sep:
                            raise FormatError(
                                f"{path}: line {lineno}: malformed header {line!r}")
                        header[key.strip()] = (lineno, value.strip())
                    continue
                yield lineno, line.split(",")
        except UnicodeDecodeError:
            # text is decoded in blocks, so the failing line is not known
            raise FormatError(f"{path}: not UTF-8 text")


def _header_value(path, header: dict, key: str) -> float:
    lineno, text = header[key]
    try:
        return float(text)
    except ValueError:
        raise FormatError(f"{path}: line {lineno}: bad {key} header {text!r}")


def save_signal_csv(sig: Signal, path) -> None:
    """Write a signal as CSV: '# fs=' and '# t0=' headers, one sample per line.

    Real signals write a single 're' column; complex ones write 're,im'.
    """
    lines = [f"# fs={sig.sample_rate_hz:.17g}", f"# t0={sig.t0_s:.17g}"]
    if sig.is_real:
        lines.extend(f"{v:.17g}" for v in sig.samples.real)
    else:
        lines.extend(f"{v.real:.17g},{v.imag:.17g}" for v in sig.samples)
    _write_lines(path, lines)


def load_signal(path) -> Signal:
    """Load a signal from 16-bit mono PCM WAV if the path ends in '.wav'
    (any case), else from CSV as written by save_signal_csv. Values the
    signal refuses, read from either format, are a FormatError naming the file."""
    if str(path).lower().endswith(".wav"):
        values, fs, t0 = _read_signal_wav(path)
    else:
        header, values = {}, []
        for lineno, cells in _read_rows(path, header):
            try:
                if len(cells) > 2:
                    raise ValueError
                values.append(complex(*(float(c) for c in cells)))
            except ValueError:
                raise FormatError(
                    f"{path}: line {lineno}: expected 're' or 're,im', got {','.join(cells)!r}")
        if "fs" not in header:
            raise FormatError(f"{path}: missing mandatory '# fs=<float>' header")
        fs = _header_value(path, header, "fs")
        t0 = _header_value(path, header, "t0") if "t0" in header else 0.0
    try:
        return Signal(values, fs, t0)
    except InvalidParameterError as exc:
        raise FormatError(f"{path}: {exc}")


def _read_signal_wav(path) -> tuple[np.ndarray, float, float]:
    try:
        with wave.open(str(path), "rb") as wf:
            if wf.getnchannels() != 1:
                raise FormatError(f"{path}: only mono WAV is supported")
            if wf.getsampwidth() != 2:
                raise FormatError(f"{path}: only 16-bit PCM WAV is supported")
            fs = wf.getframerate()
            raw = wf.readframes(wf.getnframes())
    except (wave.Error, EOFError) as exc:  # EOFError: the file ends early
        raise FormatError(f"{path}: not a readable WAV file: {str(exc) or 'it ends early'}")
    return np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0, float(fs), 0.0


def export_trajectories_csv(times_s, table_hz, path) -> None:
    """Write IF tracks as CSV: a 'time_s,f1_hz,...' name row, then per time
    its value and one cell per track.

    table_hz holds one row per time and one column per track. NaN cells pad
    the rows of times with fewer tracks and are written empty.
    """
    table = np.asarray(table_hz, dtype=float)
    lines = [",".join(["time_s"] + [f"f{i + 1}_hz" for i in range(table.shape[1])])]
    for t, row in zip(np.asarray(times_s, dtype=float).tolist(), table.tolist()):
        lines.append(",".join([f"{t:.17g}"] + ["" if math.isnan(v) else f"{v:.17g}"
                                               for v in row]))
    _write_lines(path, lines)


def load_trajectories_csv(path) -> list[Callable[[np.ndarray], np.ndarray]]:
    """Read IF trajectories from CSV columns time_s, f1_hz[, f2_hz, ...].

    '#' lines are comments, and rows before the first row that starts with
    a number are column names; an empty cell and a cell that is not finite
    are refused. Returns one callable per frequency column; lookups
    interpolate linearly between rows and clamp outside the covered time span.
    """
    rows: list[list[float]] = []
    for lineno, cells in _read_rows(path):
        if not rows:
            try:
                float(cells[0])
            except ValueError:  # a name row, before the first row of numbers
                continue
        if len(cells) < 2:
            raise FormatError(f"{path}: line {lineno}: need time and >= 1 frequency")
        if "" in cells:
            raise FormatError(f"{path}: line {lineno}: empty cell in column "
                              f"{cells.index('') + 1}; every track needs a value at every time "
                              "(ridges.csv pads frames that have fewer ridges)")
        try:
            values = [float(c) for c in cells]
        except ValueError:
            raise FormatError(f"{path}: line {lineno}: non-numeric cell in {','.join(cells)!r}")
        for j, v in enumerate(values):  # float() reads nan and inf
            if not math.isfinite(v):
                cell = "time" if j == 0 else f"column {j + 1}: frequency"
                raise FormatError(f"{path}: line {lineno}: {cell} {v} is not finite")
        if rows and len(values) != len(rows[0]):
            raise FormatError(f"{path}: line {lineno}: expected {len(rows[0])} columns")
        rows.append(values)
    if not rows:
        raise FormatError(f"{path}: no trajectory rows")
    data = np.array(rows)
    data = data[np.argsort(data[:, 0])].T.copy()
    return [functools.partial(np.interp, xp=data[0], fp=column) for column in data[1:]]


def export_grid_csv(grid: TFRGrid, path) -> None:
    """Write a grid as an uncompressed npz of its nonzero cells: 0-d 'method'
    (str), 'fs', 't0', 'dfreq' and 'rho' (float64); 'shape', the int64
    (n_frames, n_bins); 'idx', the increasing int64 flat indices of the cells
    whose bits are not all zero (so -0.0 survives); 'val', those cells as
    complex128. Zip entries carry a fixed date, so the bytes repeat. The name
    says CSV as the benchmark's spans bind it for the grid file's write.

    The bytes are np.savez's, written block by block of frames: one block
    pass counts each block's nonzero cells, so that 'idx' and 'val' each
    take one npy header, and each member then takes one write per block. No
    whole-grid mask, index or copy is ever built.
    """
    data, n_bins = grid.data, grid.n_bins

    def nonzero(rows):
        # whether each part's bits are set, as adjacent bools; a cell's two,
        # read as one uint16, are nonzero when either is
        halves = np.ascontiguousarray(data[rows]).view(np.uint64) != 0
        return halves.view(np.uint16).ravel() != 0

    def idx(rows):
        return np.flatnonzero(nonzero(rows)) + rows.start * n_bins

    def val(rows):
        return data[rows].ravel()[nonzero(rows)]

    blocks = _by_frame_blocks(lambda rows: (rows, int(np.count_nonzero(nonzero(rows)))),
                              data.shape)
    count = sum(n for _, n in blocks)
    # through a handle, numpy appends no '.npz'; np.savez's zip and member settings
    with open(path, "wb") as fh, zipfile.ZipFile(fh, "w", zipfile.ZIP_STORED,
                                                 allowZip64=True) as npz:
        for name, value in (("method", grid.method_tag), ("fs", grid.source_fs_hz),
                            ("t0", grid.t0_s), ("dfreq", grid.df_hz), ("rho", grid.rho),
                            ("shape", np.array(data.shape, dtype=np.int64))):
            with npz.open(f"{name}.npy", "w", force_zip64=True) as member:
                npy.write_array(member, np.asanyarray(value))
        for name, dtype, part in (("idx", np.int64, idx), ("val", np.complex128, val)):
            with npz.open(f"{name}.npy", "w", force_zip64=True) as member:
                npy.write_array_header_1_0(member, {"descr": npy.dtype_to_descr(np.dtype(dtype)),
                                                    "fortran_order": False, "shape": (count,)})
                for rows, _ in blocks:
                    member.write(part(rows))


def import_grid_csv(path) -> TFRGrid:
    """Read a grid file written by export_grid_csv, which explains the name.
    Every fault is a FormatError naming the file. No member is unpickled or
    inflated, and a shape past MAX_GRID_CELLS is refused before allocating."""
    with open(path, "rb") as fh:
        try:
            npz = np.load(fh, allow_pickle=False)
            if not isinstance(npz, np.lib.npyio.NpzFile):
                raise ValueError("an npy array, not an npz archive")
            if any(info.compress_type for info in npz.zip.infolist()):  # 0: stored
                raise ValueError("a compressed member may decode to any size")
            members = {name: npz[name] for name in _GRID_MEMBERS}
        except Exception as exc:  # hostile bytes raise many types, zlib to SyntaxError
            raise FormatError(f"{path}: not a readable grid file: {exc!r}")
    for name, (kind, ndim) in _GRID_MEMBERS.items():
        if members[name].dtype.type is not kind or members[name].ndim != ndim:
            raise FormatError(f"{path}: member {name!r} must be {ndim}-d {kind.__name__}")
    shape, idx, val = members["shape"].tolist(), members["idx"], members["val"]
    if len(shape) != 2 or min(shape) < 1 or shape[0] * shape[1] > MAX_GRID_CELLS:
        raise FormatError(f"{path}: shape {shape} is not two counts >= 1 within the cell budget")
    cells = shape[0] * shape[1]
    if idx.size and not (idx[0] >= 0 and idx[-1] < cells and np.all(idx[1:] > idx[:-1])):
        raise FormatError(f"{path}: idx must increase strictly within [0, {cells})")
    if val.size != idx.size:
        raise FormatError(f"{path}: val holds {val.size} cells, idx {idx.size}")
    data = np.zeros(cells, dtype=np.complex128)
    data[idx] = val
    scalars = (members[name].item() for name in ("t0", "dfreq", "rho", "method", "fs"))
    try:
        return TFRGrid(data.reshape(shape), *scalars)
    except InvalidParameterError as exc:
        raise FormatError(f"{path}: {exc}")


def export_pgm(image: np.ndarray, path) -> None:
    """Write a 2-D uint8 image as a binary 8-bit PGM (P5), row 0 on top."""
    with open(path, "wb") as fh:
        fh.write(f"P5\n{image.shape[1]} {image.shape[0]}\n255\n".encode("ascii"))
        fh.write(image.tobytes())


def export_report_json(reports: list[MethodReport], path) -> None:
    """Write reports as a JSON array in MethodReport's field order, None as null."""
    payload = [dataclasses.asdict(r) for r in reports]
    _write_lines(path, [json.dumps(payload, indent=2, allow_nan=False)])
