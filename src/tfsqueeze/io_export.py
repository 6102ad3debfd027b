"""Every file format: signal CSV and WAV, IF trajectory CSV, grid CSV, PGM
heatmaps and JSON reports.

Text is UTF-8 with LF endings: optional '# key=value' header lines, then one
row of comma-separated cells per line, written by _write_lines and streamed
back row by row by _read_rows. Floats carry 17 significant digits, so reading
back is exact, and nothing embeds timestamps, so the same input always gives
the same bytes. A parse failure is a FormatError naming the file and, where
it is known, the line.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import wave
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import (DegenerateGridError, FormatError, InvalidParameterError,
                     UnsupportedFormatError)
from .metrics import MethodReport
from .signals import Signal
from .tfr import TFRGrid

__all__ = ["load_signal", "save_signal_csv", "load_trajectories_csv",
           "export_trajectories_csv", "export_grid_csv", "import_grid_csv",
           "export_heatmap_pgm", "export_report_json"]

_HEADER_KEYS = ("method", "fs", "nfft", "rho", "freq0", "dfreq", "t0", "dt")
HEATMAP_FLOOR_DB = -60.0


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


def _header_value(path, header: dict, key: str, parse: Callable = float):
    lineno, text = header[key]
    try:
        return parse(text)
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
    (any case), else from CSV as written by save_signal_csv."""
    if str(path).lower().endswith(".wav"):
        return _load_signal_wav(path)
    header = {}
    values: list[complex] = []
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
    if not values:
        raise FormatError(f"{path}: no samples")
    return Signal(np.array(values), fs, t0)


def _load_signal_wav(path) -> Signal:
    try:
        with wave.open(str(path), "rb") as wf:
            if wf.getnchannels() != 1:
                raise UnsupportedFormatError(f"{path}: only mono WAV is supported")
            if wf.getsampwidth() != 2:
                raise UnsupportedFormatError(f"{path}: only 16-bit PCM WAV is supported")
            fs = wf.getframerate()
            raw = wf.readframes(wf.getnframes())
    except (wave.Error, EOFError) as exc:  # EOFError: the file ends early
        raise FormatError(f"{path}: not a readable WAV file: {str(exc) or 'it ends early'}")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    if samples.size == 0:
        raise FormatError(f"{path}: WAV contains no frames")
    return Signal(samples, float(fs))


def export_trajectories_csv(times_s, table_hz, path) -> None:
    """Write IF tracks as CSV: a 'time_s,f1_hz,...' name row, then per time
    its value and one cell per track.

    table_hz holds one row per time and one column per track. NaN cells pad
    the rows of times with fewer tracks and are written empty.
    """
    table = np.asarray(table_hz, dtype=float)
    lines = ["time_s," + ",".join(f"f{i + 1}_hz" for i in range(table.shape[1]))]
    for t, row in zip(np.asarray(times_s, dtype=float).tolist(), table.tolist()):
        lines.append(f"{t:.17g}," + ",".join("" if math.isnan(v) else f"{v:.17g}"
                                              for v in row))
    _write_lines(path, lines)


def load_trajectories_csv(path) -> list[Callable[[np.ndarray], np.ndarray]]:
    """Read IF trajectories from CSV columns time_s, f1_hz[, f2_hz, ...].

    '#' lines are comments, and rows before the first row that starts with
    a number are column names. Returns one callable per frequency column;
    lookups interpolate linearly between rows and clamp outside the covered
    time span.
    """
    rows: list[list[float]] = []
    for lineno, cells in _read_rows(path):
        if not rows and not _is_number(cells[0]):
            continue
        if len(cells) < 2:
            raise FormatError(f"{path}: line {lineno}: need time and >= 1 frequency")
        try:
            values = [float(c) for c in cells]
        except ValueError:
            raise FormatError(f"{path}: line {lineno}: non-numeric cell in {','.join(cells)!r}")
        if rows and len(values) != len(rows[0]):
            raise FormatError(f"{path}: line {lineno}: expected {len(rows[0])} columns")
        rows.append(values)
    if not rows:
        raise FormatError(f"{path}: no trajectory rows")
    data = np.array(rows)
    data = data[np.argsort(data[:, 0])].T.copy()
    return [functools.partial(np.interp, xp=data[0], fp=column) for column in data[1:]]


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def export_grid_csv(grid: TFRGrid, path) -> None:
    """Write a grid as eight '# key=value' header lines plus one row per
    frame of 're+imj' cells. Reading back reproduces every value exactly."""
    numbers = (grid.source_fs_hz, grid.n_bins, grid.rho, 0.0, grid.df_hz, grid.t0_s,
               1.0 / grid.source_fs_hz)
    header = [f"# method={grid.method_tag}"] + [
        f"# {key}={value:.17g}" for key, value in zip(_HEADER_KEYS[1:], numbers)]
    rows = (",".join(f"{c.real:.17g}{c.imag:+.17g}j" for c in row) for row in grid.data)
    _write_lines(path, itertools.chain(header, rows))


def import_grid_csv(path) -> TFRGrid:
    """Read a grid written by export_grid_csv; freq0 must be 0 and dt 1/fs."""
    header = {}
    rows: list[np.ndarray] = []
    for lineno, cells in _read_rows(path, header):
        try:
            row = np.array([complex(cell) for cell in cells])
        except ValueError:
            raise FormatError(f"{path}: line {lineno}: unparseable cell in row")
        if rows and row.size != rows[0].size:
            raise FormatError(
                f"{path}: line {lineno}: row has {row.size} cells, "
                f"expected {rows[0].size}"
            )
        rows.append(row)
    missing = [k for k in _HEADER_KEYS if k not in header]
    if missing:
        raise FormatError(f"{path}: missing header keys {missing}")
    nfft = _header_value(path, header, "nfft", int)
    fs, rho, freq0, dfreq, t0, dt = (_header_value(path, header, k)
                                     for k in ("fs", "rho", "freq0", "dfreq", "t0", "dt"))
    if not rows:
        raise FormatError(f"{path}: no data rows")
    data = np.vstack(rows)
    if data.shape[1] != nfft:
        raise FormatError(
            f"{path}: rows carry {data.shape[1]} cells but header says nfft={nfft}"
        )
    if freq0 != 0.0:
        raise FormatError(f"{path}: line {header['freq0'][0]}: freq0={freq0} must be 0")
    if not abs(dt * fs - 1.0) <= 1e-9:  # NaN fails this too
        raise FormatError(f"{path}: line {header['dt'][0]}: dt={dt} must be 1/fs")
    try:
        return TFRGrid(data, t0, dfreq, rho, header["method"][1], fs)
    except InvalidParameterError as exc:
        raise FormatError(f"{path}: {exc}")


def export_heatmap_pgm(grid: TFRGrid, path) -> None:
    """Render |G| over [0, fs/2) as a binary 8-bit PGM (P5) image.

    One pixel per (frame, bin); magnitude in dB relative to the grid maximum,
    clipped at HEATMAP_FLOOR_DB and mapped linearly to 0..255. Row 0 is the
    highest displayed frequency.
    """
    mag = np.abs(grid.data)
    peak = mag.max()
    if peak == 0.0:
        raise DegenerateGridError("cannot render an all-zero grid")
    keep = grid.n_bins // 2
    with np.errstate(divide="ignore"):
        db = 20.0 * np.log10(mag[:, :keep] / peak)
    db = np.clip(db, HEATMAP_FLOOR_DB, 0.0)
    pixels = np.rint(255.0 * (db - HEATMAP_FLOOR_DB) / (-HEATMAP_FLOOR_DB)).astype(np.uint8)
    image = pixels.T[::-1]  # rows = bins, flipped so top row is highest frequency
    with open(path, "wb") as fh:
        fh.write(f"P5\n{image.shape[1]} {image.shape[0]}\n255\n".encode("ascii"))
        fh.write(image.tobytes())


def export_report_json(reports: list[MethodReport], path) -> None:
    """Write reports as a JSON array in MethodReport's field order, None as null."""
    payload = [dataclasses.asdict(r) for r in reports]
    _write_lines(path, [json.dumps(payload, indent=2, allow_nan=False)])
