"""Benchmark workloads: the CLI commands each one runs, and the checks that
every command's outputs are correct.

A workload is a fixed set-up (commands run once, before timing) and an
iteration (the commands whose wall time is measured). Commands are argument
templates for `python -m tfsqueeze.cli`; `{seed}`, `{gen}` (the set-up's
output directory), `{out}` (the iteration's output directory) and `{grid}`
(the grid file the previous command wrote) are filled in per run.

Each workload stresses a different layer, so that an optimisation of one
layer shows on one workload and is predicted not to move the others.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# reconstruction and conservation errors sit near 1e-16; this is the
# acceptance suite's budget for "exact"
EXACT = 1e-10
# SET keeps only self-consistent coefficients, so it must lose signal
SET_MIN_LOSS = 1e-3
# with gamma > 0 the proposed method inverts the filtered grid, not the
# signal: its error against the signal is the filter's loss, which must
# stay well below the signal itself
FILTER_MAX_LOSS = 0.5
ALL_METHODS = ("stft", "sst", "rm", "set", "lmsst", "proposed")


@dataclass(frozen=True)
class Workload:
    name: str
    size: str  # frames x bins of every grid the iteration computes
    why: str
    iteration: tuple[str, ...]
    setup: tuple[str, ...] = ()

    @property
    def frames_bins(self) -> tuple[int, int]:
        frames, bins = self.size.split("x")
        return int(frames), int(bins)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="roundtrip-crossover",
        size="1024x1024",
        why="paper's crossover experiment with injected IF; grid CSV write and "
            "read-back dominate, baselines never run, so an I/O change shows "
            "here only",
        setup=("generate crossover --snr-db 20 --seed {seed} --out {gen}",),
        iteration=(
            "analyze --method proposed --input crossover --snr-db 20 --seed {seed} "
            "--gamma 0 --if-from {gen}/true_if.csv --reconstruct --out {out}/analyze",
            "reconstruct {grid} --reference {gen}/signal.csv --out {out}/reconstruct",
        ),
    ),
    Workload(
        name="compare-chirp",
        size="8192x1024",
        why="all six methods on a clean chirp; baselines, repeated STFT framing "
            "and metrics dominate, it has the highest peak RSS and writes no grid CSV",
        iteration=(
            "compare --input chirp --dur 8 --nfft 1024 --snr-db 30 --seed {seed} "
            "--gamma 0.1 --out {out}/compare",
        ),
    ),
)}


@dataclass
class Outcome:
    """What one CLI command did: exit code, captured text, cost."""

    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    maxrss_kib: int = 0


@dataclass
class Op:
    """One attempted operation and every problem its checks found."""

    argv: list[str]
    outcome: Outcome
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.problems)


Runner = Callable[[list[str]], Outcome]


def expand(template: str, values: dict[str, str]) -> list[str]:
    """Split a command template into argv, then fill in each token, so that
    paths with spaces stay one argument."""
    return [token.format(**values) for token in template.split()]


def find_grid(out_dir: Path) -> Path | None:
    """The grid file `analyze` wrote. Only the stem is fixed, so a change of
    grid format (extension or encoding) is not a failure."""
    found = sorted(p for p in out_dir.glob("grid*") if p.is_file())
    return found[0] if found else None


def run_commands(templates: tuple[str, ...], run: Runner, values: dict[str, str],
                 workload: Workload) -> list[Op]:
    """Run commands in order, checking each; stop at the first command whose
    output the next one cannot use."""
    ops = []
    previous_out = None
    for template in templates:
        if "{grid}" in template:
            grid = find_grid(previous_out)
            if grid is None:  # already a problem of the command that wrote it
                break
            values = dict(values, grid=str(grid))
        argv = expand(template, values)
        op = Op(argv, run(argv))
        op.problems = check(op, workload)
        ops.append(op)
        previous_out = Path(_option(argv, "--out"))
        if op.outcome.returncode != 0:
            break
    return ops


def _option(argv: list[str], name: str, default: str | None = None) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else default


def _printed_errors(stdout: str) -> list[float]:
    return [float(line.split("=", 1)[1]) for line in stdout.splitlines()
            if line.startswith("recon_rel_l2=")]


def check(op: Op, workload: Workload) -> list[str]:
    """Every problem with one command's outcome; empty means correct."""
    out = op.outcome
    problems = []
    if out.returncode != 0:
        problems.append(f"exit code {out.returncode}")
    if out.stderr:
        problems.append(f"stderr: {out.stderr.strip()[:200]}")
    if problems:
        return problems
    command = op.argv[0]
    out_dir = Path(_option(op.argv, "--out"))
    try:
        if command == "generate":
            for name in ("signal.csv", "true_if.csv"):
                if not (out_dir / name).is_file():
                    problems.append(f"missing {name}")
        elif command == "analyze":
            problems += _check_printed_exact(out.stdout, expected=1)
            report = json.loads((out_dir / "report.json").read_text())
            if len(report) != 1 or not report[0]["framesum_max_dev"] <= EXACT:
                problems.append(f"report not conserving: {report}")
            if find_grid(out_dir) is None:
                problems.append("no grid file written")
        elif command == "reconstruct":
            problems += _check_printed_exact(out.stdout, expected=1)
        elif command == "compare":
            problems += _check_compare(op.argv, out_dir, workload)
        else:
            problems.append(f"no check for command {command!r}")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems


def _check_printed_exact(stdout: str, expected: int) -> list[str]:
    errors = _printed_errors(stdout)
    if len(errors) != expected:
        return [f"expected {expected} recon_rel_l2 line(s), got {len(errors)}"]
    return [f"recon_rel_l2 {e!r} > {EXACT}" for e in errors if not e <= EXACT]


def _check_compare(argv: list[str], out_dir: Path, workload: Workload) -> list[str]:
    methods = _option(argv, "--methods", ",".join(ALL_METHODS)).split(",")
    gamma = float(_option(argv, "--gamma", "0.1"))
    report = json.loads((out_dir / "report.json").read_text())
    problems = []
    tags = [entry["method_tag"] for entry in report]
    if sorted(tags) != sorted(methods):
        problems.append(f"report methods {tags} != {methods}")
    entropies = [entry["renyi_entropy_bits"] for entry in report]
    if entropies != sorted(entropies):
        problems.append("report not sorted by renyi_entropy_bits")
    for entry in report:
        problems += [f"{entry['method_tag']}: {p}" for p in _check_entry(entry, gamma)]
    frames, bins = workload.frames_bins
    for method in methods:
        header = _pgm_header(out_dir / f"heatmap_{method}.pgm")
        if header != ("P5", frames, bins // 2):
            problems.append(f"heatmap_{method}.pgm header {header}")
    return problems


def _check_entry(entry: dict, gamma: float) -> list[str]:
    method = entry["method_tag"]
    recon = entry["recon_rel_l2"]
    dev = entry["framesum_max_dev"]
    problems = []
    if method in ("stft", "sst", "lmsst", "proposed") and not dev <= EXACT:
        problems.append(f"framesum_max_dev {dev!r} > {EXACT}")
    if method in ("stft", "sst", "lmsst") or (method == "proposed" and gamma == 0):
        if recon is None or not recon <= EXACT:
            problems.append(f"recon_rel_l2 {recon!r} > {EXACT}")
    elif method == "proposed":
        if recon is None or not (math.isfinite(recon) and recon <= FILTER_MAX_LOSS):
            problems.append(f"recon_rel_l2 {recon!r} > {FILTER_MAX_LOSS}")
    elif method == "rm" and recon is not None:
        problems.append(f"recon_rel_l2 {recon!r}, expected null")
    elif method == "set" and (recon is None or not recon > SET_MIN_LOSS):
        problems.append(f"recon_rel_l2 {recon!r}, expected > {SET_MIN_LOSS} (lossy)")
    return problems


def _pgm_header(path: Path) -> tuple[str, int, int] | None:
    with open(path, "rb") as fh:
        tokens = fh.read(64).split(maxsplit=3)
    if len(tokens) < 3:
        return None
    return tokens[0].decode("ascii"), int(tokens[1]), int(tokens[2])


def artifact_bytes(out_dir: Path) -> int:
    """Bytes of every file under an iteration's output directory."""
    return sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())
