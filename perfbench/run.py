"""tfsqueeze benchmark: run one workload, check every output, print metrics.

    python3 perfbench/run.py --workload compare-chirp --seed 1 --seconds 50 --trace 0

Untraced (--trace 0): a closed loop with one client. Each operation is one
`python -m tfsqueeze.cli` child process with a fresh interpreter, because
users pay start-up on every command; operations run one at a time. After
the set-up and one warm-up iteration, iterations repeat while another one
is expected to end within --seconds. Prints the end-to-end metrics.

Traced (--trace 1): the same commands run in this process through
`tfsqueeze.cli.main(argv)`: pairs of one untraced and one traced iteration
repeat in the same way. Prints the per-layer metrics.

Every line before the last is for people; the last line is one JSON object
with `correct`, `attempted`, `failed` and `metrics`. Results, the machine
record and the spans are also written to .perfbench_out/ in the checkout.
`--describe` prints the workloads and metrics instead of running.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

import catalog  # noqa: E402
from workloads import (  # noqa: E402
    ROOT,
    SRC,
    WORKLOADS,
    Op,
    Outcome,
    Workload,
    artifact_bytes,
    run_commands,
)

OUT_DIR = ROOT / ".perfbench_out"
# independent generate rounds in the set-up, reported as their median
SETUP_ROUNDS = 3
# cold `import tfsqueeze.cli` probes in the traced run
IMPORT_PROBES = 3
# a child still running this long after the run started is killed and
# counted as failed, so that a run ends within its 180 s limit
RUN_LIMIT_S = 170.0
MIB = float(1 << 20)


@dataclass
class Sample:
    """One iteration: its operations and what they cost together."""

    ops: list[Op]
    wall_s: float
    peak_rss_mib: float
    artifact_mib: float


class ChildRunner:
    """Runs `python <prefix> <argv>` as a child and reads its resource usage
    with os.wait4, so peak RSS is the child's own."""

    def __init__(self, cwd: Path, prefix=("-m", "tfsqueeze.cli")):
        self.cwd = cwd
        self.deadline = perf_counter() + RUN_LIMIT_S
        self.prefix = list(prefix)
        self.env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        path = os.environ.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")

    def __call__(self, argv: list[str]) -> Outcome:
        with tempfile.TemporaryFile(dir=self.cwd) as out, \
                tempfile.TemporaryFile(dir=self.cwd) as err:
            start = perf_counter()
            proc = subprocess.Popen([sys.executable, *self.prefix, *argv],
                                    stdout=out, stderr=err, cwd=self.cwd, env=self.env)
            killer = threading.Timer(max(0.0, self.deadline - start), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return Outcome(proc.returncode, out.read().decode(errors="replace"),
                           err.read().decode(errors="replace"), wall, usage.ru_maxrss)


def run_in_process(argv: list[str]) -> Outcome:
    """Runs one command through tfsqueeze.cli.main, looked up at call time so
    that a traced run reaches the wrapped entry point."""
    import tfsqueeze.cli

    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = tfsqueeze.cli.main(argv)
        except Exception:  # an escaped exception is a failed operation
            traceback.print_exc()
            code = 1
    return Outcome(code, out.getvalue(), err.getvalue(), perf_counter() - start)


def iterate(workload: Workload, run, values: dict[str, str], out: Path) -> Sample:
    ops = run_commands(workload.iteration, run, dict(values, out=str(out)), workload)
    sample = Sample(
        ops=ops,
        wall_s=sum(op.outcome.wall_s for op in ops),
        peak_rss_mib=max(op.outcome.maxrss_kib for op in ops) / 1024.0,
        artifact_mib=artifact_bytes(out) / MIB if out.exists() else 0.0,
    )
    shutil.rmtree(out, ignore_errors=True)
    return sample


def set_up(workload: Workload, run, seed: int, work: Path, rounds: int
           ) -> tuple[list[Op], float, dict[str, str]]:
    """Runs the set-up commands `rounds` times into separate directories;
    returns their operations, the median round's seconds and the values the
    iteration templates use (the first round's directory)."""
    values = {"seed": str(seed), "gen": str(work / "gen-0")}
    ops, walls = [], []
    for r in range(rounds if workload.setup else 0):
        round_ops = run_commands(workload.setup, run,
                                 dict(values, gen=str(work / f"gen-{r}")), workload)
        ops += round_ops
        walls.append(sum(op.outcome.wall_s for op in round_ops))
    return ops, statistics.median(walls) if walls else 0.0, values


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """The highest of p99.9/p99/p90 (nearest rank) with at least ten samples
    beyond it, as (percentile, value)."""
    ordered = sorted(samples)
    n = len(ordered)
    for per_mille in (999, 990, 900):
        rank = -(-n * per_mille // 1000)  # ceil, in exact integers
        if n - rank >= 10:
            return per_mille / 10.0, ordered[rank - 1]
    return None


def another_fits(start: float, seconds: float, durations: list[float]) -> bool:
    """Whether one more round, as long as the median round so far, ends
    within the measured seconds; the first round always runs."""
    if not durations:
        return True
    return perf_counter() - start + statistics.median(durations) <= seconds


def timed_run(workload: Workload, seed: int, seconds: float, work: Path) -> dict:
    run = ChildRunner(work)
    ops, setup_gen_s, values = set_up(workload, run, seed, work, SETUP_ROUNDS)
    warm = iterate(workload, run, values, work / "warm")
    ops += warm.ops
    samples, walls = [], []
    start = perf_counter()
    while another_fits(start, seconds, walls):
        samples.append(iterate(workload, run, values, work / f"it-{len(samples)}"))
        walls.append(samples[-1].wall_s)
    for s in samples:
        ops += s.ops
    metrics = {
        "wall_s": statistics.median(walls),
        "peak_rss_mib": statistics.median(s.peak_rss_mib for s in samples),
        "artifact_mib": statistics.median(s.artifact_mib for s in samples),
        "setup_s": setup_gen_s + warm.wall_s,
    }
    return {"metrics": metrics, "ops": ops, "wall_samples": walls,
            "tail": tail_percentile(walls), "warmup_s": warm.wall_s,
            "setup_generate_s": setup_gen_s}


def traced_run(workload: Workload, seed: int, seconds: float, work: Path) -> dict:
    sys.path.insert(0, str(SRC))
    import spans  # imports numpy; kept out of the untraced parent

    ops, _, values = set_up(workload, run_in_process, seed, work, 1)
    ops += iterate(workload, run_in_process, values, work / "warm").ops
    plain_walls, traced_walls, pairs, per_iteration, all_spans = [], [], [], [], []
    start = perf_counter()
    while another_fits(start, seconds, pairs):
        i = len(per_iteration)
        recorder = spans.Recorder()
        commands = iter(range(len(workload.iteration)))

        def run_traced(argv):
            recorder.op = f"{workload.name}:{i}:{next(commands)}"
            return run_in_process(argv)

        def traced_iteration():
            with spans.installed(recorder):
                return iterate(workload, run_traced, values, work / f"traced-{i}")

        # alternate which of the pair runs first, so order effects cancel
        if i % 2:
            traced = traced_iteration()
            plain = iterate(workload, run_in_process, values, work / f"plain-{i}")
        else:
            plain = iterate(workload, run_in_process, values, work / f"plain-{i}")
            traced = traced_iteration()
        ops += plain.ops + traced.ops
        plain_walls.append(plain.wall_s)
        traced_walls.append(traced.wall_s)
        pairs.append(plain.wall_s + traced.wall_s)
        per_iteration.append(spans.layer_metrics(recorder, traced.wall_s))
        all_spans += spans.spans_as_dicts(recorder.spans)
    metrics = {name: statistics.median(m[name] for m in per_iteration)
               for name in per_iteration[0]}
    metrics["trace.overhead_frac"] = (statistics.median(traced_walls)
                                      / statistics.median(plain_walls) - 1.0)
    probe = ChildRunner(work, prefix=("-c", "import tfsqueeze.cli"))
    imports = [probe([]) for _ in range(IMPORT_PROBES)]
    metrics["cli.import_s"] = statistics.median(o.wall_s for o in imports)
    ops += [Op(["import"], o, [] if o.returncode == 0 and not o.stderr
               else [f"import failed: {o.stderr.strip()[:200]}"]) for o in imports]
    return {"metrics": metrics, "ops": ops, "spans": all_spans,
            "plain_walls": plain_walls, "traced_walls": traced_walls}


# ---- the machine and environment, recorded with every result ----

def _read(path: str) -> str:
    try:
        with open(path, encoding="ascii", errors="replace") as fh:
            return fh.read()
    except OSError:
        return ""


def _field(text: str, key: str) -> str:
    for line in text.splitlines():
        name, sep, value = line.partition(":")
        if sep and name.strip() == key:
            return value.strip()
    return "unknown"


def machine_record() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(str(index / "level")).strip()
        kind = _read(str(index / "type")).strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(str(index / "size")).strip()
    try:
        from importlib.metadata import version
        numpy_version = version("numpy")
    except ImportError:
        numpy_version = "unknown"
    try:
        # the ceiling keeps git from reporting an enclosing repository
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _field(_read("/proc/cpuinfo"), "model name"),
        "caches": caches,
        "mem_total": _field(_read("/proc/meminfo"), "MemTotal"),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "git_commit": commit,
        "loadavg_start": list(os.getloadavg()),
    }


def describe() -> dict:
    return {
        "workloads": [asdict(w) for w in WORKLOADS.values()],
        "end_to_end": [asdict(m) for m in catalog.END_TO_END],
        "per_layer": [asdict(m) for m in catalog.PER_LAYER],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--describe", action="store_true")
    args = parser.parse_args(argv)
    if args.describe:
        print(json.dumps(describe(), indent=2))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "tfsqueeze" / "cli.py").is_file():
        print(f"error: no tfsqueeze package under {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    machine = machine_record()
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_DIR))
    try:
        run = traced_run if args.trace else timed_run
        result = run(workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    machine["loadavg_end"] = list(os.getloadavg())

    ops = result.pop("ops")
    failed = [op for op in ops if op.failed]
    units = {m.name: m.unit for m in
             (catalog.PER_LAYER if args.trace else catalog.END_TO_END)}
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in result.pop("metrics").items()}
    summary = {"correct": not failed, "attempted": len(ops), "failed": len(failed),
               "metrics": metrics}

    print(f"machine: {json.dumps(machine)}")
    print(f"workload: {workload.name} ({workload.size}), seed {args.seed}, "
          f"trace {args.trace}")
    for op in failed[:5]:
        print(f"FAILED {' '.join(op.argv)}: {'; '.join(op.problems)}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    if not args.trace:
        walls = result["wall_samples"]
        tail = result["tail"]
        print(f"wall_s samples: {len(walls)}; tail: "
              + (f"p{tail[0]:g} {tail[1]:.6g} s" if tail else "none (fewer than "
                 "ten samples beyond p90)"))
    print(f"fail_ratio: {len(failed) / len(ops):.6g} ({len(failed)}/{len(ops)} ops)")

    record = dict(summary, workload=workload.name, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, machine=machine,
                  failures=[{"argv": op.argv, "problems": op.problems} for op in failed],
                  **result)
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
