"""Run a fixed list of CLI commands and print what each one produced: its
exit code, the sha256 of its stdout and of its stderr, and the sha256 of
every file it wrote or changed. Two checkouts that print the same manifest
wrote the same bytes.

    python tools/artifacts.py OUT

The commands run in order as `python -m tfsqueeze.cli` on this checkout's
src/, with OUT as their working directory, so the manifest names files
relative to OUT. OUT is created if absent and must otherwise be empty. To
check that a change keeps every artifact, run it once in each checkout and
diff the two outputs:

    python tools/artifacts.py /tmp/before > before.txt   # parent checkout
    python tools/artifacts.py /tmp/after > after.txt     # changed checkout
    diff before.txt after.txt
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path
from typing import Iterable, Iterator

SRC = Path(__file__).resolve().parent.parent / "src"

CHIRP = "--input chirp --dur 8 --nfft 1024"
COMMANDS = (
    # the byte-identity set of ROADMAP's Baseline
    f"compare {CHIRP} --snr-db 30 --seed 1 --gamma 0.1 "
    "--methods stft,sst,set,rm,lmsst,proposed --out chirp-1",
    *(f"compare {CHIRP} --snr-db 30 --seed {seed} --gamma 0.1 --methods stft,sst,set,rm "
      f"--out chirp-{seed}" for seed in (2, 3)),
    # the default method order, in which RM reads the shared IF map before SET
    f"compare {CHIRP} --snr-db 30 --seed 1 --gamma 0.1 --out chirp-default-order",
    "compare --input fmam --snr-db 20 --seed 3 --per-frame-max --methods stft,sst,set,rm "
    "--out fmam-20db",
    "compare --input crossover --snr-db 0 --seed 2 --gamma 0 --methods stft,sst,set,rm "
    "--out crossover-0db",
    f"analyze --method rm {CHIRP} --snr-db 0 --seed 1 --gamma 0 --out chirp-0db-rm",
    # detection at gamma 0, on the grid itself: about 36 ridges per frame
    f"analyze --method proposed {CHIRP} --snr-db 0 --seed 1 --gamma 0 --out chirp-0db-proposed",
    "compare --input fmam --gamma 0 --per-frame-max --methods stft,proposed --out fmam-pf-0",
    # detection and the squeeze below per-frame floors
    "analyze --method proposed --input fmam --snr-db 20 --seed 3 --gamma 0.2 --per-frame-max "
    "--out fmam-pf-proposed",
    *(f"analyze --method {m} --input fmam --snr-db 10 --seed 1 --out fmam-10db-{m}"
      for m in ("rm", "sst", "set")),
    # the roundtrip-crossover benchmark workload (perfbench/workloads.py)
    *(command for seed in (1, 2, 3) for command in (
        f"generate crossover --snr-db 20 --seed {seed} --out rt-{seed}/gen",
        f"analyze --method proposed --input crossover --snr-db 20 --seed {seed} --gamma 0 "
        f"--if-from rt-{seed}/gen/true_if.csv --reconstruct --out rt-{seed}/analyze",
        f"reconstruct rt-{seed}/analyze/grid.npz --reference rt-{seed}/gen/signal.csv "
        f"--out rt-{seed}/reconstruct",
    )),
    # injected tracks squeezing only the cells above a global floor
    "analyze --input crossover --snr-db 20 --seed 1 --gamma 0.1 --if-from rt-1/gen/true_if.csv "
    "--reconstruct --out rt-1/gamma",
    # injected tracks on a real signal
    "generate fmam --out fmam/gen",
    "analyze --input fmam/gen/signal.csv --if-from fmam/gen/true_if.csv --gamma 0 "
    "--reconstruct --out fmam/injected",
    # every method on a real signal at gamma 0.1, whose ridges are detected
    # above gamma times the half circle's peak, and on a 2-bin axis
    "compare --input fmam --snr-db 10 --seed 1 --out fmam-10db",
    "compare --input tone --nfft 2 --sigma 0.001 --out tone-2-bins",
    # a 32769-bin axis, the narrowest on which the IF map takes int32
    "compare --input tone --nfft 32769 --methods stft,sst,set,rm --out tone-32769",
    # injected tracks through compare, on a real signal (with mirrors) and a
    # complex one, and one mode per injected track out of a written grid
    "compare --input fmam/gen/signal.csv --if-from fmam/gen/true_if.csv --gamma 0 "
    "--methods stft,proposed --out fmam/compare-injected",
    "compare --input crossover --snr-db 20 --seed 1 --gamma 0 --if-from rt-1/gen/true_if.csv "
    "--methods stft,proposed --out rt-1/compare",
    "reconstruct rt-1/analyze/grid.npz --mode-track rt-1/gen/true_if.csv --out rt-1/modes",
)


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _snapshot(root: Path) -> dict[str, str]:
    return {p.relative_to(root).as_posix(): _sha256_file(p)
            for p in sorted(root.rglob("*")) if p.is_file()}


def manifest(commands: Iterable[str], out: Path) -> Iterator[str]:
    """Run each command in out and yield its manifest lines as it finishes."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    before = _snapshot(out)
    for command in commands:
        done = subprocess.run([sys.executable, "-m", "tfsqueeze.cli", *command.split()],
                              cwd=out, env=env, capture_output=True)
        after = _snapshot(out)
        yield f"$ {command}"
        yield f"exit {done.returncode}"
        yield f"stdout {hashlib.sha256(done.stdout).hexdigest()}"
        yield f"stderr {hashlib.sha256(done.stderr).hexdigest()}"
        yield from (f"{digest}  {name}" for name, digest in after.items()
                    if before.get(name) != digest)
        before = after


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(f"usage: {argv[0]} OUT", file=sys.stderr)
        return 2
    out = Path(argv[1])
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        print(f"{out} is not empty", file=sys.stderr)
        return 2
    for line in manifest(COMMANDS, out):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
