"""Command-line front end: generate signals, run methods, compare, reconstruct.

Exit codes are stable for scripting: 0 success, 2 configuration error,
3 I/O or parse error, 4 semantic error (reconstruction from a
non-invertible grid).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import baselines, metrics, ridges, signals, squeeze, tfr, windows
from .errors import (
    FormatError,
    InvalidParameterError,
    NonInvertibleGridError,
    TFSqueezeError,
)
from .io_export import (
    export_grid_csv,
    export_pgm,
    export_report_json,
    export_trajectories_csv,
    import_grid_csv,
    load_signal,
    load_trajectories_csv,
    output_dir,
    save_signal_csv,
)

METHODS = ("stft", "sst", "rm", "set", "lmsst", "proposed")
GENERATORS = ("fmam", "crossover", "chirp", "tone")


def _resolve_input(name: str, opts) -> tuple[signals.Signal, signals.ModeModel | None]:
    if name in ("chirp", "tone"):
        fs = opts.fs if opts.fs is not None else {"chirp": 1024.0, "tone": 128.0}[name]
        # a grid has at least one bin per sample, so no --nfft admits a longer signal
        if signals.sample_count(fs, opts.dur) > tfr.MAX_GRID_CELLS:
            raise InvalidParameterError(
                f"{fs} Hz x {opts.dur} s exceeds the {tfr.MAX_GRID_CELLS} cell budget "
                "even at one bin per frame; lower --fs or --dur")
    if name == "fmam":
        sig, model = signals.gen_fmam()
    elif name == "crossover":
        sig, model = signals.gen_crossover()
    elif name == "chirp":
        sig, model = signals.gen_chirp_surrogate(
            opts.f_start, opts.f_end, opts.power, fs, opts.dur)
    elif name == "tone":
        sig, model = signals.gen_tone(opts.f0, fs, opts.dur)
    else:
        sig, model = load_signal(name), None
    return signals.add_noise(sig, opts.snr_db, opts.seed), model


def _prepare(args, methods: list[str]
             ) -> tuple[tfr.Analysis, signals.ModeModel | None, list | None]:
    """Admit an analyze or compare run in README's order, reading --if-from's
    tracks last, then build the STFT and mirror a real signal's tracks on its
    axis. Returns (analysis, model, tracks); tracks is None if none are given."""
    if args.if_from and "proposed" not in methods:  # no other method reads the file
        raise InvalidParameterError("--if-from needs the proposed method")
    sig, model = _resolve_input(args.input, args)
    ridges._check_gamma(args.gamma)  # before any grid; the scoring pass reads it after the STFT
    sigma, nfft = args.sigma, args.nfft
    if sigma is None:
        # 0.04 s suits the 128 Hz experiment, 0.02 s the 1024 Hz ones; wider
        # windows split ridges at IF turning points on the 128 Hz signal
        sigma = 0.04 if sig.sample_rate_hz <= 256.0 else 0.02
    w = windows.WindowSpec(sigma, sig.sample_rate_hz)  # builds no taps yet
    if nfft is None:  # the next power of two covering the signal and the window, at most 4096
        nfft = min(4096, 1 << (max(2, len(sig), w.taps) - 1).bit_length())
    if nfft < w.taps:
        raise InvalidParameterError(f"nfft={nfft} is smaller than the window length {w.taps}; "
                                    "raise --nfft or lower --sigma")
    if args.delta_bins is not None:  # also for a run without LMSST
        baselines._check_delta_bins(args.delta_bins, nfft)
    if len(sig) * nfft > tfr.MAX_GRID_CELLS:
        raise InvalidParameterError(f"grid of {len(sig)} frames x {nfft} bins exceeds the "
                                    f"{tfr.MAX_GRID_CELLS} cell budget; analyze a shorter "
                                    "slice or lower --nfft")
    tracks = load_trajectories_csv(args.if_from) if args.if_from else None
    a = tfr.Analysis(sig, w, nfft)
    if tracks and sig.is_real:  # the conjugate half squeezes onto each track's mirror: -f
        # wrapped onto [-df/2, fs - df/2), so a track near 0 Hz stays on the axis
        df, fs = a.grid.df_hz, a.grid.source_fs_hz
        tracks += [lambda t, f=f: np.remainder(df / 2 - f(t), fs) - df / 2 for f in tracks]
    return a, model, tracks


def _run(method: str, a: tfr.Analysis, model: signals.ModeModel | None, tracks: list | None, args
         ) -> tuple[metrics.MethodReport, tfr.TFRGrid, ridges.IFEstimate | None, np.ndarray]:
    """Runs one admitted method on the analysis and scores it; reads no file.

    'proposed' squeezes onto the given tracks, which replace detection, or
    else onto detected ridges. Returns (report, output grid, proposed's estimate, heatmap
    pixels). Conservation is measured against the frame sums of the cells the
    method moved, which for 'proposed' are the cells the gamma filter kept.
    """
    sums, est = a.grid.frame_sums, None
    if method == "stft":
        out = a.grid
    elif method == "sst":
        out = baselines.sst(a)
    elif method == "rm":
        out = baselines.reassignment(a)
    elif method == "set":
        out = baselines.set_extract(a)
    elif method == "lmsst":
        out = baselines.lmsst(a, args.delta_bins)
    else:
        floor = ridges.gamma_floor(a.grid, args.gamma, args.per_frame_max)
        est = ridges.inject_if(a.grid, tracks) if tracks else ridges.local_maxima(a.grid, floor)
        out, sums = squeeze.modular_reassign(a.grid, est, floor)
    recon = None
    if out.invertible:
        recon = metrics.recon_rel_l2(a.sig, tfr.istft(out))
    # scored before conservation is certified, so an output the entropy cannot
    # score is refused first; the ridges found are scored only against true IFs
    entropy, found, image, nonzero = metrics.scan(out, args.gamma, a.sig.is_real)
    dev = metrics.framesum_max_dev(sums, out)
    mae = None
    if model is not None:
        mae = metrics.ridge_mae(found, model, frames=slice(a.w.half, out.n_frames - a.w.half))
    return metrics.MethodReport(
        method_tag=out.method_tag,
        renyi_entropy_bits=entropy,
        nonzero_fraction=nonzero,
        recon_rel_l2=recon,
        ridge_mae_bins=mae,
        framesum_max_dev=dev,
    ), out, est, image


def cmd_generate(args) -> int:
    sig, model = _resolve_input(args.generator, args)
    with output_dir(args.out) as stage:
        save_signal_csv(sig, stage / "signal.csv")
        export_trajectories_csv(sig.times_s, model.if_matrix_hz(sig.times_s).T,
                                stage / "true_if.csv")
    return 0


def cmd_analyze(args) -> int:
    a, model, tracks = _prepare(args, [args.method])
    report, out, est, image = _run(args.method, a, model, tracks, args)
    del a  # the exports need only out and the pixels

    with output_dir(args.out) as stage:
        export_pgm(image, stage / "heatmap.pgm")
        del image  # before the grid file's write, which sets the command's peak
        export_grid_csv(out, stage / "grid.npz")
        export_report_json([report], stage / "report.json")
        if est is not None:
            export_trajectories_csv(est.time_axis_s, est.freq_table_hz(),
                                    stage / "ridges.csv")
        if args.reconstruct:
            save_signal_csv(tfr.istft(out), stage / "recovered.csv")
    if args.reconstruct:
        print(f"recon_rel_l2={report.recon_rel_l2:.17g}")
    return 0


def cmd_compare(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise InvalidParameterError(f"unknown methods {unknown}; choose from {METHODS}")
    repeated = sorted({m for m in methods if methods.count(m) > 1})
    if repeated:
        raise InvalidParameterError(f"repeated methods {repeated}; name each method once")
    if len(methods) < 2:
        raise InvalidParameterError("compare needs at least two methods")
    a, model, tracks = _prepare(args, methods)

    # each heatmap is written once its report exists, so one method's grids live at a time
    reports = []
    with output_dir(args.out) as stage:
        for method in methods:
            report, out, _, image = _run(method, a, model, tracks, args)
            reports.append(report)
            export_pgm(image, stage / f"heatmap_{method}.pgm")
            del out, image  # free this method's grid and pixels before the next one runs
        reports.sort(key=lambda r: r.renyi_entropy_bits)
        export_report_json(reports, stage / "report.json")
    return 0


def cmd_reconstruct(args) -> int:
    squeeze._check_band(args.gamma_band)  # before any file, also for a run that never reads it
    reference = load_signal(args.reference) if args.reference else None
    tracks = load_trajectories_csv(args.mode_track) if args.mode_track else None
    grid = import_grid_csv(args.grid)  # the large input, read last

    with output_dir(args.out) as stage:
        if tracks is not None:
            for i, track in enumerate(tracks, start=1):
                save_signal_csv(squeeze.mode_reconstruct(grid, track, args.gamma_band),
                                stage / f"mode_{i}.csv")
            return 0
        recovered = tfr.istft(grid)
        err = metrics.recon_rel_l2(reference, recovered) if reference is not None else None
        save_signal_csv(recovered, stage / "recovered.csv")
    if err is not None:
        print(f"recon_rel_l2={err:.17g}")
    return 0


def _add_input_options(p: argparse.ArgumentParser):
    p.add_argument("--input", default="fmam",
                   help="generator name (fmam, crossover, chirp, tone) or a CSV/WAV path")
    p.add_argument("--sigma", type=float, default=None,
                   help="window width in seconds (default 0.04 below 256 Hz, else 0.02)")
    p.add_argument("--nfft", type=int, default=None,
                   help="DFT size (default: power of two covering signal and window, max 4096)")
    p.add_argument("--gamma", type=float, default=0.1,
                   help="magnitude filter threshold, fraction of the grid maximum")
    p.add_argument("--delta-bins", type=int, default=None,
                   help="LMSST search half width in bins (default: window -3 dB half width)")
    p.add_argument("--if-from", default=None,
                   help="CSV of external IF trajectories to inject (proposed method)")
    p.add_argument("--per-frame-max", action="store_true",
                   help="gamma filter relative to each frame's own maximum")
    _add_generator_options(p)


def _add_generator_options(p: argparse.ArgumentParser):
    p.add_argument("--snr-db", type=float, default=None,
                   help="add white Gaussian noise at this SNR")
    p.add_argument("--seed", type=int, default=0, help="noise seed")
    p.add_argument("--f0", type=float, default=32.0, help="tone frequency (Hz)")
    p.add_argument("--fs", type=float, default=None,
                   help="tone/chirp sample rate (Hz; default 128 tone, 1024 chirp)")
    p.add_argument("--dur", type=float, default=1.0, help="tone/chirp duration (s)")
    p.add_argument("--f-start", type=float, default=30.0, help="chirp start frequency (Hz)")
    p.add_argument("--f-end", type=float, default=400.0, help="chirp end frequency (Hz)")
    p.add_argument("--power", type=float, default=3.0, help="chirp sweep exponent")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tfsqueeze",
        description="Time-frequency post-processing: ridge-squeezed STFT and baselines",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a synthetic signal and its true IFs")
    p_gen.add_argument("generator", choices=GENERATORS)
    _add_generator_options(p_gen)
    p_gen.set_defaults(func=cmd_generate)

    p_an = sub.add_parser("analyze", help="run one method and export its grid")
    p_an.add_argument("--method", choices=METHODS, default="proposed")
    p_an.add_argument("--reconstruct", action="store_true",
                      help="also invert the output grid back to a signal")
    _add_input_options(p_an)
    p_an.set_defaults(func=cmd_analyze)

    p_cmp = sub.add_parser("compare", help="run several methods on one input")
    p_cmp.add_argument("--methods", default=",".join(METHODS),
                       help="comma-separated method list")
    _add_input_options(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_rec = sub.add_parser("reconstruct", help="invert an exported grid file")
    p_rec.add_argument("grid", help="grid file written by analyze")
    # a mode has no reference signal to be measured against
    target = p_rec.add_mutually_exclusive_group()
    target.add_argument("--reference", default=None,
                        help="signal CSV to compute the reconstruction error against")
    target.add_argument("--mode-track", default=None,
                        help="trajectory CSV; reconstruct one mode per column")
    p_rec.add_argument("--gamma-band", type=float, default=3.0,
                       help="half width in Hz of the per-mode band")
    p_rec.set_defaults(func=cmd_reconstruct)

    for p in (p_gen, p_an, p_cmp, p_rec):
        p.add_argument("--out", default="out", help="output directory")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except NonInvertibleGridError as exc:
        print(f"error: non-invertible: {exc}", file=sys.stderr)
        return 4
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (TFSqueezeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
