"""Batch command-line front end.

Subcommands design codebooks, measure their minimum chordal distance, and
run the link-level and waveform benchmarks, emitting plot-ready CSV. Each
command returns the paths it wrote, and ``main`` writes one JSON manifest
per run next to the first of them. Every command is deterministic given its
seed; reruns produce byte-identical CSV. BLAS threading (OMP_NUM_THREADS)
only affects speed, never results.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .audit import complexity_report, real_variable_count
from .codebooks import (
    OptimizerConfig,
    QUARTER_GRID,
    build_expmap,
    build_general_sparse,
    build_sparse_2M,
    load_codebook,
    nr_codebook_4_2,
    optimize_manopt,
    proposed_codebook_4_2,
    save_codebook,
)
from .errors import GrasspackError, ParseError
from .grassmann import min_chordal_distance
from .linksim import gain_cdf, rate_curve
from .wavesim import (
    WaveformConfig,
    _thresholds,
    ccdf,
    constellation_samples,
    papr_experiment,
    row_sparse_precoder,
)

_METHODS = ("sparse2m", "sparse-general", "manopt", "expmap", "nr42", "prop42")
_AXIS_POINTS = 10**6


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _row_format(kinds):
    """The ``%`` format of a row whose cells have these types: ``%.17g`` per
    float and ``%d`` per integer, or None if some cell is neither."""
    cells = []
    for kind in kinds:
        if issubclass(kind, float):
            cells.append("%.17g")
        elif issubclass(kind, (int, np.integer)) and not issubclass(kind, bool):
            cells.append("%d")
        else:
            return None
    return ",".join(cells) + "\n"


def _write_rows(fh, header, rows):
    """Write ``header`` and ``rows`` to the text stream ``fh`` as CSV, each
    cell as ``_fmt`` gives it.

    A row of only float and integer cells takes one ``%`` operation: for
    every float, ``"%.17g" % x`` is ``format(x, ".17g")``, and number text
    never needs quoting. Other rows go through ``csv.writer``, which quotes
    text cells as needed.
    """
    formats = {}
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        kinds = tuple(map(type, row))
        if kinds not in formats:
            formats[kinds] = _row_format(kinds)
        fmt = formats[kinds]
        if fmt is None:
            writer.writerow([_fmt(v) for v in row])
        else:
            fh.write(fmt % tuple(row))


def _write_csv(path, header, rows):
    """Write ``header`` and ``rows`` as a UTF-8 CSV file (see ``_write_rows``)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        _write_rows(fh, header, rows)


def _write_manifest(args, outputs, t0):
    # imported here: hashlib loads OpenSSL, about 5 ms, which every import of the CLI would pay
    import hashlib

    params = {k: v for k, v in vars(args).items() if k != "func"}
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    manifest = {
        "command": args.command,
        "parameters": {k: (list(v) if isinstance(v, tuple) else v) for k, v in params.items()},
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        # numpy exposes no runtime BLAS thread count; the variables that set it are recorded as given
        "thread_env": {var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "outputs": [str(o) for o in outputs],
        "outputs_sha256": {str(o): hashlib.sha256(Path(o).read_bytes()).hexdigest() for o in outputs},
        "wall_time_s": time.time() - t0,
    }
    path = Path(outputs[0]).with_suffix(Path(outputs[0]).suffix + ".manifest.json")
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _parse_floats(text, what):
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise ParseError(f"{what} must be comma-separated numbers, got {text!r}") from None


def _parse_grid(text):
    if text in (None, "", "none"):
        return None
    if text == "quarter":
        return QUARTER_GRID
    return tuple(_parse_floats(text, "--grid"))


def _parse_indices(text):
    out = []
    try:
        for part in text.split(","):
            if "-" in part:
                lo, hi = (int(v) for v in part.split("-"))
                if lo > hi:
                    raise ParseError(f"--indices range {part!r} holds no entry")
                out.extend(range(lo, hi + 1))
            else:
                out.append(int(part))
    except ValueError:
        raise ParseError(f"--indices must be 1-based entries or ranges like '15-22', got {text!r}") from None
    return out


def _parse_axis(text):
    """start:stop:step (stop inclusive, never passed by more than rounding) or a comma list."""
    if ":" not in text:
        return _parse_floats(text, "axis")
    malformed = f"axis must be start:stop:step of finite numbers with a nonzero step, got {text!r}"
    try:
        start, stop, step = (float(v) for v in text.split(":"))
        n = math.floor((stop - start) / step + 1e-9) + 1
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ParseError(malformed) from None
    if not all(map(math.isfinite, (start, stop, step))):  # an infinite step gives n = 1
        raise ParseError(malformed)
    if n < 1:
        raise ParseError(f"axis {text!r} holds no point: the step points away from stop")
    if n > _AXIS_POINTS:
        raise ParseError(f"axis {text!r} holds {n} points, more than {_AXIS_POINTS}")
    return [start + i * step for i in range(n)]


def _stem(path):
    s = Path(path).stem
    return "".join(c if c.isalnum() else "_" for c in s)


def cmd_design(args):
    indices = _parse_indices(args.indices) if args.indices else None
    cfg = OptimizerConfig(
        seed=args.seed,
        phase_grid=_parse_grid(args.grid),
        restarts=args.restarts,
        max_iters=args.iters,
        expmap_scale=args.scale,
    )
    if args.method == "sparse2m":
        if args.M is None or args.size is None:
            raise GrasspackError("sparse2m requires -M and --size")
        book = build_sparse_2M(args.M, args.size, cfg)
    elif args.method == "sparse-general":
        if None in (args.T, args.M, args.sparsity, args.size):
            raise GrasspackError("sparse-general requires -T, -M, -s and --size")
        book = build_general_sparse(args.T, args.M, args.sparsity, args.size, cfg)
    elif args.method == "manopt":
        if None in (args.T, args.M, args.size):
            raise GrasspackError("manopt requires -T, -M and --size")
        book = optimize_manopt(args.T, args.M, args.size, cfg)
    elif args.method == "expmap":
        if None in (args.T, args.M, args.size):
            raise GrasspackError("expmap requires -T, -M and --size")
        book = build_expmap(args.T, args.M, args.size, cfg)
    elif args.method == "nr42":
        book = nr_codebook_4_2()
    else:
        book = proposed_codebook_4_2()
    if indices:
        book = book.subset(indices)
    out = args.out or f"{args.method}.json"
    save_codebook(book, out)
    if len(book) >= 2:
        mcd, pair = min_chordal_distance(book)
        print(f"wrote {out}: size={len(book)} mcd={mcd:.12f} pair=({pair[0]},{pair[1]})")
    else:
        print(f"wrote {out}: size={len(book)} mcd=nan (need >= 2 codewords)")
    return [out]


def cmd_mcd(args):
    rows = []
    for path in args.files:
        book = load_codebook(path)
        mcd, pair = min_chordal_distance(book)
        rows.append([path, len(book), mcd, pair[0], pair[1]])
    header = ["file", "size", "mcd", "argmin_i", "argmin_j"]
    if args.out:
        _write_csv(args.out, header, rows)
        return [args.out]
    _write_rows(sys.stdout, header, rows)
    return []


def cmd_rate(args):
    books = [load_codebook(p) for p in args.codebooks]
    names = [_stem(p) for p in args.codebooks]
    snr_db = _parse_axis(args.snr_db)
    sweep = rate_curve(books, args.N, snr_db, args.trials, args.seed)
    header = ["snr_db"] + [f"rate_{n}" for n in names]
    for j in range(1, len(names)):
        header += [f"diff_{names[j]}_vs_{names[0]}", f"se_{names[j]}_vs_{names[0]}"]
    rows = []
    for si, snr in enumerate(snr_db):
        row = [snr, *sweep.mean_rates[:, si]]
        for j in range(1, len(names)):
            row += [sweep.diff_mean[(0, j)][si], sweep.diff_se[(0, j)][si]]
        rows.append(row)
    _write_csv(args.out, header, rows)
    print(f"wrote {args.out}: {len(rows)} SNR points, {args.trials} paired trials")
    return [args.out]


def cmd_gain_cdf(args):
    books = [load_codebook(p) for p in args.codebooks]
    names = [_stem(p) for p in args.codebooks]
    kfactors = _parse_floats(args.k_factors, "--k-factors")
    gains = gain_cdf(books, args.N, kfactors, args.trials, args.seed)
    header = ["rank"]
    for k in kfactors:
        # shortest round-trip text, integral values without ".0": 0.1 -> 0p1, 1 -> 1, inf -> inf
        ktag = repr(k).removesuffix(".0").replace(".", "p")
        header += [f"gain_{name}_K{ktag}" for name in names]
    columns = gains.reshape(-1, args.trials).tolist()
    _write_csv(args.out, header, zip(range(1, args.trials + 1), *columns))
    print(f"wrote {args.out}: {args.trials} sorted gains per column")
    return [args.out]


def _papr_schemes(args):
    schemes = []
    for path in args.codebooks or []:
        schemes.append((_stem(path), load_codebook(path)))
    for spec in args.row_sparse or []:
        try:
            t, m, ell = (int(v) for v in spec.split(","))
        except ValueError:
            raise ParseError(f"--row-sparse takes T,M,ELL integers, got {spec!r}") from None
        thetas = _parse_floats(args.thetas, "--thetas") if args.thetas else None
        w = row_sparse_precoder(t, m, ell, thetas=thetas, seed=args.seed)
        schemes.append((f"rows_T{t}M{m}l{ell}", w))
    if not schemes:
        raise GrasspackError("papr needs --codebooks and/or --row-sparse")
    return schemes


def cmd_papr(args):
    schemes = _papr_schemes(args)
    waveforms = ["ofdm", "dft-s-ofdm"] if args.waveform == "both" else [args.waveform]
    # rejected here, before any frame is drawn, as ccdf would reject them
    thresholds = _thresholds(_parse_axis(args.thresholds))
    cfgs = [WaveformConfig(args.subcarriers, args.fft, args.oversample, wf) for wf in waveforms]
    # drawn before the sweep, so an oversized request fails before any frame of it
    if args.scatter:
        pts = constellation_samples(schemes[0][1], cfgs[0], args.scatter_frames, args.seed)
    header = ["threshold_db"]
    curves = []
    for cfg in cfgs:
        for name, source in schemes:
            samples = papr_experiment(
                source, cfg, args.trials, args.seed, antenna_mean=args.antenna_mean
            )
            header.append(f"ccdf_{name}_{cfg.waveform.replace('-', '')}")
            curves.append(ccdf(samples, thresholds))
    rows = [[thr] + [c[i] for c in curves] for i, thr in enumerate(thresholds)]
    _write_csv(args.out, header, rows)
    outputs = [args.out]
    if args.scatter:
        _write_csv(args.scatter, ["re", "im"], [[z.real, z.imag] for z in pts])
        outputs.append(args.scatter)
    print(f"wrote {args.out}: {len(curves)} CCDF curves, {args.trials} frames each")
    return outputs


def cmd_audit(args):
    if args.sweep:
        values = _parse_axis(args.sweep)
        if not all(v.is_integer() for v in values):
            raise ParseError(f"--sweep sizes must be finite integers, got {args.sweep!r}")
        header = ["size", "manopt_real_vars", "proposed2m_real_vars"]
        rows = []
        for size in map(int, values):
            prop = (
                real_variable_count("proposed2m", args.T, args.M, size)
                if args.T == 2 * args.M
                else ""
            )
            rows.append([size, real_variable_count("manopt", args.T, args.M, size), prop])
        _write_csv(args.out, header, rows)
    else:
        report = complexity_report(args.T, args.M, args.N, args.size)
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
        Path(args.out).write_text(text, encoding="utf-8")
    print(f"wrote {args.out}")
    return [args.out]


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="grasspack",
        description="Design sparse Grassmannian precoding codebooks and benchmark "
        "them against dense baselines.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="construct a codebook and save it as JSON")
    p.add_argument("--method", required=True, choices=_METHODS)
    p.add_argument("-T", type=int)
    p.add_argument("-M", type=int)
    p.add_argument("-s", "--sparsity", type=int)
    p.add_argument("--size", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid", default=None, help="'quarter', 'none', or comma-separated radians")
    p.add_argument("--restarts", type=int, default=4)
    p.add_argument("--iters", type=int, default=300)
    p.add_argument("--scale", type=float, default=0.5, help="exp-map QAM spread factor")
    p.add_argument("--indices", default=None, help="keep 1-based entries, e.g. '15-22'")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("mcd", help="minimum chordal distance of codebook files")
    p.add_argument("files", nargs="+")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_mcd)

    p = sub.add_parser("rate", help="paired achievable-rate sweep under Rayleigh fading")
    p.add_argument("--codebooks", nargs="+", required=True)
    p.add_argument("-N", type=int, default=32)
    p.add_argument("--snr-db", default="0:20:2")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_rate)

    p = sub.add_parser("gain-cdf", help="effective-gain CDF under Rician fading")
    p.add_argument("--codebooks", nargs="+", required=True)
    p.add_argument("-N", type=int, default=32)
    p.add_argument("--k-factors", default="0,1,inf")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gain_cdf)

    p = sub.add_parser("papr", help="PAPR CCDF per scheme for OFDM / DFT-s-OFDM")
    p.add_argument("--codebooks", nargs="*", default=None)
    p.add_argument("--row-sparse", nargs="*", default=None, metavar="T,M,ELL")
    p.add_argument("--thetas", default=None, help="comma-separated row phases (radians)")
    p.add_argument("--waveform", choices=["ofdm", "dft-s-ofdm", "both"], default="both")
    p.add_argument("--subcarriers", type=int, default=624)
    p.add_argument("--fft", type=int, default=1024)
    p.add_argument("--oversample", type=int, default=8)
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--thresholds", default="4:13:0.25")
    p.add_argument("--antenna-mean", action="store_true", help="one per-frame antenna average per sample")
    p.add_argument("--scatter", default=None, help="also dump Nyquist-rate samples of scheme 1 to CSV")
    p.add_argument("--scatter-frames", type=int, default=20)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_papr)

    p = sub.add_parser("audit", help="analytic complexity report or size sweep")
    p.add_argument("-T", type=int, required=True)
    p.add_argument("-M", type=int, required=True)
    p.add_argument("-N", type=int, default=32)
    p.add_argument("--size", type=int, default=22)
    p.add_argument("--sweep", default=None, help="sizes as start:stop:step or comma list")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_audit)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    t0 = time.time()
    try:
        outputs = args.func(args)
        if outputs:
            _write_manifest(args, outputs, t0)
    except (GrasspackError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
