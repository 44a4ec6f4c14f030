"""Closed-loop benchmark of the grasspack command line.

One process runs a workload's CLI commands one at a time through
``grasspack.cli.main(argv)`` and checks every output. A run does one full
pass, then repeats single parts of it while the time budget lasts. Every
repeat uses the same commands: their seeds are derived from the workload
seed, so work and quality figures are identical across repeats and only the
timings vary. Part times are scaled by a calibration loop timed before every
command (see ``calibration_s``). The last line of standard output is the JSON
result; the lines before it record the environment, the commands, the
unscaled samples and each metric with its unit.

Workloads (see README.md for why each exists):

* ``design``: ``grasspack design``; part 1 = dense books (manopt, expmap),
  part 2 = sparse books (sparse2m, sparse-general).
* ``link``: part 1 = ``grasspack rate``, part 2 = ``grasspack gain-cdf``.
* ``waveform``: ``grasspack papr``; part 1 = codebook schemes, part 2 =
  row-sparse study.

With ``--trace 1`` each round is an untraced pass followed by the same pass
with per-module spans on (see ``tracing.py``); per-layer figures are per
traced pass.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from grasspack import cli
from grasspack.codebooks import load_codebook
from grasspack.grassmann import min_chordal_distance

from perfbench.tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
FIXTURES = BENCH_DIR / "fixtures"
WORKLOADS = ("design", "link", "waveform")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "part1_s": "s",
    "part2_s": "s",
    "quality1": "1",
    "quality2": "1",
}

PER_LAYER = {
    "codebooks.einsum.calls": "count",
    "codebooks.einsum.s": "s",
    "codebooks.einsum.flops_computed": "flop",
    "linalg.qr.calls": "count",
    "linalg.qr.s": "s",
    "linalg.matexp.calls": "count",
    "linalg.matexp.s": "s",
    "codebooks.optimize_manopt.self_s": "s",
    "codebooks.build_expmap.self_s": "s",
    "codebooks.build_sparse_2M.self_s": "s",
    "codebooks.build_general_sparse.self_s": "s",
    "grassmann.pairwise_gram_sq.calls": "count",
    "grassmann.pairwise_gram_sq.s": "s",
    "grassmann.min_chordal_distance.calls": "count",
    "grassmann.min_chordal_distance.s": "s",
    "schubert.patterns.s": "s",
    "schubert.pair_codeword.calls": "count",
    "schubert.pair_codeword.s": "s",
    "codebooks.save_codebook.s": "s",
    "codebooks.load_codebook.s": "s",
    "rng.substream.calls": "count",
    "rng.substream.s": "s",
    "linksim.gain_cdf.self_s": "s",
    "linksim.rate_curve.self_s": "s",
    "linksim.eigvalsh.calls": "count",
    "linksim.eigvalsh.s": "s",
    "linksim.eigvalsh.matrices": "count",
    "linksim.einsum.calls": "count",
    "linksim.einsum.s": "s",
    "linksim.einsum.flops_computed": "flop",
    "wavesim.fft.calls": "count",
    "wavesim.fft.s": "s",
    "wavesim.fft.points": "count",
    "wavesim.fft.flops_computed": "flop",
    "wavesim.papr_experiment.self_s": "s",
    "wavesim.ccdf.s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "B",
    "process.wall_s": "s",
    "process.calibration_s": "s",
    "process.cpu_s": "s",
    "process.cpu_util": "1",
    "trace.overhead_frac": "1",
}

# figures the benchmark computes itself rather than reading from the tracer
_RUN_LEVEL = {
    "cli.bytes_written",
    "process.wall_s",
    "process.calibration_s",
    "process.cpu_s",
    "process.cpu_util",
    "trace.overhead_frac",
}


@dataclass(frozen=True)
class Sizes:
    """Command sizes of one pass and set-up repetitions of one run."""

    restarts: int
    iters: int
    trials: int
    frames: int
    setup_reps: int


FULL = Sizes(restarts=4, iters=300, trials=10_000, frames=500, setup_reps=9)
SMOKE = Sizes(restarts=1, iters=3, trials=64, frames=2, setup_reps=1)


@dataclass(frozen=True)
class Command:
    part: int  # which end-to-end timing (part1_s or part2_s) it counts toward
    kind: str  # design | rate | gain-cdf | papr: selects the output check
    argv: tuple
    out: Path
    scored: bool = True  # its quality figure counts toward the part's quality


def command_seeds(seed: int, count: int) -> list:
    """Per-command seeds derived from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def _design_commands(work, seeds, z):
    opt = ("--restarts", str(z.restarts), "--iters", str(z.iters))
    # one restart in the dense jobs, so a run holds several samples of part 1
    dense = ("--restarts", "1", "--iters", str(z.iters))
    jobs = [
        (1, "manopt_4_2_22", ("--method", "manopt", "-T", "4", "-M", "2", "--size", "22") + dense),
        (1, "manopt_6_3_32", ("--method", "manopt", "-T", "6", "-M", "3", "--size", "32") + dense),
        (1, "expmap_6_3_32", ("--method", "expmap", "-T", "6", "-M", "3", "--size", "32")),
        (2, "sparse2m_3_32", ("--method", "sparse2m", "-M", "3", "--size", "32") + opt),
        (2, "sparse2m_2_8_quarter", ("--method", "sparse2m", "-M", "2", "--size", "8", "--grid", "quarter")),
        (2, "sparse_general_4_2_4_22", ("--method", "sparse-general", "-T", "4", "-M", "2", "-s", "4", "--size", "22") + opt),
    ]
    out = []
    for (part, name, args), seed in zip(jobs, seeds):
        path = work / f"{name}.json"
        argv = ("design",) + args + ("--seed", str(seed), "--out", str(path))
        # expmap draws a random book whose MCD moves by a sixth from seed to
        # seed, which would hide a loss in the optimized books; it is checked
        # but left out of quality1
        out.append(Command(part, "design", argv, path, scored=not name.startswith("expmap")))
    return out


def _link_commands(work, seeds, z, inputs):
    books = ("--codebooks",) + tuple(str(p) for p in inputs)
    rate, gain = work / "rate.csv", work / "gain.csv"
    common = ("-N", "32", "--trials", str(z.trials))
    return [
        Command(1, "rate", ("rate",) + books + common + ("--snr-db", "0:20:2", "--seed", str(seeds[0]), "--out", str(rate)), rate),
        Command(2, "gain-cdf", ("gain-cdf",) + books + common + ("--k-factors", "0,1,inf", "--seed", str(seeds[1]), "--out", str(gain)), gain),
    ]


def _waveform_commands(work, seeds, z, inputs):
    p11, p12 = work / "papr_codebooks.csv", work / "papr_row_sparse.csv"
    common = ("--waveform", "both", "--oversample", "8", "--trials", str(z.frames))
    return [
        Command(1, "papr", ("papr", "--codebooks") + tuple(str(p) for p in inputs) + common
                + ("--subcarriers", "624", "--fft", "1024", "--seed", str(seeds[0]), "--out", str(p11)), p11),
        Command(2, "papr", ("papr", "--row-sparse", "8,4,1", "8,4,2", "8,4,3", "8,4,4",
                            "--thetas", "1.91,-2.21,-1.71,0.636") + common
                + ("--subcarriers", "512", "--fft", "512", "--seed", str(seeds[1]), "--out", str(p12)), p12),
    ]


# ---------------------------------------------------------------------------
# calling the CLI and checking what it wrote
# ---------------------------------------------------------------------------

def call_cli(argv, main=cli.main):
    """(exit code, captured stdout) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(argv))
    except SystemExit as exc:  # argparse rejects the arguments
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a traceback the CLI should never print: the command failed
        traceback.print_exc(file=err)
        rc = 1
    if rc != 0:
        sys.stderr.write(f"command failed ({rc}): {' '.join(argv)}\n{err.getvalue()}")
    return rc, out.getvalue()


def _read_columns(path, prefix):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], np.array(rows[1:], dtype=float)
    return body, [i for i, h in enumerate(header) if h.startswith(prefix)]


def _monotone(col, rising):
    step = np.diff(col)
    return bool(np.all(step >= 0) if rising else np.all(step <= 0))


def check_output(cmd, stdout):
    """Quality figure of a command's output, or None if the output is wrong.

    design: the file loads (Stiefel at 1e-8) and the printed MCD equals the
    file's MCD; quality = MCD. rate: finite, each rate column nondecreasing in
    SNR; quality = mean rate. gain-cdf: columns sorted and nonnegative;
    quality = mean column median. papr: CCDF in [0, 1] and nonincreasing in
    threshold; quality = mean of 1 - CCDF (higher means lower PAPR).
    """
    try:
        if cmd.kind == "design":
            printed = re.search(r"mcd=([0-9.]+)", stdout)
            mcd = min_chordal_distance(load_codebook(cmd.out))[0]
            ok = printed is not None and printed.group(1) == f"{mcd:.12f}"
            return mcd if ok else None
        prefix = {"rate": "rate_", "gain-cdf": "gain_", "papr": "ccdf_"}[cmd.kind]
        body, cols = _read_columns(cmd.out, prefix)
        vals = body[:, cols]
        if not cols or not np.all(np.isfinite(body)):
            return None
        if cmd.kind == "rate":
            ok = all(_monotone(vals[:, c], True) for c in range(len(cols)))
            return float(vals.mean()) if ok else None
        if cmd.kind == "gain-cdf":
            ok = np.all(vals >= 0) and all(_monotone(vals[:, c], True) for c in range(len(cols)))
            return float(np.median(vals, axis=0).mean()) if ok else None
        ok = np.all((vals >= 0) & (vals <= 1)) and all(_monotone(vals[:, c], False) for c in range(len(cols)))
        return float((1.0 - vals).mean()) if ok else None
    except Exception:  # unreadable or malformed output counts as a failed command
        traceback.print_exc()
        return None


def _bytes_written(cmd):
    manifest = cmd.out.with_suffix(cmd.out.suffix + ".manifest.json")
    return sum(p.stat().st_size for p in (cmd.out, manifest) if p.exists())


@dataclass
class PassResult:
    part_s: dict
    wall_s: float
    cpu_s: float
    quality: dict
    attempted: int
    failed: int
    bytes_written: int


def run_pass(commands, calibrations=None, tracer=None):
    """Run every command once, in order; timings cover the CLI calls only.

    Given a ``calibrations`` list, the calibration loop runs before each
    command and appends to it, so its samples spread over the whole run.
    """
    part_s, quality = {1: 0.0, 2: 0.0}, {1: [], 2: []}
    failed = written = 0
    cpu_s = 0.0
    for cmd in commands:
        if calibrations is not None:
            calibrations.append(calibration_s())
        cpu0 = time.process_time()
        restore = tracer.install() if tracer else None
        t0 = time.perf_counter()
        try:
            rc, stdout = call_cli(cmd.argv, tracer.wrap(cli.main, "cli") if tracer else cli.main)
        finally:
            part_s[cmd.part] += time.perf_counter() - t0
            cpu_s += time.process_time() - cpu0
            if restore:
                restore()
        q = check_output(cmd, stdout) if rc == 0 else None
        if q is None:
            failed += 1
        elif cmd.scored:
            quality[cmd.part].append(q)
        written += _bytes_written(cmd)
    return PassResult(
        part_s=part_s,
        wall_s=part_s[1] + part_s[2],
        cpu_s=cpu_s,
        quality={p: float(np.mean(v)) if v else 0.0 for p, v in quality.items()},
        attempted=len(commands),
        failed=failed,
        bytes_written=written,
    )


# ---------------------------------------------------------------------------
# set-up: import, fixture load, input files
# ---------------------------------------------------------------------------

def _time_import(module):
    """Seconds for a fresh interpreter to start and import ``module``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    # no timeout: with one, the wait polls every 50 ms and the time is rounded up to that
    subprocess.run([sys.executable, "-c", f"import {module}"], env=env, check=True)
    return time.perf_counter() - t0


def _setup_cli(argv):
    rc, _ = call_cli(argv)
    if rc != 0:
        raise RuntimeError(f"set-up command failed: {' '.join(argv)}")


def prepare_inputs(workload, work):
    """Write and load the codebook files the workload's commands read."""
    work.mkdir(parents=True)
    if workload == "design":
        return []
    if workload == "link":
        nr, prop = work / "nr42.json", work / "prop42.json"
        _setup_cli(["design", "--method", "nr42", "--out", str(nr)])
        _setup_cli(["design", "--method", "prop42", "--out", str(prop)])
        inputs = [nr, prop, FIXTURES / "manopt_4_2_22_seed0.json"]
    else:
        sparse, nr = work / "sparse2m_2_8_quarter.json", work / "nr42_15_22.json"
        _setup_cli(["design", "--method", "sparse2m", "-M", "2", "--size", "8", "--grid", "quarter",
                    "--seed", "0", "--out", str(sparse)])
        _setup_cli(["design", "--method", "nr42", "--indices", "15-22", "--out", str(nr)])
        inputs = [sparse, FIXTURES / "manopt_4_2_8_seed0.json", nr]
    for path in inputs:
        load_codebook(path)
    return inputs


# Seconds a fresh interpreter took to start and import numpy on the machine
# the bounds were set on; set-up times are scaled to that speed.
REFERENCE_NUMPY_IMPORT_S = 0.2


def setup(workload, work, sizes):
    """Set-up over ``sizes.setup_reps`` repetitions, each a fresh interpreter
    importing grasspack, then the inputs written and loaded.

    Returns the median of the repetitions scaled to a reference machine
    speed, the unscaled samples, and the inputs of the last repetition. The
    speed is that of a fresh interpreter importing numpy just before each
    repetition. Interpreter start-up and the numpy import are most of a
    set-up and slow down on a busy host less than the calibration loop does,
    so they track the host's speed for this work better.
    """
    scaled, raw = [], {"setup_s": [], "numpy_import_s": []}
    for rep in range(sizes.setup_reps):
        t_numpy = _time_import("numpy")
        t_import = _time_import("grasspack.cli")
        t0 = time.perf_counter()
        inputs = prepare_inputs(workload, work / f"setup{rep}")
        seconds = t_import + time.perf_counter() - t0
        raw["setup_s"].append(seconds)
        raw["numpy_import_s"].append(t_numpy)
        scaled.append(seconds * REFERENCE_NUMPY_IMPORT_S / t_numpy)
    return statistics.median(scaled), raw, inputs


def commands_for(workload, seed, work, inputs, sizes):
    if workload == "design":
        return _design_commands(work, command_seeds(seed, 6), sizes)
    if workload == "link":
        return _link_commands(work, command_seeds(seed, 2), sizes, inputs)
    return _waveform_commands(work, command_seeds(seed, 2), sizes, inputs)


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas():
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name', 'unknown')} {info.get('version', '')}".strip()
    except Exception:  # show_config(mode=...) needs numpy >= 1.25
        return "unknown"


def environment():
    threads = {os.environ.get(v) for v in BLAS_THREAD_VARS} - {None}
    return {
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": ",".join(sorted(threads)) or "default",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": _cpu_model(),
    }


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def _loop(seconds, one_round):
    """Rounds while the next one is expected to finish within ``seconds``;
    at least one."""
    rounds, t0 = [], time.perf_counter()
    while True:
        t_round = time.perf_counter()
        rounds.append(one_round())
        elapsed = time.perf_counter() - t0
        if elapsed + (time.perf_counter() - t_round) > seconds:
            return rounds


# Seconds calibration_s() takes on the machine the bounds were set on (a
# 2-vCPU shared Xeon VM); the part times are scaled to that speed.
REFERENCE_CALIBRATION_S = 0.1


def calibration_s():
    """Seconds for a fixed loop that grasspack never runs.

    Small-array numpy calls driven from Python, then a 32k-point FFT: the
    kinds of work the workloads do. grasspack never runs it, so it follows the
    machine's speed. A change to grasspack can move it only by leaving work
    running after a command returns, such as spin-waiting BLAS threads; the
    README gives the check made for that. On a shared host the speed drifts
    by up to half over minutes, which is why the part times are divided by
    this figure measured in the same run.
    """
    a = np.arange(32.0).reshape(8, 4) * (1 + 1j)
    x = np.exp(1j * np.arange(1 << 15))
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(12000):
        acc += float(np.abs(a * (i % 7)).sum()) + sum(range(40))
    for _ in range(40):
        acc += float(np.abs(np.fft.ifft(x)).max())
    return time.perf_counter() - t0


def _measure_parts(commands, seconds):
    """One full pass, then repeats of single parts while time is left.

    The next repeat is of the part with the fewest samples among those whose
    median time still fits, so a cheap part (the sparse designs) gets several
    samples even when the other (the dense designs) fills most of the run.
    Returns every pass run, the per-part time samples and the calibrations.
    """
    t0 = time.perf_counter()
    groups = {p: [c for c in commands if c.part == p] for p in (1, 2)}
    calibrations = []
    passes = [run_pass(commands, calibrations)]
    samples = {p: [passes[0].part_s[p]] for p in groups}
    while True:
        left = seconds - (time.perf_counter() - t0)
        fits = [p for p in groups if statistics.median(samples[p]) <= left]
        if not fits:
            calibrations.append(calibration_s())
            return passes, samples, calibrations
        part = min(fits, key=lambda p: len(samples[p]))
        passes.append(run_pass(groups[part], calibrations))
        samples[part].append(passes[-1].part_s[part])


def _untraced_metrics(passes, samples, setup_s, calibrations):
    speed = REFERENCE_CALIBRATION_S / statistics.mean(calibrations)
    return {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # the mean, not the median: the host alternates between fast and
        # slow spells of a few seconds, and a median of a few repeats flips
        # between the two from run to run
        "part1_s": statistics.mean(samples[1]) * speed,
        "part2_s": statistics.mean(samples[2]) * speed,
        # every command repeats with the same seed, so the first pass says all
        "quality1": passes[0].quality[1],
        "quality2": passes[0].quality[2],
    }


def _traced_metrics(rounds, tracer, calibrations):
    n = len(rounds)
    plain = [r[0] for r in rounds]
    traced = [r[1] for r in rounds]
    wall = sum(p.wall_s for p in plain)
    metrics = {}
    for name in PER_LAYER:
        if name in _RUN_LEVEL:
            continue
        total = tracer.value(name)
        # every traced pass repeats identical work, so counts divide exactly
        metrics[name] = total // n if isinstance(total, int) else total / n
    metrics["cli.bytes_written"] = sum(p.bytes_written for p in traced) // n
    metrics["process.wall_s"] = wall / n
    metrics["process.calibration_s"] = statistics.mean(calibrations)
    metrics["process.cpu_s"] = sum(p.cpu_s for p in plain) / n
    metrics["process.cpu_util"] = sum(p.cpu_s for p in plain) / wall
    metrics["trace.overhead_frac"] = sum(p.wall_s for p in traced) / wall - 1.0
    return metrics


def run(workload, seed, seconds, trace, smoke=False):
    """Set up, measure and check one run; returns the result dict."""
    sizes = SMOKE if smoke else FULL
    work = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup_s, setup_raw, inputs = setup(workload, work, sizes)
        commands = commands_for(workload, seed, work / "out", inputs, sizes)
        (work / "out").mkdir()
        print("commands " + json.dumps([list(c.argv) for c in commands]), flush=True)
        if trace:
            tracer = Tracer()
            calibrations = []
            rounds = _loop(seconds, lambda: (run_pass(commands, calibrations), run_pass(commands, tracer=tracer)))
            passes = [p for r in rounds for p in r]
            metrics, units = _traced_metrics(rounds, tracer, calibrations), PER_LAYER
        else:
            passes, samples, calibrations = _measure_parts(commands, seconds)
            raw = {f"part{p}_s": v for p, v in samples.items()}
            raw.update(setup_raw, calibration_s=calibrations)
            print("unscaled " + json.dumps(raw), flush=True)
            metrics, units = _untraced_metrics(passes, samples, setup_s, calibrations), END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    env = dict(environment(), workload=args.workload, seed=args.seed, trace=args.trace)
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, m in result["metrics"].items():
        print(f"  {name} = {_fmt(m['value'])} {m['unit']}")
    print(f"  commands attempted {result['attempted']}, failed {result['failed']}")
    print(json.dumps(result), flush=True)
    return 0
