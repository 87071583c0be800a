"""Run one workload of the tfnet benchmark and print its metrics.

    python3 perfbench/run.py --workload train-paper --seed 1 --seconds 10 --trace 0

The program is imported from ``src/`` next to this directory; without it the
run exits with code 2 and prints no result.  BLAS and OpenMP are pinned to
one thread before numpy loads, and the whole run is one process.

With ``--trace 0`` the run sets the workload up ``SETUP_REPEATS`` times
(``setup_s`` is the median), then runs whole rounds until ``--seconds`` have
passed, and reports the end-to-end metrics.  With ``--trace 1`` it sets up
once, runs untraced rounds for ``--seconds``, then one traced set-up and one
traced round, and reports the per-layer metrics of ``spec.PER_LAYER``.
End-to-end durations are rescaled to reference machine speed (see
``calibrate.py``); per-layer figures are the traced round's own.
``peak_rss_mib`` is the peak resident set over the timed rounds alone: the
peak is reset after set-up, so memory that set-up used and released does
not count.

Every metric is printed as ``name = value unit``, then the environment as
one JSON line (it holds the program's own, unscaled wall times and the
reference kernel times they were rescaled by), and last one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Scratch files go to
``.perfbench_work/`` in the checkout and are removed before the run ends.
"""

import argparse
import ctypes
import gc
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

import spec

ROOT = spec.ROOT
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BootstrapError(RuntimeError):
    """The program under test cannot be imported from this checkout."""


def load_tfnet():
    """Import tfnet from ``src/`` of this checkout, never from anywhere else."""
    if not (SRC / "tfnet" / "__init__.py").is_file():
        raise BootstrapError(f"no tfnet package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import tfnet
    from tfnet import checkpoint, cli, core_math, data, interpret, kernels, nn, training

    if not Path(tfnet.__file__).resolve().is_relative_to(SRC):
        raise BootstrapError(f"tfnet was imported from {tfnet.__file__}, not from {SRC}")
    return cli, checkpoint, core_math, data, interpret, kernels, nn, training


def git_commit():
    """Commit of the checkout, read from .git without starting a process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def timings(tally):
    """Per kind of operation, median unscaled and rescaled durations and kernel time.

    They trace each reported figure back to the program's own wall time.
    """
    out = {}
    for kind in tally.spans:
        out[kind] = {
            "ops": len(tally.spans[kind]),
            "unscaled_ms_p50": 1e3 * statistics.median(tally.seconds(kind)),
            "rescaled_ms_p50": 1e3 * statistics.median(tally.rescaled(kind)),
            "kernel_ms_p50": 1e3 * statistics.median(
                tally.calibrator.kernel_seconds(start, end) for start, end in tally.spans[kind]),
        }
    return out


def environment(args, tally):
    import numpy as np
    import scipy

    from calibrate import REFERENCE_MS

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        **{var: os.environ.get(var) for var in THREAD_VARS},
        "commit": git_commit(),
        "reference_kernel_ms": REFERENCE_MS,
        "timings": timings(tally),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def reset_peak_rss():
    """Lower the process's peak resident set (VmHWM) to what is resident now.

    Freed heap is handed back to the system first (glibc ``malloc_trim``), so
    memory that set-up used and released does not count towards the peak.
    """
    gc.collect()
    ctypes.CDLL(None).malloc_trim(0)
    Path("/proc/self/clear_refs").write_text("5")


def peak_rss_mib():
    """Peak resident set since the last ``reset_peak_rss``, in MiB."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise OSError("no VmHWM in /proc/self/status")


def _rounds(workload, state, tally, seconds):
    """Whole rounds until ``seconds`` have passed; returns each round's wall time.

    Peak RSS covers these rounds and nothing before them.  A round's peak
    depends a little on what the allocator kept from the round before, so the
    figure is the largest over all rounds.
    """
    from tracing import NullTracer

    walls, start = [], time.perf_counter()
    reset_peak_rss()
    while True:
        t0 = time.perf_counter()
        workload.round(state, tally, NullTracer())
        walls.append(time.perf_counter() - t0)
        if time.perf_counter() - start >= seconds:
            tally.peak_rss_mib = peak_rss_mib()
            return walls


def run(name, seed, seconds, trace, workdir, modules, micro=False):
    """Run one workload; returns (metrics as name -> (value, unit), tally)."""
    from tracing import NullTracer, Tracer
    from workloads import WORKLOADS, Tally

    cls, shape = WORKLOADS[name]
    workload = cls(shape.micro() if micro else shape, seed, workdir)
    tally = Tally()
    if not trace:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            state = workload.setup(tally, NullTracer())
            tally.timed("setup", t0, repeats=5)
        _rounds(workload, state, tally, seconds)
        return end_to_end(tally), tally

    state = workload.setup(tally, NullTracer())
    untraced = statistics.median(_rounds(workload, state, tally, seconds))
    tracer = Tracer()
    tracer.start(modules)
    try:
        tracer.phase = "setup"
        state = workload.setup(tally, tracer)
        tracer.phase = "round"
        t0 = time.perf_counter()
        workload.round(state, tally, tracer)
        traced = time.perf_counter() - t0
    finally:
        tracer.restore()
    metrics = {m.name: (tracer.stat(m.span, m.stat, m.phase), m.unit) for m in spec.PER_LAYER}
    metrics["trace.round_ms"] = (1e3 * traced, "ms")
    metrics["trace.self_ms"] = (tracer.self_ms("round"), "ms")
    metrics["trace.overhead_frac"] = (traced / untraced - 1.0, "fraction")
    return metrics, tally


def end_to_end(tally):
    import numpy as np

    setup, steps, evals = (tally.rescaled(kind) for kind in ("setup", "step", "eval"))
    values = {"setup_s": statistics.median(setup),
              "peak_rss_mib": tally.peak_rss_mib,
              "train.loss_final": tally.loss_final,
              "eval.accuracy": tally.accuracy}
    if steps:
        values["train.samples_per_s"] = tally.step_samples / sum(steps)
        values["train.step_ms_p50"] = 1e3 * statistics.median(steps)
    if evals:
        values["eval.samples_per_s"] = tally.eval_samples / statistics.median(evals)
    metrics = {}
    for m in spec.END_TO_END:
        value = values.get(m.name)
        if value is None or not np.isfinite(value):
            tally.op(False, f"{m.name} could not be measured")
            value = 0.0
        metrics[m.name] = (float(value), m.unit)
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    try:
        modules = load_tfnet()
    except (BootstrapError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        metrics, tally = run(args.workload, args.seed, args.seconds, bool(args.trace),
                             workdir, modules)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    for problem in tally.problems:
        print(f"failed: {problem}", file=sys.stderr)
    print(json.dumps({"environment": environment(args, tally)}, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
