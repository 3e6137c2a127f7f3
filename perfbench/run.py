"""Benchmark for embednoise: one workload per run, metrics as one JSON line.

    python3 perfbench/run.py --workload parity --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
./src and nothing is installed. A run

  1. sets the workload up in-process and repeats its fixed batch until
     --seconds have passed (at least MIN_BATCHES times);
  2. with --trace 0, times set-up (fresh interpreter, import, kernel
     selection, inputs) in a separate process after every batch, so the
     probes sample the same machine states as the batches, and takes the
     median (at least MIN_SETUP_PROBES probes);
  3. checks every batch's outputs and, when two kernel backends import,
     compares them bit for bit;
  4. prints a manifest, the metrics with units, then as its last line
     {"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are the end-to-end ones. With --trace 1 the
batches alternate between untraced and traced, the metrics are per
layer, and the spans are written to .perfbench/ at the end. See
perfbench/README.md for the catalogue.
"""

from __future__ import annotations

import os

# One process and at most nproc = 2 threads: BLAS single-threaded, OpenMP
# (none today) capped at two. Set before numpy is imported.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import importlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import layers  # noqa: E402
from workloads import WORKLOADS, Checks  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
MIN_SETUP_PROBES = 5
MIN_BATCHES = 2

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
BACKEND_NAMES = ("python", "cython")  # tried in turn; the ones that import are compared


def import_program():
    """Import embednoise from this checkout's src/, never from anywhere else."""
    if not (SRC / "embednoise" / "__init__.py").is_file():
        raise SystemExit(f"error: no embednoise sources under {SRC}")
    sys.path.insert(0, str(SRC))
    names = ("embednoise", "embednoise.cli", "embednoise._kernels")
    mods = [importlib.import_module(n) for n in names]
    if not Path(mods[0].__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: embednoise imported from {mods[0].__file__}, not {SRC}")
    return mods[0]


def prepare(en, args, workdir: Path):
    """Select the kernel and make the workload; its `setup` builds the inputs."""
    en._kernels.get_kernel()
    return WORKLOADS[args.workload](en, args.seed, args.smoke, workdir)


def setup_probe(args):
    """A function that times one fresh process importing and setting up the workload."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])

    def probe() -> float:
        t0 = time.perf_counter()
        # no timeout: Popen.wait(timeout) polls every 50 ms and would round the time up
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        return time.perf_counter() - t0
    return probe


def kernel_backends(en) -> list[str]:
    """Backend names whose kernels import, one name per distinct kernel module."""
    seen = {}
    for name in BACKEND_NAMES:
        try:
            module = en._kernels.get_kernel(name)
        except (RuntimeError, ValueError, ImportError, OSError):
            continue
        seen.setdefault(module.__name__, name)
    return list(seen.values())


def _proc_field(path: str, key: str):
    try:
        with open(path) as f:
            for line in f:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def manifest(en, args, backends) -> dict:
    kernel = en._kernels.get_kernel()
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _proc_field("/proc/cpuinfo", "model name"),
        "python": platform.python_version(), "numpy": np.__version__,
        "embednoise": getattr(en, "__version__", None), "git_commit": _git_commit(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "process_threads": _proc_field("/proc/self/status", "Threads"),
        # the module get_kernel() returns is what runs; embednoise.BACKEND is
        # fixed at import and can misreport it
        "kernel": kernel.__name__,
        "kernel_backends": backends,
        "backend_parity": ("checked: " + " vs ".join(backends)) if len(backends) > 1
        else "skipped: one backend",
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


def measure(workload, seconds: float, checks, tracer=None, probe=None):
    """Repeat the batch for `seconds`; return the untraced and traced batches
    and the set-up probe times.

    Each batch is (index, outputs, wall seconds); traced ones also carry
    their root span and counters. Under tracing, odd batches run with the
    wrappers installed and even ones without, so both halves see the
    same machine state. Without tracing, `probe` runs after every batch.
    """
    untraced, traced, probes, rounds = [], [], [], []
    minimum = max(MIN_BATCHES, workload.min_batches)
    start = time.perf_counter()
    for index in itertools.count():
        round_start = time.perf_counter()
        if tracer is not None and index % 2 == 1:
            tracer.reset_counters()
            tracer.install()
            t0 = time.perf_counter()
            out, root = tracer.call_root("batch", lambda: workload.batch(index))
            wall = time.perf_counter() - t0
            tracer.uninstall()
            traced.append((index, out, wall, root, dict(tracer.counters)))
        else:
            t0 = time.perf_counter()
            out = workload.batch(index)
            wall = time.perf_counter() - t0
            untraced.append((index, out, wall))
        workload.check(index, out, checks)
        if probe is not None:
            probes.append(probe())
        batches = index + 1
        rounds.append(time.perf_counter() - round_start)
        done = batches >= minimum and (tracer is None or batches % 2 == 0)
        if done and time.perf_counter() - start + statistics.median(rounds) > seconds:
            return untraced, traced, probes


def end_to_end(untraced, setup_s) -> dict:
    values = {"setup_s": setup_s, "wall_s": statistics.median(b[2] for b in untraced),
              "peak_rss_mb": peak_rss_mb()}
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["parity", "synthetic", "calibrate"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    en = import_program()
    workdir = OUT_DIR / f"work-{os.getpid()}"
    try:
        workload = prepare(en, args, workdir)
        if args.setup_probe:
            workload.setup()
            return 0

        tracer = layers.make_tracer(en) if args.trace else None
        setup_root = None
        if tracer is not None:
            tracer.install()
            _, setup_root = tracer.call_root("setup", workload.setup)
            tracer.uninstall()
        else:
            workload.setup()

        checks = Checks()
        probe = None if args.trace else setup_probe(args)
        untraced, traced, probes = measure(workload, args.seconds, checks, tracer, probe)
        if probe is not None:
            probes += [probe() for _ in range(len(probes), 2 if args.smoke else MIN_SETUP_PROBES)]
        backends = kernel_backends(en)
        if len(backends) > 1:
            workload.backend_parity(backends, checks)

        info = manifest(en, args, backends)
        print("manifest " + json.dumps(info))
        if tracer is None:
            metrics = end_to_end(untraced, statistics.median(probes))
        else:
            metrics, missing = layers.per_layer(tracer, workload, traced, untraced, setup_root)
            for name in missing:
                print(f"missing {name}: nothing to wrap ({', '.join(tracer.missing) or 'counter failed'})")
            OUT_DIR.mkdir(exist_ok=True)
            trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            trace_path.write_text(json.dumps({"manifest": info, "metrics": metrics,
                                              "missing": missing, "wrap_missing": tracer.missing,
                                              "spans": tracer.to_records()}))
            print(f"trace {trace_path.relative_to(ROOT)} ({len(tracer.spans)} spans)")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(checks.failed)
    print(f"batches {len(untraced) + len(traced)} (traced {len(traced)}), untraced walls (s): "
          + " ".join(f"{b[2]:.4g}" for b in untraced))
    if probes:
        print("set-up probes (s): " + " ".join(f"{t:.4g}" for t in probes))
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    tts99 = workload.tts99(untraced)
    if tts99 and not args.trace:  # parity only; a per-layer metric, see README
        print(f"{'tts99_s':32s} {tts99:.6g} s")
    print(f"{'failed_frac':32s} {failed / checks.attempted:.6g} ratio "
          f"({failed} of {checks.attempted} checks)")
    for line in checks.failed[:20]:
        print("FAILED " + line)
    print(json.dumps({"correct": failed == 0, "attempted": checks.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
