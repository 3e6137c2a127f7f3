"""Compare the C and NumPy Metropolis kernels.

Runs the same seeded anneals through both backends, asserts bitwise
identical spins, and reports wall-clock timings and nanoseconds per
spin update (reads x sweeps x n). The dense rows are random QUBOs at
density 0.5. The path row is the embedded model of the benchmark's
`synthetic` workload: L=60 at density 1, path chains of length 8 from
the chain-length law (n=480), chain strength 2, every logical edge on
the two chain heads, so degrees run from 1 to 60. These rows share
their couplers across reads (`simulated_anneal`). The per-read row runs
`synthetic_hardware_run` on the path row's model at noise (0.06, 0.005),
so every read anneals its own perturbed couplers; its time includes the
control-error draws and the chain scoring.

The C kernel runs twice: with the process pinned to one CPU
(`os.sched_setaffinity`, restored afterwards), where each anneal is one
part on the calling thread, and on all the CPUs the process may use,
where the reads split into up to one part per CPU ("threads" is the
count the anneal used). The two must give identical spins. Where
`os.sched_setaffinity` is missing, the one-CPU run is skipped, and the
script says so.

When the C kernel is unavailable (no `cc`, or its build failed), it
prints that the comparison was skipped, with the reason, and exits 0; a
mismatch between the backends or the CPU counts still fails.

Usage: python3 benchmarks/bench_kernels.py [--reads N] [--sweeps N] [--sizes N ...]
"""

import argparse
import os
import time

import numpy as np

from embednoise import (AnnealSchedule, ChainLengthModel, NoiseModel, build_embedded_ising,
                        generate_random_qubo, qubo_to_ising, simulated_anneal, synth_chain_lengths,
                        synthetic_hardware_run)
from embednoise._kernels import get_kernel
from embednoise.sampler import _cpus


def cases(sizes, reads, schedule):
    """(label, model, anneal) triples, where anneal(backend) returns the row's SampleSet: the
    dense sizes and the path model with shared couplers, then the path model per read."""
    def shared(model):
        return lambda backend: simulated_anneal(model, reads, schedule, seed=7, backend=backend)
    for n in sizes:
        model = qubo_to_ising(generate_random_qubo(n, 0.5, seed=n))
        yield f"dense {n}", model, shared(model)
    q = generate_random_qubo(60, 1.0, seed=601)
    lengths = synth_chain_lengths(60, ChainLengthModel(slope=0.122), seed=601)
    model = build_embedded_ising(qubo_to_ising(q), lengths, 2.0).model
    yield "path L=60", model, shared(model)
    yield "per-read L=60", model, lambda backend: synthetic_hardware_run(
        q, lengths, 2.0, NoiseModel(0.06, 0.005), schedule, reads, seed=7, backend=backend)[0]


def on_one_cpu(fn, *args):
    """fn(*args) with this process pinned to one of its CPUs; its CPU set is restored after."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        return fn(*args)
    finally:
        os.sched_setaffinity(0, cpus)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--reads", type=int, default=500)
    parser.add_argument("--sweeps", type=int, default=128)
    parser.add_argument("--sizes", type=int, nargs="+", default=[20, 50, 100, 200])
    args = parser.parse_args()

    try:
        get_kernel("c")
    except RuntimeError as exc:
        print(f"skipped: only the python kernel runs, so there is nothing to compare ({exc})")
        return 0
    runs = [("python", "python"), ("c 1 cpu", "c"), ("c all", "c")]  # (column, backend)
    if not hasattr(os, "sched_setaffinity"):
        print("one-CPU run skipped: os.sched_setaffinity is unavailable")
        runs.remove(("c 1 cpu", "c"))

    schedule = AnnealSchedule(sweeps=args.sweeps)
    print(f"reads={args.reads} sweeps={args.sweeps} cpus={_cpus()}")
    print(f"{'model':>13} {'n':>5} {'mean deg':>8} " + " ".join(f"{r + ' (s)':>11}" for r, _ in runs)
          + " " + " ".join(f"{r + ' ns/upd':>15}" for r, _ in runs) + "  threads  identical")
    for label, model, anneal in cases(args.sizes, args.reads, schedule):
        results, times = {}, {}
        for run, backend in runs:
            t0 = time.perf_counter()
            results[run] = on_one_cpu(anneal, backend) if run == "c 1 cpu" else anneal(backend)
            times[run] = time.perf_counter() - t0
        for run, ss in results.items():
            if not np.array_equal(ss.spins, results["python"].spins):
                raise SystemExit(f"{run} spins differ from the python kernel's on {label}")
        updates = args.reads * args.sweeps * model.n
        print(f"{label:>13} {model.n:>5} {2 * len(model.jv) / model.n:>8.1f} "
              + " ".join(f"{t:>11.3f}" for t in times.values()) + " "
              + " ".join(f"{1e9 * t / updates:>15.1f}" for t in times.values())
              + f"  {results['c all'].metadata['threads']:>7}  True")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
