"""Compare the C and NumPy Metropolis kernels.

Runs the same seeded anneals through both backends, asserts bitwise
identical sample sets, and reports wall-clock timings and nanoseconds per
spin update (reads x sweeps x n). The dense rows are random QUBOs at
density 0.5. The sparse row is the embedded model of the benchmark's
`synthetic` workload: L=60 at density 1, path chains of length 8 from
the chain-length law (n=480), chain strength 2, every logical edge on
the two chain heads, so degrees run from 1 to 60.

When the C kernel is unavailable (no `cc`, or its build failed), it
prints that the comparison was skipped, with the reason, and exits 0; a
mismatch between the backends still fails.

Usage: python3 benchmarks/bench_kernels.py [--reads N] [--sweeps N] [--sizes N ...]
"""

import argparse
import time

import numpy as np

from embednoise import (AnnealSchedule, ChainLengthModel, build_embedded_ising,
                        generate_random_qubo, qubo_to_ising, simulated_anneal, synth_chain_lengths)
from embednoise._kernels import get_kernel


def cases(sizes):
    """(label, model) pairs: the dense sizes, then the sparse embedded model."""
    for n in sizes:
        yield f"dense {n}", qubo_to_ising(generate_random_qubo(n, 0.5, seed=n))
    logical = qubo_to_ising(generate_random_qubo(60, 1.0, seed=601))
    lengths = synth_chain_lengths(60, ChainLengthModel(slope=0.122), seed=601)
    yield "path L=60", build_embedded_ising(logical, lengths, 2.0).model


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

    schedule = AnnealSchedule(sweeps=args.sweeps)
    print(f"reads={args.reads} sweeps={args.sweeps}")
    print(f"{'model':>10} {'n':>5} {'mean deg':>8} {'python (s)':>11} {'c (s)':>8} "
          f"{'python ns/upd':>13} {'c ns/upd':>9} {'speedup':>8}  identical")
    for label, model in cases(args.sizes):
        results, times = {}, {}
        for backend in ("python", "c"):
            t0 = time.perf_counter()
            results[backend] = simulated_anneal(model, args.reads, schedule,
                                                seed=7, backend=backend)
            times[backend] = time.perf_counter() - t0
        same = np.array_equal(results["python"].spins, results["c"].spins)
        if not same:
            raise SystemExit(f"backend mismatch on {label}")
        ns = {b: 1e9 * t / (args.reads * args.sweeps * model.n) for b, t in times.items()}
        print(f"{label:>10} {model.n:>5} {2 * len(model.jv) / model.n:>8.1f} "
              f"{times['python']:>11.3f} {times['c']:>8.3f} {ns['python']:>13.1f} "
              f"{ns['c']:>9.1f} {times['python'] / times['c']:>7.1f}x  {same}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
