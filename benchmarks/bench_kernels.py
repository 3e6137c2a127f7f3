"""Compare the C and NumPy Metropolis kernels.

Runs the same seeded anneals through both backends, asserts bitwise
identical sample sets, and reports wall-clock timings. When the C kernel
is unavailable (no `cc`, or its build failed), it prints that the
comparison was skipped, with the reason, and exits 0; a mismatch between
the backends still fails.

Usage: python3 benchmarks/bench_kernels.py [--reads N] [--sweeps N]
"""

import argparse
import time

import numpy as np

from embednoise import AnnealSchedule, generate_random_qubo, qubo_to_ising, simulated_anneal
from embednoise._kernels import get_kernel


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
    print(f"{'n':>6} {'python (s)':>12} {'c (s)':>12} {'speedup':>9}  identical")
    for n in args.sizes:
        model = qubo_to_ising(generate_random_qubo(n, 0.5, seed=n))
        results = {}
        times = {}
        for backend in ("python", "c"):
            t0 = time.perf_counter()
            results[backend] = simulated_anneal(model, args.reads, schedule,
                                                seed=7, backend=backend)
            times[backend] = time.perf_counter() - t0
        same = np.array_equal(results["python"].spins, results["c"].spins)
        if not same:
            raise SystemExit(f"backend mismatch at n={n}")
        print(f"{n:>6} {times['python']:>12.3f} {times['c']:>12.3f} "
              f"{times['python'] / times['c']:>8.1f}x  {same}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
