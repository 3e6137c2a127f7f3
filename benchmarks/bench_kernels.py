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

When the C kernel is unavailable (no `cc`, or its build failed), it
prints that the comparison was skipped, with the reason, and exits 0; a
mismatch between the backends still fails.

Usage: python3 benchmarks/bench_kernels.py [--reads N] [--sweeps N] [--sizes N ...]
"""

import argparse
import time

import numpy as np

from embednoise import (AnnealSchedule, ChainLengthModel, NoiseModel, build_embedded_ising,
                        generate_random_qubo, qubo_to_ising, simulated_anneal, synth_chain_lengths,
                        synthetic_hardware_run)
from embednoise._kernels import get_kernel


def cases(sizes, reads, schedule):
    """(label, model, anneal) triples, where anneal(backend) returns the row's spins: the
    dense sizes and the path model with shared couplers, then the path model per read."""
    def shared(model):
        return lambda backend: simulated_anneal(model, reads, schedule, seed=7,
                                                backend=backend).spins
    for n in sizes:
        model = qubo_to_ising(generate_random_qubo(n, 0.5, seed=n))
        yield f"dense {n}", model, shared(model)
    q = generate_random_qubo(60, 1.0, seed=601)
    lengths = synth_chain_lengths(60, ChainLengthModel(slope=0.122), seed=601)
    model = build_embedded_ising(qubo_to_ising(q), lengths, 2.0).model
    yield "path L=60", model, shared(model)
    yield "per-read L=60", model, lambda backend: synthetic_hardware_run(
        q, lengths, 2.0, NoiseModel(0.06, 0.005), schedule, reads, seed=7, backend=backend)[0].spins


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
    print(f"{'model':>13} {'n':>5} {'mean deg':>8} {'python (s)':>11} {'c (s)':>8} "
          f"{'python ns/upd':>13} {'c ns/upd':>9} {'speedup':>8}  identical")
    for label, model, anneal in cases(args.sizes, args.reads, schedule):
        results, times = {}, {}
        for backend in ("python", "c"):
            t0 = time.perf_counter()
            results[backend] = anneal(backend)
            times[backend] = time.perf_counter() - t0
        same = np.array_equal(results["python"], results["c"])
        if not same:
            raise SystemExit(f"backend mismatch on {label}")
        ns = {b: 1e9 * t / (args.reads * args.sweeps * model.n) for b, t in times.items()}
        print(f"{label:>13} {model.n:>5} {2 * len(model.jv) / model.n:>8.1f} "
              f"{times['python']:>11.3f} {times['c']:>8.3f} {ns['python']:>13.1f} "
              f"{ns['c']:>9.1f} {times['python'] / times['c']:>7.1f}x  {same}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
