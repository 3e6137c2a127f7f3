"""Which program functions the traced run wraps, and the per-layer metrics.

A layer is a module of the package. Each function is wrapped where the
calling module binds it (`sampler.build_embedded_ising`,
`cli.margin_model_run`, ...), and `run_metropolis` on the kernel module
that `_kernels.get_kernel()` returns. The topology module is on no hot
path and is not wrapped.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

import numpy as np

from tracer import ROOT_PREFIX, Tracer

LAYERS = ("kernels", "sampler", "embedding", "problem", "noise", "rng",
          "fitting", "analytics", "cli")

KERNEL = "kernels.run_metropolis"
BRUTE = "sampler.brute_force"
ANNEAL = "sampler.simulated_anneal"
SYNTH = "sampler.synthetic_hardware_run"
MARGIN = "sampler.margin_model_run"
CHAIN_ERR = "noise.chain_error_sample"
SUBSTREAM = "rng.substream"
BUILD = "embedding.build_embedded_ising"
GENERATE = "problem.generate_random_qubo"
FIT = "fitting.fit_noise_params"
CLOSED_FORMS = ("analytics.cbf_predict", "analytics.critical_chain_strength")
CLI = {"cli.cbf_curve_s": "cli.cbf_curve", "cli.fit_s": "cli.fit",
       "cli.kstar_empirical_s": "cli.kstar", "cli.heatmap_s": "cli.heatmap"}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_kernel(c, args, kwargs):
    spins = _arg(args, kwargs, 0, "spins")
    nbr_val = np.asarray(_arg(args, kwargs, 3, "nbr_val"))
    betas = _arg(args, kwargs, 5, "betas")
    updates = spins.shape[0] * spins.shape[1] * len(betas)
    table = nbr_val[0]  # one read's neighbour values; padding slots hold 0.0
    c["spin_updates"] += updates
    c["useful_slot_updates"] += updates * np.count_nonzero(table) / table.size


def _count_normals(c, args, kwargs):
    ell, nm = _arg(args, kwargs, 0, "ell"), _arg(args, kwargs, 1, "nm")
    size = args[3] if len(args) > 3 else kwargs.get("size")
    c["normals"] += (size or 1) * (2 * int(ell) - 1 + (nm.corr_strength > 0))


def make_tracer(en) -> Tracer:
    sampler, cli, problem = en.sampler, en.cli, en.problem
    fitting = en.fitting

    def count_grid(c, args, kwargs):
        grid = args[1] if len(args) > 1 else kwargs.get("grid")
        axes = (grid or fitting.FitGrid()).axes()
        c["grid_triples"] += int(np.prod([len(a) for a in axes]))

    t = Tracer()
    t.add(en._kernels.get_kernel(), "run_metropolis", KERNEL, _count_kernel)
    t.add(sampler, "brute_force", BRUTE)
    t.add(sampler, "simulated_anneal", ANNEAL)
    t.add(sampler, "synthetic_hardware_run", SYNTH)
    t.add(sampler, "build_embedded_ising", BUILD)
    t.add(sampler, "chain_error_sample", CHAIN_ERR, _count_normals)
    t.add(cli, "margin_model_run", MARGIN)
    for module in (sampler, cli):
        t.add(module, "synth_chain_lengths", "embedding.synth_chain_lengths")
    for module in (sampler, problem):
        t.add(module, "qubo_to_ising", "problem.qubo_to_ising")
    t.add(problem, "generate_random_qubo", GENERATE)
    for module in (sampler, cli, problem, en.embedding):
        t.add(module, "substream", SUBSTREAM)
    t.add(cli, "fit_noise_params", FIT, count_grid)
    t.add(cli, "cbf_predict", CLOSED_FORMS[0])
    t.add(cli, "critical_chain_strength", CLOSED_FORMS[1])
    t.add(cli, "power_law_fit", "analytics.power_law_fit")
    t.add(cli, "main", "cli.main")
    for attr, span in (("cmd_cbf_curve", "cli.cbf_curve"), ("cmd_fit", "cli.fit"),
                       ("cmd_kstar", "cli.kstar"), ("cmd_heatmap", "cli.heatmap")):
        t.add(cli, attr, span)
    return t


def _ratio(a, b):
    return a / b if b else 0.0


# metric -> (unit, spans it needs wrapped, value from (total, self, calls, counters))
METRICS = {
    "kernels.sweep_s": ("s", [KERNEL], lambda T, S, N, C: T[KERNEL]),
    "kernels.spin_updates": ("count", [KERNEL], lambda T, S, N, C: C["spin_updates"]),
    "kernels.ns_per_spin_update": ("ns", [KERNEL],
                                   lambda T, S, N, C: 1e9 * _ratio(T[KERNEL], C["spin_updates"])),
    "kernels.useful_slot_frac": ("ratio", [KERNEL], lambda T, S, N, C: _ratio(
        C["useful_slot_updates"], C["spin_updates"])),
    "sampler.brute_force_s": ("s", [BRUTE], lambda T, S, N, C: T[BRUTE]),
    "sampler.anneal_s": ("s", [ANNEAL], lambda T, S, N, C: T[ANNEAL]),
    "sampler.anneal_self_s": ("s", [ANNEAL], lambda T, S, N, C: S[ANNEAL]),
    "sampler.ground_state_share": ("ratio", [], lambda T, S, N, C: C["ground_state_share"]),
    "sampler.tts99_s": ("s", [], lambda T, S, N, C: C["tts99_s"]),
    "sampler.synthetic_s": ("s", [SYNTH], lambda T, S, N, C: T[SYNTH]),
    "sampler.synthetic_self_s": ("s", [SYNTH], lambda T, S, N, C: S[SYNTH]),
    "embedding.build_s": ("s", [BUILD], lambda T, S, N, C: T[BUILD]),
    "problem.generate_s": ("s", [GENERATE], lambda T, S, N, C: C["generate_s"]),
    "sampler.margin_s": ("s", [MARGIN], lambda T, S, N, C: T[MARGIN]),
    "sampler.margin_calls": ("count", [MARGIN], lambda T, S, N, C: N[MARGIN]),
    "noise.chain_error_sample_s": ("s", [CHAIN_ERR], lambda T, S, N, C: T[CHAIN_ERR]),
    "noise.chain_error_sample_calls": ("count", [CHAIN_ERR], lambda T, S, N, C: N[CHAIN_ERR]),
    "noise.normals_drawn": ("count", [CHAIN_ERR], lambda T, S, N, C: C["normals"]),
    "rng.substream_calls": ("count", [SUBSTREAM], lambda T, S, N, C: N[SUBSTREAM]),
    "fitting.fit_s": ("s", [FIT], lambda T, S, N, C: T[FIT]),
    "fitting.grid_triples": ("count", [FIT], lambda T, S, N, C: C["grid_triples"]),
    "analytics.closed_form_s": ("s", list(CLOSED_FORMS),
                                lambda T, S, N, C: sum(T[s] for s in CLOSED_FORMS)),
    **{metric: ("s", [span], lambda T, S, N, C, span=span: T[span]) for metric, span in CLI.items()},
    **{f"{layer}.self_s": ("s", [layer + "."], lambda T, S, N, C, layer=layer: sum(
        v for k, v in S.items() if k.startswith(layer + "."))) for layer in LAYERS},
    "trace.wall_s": ("s", [], lambda T, S, N, C: C["traced_wall_s"]),
    "trace.uncovered_s": ("s", [], lambda T, S, N, C: S[ROOT_PREFIX + "batch"]),
    "trace.overhead_s": ("s", [], lambda T, S, N, C: C["overhead_s"]),
    "trace.spans": ("count", [], lambda T, S, N, C: C["spans"]),
}
COUNTER_SPANS = {KERNEL: ("kernels.spin_updates", "kernels.ns_per_spin_update",
                          "kernels.useful_slot_frac"),
                 CHAIN_ERR: ("noise.normals_drawn",), FIT: ("fitting.grid_triples",)}


def per_layer(tracer: Tracer, workload, traced, untraced, setup_root):
    """Per-batch means over the traced batches; returns (metrics, missing names).

    `traced` holds (index, outputs, wall, root span, counters) and
    `untraced` (index, outputs, wall). Means rather than medians so that
    the layers' self times and the uncovered remainder add up to
    trace.wall_s exactly.
    """
    n = len(traced)
    T, S, N, C = (defaultdict(float) for _ in range(4))
    for _, out, _, root, counts in traced:
        extra = workload.layer_extras(out)
        summary = tracer.summarize(root)
        for acc, part in ((T, "total"), (S, "self"), (N, "calls")):
            for name, v in summary[part].items():
                acc[name] += v
        for name, v in list(counts.items()) + list(extra.items()):
            C[name] += v
    for acc in (T, S, N, C):
        for name in acc:
            acc[name] /= n
    C["tts99_s"] = workload.tts99(untraced)
    C["generate_s"] = tracer.summarize(setup_root)["total"].get(GENERATE, 0.0)
    C["traced_wall_s"] = sum(b[2] for b in traced) / n
    # batches alternate untraced, traced: pairs cancel most of the machine's drift
    C["overhead_s"] = statistics.median(t[2] - u[2] for u, t in zip(untraced, traced))
    C["spans"] = sum(N.values())

    wrapped = tracer.wrapped_names()
    failed_counters = {m for span in tracer.count_errors for m in COUNTER_SPANS.get(span, ())}
    metrics, missing = {}, []
    for name, (unit, needs, value) in METRICS.items():
        have = all(any(w == s or (s.endswith(".") and w.startswith(s)) for w in wrapped)
                   for s in needs)
        if not have or name in failed_counters:
            missing.append(name)
            continue
        metrics[name] = {"value": float(value(T, S, N, C)), "unit": unit}
    return metrics, missing
