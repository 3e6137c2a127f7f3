"""Self-test of the benchmark harness on tiny inputs (about 20 s).

    python3 perfbench/selftest.py

Runs every workload in smoke mode with --trace 0 and --trace 1 and
asserts that the last line carries every metric BENCHMARK.json names,
with its unit, that the trace holds spans for every layer the workload
exercises, and that a wrapper with nothing to wrap reports the metric
missing instead of crashing. Exits 1 on the first failed assertion.
"""

from __future__ import annotations

import json
import subprocess
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# span name prefixes each workload must produce in its traced run
EXPECTED_SPANS = {
    "parity": ["bench.setup", "bench.batch", "problem.generate_random_qubo",
               "sampler.brute_force", "sampler.simulated_anneal", "kernels.run_metropolis",
               "rng.substream"],
    "synthetic": ["bench.setup", "bench.batch", "problem.generate_random_qubo",
                  "sampler.synthetic_hardware_run", "embedding.build_embedded_ising",
                  "embedding.synth_chain_lengths", "problem.qubo_to_ising",
                  "kernels.run_metropolis", "rng.substream"],
    "calibrate": ["bench.batch", "cli.main", "cli.cbf_curve", "cli.fit", "cli.kstar",
                  "cli.heatmap", "sampler.margin_model_run", "noise.chain_error_sample",
                  "rng.substream", "fitting.fit_noise_params", "analytics.cbf_predict",
                  "analytics.power_law_fit", "embedding.synth_chain_lengths"],
}


def check(ok, what):
    if not ok:
        print(f"FAIL {what}")
        raise SystemExit(1)
    print(f"ok   {what}")


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    check(proc.returncode == 0, f"{workload} trace={trace} exits 0 ({proc.stderr.strip()[-300:]})")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def missing_wrapper_is_reported():
    sys.path.insert(0, str(HERE))
    from tracer import Tracer

    t = Tracer()
    module = types.ModuleType("fake")
    check(t.add(module, "absent", "fake.absent") is False and t.missing == ["fake.absent"],
          "a wrapper with nothing to wrap is recorded as missing")
    module.present = lambda x: x + 1
    t.add(module, "present", "fake.present", count=lambda c, a, k: c.__setitem__("bad", a[5]))
    t.install()
    _, root = t.call_root("batch", lambda: module.present(1))
    t.uninstall()
    summary = t.summarize(root)
    check(summary["calls"].get("fake.present") == 1 and "fake.present" in t.count_errors,
          "a counter that cannot read its arguments is recorded, and the call still runs")

    # a program without sampler.brute_force: its metric is reported missing
    sys.path.insert(0, str(ROOT / "src"))
    import embednoise
    import embednoise.cli  # noqa: F401  (not imported by the package)
    import layers

    sampler = types.ModuleType("embednoise.sampler")
    sampler.__dict__.update({k: v for k, v in vars(embednoise.sampler).items()
                             if k != "brute_force"})
    en = types.SimpleNamespace(**{k: getattr(embednoise, k) for k in (
        "_kernels", "cli", "problem", "fitting", "embedding")}, sampler=sampler)
    t = layers.make_tracer(en)
    _, setup_root = t.call_root("setup", lambda: None)
    _, root = t.call_root("batch", lambda: None)
    workload = types.SimpleNamespace(layer_extras=lambda out: {}, tts99=lambda runs: 0.0)
    metrics, missing = layers.per_layer(t, workload, [(1, None, 0.1, root, {})],
                                        [(0, None, 0.1)], setup_root)
    check(t.missing == ["embednoise.sampler.brute_force"]
          and missing == ["sampler.brute_force_s"] and "sampler.anneal_s" in metrics,
          "a metric whose function is absent is reported missing, the rest are reported")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    missing_wrapper_is_reported()
    for w in spec["workloads"]:
        name = w["name"]
        for trace, want in ((0, e2e), (1, layer)):
            result = run(name, trace)
            check(set(result) == {"correct", "attempted", "failed", "metrics"}
                  and result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{name} trace={trace}: result keys, all checks pass")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, f"{name} trace={trace}: every named metric with its unit")
        spans = json.loads((ROOT / ".perfbench" / f"trace-{name}-seed3.json").read_text())["spans"]
        names = {s["name"] for s in spans}
        absent = [s for s in EXPECTED_SPANS[name] if s not in names]
        check(not absent, f"{name}: trace has spans for every wrapped layer (absent: {absent})")
        check(all(s["end"] >= s["start"] and -1 <= s["parent"] < len(spans) for s in spans),
              f"{name}: spans have name, start <= end and a parent")
    return 0


if __name__ == "__main__":
    sys.exit(main())
