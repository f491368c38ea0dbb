#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload decide --seed 1 --seconds 25 --trace 0

Run from the root of a checkout: the package is imported from ``src/``.
With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics instead, and the spans are written to ``bench/out/``. The line
before it carries the run's environment, exact counts and gate details.
``--size tiny`` shrinks every input for the self-test.
"""

import argparse
import contextlib
import importlib
import json
import math
import os
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

from ctfbench import BLAS_ENV, WORKLOADS  # noqa: E402

for _var in BLAS_ENV:  # before numpy is first imported
    os.environ[_var] = "1"

from ctfbench.harness import (  # noqa: E402
    REFERENCE_NOMINAL_S, LayerStats, PassLog, Tracer, environment, peak_rss_mb,
    reference_s,
)

SETUPS_PER_PASS = 3  # set-ups timed before each pass; setup_s is their median

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_us": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    return p.parse_args(argv)


def per_layer_units(modules) -> dict[str, str]:
    units = {"trace.overhead_pct": "%"}
    for mod in modules.values():
        units.update(mod.LAYER_METRICS)
    return units


def measure(wl, seconds: float, tracer):
    """Timed passes until ``seconds`` have passed and the workload's
    minimum pass count is reached; with a tracer, every second pass is
    traced and the others give the untraced baseline.

    Each pass runs on the last of a few fresh, timed set-ups, so set-up
    times are sampled across the whole run. The reference kernel is
    timed between passes; a pass and its set-ups are calibrated by the
    faster of the two reference times around them, so a slow phase of
    the machine that spans the pass does not read as a slow program."""
    setups: list[float] = []
    raw, plain, traced = PassLog(), PassLog(), PassLog()
    need = max(wl.min_passes, 2 if tracer else 1)
    deadline = time.perf_counter() + seconds
    index = 0
    ref_before = reference_s()
    references = [ref_before]
    while index < need or time.perf_counter() < deadline:
        pass_setups = []
        for _ in range(SETUPS_PER_PASS):
            t0 = time.perf_counter()
            state = wl.setup()
            pass_setups.append(time.perf_counter() - t0)
        active = tracer if tracer is not None and index % 2 == 1 else None
        scope = active.span(f"pass.{wl.name}") if active else contextlib.nullcontext()
        with scope:
            result = wl.run_pass(state, index, active)
        ref_after = reference_s()
        references.append(ref_after)
        scale = REFERENCE_NOMINAL_S / min(ref_before, ref_after)
        ref_before = ref_after
        setups += [t * scale for t in pass_setups]
        (traced if active else plain).add(result, scale)
        if not active:
            raw.add(result)
        index += 1
    return setups, raw, plain, traced, references, state


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ctfrealize" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC / 'ctfrealize'}; run from the "
              "root of a ctfrealize checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import ctfrealize  # noqa: F401
    import_s = time.perf_counter() - t0

    modules = {name: importlib.import_module(f"ctfbench.{name}") for name in WORKLOADS}
    wl = modules[args.workload].Workload(args.seed, args.size)
    tracer = Tracer() if args.trace else None
    setups, raw, plain, traced, references, state = measure(wl, args.seconds, tracer)
    attempted, failed, gates = wl.verdict()

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "size": args.size,
        "passes": len(plain.pass_rates) + len(traced.pass_rates),
        "untraced_pass_ops_per_s": plain.pass_rates,
        "uncalibrated": {"ops_per_s": raw.ops_per_s(), "op_p50_us": raw.p50_us()},
        "reference_s": references,
        "setup_runs_s": setups,
        "import_s": import_s,
        "counts": wl.counts,
        "gates": gates,
        "env": environment(ROOT, SRC),
    }
    if tracer is None:
        values = {
            "ops_per_s": plain.ops_per_s(),
            "op_p50_us": plain.p50_us(),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb(),
        }
        units = END_TO_END
    else:
        wl.probe(state, tracer)
        values = wl.layer_metrics(tracer)
        probes = {}
        for name, mod in modules.items():
            if name == args.workload:
                continue
            # the other workloads at tiny size, so every layer metric is reported
            other, t = mod.Workload(args.seed, "tiny"), Tracer()
            other_state = other.setup()
            with t.span(f"pass.{name}"):
                other.run_pass(other_state, 0, t)
            other.probe(other_state, t)
            for k, v in other.layer_metrics(t).items():
                values.setdefault(k, v)
            probes[name] = LayerStats(t).per_layer_self_ms()
        values["trace.overhead_pct"] = (plain.ops_per_s() / traced.ops_per_s() - 1.0) * 100.0
        units = per_layer_units(modules)
        spans = BENCH / "out" / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        tracer.write(spans)
        info["layer_self_ms"] = LayerStats(tracer).per_layer_self_ms()
        info["probe_layer_self_ms"] = probes
        info["traced_pass_ops_per_s"] = traced.pass_rates
        info["spans_file"] = str(spans.relative_to(ROOT))

    missing = sorted(set(units) - set(values))
    bad = sorted(k for k in units if k in values and not math.isfinite(values[k]))
    if missing or bad:
        print(f"error: metrics missing {missing} or not finite {bad}", file=sys.stderr)
        return 1
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(values[k]), "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
