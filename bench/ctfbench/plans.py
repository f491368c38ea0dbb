"""plans: executing realization plans on simulated units.

Inputs: the seven fixture plans of the sampling-fidelity criterion, each
decided once under the maximal action set and then run by
``draw_plan_batch``, plus ``sample_observational`` and
``sample_interventional`` on the estimator-unbiasedness models. Every
call draws from its own sub-seed of (workload seed, fixture, pass).

Gate: the samples of every distribution, pooled over the run's passes,
lie within total-variation distance 0.02 of the exact distribution.
Per-pass sample counts are sized so that the minimum number of passes
puts 0.02 at least six standard deviations above the expected distance.
"""

from __future__ import annotations

import time

from ctfrealize import (
    Experiment,
    ctf_realize,
    draw_plan_batch,
    exact_distribution,
    interventional_distribution,
    maximal_action_set,
    parse_query,
    query,
    response,
    sample_interventional,
    sample_observational,
)
from ctfrealize.errors import CtfRealizeError
from ctfrealize.fixtures import builtin_model

from .harness import LayerStats, PassResult, Tracer, seed_seq

NAME = "plans"
TV_LIMIT = 0.02

# (fixture, query, samples per pass)
PLANS = (
    ("bow", "P(Y[X=1], X)", 1600),
    ("chain", "P(Y[X=0], X)", 1750),
    ("hub_split", "P(Z[X=0], W[T=0])", 1200),
    ("fan", "P(Y[X=1], Z[X=0], W[X=1])", 2100),
    ("collider_hub", "P(W[X=1,T=0])", 750),
    ("bandit_example", "P(Y[X=0], X, D[X=1])", 2500),
    ("admissions", "P(Y[X=1], Z[X=0])", 1900),
)
# (fixture, samples per pass): every variable read naturally
OBSERVATIONAL = (("bow", 3000), ("hub_split", 3000), ("fan", 3000))
# (fixture, do, outcome, samples per pass)
INTERVENTIONAL = (
    ("bow", {"X": 1}, ("Y",), 1500),
    ("fan", {"X": 0}, ("Y", "Z", "W"), 2500),
)
MIN_PASSES = {"full": 8, "tiny": 1}
SCALE = {"full": 1, "tiny": 10}  # tiny divides every sample count
NEW_UNIT_DRAWS = 2000
EXACT_REPS = 5

LAYER_METRICS = {
    "simulate.unit_us": "us",
    "simulate.new_unit_us": "us",
    **{f"simulate.sample_us.{name}": "us" for name, _, _ in PLANS},
    "simulate.interventional_sample_us": "us",
    "simulate.observational_sample_us": "us",
    **{f"simulate.accept_ratio.{name}": "ratio" for name, _, _ in PLANS},
    **{f"engine.exact_distribution_us.{name}": "us" for name, _, _ in PLANS},
}


class Workload:
    name = NAME

    def __init__(self, seed: int, size: str = "full"):
        self.seed = seed
        self.min_passes = MIN_PASSES[size]
        scale = SCALE[size]
        self.n_plan = {name: max(n // scale, 1) for name, _, n in PLANS}
        self.n_obs = {name: max(n // scale, 1) for name, n in OBSERVATIONAL}
        self.n_int = {name: max(n // scale, 1) for name, _, _, n in INTERVENTIONAL}
        full_n = {
            **{f"plan.{name}": n for name, _, n in PLANS},
            **{f"obs.{name}": n for name, n in OBSERVATIONAL},
            **{f"int.{name}": n for name, _, _, n in INTERVENTIONAL},
        }
        self.floor = {k: MIN_PASSES["full"] * n for k, n in full_n.items()}
        self.exact: dict[str, dict[tuple, float]] = {}
        for name, text, _ in PLANS:
            model = builtin_model(name)
            q = parse_query(text, model.diagram)
            self.exact[f"plan.{name}"] = exact_distribution(model, q).as_dict()
        for name, _ in OBSERVATIONAL:
            model = builtin_model(name)
            q = query(*[response(v) for v in model.diagram.variables])
            self.exact[f"obs.{name}"] = exact_distribution(model, q).as_dict()
        for name, do, outcome, _ in INTERVENTIONAL:
            model = builtin_model(name)
            self.exact[f"int.{name}"] = interventional_distribution(
                model, outcome, do
            ).as_dict()
        self.pooled: dict[str, dict[tuple, int]] = {k: {} for k in self.exact}
        self.errors: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.traced = {"samples": {}, "units": {}}

    # -- the program's own preparation ------------------------------------

    def setup(self):
        plans = {}
        for name, text, _ in PLANS:
            model = builtin_model(name)
            q = parse_query(text, model.diagram)
            plan = ctf_realize(q, model.diagram, maximal_action_set(model.diagram))
            if not plan:
                raise RuntimeError(f"{name}: {text} is not realizable: {plan.describe()}")
            plans[name] = (model, plan)
        models = {name: builtin_model(name) for name, _ in OBSERVATIONAL}
        for name, *_ in INTERVENTIONAL:
            models.setdefault(name, builtin_model(name))
        return plans, models

    # -- one timed pass ----------------------------------------------------

    def _pool(self, key: str, batch) -> None:
        table = self.pooled[key]
        for row in batch.rows:
            table[row] = table.get(row, 0) + 1

    def _calls(self, state, index: int):
        """(pool key, span name, n, function, args, kwargs) of every call
        in a pass, each with its own sub-seed."""
        plans, models = state
        for name, (model, plan) in plans.items():
            n = self.n_plan[name]
            yield (f"plan.{name}", f"simulate.draw_plan_batch.{name}", n, draw_plan_batch,
                   (plan, model, n), {"seed": seed_seq(self.seed, NAME, name, index)})
        for name, _ in OBSERVATIONAL:
            n = self.n_obs[name]
            yield (f"obs.{name}", "simulate.sample_observational", n, sample_observational,
                   (models[name], n), {"seed": seed_seq(self.seed, NAME, "obs", name, index)})
        for name, do, outcome, _ in INTERVENTIONAL:
            n = self.n_int[name]
            yield (f"int.{name}", "simulate.sample_interventional", n, sample_interventional,
                   (models[name], do, n),
                   {"seed": seed_seq(self.seed, NAME, "int", name, index), "outcome": outcome})

    def run_pass(self, state, index: int, tracer: Tracer | None) -> PassResult:
        clock = time.perf_counter_ns
        calls = []  # (pool key, span name, n, batch or None, t0, t1)
        start = time.perf_counter()
        for key, span, n, fn, args, kwargs in self._calls(state, index):
            t0 = clock()
            try:
                batch = fn(*args, **kwargs)
            except CtfRealizeError:
                batch = None
            calls.append((key, span, n, batch, t0, clock()))
        seconds = time.perf_counter() - start

        samples = units = 0
        unit_s, latencies, weights = [], [], []
        for key, span, n, batch, t0, t1 in calls:
            if tracer is not None:
                tracer.record(span, t0, t1)
            unit_s.append((t1 - t0) / 1e9)
            weights.append(n)
            if batch is None or len(batch) != n:
                self.errors[key] = self.errors.get(key, 0) + n
                latencies.append(float("nan"))
                continue
            self._pool(key, batch)
            drawn = len(batch) + batch.rejected_units
            samples += len(batch)
            units += drawn
            latencies.append((t1 - t0) / 1e3 / n)
            self.counts.setdefault(f"units_drawn.{key}", drawn)
            self.counts.setdefault(f"rejections.{key}", batch.rejected_units)
            if tracer is not None:
                for what, v in (("samples", len(batch)), ("units", drawn)):
                    self.traced[what][key] = self.traced[what].get(key, 0) + v
        self.counts.setdefault("samples", samples)
        self.counts.setdefault("units_drawn", units)
        return PassResult(samples, seconds, unit_s, latencies, weights)

    def verdict(self) -> tuple[int, int, dict]:
        """TV gate per pooled distribution; a distribution that misses it
        counts all its samples as failed. Below the pooled size the
        minimum pass count guarantees (tiny self-test runs only) the
        distance is reported but not gated."""
        attempted = failed = 0
        report = {}
        for key, exact in self.exact.items():
            table = self.pooled[key]
            n = sum(table.values())
            err = self.errors.get(key, 0)
            attempted += n + err
            failed += err
            if n == 0:
                continue
            cells = set(exact) | set(table)
            tv = 0.5 * sum(abs(exact.get(c, 0.0) - table.get(c, 0) / n) for c in cells)
            gated = n >= self.floor[key]
            report[key] = {"n": n, "tv": tv, "gated": gated}
            if gated and not tv < TV_LIMIT:
                failed += n
        return attempted, failed, report

    # -- per-layer decomposition (traced runs only) ------------------------

    def probe(self, state, tracer: Tracer) -> None:
        plans, _ = state
        with tracer.span("probe.plans"):
            for name, (model, plan) in plans.items():
                for _ in range(EXACT_REPS):
                    tracer.timed(f"engine.exact_distribution.{name}",
                                 exact_distribution, model, plan.query)
                experiment = Experiment(model, seed=seed_seq(self.seed, NAME, "units", name))
                for _ in range(NEW_UNIT_DRAWS // len(plans)):
                    tracer.timed("simulate.new_unit", experiment.new_unit)

    def layer_metrics(self, tracer: Tracer) -> dict[str, float]:
        stats = LayerStats(tracer)
        samples, units = self.traced["samples"], self.traced["units"]
        values = {}
        batch_ns = 0
        for name, _, _ in PLANS:
            key = f"plan.{name}"
            span_ns = stats.self_ns(f"simulate.draw_plan_batch.{name}")
            batch_ns += span_ns
            values[f"simulate.sample_us.{name}"] = span_ns / 1e3 / samples[key]
            values[f"simulate.accept_ratio.{name}"] = samples[key] / units[key]
            values[f"engine.exact_distribution_us.{name}"] = stats.mean_us(
                f"engine.exact_distribution.{name}"
            )
        plan_units = sum(units[f"plan.{name}"] for name, _, _ in PLANS)
        values["simulate.unit_us"] = batch_ns / 1e3 / plan_units
        values["simulate.new_unit_us"] = stats.mean_us("simulate.new_unit")
        for kind, span in (("int", "simulate.sample_interventional"),
                           ("obs", "simulate.sample_observational")):
            n = sum(v for k, v in samples.items() if k.startswith(kind + "."))
            label = "interventional" if kind == "int" else "observational"
            values[f"simulate.{label}_sample_us"] = stats.self_ns(span) / 1e3 / n
        return values
