"""audit: constrained sampling and exact evaluation of admission SCMs.

Each pass draws canonical admission tables under the L3 constraint
(mu_ctf <= epsilon) and the L2 constraint (mu_int1 + mu_int2 <= epsilon)
with ``sample_constrained_scms``, then evaluates a seeded subset of the
accepted tables exactly with ``mu_ctf(exact=True)``, which also computes
both single-regime surrogates.

Gate: the exact mu_ctf, mu_int1 and mu_int2 of every evaluated table
equal the closed forms the sampler reports for it within 1e-12.
"""

from __future__ import annotations

import time

import numpy as np

from ctfrealize import (
    ActionSet,
    ctf_rand_action,
    ctf_realize,
    example2_scm,
    exact_l3_probability,
    mu_ctf,
    query,
    read_action,
    response,
    sample_constrained_scms,
    select,
)
from ctfrealize import fairness
from ctfrealize.errors import CtfRealizeError

from .harness import LayerStats, PassResult, Tracer, rng_for, seed_int

NAME = "audit"
EPSILON = 0.01
TOLERANCE = 1e-12
CONSTRAINTS = {"l3": fairness.L3_PENALTY, "l2": fairness.L2_PENALTY}
TABLES = {"full": 1000, "tiny": 100}        # accepted tables per constraint
EXACT = {"full": 200, "tiny": 10}           # exactly evaluated per constraint
MIN_PASSES = {"full": 3, "tiny": 1}
PROBED_TABLES = 100
BLOCK = 50_000
BLOCK_REPS = 3

# the probabilities mu_ctf and the surrogates are built from
EXACT_QUERIES = (
    query(response("Y", {"X": 1}, 1), response("Z", {"X": 1}, 0)),
    query(response("Y", {"X": 1}, 1), response("Z", {"X": 0}, 0)),
    query(response("Y", {"X": 0}, 1), response("Z", {"X": 0}, 0)),
    query(response("Y", {"X": 1}, 1)),
    query(response("Z", {"X": 1}, 0)),
    query(response("Z", {"X": 0}, 0)),
)

LAYER_METRICS = {
    "engine.exact_l3_us": "us",
    "engine.row_us": "us",
    "models.exogenous_support_us": "us",
    "fairness.to_model_us": "us",
    "fairness.mu_ctf_exact_us": "us",
    "fairness.batch_metrics_ms": "ms",
    "fairness.constrained_sample_ms.l3": "ms",
    "fairness.constrained_sample_ms.l2": "ms",
}


class Workload:
    name = NAME

    def __init__(self, seed: int, size: str = "full"):
        self.seed = seed
        self.min_passes = MIN_PASSES[size]
        self.n_tables = TABLES[size]
        self.n_exact = EXACT[size]
        self.attempted = 0
        self.failed = 0
        self.worst = 0.0
        self.counts: dict[str, int] = {}
        self.first_exact = []  # tables evaluated exactly in pass 0
        self.probe_tables = []

    def setup(self):
        """The auditor's preparation: the published admission model and
        the plan for the cross-regime joint that mu_ctf contrasts."""
        model = example2_scm().to_model()
        actions = ActionSet(
            [select(), read_action("X"), read_action("Y"), read_action("Z"),
             ctf_rand_action("X", ["Y"]), ctf_rand_action("X", ["Z"])],
            model.diagram,
        )
        plan = ctf_realize(
            query(response("Y", {"X": 1}), response("Z", {"X": 0})), model.diagram, actions
        )
        if not plan:
            raise RuntimeError(f"audit query is not realizable: {plan.describe()}")
        return model, plan

    def run_pass(self, state, index: int, tracer: Tracer | None) -> PassResult:
        clock = time.perf_counter_ns
        unit_s, latencies = [], []
        evaluated = []
        start = time.perf_counter()
        for label, constraint in CONSTRAINTS.items():
            t0 = clock()
            try:
                tables = sample_constrained_scms(
                    constraint, self.n_tables, EPSILON,
                    seed=seed_int(self.seed, NAME, label, index),
                )
            except CtfRealizeError:
                tables = []
            t1 = clock()
            if tracer is not None:
                tracer.record(f"fairness.constrained_sample.{label}", t0, t1)
            unit_s.append((t1 - t0) / 1e9)
            self.counts.setdefault(f"tables_accepted.{label}", len(tables))
            if len(tables) != self.n_tables:
                self.attempted += self.n_exact
                self.failed += self.n_exact
                unit_s.append(0.0)
                latencies += [float("nan")] * self.n_exact
                continue
            exact_start = clock()
            rng = rng_for(self.seed, NAME, "subset", label, index)
            for i in sorted(rng.choice(self.n_tables, size=self.n_exact, replace=False)):
                scm, closed = tables[int(i)]
                t0 = clock()
                exact = mu_ctf(scm, exact=True)
                t1 = clock()
                latencies.append((t1 - t0) / 1e3)
                if tracer is not None:
                    tracer.record("fairness.mu_ctf_exact", t0, t1)
                evaluated.append((scm, exact, closed))
            unit_s.append((clock() - exact_start) / 1e9)
        seconds = time.perf_counter() - start

        for scm, exact, closed in evaluated:
            gap = max(abs(exact.mu_ctf - closed.mu_ctf),
                      abs(exact.mu_int1 - closed.mu_int1),
                      abs(exact.mu_int2 - closed.mu_int2))
            self.worst = max(self.worst, gap)
            self.attempted += 1
            self.failed += int(not gap <= TOLERANCE)
        if index == 0:
            self.first_exact = [scm for scm, _, _ in evaluated]
        if tracer is not None and not self.probe_tables:
            self.probe_tables = [scm for scm, _, _ in evaluated[:PROBED_TABLES]]
        self.counts.setdefault("tables_exact", len(evaluated))
        return PassResult(len(evaluated), seconds, unit_s, latencies, [1.0] * len(latencies))

    def verdict(self) -> tuple[int, int, dict]:
        # exogenous rows the exact engine enumerates per table, pass 0
        self.counts["exogenous_rows"] = sum(
            sum(1 for _, p in scm.to_model().exogenous_support() if p > 0)
            for scm in self.first_exact
        )
        return self.attempted, self.failed, {"worst_gap": self.worst}

    # -- per-layer decomposition (traced runs only) ------------------------

    def probe(self, state, tracer: Tracer) -> None:
        """mu_ctf taken apart on the traced tables: model build, support
        enumeration, and each exact probability it needs; plus one
        Dirichlet block through the vectorized closed forms."""
        self.row_terms = 0
        with tracer.span("probe.audit"):
            for scm in self.probe_tables:
                model = tracer.timed("fairness.to_model", scm.to_model)
                support = tracer.timed("models.exogenous_support", model.exogenous_support)
                rows = sum(1 for _, p in support if p > 0)
                for q in EXACT_QUERIES:
                    tracer.timed("engine.exact_l3", exact_l3_probability, model, q)
                    self.row_terms += rows * len(q.terms)
            block = rng_for(self.seed, NAME, "block").dirichlet(np.ones(16), size=BLOCK)
            for _ in range(BLOCK_REPS):
                tracer.timed("fairness.batch_metrics", fairness.batch_metrics, block)

    def layer_metrics(self, tracer: Tracer) -> dict[str, float]:
        stats = LayerStats(tracer)
        return {
            "engine.exact_l3_us": stats.mean_us("engine.exact_l3"),
            "engine.row_us": stats.self_ns("engine.exact_l3") / 1e3 / self.row_terms,
            "models.exogenous_support_us": stats.mean_us("models.exogenous_support"),
            "fairness.to_model_us": stats.mean_us("fairness.to_model"),
            "fairness.mu_ctf_exact_us": stats.mean_us("fairness.mu_ctf_exact"),
            "fairness.batch_metrics_ms": stats.mean_us("fairness.batch_metrics") / 1e3,
            "fairness.constrained_sample_ms.l3":
                stats.mean_us("fairness.constrained_sample.l3") / 1e3,
            "fairness.constrained_sample_ms.l2":
                stats.mean_us("fairness.constrained_sample.l2") / 1e3,
        }
