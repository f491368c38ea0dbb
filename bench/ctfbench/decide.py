"""decide: the realizability decision procedure on four-node graphs.

Inputs: a stratified seeded sample of the four-node mixed-graph classes
with the maximal action set. Every single term, a seeded set of pairs
and a seeded set of triples over the sweep's 76 terms goes through
``RealizabilityChecker.realize``, one checker per graph, built fresh for
every pass so the per-term cache starts cold as in a real sweep.

Gate: each verdict equals the criterion's pair rule (a pair is
realizable iff the two terms' counterfactual ancestors never need one
variable under two regimes; a triple iff all its pairs are; a single
term always).
"""

from __future__ import annotations

import time
import warnings

import numpy as np

from ctfrealize import (
    CausalDiagram,
    CtfQuery,
    PotentialResponse,
    RealizabilityChecker,
    RegimeEntry,
    counterfactual_ancestors,
    maximal_action_set,
    realizable_by_criterion,
)

from . import graphgen
from .harness import LayerStats, PassResult, Tracer, rng_for

NAME = "decide"
GRAPHS = {"full": 64, "tiny": 2}
PAIRS_PER_GRAPH = 300  # of the 2,850 pairs of 76 terms
TRIPLES_PER_GRAPH = 20
FAILING_PROBED_PER_GRAPH = 30
MIN_PASSES = {"full": 3, "tiny": 1}

LAYER_METRICS = {
    "graphs.mutilate_us": "us",
    "graphs.ancestors_us": "us",
    "graphs.descendants_us": "us",
    "queries.normalized_us": "us",
    "queries.counterfactual_ancestors_us": "us",
    "queries.dropped_subscripts": "count",
    "realizability.term_requirements_us": "us",
    "realizability.realize_ok_us": "us",
    "realizability.realize_fail_us": "us",
    "realizability.criterion_us": "us",
    "realizability.fail_share": "ratio",
    "realizability.term_reuse": "ratio",
}


def _diagram(edges) -> CausalDiagram:
    directed, bidirected = edges
    return CausalDiagram(
        graphgen.NAMES, directed_edges=directed, bidirected_edges=bidirected
    )


class Workload:
    name = NAME

    def __init__(self, seed: int, size: str = "full"):
        self.seed = seed
        self.min_passes = MIN_PASSES[size]
        codes = graphgen.four_node_classes()
        picked = graphgen.stratified_sample(
            codes, GRAPHS[size], rng_for(seed, NAME, "graphs")
        )
        self.graphs = [graphgen.decode(c) for c in picked]
        self.terms = [
            PotentialResponse(w, tuple(RegimeEntry(v, x) for v, x in regime))
            for w, regime in graphgen.term_shapes()
        ]
        self.queries: list[list[CtfQuery]] = []
        self.expected: list[np.ndarray] = []
        for gi, edges in enumerate(self.graphs):
            queries, expected = self._queries_for(gi, _diagram(edges))
            self.queries.append(queries)
            self.expected.append(expected)
        self.attempted = 0
        self.failed = 0
        self.counts: dict[str, int] = {}

    def _queries_for(self, gi: int, diagram: CausalDiagram):
        """Queries of one graph and the pair-rule verdict for each."""
        terms = self.terms
        n = len(terms)
        needs = [
            {a.variable: frozenset(a.regime)
             for a in counterfactual_ancestors(CtfQuery((t,)), diagram)}
            for t in terms
        ]
        ok = np.ones((n, n), dtype=bool)
        for i in range(n):
            for j in range(i + 1, n):
                a, b = needs[i], needs[j]
                clash = any(b.get(v, r) != r for v, r in a.items())
                ok[i, j] = ok[j, i] = not clash
        queries = [CtfQuery((t,)) for t in terms]
        expected = [True] * n
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        rng = rng_for(self.seed, NAME, "queries", gi)
        for k in sorted(rng.choice(len(pairs), size=PAIRS_PER_GRAPH, replace=False)):
            i, j = pairs[int(k)]
            queries.append(CtfQuery((terms[i], terms[j])))
            expected.append(bool(ok[i, j]))
        for _ in range(TRIPLES_PER_GRAPH):
            i, j, k = sorted(int(x) for x in rng.choice(n, size=3, replace=False))
            queries.append(CtfQuery((terms[i], terms[j], terms[k])))
            expected.append(bool(ok[i, j] and ok[i, k] and ok[j, k]))
        return queries, np.array(expected)

    # -- the program's own preparation ------------------------------------

    def setup(self):
        checkers = []
        for edges in self.graphs:
            d = _diagram(edges)
            checkers.append(RealizabilityChecker(d, maximal_action_set(d)))
        return checkers

    # -- one timed pass ----------------------------------------------------

    def run_pass(self, checkers, index: int, tracer: Tracer | None) -> PassResult:
        clock = time.perf_counter_ns
        latencies: list[int] = []
        unit_s: list[float] = []
        verdicts: list[np.ndarray] = []
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for checker, queries in zip(checkers, self.queries):
                graph_start = time.perf_counter()
                out = []
                for q in queries:
                    t0 = clock()
                    verdict = checker.realize(q)
                    t1 = clock()
                    ok = bool(verdict)
                    latencies.append(t1 - t0)
                    out.append(ok)
                    if tracer is not None:
                        tracer.record(
                            "realizability.realize_ok" if ok
                            else "realizability.realize_fail",
                            t0, t1,
                        )
                unit_s.append(time.perf_counter() - graph_start)
                verdicts.append(np.array(out))
        seconds = time.perf_counter() - start

        mismatches = sum(int((v != e).sum()) for v, e in zip(verdicts, self.expected))
        total = sum(len(v) for v in verdicts)
        realizable = sum(int(v.sum()) for v in verdicts)
        self.attempted += total
        self.failed += mismatches
        pass_counts = {
            "queries_decided": total,
            "realizable": realizable,
            "not_realizable": total - realizable,
        }
        for k, v in pass_counts.items():
            self.counts.setdefault(k, v)
        lat_us = np.array(latencies, dtype=float) / 1e3
        return PassResult(total, seconds, unit_s, lat_us, [1.0] * len(lat_us))

    def verdict(self) -> tuple[int, int, dict]:
        return self.attempted, self.failed, {"pair_rule_mismatches": self.failed}

    # -- per-layer decomposition (traced runs only) ------------------------

    def probe(self, state, tracer: Tracer) -> None:
        """Time the layers a decision is made of, on the same inputs:
        cold per-term requirements, the graph surgery and ancestor sets
        behind them, normalization, and the criterion on failing
        queries."""
        calls = distinct = dropped = 0
        with tracer.span("probe.decide"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for gi, edges in enumerate(self.graphs):
                d = _diagram(edges)
                checker = RealizabilityChecker(d, maximal_action_set(d))
                unique: dict[tuple, PotentialResponse] = {}
                for q in self.queries[gi]:
                    nq = tracer.timed("queries.normalized", q.normalized, d)
                    dropped += sum(len(t.regime) for t in q.terms)
                    dropped -= sum(len(t.regime) for t in nq.terms)
                    calls += len(nq.terms)
                    for t in nq.terms:
                        unique.setdefault((t.variable, frozenset(t.regime)), t)
                distinct += len(unique)
                for t in unique.values():
                    tracer.timed("realizability.term_requirements",
                                 checker.term_requirements, t)
                    regime_vars = tuple(e.var for e in t.regime)
                    cut = tracer.timed("graphs.mutilate", d.mutilate, regime_vars)
                    tracer.timed("graphs.ancestors", cut.ancestors, t.variable)
                    for v in regime_vars:
                        tracer.timed("graphs.descendants", d.descendants, v)
                failing = np.flatnonzero(~self.expected[gi])
                rng = rng_for(self.seed, NAME, "probe", gi)
                take = min(FAILING_PROBED_PER_GRAPH, len(failing))
                for qi in sorted(rng.choice(failing, size=take, replace=False)):
                    q = self.queries[gi][int(qi)]
                    tracer.timed("realizability.criterion", realizable_by_criterion, q, d)
                    tracer.timed("queries.counterfactual_ancestors",
                                 counterfactual_ancestors, q.normalized(d).unvalued(), d)
        self.counts["dropped_subscripts"] = dropped
        self.counts["term_calls"] = calls
        self.counts["distinct_terms"] = distinct

    def layer_metrics(self, tracer: Tracer) -> dict[str, float]:
        stats = LayerStats(tracer)
        ok = stats.count("realizability.realize_ok")
        fail = stats.count("realizability.realize_fail")
        values = {
            name: stats.mean_us(name[: -len("_us")])
            for name in LAYER_METRICS if name.endswith("_us")
        }
        values["realizability.fail_share"] = fail / (ok + fail)
        values["realizability.term_reuse"] = (
            self.counts["term_calls"] / self.counts["distinct_terms"]
        )
        values["queries.dropped_subscripts"] = self.counts["dropped_subscripts"]
        return values
