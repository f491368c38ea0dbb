"""bandit: the Example 3 causal bandit through ``run_epochs``.

Each pass runs every algorithm for a few epochs of the criterion's
horizon, each call from its own sub-seed of (workload seed, algorithm,
pass). Units are handled one at a time: every read is followed by a
decision, so nothing in a round can be batched.

Gate: cumulative regret never decreases within an epoch, and the
terminal mean reward, pooled over the run's epochs, is within 0.02 of
the tier value of the strategy the algorithm learns (0.80 / 0.75 /
0.70). The minimum pass count puts that tolerance at least five
standard deviations from the pooled mean.
"""

from __future__ import annotations

import time

import numpy as np

from ctfrealize import Experiment, ExactTables, example3_problem, run_epochs
from ctfrealize.errors import CtfRealizeError

from .harness import LayerStats, PassResult, Tracer, seed_int, seed_seq

NAME = "bandit"
# algorithm -> tier value its terminal mean reward must approach (None: no tier)
ALGOS = {"ts-opt": 0.80, "ts-ett": 0.75, "ts": 0.70, "ts-aug": None}
HORIZON = {"full": 2000, "tiny": 300}
EPOCHS_PER_PASS = {"full": 2, "tiny": 1}
MIN_PASSES = {"full": 6, "tiny": 1}
WINDOW = 500
REWARD_TOL = 0.02
UNIT_PROTOCOL_DRAWS = 2000
EXACT_TABLE_REPS = 5

LAYER_METRICS = {
    **{f"bandits.round_us.{algo}": "us" for algo in ALGOS},
    "bandits.exact_tables_ms": "ms",
}


class Workload:
    name = NAME

    def __init__(self, seed: int, size: str = "full"):
        self.seed = seed
        self.min_passes = MIN_PASSES[size]
        self.horizon = HORIZON[size]
        self.epochs = EPOCHS_PER_PASS[size]
        self.min_epochs = MIN_PASSES["full"] * EPOCHS_PER_PASS["full"]
        self.window = min(WINDOW, self.horizon)
        self.reward_sum = {a: 0.0 for a in ALGOS}
        self.reward_n = {a: 0 for a in ALGOS}
        self.epochs_run = {a: 0 for a in ALGOS}
        self.attempted = 0
        self.failed = 0
        self.counts: dict[str, int] = {}
        self.traced_rounds = {a: 0 for a in ALGOS}

    def setup(self):
        problem = example3_problem()
        return problem, ExactTables(problem)

    def run_pass(self, state, index: int, tracer: Tracer | None) -> PassResult:
        problem, tables = state
        clock = time.perf_counter_ns
        rounds_per_call = self.horizon * self.epochs
        runs = []
        start = time.perf_counter()
        for algo in ALGOS:
            t0 = clock()
            try:
                m = run_epochs(algo, problem, self.horizon, self.epochs,
                               seed_int(self.seed, NAME, algo, index), tables=tables)
            except CtfRealizeError:
                m = None
            runs.append((algo, m, t0, clock()))
        seconds = time.perf_counter() - start

        unit_s, latencies = [], []
        for algo, m, t0, t1 in runs:
            self.attempted += rounds_per_call
            unit_s.append((t1 - t0) / 1e9)
            if tracer is not None:
                tracer.record(f"bandits.run_epochs.{algo}", t0, t1)
                self.traced_rounds[algo] += rounds_per_call
            if m is None:
                self.failed += rounds_per_call
                latencies.append(float("nan"))
                continue
            rising = (np.diff(m.cumulative_regret, axis=1) >= -1e-12).all(axis=1)
            self.failed += int((~rising).sum()) * self.horizon
            self.counts.setdefault(f"optimal_rounds.{algo}", int(m.oap.sum()))
            self.reward_sum[algo] += float(m.reward[:, -self.window:].sum())
            self.reward_n[algo] += m.reward[:, -self.window:].size
            self.epochs_run[algo] += self.epochs
            latencies.append((t1 - t0) / 1e3 / rounds_per_call)
        self.counts.setdefault("rounds", rounds_per_call * len(ALGOS))
        return PassResult(rounds_per_call * len(ALGOS), seconds, unit_s, latencies,
                          [rounds_per_call] * len(ALGOS))

    def verdict(self) -> tuple[int, int, dict]:
        """Reward gate per algorithm; a miss fails all its rounds. Below
        the full horizon or the pooled epoch count the minimum pass count
        guarantees (tiny self-test runs only) the reward is reported but
        not gated."""
        failed = self.failed
        report = {}
        for algo, tier in ALGOS.items():
            if not self.reward_n[algo]:
                continue
            mean = self.reward_sum[algo] / self.reward_n[algo]
            gated = (tier is not None and self.horizon == HORIZON["full"]
                     and self.epochs_run[algo] >= self.min_epochs)
            report[algo] = {"terminal_mean_reward": mean, "tier": tier,
                            "epochs": self.epochs_run[algo], "gated": gated}
            if gated and abs(mean - tier) > REWARD_TOL:
                failed += self.epochs_run[algo] * self.horizon
        return self.attempted, failed, report

    # -- per-layer decomposition (traced runs only) ------------------------

    def probe(self, state, tracer: Tracer) -> None:
        """ExactTables construction, and the simulate layer as the
        bandit uses it: one unit at a time through the two-stage
        protocol (read X, fix X into D, read D, fix X into Y, read Y)."""
        problem, _ = state
        with tracer.span("probe.bandit"):
            for _ in range(EXACT_TABLE_REPS):
                tracer.timed("bandits.exact_tables", ExactTables, problem)
            experiment = Experiment(problem.model, seed=seed_seq(self.seed, NAME, "units"))
            dec, post, rew = problem.decision, problem.post, problem.reward
            for _ in range(UNIT_PROTOCOL_DRAWS):
                with tracer.span("simulate.unit"):
                    unit = tracer.timed("simulate.new_unit", experiment.new_unit)
                    unit.read(dec)
                    unit.ctf_rand(dec, [post])
                    unit.read(post)
                    unit.ctf_rand(dec, [rew])
                    unit.read(rew)

    def layer_metrics(self, tracer: Tracer) -> dict[str, float]:
        stats = LayerStats(tracer)
        values = {
            f"bandits.round_us.{algo}":
                stats.self_ns(f"bandits.run_epochs.{algo}") / 1e3 / self.traced_rounds[algo]
            for algo in ALGOS
        }
        values["bandits.exact_tables_ms"] = stats.mean_us("bandits.exact_tables") / 1e3
        # simulate as the bandit drives it: single units, full protocol
        values["simulate.unit_us"] = stats.agg["simulate.unit"][1] / 1e3 / stats.count("simulate.unit")
        values["simulate.new_unit_us"] = stats.mean_us("simulate.new_unit")
        return values
