"""Causal multi-armed bandits over the context/decision/post/reward template.

The template: context Z (possibly absent), decision X, a post-decision
variable D downstream of X, and a reward Y, with arbitrary latent
confounding among them. D never feeds Y; its role is informational — a
unit's D under a forced input reveals part of the confounder before the
reward decision is made.

Strategy tiers, each realizable with progressively richer actions:

* obs  — follow the natural behaviour (no actions);
* int  — observe z, erase-and-write the best fixed arm;
* ett  — observe z and the natural decision x', then fix the best arm
         as input to the reward mechanism only;
* opt  — additionally fix a chosen input to D first, observe D, and
         only then fix the reward arm: a two-stage plan whose sampling
         distribution P(Y_x, X, Z, D_x'') is itself realizable;
* aug  — same physical protocol as opt, but the learner treats (x', d)
         as opaque context: no consistency hot-start, no meaning
         attached to the D-stage (its input is drawn uniformly).

Online learning: every algorithm runs in one epoch loop, driven by a
small per-algorithm policy (D-stage chooser, reward-arm key, hot-start
cell, final action). An epoch selects its units in one block, and each
round makes its scalar ``rng.beta`` / ``rng.integers`` draws in the order
a unit-at-a-time protocol would. A unit's outcome under the protocol
depends only on its exogenous row u, since every action fixes a chosen
value and draws nothing. So the outcome (z, x', d, y) of each (row,
D-input, arm) is read off the row's entry in ``ExactTables.rows``, which
one ``engine.exact_rows`` call fills, the first time the row is
selected; later rounds look it and the metrics up from that memo. The
``Unit`` simulator stays the oracle: the tests play every row, D-input
and arm on fresh units and require the same outcome.

Metrics (one value per round, aggregated over epochs):

* cumulative regret — per-round increments are the full-information
  oracle gap max_x E[Y|x,u] - E[Y|x_played,u], nonnegative by
  construction; on the shipped problem its expectation equals the
  brute-force optimal value used as the comparison baseline.
* OAP (optimal action probability) — 1 for a round iff (a) the D-stage
  action attains the best achievable first-stage value for the observed
  (z, x') among {no D action} and {fix any input to D}, and (b) the
  final arm attains max_x E[Y_x | z, natural x', and (input, d) when D
  was fixed and read]. Value-based, so distinct but equally optimal
  D-inputs all count.
* mean reward — E[Y | arm, unit] per round.
"""

from __future__ import annotations

import csv
import itertools
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from .errors import EstimationError, ModelError, QueryError
from .graphs import CausalDiagram, Value
from .models import Mechanism, ScmModel, independent_exogenous
from .queries import CtfQuery, response
from .engine import exact_rows
from .realizability import (
    ActionSet,
    ctf_rand_action,
    ctf_realize,
    rand_action,
    read_action,
    select,
)
from .simulate import Experiment

VALUE_TOL = 1e-9


@dataclass(frozen=True)
class MabProblem:
    """A bandit instance: an SCM whose diagram fits the template, plus
    the roles of its variables."""

    model: ScmModel
    decision: str = "X"
    reward: str = "Y"
    post: str = "D"
    context: str | None = None

    def __post_init__(self):
        d = self.model.diagram
        for v in (self.decision, self.reward, self.post):
            if v not in d:
                raise ModelError(f"problem variable {v!r} not in the model")
        if self.context is not None and self.context not in d:
            raise ModelError(f"context variable {self.context!r} not in the model")
        if self.context is not None and self.context in d.descendants(self.decision):
            raise ModelError(
                f"context {self.context!r} must not descend from {self.decision!r}"
            )
        if self.post not in d.children(self.decision):
            raise ModelError(f"{self.post!r} must be a child of {self.decision!r}")
        if self.reward not in d.descendants(self.decision):
            raise ModelError(f"{self.reward!r} must be downstream of {self.decision!r}")
        if self.post in d.ancestors(self.reward):
            raise ModelError(f"{self.post!r} must not feed the reward {self.reward!r}")
        if set(d.domains[self.reward]) - {0, 1}:
            raise ModelError("reward must be binary 0/1")

    @property
    def arms(self) -> tuple[Value, ...]:
        return self.model.diagram.domains[self.decision]

    @property
    def post_domain(self) -> tuple[Value, ...]:
        return self.model.diagram.domains[self.post]


# ---------------------------------------------------------------------------
# The shipped problem
# ---------------------------------------------------------------------------

# E[reward | arm, confounder bits]: arm x, habit bits (u1, u2), mood bit u3.
# The natural decision is x = u1 xor u2 and the post-decision variable
# flips with u3, so neither tier below "opt" can separate the two 0.85
# branches from the 0.55 ones.
REWARD_MEANS: dict[tuple[int, int, int, int], float] = {
    (0, 0, 0, 0): 0.6, (0, 0, 1, 0): 0.9, (0, 1, 0, 0): 0.8, (0, 1, 1, 0): 0.5,
    (1, 0, 0, 0): 0.9, (1, 0, 1, 0): 0.6, (1, 1, 0, 0): 0.5, (1, 1, 1, 0): 0.8,
    (0, 0, 0, 1): 0.8, (0, 0, 1, 1): 0.7, (0, 1, 0, 1): 0.6, (0, 1, 1, 1): 0.7,
    (1, 0, 0, 1): 0.7, (1, 0, 1, 1): 0.8, (1, 1, 0, 1): 0.7, (1, 1, 1, 1): 0.6,
}


def example3_problem() -> MabProblem:
    """Binary two-arm instance with adversarial confounding: three fair
    latent bits drive the natural decision (u1 xor u2) and the
    post-decision variable (x xor u3); reward means are drawn from
    REWARD_MEANS through a granularity-0.1 auxiliary noise variable."""
    diagram = CausalDiagram(
        ["X", "D", "Y"],
        directed_edges=[("X", "Y"), ("X", "D")],
        bidirected_edges=[("X", "Y"), ("D", "Y")],
    )
    names, doms, dist = independent_exogenous(
        {"U1": (0, 1), "U2": (0, 1), "U3": (0, 1),
         "UY": tuple(range(10))},
    )

    def f_y(x, u1, u2, u3, uy):
        return 1 if uy < round(10 * REWARD_MEANS[(x, u1, u2, u3)]) else 0

    mech = {
        "X": Mechanism.tabulate((), ("U1", "U2"), (), ((0, 1), (0, 1)),
                                lambda u1, u2: u1 ^ u2),
        "D": Mechanism.tabulate(("X",), ("U3",), ((0, 1),), ((0, 1),),
                                lambda x, u3: x ^ u3),
        "Y": Mechanism.tabulate(
            ("X",), ("U1", "U2", "U3", "UY"),
            ((0, 1),), ((0, 1), (0, 1), (0, 1), tuple(range(10))),
            f_y,
        ),
    }
    model = ScmModel(diagram, names, doms, dist, mech)
    return MabProblem(model)


# ---------------------------------------------------------------------------
# Exact tables
# ---------------------------------------------------------------------------

class ExactTables:
    """Everything the harness needs in closed form, by one pass over the
    exogenous support: tier conditionals, first-stage values, the
    per-unit oracle, the observational conditionals used for
    hot-starting, and the per-row responses that exact strategy
    evaluation and the online loop read.

    The per-row values come from one ``exact_rows`` call. The sums sit in
    one table keyed by (cell, slot): a cell is ("obs", z, x') or ("obs",
    z, x', d) under the natural regime, ("fix", z, x', x'', d) with x''
    fixed into D, or ("core", core); the slot "p" holds its weight, "y"
    its weighted natural reward and ("y", x) its weighted reward under
    arm x. Each sum adds its rows in support order."""

    def __init__(self, problem: MabProblem):
        self.problem = problem
        model = problem.model
        dec, rew, post, ctx = (
            problem.decision, problem.reward, problem.post, problem.context
        )
        self.core_vars = tuple(
            u for u in model.exogenous_vars
            if any(
                u in model.mechanisms[v].exogenous
                for v in model.diagram.variables
                if v != rew
            )
        )
        core_idx = [model.exogenous_vars.index(u) for u in self.core_vars]
        arms = problem.arms
        terms = [response(v) for v in (ctx, dec, post, rew) if v]
        terms += [response(post, {dec: x2}) for x2 in arms]
        terms += [response(rew, {dec: x}) for x in arms]
        support, weights, columns = exact_rows(model, CtfQuery(tuple(terms)))
        if not ctx:
            columns.insert(0, [None] * len(support))
        sums: dict[tuple, float] = {}
        e_natural = 0.0
        # each exogenous row of positive weight, in support order, maps to
        # (p, core, z, x', natural d, {x'': d under x''}, {x: y under x})
        self.rows: dict[tuple, tuple] = {}
        for u, p, z, xn, d_nat, y_nat, *rest in zip(support, weights.tolist(), *columns):
            core = tuple(u[i] for i in core_idx)
            d_x = dict(zip(arms, rest[:len(arms)]))
            y_x = {x: float(y) for x, y in zip(arms, rest[len(arms):])}
            self.rows[u] = (p, core, z, xn, d_nat, d_x, y_x)
            e_natural += p * float(y_nat)
            gains = [("p", p), ("y", p * float(y_nat))]
            gains += [(("y", x), p * y_x[x]) for x in arms]
            cells = [("obs", z, xn), ("obs", z, xn, d_nat), ("core", core)]
            cells += [("fix", z, xn, x2, d_x[x2]) for x2 in arms]
            for cell in cells:
                for slot, w in gains:
                    sums[cell, slot] = sums.get((cell, slot), 0.0) + w
        self.natural_value = e_natural
        self._sums = sums
        # the (z, x') keys in first-seen order, which interventional_value sums in
        self._keys = list(dict.fromkeys(r[2:4] for r in self.rows.values()))

    # -- unit-level -------------------------------------------------------

    def _mean(self, cell: tuple, arm: Value) -> float:
        return self._sums[(cell, ("y", arm))] / self._sums[(cell, "p")]

    def reward_mean(self, arm: Value, core: tuple) -> float:
        return self._mean(("core", core), arm)

    def oracle_value(self, core: tuple) -> float:
        return max(self.reward_mean(x, core) for x in self.problem.arms)

    # -- tier conditionals --------------------------------------------------

    def mean_given_zx(self, z: Value, xn: Value, arm: Value) -> float:
        return self._mean(("obs", z, xn), arm)

    def mean_given_full(self, z, xn, x2, d, arm) -> float:
        return self._mean(("fix", z, xn, x2, d), arm)

    def d_dist(self, z, xn, x2) -> dict[Value, float]:
        tot = self.key_prob((z, xn))
        return {
            d: self._sums.get((("fix", z, xn, x2, d), "p"), 0.0) / tot
            for d in self.problem.post_domain
        }

    def interventional_value(self, arm: Value) -> float:
        return sum(self._sums[(("obs",) + k, ("y", arm))] for k in self._keys)

    # -- observational conditionals (hot-starts) ------------------------------

    def obs_mean(self, cell: tuple) -> float:
        """Natural-regime E[Y | Z=z, X=x] for the cell (z, x), or
        E[Y | Z=z, X=x, D=d] for (z, x, d); z is None without a context."""
        p = self._sums.get((("obs",) + cell, "p"), 0.0)
        if p == 0.0:
            return 0.5  # unreachable cell under the natural regime
        return self._sums[(("obs",) + cell, "y")] / p

    # -- first-stage values ---------------------------------------------------

    def stage1_value(self, z: Value, xn: Value, d_input: Value | None) -> float:
        """Expected reward of playing optimally downstream of the D-stage
        choice: None = no D action (condition on (z, x') only)."""
        if d_input is None:
            return max(self.mean_given_zx(z, xn, x) for x in self.problem.arms)
        out = 0.0
        for d, pd in self.d_dist(z, xn, d_input).items():
            if pd == 0.0:
                continue
            out += pd * max(
                self.mean_given_full(z, xn, d_input, d, x)
                for x in self.problem.arms
            )
        return out

    def stage1_optimal_value(self, z: Value, xn: Value) -> float:
        options = [self.stage1_value(z, xn, None)]
        options += [self.stage1_value(z, xn, x2) for x2 in self.problem.arms]
        return max(options)

    def keys(self) -> list[tuple]:
        return sorted(self._keys, key=repr)

    def key_prob(self, key: tuple) -> float:
        return self._sums[(("obs",) + key, "p")]


# ---------------------------------------------------------------------------
# Strategies: exact evaluation and the brute-force oracle
# ---------------------------------------------------------------------------

SKIP_D = ("skip",)
READ_D = ("read",)


def fix_d(x2: Value) -> tuple:
    return ("fix", x2)


ACT_NONE = ("none",)


def act_write(x: Value) -> tuple:
    return ("write", x)


def act_fix_y(x: Value) -> tuple:
    return ("fix_y", x)


@dataclass(frozen=True)
class Strategy:
    """A two-stage decision rule on the template.

    ``d_stage`` maps (z, natural x') to a D-stage choice: SKIP_D (act
    without touching or seeing D), READ_D (read the natural D), or
    fix_d(x'') (fix x'' as input to D, then read it). ``y_stage`` maps
    the information key — (z, x') after SKIP_D, else (z, x', d) — to
    the final action: ACT_NONE (let the natural decision stand),
    act_write(x) (erase-and-write) or act_fix_y(x) (fix x as input to
    the reward mechanism only).

    ``observes`` lists which of {"z", "x_nat", "d"} the rule actually
    conditions on; it determines the sampling distribution whose
    realizability gates execution.
    """

    name: str
    d_stage: Mapping[tuple, tuple]
    y_stage: Mapping[tuple, tuple]
    observes: frozenset[str] = frozenset()

    def sampling_query(self, problem: MabProblem) -> CtfQuery:
        """The joint the strategy needs samples from while learning, with
        representative distinct regime values."""
        arms = problem.arms
        terms = []
        y_kinds = {a[0] for a in self.y_stage.values()}
        if y_kinds <= {"none"}:
            terms.append(response(problem.reward))
        else:
            terms.append(response(problem.reward, {problem.decision: arms[0]}))
        if "x_nat" in self.observes:
            terms.append(response(problem.decision))
        if "z" in self.observes and problem.context:
            terms.append(response(problem.context))
        d_kinds = {a[0] for a in self.d_stage.values()}
        if "d" in self.observes:
            if d_kinds == {"read"}:
                terms.append(response(problem.post))
            elif "fix" in d_kinds:
                alt = arms[1] if len(arms) > 1 else arms[0]
                terms.append(response(problem.post, {problem.decision: alt}))
        return CtfQuery(tuple(terms))

    def required_actions(self, problem: MabProblem) -> ActionSet:
        acts = [select()]
        acts += [read_action(v) for v in problem.model.diagram.variables]
        y_kinds = {a[0] for a in self.y_stage.values()}
        if "write" in y_kinds:
            acts.append(rand_action(problem.decision))
        if "fix_y" in y_kinds:
            acts.append(ctf_rand_action(problem.decision, [problem.reward]))
        if any(a[0] == "fix" for a in self.d_stage.values()):
            acts.append(ctf_rand_action(problem.decision, [problem.post]))
        return ActionSet(acts, problem.model.diagram)


def check_strategy_realizable(problem: MabProblem, strategy: Strategy) -> None:
    """Raise unless the strategy's sampling distribution is realizable
    with the actions it uses."""
    q = strategy.sampling_query(problem)
    verdict = ctf_realize(q, problem.model.diagram, strategy.required_actions(problem))
    if not verdict:
        raise QueryError(
            f"strategy {strategy.name!r} needs samples from {q}, which is "
            f"not realizable: {verdict.describe()}"
        )


def evaluate_strategy_exact(
    problem: MabProblem,
    strategy: Strategy,
    tables: ExactTables | None = None,
    check_realizability: bool = True,
) -> float:
    """Exact expected per-round reward of following the strategy."""
    if check_realizability:
        check_strategy_realizable(problem, strategy)
    tables = tables or ExactTables(problem)
    total = 0.0
    for p, _, z, xn, d_nat, d_x, y_x in tables.rows.values():
        s1 = strategy.d_stage[(z, xn)]
        if s1 == SKIP_D:
            key = (z, xn)
        elif s1 == READ_D:
            key = (z, xn, d_nat)
        else:
            key = (z, xn, d_x[s1[1]])
        act = strategy.y_stage[key]
        total += p * y_x[xn if act == ACT_NONE else act[1]]
    return total


def tier_obs(problem: MabProblem, tables: ExactTables | None = None) -> Strategy:
    tables = tables or ExactTables(problem)
    d_stage = {k: SKIP_D for k in tables.keys()}
    y_stage = {k: ACT_NONE for k in tables.keys()}
    return Strategy("obs", d_stage, y_stage, frozenset())


def tier_int(problem: MabProblem, tables: ExactTables | None = None) -> Strategy:
    """Best fixed write per context value, marginalizing the natural
    decision (which this tier does not observe)."""
    tables = tables or ExactTables(problem)
    d_stage = {k: SKIP_D for k in tables.keys()}
    y_stage = {}
    for z in {k[0] for k in tables.keys()}:
        num = {x: 0.0 for x in problem.arms}
        den = 0.0
        for k in tables.keys():
            if k[0] != z:
                continue
            den += tables.key_prob(k)
            for x in problem.arms:
                num[x] += tables.key_prob(k) * tables.mean_given_zx(k[0], k[1], x)
        best = max(problem.arms, key=lambda x: (num[x] / den, -problem.arms.index(x)))
        for k in tables.keys():
            if k[0] == z:
                y_stage[k] = act_write(best)
    observes = frozenset({"z"}) if problem.context else frozenset()
    return Strategy("int", d_stage, y_stage, observes)


def tier_ett(problem: MabProblem, tables: ExactTables | None = None) -> Strategy:
    tables = tables or ExactTables(problem)
    d_stage = {k: SKIP_D for k in tables.keys()}
    y_stage = {}
    for k in tables.keys():
        best = max(
            problem.arms,
            key=lambda x: (tables.mean_given_zx(k[0], k[1], x), -problem.arms.index(x)),
        )
        y_stage[k] = act_fix_y(best)
    observes = {"x_nat"} | ({"z"} if problem.context else set())
    return Strategy("ett", d_stage, y_stage, frozenset(observes))


def tier_opt(problem: MabProblem, tables: ExactTables | None = None) -> Strategy:
    tables = tables or ExactTables(problem)
    d_stage = {}
    y_stage = {}
    for k in tables.keys():
        z, xn = k
        best_d = max(
            problem.arms,
            key=lambda x2: (tables.stage1_value(z, xn, x2), -problem.arms.index(x2)),
        )
        d_stage[k] = fix_d(best_d)
        for d in problem.post_domain:
            if tables.d_dist(z, xn, best_d).get(d, 0.0) == 0.0:
                y_stage[(z, xn, d)] = act_fix_y(problem.arms[0])
                continue
            best = max(
                problem.arms,
                key=lambda x: (
                    tables.mean_given_full(z, xn, best_d, d, x),
                    -problem.arms.index(x),
                ),
            )
            y_stage[(z, xn, d)] = act_fix_y(best)
    observes = {"x_nat", "d"} | ({"z"} if problem.context else set())
    return Strategy("opt", d_stage, y_stage, frozenset(observes))


MAX_BRUTE_FORCE = 10**6


def brute_force_optimal(
    problem: MabProblem, tables: ExactTables | None = None
) -> tuple[Strategy, float]:
    """Exhaustive maximum over the two-map normal form: every mapping
    (z, x') -> fixed D-input crossed with every mapping (z, x', d) ->
    reward-input. Certifies the tier-opt value; ties break toward the
    lexicographically first mapping."""
    tables = tables or ExactTables(problem)
    keys = tables.keys()
    arms = problem.arms
    d_dom = problem.post_domain
    n_sigma = len(arms) ** len(keys)
    n_tau = len(arms) ** (len(keys) * len(d_dom))
    if n_sigma * n_tau > MAX_BRUTE_FORCE:
        raise EstimationError(
            f"normal-form enumeration would visit {n_sigma * n_tau} strategies; "
            f"cap is {MAX_BRUTE_FORCE}"
        )
    best: tuple[Strategy, float] | None = None
    for sigma in itertools.product(arms, repeat=len(keys)):
        d_stage = {k: fix_d(x2) for k, x2 in zip(keys, sigma)}
        tau_cells = [(k, d) for k in keys for d in d_dom]
        for tau in itertools.product(arms, repeat=len(tau_cells)):
            y_stage = {
                (k[0], k[1], d): act_fix_y(x) for (k, d), x in zip(tau_cells, tau)
            }
            strat = Strategy("normal-form", d_stage, y_stage,
                             frozenset({"x_nat", "d"} | ({"z"} if problem.context else set())))
            value = evaluate_strategy_exact(
                problem, strat, tables, check_realizability=False
            )
            if best is None or value > best[1] + VALUE_TOL:
                best = (strat, value)
    assert best is not None
    return best


# ---------------------------------------------------------------------------
# Online algorithms
# ---------------------------------------------------------------------------

class ThompsonSolver:
    """Beta-Bernoulli posterior per arm key, each starting at Beta(1, 1).
    Hot-started cells never reach the solver: the epoch loop scores them
    with their exact observational mean and does not update them."""

    def __init__(self):
        self.posterior: dict = {}  # key -> [alpha, beta]

    def draw(self, key, rng: np.random.Generator) -> float:
        ab = self.posterior.get(key)
        if ab is None:
            ab = self.posterior[key] = [1.0, 1.0]
        return float(rng.beta(ab[0], ab[1]))

    def update(self, key, reward: float) -> None:
        ab = self.posterior.get(key)
        if ab is None:
            ab = self.posterior[key] = [1.0, 1.0]
        ab[0] += reward
        ab[1] += 1.0 - reward

    def pulls(self, key) -> int:
        alpha, beta = self.posterior.get(key, (1.0, 1.0))
        return int(alpha + beta - 2.0)


@dataclass
class RunMetrics:
    """Per-iteration traces stacked over epochs, plus 95% bands."""

    algo: str
    horizon: int
    epochs: int
    seed: int
    cumulative_regret: np.ndarray  # (epochs, T)
    oap: np.ndarray                # (epochs, T)
    reward: np.ndarray             # (epochs, T) expected reward of the played arm
    epoch_seconds: np.ndarray      # (epochs,) wall time of each epoch

    @staticmethod
    def _band(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        mean = arr.mean(axis=0)
        if arr.shape[0] > 1:
            half = 1.96 * arr.std(axis=0, ddof=1) / np.sqrt(arr.shape[0])
        else:
            half = np.zeros_like(mean)
        return mean, mean - half, mean + half

    def regret_band(self):
        return self._band(self.cumulative_regret)

    def oap_band(self):
        return self._band(self.oap)

    def terminal_mean_reward(self, window: int = 500) -> float:
        return float(self.reward[:, -window:].mean())

    def terminal_oap(self, window: int = 500) -> float:
        return float(self.oap[:, -window:].mean())

    def final_regret(self) -> tuple[float, float, float]:
        mean, lo, hi = self.regret_band()
        return float(mean[-1]), float(lo[-1]), float(hi[-1])

    def summary(self, window: int = 500) -> dict:
        fr = self.final_regret()
        return {
            "algo": self.algo,
            "horizon": self.horizon,
            "epochs": self.epochs,
            "seed": self.seed,
            "terminal_mean_reward": self.terminal_mean_reward(window),
            "terminal_oap": self.terminal_oap(window),
            "final_cumulative_regret": fr[0],
            "final_cr_ci95": [fr[1], fr[2]],
            "terminal_window": window,
        }


@dataclass(frozen=True)
class _Policy:
    """One algorithm's part in the shared epoch loop.

    ``d_stage`` picks the input fixed into D before the reward decision:
    "none" (D is left alone), "uniform" (one ``rng.integers`` draw) or
    "thompson" (a posterior per (z, x', x'')). ``arm_key`` names the
    solver cell of each reward arm from (z, x', x'', d, x), and
    ``hot_cell`` the observational cell whose exact mean pins that arm
    (never drawn, never updated), or None. ``final`` is "fix_y" (fix the
    arm as input to the reward only) or "write" (erase and write the
    decision, which also fixes D's input). ``gate`` is the tier whose
    realizability licenses the protocol and whose actions it may use."""

    gate: Callable[..., Strategy]
    d_stage: str
    arm_key: Callable[..., tuple]
    hot_cell: Callable[..., tuple | None]
    final: str


def _no_hot_cell(z, xn, x2, d, x):
    return None


_POLICIES = {
    "ts": _Policy(tier_int, "none", lambda z, xn, x2, d, x: (x,), _no_hot_cell, "write"),
    # (z, x', d) is opaque context: the D-input means nothing to this learner
    "ts-aug": _Policy(tier_opt, "uniform", lambda z, xn, x2, d, x: (z, xn, d, x),
                      _no_hot_cell, "fix_y"),
    "ts-ett": _Policy(tier_ett, "none", lambda z, xn, x2, d, x: (z, xn, x),
                      lambda z, xn, x2, d, x: (z, x) if x == xn else None, "fix_y"),
    "ts-opt": _Policy(tier_opt, "thompson", lambda z, xn, x2, d, x: ("Y", z, xn, x2, d, x),
                      lambda z, xn, x2, d, x: (z, x, d) if x == xn == x2 else None,
                      "fix_y"),
}
# the two-stage sampler with a pluggable solver; ThompsonSolver gives ts-opt
_POLICIES["mab-opt"] = _POLICIES["ts-opt"]

ALGORITHMS = tuple(_POLICIES)


class _Responses:
    """What each selected unit does under one policy's protocol, and what
    the round scores. A unit's outcome depends only on its exogenous row,
    so ``add_row`` reads it off the row's entry in ``ExactTables.rows``
    the first time the row is selected, and later rounds look it up.
    Rows index ``Experiment.support``, which every experiment on the
    model orders alike, so one memo serves all epochs. The metric lists
    hold one entry per (row, D-input, arm) in build order."""

    def __init__(self, problem: MabProblem, tables: ExactTables, policy: _Policy):
        self.problem = problem
        self.tables = tables
        self.policy = policy
        self.d_inputs = (None,) if policy.d_stage == "none" else problem.arms
        self.rows: dict[int, tuple] = {}
        self.regret: list[float] = []
        self.reward: list[float] = []
        self.oap: list[float] = []
        self._optimal: dict[tuple, tuple[bool, ...]] = {}

    def add_row(self, i: int, u: tuple) -> tuple:
        """Score row ``i``, whose exogenous assignment is ``u``, under every
        D-input and arm. Returns (D-stage solver keys, one (arm cells,
        rewards, metric offset) branch per D-input)."""
        p, policy, tables = self.problem, self.policy, self.tables
        _, core, z, xn, _, d_x, y_x = tables.rows[u]
        oracle = tables.oracle_value(core)
        rewards = tuple(y_x[x] for x in p.arms)
        branches = []
        for x2 in self.d_inputs:
            d = None if x2 is None else d_x[x2]
            cells = []
            for x in p.arms:
                hot = policy.hot_cell(z, xn, x2, d, x)
                cells.append((policy.arm_key(z, xn, x2, d, x),
                              None if hot is None else tables.obs_mean(hot)))
            branches.append((tuple(cells), rewards, len(self.reward)))
            for x, ok in zip(p.arms, self._optimal_arms(z, xn, x2, d)):
                mean = tables.reward_mean(x, core)
                self.regret.append(oracle - mean)
                self.reward.append(mean)
                self.oap.append(1.0 if ok else 0.0)
        d_keys = ()
        if policy.d_stage == "thompson":
            d_keys = tuple(("D", z, xn, x2) for x2 in self.d_inputs)
        row = self.rows[i] = (d_keys, tuple(branches))
        return row

    def _optimal_arms(self, z, xn, x2, d) -> tuple[bool, ...]:
        """OAP of each arm, once per (z, x', x'', d): the D-stage choice
        attains the best first-stage value for (z, x'), and the arm the
        best conditional mean given what the round saw."""
        key = (z, xn, x2, d)
        if key not in self._optimal:
            t, arms = self.tables, self.problem.arms
            if x2 is None:
                means = [t.mean_given_zx(z, xn, x) for x in arms]
            else:
                means = [t.mean_given_full(z, xn, x2, d, x) for x in arms]
            best = max(means)
            top = t.stage1_optimal_value(z, xn) - VALUE_TOL
            flags = []
            for x, mean in zip(arms, means):
                # an erase-and-write also fixes the arm as D's input
                d_input = x if x2 is None and self.policy.final == "write" else x2
                flags.append(t.stage1_value(z, xn, d_input) >= top and mean >= best - VALUE_TOL)
            self._optimal[key] = tuple(flags)
        return self._optimal[key]


def _play_epoch(
    policy: _Policy,
    responses: _Responses,
    experiment: Experiment,
    horizon: int,
    rng: np.random.Generator,
    solver: ThompsonSolver,
) -> list[int]:
    """One epoch of ``horizon`` rounds; returns each round's index into
    the metric lists. Units are selected in one block; the solver's
    draws and updates come in the same order as a unit-at-a-time
    protocol would make them."""
    draw, update = solver.draw, solver.update
    thompson = policy.d_stage == "thompson"
    uniform = policy.d_stage == "uniform"
    rows, support = responses.rows, experiment.support
    played = []
    for i in experiment.select_rows(horizon).tolist():
        d_keys, branches = rows.get(i) or responses.add_row(i, support[i])
        if thompson:
            scores = [draw(key, rng) for key in d_keys]
            j = max(range(len(scores)), key=scores.__getitem__)
        elif uniform:
            j = int(rng.integers(len(branches)))
        else:
            j = 0
        cells, rewards, offset = branches[j]
        mu = [draw(key, rng) if pin is None else pin for key, pin in cells]
        a = max(range(len(mu)), key=mu.__getitem__)
        y = rewards[a]
        if thompson:
            update(d_keys[j], y)
        key, pin = cells[a]
        if pin is None:
            update(key, y)
        played.append(offset + a)
    return played


def run_epochs(
    algo: str,
    problem: MabProblem,
    horizon: int,
    epochs: int,
    seed: int,
    solver_factory: Callable[[], ThompsonSolver] | None = None,
    tables: ExactTables | None = None,
) -> RunMetrics:
    """Run one algorithm for ``epochs`` independent epochs of ``horizon``
    rounds, each with a fresh solver from ``solver_factory`` (default
    ThompsonSolver). Epoch e uses the e-th spawn of the master seed, so
    results are reproducible and epochs could run in parallel."""
    if algo not in ALGORITHMS:
        raise EstimationError(f"unknown algorithm {algo!r}; pick from {ALGORITHMS}")
    if horizon < 0 or epochs < 0:
        raise EstimationError(f"horizon {horizon} and epochs {epochs} must be non-negative")
    policy = _POLICIES[algo]
    tables = tables or ExactTables(problem)
    check_strategy_realizable(problem, policy.gate(problem, tables))
    responses = _Responses(problem, tables, policy)
    factory = solver_factory or ThompsonSolver
    played = np.zeros((epochs, horizon), dtype=np.int64)
    seconds = np.zeros(epochs)
    for e, ss in enumerate(np.random.SeedSequence(seed).spawn(epochs)):
        start = time.perf_counter()
        rng = np.random.Generator(np.random.PCG64(ss.spawn(1)[0]))
        experiment = Experiment(problem.model, seed=ss)
        played[e] = _play_epoch(policy, responses, experiment, horizon, rng, factory())
        seconds[e] = time.perf_counter() - start
    return RunMetrics(
        algo=algo,
        horizon=horizon,
        epochs=epochs,
        seed=seed,
        cumulative_regret=np.cumsum(np.array(responses.regret)[played], axis=1),
        oap=np.array(responses.oap)[played],
        reward=np.array(responses.reward)[played],
        epoch_seconds=seconds,
    )


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def write_metric_csv(path: str | Path, metrics: RunMetrics, which: str) -> None:
    """One row per iteration: mean and 95% band of CR or OAP."""
    if which == "cr":
        mean, lo, hi = metrics.regret_band()
    elif which == "oap":
        mean, lo, hi = metrics.oap_band()
    else:
        raise EstimationError(f"unknown metric {which!r}")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "mean", "ci95_low", "ci95_high"])
        for t in range(len(mean)):
            writer.writerow(
                [t + 1, f"{mean[t]:.10g}", f"{lo[t]:.10g}", f"{hi[t]:.10g}"]
            )
