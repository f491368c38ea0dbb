"""Causal multi-armed bandits over the context/decision/post/reward template.

The template: context Z (possibly absent), decision X, a post-decision
variable D downstream of X, and a reward Y, with arbitrary latent
confounding among them. D never feeds Y; its role is informational — a
unit's D under a forced input reveals part of the confounder before the
reward decision is made.

Strategy tiers are forms (``StrategyForm``, one ``TIERS`` entry each):
what the strategy observes and which physical actions it takes. Each
tier's sampling distribution needs one action more than the tier before:

* obs  — follow the natural behaviour (reads only);
* int  — observe z, erase-and-write the best fixed arm (``Rand(X)``);
* ett  — observe z and the natural decision x', then fix the best arm
         as input to the reward mechanism only (``CtfRand(X->Y)``);
* opt  — additionally fix a chosen input to D first, observe D, and
         only then fix the reward arm (``CtfRand(X->D)`` too): a
         two-stage plan whose sampling distribution P(Y_x, X, Z, D_x'')
         is itself realizable.

``best_strategy`` builds any tier's optimum with one argmax per (z, x')
key over ``ExactTables``. The ``ts-aug`` learner plays the opt form's
protocol but treats (x', d) as opaque context: no consistency
hot-start, no meaning attached to the D-stage (its input is drawn
uniformly).

Online learning: every algorithm runs in one epoch loop, driven by a
small per-algorithm policy (its strategy form, D-stage chooser,
reward-arm key, hot-start cell). An epoch selects its units in one block, and each
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
  construction; on the shipped problem its expectation equals the opt
  tier's value, which the test suite certifies by brute force over the
  two-map normal form.
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
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from .errors import EstimationError, ModelError, QueryError
from .graphs import CausalDiagram, Value
from .models import ScmModel, tabulated_model
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
from .simulate import Experiment, _check_integer, _check_seed

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

    def f_y(x, u1, u2, u3, uy):
        return 1 if uy < round(10 * REWARD_MEANS[(x, u1, u2, u3)]) else 0

    model = tabulated_model(
        diagram,
        {"U1": (0.5, 0.5), "U2": (0.5, 0.5), "U3": (0.5, 0.5), "UY": (0.1,) * 10},
        {
            "X": (("U1", "U2"), lambda u1, u2: u1 ^ u2),
            "D": (("U3",), lambda x, u3: x ^ u3),
            "Y": (("U1", "U2", "U3", "UY"), f_y),
        },
    )
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

    The per-row values come from one ``exact_rows`` call over Z, X,
    D[X=x''] and Y[X=x]. By consistency a row's natural D and Y are D
    and Y under its natural x', so they are not queried. The sums sit in
    one table keyed by (cell, slot): a cell is ("obs", z, x') under the
    natural regime, ("fix", z, x', x'', d) with x'' fixed into D, or
    ("core", core); the slot "p" holds its weight and ("y", x) its
    weighted reward under arm x. Each sum adds its rows in support
    order.

    ``rows[i]`` is row i of ``model.compile().rows``, the rows units are
    selected from: (p, core, z, x', natural d, {x'': d under x''},
    {x: y under x})."""

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
        terms = [response(v) for v in (ctx, dec) if v]
        terms += [response(post, {dec: x2}) for x2 in arms]
        terms += [response(rew, {dec: x}) for x in arms]
        support, weights, columns = exact_rows(model, CtfQuery(tuple(terms)))
        if not ctx:
            columns.insert(0, [None] * len(support))
        sums: dict[tuple, float] = {}
        e_natural = 0.0
        self.rows: list[tuple] = []
        for u, p, z, xn, *rest in zip(support, weights.tolist(), *columns):
            core = tuple(u[i] for i in core_idx)
            d_x = dict(zip(arms, rest[:len(arms)]))
            y_x = {x: float(y) for x, y in zip(arms, rest[len(arms):])}
            self.rows.append((p, core, z, xn, d_x[xn], d_x, y_x))
            e_natural += p * y_x[xn]
            gains = [("p", p)] + [(("y", x), p * y_x[x]) for x in arms]
            cells = [("obs", z, xn), ("core", core)]
            cells += [("fix", z, xn, x2, d_x[x2]) for x2 in arms]
            for cell in cells:
                for slot, w in gains:
                    sums[cell, slot] = sums.get((cell, slot), 0.0) + w
        self.natural_value = e_natural
        self._sums = sums
        # the (z, x') keys of the positive-weight rows, each once
        self._keys = list(dict.fromkeys(r[2:4] for r in self.rows))

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

    # -- observational conditionals (hot-starts) ------------------------------

    def obs_mean(self, cell: tuple) -> float:
        """Natural-regime E[Y | Z=z, X=x] for the cell (z, x), or
        E[Y | Z=z, X=x, D=d] for (z, x, d); z is None without a context.
        By consistency that is E[Y[X=x] | Z=z, X=x], and the (z, x, d)
        cell is the ("fix", z, x, x, d) one."""
        z, x, *d = cell
        key = ("fix", z, x, x, *d) if d else ("obs", z, x)
        p = self._sums.get((key, "p"), 0.0)
        if p == 0.0:
            return 0.5  # unreachable cell under the natural regime
        return self._sums[(key, ("y", x))] / p

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
# Strategies and their exact evaluation
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
    """

    name: str
    d_stage: Mapping[tuple, tuple]
    y_stage: Mapping[tuple, tuple]


@dataclass(frozen=True)
class StrategyForm:
    """What a family of strategies observes and does.

    ``sees_x``: the rule observes the natural decision x'. ``fixes_d``:
    it fixes an input x'' into D and reads d before the final action.
    ``final``: "none" (the natural decision stands), "write"
    (erase-and-write the arm) or "fix_y" (fix the arm as input to the
    reward only). The context z is observed when the problem has one and
    the form acts (``final != "none"``). The form determines the
    sampling distribution whose realizability gates execution, and the
    actions that realize it."""

    name: str
    sees_x: bool = False
    fixes_d: bool = False
    final: str = "none"

    def __post_init__(self):
        if self.final not in ("none", "write", "fix_y"):
            raise ModelError(
                f"final action {self.final!r} must be 'none', 'write' or 'fix_y'"
            )

    def sampling_query(self, problem: MabProblem) -> CtfQuery:
        """The joint the strategy needs samples from while learning, with
        representative distinct regime values."""
        arms, dec = problem.arms, problem.decision
        if self.final == "none":
            terms = [response(problem.reward)]
        else:
            terms = [response(problem.reward, {dec: arms[0]})]
        if self.sees_x:
            terms.append(response(dec))
        if self.final != "none" and problem.context:
            terms.append(response(problem.context))
        if self.fixes_d:
            alt = arms[1] if len(arms) > 1 else arms[0]
            terms.append(response(problem.post, {dec: alt}))
        return CtfQuery(tuple(terms))

    def required_actions(self, problem: MabProblem) -> ActionSet:
        acts = [select()]
        acts += [read_action(v) for v in problem.model.diagram.variables]
        if self.final == "write":
            acts.append(rand_action(problem.decision))
        if self.final == "fix_y":
            acts.append(ctf_rand_action(problem.decision, [problem.reward]))
        if self.fixes_d:
            acts.append(ctf_rand_action(problem.decision, [problem.post]))
        return ActionSet(acts, problem.model.diagram)


TIERS = {
    "obs": StrategyForm("obs"),
    "int": StrategyForm("int", final="write"),
    "ett": StrategyForm("ett", sees_x=True, final="fix_y"),
    "opt": StrategyForm("opt", sees_x=True, fixes_d=True, final="fix_y"),
}


def _tables_for(problem: MabProblem, tables: ExactTables | None) -> ExactTables:
    """The given tables, or new ones for ``problem``; tables built for
    another problem are refused, since every value read off them would
    belong to that problem."""
    if tables is None:
        return ExactTables(problem)
    if tables.problem is not problem and tables.problem != problem:
        raise EstimationError("the exact tables were built for another problem")
    return tables


def check_strategy_realizable(problem: MabProblem, form: StrategyForm) -> None:
    """Raise unless the form's sampling distribution is realizable with
    the actions it uses."""
    q = form.sampling_query(problem)
    verdict = ctf_realize(q, problem.model.diagram, form.required_actions(problem))
    if not verdict:
        raise QueryError(
            f"strategy {form.name!r} needs samples from {q}, which is "
            f"not realizable: {verdict.describe()}"
        )


def evaluate_strategy_exact(
    problem: MabProblem, strategy: Strategy, tables: ExactTables | None = None
) -> float:
    """Exact expected per-round reward of following the strategy."""
    tables = _tables_for(problem, tables)
    total = 0.0
    for p, _, z, xn, d_nat, d_x, y_x in tables.rows:
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


def best_strategy(
    problem: MabProblem, form: StrategyForm, tables: ExactTables | None = None
) -> Strategy:
    """The best strategy of the form, by one argmax per (z, x') key; ties
    go to the first arm. A strategy's value is a sum over keys of terms
    that depend only on that key's choices, so the per-key argmax is the
    form's optimum."""
    tables = _tables_for(problem, tables)
    arms, keys = problem.arms, tables.keys()
    act = act_write if form.final == "write" else act_fix_y
    d_stage: dict[tuple, tuple] = {}
    y_stage: dict[tuple, tuple] = {}

    def mean(z, xn, x):
        if form.sees_x:
            return tables.mean_given_zx(z, xn, x)
        # blind to x': average the (z, x') conditionals over x'
        same_z = [k for k in keys if k[0] == z]
        num = sum(tables.key_prob(k) * tables.mean_given_zx(*k, x) for k in same_z)
        return num / sum(tables.key_prob(k) for k in same_z)

    for z, xn in keys:
        if form.final == "none":
            d_stage[(z, xn)], y_stage[(z, xn)] = SKIP_D, ACT_NONE
        elif not form.fixes_d:
            d_stage[(z, xn)] = SKIP_D
            y_stage[(z, xn)] = act(max(arms, key=lambda x: mean(z, xn, x)))
        else:
            x2 = max(arms, key=lambda a: tables.stage1_value(z, xn, a))
            d_stage[(z, xn)] = fix_d(x2)
            for d, pd in tables.d_dist(z, xn, x2).items():
                best = arms[0] if pd == 0.0 else max(
                    arms, key=lambda x: tables.mean_given_full(z, xn, x2, d, x)
                )
                y_stage[(z, xn, d)] = act(best)
    return Strategy(form.name, d_stage, y_stage)


# ---------------------------------------------------------------------------
# Online algorithms
# ---------------------------------------------------------------------------

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
        if arr.shape[0] == 0:
            raise EstimationError("empty run")
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

    @staticmethod
    def _terminal(arr: np.ndarray, window: int) -> float:
        _check_integer(window, "window")
        if window < 1:
            raise EstimationError(f"terminal window {window} must be at least 1")
        if arr.size == 0:
            raise EstimationError("empty run")
        return float(arr[:, -window:].mean())

    def terminal_mean_reward(self, window: int = 500) -> float:
        return self._terminal(self.reward, window)

    def terminal_oap(self, window: int = 500) -> float:
        return self._terminal(self.oap, window)

    def final_regret(self) -> tuple[float, float, float]:
        if self.cumulative_regret.size == 0:
            raise EstimationError("empty run")
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

    ``form`` is the strategy form the algorithm learns within: its
    realizability gates the run, and its ``final`` says how the arm is
    played ("fix_y" fixes it as input to the reward only, "write" erases
    and writes the decision, which also fixes D's input). ``d_stage``
    picks the input fixed into D before the reward decision: "none" (D
    is left alone), "uniform" (one ``rng.integers`` draw) or "thompson"
    (a posterior per (z, x', x'')). ``arm_key`` names the solver cell of
    each reward arm from (z, x', x'', d, x), and ``hot_cell`` the
    observational cell whose exact mean pins that arm (never drawn,
    never updated), or None."""

    form: StrategyForm
    d_stage: str
    arm_key: Callable[..., tuple]
    hot_cell: Callable[..., tuple | None]


def _no_hot_cell(z, xn, x2, d, x):
    return None


_POLICIES = {
    "ts": _Policy(TIERS["int"], "none", lambda z, xn, x2, d, x: (x,), _no_hot_cell),
    # (z, x', d) is opaque context: the D-input means nothing to this learner
    "ts-aug": _Policy(TIERS["opt"], "uniform", lambda z, xn, x2, d, x: (z, xn, d, x),
                      _no_hot_cell),
    "ts-ett": _Policy(TIERS["ett"], "none", lambda z, xn, x2, d, x: (z, xn, x),
                      lambda z, xn, x2, d, x: (z, x) if x == xn else None),
    "ts-opt": _Policy(TIERS["opt"], "thompson", lambda z, xn, x2, d, x: ("Y", z, xn, x2, d, x),
                      lambda z, xn, x2, d, x: (z, x, d) if x == xn == x2 else None),
}

ALGORITHMS = tuple(_POLICIES)


class _Responses:
    """What each selected unit does under one policy's protocol, and what
    the round scores. A unit's outcome depends only on its exogenous row,
    so ``add_row(i)`` reads it off ``ExactTables.rows[i]`` the first time
    row i is selected, and later rounds look it up. ``select_rows`` and
    ``ExactTables.rows`` index one row space, ``compile().rows``, so one
    memo serves all epochs. The metric lists hold one entry per (row,
    D-input, arm) in build order.

    Rows hold no solver keys: ``add_row`` gives each key (a D-stage cell
    or an arm cell) a small integer id the first time it meets it, and
    ``keys[id]`` names it. Ids are shared by all epochs, so the epoch
    loop can keep its posteriors in lists indexed by id."""

    def __init__(self, problem: MabProblem, tables: ExactTables, policy: _Policy):
        self.problem = problem
        self.tables = tables
        self.policy = policy
        self.d_inputs = (None,) if policy.d_stage == "none" else problem.arms
        self.rows: dict[int, tuple] = {}
        self.keys: list[tuple] = []  # id -> solver key
        self._ids: dict[tuple, int] = {}
        self.regret: list[float] = []
        self.reward: list[float] = []
        self.oap: list[float] = []
        self._optimal: dict[tuple, tuple[bool, ...]] = {}

    def _id(self, key: tuple) -> int:
        i = self._ids.get(key)
        if i is None:
            i = self._ids[key] = len(self.keys)
            self.keys.append(key)
        return i

    def add_row(self, i: int) -> tuple:
        """Score compiled row ``i`` under every D-input and arm. Returns
        (D-stage key ids, one (arm cells, rewards, metric offset) branch
        per D-input); an arm cell is (key id, pin), where pin is the
        hot-start mean or None."""
        p, policy, tables = self.problem, self.policy, self.tables
        _, core, z, xn, _, d_x, y_x = tables.rows[i]
        oracle = tables.oracle_value(core)
        rewards = tuple(y_x[x] for x in p.arms)
        branches = []
        for x2 in self.d_inputs:
            d = None if x2 is None else d_x[x2]
            cells = []
            for x in p.arms:
                hot = policy.hot_cell(z, xn, x2, d, x)
                cells.append((self._id(policy.arm_key(z, xn, x2, d, x)),
                              None if hot is None else tables.obs_mean(hot)))
            branches.append((tuple(cells), rewards, len(self.reward)))
            for x, ok in zip(p.arms, self._optimal_arms(z, xn, x2, d)):
                mean = tables.reward_mean(x, core)
                self.regret.append(oracle - mean)
                self.reward.append(mean)
                self.oap.append(1.0 if ok else 0.0)
        d_ids = ()
        if policy.d_stage == "thompson":
            d_ids = tuple(self._id(("D", z, xn, x2)) for x2 in self.d_inputs)
        row = self.rows[i] = (d_ids, tuple(branches))
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
                d_input = x if x2 is None and self.policy.form.final == "write" else x2
                flags.append(t.stage1_value(z, xn, d_input) >= top and mean >= best - VALUE_TOL)
            self._optimal[key] = tuple(flags)
        return self._optimal[key]


def _play_epoch(
    policy: _Policy,
    responses: _Responses,
    experiment: Experiment,
    horizon: int,
    rng: np.random.Generator,
) -> list[int]:
    """One epoch of ``horizon`` rounds; returns each round's index into
    the metric lists. Units are selected in one block. The posteriors
    start at Beta(1, 1) and sit in two flat lists, ``alpha`` and ``beta``,
    indexed by the memo's key ids and extended when a new row adds ids;
    a round reads its row's ids and does no keyed lookup. Draws and
    updates come in the order a unit-at-a-time protocol would make them,
    with the arithmetic of one Beta-Bernoulli posterior per arm key (the
    tests hold this loop to a reference solver keyed by tuples); each
    argmax keeps the first maximum, as ``max`` does."""
    draw = rng.beta
    thompson = policy.d_stage == "thompson"
    uniform = policy.d_stage == "uniform"
    rows, keys = responses.rows, responses.keys
    alpha = [1.0] * len(keys)
    beta = [1.0] * len(keys)
    played = []
    for i in experiment.select_rows(horizon).tolist():
        row = rows.get(i)
        if row is None:
            row = responses.add_row(i)
            grow = [1.0] * (len(keys) - len(alpha))
            alpha += grow
            beta += grow
        d_ids, branches = row
        j = 0
        if thompson:
            top = -1.0  # below every score: draws and pins lie in [0, 1]
            for k, c in enumerate(d_ids):
                s = draw(alpha[c], beta[c])
                if s > top:
                    j, top = k, s
        elif uniform:
            j = int(rng.integers(len(branches)))
        cells, rewards, offset = branches[j]
        a, top = 0, -1.0
        for k, (c, pin) in enumerate(cells):
            s = draw(alpha[c], beta[c]) if pin is None else pin
            if s > top:
                a, top = k, s
        y = rewards[a]
        if thompson:
            c = d_ids[j]
            alpha[c] += y
            beta[c] += 1.0 - y
        c, pin = cells[a]
        if pin is None:
            alpha[c] += y
            beta[c] += 1.0 - y
        played.append(offset + a)
    return played


def run_epochs(
    algo: str,
    problem: MabProblem,
    horizon: int,
    epochs: int,
    seed: int | np.random.SeedSequence | None,
    tables: ExactTables | None = None,
) -> RunMetrics:
    """Run one algorithm for ``epochs`` independent epochs of ``horizon``
    rounds, each starting from fresh Beta(1, 1) posteriors. Epoch e uses
    the e-th spawn of the master seed, so results are reproducible and
    epochs could run in parallel. ``tables`` must be built for
    ``problem``. A bool or non-integral ``horizon`` or ``epochs``, and a
    seed numpy would refuse, raise ``EstimationError``."""
    if algo not in ALGORITHMS:
        raise EstimationError(f"unknown algorithm {algo!r}; pick from {ALGORITHMS}")
    _check_integer(horizon, "horizon")
    _check_integer(epochs, "epochs")
    _check_seed(seed)
    if horizon < 0 or epochs < 0:
        raise EstimationError(f"horizon {horizon} and epochs {epochs} must be non-negative")
    policy = _POLICIES[algo]
    tables = _tables_for(problem, tables)
    check_strategy_realizable(problem, policy.form)
    responses = _Responses(problem, tables, policy)
    played = np.zeros((epochs, horizon), dtype=np.int64)
    seconds = np.zeros(epochs)
    master = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    for e, ss in enumerate(master.spawn(epochs)):
        start = time.perf_counter()
        rng = np.random.Generator(np.random.PCG64(ss.spawn(1)[0]))
        experiment = Experiment(problem.model, seed=ss)
        played[e] = _play_epoch(policy, responses, experiment, horizon, rng)
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
