"""Reference implementations that the tests hold the package to.

Each is the slow, plain form of something the package does fast, or a
checker the package itself never needs:

* ``brute_force_optimal`` enumerates the bandit's two-map normal form
  and certifies the value of ``bandits.best_strategy``'s opt tier (the
  per-key argmax over ``ExactTables``).
* ``ThompsonSolver`` keeps Beta posteriors in a dict keyed by tuples;
  the epoch loop ``bandits._play_epoch`` keeps them in flat lists indexed
  by key ids and must play the same arms.
* ``potential_response`` evaluates one term on one exogenous row with
  a ``simulate.Unit``: it performs the term's regime entries with their
  values written and reads the variable. The compiled engine
  (``engine.exact_rows`` and the exact probabilities built on it) must
  give the same value on every row. ``natural_values`` forward-simulates
  every variable of one row in topological order, the independent
  oracle for a unit's lazy firing.
* ``execute_plan`` runs a plan one unit at a time, performing each
  action through ``perform``; the executor ``simulate.draw_plan_batch``,
  which draws only the kept units and each sample's run of rejected
  units, must draw from the same law. Both check the plan in
  ``simulate.plan_regime`` before drawing; a ``Unit`` that performs the
  plan is the oracle that check is held to.
* ``criterion_witness`` scans every pair of counterfactual ancestors,
  built as responses, for one variable under two regimes;
  ``realizable_by_criterion`` compares (variable, regime) keys and
  builds only the pair it returns, which must be the same pair.
* ``warn_dropped_subscripts`` warns a dropped regime entry as the
  package did before ``queries.warn_dropped`` learned to build no text
  where the warnings filters ignore it: every text built, every
  ``warnings.warn`` called. Each entry point must record and raise
  the same warnings under every filter setting.
* ``verify_counterfactual_mediator`` (with ``inverse_image_classes``)
  checks the mediator conditions on an explicit expanded SCM by full
  enumeration: the semantics behind ``mediators.ctf_procedures``, which
  works on structure only. ``expanded_mediator_model`` is its fixture.
* ``diagram_to_dict``, ``model_to_dict`` and ``expanded_to_dict`` write
  the fixture layout of ``ctfrealize.fixtures``, whose ``*_from_dict``
  readers must give the fixture back.

Test modules import them with ``from reference import ...``.
"""

from __future__ import annotations

import itertools
import os
import sys
import warnings
from typing import Any, Iterable

import numpy as np

import ctfrealize
from ctfrealize import simulate
from ctfrealize.bandits import (
    VALUE_TOL,
    ExactTables,
    MabProblem,
    Strategy,
    _tables_for,
    act_fix_y,
    evaluate_strategy_exact,
    fix_d,
)
from ctfrealize.errors import EstimationError
from ctfrealize.graphs import CausalDiagram, Value
from ctfrealize.mediators import ExpandedDiagram
from ctfrealize.models import Mechanism, ScmModel, independent_exogenous
from ctfrealize.queries import (
    CtfQuery,
    PotentialResponse,
    RegimeEntry,
    counterfactual_ancestors,
    response,
    split_regime,
)
from ctfrealize.realizability import RAND, Action, RealizationPlan
from ctfrealize.simulate import _DRAW, Experiment, Unit, _cap_error, plan_regime


# -- bandits ------------------------------------------------------------------

MAX_BRUTE_FORCE = 10**6


def brute_force_optimal(
    problem: MabProblem, tables: ExactTables | None = None
) -> tuple[Strategy, float]:
    """Exhaustive maximum over the two-map normal form: every mapping
    (z, x') -> fixed D-input crossed with every mapping (z, x', d) ->
    reward-input. Certifies the tier-opt value; ties break toward the
    lexicographically first mapping."""
    tables = _tables_for(problem, tables)
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
            strat = Strategy("normal-form", d_stage, y_stage)
            value = evaluate_strategy_exact(problem, strat, tables)
            if best is None or value > best[1] + VALUE_TOL:
                best = (strat, value)
    assert best is not None
    return best


class ThompsonSolver:
    """Beta-Bernoulli posterior per arm key, each starting at Beta(1, 1).

    The reference for the epoch loop: ``_play_epoch`` keeps the same
    posteriors in two flat lists indexed by the memo's key ids, and the
    tests require a loop that draws and updates through this solver,
    keyed by tuples, to play the same arms. Hot-started cells are never
    drawn or updated: they score with their exact observational mean."""

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


# -- per-row evaluation -------------------------------------------------------

def natural_values(model: ScmModel, u: tuple) -> dict[str, Value]:
    """Forward-simulate every endogenous variable for one u."""
    out: dict[str, Value] = {}
    for v in model.diagram.topological_order():
        out[v] = model.evaluate(v, out, u)
    return out


def potential_response(model: ScmModel, u: tuple, term: PotentialResponse) -> Value:
    """The term's value on the exogenous row u: a unit on u performs each
    regime entry with its value written (a full entry by ``rand``, a
    per-edge entry by ``ctf_rand`` toward its targets) and reads the
    term's variable. Nothing is drawn, so the unit has no generator.
    Per-edge entries go first: a unit refuses a new input into a
    mechanism that a full entry has already erased."""
    unit = Unit(model, u, None)
    for e in sorted(term.regime, key=RegimeEntry.is_full):
        if e.targets is None:
            unit.rand(e.var, e.value)
        else:
            unit.ctf_rand(e.var, e.targets, e.value)
    return unit.read(term.variable)


# -- plan execution -----------------------------------------------------------

def perform(unit: Unit, action: Action, value: Value = _DRAW) -> Value:
    """Perform a plan's ``Rand`` or ``CtfRand`` on the unit: draw
    uniformly, or write ``value``."""
    if action.kind == RAND:
        return unit.rand(action.var, value)
    return unit.ctf_rand(action.var, action.targets, value)


def execute_plan(
    plan: RealizationPlan, experiment: Experiment
) -> tuple[tuple[Value, ...], int]:
    """Draw one i.i.d. sample row for the plan's query.

    Units are selected from the experiment, randomized per the plan by
    uniform draws, discarded whenever a draw misses its required value,
    and read out. Returns the row (ordered like the query terms) and the
    number of discarded units. Raises once ``simulate.MAX_REJECTIONS``
    units in a row are discarded.
    """
    interventions = plan.required_actions()
    plan_regime(plan, experiment.model)
    rejected = 0
    while True:
        unit = experiment.new_unit()
        if all(perform(unit, action) == required for action, required in interventions):
            return tuple(unit.read(t.variable) for t in plan.query.terms), rejected
        rejected += 1
        if rejected >= simulate.MAX_REJECTIONS:
            raise _cap_error(plan)


# -- the realizability criterion ----------------------------------------------

def criterion_witness(
    q: CtfQuery, diagram: CausalDiagram
) -> tuple[PotentialResponse, PotentialResponse] | None:
    """The criterion's witness by a plain pairwise scan: the first i, then
    the first j > i, in ``counterfactual_ancestors`` order, whose
    responses share a variable under different regimes; None when no
    pair does."""
    ancestors = counterfactual_ancestors(q.normalized(diagram), diagram)
    for i, a in enumerate(ancestors):
        for b in ancestors[i + 1:]:
            if a.variable == b.variable and not a.same_response(b):
                return a, b
    return None


# -- dropped-subscript warnings -------------------------------------------------

# the package's files, and this one: frames the warnings skip
_SKIPPED = (os.path.dirname(ctfrealize.__file__) + os.sep, __file__)


def dropped_messages(t: PotentialResponse, dropped: Iterable[RegimeEntry]) -> tuple[str, ...]:
    """One warning text per regime entry dropped from ``t``."""
    term, w = str(t), t.variable
    return tuple([
        f"dropping irrelevant subscript {e.var}={e.value} from term {term}: "
        f"{e.var!r} is not an ancestor of {w!r}"
        for e in dropped
    ])


def warn_at_caller(messages: Iterable[str]) -> None:
    """Warn each message at the innermost frame outside the package and
    this file, always building the text and calling ``warnings.warn``."""
    frame, level = sys._getframe(2), 3  # the caller is in this file
    while frame is not None and frame.f_code.co_filename.startswith(_SKIPPED):
        frame, level = frame.f_back, level + 1
    for message in messages:
        warnings.warn(message, stacklevel=level)


def warn_dropped_subscripts(entry: str, q: CtfQuery, diagram: CausalDiagram) -> None:
    """The dropped-subscript warnings of one entry point, called for the
    first time on ``q``, with their texts always built: ``realize`` and
    ``ctf_realize`` split each distinct term in query order and warn its
    dropped entries before the next term is split; ``normalized`` and
    ``realizable_by_criterion`` split every term, then warn every dropped
    entry in term order. An invalid term raises its ``QueryError``."""
    if entry in ("realize", "ctf_realize"):
        for t in dict.fromkeys(q.terms):
            warn_at_caller(dropped_messages(t, split_regime(t, diagram)[1]))
    else:
        messages = [dropped_messages(t, split_regime(t, diagram)[1]) for t in q.terms]
        warn_at_caller(itertools.chain(*messages))


# -- mediator conditions on an explicit expanded SCM --------------------------

def inverse_image_classes(model: ScmModel, w: str, x: str) -> dict[Value, set[Value]] | None:
    """Partition of w's realized values by the x-value that produced
    them, or None when some w value arises from two different x values
    (the mechanism is not invertible to x)."""
    m = model.mechanisms[w]
    if tuple(m.parents) != (x,):
        return None
    classes: dict[Value, Value] = {}  # w value -> unique x value

    exo_doms = [model.exogenous_domains[e] for e in m.exogenous]
    for xv in model.diagram.domains[x]:
        for evals in itertools.product(*[tuple(d) for d in exo_doms]):
            wv = m((xv,), evals)
            if wv in classes and classes[wv] != xv:
                return None
            classes[wv] = xv
    out: dict[Value, set[Value]] = {}
    for wv, xv in classes.items():
        out.setdefault(xv, set()).add(wv)
    return out


def verify_counterfactual_mediator(
    model: ScmModel, w: str, x: str, y: str
) -> bool:
    """True iff, in this expanded SCM, w mediates x for y: w's mechanism
    inverts to x, y's mechanism sees w only through the inverse-image
    class, and (checked by full enumeration) forcing any w in x's class
    onto y reproduces forcing x itself, for every exogenous assignment
    and every setting of y's other parents."""
    d = model.diagram
    if w not in d or x not in d or y not in d:
        return False
    if w not in d.children(x) or y not in d.children(w):
        return False

    classes = inverse_image_classes(model, w, x)
    if classes is None:
        return False

    my = model.mechanisms[y]
    others = tuple(p for p in my.parents if p != w)
    other_doms = [d.domains[p] for p in others]
    exo_doms = [model.exogenous_domains[e] for e in my.exogenous]

    def y_value(wv, other_vals, evals):
        assign = dict(zip(others, other_vals))
        assign[w] = wv
        return my(tuple(assign[p] for p in my.parents), evals)

    # y depends on w only through its class
    for ws in classes.values():
        ws = sorted(ws, key=repr)
        for wa, wb in zip(ws, ws[1:]):
            for other_vals in itertools.product(*[tuple(t) for t in other_doms]):
                for evals in itertools.product(*[tuple(t) for t in exo_doms]):
                    if y_value(wa, other_vals, evals) != y_value(wb, other_vals, evals):
                        return False

    # forcing w in x's class equals forcing x into w, under every u and
    # every fixed setting of y's other parents; when x is one of them, y's
    # direct x input keeps its fixed value
    into_y = frozenset({y})
    for u, p in model.exogenous_support():
        for xv, ws in sorted(classes.items(), key=lambda kv: repr(kv[0])):
            for other_vals in itertools.product(*[tuple(t) for t in other_doms]):
                fixed = dict(zip(others, other_vals))
                regime = [RegimeEntry(q, v, into_y) for q, v in fixed.items()]
                via_x = potential_response(model, u, PotentialResponse(
                    y, (RegimeEntry(x, xv, frozenset({w})), *regime)
                ))
                for wv in sorted(ws, key=repr):
                    via_w = potential_response(model, u, response(y, {w: wv, **fixed}))
                    if via_w != via_x:
                        return False
    return True


def expanded_mediator_model() -> ScmModel:
    """Explicit expanded SCM with two chained copies of X: W1 feeds Z and
    W2; W2 feeds T and B. Used to check the mediator conditions and the
    forcing equivalence by enumeration."""
    d = CausalDiagram(
        ["X", "W1", "W2", "Y", "Z", "T", "B"],
        directed_edges=[
            ("X", "Y"), ("X", "W1"),
            ("W1", "Z"), ("W1", "W2"),
            ("W2", "T"), ("W2", "B"),
        ],
    )
    names, doms, dist = independent_exogenous(
        {"U_X": (0, 1), "U_Y": (0, 1), "U_Z": (0, 1), "U_T": (0, 1), "U_B": (0, 1)},
        {"U_X": (0.5, 0.5), "U_Y": (0.7, 0.3), "U_Z": (0.6, 0.4),
         "U_T": (0.8, 0.2), "U_B": (0.55, 0.45)},
    )
    mech = {
        "X": Mechanism.tabulate((), ("U_X",), (), ((0, 1),), lambda u: u),
        "W1": Mechanism.tabulate(("X",), (), ((0, 1),), (), lambda x: x),
        "W2": Mechanism.tabulate(("W1",), (), ((0, 1),), (), lambda w: w),
        "Y": Mechanism.tabulate(("X",), ("U_Y",), ((0, 1),), ((0, 1),),
                                lambda x, u: x ^ u),
        "Z": Mechanism.tabulate(("W1",), ("U_Z",), ((0, 1),), ((0, 1),),
                                lambda w, u: w | u),
        "T": Mechanism.tabulate(("W2",), ("U_T",), ((0, 1),), ((0, 1),),
                                lambda w, u: w ^ u),
        "B": Mechanism.tabulate(("W2",), ("U_B",), ((0, 1),), ((0, 1),),
                                lambda w, u: w ^ u),
    }
    return ScmModel(d, names, doms, dist, mech)


# -- fixture writers ----------------------------------------------------------

def diagram_to_dict(diagram: CausalDiagram, name: str = "") -> dict[str, Any]:
    doc: dict[str, Any] = {
        "variables": list(diagram.variables),
        "domains": {v: list(diagram.domains[v]) for v in diagram.variables},
        "edges": sorted([list(e) for e in diagram.directed_edges]),
        "bidirected": sorted(sorted(e) for e in diagram.bidirected_edges),
    }
    if name:
        doc = {"name": name, **doc}
    return doc


def model_to_dict(model: ScmModel, name: str = "") -> dict[str, Any]:
    doc = diagram_to_dict(model.diagram, name)
    doc["exogenous"] = {
        "variables": list(model.exogenous_vars),
        "domains": {u: list(model.exogenous_domains[u]) for u in model.exogenous_vars},
        "dist": [
            {"values": list(u), "p": p} for u, p in model.exogenous_support()
        ],
    }
    doc["mechanisms"] = {
        v: {
            "parents": list(m.parents),
            "exogenous": list(m.exogenous),
            "rows": [
                {"inputs": list(k), "value": val}
                for k, val in sorted(m.table.items(), key=lambda kv: repr(kv[0]))
            ],
        }
        for v, m in sorted(model.mechanisms.items())
    }
    return doc


def expanded_to_dict(expanded: ExpandedDiagram, name: str = "") -> dict[str, Any]:
    doc = diagram_to_dict(expanded.base, name)
    doc["expanded"] = {
        "mediators": [
            {
                "name": m.name,
                "parent": m.parent,
                "serves": sorted(m.served_children),
                "invertible": m.invertible,
                "randomizable": m.randomizable,
            }
            for m in expanded.mediators
        ],
        "elicit_natural": sorted(expanded.elicit_natural),
        "randomizable": sorted(expanded.randomizable),
    }
    return doc
