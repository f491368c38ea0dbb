"""Physically faithful simulation of experimental actions on units.

A unit is one episode of the system: a hidden exogenous draw plus the
state of its mechanisms. The simulator enforces the single-use
constraint — each mechanism fires at most once per unit — and the two
flavors of randomization:

* whole-variable randomization erases the unit's own mechanism for the
  variable and substitutes the drawn value everywhere;
* input randomization fixes the drawn value only as input to the chosen
  children, leaving the natural mechanism intact and readable.

Nested input randomizations of one variable are legal; on shared
children the one with the smaller target set wins, and any of them
beats a whole-variable randomization.

Mechanisms fire lazily: reading a variable fires exactly the ancestors
needed to produce it, with memoization, so agents need not act in
topological order. Eager firing would only differ on malformed action
sequences that a realization plan never produces.

Randomization draws uniformly from the variable's domain, as the
agent's coin does, unless the caller writes a value.

One executor, ``draw_plan_batch``, takes every batch as a plan.
Observational and interventional sampling are its two simplest plans:
``sample_observational`` reads every variable under a plan with no
randomization, and ``sample_interventional`` tags ``Rand(x)`` with
each requested value. The executor samples the exact law of the
unit-at-a-time procedure (select a unit, draw every randomization
uniformly, keep the unit only if each draw equals its required value)
without drawing the units it would throw away:

* Acceptance depends only on the uniform draws, which are independent
  of the unit's exogenous assignment and of every other unit. So the
  kept units' assignments are i.i.d. draws from the exogenous law, and
  the executor selects exactly n of them (``select_rows(n)``, indices
  into ``model.compile().rows``).
* Each unit is accepted independently with p = 1 / prod |dom| over the
  performed randomizations, so the units drawn up to and including one
  acceptance are Geometric(p), and a sample's run of rejected units is
  Geometric(p) - 1. One ``geometric(p, n)`` call gives every run, and
  ``rejected_units`` is their sum.
* The cap raises exactly when the unit-at-a-time procedure would: once
  some sample's run reaches ``MAX_REJECTIONS``.

An accepted unit's draws equal the required values, so its output row
depends only on its exogenous assignment ``u``: it is row ``u`` of the
model's compiled form under the plan's regime (``plan_regime``), the
per-edge entries the performed randomizations put in place. The
compiled engine evaluates the rows, one memoized column per read
variable, and the executor indexes those columns by the kept units.
The constraints a unit enforces (single use, containment, targets,
action kinds) are properties of the action sequence: ``plan_regime``
checks them on the plan with a unit's own checks, and no batch builds
a unit. ``Unit`` stays the one per-row evaluator, for the benchmark's
unit probes and as the oracle: the tests hold the executor's rows and
the exact engine's term values to units that perform the same
randomizations with their values written, and the tests' reference
``execute_plan`` is the unit-at-a-time procedure.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    ActionError, ContainmentViolation, EstimationError, FCEViolation, ModelError, QueryError,
)
from .graphs import CausalDiagram, Value
from .models import ScmModel
from .queries import CtfQuery, query, response
from .realizability import (
    CTF_RAND,
    RAND,
    Action,
    ActionSet,
    RealizationPlan,
    ctf_rand_action,
    overlap_without_nesting,
    rand_action,
    read_action,
    select,
)

FIRED = "fired"
ERASED = "erased"

# rejected units in a row after which one sample gives up
MAX_REJECTIONS = 10**6


class _Draw:
    """The default of ``Unit.rand``/``ctf_rand``: draw uniformly. A
    private object, so that every domain value (``None`` included) can
    be written."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "<draw>"


_DRAW = _Draw()


def _check_known(diagram: CausalDiagram, v: str) -> None:
    if v not in diagram:
        raise ActionError(f"unknown variable {v!r}")


def _check_allowed(actions: ActionSet | None, build: Callable[..., Action], *args) -> None:
    """Refuse the action ``build(*args)`` unless ``actions`` holds it;
    with no action set, nothing is built."""
    if actions is not None and (action := build(*args)) not in actions:
        raise ActionError(f"{action} is not in the feasible action set")


def _check_rand(x: str, status: Mapping[str, str]) -> None:
    """Refuse ``Rand(x)`` once x's mechanism is in ``status``, fired or erased."""
    if x in status:
        raise FCEViolation(
            f"mechanism for {x!r} already {status[x]}; a unit undergoes each "
            "mechanism at most once"
        )


def _check_ctf_rand(
    diagram: CausalDiagram, actions: ActionSet | None, x: str, targets: frozenset[str],
    status: Mapping[str, str], earlier: Sequence[tuple[frozenset[str], object]],
) -> None:
    """Refuse ``CtfRand(x->targets)`` after x's input randomizations
    ``earlier``, (targets, value) pairs, with the fired and erased
    mechanisms in ``status``, as a unit does."""
    children = set(diagram.children(x))
    if not targets <= children:
        raise ActionError(f"targets {sorted(targets - children)} are not children of {x!r}")
    _check_allowed(actions, ctf_rand_action, x, targets)
    if any(existing == targets for existing, _ in earlier):
        raise FCEViolation(
            f"input randomization of {x!r} toward {sorted(targets)} was "
            "already performed on this unit"
        )
    for c in sorted(targets):
        if c in status:
            raise FCEViolation(
                f"mechanism for {c!r} is already {status[c]}; it cannot "
                f"receive a new input for {x!r}"
            )
    for existing, _ in earlier:
        if overlap_without_nesting(existing, targets):
            raise ContainmentViolation(
                f"targets {sorted(targets)} overlap existing randomization "
                f"{sorted(existing)} of {x!r} without nesting"
            )


class Unit:
    """One selected unit: hidden exogenous assignment plus mechanism
    state. Agent-facing methods are read/rand/ctf_rand, each refused
    when an action set is given and lacks its action; the exogenous
    draw is exposed only through peek_exogenous, which is test and
    metrics instrumentation, not part of the acting agent's view."""

    __slots__ = (
        "_model", "_actions", "_u", "_rng",
        "_status", "_values", "_overrides",
    )

    def __init__(
        self,
        model: ScmModel,
        u: tuple,
        rng: np.random.Generator,
        actions: ActionSet | None = None,
    ):
        self._model = model
        self._actions = actions
        self._u = u
        self._rng = rng
        self._status: dict[str, str] = {}  # v -> FIRED or ERASED; absent is unfired
        self._values: dict[str, Value] = {}
        self._overrides: dict[str, list[tuple[frozenset[str], Value]]] = {}

    # -- internals ---------------------------------------------------------

    def _input_value(self, parent: str, child: str) -> Value:
        best: tuple[int, Value] | None = None
        for targets, value in self._overrides.get(parent, ()):
            if child in targets and (best is None or len(targets) < best[0]):
                best = (len(targets), value)
        if best is not None:
            return best[1]
        return self._fire(parent)

    def _fire(self, v: str) -> Value:
        if v in self._status:  # fired or erased
            return self._values[v]
        inputs = {
            p: self._input_value(p, v) for p in self._model.mechanisms[v].parents
        }
        value = self._model.evaluate(v, inputs, self._u)
        self._status[v] = FIRED
        self._values[v] = value
        return value

    def _value(self, x: str, value: Value) -> Value:
        """The value to randomize x to: ``value`` if written, which must
        lie in x's domain, else a uniform draw from the domain."""
        domain = self._model.diagram.domains[x]
        if value is _DRAW:
            return domain[int(self._rng.integers(len(domain)))]
        if value not in domain:
            raise ActionError(f"{value!r} is not in the domain of {x!r}")
        return value

    # -- physical actions ----------------------------------------------------

    def read(self, v: str) -> Value:
        """Measure the realized value, firing pending ancestor mechanisms.
        Re-reading returns the cached value; nothing re-fires."""
        _check_known(self._model.diagram, v)
        _check_allowed(self._actions, read_action, v)
        return self._fire(v)

    def rand(self, x: str, value: Value = _DRAW) -> Value:
        """Erase the unit's mechanism for x and substitute ``value`` (by
        default a uniform draw), which every child and later read of x
        will see."""
        _check_known(self._model.diagram, x)
        _check_allowed(self._actions, rand_action, x)
        _check_rand(x, self._status)
        value = self._value(x, value)
        self._status[x] = ERASED
        self._values[x] = value
        return value

    def ctf_rand(
        self,
        x: str,
        targets: Iterable[str],
        value: Value = _DRAW,
    ) -> Value:
        """Fix ``value`` (by default a uniform draw) as input to the
        target children of x. The natural mechanism of x is untouched;
        reading x still yields the unit's own value."""
        _check_known(self._model.diagram, x)
        tset = frozenset(targets)
        if not tset:
            raise ActionError("input randomization needs at least one target")
        earlier = self._overrides.get(x, ())
        _check_ctf_rand(self._model.diagram, self._actions, x, tset, self._status, earlier)
        value = self._value(x, value)
        self._overrides.setdefault(x, []).append((tset, value))
        return value

    # -- instrumentation -----------------------------------------------------

    def peek_exogenous(self) -> dict[str, Value]:
        """Hidden exogenous assignment; for metrics and tests only."""
        return dict(zip(self._model.exogenous_vars, self._u))


class Experiment:
    """Shared context for drawing units against one hidden model: the
    feasible action set and a master seed fanned out per unit. Units are
    selected from the model's one row space, ``support``, the rows of
    ``model.compile()``, by the model's cached ``selection_table()``; a
    ``Unit`` from ``new_unit`` evaluates mechanisms on its row and checks
    the actions performed on it. ``draw_plan_batch`` checks its plan in
    ``plan_regime`` and only selects rows here. Building an experiment
    compiles the model, so a model that fails to compile, or has no row
    of nonzero weight, raises ``ModelError`` here."""

    def __init__(
        self,
        model: ScmModel,
        actions: ActionSet | None = None,
        seed: int | np.random.SeedSequence | None = None,
    ):
        self.model = model
        self.actions = actions
        ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        select_ss, shared_ss = ss.spawn(2)
        self._select_rng = np.random.Generator(np.random.PCG64(select_ss))
        # one device stream shared by this experiment's units keeps unit
        # creation cheap
        self._shared_rng = np.random.Generator(np.random.PCG64(shared_ss))
        # exogenous assignments of nonzero weight, in exogenous_support() order
        self.support = model.compile().rows
        if not self.support:
            raise ModelError("no exogenous assignment has nonzero weight")
        self._cumulative = model.selection_table()

    def select_rows(self, k: int) -> np.ndarray:
        """Select k fresh units at once: their indices into ``support``,
        the same stream as k calls to ``new_unit``. A draw past the
        rounded total selects the last row."""
        picked = np.searchsorted(self._cumulative, self._select_rng.random(k), side="right")
        return np.minimum(picked, len(self.support) - 1)

    def unit_at(self, row: int) -> Unit:
        """A unit with the exogenous assignment ``support[row]``, all
        mechanisms unfired, acting through this experiment's device
        stream and action set."""
        return Unit(self.model, self.support[row], self._shared_rng, self.actions)

    def new_unit(self) -> Unit:
        """Select a fresh unit: exogenous draw from the population, all
        mechanisms unfired. The action set, if any, must hold ``Select``."""
        _check_allowed(self.actions, select)
        return self.unit_at(int(self.select_rows(1)[0]))


# ---------------------------------------------------------------------------
# Plan execution and batches
# ---------------------------------------------------------------------------

@dataclass
class SampleBatch:
    """Rows of joint values aligned with the query's terms."""

    query: CtfQuery
    rows: list[tuple[Value, ...]] = field(default_factory=list)
    rejected_units: int = 0

    def __len__(self) -> int:
        return len(self.rows)

    def empirical(self) -> dict[tuple[Value, ...], float]:
        out: dict[tuple[Value, ...], float] = {}
        for r in self.rows:
            out[r] = out.get(r, 0.0) + 1.0
        n = max(len(self.rows), 1)
        return {k: v / n for k, v in out.items()}


def _cap_error(plan: RealizationPlan) -> EstimationError:
    accept = plan.acceptance_probability()
    return EstimationError(
        f"exceeded {MAX_REJECTIONS} rejected units for one sample; "
        f"uniform-draw acceptance probability is about {accept:.3g}"
    )


def _check_integer(n: object, name: str = "n") -> None:
    """Refuse a count that is a bool or not an integer."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise EstimationError(f"{name} must be an integer, got {n!r}")


def plan_regime(plan: RealizationPlan, model: ScmModel) -> frozenset:
    """What the plan's performed randomizations, with their required
    values written, do to the mechanisms: the regime of
    ``CompiledScm.values``, a frozenset of ((var, child), code) entries.
    ``Rand(x)`` gives the full entry ((x, None), code). ``CtfRand(x->T)``
    gives ((x, c), code) for each child c in T, and on a child that
    several of them target the one with the smallest target set wins,
    as in ``Unit``; a per-edge entry beats a full one in the compiled
    engine, so any ``CtfRand`` beats a performed ``Rand``.

    It is the one check of a plan, and builds no unit: after each
    action's kind, variable and required value, it refuses, with a
    unit's own checks, what a ``Unit`` would refuse that performs the
    actions in order and then reads the terms."""
    diagram = model.diagram
    interventions = plan.required_actions()
    codes = []
    for action, required in interventions:
        if action.kind not in (RAND, CTF_RAND):
            raise ActionError(f"plan contains non-randomizing {action}")
        _check_known(diagram, action.var)
        domain = diagram.domains[action.var]
        if required not in domain:
            raise EstimationError(f"{action} cannot draw required value {required!r}")
        codes.append(domain.index(required))
    status: dict[str, str] = {}
    overrides: dict[str, list[tuple[frozenset[str], int]]] = {}
    regime = {}
    for (action, _), code in zip(interventions, codes):
        x = action.var
        if action.kind == RAND:
            _check_rand(x, status)
            status[x] = ERASED
            regime[(x, None)] = code
        else:  # CTF_RAND
            earlier = overrides.setdefault(x, [])
            _check_ctf_rand(diagram, None, x, action.targets, status, earlier)
            earlier.append((action.targets, code))
    for t in plan.query.terms:
        _check_known(diagram, t.variable)
    for x, performed in overrides.items():
        # target sets that share a child are nested: the smallest is written last
        for targets, code in sorted(performed, key=lambda tc: -len(tc[0])):
            regime.update(((x, c), code) for c in targets)
    return frozenset(regime.items())


def _plan_rows(
    plan: RealizationPlan, model: ScmModel, regime: frozenset, kept: np.ndarray
) -> list[tuple]:
    """The row a kept unit reads on each compiled row in ``kept``: every
    term's variable under the plan's ``regime`` (``plan_regime``), as
    domain values. Each distinct row is built once, and its units share
    the tuple."""
    compiled = model.compile()
    present = np.zeros(len(compiled.rows), dtype=bool)
    present[kept] = True
    distinct = np.flatnonzero(present)
    columns = []
    for t in plan.query.terms:
        domain = np.fromiter(model.diagram.domains[t.variable], dtype=object)
        columns.append(domain[compiled.values(t.variable, regime)[distinct]].tolist())
    by_row = np.empty(len(compiled.rows), dtype=object)
    tuples = zip(*columns) if columns else [()] * len(distinct)
    by_row[distinct] = np.fromiter(tuples, dtype=object, count=len(distinct))
    return by_row[kept].tolist()


def draw_plan_batch(
    plan: RealizationPlan,
    model: ScmModel,
    n: int,
    seed: int | np.random.SeedSequence | None = None,
) -> SampleBatch:
    """N i.i.d. samples of the plan's query, from the exact law of the
    rejection procedure (see the module docstring): select units,
    randomize them by uniform draws as ``plan.required_actions()`` says,
    keep a unit only if every draw equals its required value, and read
    the variables of the query's terms from the kept ones.

    The plan's regime, ``plan_regime(plan, model)``, is built once and
    checks the plan before anything is drawn; no ``Unit`` is built. The
    kept units' rows are read off ``model.compile()`` under that regime:
    each read variable's memoized code column, indexed by the kept
    units' compiled rows.
    Rows hold the variables' domain values. A bool or non-integral
    ``n`` raises ``EstimationError``; ``n <= 0`` gives an empty batch.

    Only the kept units are drawn: n rows selected from the exogenous
    law, and, when some randomization can miss (acceptance p < 1), one
    Geometric(p) draw per sample, the units drawn up to and including
    its acceptance. ``rejected_units`` is their sum less n, the units
    the procedure throws away. The cap raises once some sample's run
    of rejected units reaches ``MAX_REJECTIONS``."""
    _check_integer(n)
    batch = SampleBatch(plan.query)
    if n <= 0:
        return batch
    regime = plan_regime(plan, model)
    experiment = Experiment(model, seed=seed)
    p = plan.acceptance_probability()
    kept = experiment.select_rows(n)
    rejected = 0
    if p < 1.0:
        runs = experiment._shared_rng.geometric(p, n)
        if int(runs.max()) - 1 >= max(MAX_REJECTIONS, 1):
            raise _cap_error(plan)
        rejected = int(runs.sum()) - n

    batch.rows = _plan_rows(plan, model, regime, kept)
    batch.rejected_units = rejected
    return batch


def estimate(batch: SampleBatch, event: Sequence[Value | None]) -> float:
    """Empirical frequency of the event: the mean over rows of the
    product of per-term indicators. ``None`` entries match anything."""
    if not batch.rows:
        raise EstimationError("cannot estimate from an empty batch")
    event = tuple(event)
    if len(event) != len(batch.query.terms):
        raise EstimationError("event arity does not match the query terms")
    hits = 0
    for row in batch.rows:
        if all(e is None or v == e for v, e in zip(row, event)):
            hits += 1
    return hits / len(batch.rows)


# ---------------------------------------------------------------------------
# Observational / interventional sampling and their estimators
# ---------------------------------------------------------------------------

def sample_observational(
    model: ScmModel,
    n: int,
    seed: int | np.random.SeedSequence | None = None,
) -> SampleBatch:
    """Select units and read every variable naturally: the plan with no
    randomization."""
    q = query(*[response(v) for v in model.diagram.variables])
    return draw_plan_batch(RealizationPlan(q, model.diagram, ()), model, n, seed)


def sample_interventional(
    model: ScmModel,
    do: Mapping[str, Value],
    n: int,
    seed: int | np.random.SeedSequence | None = None,
    outcome: Sequence[str] | None = None,
) -> SampleBatch:
    """Randomize each regime variable, keep units whose draws hit the
    requested values, and read the outcome variables (by default, when
    ``outcome`` is None, every variable outside the regime; an empty
    outcome, given or left when ``do`` fixes every variable, raises
    ``QueryError``): the plan that tags ``Rand(x)``
    with ``do[x]``, in topological order."""
    diagram = model.diagram
    for x in do:
        if x not in diagram:
            raise QueryError(f"unknown regime variable {x!r}")
    if outcome is None:
        outcome = [v for v in diagram.variables if v not in do]
    if not outcome:
        raise QueryError("an interventional sample needs at least one outcome variable")
    outcome = tuple(outcome)
    for v in outcome:
        if v not in diagram:
            raise QueryError(f"unknown outcome variable {v!r}")
    q = query(*[response(v, dict(do)) for v in outcome])
    tags = tuple((rand_action(x), do[x]) for x in diagram.topological_order() if x in do)
    return draw_plan_batch(RealizationPlan(q, diagram, tags), model, n, seed)
