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
each requested value. The executor draws units in array blocks:
selection by ``searchsorted`` over the exogenous CDF, every uniform
draw of the block in one ``integers`` call, and acceptance as a
row-wise match of the draws against the required values. This is
exact, not an approximation. The draws are uniform and independent of
the unit, and an accepted unit's draws equal the required values, so
its output row depends only on its exogenous assignment ``u``: it is
row ``u`` of the model's compiled form under the plan's regime
(``plan_regime``), the per-edge entries the performed randomizations
put in place. The compiled engine evaluates the rows, one memoized
column per read variable, and the executor indexes those columns by
the kept units. One ``Unit`` per batch performs the plan, so the
plan's checks (single use, containment, targets, action kinds) run
on every batch. ``Unit`` stays the oracle the rows are held to, and
the unit-at-a-time procedure (select, draw, reject or read, one unit
after another) is the tests' reference ``execute_plan``, whose law
the block executor must draw from.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ActionError, ContainmentViolation, EstimationError, FCEViolation, QueryError
from .graphs import Value
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
)

UNFIRED = "unfired"
FIRED = "fired"
ERASED = "erased"

# rejected units in a row after which one sample gives up
MAX_REJECTIONS = 10**6
# units per array block of the rejection executor: caps its memory (a
# block holds one draw per unit and randomization) whatever the
# acceptance probability
MAX_BLOCK_UNITS = 1 << 16


class _Draw:
    """The default of ``Unit.rand``/``ctf_rand``: draw uniformly. A
    private object, so that every domain value (``None`` included) can
    be written."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "<draw>"


_DRAW = _Draw()


class Unit:
    """One selected unit: hidden exogenous assignment plus mechanism
    state. Agent-facing methods are read/rand/ctf_rand; the exogenous
    draw is exposed only through peek_exogenous, which is test and
    metrics instrumentation, not part of the acting agent's view."""

    __slots__ = (
        "_model", "_actions", "_u", "_rng",
        "_status", "_values", "_overrides", "_performed",
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
        self._status: dict[str, str] = {}
        self._values: dict[str, Value] = {}
        self._overrides: dict[str, list[tuple[frozenset[str], Value]]] = {}
        self._performed: set[tuple[str, frozenset[str]]] = set()  # CtfRand (x, targets)

    # -- internals ---------------------------------------------------------

    def status(self, v: str) -> str:
        return self._status.get(v, UNFIRED)

    def _input_value(self, parent: str, child: str) -> Value:
        best: tuple[int, Value] | None = None
        for targets, value in self._overrides.get(parent, ()):
            if child in targets and (best is None or len(targets) < best[0]):
                best = (len(targets), value)
        if best is not None:
            return best[1]
        return self._fire(parent)

    def _fire(self, v: str) -> Value:
        st = self.status(v)
        if st in (FIRED, ERASED):
            return self._values[v]
        inputs = {
            p: self._input_value(p, v) for p in self._model.mechanisms[v].parents
        }
        value = self._model.evaluate(v, inputs, self._u)
        self._status[v] = FIRED
        self._values[v] = value
        return value

    def _check_allowed(self, action) -> None:
        if self._actions is not None and action not in self._actions:
            raise ActionError(f"{action} is not in the feasible action set")

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
        if v not in self._model.diagram:
            raise ActionError(f"unknown variable {v!r}")
        return self._fire(v)

    def rand(self, x: str, value: Value = _DRAW) -> Value:
        """Erase the unit's mechanism for x and substitute ``value`` (by
        default a uniform draw), which every child and later read of x
        will see."""
        self._check_allowed(rand_action(x))
        st = self.status(x)
        if st != UNFIRED:
            raise FCEViolation(
                f"mechanism for {x!r} already {st}; a unit undergoes each "
                "mechanism at most once"
            )
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
        tset = frozenset(targets)
        if not tset:
            raise ActionError("input randomization needs at least one target")
        children = set(self._model.diagram.children(x))
        if not tset <= children:
            raise ActionError(
                f"targets {sorted(tset - children)} are not children of {x!r}"
            )
        self._check_allowed(ctf_rand_action(x, tset))
        key = (x, tset)
        if key in self._performed:
            raise FCEViolation(
                f"input randomization of {x!r} toward {sorted(tset)} was "
                "already performed on this unit"
            )
        for c in sorted(tset):
            st = self.status(c)
            if st != UNFIRED:
                raise FCEViolation(
                    f"mechanism for {c!r} is already {st}; it cannot "
                    f"receive a new input for {x!r}"
                )
        for existing, _ in self._overrides.get(x, ()):
            if overlap_without_nesting(existing, tset):
                raise ContainmentViolation(
                    f"targets {sorted(tset)} overlap existing randomization "
                    f"{sorted(existing)} of {x!r} without nesting"
                )
        value = self._value(x, value)
        self._overrides.setdefault(x, []).append((tset, value))
        self._performed.add(key)
        return value

    # -- instrumentation -----------------------------------------------------

    def peek_exogenous(self) -> dict[str, Value]:
        """Hidden exogenous assignment; for metrics and tests only."""
        return dict(zip(self._model.exogenous_vars, self._u))


class Experiment:
    """Shared context for drawing units against one hidden model: the
    feasible action set and a master seed fanned out per unit. Units are
    selected by the model's cached ``selection_table()``; a ``Unit``
    evaluates mechanisms and checks the actions performed on it."""

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
        self._count = 0
        self._table = model.selection_table()
        # exogenous assignments in model.exogenous_support() order
        self.support = self._table.rows

    def select_rows(self, k: int) -> np.ndarray:
        """Select k fresh units at once: their indices into ``support``,
        the same stream as k calls to ``new_unit``."""
        table = self._table
        picked = np.searchsorted(table.cumulative, self._select_rng.random(k), side="right")
        self._count += k
        return np.minimum(picked, table.last)

    def unit_at(self, row: int) -> Unit:
        """A unit with the exogenous assignment ``support[row]``, all
        mechanisms unfired, acting through this experiment's device
        stream and action set."""
        return Unit(self.model, self.support[row], self._shared_rng, self.actions)

    def new_unit(self) -> Unit:
        """Select a fresh unit: exogenous draw from the population, all
        mechanisms unfired."""
        return self.unit_at(int(self.select_rows(1)[0]))

    @property
    def units_drawn(self) -> int:
        return self._count


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


def _perform(unit: Unit, action: Action, value: Value = _DRAW) -> Value:
    if action.kind == RAND:
        return unit.rand(action.var, value)  # type: ignore[arg-type]
    if action.kind == CTF_RAND:
        return unit.ctf_rand(action.var, action.targets, value)  # type: ignore[arg-type]
    raise ActionError(f"plan contains non-randomizing {action}")


def _required_codes(
    model: ScmModel, interventions: Sequence[tuple[Action, Value]]
) -> list[int]:
    """Each required value's index in its variable's domain. A value
    outside the domain can never be drawn, so it raises."""
    codes = []
    for action, required in interventions:
        domain = model.diagram.domains[action.var]
        if required not in domain:
            raise EstimationError(f"{action} cannot draw required value {required!r}")
        codes.append(domain.index(required))
    return codes


def _cap_error(plan: RealizationPlan) -> EstimationError:
    accept = plan.acceptance_probability()
    return EstimationError(
        f"exceeded {MAX_REJECTIONS} rejected units for one sample; "
        f"uniform-draw acceptance probability is about {accept:.3g}"
    )


def _check_integer(n: object) -> None:
    """Refuse a count that is a bool or not an integer."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise EstimationError(f"n must be an integer, got {n!r}")


def plan_regime(plan: RealizationPlan, model: ScmModel) -> frozenset:
    """What the plan's performed randomizations, with their required
    values written, do to the mechanisms: the regime of
    ``CompiledScm.values``, a frozenset of ((var, child), code) entries.
    ``Rand(x)`` gives the full entry ((x, None), code). ``CtfRand(x->T)``
    gives ((x, c), code) for each child c in T, and on a child that
    several of them target the one with the smallest target set wins,
    as in ``Unit``; a per-edge entry beats a full one in the compiled
    engine, so any ``CtfRand`` beats a performed ``Rand``."""
    interventions = plan.required_actions()
    entries: dict[tuple, tuple[int, int]] = {}  # (var, child) -> (|targets|, code)
    for (action, _), code in zip(interventions, _required_codes(model, interventions)):
        if action.kind == RAND:
            entries[(action.var, None)] = (0, code)
        elif action.kind == CTF_RAND:
            size = len(action.targets)
            for c in action.targets:
                won = entries.get((action.var, c))
                if won is None or size < won[0]:
                    entries[(action.var, c)] = (size, code)
        else:
            raise ActionError(f"plan contains non-randomizing {action}")
    return frozenset((edge, code) for edge, (_, code) in entries.items())


def _plan_rows(plan: RealizationPlan, model: ScmModel, kept: np.ndarray) -> list[tuple]:
    """The row a kept unit reads on each compiled row in ``kept``: every
    term's variable under ``plan_regime``, as domain values. Each
    distinct row is built once, and its units share the tuple."""
    compiled = model.compile()
    regime = plan_regime(plan, model)
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
    """N i.i.d. samples of the plan's query, by the one rejection
    executor (see the module docstring): select units, randomize them by
    uniform draws as ``plan.required_actions()`` says, keep a unit only
    if every draw equals its required value, and read the variables of
    the query's terms from the kept ones.

    One ``Unit`` performs the plan and reads the terms first, which
    checks the plan. The kept units' rows are read off
    ``model.compile()`` under ``plan_regime(plan, model)``: each read
    variable's memoized code column, indexed by the kept units' rows.
    Rows hold the variables' domain values. A bool or non-integral
    ``n`` raises ``EstimationError``; ``n <= 0`` gives an empty batch.

    Units come in array blocks sized from the acceptance probability so
    that one block usually covers the batch, up to MAX_BLOCK_UNITS.
    ``rejected_units`` counts the units drawn up to the n-th acceptance,
    less n. The cap raises once some sample's run of consecutive rejected
    units reaches ``MAX_REJECTIONS``; runs continue across blocks."""
    _check_integer(n)
    batch = SampleBatch(plan.query)
    if n <= 0:
        return batch
    interventions = plan.required_actions()
    required = np.array(_required_codes(model, interventions), dtype=np.int64)
    experiment = Experiment(model, seed=seed)

    # the plan checks (single use, containment, targets, action kinds)
    # depend on the plan alone, so performing it once checks every unit
    unit = experiment.unit_at(0)
    for action, value in interventions:
        _perform(unit, action, value)
    for t in plan.query.terms:
        unit.read(t.variable)

    sizes = np.array(
        [len(model.diagram.domains[action.var]) for action, _ in interventions],
        dtype=np.int64,
    )
    p = 1.0 / math.prod(sizes.tolist())
    limit = max(MAX_REJECTIONS, 1)
    accepted = []
    need, run, rejected = n, 0, 0  # run: rejections since the last acceptance
    while need:
        # the mean units for `need` acceptances plus three standard deviations
        k = min(MAX_BLOCK_UNITS, math.ceil((need + 3 * math.sqrt(need * (1 - p)) + 1) / p))
        picked = experiment.select_rows(k)
        draws = experiment._shared_rng.integers(sizes, size=(k, len(sizes)))
        hits = np.flatnonzero((draws == required).all(axis=1))[:need]
        ends = hits if len(hits) == need else np.append(hits, k)
        runs = np.diff(ends, prepend=-1 - run) - 1
        if runs.max() >= limit:
            raise _cap_error(plan)
        # units drawn before the n-th acceptance: through it, or the whole block
        used = int(ends[-1]) + (len(hits) == need)
        rejected += used - len(hits)
        run = int(runs[-1])
        need -= len(hits)
        accepted.append(picked[hits])

    kept = experiment._table.compiled_row[np.concatenate(accepted)]
    batch.rows = _plan_rows(plan, model, kept)
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
    requested values, and read the outcome variables (by default every
    variable outside the regime): the plan that tags ``Rand(x)`` with
    ``do[x]``, in topological order."""
    diagram = model.diagram
    for x in do:
        if x not in diagram:
            raise QueryError(f"unknown regime variable {x!r}")
    outcome = tuple(outcome or [v for v in diagram.variables if v not in do])
    for v in outcome:
        if v not in diagram:
            raise QueryError(f"unknown outcome variable {v!r}")
    q = query(*[response(v, dict(do)) for v in outcome])
    tags = tuple((rand_action(x), do[x]) for x in diagram.topological_order() if x in do)
    return draw_plan_batch(RealizationPlan(q, diagram, tags), model, n, seed)
