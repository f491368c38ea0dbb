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

``draw_plan_batch``, ``sample_observational`` and
``sample_interventional`` share one rejection executor that draws units
in array blocks: selection by ``searchsorted`` over the exogenous CDF,
every uniform device of the block in one ``integers`` call, and
acceptance as a row-wise match of the draws against the required
values. This is exact, not an approximation. The devices are uniform
and drawn independently of the unit, and an accepted unit's draws equal
the required values, so its output row depends only on its exogenous
assignment ``u``. The executor therefore evaluates each distinct
accepted ``u`` once, through a ``Unit`` whose devices are constant at
the required values, and copies that row to every accepted unit with
the same ``u``. ``Unit`` stays the only evaluator of mechanisms, and
``execute_plan`` keeps the unit-at-a-time procedure as the reference
and as the only path that takes custom devices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ActionError, ContainmentViolation, EstimationError, FCEViolation
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
    rand_action,
)

UNFIRED = "unfired"
FIRED = "fired"
ERASED = "erased"

DEFAULT_MAX_REJECTIONS = 10**6
# units per array block of the rejection executor: caps its memory (a
# block holds one device draw per unit and randomization) whatever the
# acceptance probability
MAX_BLOCK_UNITS = 1 << 16


class RandomDevice:
    """Randomizing device for one variable: a distribution over its
    domain. Uniform by default; a constant device is the deterministic
    write special case."""

    def __init__(self, values: Sequence[Value], probs: Sequence[float] | None = None):
        self.values = tuple(values)
        self._uniform = probs is None
        if probs is None:
            probs = [1.0 / len(self.values)] * len(self.values)
        if len(probs) != len(self.values):
            raise ActionError("device probabilities do not match its values")
        total = float(sum(probs))
        if abs(total - 1.0) > 1e-9 or min(probs) < 0:
            raise ActionError("device probabilities must be a distribution")
        self.probs = tuple(float(p) for p in probs)
        self._constant_index: int | None = None
        for i, p in enumerate(self.probs):
            if p == 1.0:
                self._constant_index = i
        self._cum = np.cumsum(self.probs)

    @classmethod
    def uniform(cls, values: Sequence[Value]) -> "RandomDevice":
        return cls(values)

    @classmethod
    def constant(cls, values: Sequence[Value], value: Value) -> "RandomDevice":
        return cls(values, [1.0 if v == value else 0.0 for v in values])

    def has_full_support(self) -> bool:
        return all(p > 0 for p in self.probs)

    def prob_of(self, value: Value) -> float:
        for v, p in zip(self.values, self.probs):
            if v == value:
                return p
        return 0.0

    def draw(self, rng: np.random.Generator) -> Value:
        if self._constant_index is not None:
            return self.values[self._constant_index]
        if self._uniform:
            return self.values[int(rng.integers(len(self.values)))]
        i = int(np.searchsorted(self._cum, rng.random(), side="right"))
        return self.values[min(i, len(self.values) - 1)]


class Unit:
    """One selected unit: hidden exogenous assignment plus mechanism
    state. Agent-facing methods are read/rand/ctf_rand; the exogenous
    draw is exposed only through peek_exogenous, which is test and
    metrics instrumentation, not part of the acting agent's view."""

    __slots__ = (
        "unit_id", "_model", "_actions", "_u", "_rng",
        "_status", "_values", "_inputs", "_overrides", "_performed",
    )

    def __init__(
        self,
        unit_id: int,
        model: ScmModel,
        u: tuple,
        rng: np.random.Generator,
        actions: ActionSet | None = None,
    ):
        self.unit_id = unit_id
        self._model = model
        self._actions = actions
        self._u = u
        self._rng = rng
        self._status: dict[str, str] = {}
        self._values: dict[str, Value] = {}
        self._inputs: dict[str, dict[str, Value]] = {}
        self._overrides: dict[str, list[tuple[frozenset[str], Value]]] = {}
        self._performed: set = set()

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
        self._inputs[v] = inputs
        return value

    def _check_allowed(self, action) -> None:
        if self._actions is not None and action not in self._actions:
            raise ActionError(f"{action} is not in the feasible action set")

    def _device(self, v: str, device: RandomDevice | None) -> RandomDevice:
        if device is None:
            return RandomDevice.uniform(self._model.diagram.domains[v])
        return device

    # -- physical actions ----------------------------------------------------

    def read(self, v: str) -> Value:
        """Measure the realized value, firing pending ancestor mechanisms.
        Re-reading returns the cached value; nothing re-fires."""
        if v not in self._model.diagram:
            raise ActionError(f"unknown variable {v!r}")
        return self._fire(v)

    def rand(self, x: str, device: RandomDevice | None = None) -> Value:
        """Erase the unit's mechanism for x and substitute a drawn value,
        which every child and later read of x will see."""
        self._check_allowed(rand_action(x))
        st = self.status(x)
        if st != UNFIRED:
            raise FCEViolation(
                f"mechanism for {x!r} already {st}; a unit undergoes each "
                "mechanism at most once"
            )
        value = self._device(x, device).draw(self._rng)
        self._status[x] = ERASED
        self._values[x] = value
        self._performed.add(("rand", x))
        return value

    def ctf_rand(
        self,
        x: str,
        targets: Iterable[str],
        device: RandomDevice | None = None,
    ) -> Value:
        """Fix a drawn value as input to the target children of x. The
        natural mechanism of x is untouched; reading x still yields the
        unit's own value."""
        tset = frozenset(targets)
        if not tset:
            raise ActionError("input randomization needs at least one target")
        children = set(self._model.diagram.children(x))
        if not tset <= children:
            raise ActionError(
                f"targets {sorted(tset - children)} are not children of {x!r}"
            )
        self._check_allowed(ctf_rand_action(x, tset))
        key = ("ctf_rand", x, tset)
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
            inter = existing & tset
            if inter and not (existing <= tset or tset <= existing):
                raise ContainmentViolation(
                    f"targets {sorted(tset)} overlap existing randomization "
                    f"{sorted(existing)} of {x!r} without nesting"
                )
        value = self._device(x, device).draw(self._rng)
        self._overrides.setdefault(x, []).append((tset, value))
        self._performed.add(key)
        return value

    # -- instrumentation -----------------------------------------------------

    def peek_exogenous(self) -> dict[str, Value]:
        """Hidden exogenous assignment; for metrics and tests only."""
        return dict(zip(self._model.exogenous_vars, self._u))


class Experiment:
    """Shared context for drawing units against one hidden model: the
    feasible action set and a master seed fanned out per unit."""

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
        support = model.exogenous_support()
        self._support_values = [u for u, _ in support]
        probs = np.array([p for _, p in support], dtype=float)
        self._support_cum = np.cumsum(probs / probs.sum())

    def new_unit(self) -> Unit:
        """Select a fresh unit: exogenous draw from the population, all
        mechanisms unfired."""
        i = int(np.searchsorted(self._support_cum, self._select_rng.random(), side="right"))
        u = self._support_values[min(i, len(self._support_values) - 1)]
        self._count += 1
        return Unit(self._count, self.model, u, self._shared_rng, self.actions)

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


def _perform(unit: Unit, action: Action, device: RandomDevice) -> Value:
    if action.kind == RAND:
        return unit.rand(action.var, device)  # type: ignore[arg-type]
    if action.kind == CTF_RAND:
        return unit.ctf_rand(action.var, action.targets, device)  # type: ignore[arg-type]
    raise ActionError(f"plan contains non-randomizing {action}")


def execute_plan(
    plan: RealizationPlan,
    model: ScmModel,
    rng: np.random.Generator | Experiment,
    max_rejections: int = DEFAULT_MAX_REJECTIONS,
    devices: Mapping[tuple, RandomDevice] | None = None,
) -> tuple[tuple[Value, ...], int]:
    """Draw one i.i.d. sample row for the plan's query.

    Units are selected, randomized per the plan, discarded whenever a
    drawn value misses its required tag, and read out. Returns the row
    (ordered like the query terms) and the number of discarded units.
    """
    if isinstance(rng, Experiment):
        experiment = rng
    else:
        experiment = Experiment(model, actions=None, seed=np.random.SeedSequence(
            int(rng.integers(0, 2**63 - 1))
        ))
    devices = devices or {}
    rejected = 0
    while True:
        unit = experiment.new_unit()
        ok = True
        for step in plan.steps:
            for action, required in step.interventions:
                dev = devices.get((action.kind, action.var, action.targets))
                if dev is None:
                    dev = RandomDevice.uniform(model.diagram.domains[action.var])
                if dev.prob_of(required) <= 0.0:
                    raise EstimationError(
                        f"device for {action} cannot draw required value "
                        f"{required!r}"
                    )
                if _perform(unit, action, dev) != required:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            values: dict[int, Value] = {}
            for step in plan.steps:
                for ti in step.read_terms:
                    values[ti] = unit.read(step.variable)
            row = tuple(values[i] for i in range(len(plan.query.terms)))
            return row, rejected
        rejected += 1
        if rejected >= max_rejections:
            accept = plan.acceptance_probability()
            raise EstimationError(
                f"exceeded {max_rejections} rejected units for one sample; "
                f"uniform-device acceptance probability is about {accept:.3g}"
            )


def draw_plan_batch(
    plan: RealizationPlan,
    model: ScmModel,
    n: int,
    seed: int | np.random.SeedSequence | None = None,
    max_rejections: int = DEFAULT_MAX_REJECTIONS,
) -> SampleBatch:
    """N executed-plan samples with a per-sample rejection cap: the
    plan's procedure, run by the block executor (see the module
    docstring)."""
    accept = plan.acceptance_probability()
    return _run_rejection(
        model,
        plan.query,
        plan.required_actions(),
        [plan.output_map[i] for i in range(len(plan.query.terms))],
        n,
        seed,
        max_rejections,
        f"exceeded {max_rejections} rejected units for one sample; "
        f"uniform-device acceptance probability is about {accept:.3g}",
    )


def _run_rejection(
    model: ScmModel,
    q: CtfQuery,
    interventions: Sequence[tuple[Action, Value]],
    reads: Sequence[str],
    n: int,
    seed: int | np.random.SeedSequence | None,
    max_rejections: int,
    cap_message: str,
) -> SampleBatch:
    """The rejection executor: select units, randomize them with uniform
    devices as ``interventions`` says, keep a unit only if every draw
    equals its required value, and read ``reads`` from the kept ones.

    Units come in array blocks sized from the acceptance probability so
    that one block usually covers the batch, up to MAX_BLOCK_UNITS.
    ``rejected_units`` counts the units drawn up to the n-th acceptance,
    less n. The cap raises once some sample's run of consecutive rejected
    units reaches ``max_rejections``; runs continue across blocks."""
    batch = SampleBatch(q)
    if n <= 0:
        return batch
    domains = [model.diagram.domains[action.var] for action, _ in interventions]
    devices = []
    for (action, required), domain in zip(interventions, domains):
        if not any(v == required for v in domain):
            raise EstimationError(
                f"device for {action} cannot draw required value {required!r}"
            )
        devices.append(RandomDevice.constant(domain, required))
    experiment = Experiment(model, seed=seed)
    support = experiment._support_values

    def evaluate(i: int) -> tuple[Value, ...]:
        unit = Unit(0, model, support[i], experiment._shared_rng)
        for (action, _), device in zip(interventions, devices):
            _perform(unit, action, device)
        return tuple(unit.read(v) for v in reads)

    # the plan checks (single use, containment, targets, action kinds)
    # depend on the plan alone, so performing it once checks every unit
    rows = {0: evaluate(0)}

    sizes = np.array([len(d) for d in domains], dtype=np.int64)
    required = np.array(
        [d.index(r) for (_, r), d in zip(interventions, domains)], dtype=np.int64
    )
    p = 1.0 / math.prod(sizes.tolist())
    limit = max(max_rejections, 1)
    last = len(support) - 1
    accepted = []
    need, run, rejected = n, 0, 0  # run: rejections since the last acceptance
    while need:
        # the mean units for `need` acceptances plus three standard deviations
        k = min(MAX_BLOCK_UNITS, math.ceil((need + 3 * math.sqrt(need * (1 - p)) + 1) / p))
        picked = np.searchsorted(
            experiment._support_cum, experiment._select_rng.random(k), side="right"
        )
        draws = experiment._shared_rng.integers(sizes, size=(k, len(sizes)))
        hits = np.flatnonzero((draws == required).all(axis=1))[:need]
        ends = hits if len(hits) == need else np.append(hits, k)
        runs = np.diff(ends, prepend=-1 - run) - 1
        if runs.max() >= limit:
            raise EstimationError(cap_message)
        # units drawn before the n-th acceptance: through it, or the whole block
        used = int(ends[-1]) + (len(hits) == need)
        rejected += used - len(hits)
        run = int(runs[-1])
        need -= len(hits)
        accepted.append(np.minimum(picked[hits], last))
    chosen = np.concatenate(accepted).tolist()
    for i in set(chosen).difference(rows):
        rows[i] = evaluate(i)
    batch.rows = [rows[i] for i in chosen]
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
    variables: Sequence[str] | None = None,
) -> SampleBatch:
    """Select units and read every variable naturally."""
    variables = tuple(variables or model.diagram.variables)
    q = query(*[response(v) for v in variables])
    return _run_rejection(model, q, (), variables, n, seed, DEFAULT_MAX_REJECTIONS, "")


def sample_interventional(
    model: ScmModel,
    do: Mapping[str, Value],
    n: int,
    seed: int | np.random.SeedSequence | None = None,
    outcome: Sequence[str] | None = None,
    max_rejections: int = DEFAULT_MAX_REJECTIONS,
) -> SampleBatch:
    """Randomize each regime variable, keep units whose draws hit the
    requested values, and read the outcome variables."""
    outcome = tuple(outcome or model.diagram.variables)
    q = query(*[response(v, dict(do)) for v in outcome])
    return _run_rejection(
        model,
        q,
        [(rand_action(x), wanted) for x, wanted in do.items()],
        outcome,
        n,
        seed,
        max_rejections,
        f"exceeded {max_rejections} rejections while enforcing do({dict(do)})",
    )
