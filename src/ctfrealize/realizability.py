"""Deciding whether a counterfactual joint can be physically sampled.

The decision procedure walks the diagram in topological order and, for
every variable V and every query term W under regime T, records which
randomization actions on V are forced and with which tag:

* V carries a value in T: each child of V that feeds W inside the
  regime-cut graph (and is not itself fixed by T) must receive that
  value, so the smallest available input-randomization covering the
  child is tagged with the value; if none exists, whole-variable
  randomization is the fallback.
* V is untagged: those same children must receive V untouched, so every
  action that could override their input is tagged Natural (meaning:
  must not be performed).

A query is realizable iff no action ends up with two different tags and
no output variable needs its own mechanism erased by a whole-variable
randomization. On success the procedure emits an executable plan:
perform the value-tagged randomizations step by step, discard the unit
whenever a drawn value misses its tag, then read the outputs.

Tags are per-action and depend only on the term, so conflicts are
always witnessed by a pair of terms; ``RealizabilityChecker`` caches
per-term requirements to make large enumerations cheap.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

from .errors import ActionError, ContainmentViolation, QueryError
from .graphs import CausalDiagram, Value
from .queries import (
    CtfQuery,
    PotentialResponse,
    counterfactual_ancestors,
    normalize_term,
)


class _Natural:
    """The tag meaning: the action must not be performed. A private
    object, so that no domain value (not even the string "Natural") can
    equal it. It prints as the string it replaced did, which keeps
    plan, conflict and CLI text unchanged."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "'Natural'"

    def __str__(self) -> str:
        return "Natural"

    def __reduce__(self) -> str:
        return "NATURAL"


NATURAL = _Natural()


# ---------------------------------------------------------------------------
# Actions
# ---------------------------------------------------------------------------

SELECT = "select"
READ = "read"
RAND = "rand"
CTF_RAND = "ctf_rand"


@dataclass(frozen=True)
class Action:
    kind: str
    var: str | None = None
    targets: frozenset[str] | None = None

    def __post_init__(self):
        if self.kind not in (SELECT, READ, RAND, CTF_RAND):
            raise ActionError(f"unknown action kind {self.kind!r}")
        if self.kind == SELECT and self.var is not None:
            raise ActionError("select takes no variable")
        if self.kind in (READ, RAND) and self.var is None:
            raise ActionError(f"{self.kind} needs a variable")
        if self.kind == CTF_RAND:
            if self.var is None or not self.targets:
                raise ActionError("ctf_rand needs a variable and nonempty targets")

    def sort_key(self):
        return (
            self.kind,
            self.var or "",
            tuple(sorted(self.targets)) if self.targets else (),
        )

    def __str__(self) -> str:
        if self.kind == SELECT:
            return "Select"
        if self.kind == READ:
            return f"Read({self.var})"
        if self.kind == RAND:
            return f"Rand({self.var})"
        tgt = sorted(self.targets or ())
        inner = tgt[0] if len(tgt) == 1 else "{" + ",".join(tgt) + "}"
        return f"CtfRand({self.var}->{inner})"


def select() -> Action:
    return Action(SELECT)


def read_action(v: str) -> Action:
    return Action(READ, v)


def rand_action(v: str) -> Action:
    return Action(RAND, v)


def ctf_rand_action(v: str, targets: Iterable[str]) -> Action:
    return Action(CTF_RAND, v, frozenset(targets))


class ActionSet:
    """Set of feasible physical actions; validates the containment
    property (input-randomizations of one variable are nested or
    disjoint) and checks ctf-rand targets against a diagram."""

    def __init__(self, actions: Iterable[Action], diagram: CausalDiagram | None = None):
        self.actions: tuple[Action, ...] = tuple(
            sorted(set(actions), key=Action.sort_key)
        )
        by_var: dict[str, list[Action]] = {}
        for a in self.actions:
            if a.kind == CTF_RAND:
                assert a.var is not None and a.targets is not None
                if diagram is not None:
                    bad = a.targets - set(diagram.children(a.var))
                    if bad:
                        raise ActionError(
                            f"{a}: targets {sorted(bad)} are not children of {a.var!r}"
                        )
                by_var.setdefault(a.var, []).append(a)
        for var, acts in by_var.items():
            for a, b in itertools.combinations(acts, 2):
                inter = a.targets & b.targets  # type: ignore[operator]
                if inter and not (
                    a.targets <= b.targets or b.targets <= a.targets  # type: ignore[operator]
                ):
                    raise ContainmentViolation(
                        f"{a} and {b} overlap without nesting"
                    )
        self._ctf_by_var = {
            var: sorted(acts, key=lambda a: (len(a.targets), a.sort_key()))  # type: ignore[arg-type]
            for var, acts in by_var.items()
        }
        self._kinds = {(a.kind, a.var) for a in self.actions}

    def __contains__(self, action: Action) -> bool:
        return action in self.actions

    def __iter__(self):
        return iter(self.actions)

    def __len__(self) -> int:
        return len(self.actions)

    def has_read(self, v: str) -> bool:
        return (READ, v) in self._kinds

    def ctf_rands_for(self, v: str) -> list[Action]:
        """Input-randomizations of v, smallest target set first."""
        return self._ctf_by_var.get(v, [])

    def smallest_covering(self, v: str, child: str) -> Action | None:
        """The unique minimal input-randomization of v whose targets
        contain ``child``; containment makes candidates totally ordered."""
        covering = [a for a in self.ctf_rands_for(v) if child in a.targets]  # type: ignore[operator]
        if not covering:
            return None
        for a, b in zip(covering, covering[1:]):
            assert a.targets <= b.targets, (  # containment invariant
                f"covering sets for {v!r}/{child!r} are not totally ordered"
            )
        return covering[0]

    def union(self, other: "ActionSet") -> "ActionSet":
        return ActionSet(tuple(self.actions) + tuple(other.actions))

    def __repr__(self) -> str:
        return "ActionSet(" + ", ".join(str(a) for a in self.actions) + ")"


def maximal_action_set(diagram: CausalDiagram) -> ActionSet:
    """Select, a read for every variable, and a single-child input
    randomization for every edge: the most granular capabilities."""
    acts: list[Action] = [select()]
    acts.extend(read_action(v) for v in diagram.variables)
    for v in diagram.variables:
        for c in diagram.children(v):
            acts.append(ctf_rand_action(v, [c]))
    return ActionSet(acts, diagram)


# ---------------------------------------------------------------------------
# Trackers, conflicts, plans
# ---------------------------------------------------------------------------

# Failure classes, mirroring the FAIL sites of the decision procedure.
VALUE_CONFLICT_CTF = "value-conflict-ctf-rand"
VALUE_CONFLICT_RAND = "value-conflict-rand"
NO_ACTION = "no-action-available"
NATURAL_CONFLICT_CTF = "natural-conflict-ctf-rand"
NATURAL_CONFLICT_RAND = "natural-conflict-rand"
OUTPUT_ERASED = "output-erased-by-rand"
READ_UNAVAILABLE = "read-unavailable"


class TagRecord(NamedTuple):
    tag: object  # a domain value, or NATURAL
    term_index: int
    child: str | None


class InterventionTracker:
    """Per variable, the map action -> tag accumulated while scanning the
    query. At most one tag per action; a second, different tag is a
    conflict."""

    def __init__(self):
        self.tags: dict[str, dict[Action, TagRecord]] = {}

    def get(self, action: Action) -> TagRecord | None:
        return self.tags.get(action.var or "", {}).get(action)

    def set(self, action: Action, record: TagRecord) -> None:
        self.tags.setdefault(action.var or "", {})[action] = record

    def for_var(self, v: str) -> dict[Action, TagRecord]:
        return self.tags.get(v, {})


@dataclass(frozen=True)
class Conflict:
    """Why a query is not realizable: the variable and action where two
    requirements met, the clashing tags, and the two terms involved."""

    variable: str
    failure: str
    action: Action | None
    required: object | None
    existing: object | None
    term_index: int
    prior_term_index: int | None
    child: str | None

    def describe(self, terms: Sequence[PotentialResponse] | None = None) -> str:
        def term_str(i):
            if terms is not None and i is not None and 0 <= i < len(terms):
                return str(terms[i])
            return f"term #{i}"

        if self.failure == NO_ACTION:
            return (
                f"term {term_str(self.term_index)} needs {self.variable} fixed "
                f"as input to {self.child}, but no randomization of "
                f"{self.variable} is available"
            )
        if self.failure == READ_UNAVAILABLE:
            return f"no read action available for output variable {self.variable}"
        if self.failure == OUTPUT_ERASED:
            return (
                f"term {term_str(self.term_index)} must read the natural "
                f"{self.variable}, but {self.action} (required by "
                f"{term_str(self.prior_term_index)}) erases its mechanism"
            )
        return (
            f"conflict at {self.variable}: {self.action} needs tag "
            f"{self.required!r} for {term_str(self.term_index)} but already "
            f"carries {self.existing!r} from {term_str(self.prior_term_index)}"
        )


@dataclass(frozen=True)
class NotRealizable:
    """Negative verdict with a structured witness. The criterion's
    witness pair is computed on first access, since most callers only
    need the verdict and the conflict."""

    query: CtfQuery
    conflict: Conflict
    diagram: CausalDiagram = field(compare=False, repr=False)

    realizable = False

    def __bool__(self) -> bool:
        return False

    @cached_property
    def criterion_pair(self) -> tuple[PotentialResponse, PotentialResponse] | None:
        """Two counterfactual ancestors that need one variable under two
        regimes, or None when the criterion (which assumes the maximal
        action set) finds the query realizable."""
        try:
            ok, pair = realizable_by_criterion(self.query, self.diagram)
        except QueryError:
            return None
        return None if ok else pair

    def describe(self) -> str:
        msg = self.conflict.describe(self.query.terms)
        if self.criterion_pair:
            a, b = self.criterion_pair
            msg += f"; ancestor set realizes {a.variable} under two regimes ({a} vs {b})"
        return msg


@dataclass(frozen=True)
class PlanStep:
    """What happens at one variable's turn: perform each randomization,
    discard the unit unless the drawn value equals its tag, then read
    the listed output terms."""

    variable: str
    interventions: tuple[tuple[Action, Value], ...]
    read_terms: tuple[int, ...]


@dataclass(frozen=True)
class RealizationPlan:
    """Executable schedule for drawing one i.i.d. sample of the query.

    ``tags`` lists every action the query's terms tag, in plan order (by
    the variable's topological position, then by Action.sort_key), with
    its tag: the value the randomization must draw, or NATURAL for an
    action that must not be performed. The steps, the held-back actions
    and the notes are derived from it on first access, since deciding a
    query needs none of them."""

    query: CtfQuery
    diagram: CausalDiagram
    tags: tuple[tuple[Action, object], ...]
    output_map: dict[int, str]

    realizable = True

    def __bool__(self) -> bool:
        return True

    @cached_property
    def steps(self) -> tuple[PlanStep, ...]:
        performed: dict[str, list[tuple[Action, object]]] = {}
        for action, tag in self.tags:
            if tag is not NATURAL:
                performed.setdefault(action.var, []).append((action, tag))  # type: ignore[arg-type]
        steps = []
        for v in self.diagram.topological_order():
            interventions = tuple(performed.get(v, ()))
            reads = tuple(ti for ti, w in self.output_map.items() if w == v)
            if interventions or reads:
                steps.append(PlanStep(v, interventions, reads))
        return tuple(steps)

    @cached_property
    def natural_constraints(self) -> tuple[Action, ...]:
        return tuple(action for action, tag in self.tags if tag is NATURAL)

    @cached_property
    def notes(self) -> tuple[str, ...]:
        held_back = {a.var for a in self.natural_constraints if a.kind == RAND}
        notes = []
        for step in self.steps:
            performed_ctf = [a for a, _ in step.interventions if a.kind == CTF_RAND]
            if performed_ctf and step.variable in held_back:
                notes.append(
                    f"{step.variable}: input randomizations "
                    f"{[str(a) for a in performed_ctf]} are performed while "
                    f"Rand({step.variable}) is held back; the touched "
                    "children see fixed inputs, the rest see the natural value"
                )
        return tuple(notes)

    def required_actions(self) -> tuple[tuple[Action, Value], ...]:
        return tuple(iv for step in self.steps for iv in step.interventions)

    def acceptance_probability(self) -> float:
        """Probability a unit survives all rejection checks under uniform
        devices (tags are drawn independently)."""
        p = 1.0
        for action, _ in self.required_actions():
            p *= 1.0 / len(self.diagram.domains[action.var])
        return p

    def describe(self) -> str:
        lines = [f"plan for {self.query}:"]
        for step in self.steps:
            for action, val in step.interventions:
                lines.append(f"  perform {action}, keep unit only if draw == {val!r}")
            for ti in step.read_terms:
                lines.append(f"  read {step.variable} -> output {self.query.terms[ti]}")
        for a in self.natural_constraints:
            lines.append(f"  do not perform {a}")
        for n in self.notes:
            lines.append(f"  note: {n}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# The decision procedure
# ---------------------------------------------------------------------------

@dataclass
class _TermRequirements:
    """Action tags a single term forces, keyed by source variable."""

    by_var: dict[str, list[tuple[Action, object, str]]] = field(default_factory=dict)
    failure: Conflict | None = None  # a term can fail alone (no action usable)
    # the same tags keyed by action id; one term never tags an action twice
    # with different tags, since a variable is either fixed or natural in it
    tags: dict[int, object] = field(default_factory=dict)


class RealizabilityChecker:
    """Caches per-term requirements for one (diagram, action set) pair so
    that many queries over the same setting are cheap to decide."""

    def __init__(self, diagram: CausalDiagram, actions: ActionSet):
        self.diagram = diagram
        self.actions = actions
        self.topo = diagram.topological_order()
        self._term_cache: dict[tuple, _TermRequirements] = {}
        self._prepared: dict[PotentialResponse, tuple] = {}  # see _prepare
        self.compat_visits = 0  # (V, term, child) visits, for complexity checks

    # built on first use, so that setting up a checker stays cheap

    @cached_property
    def _randomizations(self) -> tuple[Action, ...]:
        """The randomizing actions in plan order: by the variable's
        topological position, then by Action.sort_key (the action set's
        own order, which the stable sort keeps). Positions are action ids."""
        position = {v: k for k, v in enumerate(self.topo)}
        return tuple(sorted(
            (a for a in self.actions.actions if a.kind in (RAND, CTF_RAND)),
            key=lambda a: position[a.var],
        ))

    @cached_property
    def _id(self) -> dict[Action, int]:
        return {a: i for i, a in enumerate(self._randomizations)}

    @cached_property
    def _rand(self) -> dict[str, Action]:
        return {a.var: a for a in self._randomizations if a.kind == RAND}

    # -- per-term requirement tags -------------------------------------

    def _term_key(self, term: PotentialResponse) -> tuple:
        return (term.variable, frozenset(term.regime))

    def term_requirements(self, term: PotentialResponse) -> _TermRequirements:
        key = self._term_key(term)
        cached = self._term_cache.get(key)
        if cached is not None:
            return cached
        req = self._compute_term_requirements(term)
        self._term_cache[key] = req
        return req

    def _compute_term_requirements(self, term: PotentialResponse) -> _TermRequirements:
        if not term.is_full_do():
            raise QueryError(
                f"term {term} is path-restricted; the decision procedure "
                "takes plain value subscripts (model path-specific actions "
                "as variables of the expanded diagram instead)"
            )
        assignment = term.assignment()
        regime_vars = set(assignment)
        w = term.variable
        # ancestors of W once the regime variables' mechanisms are bypassed
        relevant = set(self.diagram.ancestors(w, cut_into=regime_vars))
        req = _TermRequirements()
        for v in self.topo:
            if v == w or v not in relevant:
                continue
            entries = req.by_var.setdefault(v, [])
            if v in regime_vars:
                fail = self._value_pass(v, assignment[v], relevant, regime_vars, entries)
                if fail is not None:
                    req.failure = Conflict(
                        variable=v,
                        failure=NO_ACTION,
                        action=None,
                        required=assignment[v],
                        existing=None,
                        term_index=-1,
                        prior_term_index=None,
                        child=fail,
                    )
                    return req
            else:
                self._natural_pass(v, relevant, regime_vars, entries)
        req.tags = {
            self._id[action]: tag
            for entries in req.by_var.values()
            for action, tag, _ in entries
        }
        return req

    def _value_pass(
        self,
        v: str,
        value: Value,
        relevant: set[str],
        regime_vars: set[str],
        entries: list,
    ) -> str | None:
        """Tag the minimal action fixing v's input to each relevant child;
        returns the child name if no action can do it."""
        for c in self.diagram.children(v):
            self.compat_visits += 1
            if c not in relevant or c in regime_vars:
                continue
            action = self.actions.smallest_covering(v, c)
            if action is None:
                action = self._rand.get(v)
                if action is None:
                    return c
            entries.append((action, value, c))
        return None

    def _natural_pass(
        self, v: str, relevant: set[str], regime_vars: set[str], entries: list
    ) -> None:
        """Tag every action that could override v's input to a relevant
        child as Natural (must not be performed)."""
        touched = False
        for c in self.diagram.children(v):
            self.compat_visits += 1
            if c not in relevant or c in regime_vars:
                continue
            touched = True
            for action in self.actions.ctf_rands_for(v):
                if c in action.targets:  # type: ignore[operator]
                    entries.append((action, NATURAL, c))
        if touched and v in self._rand:
            entries.append((self._rand[v], NATURAL, None))

    def _prepare(
        self, t: PotentialResponse
    ) -> tuple[PotentialResponse, tuple[str, ...], _TermRequirements | None]:
        """One query term validated and normalized (as CtfQuery.validate
        and CtfQuery.normalized do it), with its requirements, or None
        for a path-restricted term. Stored in self._prepared, where
        realize finds it for every later query with this term."""
        CtfQuery((t,)).validate(self.diagram)
        kept, messages = normalize_term(t, self.diagram)
        req = self.term_requirements(kept) if kept.is_full_do() else None
        hit = self._prepared[t] = (kept, messages, req)
        return hit

    # -- merging terms ---------------------------------------------------

    def realize(self, q: CtfQuery) -> RealizationPlan | NotRealizable:
        # validate every term before the first warning, as CtfQuery.validate
        # followed by CtfQuery.normalized would
        try:
            prepared = [self._prepared.get(t) or self._prepare(t) for t in q.terms]
        except TypeError:  # an unhashable value, which no domain holds
            q.validate(self.diagram)
            raise
        changed = False
        for (kept, messages, _), t in zip(prepared, q.terms):
            for message in messages:
                warnings.warn(message, stacklevel=2)
            changed = changed or kept is not t
        if changed:
            q = CtfQuery(tuple([kept for kept, _, _ in prepared]))
        # a path-restricted term has no requirements: term_requirements raises
        reqs = [req or self.term_requirements(kept) for kept, _, req in prepared]
        tags = self._union_tags(q, reqs)
        if tags is None:
            return self._realize_ordered(q, reqs)
        return self._plan(q, tags)

    def _union_tags(
        self, q: CtfQuery, reqs: Sequence[_TermRequirements]
    ) -> dict[int, object] | None:
        """All terms' tags by action id, or None where the ordered merge
        finds a conflict: a term failing alone, two terms tagging one
        action differently, or an output erased or unreadable. This
        only decides; _realize_ordered says which conflict comes first."""
        tags: dict[int, object] = {}
        for req in reqs:
            if req.failure is not None:
                return None
            for i, tag in req.tags.items():
                if tags.setdefault(i, tag) != tag:
                    return None
        for t in q.terms:
            rand = self._rand.get(t.variable)
            if rand is not None and tags.get(self._id[rand], NATURAL) is not NATURAL:
                return None
            if not self.actions.has_read(t.variable):
                return None
        return tags

    def _plan(self, q: CtfQuery, tags: dict[int, object]) -> RealizationPlan:
        return RealizationPlan(
            query=q,
            diagram=self.diagram,
            tags=tuple([(self._randomizations[i], tags[i]) for i in sorted(tags)]),
            output_map={ti: t.variable for ti, t in enumerate(q.terms)},
        )

    def _realize_ordered(
        self, q: CtfQuery, reqs: Sequence[_TermRequirements]
    ) -> RealizationPlan | NotRealizable:
        """The reference merge: variables in topological order, terms in
        query order, so the first clash met is the reported conflict."""
        tracker = InterventionTracker()
        outputs: dict[str, list[int]] = {}
        for ti, t in enumerate(q.terms):
            outputs.setdefault(t.variable, []).append(ti)

        for v in self.topo:
            for ti, req in enumerate(reqs):
                conflict = self._merge(v, req, tracker, ti)
                if conflict is not None:
                    return NotRealizable(q, conflict, self.diagram)
            # output checks for v
            for ti in outputs.get(v, ()):
                rand = self._rand.get(v)
                rec = tracker.get(rand) if rand is not None else None
                if rec is not None and rec.tag is not NATURAL:
                    conflict = Conflict(
                        variable=v,
                        failure=OUTPUT_ERASED,
                        action=rand,
                        required=None,
                        existing=rec.tag,
                        term_index=ti,
                        prior_term_index=rec.term_index,
                        child=None,
                    )
                    return NotRealizable(q, conflict, self.diagram)
                if not self.actions.has_read(v):
                    conflict = Conflict(
                        variable=v,
                        failure=READ_UNAVAILABLE,
                        action=read_action(v),
                        required=None,
                        existing=None,
                        term_index=ti,
                        prior_term_index=None,
                        child=None,
                    )
                    return NotRealizable(q, conflict, self.diagram)
        return self._plan(q, {
            self._id[action]: rec.tag
            for recs in tracker.tags.values()
            for action, rec in recs.items()
        })

    def _merge(
        self,
        v: str,
        req: _TermRequirements,
        tracker: InterventionTracker,
        term_index: int,
    ) -> Conflict | None:
        """Merge the tags one term forces on v's actions into the
        tracker; returns the first conflict, leaving the tracker holding
        the tags merged before it."""
        if req.failure is not None and req.failure.variable == v:
            return replace(req.failure, term_index=term_index)
        for action, tag, child in req.by_var.get(v, ()):
            existing = tracker.get(action)
            if existing is None:
                tracker.set(action, TagRecord(tag, term_index, child))
            elif existing.tag != tag:
                return Conflict(
                    variable=v,
                    failure=self._conflict_class(action, tag),
                    action=action,
                    required=tag,
                    existing=existing.tag,
                    term_index=term_index,
                    prior_term_index=existing.term_index,
                    child=child,
                )
        return None

    @staticmethod
    def _conflict_class(action: Action, required_tag: object) -> str:
        if required_tag is NATURAL:
            return (
                NATURAL_CONFLICT_CTF if action.kind == CTF_RAND else NATURAL_CONFLICT_RAND
            )
        return VALUE_CONFLICT_CTF if action.kind == CTF_RAND else VALUE_CONFLICT_RAND


def ctf_realize(
    q: CtfQuery, diagram: CausalDiagram, actions: ActionSet
) -> RealizationPlan | NotRealizable:
    """Decide realizability of the query under the feasible actions; on
    success return the executable plan, otherwise a structured witness."""
    return RealizabilityChecker(diagram, actions).realize(q)


def compatible(
    v: str,
    term: PotentialResponse,
    tracker: InterventionTracker,
    diagram: CausalDiagram,
    actions: ActionSet,
    term_index: int = 0,
) -> InterventionTracker | Conflict:
    """Merge the requirements variable ``v`` inherits from one term into
    the tracker; returns the updated tracker, or the conflict."""
    checker = RealizabilityChecker(diagram, actions)
    conflict = checker._merge(v, checker.term_requirements(term), tracker, term_index)
    return tracker if conflict is None else conflict


def realizable_by_criterion(
    q: CtfQuery, diagram: CausalDiagram
) -> tuple[bool, tuple[PotentialResponse, PotentialResponse] | None]:
    """Graphical test for the maximal action set: the query is realizable
    iff its counterfactual-ancestor set never needs one variable under
    two different regimes. Returns (verdict, witness pair or None)."""
    q.validate(diagram)
    with_warnings = q.normalized(diagram)
    ancestors = counterfactual_ancestors(with_warnings.unvalued(), diagram)
    for i, a in enumerate(ancestors):
        for b in ancestors[i + 1:]:
            if a.variable == b.variable and not a.same_response(b):
                return False, (a, b)
    return True, None
