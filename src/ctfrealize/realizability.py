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

A query is realizable iff no action ends up with two different tags, no
output variable needs its own mechanism erased by a whole-variable
randomization, and every output can be read. On success the procedure
emits an executable plan: perform the value-tagged randomizations step
by step, discard the unit whenever a drawn value misses its tag, then
read the outputs.

Tags are per-action and depend only on the term, so conflicts are
always witnessed by a pair of terms. ``RealizabilityChecker`` compiles
each term's requirements once, keyed by action id (the action's
position in plan order). ``realize`` decides with an order-free union
of the terms' tags. Only a failing query takes the ordered reference
merge (variables in topological order, terms in query order), which
reports the first clash it meets; every ``Conflict``, whatever its
failure class, is built at that one site.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

from .errors import ActionError, ContainmentViolation, QueryError, QuerySyntaxError
from .graphs import CausalDiagram, Value
from .queries import (
    CtfQuery,
    PotentialResponse,
    _Scanner,
    counterfactual_ancestors,
    normalize_term,
    parse_targets,
    targets_text,
)


class _Natural:
    """The tag meaning: the action must not be performed. A private
    object, so that no domain value (not even the string "Natural") can
    equal it. Its repr, ``<natural>``, is no domain value's repr, so
    conflict text (which shows tags with ``!r``) tells it from a value;
    ``str`` gives "Natural", as in ``plan.json``."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "<natural>"

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
# each kind as action text spells it (see parse_action_set)
_TEXT = {SELECT: "Select", READ: "Read", RAND: "Rand", CTF_RAND: "CtfRand"}


@dataclass(frozen=True)
class Action:
    kind: str
    var: str | None = None
    targets: frozenset[str] | None = None

    def __post_init__(self):
        if self.kind not in _TEXT:
            raise ActionError(f"unknown action kind {self.kind!r}")
        if self.kind == SELECT and self.var is not None:
            raise ActionError("Select takes no variable")
        if self.kind in (READ, RAND) and self.var is None:
            raise ActionError(f"{_TEXT[self.kind]} needs a variable")
        if self.kind == CTF_RAND:
            if self.var is None or not self.targets:
                raise ActionError("CtfRand needs a variable and nonempty targets")
        elif self.targets is not None:
            raise ActionError(f"{_TEXT[self.kind]} takes no targets")

    def sort_key(self):
        return (
            self.kind,
            self.var or "",
            tuple(sorted(self.targets)) if self.targets else (),
        )

    def __str__(self) -> str:
        if self.kind == SELECT:
            return "Select"
        if self.kind == CTF_RAND:
            return f"CtfRand({self.var}->{targets_text(self.targets)})"
        return f"{_TEXT[self.kind]}({self.var})"


def select() -> Action:
    return Action(SELECT)


def read_action(v: str) -> Action:
    return Action(READ, v)


def rand_action(v: str) -> Action:
    return Action(RAND, v)


def ctf_rand_action(v: str, targets: Iterable[str]) -> Action:
    return Action(CTF_RAND, v, frozenset(targets))


def overlap_without_nesting(a: frozenset, b: frozenset) -> bool:
    """Whether two input-randomization target sets break containment:
    the sets of one variable must be nested or disjoint."""
    return bool(a & b) and not (a <= b or b <= a)


class ActionSet:
    """Set of feasible physical actions; validates the containment
    property (input-randomizations of one variable are nested or
    disjoint) and checks each action's variable and ctf-rand targets
    against a diagram."""

    def __init__(self, actions: Iterable[Action], diagram: CausalDiagram | None = None):
        self.actions: tuple[Action, ...] = tuple(
            sorted(set(actions), key=Action.sort_key)
        )
        by_var: dict[str, list[Action]] = {}
        for a in self.actions:
            if diagram is not None and a.var is not None and a.var not in diagram:
                raise ActionError(f"{a}: unknown variable {a.var!r}")
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
                if overlap_without_nesting(a.targets, b.targets):  # type: ignore[arg-type]
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


_KINDS = {text: kind for kind, text in _TEXT.items()}


def parse_action_set(text: str, diagram: CausalDiagram) -> ActionSet:
    """Parse comma-separated actions, e.g. ``Rand(X), CtfRand(X->{Z,W}),
    Read(X), Select``, with the query scanner (the grammar is in
    ``parse_query``'s docstring). Raises QuerySyntaxError (with position)
    for malformed text and ActionError for a misused kind, an unknown
    variable or a target that is not a child."""
    sc = _Scanner(text)

    def action() -> Action:
        word = sc.name()
        if word not in _KINDS:
            raise QuerySyntaxError(f"unknown action {word!r}", text, sc.pos - len(word))
        var = targets = None
        if sc.try_take("("):
            var = sc.name()
            targets = parse_targets(sc) if sc.try_take("->") else None
            sc.expect(")")
        return Action(_KINDS[word], var, targets)

    actions = sc.items(action)
    sc.end()
    return ActionSet(actions, diagram)


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
# Conflicts, plans
# ---------------------------------------------------------------------------

# Failure classes, mirroring the FAIL sites of the decision procedure.
VALUE_CONFLICT_CTF = "value-conflict-ctf-rand"
VALUE_CONFLICT_RAND = "value-conflict-rand"
NO_ACTION = "no-action-available"
NATURAL_CONFLICT_CTF = "natural-conflict-ctf-rand"
NATURAL_CONFLICT_RAND = "natural-conflict-rand"
OUTPUT_ERASED = "output-erased-by-rand"
READ_UNAVAILABLE = "read-unavailable"


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
            reads = tuple(
                ti for ti, t in enumerate(self.query.terms) if t.variable == v
            )
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
        """The performed actions with their required draws, in plan order."""
        return tuple((a, tag) for a, tag in self.tags if tag is not NATURAL)

    def acceptance_probability(self) -> float:
        """Probability a unit survives all rejection checks under uniform
        draws (tags are drawn independently)."""
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
    """Action tags a single term forces. ``by_var`` maps each source
    variable to its (action id, tag, child) entries in merge order; the
    child is None for a whole-variable randomization tagged Natural. A
    term fails alone when no action can fix its value v of variable V as
    input to a child; ``failure`` is then (V, v, child), and the entries
    stop at V."""

    by_var: dict[str, list[tuple[int, object, str | None]]]
    failure: tuple[str, Value, str] | None = None
    # the same tags keyed by action id; one term never tags an action twice
    # with different tags, since a variable is either fixed or natural in it
    tags: dict[int, object] = field(init=False)

    def __post_init__(self):
        self.tags = {
            i: tag for entries in self.by_var.values() for i, tag, _ in entries
        }


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
    def _rand(self) -> dict[str, int]:
        """The id of each variable's whole-variable randomization."""
        return {a.var: i for i, a in enumerate(self._randomizations) if a.kind == RAND}

    # -- per-term requirement tags -------------------------------------

    def term_requirements(self, term: PotentialResponse) -> _TermRequirements:
        key = (term.variable, frozenset(term.regime))
        req = self._term_cache.get(key)
        if req is None:
            req = self._term_cache[key] = self._compute_term_requirements(term)
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
        by_var: dict[str, list[tuple[int, object, str | None]]] = {}
        for v in self.topo:
            if v == w or v not in relevant:
                continue
            entries = by_var.setdefault(v, [])
            if v in regime_vars:
                child = self._value_pass(v, assignment[v], relevant, regime_vars, entries)
                if child is not None:
                    return _TermRequirements(by_var, (v, assignment[v], child))
            else:
                self._natural_pass(v, relevant, regime_vars, entries)
        return _TermRequirements(by_var)

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
            if action is not None:
                entries.append((self._id[action], value, c))
            elif v in self._rand:
                entries.append((self._rand[v], value, c))
            else:
                return c
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
                    entries.append((self._id[action], NATURAL, c))
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
            if tags.get(self._rand.get(t.variable), NATURAL) is not NATURAL:
                return None
            if not self.actions.has_read(t.variable):
                return None
        return tags

    def _plan(self, q: CtfQuery, tags: dict[int, object]) -> RealizationPlan:
        return RealizationPlan(
            query=q,
            diagram=self.diagram,
            tags=tuple([(self._randomizations[i], tags[i]) for i in sorted(tags)]),
        )

    def _realize_ordered(
        self, q: CtfQuery, reqs: Sequence[_TermRequirements]
    ) -> RealizationPlan | NotRealizable:
        """The reference merge: variables in topological order, terms in
        query order, so the first clash met is the reported conflict."""
        merged: dict[int, tuple[object, int]] = {}
        clash = self._first_clash(q, reqs, merged)
        if clash is not None:
            return NotRealizable(q, Conflict(*clash), self.diagram)
        return self._plan(q, {i: tag for i, (tag, _) in merged.items()})

    def _first_clash(
        self,
        q: CtfQuery,
        reqs: Sequence[_TermRequirements],
        merged: dict[int, tuple[object, int]],
    ) -> tuple | None:
        """Merge every term's tags into ``merged`` (action id -> tag and
        the index of the term that set it) in the reference order. Returns
        the fields of the first conflict, in Conflict's order, or None."""
        outputs: dict[str, list[int]] = {}
        for ti, t in enumerate(q.terms):
            outputs.setdefault(t.variable, []).append(ti)
        for v in self.topo:
            for ti, req in enumerate(reqs):
                if req.failure is not None and req.failure[0] == v:
                    _, value, child = req.failure
                    return v, NO_ACTION, None, value, None, ti, None, child
                for i, tag, child in req.by_var.get(v, ()):
                    existing, prior = merged.setdefault(i, (tag, ti))
                    if existing != tag:
                        action = self._randomizations[i]
                        failure = self._conflict_class(action, tag)
                        return v, failure, action, tag, existing, ti, prior, child
            for ti in outputs.get(v, ()):
                i = self._rand.get(v)
                existing, prior = merged.get(i, (NATURAL, None))
                if existing is not NATURAL:
                    action = self._randomizations[i]
                    return v, OUTPUT_ERASED, action, None, existing, ti, prior, None
                if not self.actions.has_read(v):
                    return v, READ_UNAVAILABLE, read_action(v), None, None, ti, None, None
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
