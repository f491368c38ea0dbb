"""Deciding whether a counterfactual joint can be physically sampled.

The decision procedure takes each query term W under regime T and
walks, backwards in topological order from W, every edge V -> C that W
uses: C feeds W inside the regime-cut graph and is not itself fixed by
T. The checker's covering table lists per edge the input-randomizations
of V whose targets contain C, smallest first; containment makes the
list a chain.
Each used edge is tagged once:

* V carries a value in T: C must receive that value, so the head of the
  chain is tagged with it. With an empty chain whole-variable
  randomization is the fallback; with neither, the term fails.
* V is untagged: C must receive V untouched, so the whole chain, and
  Rand(V) once per variable, is tagged Natural (must not be performed).

A query is realizable iff no action ends up with two different tags, no
output variable needs its own mechanism erased by a whole-variable
randomization, and every output can be read. On success the procedure
emits an executable plan: perform the value-tagged randomizations step
by step, discard the unit whenever a drawn value misses its tag, then
read the outputs.

Tags are per-action and depend only on the term, so conflicts are
always witnessed by a pair of terms. ``RealizabilityChecker`` prepares
each raw query term once, in one walk over its regime
(``queries.split_regime`` validates it and splits off the subscripts
that cannot reach its variable; each dropped one warns then, once), and
maps it to the one record of its variable and kept regime, which every
raw term that normalizes alike shares. A record is computed when its
variable and regime are first met: whether the term is realizable
alone, and its tags, stored twice in one walk. In three bit words each
action id (the action's position in plan order) owns a fixed-width
field: ``v`` holds each tag's code (1 for Natural, 2 + the value's index
in the action variable's domain), ``fm`` is all ones over the fields
the term tags, and ``h`` covers the value bits of the field of its
output's whole-variable randomization. Per source variable, the same
tags are listed in merge order with the child each serves. ``realize``
decides a single term from its record. A longer query fails when a term
fails alone, when two terms put different codes in one field (XOR under
both masks), or when some output's randomization is performed (the
merged codes under the merged ``h``).

A verdict holds the raw query and the records, and derives the rest
when it is first read: the normalized query (the raw terms that
dropped a subscript rebuilt from their kept entries), a plan's tags
(decoded from the merged ``v`` word field by field, which is plan
order), and a failing verdict's conflict. That conflict comes from the
ordered reference merge over the per-variable lists (variables in
topological order, terms in query order), which names the first clash
it meets. Every ``Conflict``, whatever its failure class, comes from
that merge.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

from .errors import ActionError, ContainmentViolation, QueryError, QuerySyntaxError
from .graphs import CausalDiagram, Value
from .queries import (
    CtfQuery,
    PotentialResponse,
    RegimeEntry,
    _Scanner,
    _ancestor_regimes,
    dropped_messages,
    parse_targets,
    split_regime,
    targets_text,
    warn_at_caller,
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
        if diagram is not None:
            _check_actions(self.actions, diagram)
        ctf = [a for a in self.actions if a.kind == CTF_RAND]
        for a, b in itertools.combinations(ctf, 2):
            if a.var == b.var and overlap_without_nesting(a.targets, b.targets):  # type: ignore[arg-type]
                raise ContainmentViolation(f"{a} and {b} overlap without nesting")
        self._reads = {a.var for a in self.actions if a.kind == READ}

    def __contains__(self, action: Action) -> bool:
        return action in self.actions

    def __iter__(self):
        return iter(self.actions)

    def __len__(self) -> int:
        return len(self.actions)

    def has_read(self, v: str) -> bool:
        return v in self._reads

    def union(self, other: "ActionSet") -> "ActionSet":
        return ActionSet(tuple(self.actions) + tuple(other.actions))

    def __repr__(self) -> str:
        return "ActionSet(" + ", ".join(str(a) for a in self.actions) + ")"


def _check_actions(actions: Iterable[Action], diagram: CausalDiagram) -> None:
    """Raise ActionError for an action on a variable outside the diagram,
    or an input-randomization whose targets are not all its children."""
    for a in actions:
        if a.var is not None and a.var not in diagram:
            raise ActionError(f"{a}: unknown variable {a.var!r}")
        if a.kind == CTF_RAND:
            bad = a.targets - set(diagram.children(a.var))  # type: ignore[operator,arg-type]
            if bad:
                raise ActionError(
                    f"{a}: targets {sorted(bad)} are not children of {a.var!r}"
                )


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
# the class of two tags clashing on one action: (new tag is Natural, action kind)
_CLASH = {
    (False, CTF_RAND): VALUE_CONFLICT_CTF, (False, RAND): VALUE_CONFLICT_RAND,
    (True, CTF_RAND): NATURAL_CONFLICT_CTF, (True, RAND): NATURAL_CONFLICT_RAND,
}


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


class _Verdict:
    """What ``realize`` returns, realizable or not: the raw query, each
    term's record and the checker that decided it. The normalized query
    is built on first access, since most callers only need the verdict.
    Two verdicts of one class are equal when the attributes named in
    ``_compared`` are; hash and repr show the same attributes."""

    realizable: bool
    _compared: tuple[str, ...]

    def __init__(self, query: CtfQuery, records: Sequence[_TermRecord],
                 checker: RealizabilityChecker):
        self._raw = query
        self._records = records
        self._checker = checker
        self.diagram = checker.diagram

    def __bool__(self) -> bool:
        return self.realizable

    @cached_property
    def query(self) -> CtfQuery:
        """The normalized query: the raw query itself when none of its terms
        dropped a subscript when the checker prepared it, else each raw
        term that did rebuilt from the entries ``split_regime`` kept. No
        term is split again and no warning text is built."""
        raw, kept = self._raw, self._checker._kept
        if kept.keys().isdisjoint(raw.terms):
            return raw
        return CtfQuery(tuple([
            PotentialResponse(t.variable, tuple(kept[t]), t.value) if t in kept else t
            for t in raw.terms
        ]))

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._compared])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._compared)
        return f"{type(self).__qualname__}({shown})"


class NotRealizable(_Verdict):
    """Negative verdict with a structured witness. The conflict (the
    ordered merge's first clash over the records' ``by_var`` tags) and
    the criterion's witness pair are computed on first access. Two
    verdicts are equal when their queries and conflicts are."""

    realizable = False
    _compared = ("query", "conflict")

    @cached_property
    def conflict(self) -> Conflict:
        return self._checker._first_clash(self.query, self._records)  # type: ignore[return-value]

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


class RealizationPlan(_Verdict):
    """Executable schedule for drawing one i.i.d. sample of the query.

    ``tags`` lists every action the query's terms tag, in plan order (by
    the variable's topological position, then by Action.sort_key), with
    its tag: the value the randomization must draw, or NATURAL for an
    action that must not be performed. A plan built by
    ``RealizationPlan(query, diagram, tags)`` holds them as given. One
    that ``realize`` builds holds the raw query, the terms' records and
    the merged value word of the decision; on first access it builds the
    normalized query, and decodes the word's fields in action-id order,
    which is plan order: code 1 is NATURAL, code 2 + k the k-th value of
    the action variable's domain. The steps, the held-back actions and
    the notes are derived from the tags on first access too, since
    deciding a query needs none of them. Two plans are equal when their
    queries, diagrams and tags are."""

    realizable = True
    _compared = ("query", "diagram", "tags")

    def __init__(
        self,
        query: CtfQuery,
        diagram: CausalDiagram,
        tags: tuple[tuple[Action, object], ...],
    ):
        self.query = query
        self.diagram = diagram
        self.tags = tags

    @classmethod
    def _decided(cls, query: CtfQuery, records: Sequence[_TermRecord],
                 checker: RealizabilityChecker, word: int) -> RealizationPlan:
        """The plan ``realize`` decided, with ``word`` the records' merged
        ``v``: what ``_Verdict.__init__`` sets, without the call a warm
        decision would pay for."""
        plan = cls.__new__(cls)
        plan._raw = query
        plan._records = records
        plan._checker = checker
        plan.diagram = checker.diagram
        plan._word = word
        return plan

    @cached_property
    def tags(self) -> tuple[tuple[Action, object], ...]:
        width, _ = self._checker._fields
        ones = (1 << width) - 1
        domains = self.diagram.domains
        word, tags = self._word, []
        for action in self._checker._randomizations:
            if not word:
                break
            code = word & ones
            if code:
                tags.append((action, NATURAL if code == 1 else domains[action.var][code - 2]))
            word >>= width
        return tuple(tags)

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

class _TermRecord(NamedTuple):
    """One normalized term as the checker decides and plans it, one per
    variable and regime and shared by every raw term that normalizes to
    them (event values play no part): ``alone``, whether it is realizable
    alone (it neither fails alone nor has an output without a read); its
    tags as words over the checker's ``_fields`` (``v`` holds each tagged
    action's code, ``fm`` is all ones over the tagged fields, ``h``
    covers the value bits of the field of its variable's ``Rand``, or is
    0); and the same tags for the ordered merge, ``by_var``: per source
    variable its (action id, tag, child) entries in merge order, the
    child None for a ``Rand`` tagged Natural. When no action can fix the
    term's value x of V as input to a child, ``failure`` is (V, x,
    child), V's entries stop at that child and the words are 0 (when
    several variables fail, V is the first in topological order, the
    only failure the ordered merge reaches). It holds no term:
    a verdict's query comes from the raw terms."""

    alone: bool
    v: int
    fm: int
    h: int
    by_var: dict[str, list[tuple[int, object, str | None]]]
    failure: tuple[str, Value, str] | None = None


class RealizabilityChecker:
    """Caches one record per normalized term for one (diagram, action
    set) pair so that many queries over the same setting are cheap to
    decide. Its covering table, ``_covering``, is the one place that
    decides which action fixes a variable's input to a child. The actions
    are checked against the diagram at the first decision, not at
    construction.

    Each raw term a query holds is prepared once: one ``split_regime``
    walk, then a lookup of the ``_TermRecord`` of its variable and kept
    entries, computed only when no raw term met it before. No normalized
    term, one-term query or record copy is built per raw term, and every
    cache lives and dies with the checker. A warm ``realize`` only looks
    records up: a single term is decided by its record's ``alone`` flag,
    and a longer query by three integer words per record, with no dict
    built. Neither builds the normalized query, the plan's tags or a
    conflict; the verdict does that on first access. A plan decodes its
    tags from the merged ``v`` word, and a failing verdict names its
    conflict through ``_first_clash``, the one ordered merge, which
    builds every ``Conflict``."""

    def __init__(self, diagram: CausalDiagram, actions: ActionSet):
        self.diagram = diagram
        self.actions = actions
        self.topo = diagram.topological_order()
        self._term_cache: dict[tuple, _TermRecord] = {}
        self._prepared: dict[PotentialResponse, _TermRecord] = {}
        # the kept entries of each prepared raw term that drops a subscript
        self._kept: dict[PotentialResponse, list[RegimeEntry]] = {}
        # (V, term, child) visits, V before the term's variable in
        # topological order, for complexity checks
        self.compat_visits = 0

    # built on first use, so that setting up a checker stays cheap

    @cached_property
    def _position(self) -> dict[str, int]:
        """Each variable's index in topological order."""
        return {v: k for k, v in enumerate(self.topo)}

    @cached_property
    def _randomizations(self) -> tuple[Action, ...]:
        """The randomizing actions in plan order: by the variable's
        topological position, then by Action.sort_key (the action set's
        own order, which the stable sort keeps). Positions are action ids."""
        _check_actions(self.actions, self.diagram)
        position = self._position
        return tuple(sorted(
            (a for a in self.actions.actions if a.kind in (RAND, CTF_RAND)),
            key=lambda a: position[a.var],
        ))

    @cached_property
    def _rand(self) -> dict[str, int]:
        """The id of each variable's whole-variable randomization."""
        return {a.var: i for i, a in enumerate(self._randomizations) if a.kind == RAND}

    @cached_property
    def _fields(self) -> tuple[int, dict[str, dict[Value, int]]]:
        """The width in bits of each action id's field in the records'
        words, and per randomized variable the code of each value: 2 +
        its index in the domain, since 1 is Natural's code and 0 means
        untagged. The width fits the largest domain's largest code."""
        domains = self.diagram.domains
        codes = {
            v: {x: 2 + k for k, x in enumerate(domains[v])}
            for v in {a.var for a in self._randomizations}
        }
        width = (max(map(len, codes.values()), default=0) + 1).bit_length()
        return width, codes

    @cached_property
    def _covering(self) -> dict[tuple[str, str], list[int]]:
        """Per edge (v, c), the ids of v's input-randomizations whose
        targets contain c, smallest target set first: a chain, by
        containment, whose head is the smallest covering action."""
        covering: dict[tuple[str, str], list[int]] = {}
        by_size = sorted(enumerate(self._randomizations), key=lambda ia: len(ia[1].targets or ()))
        for i, a in by_size:
            for c in a.targets or ():
                covering.setdefault((a.var, c), []).append(i)  # type: ignore[arg-type]
        return covering

    # -- per-term records --------------------------------------------

    def term_requirements(self, term: PotentialResponse) -> _TermRecord:
        """The record ``realize`` reads for a full-do term, prepared by
        ``_prepare`` on the term's first use: an invalid term raises
        ``QueryError`` and a dropped subscript warns."""
        return self._prepared.get(term) or self._prepare(term)

    def _compute_term_requirements(
        self, w: str, regime: Sequence[RegimeEntry], value: Value | None
    ) -> _TermRecord:
        """Tag the actions on each edge v -> c that W's ancestors use, once
        per edge, as the module docstring says, and OR each variable's
        tag code into the words at the ids it tags. The walk goes backwards
        over the variables before W in topological order, so it finds W's
        ancestors in the regime-cut graph (``diagram.ancestors(w,
        cut_into=regime)``) edge by edge: v is one iff some child it feeds
        unfixed is W or one. Each of them gets a ``by_var`` list. W's
        event value only goes into the text of a path-restricted term's
        error."""
        assignment = {}
        for e in regime:
            if e.targets is not None:
                raise QueryError(
                    f"term {PotentialResponse(w, tuple(regime), value)} is "
                    "path-restricted; the decision procedure takes plain value "
                    "subscripts (model path-specific actions as variables of "
                    "the expanded diagram instead)"
                )
            assignment[e.var] = e.value
        relevant = {w}  # W and the ancestors found so far
        children = self.diagram._children
        covering, rand = self._covering, self._rand
        width, codes = self._fields
        ones = (1 << width) - 1
        by_var: dict[str, list[tuple[int, object, str | None]]] = {}
        failure = None
        word = mask = visits = 0
        for v in reversed(self.topo[:self._position[w]]):
            entries: list[tuple[int, object, str | None]] = []
            tag = assignment.get(v, NATURAL)
            touched = False
            for c in children[v]:
                visits += 1
                if c not in relevant or c in assignment:
                    continue
                touched = True
                chain = covering.get((v, c), ())
                if tag is NATURAL:
                    entries.extend((i, NATURAL, c) for i in chain)
                elif chain:
                    entries.append((chain[0], tag, c))
                elif v in rand:
                    entries.append((rand[v], tag, c))
                else:
                    # a failure of an earlier variable, met later in this
                    # walk, replaces this one
                    failure = (v, tag, c)
                    break
            if not touched:
                continue
            relevant.add(v)
            if tag is NATURAL and v in rand:
                entries.append((rand[v], NATURAL, None))
            by_var[v] = entries
            if entries:
                # one term never tags an action twice with different tags,
                # since a variable is either fixed or natural in it
                code = 1 if tag is NATURAL else codes[v][tag]
                for i, _, _ in entries:
                    word |= code << i * width
                    mask |= ones << i * width
        self.compat_visits += visits
        if failure is not None:
            return _TermRecord(False, 0, 0, 0, by_var, failure)
        # a term never tags its own variable's randomization (the walk skips
        # W), so alone it fails only by itself or by an unreadable output
        h = (ones ^ 1) << rand[w] * width if w in rand else 0
        return _TermRecord(self.actions.has_read(w), word, mask, h, by_var)

    def _prepare(self, t: PotentialResponse) -> _TermRecord:
        """One raw term validated and split by ``split_regime``, in one
        walk, and its record looked up by variable and kept entries, and
        computed from them when new; no term is built. ``realize`` and
        ``term_requirements`` call it on a term's first use. The record
        is stored in self._prepared for every later use of the term, and
        the kept entries of a term that drops a subscript in self._kept,
        for the verdict's lazy query. Each dropped subscript warns here,
        once, at the caller outside the package; a path-restricted term
        raises before anything is stored or warned."""
        kept, dropped = split_regime(t, self.diagram)
        key = (t.variable, frozenset(kept))
        record = self._term_cache.get(key)
        if record is None:
            record = self._term_cache[key] = self._compute_term_requirements(
                t.variable, kept, t.value
            )
        if dropped:
            self._kept[t] = kept
            warn_at_caller(dropped_messages(t, dropped))
        self._prepared[t] = record
        return record

    # -- merging terms ---------------------------------------------------

    def realize(self, q: CtfQuery) -> RealizationPlan | NotRealizable:
        try:
            records = list(map(self._prepared.get, q.terms))
            if None in records:
                records = [self._prepared.get(t) or self._prepare(t) for t in q.terms]
        except TypeError:  # an unhashable value, which no domain holds
            q.validate(self.diagram)
            raise
        if len(records) == 1:
            ok, V = records[0].alone, records[0].v
        else:
            # a term failing alone, two codes in one field, or a performed
            # randomization of some output fails the query, as _first_clash
            # would find it
            V = FM = H = 0
            for alone, v, fm, h, _, _ in records:
                if not alone or (V ^ v) & FM & fm:
                    ok = False
                    break
                V |= v
                FM |= fm
                H |= h
            else:
                ok = not V & H
        if ok:
            return RealizationPlan._decided(q, records, self, V)
        return NotRealizable(q, records, self)

    def _first_clash(self, q: CtfQuery, records: Sequence[_TermRecord]) -> Conflict | None:
        """The reference merge: every term's ``by_var`` tags by action id,
        with the index of the term that set each, variables in topological
        order, terms in query order. Returns the first conflict it meets,
        or None when there is none."""
        merged: dict[int, tuple[object, int]] = {}
        outputs: dict[str, list[int]] = {}
        for ti, t in enumerate(q.terms):
            outputs.setdefault(t.variable, []).append(ti)
        for v in self.topo:
            for ti, record in enumerate(records):
                if record.failure is not None and record.failure[0] == v:
                    _, value, child = record.failure
                    return Conflict(v, NO_ACTION, None, value, None, ti, None, child)
                for i, tag, child in record.by_var.get(v, ()):
                    existing, prior = merged.setdefault(i, (tag, ti))
                    if existing != tag:
                        action = self._randomizations[i]
                        failure = _CLASH[tag is NATURAL, action.kind]
                        return Conflict(v, failure, action, tag, existing, ti, prior, child)
            for ti in outputs.get(v, ()):
                i = self._rand.get(v)
                existing, prior = merged.get(i, (NATURAL, None))
                if existing is not NATURAL:
                    action = self._randomizations[i]
                    return Conflict(v, OUTPUT_ERASED, action, None, existing, ti, prior, None)
                if not self.actions.has_read(v):
                    return Conflict(v, READ_UNAVAILABLE, read_action(v), None, None, ti, None, None)
        return None


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
    two different regimes. Returns (verdict, witness pair or None).

    The witness is the first ancestor, in ``counterfactual_ancestors``
    order, whose variable comes back under another regime, and the first
    such later ancestor. The ancestors are compared by variable and
    regime; only the witness pair is built as responses."""
    first: dict = {}
    second: dict = {}
    for w, z in _ancestor_regimes(q.normalized(diagram), diagram):
        if w in first:
            second.setdefault(w, z)
        else:
            first[w] = z
    for w, z in first.items():
        if w in second:
            return False, (PotentialResponse(w, z), PotentialResponse(w, second[w]))
    return True, None
