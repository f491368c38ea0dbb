"""Counterfactual queries: potential responses, regimes, parsing.

A regime is a set of per-edge value assignments. The common atomic case
("Y under X fixed to 1") assigns the value on every outgoing edge of X;
the path-restricted case ("Y where only Y's mechanism receives X=1")
lists the receiving children explicitly. One variable may appear in
several entries of one regime as long as the explicit target sets are
disjoint, which is how a nested term like "Y receiving x' directly
while the mediator runs under x" is written.

Text form (the grammar is in ``parse_query``'s docstring):

    P(Y[X=1], X)            two terms: Y under do(X=1), and natural X
    P(Y[X=1]=1, X=0)        the same terms with event values attached
    P(Y[X=1->Y], X)         path-restricted: only Y's mechanism sees 1
    P(Y[X=1->Y, X=0->Z])    two edges of X carry different values

Terms are hashed on every hot path (as keys of the checker's per-term
records, and inside the queries that key the exact engine's masks), so
``RegimeEntry`` and ``PotentialResponse`` compute their field hash on
the first ``hash()`` and keep it. The hash is lazy, so a term holding an
unhashable value still builds (and fails only where it is hashed), and
it is left out of pickled and copied state, so a term loaded in a
process with another ``PYTHONHASHSEED`` hashes afresh. Equality, repr
and the dataclass fields are the generated ones.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

from .errors import QueryError, QuerySyntaxError
from .graphs import CausalDiagram, Value


def _state_without_hash(term) -> dict:
    """Pickled and copied state: the fields, never the cached hash."""
    return {k: v for k, v in term.__dict__.items() if k != "_hash"}


@dataclass(frozen=True)
class RegimeEntry:
    """One intervention edge-group: ``var`` is fixed to ``value`` as input
    to ``targets`` (None means every child, i.e. an atomic do())."""

    var: str
    value: Value
    targets: frozenset[str] | None = None

    _hash = None  # the field hash, set by the first __hash__

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.var, self.value, self.targets))
            object.__setattr__(self, "_hash", h)
        return h

    __getstate__ = _state_without_hash

    def is_full(self) -> bool:
        return self.targets is None


@dataclass(frozen=True)
class PotentialResponse:
    """A variable evaluated under a (possibly empty) regime."""

    variable: str
    regime: tuple[RegimeEntry, ...] = ()
    value: Value | None = None  # event value; None when unvalued

    _hash = None  # the field hash, set by the first __hash__

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.variable, self.regime, self.value))
            object.__setattr__(self, "_hash", h)
        return h

    __getstate__ = _state_without_hash

    def __post_init__(self):
        for e in self.regime:
            if e.var == self.variable:
                raise QueryError(
                    f"self-intervention: {self.variable!r} appears in its own regime"
                )
        # entries for one variable must have pairwise-disjoint explicit targets
        by_var: dict[str, list[RegimeEntry]] = {}
        for e in self.regime:
            by_var.setdefault(e.var, []).append(e)
        for var, entries in by_var.items():
            if len(entries) > 1:
                if all(e.is_full() for e in entries):
                    raise QueryError(f"regime assigns {var!r} more than once")
                if any(e.is_full() for e in entries):
                    raise QueryError(
                        f"regime assigns {var!r} both fully and per-edge"
                    )
                seen: set[str] = set()
                for e in entries:
                    assert e.targets is not None
                    if seen & e.targets:
                        raise QueryError(
                            f"regime entries for {var!r} have overlapping targets"
                        )
                    seen |= e.targets

    # -- convenience ------------------------------------------------------

    def is_full_do(self) -> bool:
        return all(e.is_full() for e in self.regime)

    def assignment(self) -> dict[str, Value]:
        """var -> value for full-do regimes."""
        if not self.is_full_do():
            raise QueryError("regime is path-restricted, not a plain assignment")
        return {e.var: e.value for e in self.regime}

    def with_value(self, value: Value) -> "PotentialResponse":
        return PotentialResponse(self.variable, self.regime, value)

    def same_response(self, other: "PotentialResponse") -> bool:
        """Same variable under the same regime (event values ignored)."""
        return (
            self.variable == other.variable
            and frozenset(self.regime) == frozenset(other.regime)
        )

    def __str__(self) -> str:
        sub = ""
        if self.regime:
            parts = []
            for e in self.regime:
                s = f"{e.var}={e.value}"
                if e.targets is not None:
                    s += "->" + targets_text(e.targets)
                parts.append(s)
            sub = "[" + ", ".join(parts) + "]"
        val = f"={self.value}" if self.value is not None else ""
        return f"{self.variable}{sub}{val}"


def response(variable: str, do: Mapping[str, Value] | None = None,
             value: Value | None = None) -> PotentialResponse:
    """Shorthand for an atomic-regime potential response."""
    regime = tuple(RegimeEntry(v, x) for v, x in (do or {}).items())
    return PotentialResponse(variable, regime, value)


@dataclass(frozen=True)
class CtfQuery:
    """Conjunction of potential responses, e.g. the ETT query P(Y[X=1], X).
    The empty conjunction is legal and denotes the sure event."""

    terms: tuple[PotentialResponse, ...]

    def is_valued(self) -> bool:
        return all(t.value is not None for t in self.terms)

    def values(self) -> tuple[Value, ...]:
        return tuple(t.value for t in self.terms)

    def unvalued(self) -> "CtfQuery":
        return CtfQuery(tuple(t.with_value(None) for t in self.terms))

    def validate(self, diagram: CausalDiagram) -> None:
        for t in self.terms:
            if t.variable not in diagram:
                raise QueryError(f"unknown variable {t.variable!r}")
            if t.value is not None and t.value not in diagram.domains[t.variable]:
                raise QueryError(
                    f"value {t.value!r} outside domain of {t.variable!r}"
                )
            for e in t.regime:
                if e.var not in diagram:
                    raise QueryError(f"unknown regime variable {e.var!r}")
                if e.value not in diagram.domains[e.var]:
                    raise QueryError(
                        f"value {e.value!r} outside domain of {e.var!r}"
                    )
                if e.targets is not None:
                    ch = set(diagram.children(e.var))
                    bad = e.targets - ch
                    if bad:
                        raise QueryError(
                            f"targets {sorted(bad)} are not children of {e.var!r}"
                        )

    def normalized(self, diagram: CausalDiagram) -> "CtfQuery":
        """Drop regime variables that are not ancestors of their term's
        variable; such subscripts cannot affect the response. Warns once
        per dropped entry. Returns the query itself when nothing drops."""
        new_terms = []
        for t in self.terms:
            kept, messages = normalize_term(t, diagram)
            for message in messages:
                warnings.warn(message, stacklevel=3)
            new_terms.append(kept)
        if all(kept is t for kept, t in zip(new_terms, self.terms)):
            return self
        return CtfQuery(tuple(new_terms))

    def __str__(self) -> str:
        return "P(" + ", ".join(str(t) for t in self.terms) + ")"


def normalize_term(
    t: PotentialResponse, diagram: CausalDiagram
) -> tuple[PotentialResponse, tuple[str, ...]]:
    """The term without regime entries that cannot reach its variable
    (the term itself if none is dropped), and one warning message per
    dropped entry."""
    kept = []
    messages = []
    for e in t.regime:
        if t.variable in diagram.descendants(e.var):
            kept.append(e)
        else:
            messages.append(
                f"dropping irrelevant subscript {e.var}={e.value} "
                f"from term {t}: {e.var!r} is not an ancestor of "
                f"{t.variable!r}"
            )
    if not messages:
        return t, ()
    return PotentialResponse(t.variable, tuple(kept), t.value), tuple(messages)


def query(*terms: PotentialResponse) -> CtfQuery:
    return CtfQuery(tuple(terms))


# ---------------------------------------------------------------------------
# Counterfactual ancestors
# ---------------------------------------------------------------------------

def counterfactual_ancestors(
    q: CtfQuery | PotentialResponse, diagram: CausalDiagram
) -> tuple[PotentialResponse, ...]:
    """Every potential response that must be realized, under its required
    regime, for the query's terms to be evaluated.

    For a term with variable Y under assignment x to variables X: each
    ancestor W of Y in the graph with X's outgoing edges removed
    contributes W under the restriction of x to the ancestors of W in
    the graph with X's incoming edges removed. Terms without regimes
    contribute their plain ancestors. The union is deduplicated; one
    variable may legitimately appear under several regimes (that is
    exactly what the realizability criterion looks for).
    """
    terms = q.terms if isinstance(q, CtfQuery) else (q,)
    out: list[PotentialResponse] = []
    seen: set[tuple] = set()
    for t in terms:
        if not t.is_full_do():
            raise QueryError(
                "counterfactual ancestors are defined for plain value "
                "subscripts; rewrite path-restricted terms over the "
                "expanded diagram"
            )
        x = t.assignment()
        xs = tuple(x)
        for w in diagram.ancestors(t.variable, cut_out_of=xs):
            anc_w = diagram.ancestors(w, cut_into=xs)
            z = tuple(
                RegimeEntry(v, x[v]) for v in xs if v in anc_w and v != w
            )
            key = (w, frozenset(z))
            if key not in seen:
                seen.add(key)
                out.append(PotentialResponse(w, z))
    return tuple(out)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

T = TypeVar("T")
_NAME_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.'")


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def expect(self, ch: str) -> None:
        if not self.try_take(ch):
            raise QuerySyntaxError(f"expected {ch!r}", self.text, self.pos)

    def try_take(self, ch: str) -> bool:
        self.skip_ws()
        if self.text.startswith(ch, self.pos):
            self.pos += len(ch)
            return True
        return False

    def name(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _NAME_CHARS:
            self.pos += 1
        if self.pos == start:
            raise QuerySyntaxError("expected a name", self.text, self.pos)
        return self.text[start:self.pos]

    def items(self, item: Callable[[], T]) -> list[T]:
        """``item ("," item)*``: one or more comma-separated items."""
        found = [item()]
        while self.try_take(","):
            found.append(item())
        return found

    def end(self) -> None:
        self.skip_ws()
        if self.pos < len(self.text):
            raise QuerySyntaxError("trailing input", self.text, self.pos)


def _coerce(token: str, domain: Sequence[Value]) -> Value:
    if token in domain:
        return token
    try:
        as_int = int(token)
    except ValueError:
        as_int = None
    if as_int is not None and as_int in domain:
        return as_int
    raise QueryError(f"value {token!r} outside domain {list(domain)}")


def parse_query(text: str, diagram: CausalDiagram) -> CtfQuery:
    """Parse query text against a diagram's variables and domains.

    Grammar (whitespace may separate tokens; "P(" and "->" are single
    tokens)::

        query   := "P(" terms ")" | terms
        terms   := term ("," term)*
        term    := name ["[" entry ("," entry)* "]"] ["=" value]
        entry   := name "=" value ["->" targets]
        targets := name | "{" name ("," name)* "}"
        value   := name
        name    := one or more letters, digits, "_", "." or "'"

    A term's name is its variable, an entry's name the regime variable,
    and a name after "->" a child that receives the value (no arrow: every
    child does). A value token is looked up in the variable's domain as
    text first, then as an integer.

    Action sets (``realizability.parse_action_set``) are read by the same
    scanner, with the same ``targets``::

        actions := action ("," action)*
        action  := kind ["(" name ["->" targets] ")"]
        kind    := "Select" | "Read" | "Rand" | "CtfRand"

    e.g. ``Select, Read(Y), Rand(X), CtfRand(X->{Z,W})``; only CtfRand
    takes targets, and only Select takes no variable.

    Raises QuerySyntaxError (with position) for malformed text and
    QueryError for unknown variables, out-of-domain values and
    self-interventions.
    """
    sc = _Scanner(text)
    wrapped = sc.try_take("P(")
    terms = sc.items(lambda: _parse_term(sc, diagram))
    if wrapped:
        sc.expect(")")
    sc.end()

    q = CtfQuery(tuple(terms))
    q.validate(diagram)
    return q


def _parse_term(sc: _Scanner, diagram: CausalDiagram) -> PotentialResponse:
    var = sc.name()
    if var not in diagram:
        raise QueryError(f"unknown variable {var!r}")
    entries: list[RegimeEntry] = []
    if sc.try_take("["):
        entries = sc.items(lambda: _parse_entry(sc, diagram))
        sc.expect("]")
    value: Value | None = None
    if sc.try_take("="):
        value = _coerce(sc.name(), diagram.domains[var])
    return PotentialResponse(var, tuple(entries), value)


def _parse_entry(sc: _Scanner, diagram: CausalDiagram) -> RegimeEntry:
    var = sc.name()
    if var not in diagram:
        raise QueryError(f"unknown regime variable {var!r}")
    sc.expect("=")
    value = _coerce(sc.name(), diagram.domains[var])
    targets = parse_targets(sc) if sc.try_take("->") else None
    return RegimeEntry(var, value, targets)


def parse_targets(sc: _Scanner) -> frozenset[str]:
    """The children named after "->": one name, or names in braces. The
    inverse of ``targets_text``."""
    if not sc.try_take("{"):
        return frozenset([sc.name()])
    names = sc.items(sc.name)
    sc.expect("}")
    return frozenset(names)


def targets_text(targets: Iterable[str]) -> str:
    """A target set as written after "->": a lone name bare, several
    sorted in braces."""
    names = sorted(targets)
    return names[0] if len(names) == 1 else "{" + ",".join(names) + "}"
