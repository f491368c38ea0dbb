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

A term is checked against a diagram in one place, ``split_regime``:
one walk that validates the term and splits its regime into the entries
that can reach the term's variable and those that cannot. Validation
(``CtfQuery.validate``), normalization (``normalize_term``,
``CtfQuery.normalized``) and the realizability checker's per-term
preparation all call it. Each dropped entry warns once, at the line
outside this package that made the call, through one warner,
``warn_dropped``, called once per normalized query and once per term
the checker prepares, when something drops. It looks up the caller's
module and line in the warnings filters first, as ``logging`` checks a
level before it formats a record: where the first filter that matches
a ``UserWarning`` there (or, when none does, the default action) is
``ignore`` with no message pattern, it builds no text and calls no
``warnings.warn``. Elsewhere it warns every text, as ``warnings.warn``
decides.

Terms and queries are hashed on every hot path (terms as keys of the
checker's per-term records, queries as keys of the exact engine's
stored event rows), so ``RegimeEntry``, ``PotentialResponse`` and
``CtfQuery`` compute their field hash on the first ``hash()`` and keep
it. The hash is lazy, so a term holding an unhashable value still
builds (and fails only where it is hashed), and it is left out of
pickled and copied state, so a term loaded in a process with another
``PYTHONHASHSEED`` hashes afresh. Equality, repr and the dataclass
fields are the generated ones.
"""

from __future__ import annotations

import os
import sys
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

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

    def __post_init__(self):
        # a list, tuple or set of child names is stored as a frozenset, so
        # that the entry hashes and compares like a parsed one
        t = self.targets
        if t is None or type(t) is frozenset:
            return
        if isinstance(t, (list, tuple, set, frozenset)):
            try:
                targets = frozenset(t)
            except TypeError:  # an unhashable item, which no child name is
                pass
            else:
                object.__setattr__(self, "targets", targets)
                return
        raise QueryError(
            f"targets of {self.var!r} must be a collection of child names, not {t!r}"
        )

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

    _hash = None  # the field hash, set by the first __hash__

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.terms,))
            object.__setattr__(self, "_hash", h)
        return h

    __getstate__ = _state_without_hash

    def is_valued(self) -> bool:
        return all(t.value is not None for t in self.terms)

    def values(self) -> tuple[Value, ...]:
        return tuple(t.value for t in self.terms)

    def unvalued(self) -> "CtfQuery":
        return CtfQuery(tuple(t.with_value(None) for t in self.terms))

    def validate(self, diagram: CausalDiagram) -> None:
        """Raise QueryError for the first term ``split_regime`` refuses."""
        for t in self.terms:
            split_regime(t, diagram)

    def normalized(self, diagram: CausalDiagram) -> "CtfQuery":
        """Drop regime variables that are not ancestors of their term's
        variable; such subscripts cannot affect the response. Every term
        is validated first, then each dropped entry warns once, at the
        caller (one ``warn_dropped`` call). Returns the query itself when
        nothing drops."""
        terms, pairs = [], []
        for t in self.terms:
            kept, dropped = normalize_term(t, diagram)
            terms.append(kept)
            if dropped:
                pairs.append((t, dropped))
        if not pairs:
            return self
        warn_dropped(pairs)
        return CtfQuery(tuple(terms))

    def __str__(self) -> str:
        return "P(" + ", ".join(str(t) for t in self.terms) + ")"


def split_regime(
    t: PotentialResponse, diagram: CausalDiagram
) -> tuple[list[RegimeEntry], list[RegimeEntry]]:
    """Validate one term against the diagram and split its regime, in one
    walk, into the entries whose variable can reach the term's variable
    (kept) and those that cannot (dropped). Raises QueryError, at the
    first fault in this order: an unknown variable, an event value
    outside its domain, then per entry an unknown regime variable, a
    value outside its domain, or targets that are not all children."""
    w, domains = t.variable, diagram.domains  # keyed by every variable
    if w not in domains:
        raise QueryError(f"unknown variable {w!r}")
    if t.value is not None and t.value not in domains[w]:
        raise QueryError(f"value {t.value!r} outside domain of {w!r}")
    kept: list[RegimeEntry] = []
    dropped: list[RegimeEntry] = []
    for e in t.regime:
        v = e.var
        if v not in domains:
            raise QueryError(f"unknown regime variable {v!r}")
        if e.value not in domains[v]:
            raise QueryError(f"value {e.value!r} outside domain of {v!r}")
        if e.targets is not None:
            bad = e.targets - set(diagram.children(v))
            if bad:
                raise QueryError(f"targets {sorted(bad)} are not children of {v!r}")
        (kept if w in diagram.descendants(v) else dropped).append(e)
    return kept, dropped


# the package's own files, as its code objects name them
_PACKAGE_DIR = os.path.dirname(__file__) + os.sep


def warn_dropped(pairs: Iterable[tuple[PotentialResponse, Sequence[RegimeEntry]]]) -> None:
    """Warn once per regime entry dropped from each term, in order, at the
    innermost frame outside this package: the line that called the
    package, however deep the call went inside it (``skip_file_prefixes``
    does this from Python 3.12 on). Called from the package's own code,
    once per call that drops something.

    When the warnings filters surely ignore a ``UserWarning`` at that
    line, no text is built and nothing warns (``_ignored``); otherwise
    each text is built and warned as ``warnings.warn`` would."""
    frame, level = sys._getframe(2), 3  # the caller is in the package
    while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
        frame, level = frame.f_back, level + 1
    if frame is not None and _ignored(frame):
        return
    for t, dropped in pairs:
        term, w = str(t), t.variable
        for e in dropped:
            warnings.warn(
                f"dropping irrelevant subscript {e.var}={e.value} from term {term}: "
                f"{e.var!r} is not an ancestor of {w!r}",
                stacklevel=level,
            )


def _ignored(frame) -> bool:
    """Whether ``warnings.warn`` would ignore any ``UserWarning`` warned at
    the frame's line, whatever its text: the first filter that matches
    the category, the frame's module and its line is ``ignore`` with no
    message pattern, or none matches and the default action is
    ``ignore`` (the check ``logging.Logger.isEnabledFor`` makes before it
    formats). False whenever that is not sure: a message pattern comes
    first, the frame has no module name, a filter is malformed, or the
    filters depend on the context (``sys.flags.context_aware_warnings``)."""
    module, lineno = frame.f_globals.get("__name__"), frame.f_lineno
    if not isinstance(module, str) or getattr(sys.flags, "context_aware_warnings", False):
        return False
    try:
        for action, message, category, mod, line in warnings.filters:
            # a module given as a plain string matches exactly, as in C
            in_module = mod is None or (
                mod == module if isinstance(mod, str) else mod.match(module)
            )
            if issubclass(UserWarning, category) and in_module and line in (0, lineno):
                return action == "ignore" and message is None
    except Exception:  # noqa: BLE001 -- warnings.warn raises it instead
        return False
    return warnings.defaultaction == "ignore"


def normalize_term(
    t: PotentialResponse, diagram: CausalDiagram
) -> tuple[PotentialResponse, Sequence[RegimeEntry]]:
    """The term validated and without the regime entries that cannot reach
    its variable (``split_regime``): the term itself if none is dropped,
    and the dropped entries, for ``warn_dropped``."""
    kept, dropped = split_regime(t, diagram)
    if not dropped:
        return t, ()
    return PotentialResponse(t.variable, tuple(kept), t.value), dropped


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
    return tuple([PotentialResponse(w, z) for w, z in _ancestor_regimes(q, diagram)])


def _ancestor_regimes(
    q: CtfQuery | PotentialResponse, diagram: CausalDiagram
) -> Iterator[tuple[str, tuple[RegimeEntry, ...]]]:
    """The variable and regime of each counterfactual ancestor, in order
    and deduplicated by (variable, set of entries), without building the
    responses; each regime holds the query term's own entries."""
    terms = q.terms if isinstance(q, CtfQuery) else (q,)
    seen: set[tuple] = set()
    for t in terms:
        if not t.is_full_do():
            raise QueryError(
                "counterfactual ancestors are defined for plain value "
                "subscripts; rewrite path-restricted terms over the "
                "expanded diagram"
            )
        xs = tuple([e.var for e in t.regime])
        for w in diagram.ancestors(t.variable, cut_out_of=xs):
            anc_w = diagram.ancestors(w, cut_into=xs)
            z = tuple([e for e in t.regime if e.var in anc_w and e.var != w])
            key = (w, frozenset(z))
            if key not in seen:
                seen.add(key)
                yield w, z


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
    try:
        as_int = int(token)
    except ValueError:
        as_int = None
    # only a token in int's own spelling names an integer: int() also
    # reads "1_0" as 10 and "01" as 1
    if as_int is None or str(as_int) != token or as_int not in domain:
        if token in domain:
            return token
        raise QueryError(f"value {token!r} outside domain {list(domain)}")
    if token in domain:
        raise QueryError(
            f"value {token!r} is ambiguous in domain {list(domain)}: it names "
            f"both {token!r} and {domain[domain.index(as_int)]!r}"
        )
    return as_int


def parse_query(text: str, diagram: CausalDiagram) -> CtfQuery:
    """Parse query text against a diagram's variables and domains.

    Grammar (whitespace may separate tokens; "P(" and "->" are single
    tokens)::

        query   := "P(" [terms] ")" | terms
        terms   := term ("," term)*
        term    := name ["[" entry ("," entry)* "]"] ["=" value]
        entry   := name "=" value ["->" targets]
        targets := name | "{" name ("," name)* "}"
        value   := name
        name    := one or more letters, digits, "_", "." or "'"

    A term's name is its variable, an entry's name the regime variable,
    and a name after "->" a child that receives the value (no arrow: every
    child does). A value token is looked up in the variable's domain as
    text and as an integer; a token that names a value both ways is a
    QueryError.

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
    terms = []
    if not (wrapped and sc.try_take(")")):  # "P()" is the empty query
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
