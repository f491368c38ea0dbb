"""Exact evaluation of counterfactual queries by exogenous enumeration.

Everything here is deterministic given the model: a term's value under
one exogenous assignment u is the value its variable takes in the
regime-modified model, and probabilities are sums of exogenous weights
over the assignments where every term hits its event value. No Monte
Carlo.

``exact_l3_probabilities``, ``exact_distribution`` and ``exact_rows``
run on the model's compiled form (``ScmModel.compile()``): a term is
evaluated on every exogenous row at once by indexing the coded mechanism
arrays with the parents' code arrays, and weights are accumulated one
row at a time in support order, so results equal a loop that adds each
row's weight in turn, bit for bit. ``exact_rows`` hands the per-row term
values themselves to a caller that sums its own cells, as
``bandits.ExactTables`` does. The per-row oracle is a ``simulate.Unit``
on the row that performs the term's regime entries with their values
written and reads the variable. A compiled model is total: compiling
raises on a missing mechanism or table entry, even one that no row
reaches.

``add_rows(weights, rows)`` is the one row-order summation loop: it
starts at 0.0 and adds the weight at each row index, in the order
given. It has two callers. ``exact_l3_probabilities(model, queries)``
evaluates many valued queries in one call: it compiles once and hands
``add_rows`` each query's event rows, the rows where every term hits
its value, in row order; ``exact_l3_probability`` is its one-query
case. ``fairness._exact`` hands it a canonical table's row weights,
computed without building a model, and the event rows stored on the
compiled base model. A per-row loop adds the same weights in the same
order, so each result equals it bit for bit; ``np.sum``, ``@`` and
``math.fsum`` (and ``sum`` from Python 3.12) add in pairs or
compensate, and would not.

Each valued query's event rows are stored on the compiled model as a
list of row indices, after the query has been validated; a later call
with an equal query adds the weights at the stored rows. A model from
``ScmModel.reweighted`` with the same rows of nonzero weight shares
these rows (and the term codes) with its base, so evaluating one query
on many reweightings of one model finds its rows once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import QueryError
from .graphs import Value
from .models import CompiledScm, ScmModel
from .queries import CtfQuery, PotentialResponse, RegimeEntry, response


def _term_codes(compiled: CompiledScm, term: PotentialResponse) -> np.ndarray:
    """The term's value codes on every compiled row."""
    fixed = []
    for e in term.regime:
        code = compiled.codes[e.var][e.value]  # the query was validated
        if e.targets is None:
            fixed.append(((e.var, None), code))
        else:
            fixed.extend(((e.var, c), code) for c in e.targets)
    return compiled.values(term.variable, frozenset(fixed))


def _prepare(model: ScmModel, q: CtfQuery) -> tuple[CompiledScm, list[np.ndarray]]:
    """Compile the model and validate the query on it; return the compiled
    model and each term's codes on every compiled row."""
    compiled = model.compile()
    q.validate(model.diagram)
    return compiled, [_term_codes(compiled, t) for t in q.terms]


def exact_rows(
    model: ScmModel, q: CtfQuery
) -> tuple[list[tuple], np.ndarray, list[list[Value]]]:
    """Every term's value on every exogenous row of nonzero weight: the
    rows in ``exogenous_support()`` order, their weights, and one value
    column per term. Event values in ``q`` are ignored."""
    q = q.unvalued()
    compiled, codes = _prepare(model, q)
    columns = []
    for t, c in zip(q.terms, codes):
        domain = model.diagram.domains[t.variable]
        columns.append([domain[k] for k in c.tolist()])
    return list(compiled.rows), np.array(compiled.weights, dtype=float), columns


def _event_rows(model: ScmModel, compiled: CompiledScm, q: CtfQuery) -> list[int]:
    """The indices of the rows where every term of ``q`` hits its event
    value, in row order: stored on the compiled model once the query is
    validated."""
    try:
        rows = compiled.events.get(q)
    except TypeError:  # an unhashable value, outside every domain: validate says so
        rows = None
    if rows is None:
        if not q.is_valued():
            raise QueryError("query must assign a value to every term")
        q.validate(model.diagram)
        hit = np.ones(len(compiled.rows), dtype=bool)
        for t in q.terms:
            hit &= _term_codes(compiled, t) == compiled.codes[t.variable][t.value]
        rows = np.flatnonzero(hit).tolist()
        compiled.events[q] = rows  # only a validated query's rows are kept
    return rows


def add_rows(weights: Sequence[float], rows: Iterable[int]) -> float:
    """The weights at ``rows`` added one at a time from 0.0, in the order
    given: the one summation loop, as the module docstring says."""
    total = 0.0
    for i in rows:
        total += weights[i]
    return total


def exact_l3_probabilities(model: ScmModel, queries: Sequence[CtfQuery]) -> list[float]:
    """``exact_l3_probability`` of each query, in order, from one compile
    of the model."""
    compiled = model.compile()
    return [add_rows(compiled.weights, _event_rows(model, compiled, q)) for q in queries]


def exact_l3_probability(model: ScmModel, q: CtfQuery) -> float:
    """Probability that every term takes its assigned event value: the
    exogenous-weighted count of assignments where all indicators fire."""
    return exact_l3_probabilities(model, (q,))[0]


@dataclass(frozen=True)
class ExactDistribution:
    """Joint table over the query's terms: rows of values + probabilities."""

    terms: tuple[PotentialResponse, ...]
    support: tuple[tuple[Value, ...], ...]
    probabilities: tuple[float, ...]

    def prob(self, row: Sequence[Value]) -> float:
        row = tuple(row)
        for r, p in zip(self.support, self.probabilities):
            if r == row:
                return p
        return 0.0

    def as_dict(self) -> dict[tuple[Value, ...], float]:
        return dict(zip(self.support, self.probabilities))

    def marginal(self, index: int) -> dict[Value, float]:
        out: dict[Value, float] = {}
        for r, p in zip(self.support, self.probabilities):
            out[r[index]] = out.get(r[index], 0.0) + p
        return out

    def expectation(self, index: int = 0) -> float:
        return sum(float(r[index]) * p for r, p in zip(self.support, self.probabilities))

    def total_variation(self, other: Mapping[tuple, float]) -> float:
        keys = set(self.as_dict()) | set(other)
        mine = self.as_dict()
        return 0.5 * sum(abs(mine.get(k, 0.0) - other.get(k, 0.0)) for k in keys)


def exact_distribution(model: ScmModel, q: CtfQuery) -> ExactDistribution:
    """Full joint over term values; rows in domain product order."""
    q = q.unvalued()
    compiled, codes = _prepare(model, q)
    doms = [model.diagram.domains[t.variable] for t in q.terms]
    shape = tuple(len(d) for d in doms)
    if codes:
        cells = np.ravel_multi_index(codes, shape)
    else:
        cells = np.zeros(len(compiled.rows), dtype=np.intp)
    # bincount adds the weights into each cell one row at a time, in
    # support order, as a per-row loop does (and gives integer zeros when
    # there are no rows)
    probs = np.bincount(cells, weights=compiled.weights, minlength=math.prod(shape))
    probs = probs.astype(float, copy=False)
    return ExactDistribution(
        q.terms, tuple(itertools.product(*doms)), tuple(probs.tolist())
    )


def interventional_distribution(
    model: ScmModel,
    outcome: Sequence[str],
    do: Mapping[str, Value] | None = None,
) -> ExactDistribution:
    """P(outcome; do(x)) as the single-regime counterfactual joint."""
    do = dict(do or {})
    terms = tuple(response(v, do) for v in outcome)
    return exact_distribution(model, CtfQuery(terms))


def nde(
    model: ScmModel,
    x: Value,
    x_prime: Value,
    y: Value,
    x_var: str = "X",
    z_var: str = "Z",
    y_var: str = "Y",
) -> float:
    """Natural direct effect of X on Y at outcome value y, holding the
    mediator Z at its response to the baseline x while Y's mechanism
    receives the contrast value x'.

    Computed exactly as P(Y=y under [X=x' into Y's mechanism, X=x into
    Z's mechanism]) minus P(Y=y; do(X=x)). Requires the mediation
    structure X->Z, Z->Y, X->Y.
    """
    d = model.diagram
    needed = {(x_var, z_var), (z_var, y_var), (x_var, y_var)}
    if not needed <= set(d.directed_edges):
        raise QueryError(
            f"no mediation structure {x_var}->{z_var}->{y_var} with a direct "
            f"{x_var}->{y_var} edge in this diagram"
        )
    if x == x_prime:
        raise QueryError("contrast values x and x' must differ")
    direct_children = frozenset(
        c for c in d.children(x_var) if c != z_var
    )
    nested = PotentialResponse(
        y_var,
        (
            RegimeEntry(x_var, x_prime, direct_children),
            RegimeEntry(x_var, x, frozenset({z_var})),
        ),
        y,
    )
    p_nested = exact_l3_probability(model, CtfQuery((nested,)))
    p_do_x = exact_l3_probability(
        model, CtfQuery((response(y_var, {x_var: x}, y),))
    )
    return p_nested - p_do_x
