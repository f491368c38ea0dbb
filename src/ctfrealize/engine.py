"""Exact evaluation of counterfactual queries by exogenous enumeration.

Everything here is deterministic given the model: a term's value under
one exogenous assignment u is computed by recursively firing mechanisms
in the regime-modified model, and probabilities are sums of exogenous
weights over the assignments where every term hits its event value.
No Monte Carlo; comparison tolerance for probabilities is 1e-10.

``exact_l3_probability``, ``exact_distribution`` and ``exact_rows`` run
on the model's compiled form (``ScmModel.compile()``): a term is
evaluated on every exogenous row at once by indexing the coded mechanism
arrays with the parents' code arrays, and weights are accumulated one
row at a time in support order, so results equal the per-row loop bit
for bit. ``exact_rows`` hands the per-row term values themselves to a
caller that sums its own cells, as ``bandits.ExactTables`` does.
``eval_potential_response`` is that per-row loop, kept as the oracle the
compiled path is tested against. A row that reaches a missing table
entry is replayed through it, so the error raised is the per-row one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ModelError, QueryError
from .graphs import Value
from .models import CompiledScm, ScmModel
from .queries import CtfQuery, PotentialResponse, RegimeEntry, response

DIST_TOL = 1e-10


def eval_potential_response(
    model: ScmModel, u: tuple, term: PotentialResponse
) -> Value:
    """Value of the term's variable, given u, in the submodel where the
    regime's edge-groups carry their fixed values.

    A fully assigned regime variable is replaced by its constant. A
    path-restricted entry feeds its constant only to the listed
    children; every other consumer (and the variable's own readout)
    gets the naturally computed value.
    """
    full: dict[str, Value] = {}
    edge: dict[tuple[str, str], Value] = {}
    for e in term.regime:
        if e.value not in model.diagram.domains[e.var]:
            raise QueryError(f"value {e.value!r} outside domain of {e.var!r}")
        if e.targets is None:
            full[e.var] = e.value
        else:
            for c in e.targets:
                edge[(e.var, c)] = e.value

    memo: dict[str, Value] = {}

    def natural(v: str) -> Value:
        if v in full:
            return full[v]
        if v in memo:
            return memo[v]
        m = model.mechanisms[v]
        pv = {}
        for p in m.parents:
            if (p, v) in edge:
                pv[p] = edge[(p, v)]
            else:
                pv[p] = natural(p)
        val = model.evaluate(v, pv, u)
        memo[v] = val
        return val

    return natural(term.variable)


def _term_codes(compiled: CompiledScm, term: PotentialResponse) -> np.ndarray:
    """The term's value codes on every compiled row (-1 where a row reads
    a missing table entry)."""
    fixed = []
    for e in term.regime:
        code = compiled.codes[e.var][e.value]  # the query was validated
        if e.targets is None:
            fixed.append(((e.var, None), code))
        else:
            fixed.extend(((e.var, c), code) for c in e.targets)
    return compiled.values(term.variable, frozenset(fixed))


def _prepare(model: ScmModel, q: CtfQuery) -> tuple[CompiledScm, list[np.ndarray]]:
    """Validate the query on the model; return the compiled model and
    each term's codes on every compiled row.

    Raises the per-row loop's error if that loop would read a missing
    table entry: on a row, it evaluates the terms in order and, for a
    probability, stops at the first term that misses its event value.
    The first such row is replayed through the per-row oracle."""
    q.validate(model.diagram)
    compiled = model.compile()
    codes = [_term_codes(compiled, t) for t in q.terms]
    if compiled.total:
        return compiled, codes
    reached = np.ones(len(compiled.rows), dtype=bool)
    missing = np.zeros(len(compiled.rows), dtype=bool)
    for t, c in zip(q.terms, codes):
        missing |= reached & (c < 0)
        if t.value is not None:
            reached &= c == compiled.codes[t.variable][t.value]
    if not missing.any():
        return compiled, codes
    u = compiled.rows[int(np.argmax(missing))]
    for t in q.terms:
        eval_potential_response(model, u, t)
    raise ModelError(f"exogenous row {u!r} reads a missing mechanism table entry")


def _ordered_sum(weights: Sequence[float]) -> float:
    # a plain loop, not sum(): from Python 3.12 sum() compensates float
    # rounding, and the result must equal the per-row loop's bit for bit
    total = 0.0
    for p in weights:
        total += p
    return total


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
    return list(compiled.rows), compiled.weights.copy(), columns


def exact_l3_probability(model: ScmModel, q: CtfQuery) -> float:
    """Probability that every term takes its assigned event value: the
    exogenous-weighted count of assignments where all indicators fire."""
    if not q.is_valued():
        raise QueryError("query must assign a value to every term")
    compiled, codes = _prepare(model, q)
    hit = np.ones(len(compiled.rows), dtype=bool)
    for t, c in zip(q.terms, codes):
        hit &= c == compiled.codes[t.variable][t.value]
    return _ordered_sum(compiled.weights[hit].tolist())


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
    # support order, as the per-row loop does (and gives integer zeros when
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
