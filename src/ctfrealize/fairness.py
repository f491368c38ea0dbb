"""Counterfactual fairness audit on the two-model screening scenario.

One protected binary attribute X feeds two automated approvals: Y
(admission screen) and Z (aid screen), trained on historically biased
decisions and sharing a latent confounder. The latent is discretized
into canonical response types — each of Y and Z is always-approve,
approve-iff-x1, approve-iff-x0, or always-reject — so a 16-entry joint
over type pairs parameterizes every model pair compatible with the
diagram.

The audit quantity couples the two screens across regimes:

    mu_ctf = |P(Y_x1=1, Z_x1=0) - P(Y_x1=1, Z_x0=0)|

It is not identifiable from single-regime experiments, but it is
directly sampleable by fixing the attribute separately as input to each
model (two simultaneous input randomizations). The single-regime
surrogates mu_int1 (product form) and mu_int2 (joint form) can both
vanish while mu_ctf stays large; constraining models on the surrogates
therefore passes discriminatory model pairs that constraining on
mu_ctf rejects, which is the contrast the sampler below reproduces.

The six probabilities of ``_EXACT_QUERIES`` are the one definition of
what is measured, and ``_metrics`` builds the three numbers from them.
Every table is the base model ``_BASE`` under new weights on its 32
exogenous rows, and ``_EVENT_ROWS`` holds the rows the engine stores
for each query on the compiled base. One table's report builds no
model: the engine's row-order loop (``engine.add_rows``) adds the
table's row weights at each query's stored rows. For a batch of tables
each probability is a linear form over the 16 type-pair weights, the
0/1 row of ``_FORMS`` read off the same rows; ``batch_metrics`` and the
sampler's screens (``_SCREENS``) are built from those rows.

The constrained sampler draws no table its screen rules out: each
screen is a difference of two forms that bounds the constraint's score
from below, and the sampler draws the table's group shares from the
flat Dirichlet's law given that bound, then lets the exact test decide.
It checks the block of tables it keeps once, as arrays
(``_check_tables``), and builds each kept table and its report by
writing their fields into the slots of their frozen dataclasses
(``_checked_pair``), not through their constructors' per-table checks;
an exact ``mu_ctf`` report is built the same way.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .errors import EstimationError, ModelError
from .graphs import CausalDiagram
from .models import PROB_TOL, ScmModel, tabulated_model
from .queries import CtfQuery, query, response
from .engine import add_rows, exact_l3_probabilities
from .realizability import RealizationPlan, ctf_realize, maximal_action_set
from .simulate import _check_integer, _check_seed, draw_plan_batch, estimate

RESPONSE_TYPES = ("always-approve", "approve-iff-x1", "approve-iff-x0", "always-reject")

DISCRIMINATION_THRESHOLD = 0.05  # reporting cut for "significant" disparity
_BOOLS = frozenset({bool, np.bool_})  # summable, but no probabilities


def _respond(rtype: str, x: int) -> int:
    if rtype == "always-approve":
        return 1
    if rtype == "approve-iff-x1":
        return x
    if rtype == "approve-iff-x0":
        return 1 - x
    return 0


def _state(record) -> tuple:
    """The pickled form of a table or report: its field values, in
    field order."""
    return tuple(getattr(record, field.name) for field in fields(record))


def _load_state(record, state) -> None:
    """Write a pickled state into the record's slots: the tuple of field
    values ``_state`` gives, or the dict of fields that a pickle made
    while tables and reports kept their fields in a ``__dict__`` holds.
    The values are not checked: unpickling never ran ``__post_init__``."""
    names = [field.name for field in fields(record)]
    if isinstance(state, dict):
        state = [state[name] for name in names]
    for name, value in zip(names, state, strict=True):
        object.__setattr__(record, name, value)


@dataclass(frozen=True, slots=True)
class CanonicalScm:
    """P(X=1) plus the 16-entry joint over (Y-type, Z-type) pairs, in
    RESPONSE_TYPES-major order (Y-type outer, Z-type inner).

    The two fields live in slots: a table has no ``__dict__`` and takes
    no weak references. It pickles as the tuple of its field values
    (``__getstate__``), and also loads the dict of fields that tables
    pickled before they had slots (``__setstate__``)."""

    type_probs: tuple[float, ...]
    p_x1: float = 0.5

    __getstate__ = _state
    __setstate__ = _load_state

    def __post_init__(self):
        # stored as a tuple, so that the checked table cannot change
        # afterwards, and tables hash and compare as tuples do
        try:
            probs = tuple(self.type_probs)
        except TypeError:
            probs = ()
        if len(probs) != 16:
            raise ModelError("canonical parameterization needs 16 type-pair entries")
        object.__setattr__(self, "type_probs", probs)
        try:
            smallest = min(probs)
            # a NaN or infinite entry makes the sum NaN or infinite
            total = sum(probs)
            off = not abs(total - 1.0) <= PROB_TOL
            # a table that sums to 1 with a bool in it has an entry of at
            # most PROB_TOL (the False, or one beside the True): only such
            # a table pays for the scan of its types
            numeric = smallest > PROB_TOL or _BOOLS.isdisjoint(map(type, probs))
        except (TypeError, ValueError):
            numeric = False
        if not numeric:
            raise ModelError(f"type-pair probabilities must be numbers, got {probs!r}")
        if smallest < -PROB_TOL:
            raise ModelError("negative type-pair probability")
        if off:
            raise ModelError(f"type-pair probabilities sum to {total}, not 1")
        p_x1 = self.p_x1
        # a float skips the ABC check, which costs more than the rest
        if type(p_x1) is not float and (
            isinstance(p_x1, bool) or not isinstance(p_x1, numbers.Real)
        ):
            raise ModelError(f"p_x1 must be a number, got {p_x1!r}")
        if not 0.0 <= p_x1 <= 1.0:
            raise ModelError(f"p_x1 must lie in [0, 1], got {p_x1!r}")

    def prob(self, y_type: str, z_type: str) -> float:
        for name in (y_type, z_type):
            if name not in RESPONSE_TYPES:
                raise ModelError(
                    f"unknown response type {name!r}; use one of "
                    + ", ".join(RESPONSE_TYPES)
                )
        i = RESPONSE_TYPES.index(y_type)
        j = RESPONSE_TYPES.index(z_type)
        return self.type_probs[4 * i + j]

    def _row_weights(self) -> list[float]:
        """The table's weight on each row of the compiled base, in row
        order: P(U_X) times the entry of the row's type pair, made a
        float as ``ScmModel.reweighted`` makes it. The rows are sorted by
        repr, so (0, 10) comes before (0, 2): each weight is computed
        from its own row's cell in ``_CELLS``, not listed in type order."""
        p_x1 = self.p_x1
        p_x0 = 1.0 - p_x1
        probs = self.type_probs
        return [float((p_x1 if x1 else p_x0) * probs[t]) for x1, t in _CELLS]

    def to_model(self) -> ScmModel:
        # Keyed by the base's compiled rows in their order, so that the
        # reweighted model takes the values as its weights with no lookup
        # per row. The exact metrics need no model (see _exact); the
        # sampled estimate draws its units from this one.
        return _BASE.reweighted(dict(zip(_BASE.compile().rows, self._row_weights())))


# Every canonical table shares the diagram, the exogenous domains and the
# three mechanisms; only the exogenous weights differ. Each table is the
# base model below reweighted, so a table whose 32 rows all have nonzero
# weight shares the base's compiled rows, term codes and event rows; a
# table with a zero weight is compiled afresh.
_DIAGRAM = CausalDiagram(
    ["X", "Y", "Z"],
    directed_edges=[("X", "Y"), ("X", "Z")],
    bidirected_edges=[("Y", "Z")],
)
_BASE = tabulated_model(_DIAGRAM, {"U_X": (0.5, 0.5), "U_YZ": (1 / 16,) * 16}, {
    "X": (("U_X",), lambda u: u),
    "Y": (("U_YZ",), lambda x, t: _respond(RESPONSE_TYPES[t // 4], x)),
    "Z": (("U_YZ",), lambda x, t: _respond(RESPONSE_TYPES[t % 4], x)),
})


# Each row (u_x, u_yz) of the compiled base, in row order, as its cell
# (U_X == 1, type-pair index).
_CELLS = [(u_x == 1, pair) for u_x, pair in _BASE.compile().rows]


def example2_scm() -> CanonicalScm:
    """The screening scenario's published parameterization: both
    single-regime surrogates vanish while the counterfactual disparity
    is exactly 0.10."""
    table = {
        ("always-approve", "always-approve"): 0.040,
        ("always-approve", "approve-iff-x1"): 0.175,
        ("always-approve", "approve-iff-x0"): 0.160,
        ("always-approve", "always-reject"): 0.010,
        ("approve-iff-x1", "always-approve"): 0.040,
        ("approve-iff-x1", "approve-iff-x1"): 0.055,
        ("approve-iff-x1", "approve-iff-x0"): 0.170,
        ("approve-iff-x1", "always-reject"): 0.010,
        ("approve-iff-x0", "always-approve"): 0.040,
        ("approve-iff-x0", "approve-iff-x1"): 0.140,
        ("approve-iff-x0", "approve-iff-x0"): 0.025,
        ("approve-iff-x0", "always-reject"): 0.025,
        ("always-reject", "always-approve"): 0.050,
        ("always-reject", "approve-iff-x1"): 0.010,
        ("always-reject", "approve-iff-x0"): 0.025,
        ("always-reject", "always-reject"): 0.025,
    }
    probs = tuple(
        table[(yt, zt)] for yt in RESPONSE_TYPES for zt in RESPONSE_TYPES
    )
    return CanonicalScm(probs)


@dataclass(frozen=True, slots=True)
class FairnessReport:
    """The counterfactual disparity mu_ctf of one table and its two
    single-regime surrogates mu_int1 and mu_int2 (see ``mu_int``).

    ``exact`` is True when mu_ctf is the table's exact value, and then
    ``n`` and ``ci95`` are None. A sampled report has ``exact`` False,
    the plan executions per coupled term in ``n``, and in ``ci95`` a
    normal-approximation 95% interval on |a - b|, the two estimated
    joints' difference: mu_ctf -/+ 1.96 standard errors, not clipped, so
    its lower end can fall below 0. The surrogates are exact in both.

    The six fields live in slots: a report has no ``__dict__`` and takes
    no weak references. It pickles as the tuple of its field values, and
    also loads the dict of fields that reports pickled before they had
    slots, as CanonicalScm does."""

    mu_ctf: float
    mu_int1: float
    mu_int2: float
    exact: bool = True
    n: int | None = None
    ci95: tuple[float, float] | None = None

    __getstate__ = _state
    __setstate__ = _load_state


# Frozen tables and reports built without their constructors' calls: the
# same field writes, in the same order, as the dataclass __init__ makes,
# so the objects compare, hash, print and pickle alike. Each write goes
# straight to its field's slot descriptor, bound here once, which skips
# the lookup by name that object.__setattr__ makes per write.
_new = object.__new__
_set_type_probs = CanonicalScm.type_probs.__set__
_set_p_x1 = CanonicalScm.p_x1.__set__
_set_mu_ctf = FairnessReport.mu_ctf.__set__
_set_mu_int1 = FairnessReport.mu_int1.__set__
_set_mu_int2 = FairnessReport.mu_int2.__set__
_set_exact = FairnessReport.exact.__set__
_set_n = FairnessReport.n.__set__
_set_ci95 = FairnessReport.ci95.__set__


def _report(ctf: float, int1: float, int2: float) -> FairnessReport:
    """FairnessReport(ctf, int1, int2), an exact report, with no call
    through the constructor."""
    report = _new(FairnessReport)
    _set_mu_ctf(report, ctf)
    _set_mu_int1(report, int1)
    _set_mu_int2(report, int2)
    _set_exact(report, True)
    _set_n(report, None)
    _set_ci95(report, None)
    return report


def _checked_pair(
    probs: tuple[float, ...], ctf: float, int1: float, int2: float
) -> tuple[CanonicalScm, FairnessReport]:
    """(CanonicalScm(probs), FairnessReport(ctf, int1, int2)) for a table
    already checked (``_check_tables``): no ``__post_init__`` runs."""
    scm = _new(CanonicalScm)
    _set_type_probs(scm, probs)
    _set_p_x1(scm, 0.5)
    return scm, _report(ctf, int1, int2)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

# The queries are built once: every exact evaluation reuses them.
# _COUPLED[x] is P(Y_x1=1, Z_x=0).
_COUPLED = {
    x: query(response("Y", {"X": 1}, 1), response("Z", {"X": x}, 0)) for x in (0, 1)
}
# What the exact metrics are built from: P(Y_x1=1, Z_x1=0), which is also
# mu_int2's same-regime joint under do(x1), P(Y_x0=1, Z_x0=0), P(Y_x1=1),
# P(Z_x1=0), P(Z_x0=0) and P(Y_x1=1, Z_x0=0).
_EXACT_QUERIES = (
    _COUPLED[1],
    query(response("Y", {"X": 0}, 1), response("Z", {"X": 0}, 0)),
    query(response("Y", {"X": 1}, 1)),
    query(response("Z", {"X": 1}, 0)),
    query(response("Z", {"X": 0}, 0)),
    _COUPLED[0],
)


def _stored_event_rows() -> tuple[list[int], ...]:
    """Each query's event rows on the compiled base, in _EXACT_QUERIES
    order, as the engine stores them once it has validated the query."""
    exact_l3_probabilities(_BASE, _EXACT_QUERIES)
    events = _BASE.compile().events
    return tuple(events[q] for q in _EXACT_QUERIES)


_EVENT_ROWS = _stored_event_rows()


def _audit_plan(model: ScmModel, q: CtfQuery) -> RealizationPlan:
    """The plan that samples the cross-regime joint of ``q`` with the
    diagram's maximal action set, whose two input randomizations fix X
    separately for each screen; raises EstimationError when there is
    none, since no sampled estimate of it could be trusted."""
    verdict = ctf_realize(q.unvalued(), model.diagram, maximal_action_set(model.diagram))
    if not verdict:
        raise EstimationError(f"audit query is not realizable: {verdict.describe()}")
    return verdict


def mu_ctf(
    scm: CanonicalScm,
    exact: bool = True,
    n: int = 100_000,
    seed: int | np.random.SeedSequence | None = 0,
) -> FairnessReport:
    """|P(Y_x1=1, Z_x1=0) - P(Y_x1=1, Z_x0=0)|, exactly or estimated by
    executing the two-randomization plan n times per term. Both give
    the surrogates exactly. Exact values are the table's row weights
    added at the stored event rows of the base (``_exact``), with no
    model built; only the sampled estimate builds ``scm.to_model()`` to
    draw units from. It draws its i-th plan from SeedSequence([seed, i]),
    with fresh entropy in place of the seed when it is None, or from the
    i-th spawn of a ``SeedSequence`` seed. Only the sampled estimate
    reads n and seed, and only it checks them, as
    sample_constrained_scms checks its own; with exact=True both are
    ignored. A ``scm`` that is no CanonicalScm raises ModelError."""
    if not exact:
        _check_count(n)
        _check_seed(seed)
    ctf, int1, int2 = _exact(scm)
    if exact:
        return _report(ctf, int1, int2)
    model = scm.to_model()
    plans = [_audit_plan(model, _COUPLED[x_for_z]) for x_for_z in (1, 0)]
    if isinstance(seed, np.random.SeedSequence):
        streams = seed.spawn(len(plans))
    else:
        entropy = np.random.SeedSequence().entropy if seed is None else seed
        streams = [np.random.SeedSequence([entropy, i]) for i in range(len(plans))]
    estimates = []
    for plan, stream in zip(plans, streams):
        batch = draw_plan_batch(plan, model, n, seed=stream)
        estimates.append(estimate(batch, (1, 0)))
    a, b = estimates
    se = math.sqrt(a * (1 - a) / n + b * (1 - b) / n)
    return FairnessReport(
        mu_ctf=abs(a - b),
        mu_int1=int1,
        mu_int2=int2,
        exact=False,
        n=n,
        ci95=(abs(a - b) - 1.96 * se, abs(a - b) + 1.96 * se),
    )


def mu_int(scm: CanonicalScm, variant: int) -> float:
    """Single-regime surrogates: variant 1 is the product form
    P(Y=1;do x1) * |P(Z=0;do x1) - P(Z=0;do x0)|; variant 2 contrasts the
    same-regime joints |P(Y=1,Z=0;do x1) - P(Y=1,Z=0;do x0)|, computed
    exactly as ``mu_ctf`` computes them, with no model built. Any other
    variant, a bool or a non-integer included, raises EstimationError;
    a ``scm`` that is no CanonicalScm raises ModelError."""
    integral = isinstance(variant, numbers.Integral) and not isinstance(variant, bool)
    if not integral or variant not in (1, 2):
        raise EstimationError(f"unknown surrogate variant {variant!r}")
    return _exact(scm)[variant]


def _metrics(a, j0, p_y1, z1, z0, b):
    """(mu_ctf, mu_int1, mu_int2) from the six probabilities of
    _EXACT_QUERIES, in their order: floats or arrays of them alike."""
    return abs(a - b), abs(p_y1 * z1 - p_y1 * z0), abs(a - j0)


def _exact(scm: CanonicalScm) -> tuple[float, float, float]:
    """(mu_ctf, mu_int1, mu_int2) of one table, with no model built: each
    of the six probabilities is the table's row weights added once, in
    row order, at its query's event rows on the compiled base. The
    result equals the engine's on ``scm.to_model()`` bit for bit: a row
    a zero entry leaves out of that model adds 0.0 here, and a sum that
    starts at 0.0 does not change by it."""
    if not isinstance(scm, CanonicalScm):
        raise ModelError(f"expected a CanonicalScm, got {type(scm).__name__}")
    weights = scm._row_weights()
    return _metrics(*[add_rows(weights, rows) for rows in _EVENT_ROWS])


# ---------------------------------------------------------------------------
# Vectorized forms over batches of canonical tables
# ---------------------------------------------------------------------------

def _event_forms() -> np.ndarray:
    """One 0/1 row per query of _EXACT_QUERIES, in order, over the 16
    type pairs: 1.0 where the pair's rows of the base model are event
    rows of the query, as _EVENT_ROWS holds them."""
    forms = np.zeros((len(_EXACT_QUERIES), 16))
    for form, rows in zip(forms, _EVENT_ROWS):
        form[[_CELLS[i][1] for i in rows]] = 1.0
    return forms


_FORMS = _event_forms()


def batch_metrics(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(mu_ctf, mu_int1, mu_int2) for each row of a (n, 16) batch of
    canonical tables, built as ``_exact`` builds them from the six
    probabilities of _EXACT_QUERIES: the batch's products with _FORMS.
    Rows that are not 16 wide raise ModelError; the entries are not
    checked."""
    probs = np.atleast_2d(probs)
    if probs.shape[-1] != 16:
        raise ModelError("canonical parameterization needs 16 type-pair entries")
    return _metrics(*(probs @ form for form in _FORMS))


# ---------------------------------------------------------------------------
# Constrained sampling over the canonical simplex
# ---------------------------------------------------------------------------

L2_PENALTY = "l2_penalty"
L3_PENALTY = "l3_penalty"
# Screened draws per block. 1,024 keeps a block's arrays (the split's
# 1,024 x 16 exponentials are 128 KB) in cache and the process small:
# 8,192-row blocks raised the audit benchmark's peak RSS by 12%, and
# 2,048 ran slower. Every kind of draw has its own stream, so a seed's
# tables do not depend on the block size.
BATCH_SIZE = 1024
MAX_PROPOSALS = 50_000_000  # screened draws; past this, a low acceptance rate is an error
NO_ACCEPTANCE_FLOOR = 1_000_000  # screened draws without one acceptance before giving up
PREFILTER_SLACK = 1e-9  # see sample_constrained_scms for the bound it covers


def _screens() -> dict[str, tuple[np.ndarray, int]]:
    """Per constraint, its screen, read off a row w of differences of
    _FORMS whose |x.w| is at most the constraint's score (mu_ctf =
    |a - b| for l3, mu_int2 = |a - j0| <= mu_int1 + mu_int2 for l2):
    each cell's group (0 where w > 0, 1 where w < 0, 2 where w = 0) and
    k, the number of cells in each of the first two. The sampler's law
    argument needs w in {-1, 0, 1} and as many cells above 0 as below."""
    a, j0, _, _, _, b = _FORMS
    screens = {}
    for constraint, w in ((L3_PENALTY, a - b), (L2_PENALTY, a - j0)):
        group = np.select([w > 0, w < 0], [0, 1], 2)
        k = int(np.sum(group == 0))
        if not np.isin(w, (-1.0, 0.0, 1.0)).all() or np.sum(group == 1) != k:
            raise ModelError(f"the {constraint} screen needs unit weights, as many +1 as -1")
        screens[constraint] = (group, k)
    return screens


_SCREENS = _screens()


def _screen_limit(epsilon: float | np.ndarray) -> float | np.ndarray:
    """The bound the screen puts on |x.w| for an exact test at epsilon:
    epsilon + PREFILTER_SLACK * (1 + epsilon), held at 1, which no share
    difference reaches. Unheld, a loose epsilon would waste most draws
    on differences larger than their sum, and an infinite one would
    have no uniform to draw them from."""
    return np.minimum(1.0, epsilon + PREFILTER_SLACK * (1.0 + epsilon))


def _screened_shares(
    rngs: Sequence[np.random.Generator], k: int, limit: float, size: int
) -> np.ndarray:
    """Group shares (x_P, x_M, x_O), one row per kept pair of ``size``
    draws, of a flat Dirichlet row on the 16-simplex given |x_P - x_M| <=
    limit, where P and M hold k cells each and O the other 16 - 2k.

    The shares of a flat Dirichlet are Dirichlet(k, k, 16 - 2k); in u =
    x_P + x_M and d = x_P - x_M their density is proportional to
    (u^2 - d^2)^(k-1) (1 - u)^(15 - 2k) on |d| < u. A pair u ~ Beta(2k -
    1, 16 - 2k), d ~ U[-limit, limit] is kept with probability
    (1 - d^2/u^2)^(k-1) when |d| < u, so the kept pairs have that density
    restricted to |d| <= limit. The three generators of ``rngs`` draw u,
    d and the keep step's uniforms, in that order."""
    share_rng, diff_rng, keep_rng = rngs
    u = share_rng.beta(2 * k - 1, 16 - 2 * k, size)
    d = diff_rng.uniform(-limit, limit, size)
    uu, dd = u * u, d * d
    keep = (dd < uu) & (keep_rng.random(size) * uu ** (k - 1) < (uu - dd) ** (k - 1))
    u, d = u[keep], d[keep]
    return np.column_stack([(u + d) / 2, (u - d) / 2, 1.0 - u])


def _check_tables(rows: np.ndarray) -> None:
    """Check a (n, 16) block of tables as CanonicalScm checks each one,
    by two array tests: no entry below -PROB_TOL, and each row's sum
    within PROB_TOL of 1. The sum test also refuses every row with a NaN
    or infinite entry, since such an entry makes the sum NaN or
    infinite. Each row that fails is built through CanonicalScm, so the
    first one it refuses raises its ModelError; a row that fails only
    because numpy sums in another order than ``sum`` passes, as the
    constructor passes it."""
    ok = (rows.min(axis=1) >= -PROB_TOL) & (np.abs(rows.sum(axis=1) - 1.0) <= PROB_TOL)
    for i in np.flatnonzero(~ok):
        CanonicalScm(tuple(rows[i].tolist()))


def _check_count(n: int) -> None:
    """Refuse a sample count that is not an integer of at least 1."""
    _check_integer(n)
    if n < 1:
        raise EstimationError("need at least one sample")


def sample_constrained_scms(
    constraint: str,
    n: int,
    epsilon: float = 0.01,
    seed: int | np.random.SeedSequence | None = 0,
) -> list[tuple[CanonicalScm, FairnessReport]]:
    """Sample canonical tables from the flat Dirichlet prior on the
    16-simplex, keeping those whose penalized score is at most epsilon:
    the two single-regime surrogates summed for the l2 constraint, the
    counterfactual disparity itself for l3. Each accepted table is
    returned with its true metrics.

    No table is drawn whose score the exact test would surely reject.
    Each constraint has a screen (``_SCREENS``), a row w of differences
    of _FORMS with |x.w| at most the score of a table x: mu_ctf =
    |x.(a - b)| for l3, and mu_int2 = |x.(a - j0)| for l2, which is at
    most mu_int1 + mu_int2. Split by w, the 16 cells form groups P (w =
    1), M (w = -1) and O (w = 0), and x.w = x_P - x_M, the difference of
    the groups' shares. The sampler draws the shares from the flat
    Dirichlet's law given |x_P - x_M| <= limit, with limit =
    min(1, epsilon + PREFILTER_SLACK * (1 + epsilon))
    (``_screened_shares``), and splits each share over its cells with
    standard exponentials normalized within the group: within-group
    proportions of a flat Dirichlet row are flat Dirichlet, independent
    of the shares. A table drawn so has the flat Dirichlet's law given
    the screen, and the exact test ``score <= epsilon`` on
    ``batch_metrics`` then decides it, so the kept tables have the law
    of flat Dirichlet rows the exact test keeps.

    The slack makes the screen keep every row the exact test accepts.
    Let u = 2**-53. A share is rounded once, and each cell of P and M,
    its exponential times the share over its group's sum of k <= 3
    terms, at most four times more, so the row's own x.w is within 6u of
    the drawn difference. ``batch_metrics`` computes each of the six probabilities
    of the row within 16u of its real value, and the score within 300u
    of the row's real score. A draw with |x_P - x_M| > limit therefore
    scores above epsilon, since the slack exceeds 310u * (1 + epsilon),
    about 4e-14 * (1 + epsilon). At limit 1 the screen rules out
    nothing: |x_P - x_M| < x_P + x_M <= 1.

    Draws come in blocks of BATCH_SIZE. The Beta draws, the uniform
    differences, the uniforms of the keep step and the exponentials of
    the split each have their own stream, spawned from the seed (from a
    ``SeedSequence`` seed itself, which numpy's spawn then advances).
    With no acceptance after NO_ACCEPTANCE_FLOOR screened draws, or too
    few after MAX_PROPOSALS, the sampler raises EstimationError, as it
    does for a seed numpy would refuse (``simulate._check_seed``).

    The block of kept tables is checked once, as arrays
    (``_check_tables``): a row CanonicalScm would refuse raises its
    ModelError. Each table and its report are then built without a call
    through their constructors (``_checked_pair``): their fields are
    written straight into their slots, in the constructors' order, so
    they equal, hash, print and pickle as the constructors' objects do,
    and like those they have no ``__dict__``."""
    if constraint not in (L2_PENALTY, L3_PENALTY):
        raise EstimationError(
            f"unknown constraint {constraint!r}; use {L2_PENALTY} or {L3_PENALTY}"
        )
    _check_count(n)
    _check_seed(seed)
    real = isinstance(epsilon, numbers.Real) and not isinstance(epsilon, bool)
    if not real or not epsilon >= 0:
        raise EstimationError(f"epsilon must be a number at least 0, got {epsilon!r}")
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    *share_rngs, split_rng = [np.random.default_rng(s) for s in root.spawn(4)]
    group, k = _SCREENS[constraint]
    members = np.eye(3)[group]  # (16, 3): each cell's group, one-hot
    limit = _screen_limit(epsilon)
    kept_rows: list[np.ndarray] = []
    kept = 0
    proposals = 0
    while kept < n:
        if proposals >= MAX_PROPOSALS:
            raise EstimationError(
                f"acceptance rate {kept / max(proposals, 1):.2e} below floor after "
                f"{proposals} proposals; raise epsilon (currently {epsilon})"
            )
        shares = _screened_shares(share_rngs, k, limit, BATCH_SIZE)
        proposals += BATCH_SIZE
        split = split_rng.standard_exponential((len(shares), 16))
        rows = split * (shares / (split @ members))[:, group]
        ctf, int1, int2 = batch_metrics(rows)
        score = ctf if constraint == L3_PENALTY else int1 + int2
        accepted = rows[score <= epsilon]
        if len(accepted):
            kept_rows.append(accepted)
            kept += len(accepted)
        if proposals >= NO_ACCEPTANCE_FLOOR and not kept:
            raise EstimationError(
                f"no acceptances in {proposals} proposals; raise epsilon "
                f"(currently {epsilon})"
            )
    rows = np.concatenate(kept_rows)[:n]
    _check_tables(rows)
    ctf, int1, int2 = batch_metrics(rows)
    return list(map(
        _checked_pair, map(tuple, rows.tolist()), ctf.tolist(), int1.tolist(), int2.tolist()
    ))


def violation_fraction(reports: Sequence[tuple[CanonicalScm, FairnessReport]]) -> float:
    """Share of sampled tables whose true counterfactual disparity
    exceeds DISCRIMINATION_THRESHOLD."""
    if not reports:
        return 0.0
    return sum(1 for _, r in reports if r.mu_ctf > DISCRIMINATION_THRESHOLD) / len(reports)
