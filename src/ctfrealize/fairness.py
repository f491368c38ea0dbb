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
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EstimationError, ModelError
from .graphs import CausalDiagram
from .models import PROB_TOL, ScmModel, tabulated_model
from .queries import CtfQuery, query, response
from .engine import exact_l3_probability
from .realizability import RealizationPlan, ctf_realize, maximal_action_set
from .simulate import _check_integer, _check_seed, draw_plan_batch, estimate

RESPONSE_TYPES = ("always-approve", "approve-iff-x1", "approve-iff-x0", "always-reject")

DISCRIMINATION_THRESHOLD = 0.05  # reporting cut for "significant" disparity


def _respond(rtype: str, x: int) -> int:
    if rtype == "always-approve":
        return 1
    if rtype == "approve-iff-x1":
        return x
    if rtype == "approve-iff-x0":
        return 1 - x
    return 0


@dataclass(frozen=True)
class CanonicalScm:
    """P(X=1) plus the 16-entry joint over (Y-type, Z-type) pairs, in
    RESPONSE_TYPES-major order (Y-type outer, Z-type inner)."""

    type_probs: tuple[float, ...]
    p_x1: float = 0.5

    def __post_init__(self):
        if len(self.type_probs) != 16:
            raise ModelError("canonical parameterization needs 16 type-pair entries")
        if min(self.type_probs) < -PROB_TOL:
            raise ModelError("negative type-pair probability")
        # a NaN or infinite entry makes the sum NaN or infinite
        total = sum(self.type_probs)
        if not abs(total - 1.0) <= PROB_TOL:
            raise ModelError(f"type-pair probabilities sum to {total}, not 1")
        if not 0.0 <= self.p_x1 <= 1.0:
            raise ModelError(f"p_x1 must lie in [0, 1], got {self.p_x1!r}")

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

    def to_model(self) -> ScmModel:
        dist = {}
        for ux in (0, 1):
            p_ux = self.p_x1 if ux == 1 else 1.0 - self.p_x1
            for t in range(16):
                dist[(ux, t)] = p_ux * self.type_probs[t]
        return _BASE.reweighted(dist)


# Every canonical table shares the diagram, the exogenous domains and the
# three mechanisms; only the exogenous weights differ. Each table is the
# base model below reweighted, so a table whose 32 rows all have nonzero
# weight shares the base's compiled rows, term codes and event masks; a
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


@dataclass(frozen=True)
class FairnessReport:
    mu_ctf: float
    mu_int1: float
    mu_int2: float
    exact: bool = True
    n: int | None = None
    ci95: tuple[float, float] | None = None


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

# The queries are built once: every exact evaluation reuses them.
# _COUPLED[x] is P(Y_x1=1, Z_x=0).
_COUPLED = {
    x: query(response("Y", {"X": 1}, 1), response("Z", {"X": x}, 0)) for x in (0, 1)
}
_Y1_X1 = query(response("Y", {"X": 1}, 1))
_Z0_X1 = query(response("Z", {"X": 1}, 0))
_Z0_X0 = query(response("Z", {"X": 0}, 0))
_JOINT_X0 = query(response("Y", {"X": 0}, 1), response("Z", {"X": 0}, 0))


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
    """|P(Y_x1=1, Z_x1=0) - P(Y_x1=1, Z_x0=0)|, exactly by enumeration or
    estimated by executing the two-randomization plan n times per term.
    The sampled estimate draws its i-th plan from SeedSequence([seed, i]),
    with fresh entropy in place of the seed when it is None, or from the
    i-th spawn of a ``SeedSequence`` seed. Its n and seed are checked as
    sample_constrained_scms checks its own."""
    if not exact:
        _check_count(n)
        _check_seed(seed)
    model = scm.to_model()
    a, int1, int2 = _exact(model)
    if exact:
        b = exact_l3_probability(model, _COUPLED[0])
        return FairnessReport(mu_ctf=abs(a - b), mu_int1=int1, mu_int2=int2, exact=True)
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
    same-regime joints |P(Y=1,Z=0;do x1) - P(Y=1,Z=0;do x0)|. Any other
    variant, a bool or a non-integer included, raises EstimationError."""
    integral = isinstance(variant, numbers.Integral) and not isinstance(variant, bool)
    if not integral or variant not in (1, 2):
        raise EstimationError(f"unknown surrogate variant {variant!r}")
    return _exact(scm.to_model())[variant]


def _exact(model: ScmModel) -> tuple[float, float, float]:
    """(P(Y_x1=1, Z_x1=0), mu_int1, mu_int2) by the exact engine, each of
    the five probabilities evaluated once; the first is also mu_int2's
    same-regime joint under do(x1)."""
    a = exact_l3_probability(model, _COUPLED[1])
    j0 = exact_l3_probability(model, _JOINT_X0)
    p_y1 = exact_l3_probability(model, _Y1_X1)
    z1 = exact_l3_probability(model, _Z0_X1)
    z0 = exact_l3_probability(model, _Z0_X0)
    return a, abs(p_y1 * z1 - p_y1 * z0), abs(a - j0)


# ---------------------------------------------------------------------------
# Vectorized forms over batches of canonical tables
# ---------------------------------------------------------------------------

def _masks() -> dict[str, np.ndarray]:
    y1_x1 = np.zeros(16)   # Y_{x1} = 1
    y1_x0 = np.zeros(16)   # Y_{x0} = 1
    z0_x1 = np.zeros(16)   # Z_{x1} = 0
    z0_x0 = np.zeros(16)   # Z_{x0} = 0
    for i, (yt, zt) in enumerate(itertools.product(RESPONSE_TYPES, RESPONSE_TYPES)):
        y1_x1[i] = _respond(yt, 1)
        y1_x0[i] = _respond(yt, 0)
        z0_x1[i] = 1 - _respond(zt, 1)
        z0_x0[i] = 1 - _respond(zt, 0)
    return {"y1_x1": y1_x1, "y1_x0": y1_x0, "z0_x1": z0_x1, "z0_x0": z0_x0}


_M = _masks()


def batch_metrics(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(mu_ctf, mu_int1, mu_int2) for each row of a (n, 16) batch of
    canonical tables; closed forms of the same quantities the exact
    engine computes one table at a time."""
    probs = np.atleast_2d(probs)
    m = _M
    a = probs @ (m["y1_x1"] * m["z0_x1"])  # P(Y_x1=1, Z_x1=0), as in _exact
    y1 = probs @ m["y1_x1"]
    ctf = np.abs(a - probs @ (m["y1_x1"] * m["z0_x0"]))
    int1 = np.abs(y1 * (probs @ m["z0_x1"]) - y1 * (probs @ m["z0_x0"]))
    int2 = np.abs(a - probs @ (m["y1_x0"] * m["z0_x0"]))
    return ctf, int1, int2


# ---------------------------------------------------------------------------
# Constrained sampling over the canonical simplex
# ---------------------------------------------------------------------------

L2_PENALTY = "l2_penalty"
L3_PENALTY = "l3_penalty"
# Proposals per block. A block of BATCH_SIZE x 16 doubles (1 MB) stays in
# cache through the pre-filter. Every row takes the next 16 exponentials
# of the stream, so a seed's tables do not depend on the block size.
BATCH_SIZE = 8192
MAX_PROPOSALS = 50_000_000  # past this, a low acceptance rate is an error, not a wait
NO_ACCEPTANCE_FLOOR = 1_000_000  # proposals without one acceptance before giving up
PREFILTER_SLACK = 1e-9  # see sample_constrained_scms for the bound it covers


def _prefilter_columns() -> dict[str, np.ndarray]:
    """Per constraint, the (16, k) matrix whose product with a block of
    raw rows gives each row's sum followed by the unnormalized linear
    forms its score is built from."""
    m = _M
    dz = m["z0_x1"] - m["z0_x0"]
    return {
        L3_PENALTY: np.column_stack([np.ones(16), m["y1_x1"] * dz]),
        L2_PENALTY: np.column_stack([
            np.ones(16), m["y1_x1"], dz,
            m["y1_x1"] * m["z0_x1"] - m["y1_x0"] * m["z0_x0"],
        ]),
    }


_PREFILTER = _prefilter_columns()


def _may_pass(
    constraint: str, block: np.ndarray, epsilon: float | np.ndarray
) -> np.ndarray:
    """Mask of the raw rows whose score may be at most epsilon: with the
    limit epsilon + PREFILTER_SLACK * (1 + epsilon), |e.w| <= limit*s for
    l3 and |y1*dz| + |dj|*s <= limit*s^2 for l2, where s and each form
    are the row's dot products with the columns of _PREFILTER."""
    limit = epsilon + PREFILTER_SLACK * (1.0 + epsilon)
    f = block @ _PREFILTER[constraint]
    s = f[:, 0]
    if constraint == L3_PENALTY:
        return np.abs(f[:, 1]) <= limit * s
    return np.abs(f[:, 1] * f[:, 2]) + np.abs(f[:, 3]) * s <= limit * s * s


def _normalize(rows: np.ndarray) -> np.ndarray:
    """Each row scaled by the reciprocal of its left-to-right sum, as
    ``rng.dirichlet`` scales the exponentials it draws."""
    return rows * (1.0 / rows.cumsum(axis=1)[:, -1])[:, None]


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
    """Rejection-sample canonical tables from the flat Dirichlet prior on
    the 16-simplex, keeping those whose penalized score is at most
    epsilon: the two single-regime surrogates summed for the l2
    constraint, the counterfactual disparity itself for l3. Each
    accepted table is returned with its true metrics.

    Proposals come in blocks of BATCH_SIZE rows of 16 standard
    exponentials. Scaling a row e by the reciprocal of its left-to-right
    sum s gives the row ``rng.dirichlet(np.ones(16))`` would have drawn,
    bit for bit, so the tables are those of a Dirichlet sampler that
    keeps the first n accepted rows.

    A block is pre-filtered before any row is normalized. For a raw row
    e with sum s, mu_ctf = |e.w|/s and mu_int1 + mu_int2 =
    (|y1*dz| + |dj|*s)/s^2, where e.w, y1, dz and dj are dot products of
    e with fixed 0/+-1 masks (the columns of _PREFILTER). Let u = 2**-53.
    A 16-term dot product is off by at most 16u times the sum of its
    terms' magnitudes, and a normalized row is within 18u of e/s
    relatively; so each of the five forms ``batch_metrics`` takes is
    within 40u of its real value, and the score it tests within 300u of
    the real score. The pre-filter's left side is within 300u * s^k of
    the real score times s^k (k = 1 for l3, 2 for l2), and its right
    side, limit * s^k, is computed within 40u relatively. A row the
    exact test accepts therefore passes whenever the slack in
    limit = epsilon + PREFILTER_SLACK * (1 + epsilon) exceeds
    700u * (1 + epsilon), about 8e-14 * (1 + epsilon).

    Only the rows that pass are normalized and decided by the exact test
    ``score <= epsilon`` on ``batch_metrics``. With no acceptance after
    NO_ACCEPTANCE_FLOOR proposals, or too few after MAX_PROPOSALS, the
    sampler raises EstimationError, as it does for a seed numpy would
    refuse (``simulate._check_seed``)."""
    if constraint not in (L2_PENALTY, L3_PENALTY):
        raise EstimationError(
            f"unknown constraint {constraint!r}; use {L2_PENALTY} or {L3_PENALTY}"
        )
    _check_count(n)
    _check_seed(seed)
    if not isinstance(epsilon, numbers.Real) or not epsilon >= 0:
        raise EstimationError(f"epsilon must be a number at least 0, got {epsilon!r}")
    rng = np.random.default_rng(seed)
    kept_rows: list[np.ndarray] = []
    kept = 0
    proposals = 0
    while kept < n:
        if proposals >= MAX_PROPOSALS:
            raise EstimationError(
                f"acceptance rate {kept / max(proposals, 1):.2e} below floor after "
                f"{proposals} proposals; raise epsilon (currently {epsilon})"
            )
        block = rng.standard_exponential((BATCH_SIZE, 16))
        proposals += BATCH_SIZE
        rows = _normalize(block[_may_pass(constraint, block, epsilon)])
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
    ctf, int1, int2 = batch_metrics(rows)
    return [
        (CanonicalScm(tuple(probs)), FairnessReport(c, i1, i2))
        for probs, c, i1, i2 in zip(
            rows.tolist(), ctf.tolist(), int1.tolist(), int2.tolist()
        )
    ]


def violation_fraction(reports: Sequence[tuple[CanonicalScm, FairnessReport]]) -> float:
    """Share of sampled tables whose true counterfactual disparity
    exceeds DISCRIMINATION_THRESHOLD."""
    if not reports:
        return 0.0
    return sum(1 for _, r in reports if r.mu_ctf > DISCRIMINATION_THRESHOLD) / len(reports)
