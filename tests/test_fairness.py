import hashlib
import time
import zlib
from fractions import Fraction

import numpy as np
import pytest

from ctfrealize import (
    ActionSet,
    EstimationError,
    Mechanism,
    ModelError,
    ScmModel,
    ctf_rand_action,
    ctf_realize,
    exact_l3_probabilities,
    exact_l3_probability,
    maximal_action_set,
    query,
    rand_action,
    read_action,
    response,
    select,
    validate_scm,
)
from ctfrealize import engine, fairness
from ctfrealize.fairness import (
    L2_PENALTY,
    L3_PENALTY,
    CanonicalScm,
    FairnessReport,
    RESPONSE_TYPES,
    batch_metrics,
    example2_scm,
    mu_ctf,
    mu_int,
    sample_constrained_scms,
    violation_fraction,
)
from ctfrealize.models import PROB_TOL
from reference import potential_response, response_type_masks


def test_published_table_sums_to_one_and_entry_values():
    scm = example2_scm()
    assert sum(scm.type_probs) == pytest.approx(1.0, abs=1e-12)
    assert scm.prob("always-approve", "always-approve") == 0.040
    assert scm.prob("approve-iff-x1", "approve-iff-x0") == 0.170
    assert scm.prob("always-reject", "always-reject") == 0.025


def test_induced_model_is_valid_and_has_the_right_shape():
    model = example2_scm().to_model()
    assert validate_scm(model) == []
    d = model.diagram
    assert set(d.directed_edges) == {("X", "Y"), ("X", "Z")}
    assert d.bidirected_edges == frozenset({frozenset({"Y", "Z"})})


def test_exact_metric_values():
    scm = example2_scm()
    report = mu_ctf(scm, exact=True)
    assert report.mu_ctf == pytest.approx(0.10, abs=1e-12)
    assert mu_int(scm, 1) == pytest.approx(0.0, abs=1e-12)
    assert mu_int(scm, 2) == pytest.approx(0.0, abs=1e-12)
    assert mu_int(scm, np.int64(2)) == mu_int(scm, 2)
    for variant in (3, 0, True, 1.0):
        with pytest.raises(EstimationError, match="unknown surrogate variant"):
            mu_int(scm, variant)


def test_exact_report_evaluates_each_probability_once(monkeypatch):
    # each of the six stored event-row lists is summed once, by the
    # engine's one row-order loop, and no model is built for the table
    assert fairness.add_rows is engine.add_rows
    events = fairness._BASE.compile().events
    assert [events[q] for q in fairness._EXACT_QUERIES] == list(fairness._EVENT_ROWS)
    summed = []

    def counting(weights, rows):
        summed.append(rows)
        return engine.add_rows(weights, rows)

    def no_model(*args):
        raise AssertionError("built a model")

    monkeypatch.setattr(fairness, "add_rows", counting)
    monkeypatch.setattr(CanonicalScm, "to_model", no_model)
    monkeypatch.setattr(ScmModel, "reweighted", no_model)
    mu_ctf(example2_scm(), exact=True)
    assert len(summed) == 6
    assert all(got is want for got, want in zip(summed, fairness._EVENT_ROWS))


def per_row_metrics(model):
    """(mu_ctf, mu_int1, mu_int2) from the six probabilities of
    _EXACT_QUERIES, each a per-row loop over the support in its order."""
    probs = []
    for q in fairness._EXACT_QUERIES:
        total = 0.0
        for u, p in model.exogenous_support():
            if p != 0.0 and all(potential_response(model, u, t) == t.value for t in q.terms):
                total += p
        probs.append(total)
    return fairness._metrics(*probs)


def exact_metric_tables():
    """Tables of every kind the row weights must handle."""
    tables = [scm for c in (L2_PENALTY, L3_PENALTY)
              for scm, _ in sample_constrained_scms(c, 8, 0.01, seed=35)]
    rng = np.random.default_rng(35)
    for k in range(6):
        w = rng.dirichlet(np.ones(16)) * (rng.random(16) < 0.5)
        w[k] += 1.0 - w.sum()  # some entries exactly zero
        tables.append(CanonicalScm(w.tolist(), p_x1=float(rng.random())))
    tables += [CanonicalScm(example2_scm().type_probs, p) for p in (0.0, 1, 1.0)]
    tables += [
        CanonicalScm([Fraction(1, 16)] * 16, p_x1=Fraction(1, 3)),
        CanonicalScm([0] * 5 + [1] + [0] * 10, p_x1=1),
        CanonicalScm(rng.dirichlet(np.ones(16)).astype(np.float32), np.float32(0.3)),
        CanonicalScm([1.0 / 15] * 15 + [-PROB_TOL / 2], p_x1=0.4),
        CanonicalScm([-PROB_TOL / 2] + [1.0 / 15] * 15, p_x1=1.0),
    ]
    return tables


def test_exact_metrics_equal_the_engine_and_the_per_row_oracle():
    # the row weights added at the base's event rows give what the engine
    # gives on the table's own model, bit for bit, zero rows and all
    for scm in exact_metric_tables():
        model = scm.to_model()
        want = fairness._metrics(*exact_l3_probabilities(model, fairness._EXACT_QUERIES))
        assert want == per_row_metrics(model), scm
        report = mu_ctf(scm)
        assert (report.mu_ctf, report.mu_int1, report.mu_int2) == want, scm
        assert (mu_int(scm, 1), mu_int(scm, 2)) == want[1:], scm


@pytest.mark.parametrize("scm", [tuple([1.0 / 16] * 16), [1.0 / 16] * 16, None])
def test_metrics_of_what_is_no_canonical_table_are_model_errors(scm):
    text = f"expected a CanonicalScm, got {type(scm).__name__}"
    with pytest.raises(ModelError, match=text):
        mu_ctf(scm)
    with pytest.raises(ModelError, match=text):
        mu_ctf(scm, exact=False, n=10)
    with pytest.raises(ModelError, match=text):
        mu_int(scm, 1)


@pytest.mark.parametrize("probs", [
    np.full((3, 15), 1.0 / 15), np.full(17, 1.0 / 17), 1.0, [], np.ones((2, 16, 1)),
])
def test_batch_rows_that_are_not_16_wide_are_model_errors(probs):
    with pytest.raises(ModelError, match="^canonical parameterization needs 16 "
                       "type-pair entries$"):
        batch_metrics(probs)


def test_zero_effect_on_aid_screen_gives_zero_disparity():
    # Z-type never reads the attribute: only always-approve / always-reject
    probs = np.zeros(16)
    for i, yt in enumerate(RESPONSE_TYPES):
        probs[4 * i + 0] = 0.15  # z always-approve
        probs[4 * i + 3] = 0.10  # z always-reject
    scm = CanonicalScm(tuple(probs))
    assert mu_ctf(scm, exact=True).mu_ctf == pytest.approx(0.0, abs=1e-12)


def test_symmetric_table_gives_zero_surrogates():
    # swapping the roles of the two attribute values maps the table to
    # itself: approve-iff-x1 <-> approve-iff-x0 with equal mass
    probs = np.zeros(16)
    pairs = [(0, 0), (1, 2), (2, 1), (3, 3), (1, 1), (2, 2)]
    mass = 1.0 / len(pairs)
    for i, j in pairs:
        probs[4 * i + j] += mass
    scm = CanonicalScm(tuple(probs))
    assert mu_int(scm, 1) == pytest.approx(0.0, abs=1e-12)
    assert mu_int(scm, 2) == pytest.approx(0.0, abs=1e-12)


def test_forms_are_the_response_type_masks():
    m = response_type_masks()
    want = [
        m["y1_x1"] * m["z0_x1"],  # P(Y_x1=1, Z_x1=0)
        m["y1_x0"] * m["z0_x0"],  # P(Y_x0=1, Z_x0=0)
        m["y1_x1"],               # P(Y_x1=1)
        m["z0_x1"],               # P(Z_x1=0)
        m["z0_x0"],               # P(Z_x0=0)
        m["y1_x1"] * m["z0_x0"],  # P(Y_x1=1, Z_x0=0)
    ]
    assert fairness._FORMS.shape == (6, 16)
    for k, (form, mask) in enumerate(zip(fairness._FORMS, want)):
        assert np.array_equal(form, mask), (k, form, mask)


def test_vectorized_metrics_match_engine():
    scm = example2_scm()
    ctf, i1, i2 = batch_metrics(np.array(scm.type_probs))
    assert ctf[0] == pytest.approx(mu_ctf(scm, exact=True).mu_ctf, abs=1e-12)
    assert i1[0] == pytest.approx(mu_int(scm, 1), abs=1e-12)
    assert i2[0] == pytest.approx(mu_int(scm, 2), abs=1e-12)
    rng = np.random.default_rng(0)
    for row in rng.dirichlet(np.ones(16), size=5):
        scm_r = CanonicalScm(tuple(float(p) for p in row))
        ctf, i1, i2 = batch_metrics(row)
        assert ctf[0] == pytest.approx(mu_ctf(scm_r, exact=True).mu_ctf, abs=1e-10)
        assert i1[0] == pytest.approx(mu_int(scm_r, 1), abs=1e-10)
        assert i2[0] == pytest.approx(mu_int(scm_r, 2), abs=1e-10)


def test_audit_query_is_realizable_with_per_model_randomizations():
    # the cross-regime joint P(Y_x1, Z_x0) is sampled by fixing X
    # separately as input to each screen
    model = example2_scm().to_model()
    coupled = query(response("Y", {"X": 1}), response("Z", {"X": 0}))
    plan = ctf_realize(coupled, model.diagram, maximal_action_set(model.diagram))
    assert plan
    assert {action for action, _ in plan.tags} == {
        ctf_rand_action("X", ["Y"]), ctf_rand_action("X", ["Z"]),
    }


def test_sampled_metric_realizes_each_coupled_query_once(monkeypatch):
    realized = []

    def counting_realize(q, diagram, actions):
        realized.append(str(q))
        return ctf_realize(q, diagram, actions)

    monkeypatch.setattr(fairness, "ctf_realize", counting_realize)
    mu_ctf(example2_scm(), exact=False, n=100, seed=6)
    assert realized == ["P(Y[X=1], Z[X=1])", "P(Y[X=1], Z[X=0])"]
    # with Rand(X) alone, Z[X=0] beside Y[X=1] is not realizable: an
    # EstimationError that names the conflict, also under python -O
    monkeypatch.setattr(fairness, "maximal_action_set", lambda diagram: ActionSet(
        [select(), *(read_action(v) for v in "XYZ"), rand_action("X")], diagram
    ))
    with pytest.raises(EstimationError, match="audit query is not realizable: "
                       "conflict at X: Rand"):
        mu_ctf(example2_scm(), exact=False, n=100, seed=6)


def test_sampled_metric_seeds_each_plan_from_its_seed_or_fresh_entropy(monkeypatch):
    seeds = []
    draw = fairness.draw_plan_batch

    def capturing_draw(plan, model, n, seed=None):
        seeds.append(seed)
        return draw(plan, model, n, seed=seed)

    monkeypatch.setattr(fairness, "draw_plan_batch", capturing_draw)
    for seed in (20240106, 0, None, None):
        mu_ctf(example2_scm(), exact=False, n=50, seed=seed)
    assert len(seeds) == 8
    # an integer seed keeps its stream: plan i draws from SeedSequence([seed, i])
    for got, want in zip(seeds[:4], ([20240106, 0], [20240106, 1], [0, 0], [0, 1])):
        assert got.entropy == want
        assert (got.generate_state(4) == np.random.SeedSequence(want).generate_state(4)).all()
    # seed=None draws fresh entropy once per call, shared by its two plans
    fresh = [s.entropy for s in seeds[4:]]
    assert [e[1] for e in fresh] == [0, 1, 0, 1]
    assert fresh[0][0] == fresh[1][0] and fresh[2][0] == fresh[3][0]
    assert fresh[0][0] != fresh[2][0]
    assert 0 not in (fresh[0][0], fresh[2][0])


def test_sampled_metric_checks_n_before_realizing(monkeypatch):
    # a bad sample size fails with the sampler's texts before any plan is
    # realized; exact evaluation reads no n
    def no_realize(q, diagram, actions):
        raise AssertionError("realized a plan")

    monkeypatch.setattr(fairness, "ctf_realize", no_realize)
    for n in (2.5, True, "10", np.float64(3.0)):
        with pytest.raises(EstimationError, match="must be an integer"):
            mu_ctf(example2_scm(), exact=False, n=n)
    for n in (0, -5):
        with pytest.raises(EstimationError, match="at least one"):
            mu_ctf(example2_scm(), exact=False, n=n)
    assert mu_ctf(example2_scm(), n=0.5).exact


def test_sampled_metric_concentrates():
    report = mu_ctf(example2_scm(), exact=False, n=20_000, seed=6)
    assert report.mu_ctf == pytest.approx(0.10, abs=0.02)
    assert not report.exact and report.n == 20_000
    lo, hi = report.ci95
    assert lo <= 0.10 <= hi


def test_a_sampled_report_holds_python_floats():
    report = mu_ctf(example2_scm(), exact=False, n=200, seed=6)
    assert [type(v) for v in report.ci95] == [float, float]
    assert type(report.mu_ctf) is float


def test_relabeling_latent_categories_preserves_metrics():
    scm = example2_scm()
    base = scm.to_model()
    perm = np.random.default_rng(1).permutation(16)
    diagram = base.diagram
    dist = {}
    for (ux, t), p in base.exogenous_dist.items():
        dist[(ux, int(perm[t]))] = p
    inv = {int(perm[t]): t for t in range(16)}
    mech = {
        "X": base.mechanisms["X"],
        "Y": Mechanism.tabulate(
            ("X",), ("U_YZ",), ((0, 1),), (tuple(range(16)),),
            lambda x, t: base.mechanisms["Y"]((x,), (inv[t],)),
        ),
        "Z": Mechanism.tabulate(
            ("X",), ("U_YZ",), ((0, 1),), (tuple(range(16)),),
            lambda x, t: base.mechanisms["Z"]((x,), (inv[t],)),
        ),
    }
    relabeled = ScmModel(
        diagram, base.exogenous_vars, base.exogenous_domains, dist, mech
    )
    for q in (
        query(response("Y", {"X": 1}, 1), response("Z", {"X": 1}, 0)),
        query(response("Y", {"X": 1}, 1), response("Z", {"X": 0}, 0)),
    ):
        assert exact_l3_probability(relabeled, q) == pytest.approx(
            exact_l3_probability(base, q), abs=1e-12
        )


def test_canonical_table_round_trip_preserves_metrics():
    scm = example2_scm()
    model = scm.to_model()
    a = exact_l3_probability(
        model, query(response("Y", {"X": 1}, 1), response("Z", {"X": 1}, 0))
    )
    b = exact_l3_probability(
        model, query(response("Y", {"X": 1}, 1), response("Z", {"X": 0}, 0))
    )
    assert abs(a - b) == pytest.approx(mu_ctf(scm, exact=True).mu_ctf, abs=1e-12)


def test_bad_canonical_tables_rejected():
    with pytest.raises(ModelError):
        CanonicalScm(tuple([1.0 / 15] * 15))
    bad = [1.0 / 16] * 16
    bad[0] += 0.1
    with pytest.raises(ModelError):
        CanonicalScm(tuple(bad))
    uniform = [1.0 / 16] * 16
    for entry in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ModelError):
            CanonicalScm(tuple([entry] + uniform[1:]))
    with pytest.raises(ModelError):
        CanonicalScm(tuple([float("nan")] * 16))
    for p_x1 in (1.5, -0.2, float("nan")):
        with pytest.raises(ModelError, match="p_x1"):
            CanonicalScm(tuple(uniform), p_x1)
    assert [CanonicalScm(tuple(uniform), p).p_x1 for p in (0.0, 1.0)] == [0.0, 1.0]


@pytest.mark.parametrize("p_x1", ["0.5", None, True, False, np.True_, 0.5j])
def test_a_p_x1_that_is_no_real_number_is_a_model_error(p_x1):
    with pytest.raises(ModelError, match="p_x1 must be a number"):
        CanonicalScm([1.0 / 16] * 16, p_x1=p_x1)


@pytest.mark.parametrize("entries", [
    [True] + [False] * 15,
    [True] + [0.0] * 15,
    [1.0] + [False] * 15,
    [np.True_] + [0.0] * 15,
])
def test_bool_canonical_entries_are_model_errors(entries):
    with pytest.raises(ModelError, match="type-pair probabilities must be numbers"):
        CanonicalScm(entries, p_x1=0.5)
    with pytest.raises(ModelError):
        CanonicalScm(entries, p_x1=True)


def test_numpy_floats_make_a_canonical_table():
    scm = CanonicalScm(np.full(16, 1.0 / 16), p_x1=np.float64(0.25))
    plain = CanonicalScm([1.0 / 16] * 16, p_x1=0.25)
    assert scm == plain
    assert mu_ctf(scm) == mu_ctf(plain)
    assert CanonicalScm([1.0] + [0.0] * 15, p_x1=np.float32(0.5)).p_x1 == 0.5
    assert CanonicalScm([1.0] + [0.0] * 15, p_x1=1).p_x1 == 1


def test_canonical_table_keeps_the_entries_it_checked():
    probs = [1.0 / 16] * 16
    scm = CanonicalScm(probs)
    probs[0] = 5.0  # after validation: the table does not change
    assert scm.type_probs == tuple([1.0 / 16] * 16)
    assert mu_ctf(scm) == mu_ctf(CanonicalScm(tuple([1.0 / 16] * 16)))


def test_canonical_tables_hash_and_compare_from_any_sequence():
    uniform = tuple([1.0 / 16] * 16)
    from_list = CanonicalScm(list(uniform))
    assert hash(from_list) == hash(CanonicalScm(uniform))
    assert from_list == CanonicalScm(uniform)
    from_array = CanonicalScm(np.full(16, 1.0 / 16))
    assert (from_array == CanonicalScm(np.full(16, 1.0 / 16))) is True
    assert from_array == CanonicalScm(uniform)
    assert len({from_list, from_array, CanonicalScm(uniform)}) == 1


@pytest.mark.parametrize("entries", [
    ["0.0625"] * 16,
    [None] * 16,
    [1.0 / 16] * 15 + ["x"],
    [1j / 16] * 16,
    [np.full(2, 1.0 / 16)] * 16,
])
def test_non_numeric_canonical_entries_are_model_errors(entries):
    with pytest.raises(ModelError, match="type-pair probabilities must be numbers"):
        CanonicalScm(entries)


def test_a_canonical_table_that_is_no_sequence_is_a_model_error():
    with pytest.raises(ModelError, match="needs 16 type-pair entries"):
        CanonicalScm(1.0)


def test_sampler_refuses_a_bool_epsilon(monkeypatch):
    def no_draws(seed=None):
        raise AssertionError("drew proposals")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    for epsilon in (True, False, np.bool_(True)):
        with pytest.raises(EstimationError, match="epsilon must be a number at least 0"):
            sample_constrained_scms(L3_PENALTY, 10, epsilon)


def test_unknown_response_type_is_named():
    scm = example2_scm()
    with pytest.raises(ModelError, match="unknown response type 'approve-always'"):
        scm.prob("approve-always", "always-reject")
    with pytest.raises(ModelError, match="unknown response type 'reject'"):
        scm.prob("always-approve", "reject")


def test_published_table_fails_a_zero_tolerance_constraint():
    ctf, _, _ = batch_metrics(np.array(example2_scm().type_probs))
    assert ctf[0] > 0.0  # would be rejected at epsilon = 0


def test_sampler_errors(monkeypatch):
    with pytest.raises(EstimationError, match="unknown constraint"):
        sample_constrained_scms("l7", 1)
    with pytest.raises(EstimationError, match="at least one"):
        sample_constrained_scms(L3_PENALTY, 0)
    monkeypatch.setattr(fairness, "BATCH_SIZE", 1000)
    monkeypatch.setattr(fairness, "MAX_PROPOSALS", 3000)
    with pytest.raises(EstimationError, match="raise epsilon"):
        sample_constrained_scms(L3_PENALTY, 10, epsilon=0.0, seed=0)


def test_constrained_samplers_contrast():
    l3 = sample_constrained_scms(L3_PENALTY, 200, 0.01, seed=7)
    l2 = sample_constrained_scms(L2_PENALTY, 200, 0.01, seed=8)
    assert len(l3) == len(l2) == 200
    for scm, report in l3[:5]:
        assert report.mu_ctf <= 0.01 + 1e-9
        assert sum(scm.type_probs) == pytest.approx(1.0, abs=1e-9)
    assert violation_fraction(l3) <= 0.05
    assert violation_fraction(l2) >= 0.25


def test_sampled_tables_are_unchanged():
    # sha256 of repr([(type_probs, report), ...]) for 50 tables per
    # constraint, as the screened sampler draws them
    digests = {
        L3_PENALTY: "6c5cc0a79287871142ca392fc206f7604b2754dcbe2ac8f676e3eb8d273c8c01",
        L2_PENALTY: "3c305039372a74cb91409fcb2cb86b5718e6eb4dcec81377dc82294721bc05b4",
    }
    for constraint, digest in digests.items():
        out = sample_constrained_scms(constraint, 50, 0.01, seed=zlib.crc32(b"sampler-rows"))
        assert all(type(p) is float for scm, _ in out for p in scm.type_probs)
        text = repr([(scm.type_probs, report) for scm, report in out])
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_sampler_checks_its_arguments_before_drawing(monkeypatch):
    def no_draws(seed=None):
        raise AssertionError("drew proposals")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    for epsilon in (-0.01, -1, float("nan"), "0.01", None):
        with pytest.raises(EstimationError, match="epsilon must be a number at least 0"):
            sample_constrained_scms(L3_PENALTY, 10, epsilon)
    for n in (2.5, True, "10", np.float64(3.0)):
        with pytest.raises(EstimationError, match="must be an integer"):
            sample_constrained_scms(L2_PENALTY, n, 0.01)
    # epsilon 0 and a numpy integer n are valid: the sampler starts drawing
    for n, epsilon in ((10, 0.0), (np.int64(3), 0.01)):
        with pytest.raises(AssertionError, match="drew proposals"):
            sample_constrained_scms(L3_PENALTY, n, epsilon)


def test_sampler_gives_up_after_a_million_proposals_without_acceptance(monkeypatch):
    # the floor is a number of proposals, whatever the block size
    monkeypatch.setattr(fairness, "BATCH_SIZE", 10_000)
    with pytest.raises(EstimationError, match="no acceptances in 1000000 proposals"):
        sample_constrained_scms(L3_PENALTY, 1, 0.0, seed=0)


def reference_sampler(constraint, n, epsilon, seed):
    """Plain rejection from the flat Dirichlet: 50,000-row blocks drawn by
    ``rng.dirichlet`` and scored in full by ``batch_metrics``."""
    rng = np.random.default_rng(seed)
    kept_rows = []
    while sum(len(r) for r in kept_rows) < n:
        block = rng.dirichlet(np.ones(16), size=50_000)
        ctf, int1, int2 = batch_metrics(block)
        score = ctf if constraint == L3_PENALTY else int1 + int2
        kept_rows.append(block[score <= epsilon])
    rows = np.concatenate(kept_rows)[:n]
    ctf, int1, int2 = batch_metrics(rows)
    return [
        (CanonicalScm(tuple(probs)), FairnessReport(c, i1, i2))
        for probs, c, i1, i2 in zip(
            rows.tolist(), ctf.tolist(), int1.tolist(), int2.tolist()
        )
    ]


def ks_distance(x, y):
    """KS * sqrt(n_eff): the two-sample Kolmogorov-Smirnov statistic of x
    and y scaled by sqrt(n m / (n + m)). Two large samples of one law
    exceed 2.3 with probability about 5e-5."""
    x, y = np.sort(x), np.sort(y)
    points = np.concatenate([x, y])
    gap = np.abs(
        np.searchsorted(x, points, side="right") / len(x)
        - np.searchsorted(y, points, side="right") / len(y)
    ).max()
    return gap * np.sqrt(len(x) * len(y) / (len(x) + len(y)))


@pytest.mark.parametrize("constraint, seed", [(L3_PENALTY, 21), (L2_PENALTY, 22)])
def test_sampler_draws_the_law_of_dirichlet_rejection(constraint, seed):
    # 20,000 tables from each sampler at the audit's epsilon: the three
    # metrics and each of the 16 cells have one law; budget 30 s (about
    # 2 s on 2 cores)
    start = time.perf_counter()
    got = sample_constrained_scms(constraint, 20_000, 0.01, seed=seed)
    want = reference_sampler(constraint, 20_000, 0.01, seed)
    columns = {}
    for name, out in (("got", got), ("want", want)):
        probs = np.array([scm.type_probs for scm, _ in out])
        metrics = np.array([(r.mu_ctf, r.mu_int1, r.mu_int2) for _, r in out])
        columns[name] = np.column_stack([metrics, probs]).T
    labels = ["mu_ctf", "mu_int1", "mu_int2"] + [f"cell {i}" for i in range(16)]
    for label, x, y in zip(labels, columns["got"], columns["want"]):
        assert ks_distance(x, y) < 2.3, label
    elapsed = time.perf_counter() - start
    assert elapsed < 30, f"law comparison took {elapsed:.1f}s"


@pytest.mark.parametrize("constraint", [L3_PENALTY, L2_PENALTY])
@pytest.mark.parametrize("limit", [0.01, 0.2])
def test_screened_shares_are_the_dirichlet_shares_given_the_screen(constraint, limit):
    # brute force: Dirichlet(k, k, 16 - 2k) group shares, rejected outside
    # the screen; 20,000 draws of each
    _, k = fairness._SCREENS[constraint]
    rngs = [np.random.default_rng([31, i]) for i in range(4)]
    shares, brute = [], []
    while sum(map(len, shares)) < 20_000:
        shares.append(fairness._screened_shares(rngs[:3], k, limit, 10_000))
    while sum(map(len, brute)) < 20_000:
        block = rngs[3].dirichlet([k, k, 16 - 2 * k], size=100_000)
        brute.append(block[np.abs(block[:, 0] - block[:, 1]) <= limit])
    shares, brute = np.concatenate(shares)[:20_000], np.concatenate(brute)[:20_000]
    assert np.allclose(shares.sum(axis=1), 1.0)
    for group in range(2):
        assert ks_distance(shares[:, group], brute[:, group]) < 2.3, group


@pytest.mark.parametrize("constraint", [L3_PENALTY, L2_PENALTY])
@pytest.mark.parametrize("epsilon", [1.0, 2.0, float("inf")])
def test_a_loose_epsilon_accepts_every_table(constraint, epsilon):
    # no score exceeds 1, and the screen's limit is held at 1
    out = sample_constrained_scms(constraint, 200, epsilon, seed=12)
    assert len(out) == 200


@pytest.mark.parametrize("constraint", [L3_PENALTY, L2_PENALTY])
def test_tables_do_not_depend_on_the_block_size(monkeypatch, constraint):
    want = sample_constrained_scms(constraint, 300, 0.01, seed=11)
    monkeypatch.setattr(fairness, "BATCH_SIZE", 1000)
    assert sample_constrained_scms(constraint, 300, 0.01, seed=11) == want


def screen_row(constraint):
    """The screen's row w: 1 on its first group, -1 on its second."""
    group, _ = fairness._SCREENS[constraint]
    return (group == 0) * 1.0 - (group == 1)


def test_screens_are_differences_of_two_forms():
    a, j0, _, _, _, b = fairness._FORMS
    for constraint, w, k in ((L3_PENALTY, a - b, 2), (L2_PENALTY, a - j0, 3)):
        group, got = fairness._SCREENS[constraint]
        assert got == k
        assert np.bincount(group).tolist() == [k, k, 16 - 2 * k]
        assert np.array_equal(screen_row(constraint), w)


@pytest.mark.parametrize("constraint", [L3_PENALTY, L2_PENALTY])
def test_screen_keeps_every_row_the_exact_test_accepts(constraint):
    # each Dirichlet row's own score as epsilon puts it on the exact
    # test's boundary, and the row still lies within the screen
    w = screen_row(constraint)
    rows = np.random.default_rng(5).dirichlet(np.ones(16), size=20_000)
    ctf, int1, int2 = batch_metrics(rows)
    scores = ctf if constraint == L3_PENALTY else int1 + int2
    assert (np.abs(rows @ w) <= fairness._screen_limit(scores)).all()
    if constraint == L3_PENALTY:
        # the l3 screen is the exact test itself, up to the slack
        assert np.array_equal(np.abs(rows @ w) <= fairness._screen_limit(0.01), scores <= 0.01)
