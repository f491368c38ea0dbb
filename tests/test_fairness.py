import hashlib
import zlib

import numpy as np
import pytest

from ctfrealize import (
    ActionSet,
    CausalDiagram,
    EstimationError,
    Mechanism,
    ModelError,
    ScmModel,
    ctf_realize,
    exact_l3_probability,
    query,
    rand_action,
    read_action,
    response,
    select,
    validate_scm,
)
from ctfrealize import fairness
from ctfrealize.fairness import (
    L2_PENALTY,
    L3_PENALTY,
    CanonicalScm,
    RESPONSE_TYPES,
    assert_audit_realizable,
    batch_metrics,
    example2_scm,
    mu_ctf,
    mu_int,
    sample_constrained_scms,
    violation_fraction,
)


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


def test_exact_report_evaluates_each_probability_once(monkeypatch):
    calls = []

    def counting(model, q):
        calls.append(str(q))
        return exact_l3_probability(model, q)

    monkeypatch.setattr(fairness, "exact_l3_probability", counting)
    mu_ctf(example2_scm(), exact=True)
    assert len(calls) == len(set(calls)) == 6


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
    assert_audit_realizable(example2_scm().to_model())


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


def test_sampled_metric_concentrates():
    report = mu_ctf(example2_scm(), exact=False, n=20_000, seed=6)
    assert report.mu_ctf == pytest.approx(0.10, abs=0.02)
    assert not report.exact and report.n == 20_000
    lo, hi = report.ci95
    assert lo <= 0.10 <= hi


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
    # constraint, as the sampler gave them when it built each table from
    # tuple(float(p) for p in row)
    digests = {
        L3_PENALTY: "03b83bcbd16434169b09a8a7e9fdce1a21227bcdbef39e50b0ec4e7b15e25831",
        L2_PENALTY: "8853f7c1f74c327c763f17fdb59f5e06d2539fc48b5a65b7a5bece09c4a8780b",
    }
    for constraint, digest in digests.items():
        out = sample_constrained_scms(constraint, 50, 0.01, seed=zlib.crc32(b"sampler-rows"))
        assert all(type(p) is float for scm, _ in out for p in scm.type_probs)
        text = repr([(scm.type_probs, report) for scm, report in out])
        assert hashlib.sha256(text.encode()).hexdigest() == digest
