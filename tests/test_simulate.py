import hashlib
import random
import re

import numpy as np
import pytest

from ctfrealize import fairness, simulate
from ctfrealize import (
    ActionError,
    ActionSet,
    CausalDiagram,
    ContainmentViolation,
    CtfRealizeError,
    EstimationError,
    Experiment,
    FCEViolation,
    Mechanism,
    ModelError,
    QueryError,
    RealizabilityChecker,
    RealizationPlan,
    ScmModel,
    Unit,
    ctf_rand_action,
    ctf_realize,
    draw_plan_batch,
    estimate,
    exact_distribution,
    interventional_distribution,
    maximal_action_set,
    parse_query,
    query,
    rand_action,
    read_action,
    response,
    sample_interventional,
    sample_observational,
    select,
)
from ctfrealize.fixtures import bow_model, builtin_model, fan_model, hub_split_model
from ctfrealize.models import independent_exogenous
from ctfrealize.bandits import example3_problem, run_epochs
from ctfrealize.fairness import CanonicalScm

from enumeration import enumerate_terms, queries_of_size
from reference import execute_plan, natural_values, perform


def supersede_model():
    """One decision with four children, two of them behind chained copies:
    the layered-randomization scenario."""
    d = CausalDiagram(
        ["X", "Y", "Z", "T", "B"],
        directed_edges=[("X", "Y"), ("X", "Z"), ("X", "T"), ("X", "B")],
    )
    names, doms, dist = independent_exogenous({"U_X": (0, 1)})
    mech = {
        "X": Mechanism.tabulate((), ("U_X",), (), ((0, 1),), lambda u: u),
        "Y": Mechanism.tabulate(("X",), (), ((0, 1),), (), lambda x: x),
        "Z": Mechanism.tabulate(("X",), (), ((0, 1),), (), lambda x: x),
        "T": Mechanism.tabulate(("X",), (), ((0, 1),), (), lambda x: x),
        "B": Mechanism.tabulate(("X",), (), ((0, 1),), (), lambda x: x),
    }
    return ScmModel(d, names, doms, dist, mech)


# ---------------------------------------------------------------------------
# Unit selection
# ---------------------------------------------------------------------------

def test_select_unit_frequencies():
    model = example3_problem().model
    exp = Experiment(model, seed=0)
    n = 100_000
    counts = {}
    for _ in range(n):
        u = exp.new_unit().peek_exogenous()
        key = (u["U1"], u["U2"], u["U3"])
        counts[key] = counts.get(key, 0) + 1
    # each of the 8 habit/mood combinations has probability 1/8
    p = 1 / 8
    sigma = (n * p * (1 - p)) ** 0.5
    for key, c in counts.items():
        assert abs(c - n * p) < 3 * sigma, key


def test_block_selection_is_the_new_unit_stream():
    model = example3_problem().model
    for seed in (0, 1, 2):
        block = Experiment(model, seed=seed)
        single = Experiment(model, seed=seed)
        rows = block.select_rows(500)
        singles = [single.new_unit().peek_exogenous() for _ in range(500)]
        assert [dict(zip(model.exogenous_vars, block.support[i])) for i in rows] == singles
        # and the streams stay aligned past the block
        assert block.new_unit().peek_exogenous() == single.new_unit().peek_exogenous()


def test_point_mass_exogenous_always_same_unit():
    d = CausalDiagram(["X"], directed_edges=[])
    mech = {"X": Mechanism.tabulate((), ("U",), (), ((0, 1),), lambda u: u)}
    model = ScmModel(d, ("U",), {"U": (0, 1)}, {(0,): 1.0, (1,): 0.0}, mech)
    exp = Experiment(model, seed=1)
    assert all(exp.new_unit().read("X") == 0 for _ in range(50))

    # with no row of nonzero weight there is no unit to select
    empty = ScmModel(d, ("U",), {"U": (0, 1)}, {(0,): 0.0, (1,): 0.0}, mech)
    with pytest.raises(ModelError, match="no exogenous assignment has nonzero weight"):
        Experiment(empty, seed=1)
    with pytest.raises(ModelError, match="no exogenous assignment has nonzero weight"):
        sample_observational(empty, 5, seed=1)


def test_a_draw_past_the_rounded_total_selects_a_row_of_positive_weight(monkeypatch):
    # P(X=1) = 0, so the support ends in 16 rows of weight 0 (U_X = 1); the
    # cumulative weights of this table end at the largest double below 1,
    # so that draw passes every row
    rng = np.random.default_rng(0)
    for _ in range(3):
        table = rng.dirichlet(np.ones(16))
    model = CanonicalScm(tuple(float(p) for p in table), p_x1=0.0).to_model()
    exp = Experiment(model, seed=0)

    class LargestDraw:
        def random(self, k):
            return np.full(k, np.nextafter(1.0, 0.0))

    monkeypatch.setattr(exp, "_select_rng", LargestDraw())
    row = int(exp.select_rows(1)[0])
    assert exp.support[row] == (0, 9)  # the last row of positive weight
    assert model.exogenous_dist[exp.support[row]] > 0
    assert exp.unit_at(row).read("X") == 0


def test_selection_skips_the_rows_of_zero_weight():
    # units are selected from compile().rows by cumulative weights that
    # are normalized by the sum over every support row, zero weights
    # included; no draw, boundaries included, lands on a row of zero weight
    rng = np.random.default_rng(0)
    for _ in range(3):
        table = rng.dirichlet(np.ones(16))
    scms = [CanonicalScm(tuple(float(p) for p in table), p_x1=0.0)]
    rng = np.random.default_rng(41)
    for _ in range(30):
        table = rng.dirichlet(np.ones(16))
        table[rng.choice(16, size=int(rng.integers(1, 12)), replace=False)] = 0.0
        scms.append(CanonicalScm(tuple(float(p) for p in table / table.sum()),
                                 p_x1=float(rng.random())))
    for scm in scms:
        model = scm.to_model()
        probs = np.array([p for _, p in model.exogenous_support()])
        cumulative = model.selection_table()
        expected = np.cumsum(probs / probs.sum())[probs != 0]
        assert cumulative.tobytes() == expected.tobytes()
        draws = np.concatenate([
            [0.0, np.nextafter(1.0, 0.0)], cumulative, np.nextafter(cumulative, 0.0),
            np.random.default_rng(42).random(2_000),
        ])
        exp = Experiment(model, seed=0)

        class Draws:
            def random(self, k):
                assert k == len(draws)
                return draws

        exp._select_rng = Draws()
        picked = exp.select_rows(len(draws))
        assert all(model.exogenous_dist[exp.support[i]] > 0 for i in picked.tolist())


def test_skewed_exogenous_within_binomial_ci():
    d = CausalDiagram(["X"], directed_edges=[])
    mech = {"X": Mechanism.tabulate((), ("U",), (), ((0, 1),), lambda u: u)}
    model = ScmModel(d, ("U",), {"U": (0, 1)}, {(0,): 0.9, (1,): 0.1}, mech)
    exp = Experiment(model, seed=2)
    n = 20_000
    ones = sum(exp.new_unit().read("X") for _ in range(n))
    sigma = (n * 0.1 * 0.9) ** 0.5
    assert abs(ones - n * 0.1) < 3 * sigma


# ---------------------------------------------------------------------------
# Read / rand / ctf_rand semantics
# ---------------------------------------------------------------------------

def test_read_is_natural_and_cached():
    model = bow_model()
    exp = Experiment(model, seed=4)
    unit = exp.new_unit()
    u = unit.peek_exogenous()
    nat = natural_values(model, (u["U_XY"],))
    assert unit.read("X") == nat["X"]
    assert unit.read("Y") == nat["Y"]
    assert unit.read("X") == nat["X"]  # cached, no refire


def test_read_after_input_randomization_preserves_natural_decision():
    model = bow_model()
    exp = Experiment(model, seed=5)
    for _ in range(20):
        unit = exp.new_unit()
        u = unit.peek_exogenous()
        nat = natural_values(model, (u["U_XY"],))
        forced = unit.ctf_rand("X", ["Y"], 1)
        assert forced == 1
        assert unit.read("X") == nat["X"]
        assert unit.read("Y") == model.evaluate("Y", {"X": 1}, (u["U_XY"],))


def test_read_after_whole_variable_randomization_returns_assigned():
    model = bow_model()
    exp = Experiment(model, seed=6)
    unit = exp.new_unit()
    assigned = unit.rand("X", 1)
    assert assigned == 1
    assert unit.read("X") == 1


def test_rand_distribution_and_constant_device():
    model = bow_model()
    exp = Experiment(model, seed=7)
    n = 4000
    drawn = [exp.new_unit().rand("X") for _ in range(n)]
    ones = sum(drawn)
    sigma = (n * 0.25) ** 0.5
    assert abs(ones - n / 2) < 3 * sigma
    # a written value is the deterministic write
    assert all(exp.new_unit().rand("X", 0) == 0 for _ in range(10))


def test_second_rand_raises():
    exp = Experiment(bow_model(), seed=8)
    unit = exp.new_unit()
    unit.rand("X")
    with pytest.raises(FCEViolation):
        unit.rand("X")


def test_rand_after_read_raises():
    exp = Experiment(bow_model(), seed=9)
    unit = exp.new_unit()
    unit.read("X")
    with pytest.raises(FCEViolation):
        unit.rand("X")


def test_ctf_rand_on_fired_target_raises():
    exp = Experiment(bow_model(), seed=10)
    unit = exp.new_unit()
    unit.read("Y")
    with pytest.raises(FCEViolation):
        unit.ctf_rand("X", ["Y"])


def test_repeat_ctf_rand_same_targets_raises():
    exp = Experiment(fan_model(), seed=11)
    unit = exp.new_unit()
    unit.ctf_rand("X", ["Y"])
    with pytest.raises(FCEViolation):
        unit.ctf_rand("X", ["Y"])


def test_overlapping_non_nested_targets_raise():
    exp = Experiment(supersede_model(), seed=12)
    unit = exp.new_unit()
    unit.ctf_rand("X", ["Y", "Z"])
    with pytest.raises(ContainmentViolation):
        unit.ctf_rand("X", ["Z", "T"])


def test_ctf_rand_validations():
    exp = Experiment(fan_model(), seed=13)
    unit = exp.new_unit()
    with pytest.raises(ActionError):
        unit.ctf_rand("X", [])
    with pytest.raises(ActionError):
        unit.ctf_rand("X", ["Q"])
    restricted = Experiment(
        fan_model(),
        actions=ActionSet([select(), ctf_rand_action("X", ["Y"])]),
        seed=14,
    )
    unit = restricted.new_unit()
    with pytest.raises(ActionError):
        unit.ctf_rand("X", ["Z"])


def unit_with(model, u, seed=0):
    return Unit(model, u, np.random.default_rng(seed), None)


def test_triple_randomization_supersede_semantics():
    # whole-variable draw x, layered input draws x' over {Z,T,B} and x''
    # over {T,B}: Y sees x, Z sees x', T and B see x''
    model = supersede_model()
    for u in ((0,), (1,)):
        for x, xp, xpp in [(1, 0, 1), (0, 1, 0), (1, 1, 0)]:
            unit = unit_with(model, u)
            unit.rand("X", x)
            unit.ctf_rand("X", ["Z", "T", "B"], xp)
            unit.ctf_rand("X", ["T", "B"], xpp)
            assert unit.read("Y") == x
            assert unit.read("Z") == xp
            assert unit.read("T") == xpp
            assert unit.read("B") == xpp


def test_whole_children_ctf_rand_keeps_natural_readable():
    model = supersede_model()
    exp = Experiment(model, seed=15)
    for _ in range(10):
        unit = exp.new_unit()
        nat = unit.peek_exogenous()["U_X"]
        unit.ctf_rand("X", ["Y", "Z", "T", "B"], 1 - nat)
        assert unit.read("X") == nat
        assert unit.read("Y") == 1 - nat


def test_ctf_rand_leaves_non_target_children_natural():
    model = supersede_model()
    exp = Experiment(model, seed=16)
    unit = exp.new_unit()
    nat = unit.peek_exogenous()["U_X"]
    unit.ctf_rand("X", ["Y"], 1 - nat)
    assert unit.read("Z") == nat


def copy_model(domain):
    """X, natural value u, copied into its child Y; both take ``domain``."""
    d = CausalDiagram(
        ["X", "Y"],
        domains={"X": domain, "Y": domain},
        directed_edges=[("X", "Y")],
        allow_constant=["X", "Y"],
    )
    names, doms, dist = independent_exogenous({"U_X": domain})
    mech = {
        "X": Mechanism.tabulate((), ("U_X",), (), (domain,), lambda u: u),
        "Y": Mechanism.tabulate(("X",), (), (domain,), (), lambda x: x),
    }
    return ScmModel(d, names, doms, dist, mech)


def test_written_value_outside_the_domain_leaves_the_unit_untouched():
    model = bow_model()
    for u in ((0,), (1,)):
        nat = natural_values(model, u)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        unit = Unit(model, u, rng, None)
        with pytest.raises(ActionError, match="not in the domain"):
            unit.rand("X", 7)
        with pytest.raises(ActionError, match="not in the domain"):
            unit.ctf_rand("X", ["Y"], "1")
        assert rng.bit_generator.state == state
        assert unit.read("X") == nat["X"]
        assert unit.read("Y") == nat["Y"]
        unit = Unit(model, u, rng, None)
        with pytest.raises(ActionError):
            unit.ctf_rand("X", ["Y"], 7)
        with pytest.raises(ActionError):
            unit.rand("X", None)
        # neither failed call counts as performed
        assert unit.ctf_rand("X", ["Y"], 1 - nat["X"]) == 1 - nat["X"]
        assert unit.rand("X", nat["X"]) == nat["X"]
        assert unit.read("Y") == model.evaluate("Y", {"X": 1 - nat["X"]}, u)


def test_every_domain_value_can_be_written():
    # None and "draw" are values like any other, not a request for a draw
    domain = (None, "draw", 0)
    model = copy_model(domain)
    for u in domain:
        for value in domain:
            rng = np.random.default_rng(0)
            state = rng.bit_generator.state
            unit = Unit(model, (u,), rng, None)
            assert unit.ctf_rand("X", ["Y"], value) is value
            assert unit.read("Y") is value
            assert unit.read("X") is u
            unit = Unit(model, (u,), rng, None)
            assert unit.rand("X", value) is value
            assert unit.read("X") is value and unit.read("Y") is value
            assert rng.bit_generator.state == state


def test_one_value_domain_draws_nothing():
    model = copy_model(("only",))
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    assert Unit(model, ("only",), rng, None).rand("X") == "only"
    assert Unit(model, ("only",), rng, None).ctf_rand("X", ["Y"]) == "only"
    assert rng.bit_generator.state == state


def random_action_sequence_respects_fce(model, rng, n_sequences):
    """Fire random actions at fresh units, mirroring the lazy-firing rule
    independently (erasures and input overrides cut the upstream chain),
    and assert exactly the predicted calls raise."""
    variables = model.diagram.variables
    violations = 0
    for _ in range(n_sequences):
        exp = Experiment(model, seed=int(rng.integers(2**31)))
        unit = exp.new_unit()
        fired: set[str] = set()
        consumed: set[str] = set()  # whole-variable randomized
        ctf_done: set[tuple] = set()
        overrides: dict[str, list[frozenset]] = {}

        def mirror_fire(v):
            if v in fired or v in consumed:
                return
            for p in model.diagram.parents(v):
                covered = any(v in t for t in overrides.get(p, ()))
                if not covered:
                    mirror_fire(p)
            fired.add(v)

        for _ in range(int(rng.integers(2, 9))):
            kind = rng.integers(3)
            v = variables[int(rng.integers(len(variables)))]
            if kind == 0:
                value = unit.read(v)
                assert value in model.diagram.domains[v]
                mirror_fire(v)
            elif kind == 1:
                should_fail = v in fired or v in consumed
                try:
                    unit.rand(v)
                except FCEViolation:
                    assert should_fail
                    violations += 1
                else:
                    assert not should_fail
                    consumed.add(v)
            else:
                children = model.diagram.children(v)
                if not children:
                    continue
                k = int(rng.integers(1, len(children) + 1))
                targets = frozenset(
                    children[i]
                    for i in rng.choice(len(children), size=k, replace=False)
                )
                nested_ok = all(
                    not (t & targets) or t <= targets or targets <= t
                    for t in overrides.get(v, ())
                )
                should_fail = (
                    bool(targets & fired)
                    or bool(targets & consumed)
                    or ("ctf", v, targets) in ctf_done
                )
                try:
                    unit.ctf_rand(v, targets)
                except FCEViolation:
                    assert should_fail
                    violations += 1
                except ContainmentViolation:
                    assert not nested_ok
                else:
                    assert not should_fail and nested_ok
                    ctf_done.add(("ctf", v, targets))
                    overrides.setdefault(v, []).append(targets)
    return violations


def test_fce_property_random_action_sequences():
    violations = random_action_sequence_respects_fce(
        fan_model(), np.random.default_rng(17), 400
    )
    assert violations > 0  # the sequences do exercise the guard


# ---------------------------------------------------------------------------
# Plan execution and estimators
# ---------------------------------------------------------------------------

def test_execute_plan_matches_exact_distribution():
    model = bow_model()
    q = parse_query("P(Y[X=1], X)", model.diagram)
    plan = ctf_realize(q, model.diagram, maximal_action_set(model.diagram))
    batch = draw_plan_batch(plan, model, 20_000, seed=19)
    exact = exact_distribution(model, q)
    assert exact.total_variation(batch.empirical()) < 0.02
    assert batch.rejected_units > 0  # the required tag forces rejections


def test_plan_without_randomizations_never_rejects():
    model = bow_model()
    q = query(response("X"), response("Y"))
    plan = ctf_realize(q, model.diagram, maximal_action_set(model.diagram))
    batch = draw_plan_batch(plan, model, 500, seed=20)
    assert batch.rejected_units == 0


def test_execute_plan_rejection_cap(monkeypatch):
    model = bow_model()
    q = parse_query("P(Y[X=1], X)", model.diagram)
    plan = ctf_realize(q, model.diagram, maximal_action_set(model.diagram))
    exp = Experiment(model, seed=21)
    monkeypatch.setattr(simulate, "MAX_REJECTIONS", 1)
    with pytest.raises(EstimationError, match="acceptance probability"):
        for _ in range(64):  # some attempt will reject at least once
            execute_plan(plan, exp)


def fixture_plan(model, text):
    q = parse_query(text, model.diagram)
    return ctf_realize(q, model.diagram, maximal_action_set(model.diagram))


@pytest.mark.parametrize("model, text, n, batches", [
    (bow_model(), "P(Y[X=1], X)", 20_000, 1),
    # many small batches: units drawn past the n-th acceptance of a block
    # would add up to many standard deviations
    (fan_model(), "P(Y[X=1], Z[X=0], W[X=1])", 10, 200),
])
def test_rejected_units_follow_the_geometric_law(model, text, n, batches):
    # units drawn up to the n-th acceptance, less n: a sum of n geometric
    # counts with mean n(1-p)/p and variance n(1-p)/p^2
    plan = fixture_plan(model, text)
    p = plan.acceptance_probability()
    rejected = 0
    for b in range(batches):
        batch = draw_plan_batch(plan, model, n, seed=np.random.SeedSequence([28, b]))
        assert type(batch.rejected_units) is int
        rejected += batch.rejected_units
    total = n * batches
    sigma = (total * (1 - p)) ** 0.5 / p
    assert abs(rejected - total * (1 - p) / p) < 5 * sigma


def test_draw_plan_batch_rejection_cap(monkeypatch):
    model = bow_model()
    plan = fixture_plan(model, "P(Y[X=1], X)")
    monkeypatch.setattr(simulate, "MAX_REJECTIONS", 1)
    with pytest.raises(EstimationError, match="acceptance probability"):
        draw_plan_batch(plan, model, 64, seed=29)


def test_the_cap_reads_each_samples_run(monkeypatch):
    # at acceptance 1/8 a sample's run reaches 6 rejections with
    # probability (7/8)^6, about 0.45, so some sample of 2,000 has one
    model = fan_model()
    plan = fixture_plan(model, "P(Y[X=1], Z[X=0], W[X=1])")
    monkeypatch.setattr(simulate, "MAX_REJECTIONS", 6)
    with pytest.raises(EstimationError, match="acceptance probability"):
        draw_plan_batch(plan, model, 2_000, seed=30)
    monkeypatch.setattr(simulate, "MAX_REJECTIONS", 200)
    batch = draw_plan_batch(plan, model, 2_000, seed=30)
    assert len(batch) == 2_000
    exact = exact_distribution(model, plan.query)
    assert exact.total_variation(batch.empirical()) < 0.05


# runs of RUN_CELLS or more rejected units share one histogram cell
RUN_CELLS = 8
# samples per side of the law cross-check
LAW_SAMPLES = 6_000
# distance bounds of the cross-check, to the exact law and to the
# unit-at-a-time reference; each sits at least LAW_SIGMAS standard
# deviations above its expected distance. bow (p = 1/2): expected 0.019
# and 0.027, bounds 11.2 and 11.3 standard deviations above; fan (p =
# 1/8): expected 0.035 and 0.050, bounds 6.5 and 6.6 above
TV_EXACT, TV_REFERENCE, LAW_SIGMAS = 0.06, 0.085, 6
LAW_PLANS = ("bow", "fan")


def joint_law(model, plan, p):
    """The exact law of (row, min(run, RUN_CELLS)) for one sample: the
    plan's row law times the truncated Geometric(p) - 1 law of its run
    of rejected units, which is independent of the row."""
    runs = [(1 - p) ** k * p for k in range(RUN_CELLS)] + [(1 - p) ** RUN_CELLS]
    return {
        (row, k): q * w for row, q in plan_law(model, plan).items() for k, w in enumerate(runs)
    }


def histogram(pairs):
    out = {}
    for row, run in pairs:
        key = (row, min(run, RUN_CELLS))
        out[key] = out.get(key, 0) + 1 / LAW_SAMPLES
    return out


def tv_distance(a, b):
    return 0.5 * sum(abs(a.get(c, 0.0) - b.get(c, 0.0)) for c in set(a) | set(b))


def tv_spread(law, inv_n):
    """Normal approximation of the mean and standard deviation of the
    distance between ``law`` and a histogram whose cell with probability
    q has variance q (1 - q) inv_n: inv_n = 1/N for N samples, 1/N + 1/M
    for the difference of two histograms of N and M samples. A cell's
    |error| has mean sigma sqrt(2/pi) and variance sigma^2 (1 - 2/pi)."""
    sigmas = [(q * (1 - q) * inv_n) ** 0.5 for q in law.values()]
    mean = 0.5 * sum(sigmas) * (2 / np.pi) ** 0.5
    sd = 0.5 * (sum(s * s for s in sigmas) * (1 - 2 / np.pi)) ** 0.5
    return mean, sd


@pytest.mark.parametrize("name", LAW_PLANS)
def test_rows_and_rejection_runs_follow_the_exact_law(name):
    # each n = 1 batch is one sample: its row and its run of rejected units
    model = builtin_model(name)
    plan = fixture_plan(model, dict(FIXTURE_PLANS)[name])
    law = joint_law(model, plan, plan.acceptance_probability())
    for bound, inv_n in ((TV_EXACT, 1 / LAW_SAMPLES), (TV_REFERENCE, 2 / LAW_SAMPLES)):
        mean, sd = tv_spread(law, inv_n)
        assert bound >= mean + LAW_SIGMAS * sd, (bound, mean, sd)
    drawn = histogram(
        (batch.rows[0], batch.rejected_units)
        for batch in (
            draw_plan_batch(plan, model, 1, seed=np.random.SeedSequence([43, i]))
            for i in range(LAW_SAMPLES)
        )
    )
    experiment = Experiment(model, seed=44)
    reference = histogram(execute_plan(plan, experiment) for _ in range(LAW_SAMPLES))
    assert tv_distance(drawn, law) < TV_EXACT
    assert tv_distance(drawn, reference) < TV_REFERENCE


def test_block_executor_matches_unit_at_a_time_reference():
    model = fan_model()
    plan = fixture_plan(model, "P(Y[X=1], Z[X=0], W[X=1])")
    n = 4_000
    exp = Experiment(model, seed=31)
    reference = [execute_plan(plan, exp)[0] for _ in range(n)]
    batch = draw_plan_batch(plan, model, n, seed=32)
    cells = set(reference) | set(batch.rows)
    tv = 0.5 * sum(
        abs(reference.count(c) - batch.rows.count(c)) / n for c in cells
    )
    assert tv < 0.05


def plan_law(model, plan):
    """The plan's law as the executor evaluates it: each exogenous
    row on a Unit with the required values written, weights added in
    support order."""
    law = {}
    for u, p in model.exogenous_support():
        unit = Unit(model, u, np.random.default_rng(0))
        for action, value in plan.required_actions():
            perform(unit, action, value)
        row = tuple(unit.read(t.variable) for t in plan.query.terms)
        law[row] = law.get(row, 0.0) + p
    return law


def nested_randomization_plans():
    """(model, plan) for every realizable single term and a seeded share
    of the pairs, under nested input randomizations."""
    fan, sup = fan_model(), supersede_model()

    def actions(model, *extra):
        d = model.diagram
        return ActionSet([select(), *(read_action(v) for v in d.variables), *extra], d)

    chain = [ctf_rand_action("X", t) for t in (["Z"], ["Z", "W"], ["Y", "Z", "W"])]
    settings = [
        (fan, actions(fan, *chain)),
        (fan, actions(fan, *chain, rand_action("X"))),
        (sup, actions(sup, ctf_rand_action("X", ["Z", "T", "B"]),
                      ctf_rand_action("X", ["T", "B"]), rand_action("X"))),
    ]
    rng = random.Random(15)
    for model, acts in settings:
        checker = RealizabilityChecker(model.diagram, acts)
        terms = enumerate_terms(model.diagram)
        pairs = list(queries_of_size(terms, 2))
        for q in [*queries_of_size(terms, 1), *rng.sample(pairs, 400)]:
            plan = checker.realize(q)
            if plan:
                yield model, plan


@pytest.mark.filterwarnings("ignore:dropping irrelevant subscript")
def test_every_plan_law_equals_the_exact_distribution():
    # the unit must give each child the input of the smallest target set,
    # as the checker's covering table assumes
    plans = 0
    for model, plan in nested_randomization_plans():
        exact = exact_distribution(model, plan.query).as_dict()
        law = plan_law(model, plan)
        assert set(law) <= set(exact), plan.query
        assert all(law.get(c, 0.0) == p for c, p in exact.items()), plan.query
        plans += 1
    assert plans > 1000


# the seven plans of the sampling-fidelity criterion and the benchmark
FIXTURE_PLANS = (
    ("bow", "P(Y[X=1], X)"),
    ("chain", "P(Y[X=0], X)"),
    ("hub_split", "P(Z[X=0], W[T=0])"),
    ("fan", "P(Y[X=1], Z[X=0], W[X=1])"),
    ("collider_hub", "P(W[X=1,T=0])"),
    ("bandit_example", "P(Y[X=0], X, D[X=1])"),
    ("admissions", "P(Y[X=1], Z[X=0])"),
)


@pytest.mark.filterwarnings("ignore:dropping irrelevant subscript")
def test_executor_rows_equal_unit_reads():
    # the block executor reads a kept unit's row off the compiled model;
    # on every row of positive weight it must be, exactly, what a Unit
    # with the required values written reads
    fixtures = []
    for name, text in FIXTURE_PLANS:
        model = builtin_model(name)
        fixtures.append((model, fixture_plan(model, text)))
    plans = 0
    for model, plan in [*nested_randomization_plans(), *fixtures]:
        support = model.compile().rows
        regime = simulate.plan_regime(plan, model)
        rows = simulate._plan_rows(plan, model, regime, np.arange(len(support)))
        for u, row in zip(support, rows):
            unit = Unit(model, u, np.random.default_rng(0))
            for action, value in plan.required_actions():
                perform(unit, action, value)
            assert row == tuple(unit.read(t.variable) for t in plan.query.terms), plan.query
        plans += 1
    assert plans > 1000


def counting_units(monkeypatch):
    """The list that gets one entry per ``Unit`` built from now on."""
    built = []

    class CountingUnit(Unit):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(simulate, "Unit", CountingUnit)
    return built


@pytest.mark.parametrize("name", ["fan", "bandit_example"])
@pytest.mark.parametrize("n", [1, 5_000])
def test_a_batch_builds_no_unit(monkeypatch, name, n):
    # plan_regime checks the plan; kept rows come off the compiled model
    built = counting_units(monkeypatch)
    model = builtin_model(name)
    plan = fixture_plan(model, dict(FIXTURE_PLANS)[name])
    batch = draw_plan_batch(plan, model, n, seed=37)
    assert len(batch) == n
    assert built == []


@pytest.mark.parametrize("tags, terms, error, text", [
    ([rand_action("X"), rand_action("X")], ["Y"], FCEViolation,
     "mechanism for 'X' already erased; a unit undergoes each mechanism at most once"),
    ([ctf_rand_action("X", ["Y"]), ctf_rand_action("X", ["Y"])], ["Y"], FCEViolation,
     "input randomization of 'X' toward ['Y'] was already performed on this unit"),
    ([rand_action("Y"), ctf_rand_action("X", ["Y"])], ["Y"], FCEViolation,
     "mechanism for 'Y' is already erased; it cannot receive a new input for 'X'"),
    ([ctf_rand_action("X", ["Q"])], ["Y"], ActionError,
     "targets ['Q'] are not children of 'X'"),
    ([ctf_rand_action("X", ["Y", "Z"]), ctf_rand_action("X", ["Z", "W"])], ["Z"],
     ContainmentViolation,
     "targets ['W', 'Z'] overlap existing randomization ['Y', 'Z'] of 'X' without nesting"),
    ([ctf_rand_action("X", ["Y"])], ["Y", "Q"], ActionError, "unknown variable 'Q'"),
], ids=["rand-twice", "ctf-rand-twice", "into-erased", "not-a-child", "overlap",
        "unknown-term"])
def test_the_executor_refuses_a_plan_no_unit_could_perform(monkeypatch, tags, terms,
                                                          error, text):
    built = counting_units(monkeypatch)
    model = fan_model()
    plan = RealizationPlan(query(*(response(v) for v in terms)), model.diagram,
                           tuple((action, 1) for action in tags))
    with pytest.raises(error, match=f"^{re.escape(text)}$") as raised:
        draw_plan_batch(plan, model, 10, seed=46)
    assert raised.type is error
    assert built == []


@pytest.mark.parametrize("name", ["fan", "bandit_example"])
@pytest.mark.parametrize("n", [1, 5_000])
def test_a_batch_selects_only_its_kept_units(monkeypatch, name, n):
    # n rows in one selection, one geometric draw for the rejection runs,
    # and no device draw for any unit
    calls = []

    class CountingRng:
        def __init__(self, rng):
            self._rng = rng

        def __getattr__(self, attr):
            calls.append(attr)
            return getattr(self._rng, attr)

    class CountingExperiment(Experiment):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._shared_rng = CountingRng(self._shared_rng)

        def select_rows(self, k):
            calls.append(("select_rows", k))
            return super().select_rows(k)

    model = builtin_model(name)
    plan = fixture_plan(model, dict(FIXTURE_PLANS)[name])
    monkeypatch.setattr(simulate, "Experiment", CountingExperiment)
    batch = draw_plan_batch(plan, model, n, seed=45)
    assert len(batch) == n
    assert calls == [("select_rows", n), "geometric"]


def random_plan(model, rng):
    """A plan of 1-5 Rand / CtfRand tags with values in their domains on
    known variables; some tags repeat, target non-children, overlap
    without nesting or follow a Rand of a target, and some plans read a
    variable the diagram lacks."""
    d = model.diagram
    names = d.variables
    tags = []
    for _ in range(rng.randint(1, 5)):
        if rng.random() < 0.35:
            x = rng.choice(names)
            action = rand_action(x)
        else:
            x = "X" if rng.random() < 0.9 else rng.choice(names)
            pool = list(d.children(x))
            if not pool or rng.random() < 0.1:
                pool.append(rng.choice([v for v in names if v not in pool]))
            action = ctf_rand_action(x, rng.sample(pool, rng.randint(1, len(pool))))
        tags.append((action, rng.choice(d.domains[x])))
    terms = rng.sample([*names, "Q"] if rng.random() < 0.1 else names, rng.randint(1, 3))
    return RealizationPlan(query(*(response(v) for v in terms)), d, tuple(tags))


def unit_refusal(model, plan):
    """The (class, text) of what a ``Unit`` raises when it performs the
    plan's actions in order and then reads the terms, or None."""
    unit = Unit(model, model.compile().rows[0], np.random.default_rng(0))
    try:
        for action, value in plan.required_actions():
            perform(unit, action, value)
        for t in plan.query.terms:
            unit.read(t.variable)
    except CtfRealizeError as e:
        return type(e), str(e)
    return None


def unit_row(model, plan, u):
    """What a unit with exogenous row ``u`` reads after performing the
    plan's actions, with their required values written, in order."""
    unit = Unit(model, u, np.random.default_rng(0))
    for action, value in plan.required_actions():
        perform(unit, action, value)
    return tuple(unit.read(t.variable) for t in plan.query.terms)


def test_the_plan_check_agrees_with_the_unit():
    # plan_regime refuses exactly what a Unit performing the plan refuses,
    # with its class and text, and a plan it passes reads the Unit's rows
    rng = random.Random(29)
    faults = dict.fromkeys(
        ["already erased; a unit", "was already performed", "are not children",
         "without nesting", "cannot receive a new input", "unknown variable"], 0)
    for i in range(2_400):
        model = (fan_model, supersede_model)[i % 2]()
        plan = random_plan(model, rng)
        want = unit_refusal(model, plan)
        try:
            draw_plan_batch(plan, model, 1, seed=i)
        except CtfRealizeError as e:
            assert (type(e), str(e)) == want, plan.tags
            faults.update({k: faults[k] + 1 for k in faults if k in str(e)})
            continue
        assert want is None, plan.tags
        rows = model.compile().rows
        regime = simulate.plan_regime(plan, model)
        got = simulate._plan_rows(plan, model, regime, np.arange(len(rows)))
        assert got == [unit_row(model, plan, u) for u in rows], plan.tags
    assert min(faults.values()) >= 20, faults


def test_a_reweighted_model_samples_as_one_built_with_its_weights():
    # a reweighted model is a copy of its base's attributes; its selection
    # table must come from its own weights, also after the base sampled
    base = fairness._BASE
    plan = fixture_plan(base, "P(Y[X=1], Z[X=0])")
    draw_plan_batch(plan, base, 100, seed=38)
    zeros = [0.0 if t % 3 == 0 else 1.0 for t in range(16)]
    tables = [
        fairness.example2_scm(),
        CanonicalScm(tuple(w / sum(zeros) for w in zeros), p_x1=0.3),
    ]
    for scm in tables:
        reweighted = scm.to_model()
        built = ScmModel(base.diagram, base.exogenous_vars, base.exogenous_domains,
                         reweighted.exogenous_dist, base.mechanisms)
        for seed in (39, 40):
            a = draw_plan_batch(plan, reweighted, 3_000, seed=seed)
            b = draw_plan_batch(plan, built, 3_000, seed=seed)
            assert (a.rows, a.rejected_units) == (b.rows, b.rejected_units)
            rows = Experiment(reweighted, seed=seed).select_rows(3_000)
            assert np.array_equal(rows, Experiment(built, seed=seed).select_rows(3_000))


@pytest.mark.parametrize("n", [2.5, 2.0, True, "3", None])
def test_a_sample_count_must_be_an_integer(n):
    model = bow_model()
    plan = fixture_plan(model, "P(Y[X=1], X)")
    message = f"n must be an integer, got {n!r}"
    with pytest.raises(EstimationError, match=f"^{re.escape(message)}$"):
        draw_plan_batch(plan, model, n, seed=41)
    with pytest.raises(EstimationError, match=f"^{re.escape(message)}$"):
        sample_observational(model, n, seed=41)
    with pytest.raises(EstimationError, match=f"^{re.escape(message)}$"):
        sample_interventional(model, {"X": 1}, n, seed=41)


def seeded_calls(seed):
    """Every public call that draws from a seed, each with that seed."""
    model = bow_model()
    plan = fixture_plan(model, "P(Y[X=1], X)")
    return {
        "Experiment": lambda: Experiment(model, seed=seed),
        "draw_plan_batch": lambda: draw_plan_batch(plan, model, 5, seed=seed),
        "sample_interventional": lambda: sample_interventional(model, {"X": 1}, 5, seed=seed),
        "run_epochs": lambda: run_epochs("ts", example3_problem(), 5, 1, seed),
        "sample_constrained_scms": lambda: fairness.sample_constrained_scms(
            fairness.L3_PENALTY, 1, 0.5, seed=seed
        ),
        "mu_ctf": lambda: fairness.mu_ctf(fairness.example2_scm(), exact=False, n=10, seed=seed),
    }


@pytest.mark.parametrize("seed", [-1, np.int64(-2), 1.5, np.float64(2.0), True, "3", [1, 2]])
def test_a_seed_numpy_would_refuse_is_an_estimation_error(seed):
    text = f"seed must be None, a non-negative integer or a SeedSequence, got {seed!r}"
    for name, call in seeded_calls(seed).items():
        with pytest.raises(EstimationError) as raised:
            call()
        assert str(raised.value) == text, name
    # the exact metric draws nothing, so it reads no seed
    assert fairness.mu_ctf(fairness.example2_scm(), seed=seed).exact


@pytest.mark.parametrize("seed", [None, 0, np.int64(3), 2**70, np.random.SeedSequence(5)])
def test_a_seed_numpy_takes_is_taken(seed):
    for call in seeded_calls(seed).values():
        call()


def test_a_count_below_one_gives_an_empty_batch():
    model = bow_model()
    plan = fixture_plan(model, "P(Y[X=1], X)")
    for n in (0, -3, np.int64(0)):
        assert draw_plan_batch(plan, model, n, seed=42).rows == []
        assert sample_observational(model, n, seed=42).rows == []
        assert sample_interventional(model, {"X": 1}, n, seed=42).rows == []
    assert len(draw_plan_batch(plan, model, np.int64(3), seed=42)) == 3


def test_batch_rows_are_tuples_of_domain_values():
    model = fan_model()
    plan = fixture_plan(model, "P(Y[X=1], Z[X=0], W[X=1])")
    batches = [
        draw_plan_batch(plan, model, 50, seed=33),
        sample_observational(model, 50, seed=34),
        sample_interventional(model, {"X": 0}, 50, seed=35, outcome=["Y", "W"]),
    ]
    for batch in batches:
        for row in batch.rows:
            assert type(row) is tuple
            assert all(type(v) is int for v in row)


# sha256 of repr((query, rows, rejected_units)) of each batch. The
# observational entries were computed at commit 381ed60, where
# observational and interventional batches each called the rejection
# executor with their own arguments rather than a plan. The
# interventional entries moved in the child of dd80c93, when the executor
# began selecting only the kept units and drawing each sample's run of
# rejected units from one geometric draw: the same law, a new stream. A
# plan with acceptance 1, as every observational one, keeps its stream.
SAMPLER_STREAM_DIGESTS = {
    ("obs", "bow"):
        "80540844c6d7d95cd223c89d77892b1a6c599d38ae638dcb8717e21667d2fdad",
    ("obs", "fan"):
        "86a6611fe0a0e2aa69bffaa6a1c3ff304da2af0843a497c0865e0f41cfc1109d",
    ("obs", "hub_split"):
        "34493d27ca4a3e64a7aad65f3f565f15f01edaf4cb7d2c3798d35f540d27d1dd",
    ("int", "bow"):
        "d6acdaa669c1db0c394cd895e77eeb978679f9d6ec9a2d548a2620efe82838d3",
    ("int", "fan"):
        "91e2ee2974469e9fffe49677ffe78db81970377c9362aee88a8289e55fd896a8",
    ("int", "hub_split"):
        "1e0ee624ee1d21dc3224ab570b225b8e2f7431a1a602b33fafadad1819d6e62b",
}


def sampler_streams():
    models = {"bow": bow_model(), "fan": fan_model(), "hub_split": hub_split_model()}
    do = {"bow": {"X": 1}, "fan": {"X": 0}, "hub_split": {"T": 1, "X": 0}}
    for i, (name, model) in enumerate(models.items()):
        yield ("obs", name), sample_observational(model, 2_000, seed=40 + i)
        yield ("int", name), sample_interventional(model, do[name], 2_000, seed=50 + i)


def test_observational_and_interventional_streams_are_pinned():
    for key, batch in sampler_streams():
        text = repr((batch.query, batch.rows, batch.rejected_units))
        assert hashlib.sha256(text.encode()).hexdigest() == SAMPLER_STREAM_DIGESTS[key], key


def test_interventional_value_outside_the_domain_fails_at_once(monkeypatch):
    # the sampler refuses the value with the exact law's QueryError, before
    # any plan is built
    model = bow_model()
    monkeypatch.setattr(simulate, "RealizationPlan", lambda *args: pytest.fail("planned"))
    for do, outcome in (({"X": 7}, ["Y"]), ({"X": 7}, None), ({"X": "1"}, ["Y"])):
        text = f"value {do['X']!r} outside domain of 'X'"
        for call in (
            lambda: sample_interventional(model, do, 10, seed=36, outcome=outcome),
            lambda: interventional_distribution(model, outcome or ["Y"], do),
        ):
            with pytest.raises(QueryError) as raised:
                call()
            assert type(raised.value) is QueryError and str(raised.value) == text


def test_interventional_unknown_variable_is_a_query_error():
    with pytest.raises(QueryError, match="unknown regime variable 'Q'"):
        sample_interventional(bow_model(), {"Q": 1}, 10, seed=1)
    with pytest.raises(QueryError, match="unknown regime variable 'Q'"):
        sample_interventional(bow_model(), {"X": 1, "Q": 1}, 10, seed=1, outcome=["Y"])
    with pytest.raises(QueryError, match="unknown outcome variable 'Q'"):
        sample_interventional(bow_model(), {"X": 1}, 10, seed=1, outcome=["Q"])


def test_an_empty_interventional_outcome_is_a_query_error():
    # only None means "every variable outside the regime"
    with pytest.raises(QueryError, match="at least one outcome variable"):
        sample_interventional(bow_model(), {"X": 1}, 10, seed=1, outcome=())
    with pytest.raises(QueryError, match="at least one outcome variable"):
        sample_interventional(bow_model(), {"X": 1}, 10, seed=1, outcome=[])


def test_a_do_that_fixes_every_variable_leaves_no_default_outcome(monkeypatch):
    # the default outcome is empty, so the call is refused as an explicit
    # empty outcome is, before any plan is drawn
    monkeypatch.setattr(simulate, "draw_plan_batch", lambda *args: pytest.fail("drew"))
    with pytest.raises(QueryError, match="^an interventional sample needs at least one "
                       "outcome variable$"):
        sample_interventional(bow_model(), {"X": 1, "Y": 0}, 5, seed=1)


def test_a_unit_keeps_to_its_action_set():
    # with an action set, selecting and reading need Select and Read(v),
    # as rand and ctf_rand need theirs; without one, nothing is checked
    model = fan_model()
    no_select = Experiment(model, actions=ActionSet([ctf_rand_action("X", ["Y"])]), seed=3)
    with pytest.raises(ActionError, match="^Select is not in the feasible action set$"):
        no_select.new_unit()
    reads_x = ActionSet([select(), read_action("X"), ctf_rand_action("X", ["Y"])])
    unit = Experiment(model, actions=reads_x, seed=3).new_unit()
    assert unit.read("X") in (0, 1)
    unit.ctf_rand("X", ["Y"])
    with pytest.raises(ActionError, match=r"^Read\(Y\) is not in the feasible action set$"):
        unit.read("Y")
    free = Experiment(model, seed=3).new_unit()
    assert all(free.read(v) in (0, 1) for v in model.diagram.variables)


@pytest.mark.parametrize("act", [
    lambda unit: unit.read("Q"),
    lambda unit: unit.rand("Q"),
    lambda unit: unit.ctf_rand("Q", ["X"]),
], ids=["read", "rand", "ctf_rand"])
def test_a_unit_refuses_an_unknown_variable(act):
    unit = Experiment(bow_model(), seed=3).new_unit()
    with pytest.raises(ActionError, match="^unknown variable 'Q'$"):
        act(unit)


def test_estimate_trivial_and_errors():
    model = bow_model()
    q = query(response("X"), response("Y"))
    plan = ctf_realize(q, model.diagram, maximal_action_set(model.diagram))
    batch = draw_plan_batch(plan, model, 50, seed=22)
    row = batch.rows[0]
    batch.rows = [row] * 50
    assert estimate(batch, row) == 1.0
    other = (1 - row[0], row[1])
    assert estimate(batch, other) == 0.0
    assert estimate(batch, (None, row[1])) == 1.0
    batch.rows = []
    with pytest.raises(EstimationError):
        estimate(batch, row)
    with pytest.raises(EstimationError):
        batch.rows = [row]
        estimate(batch, row + (0,))


def test_observational_estimator_concentrates():
    model = hub_split_model()
    batch = sample_observational(model, 20_000, seed=23)
    exact = exact_distribution(
        model, query(*[response(v) for v in model.diagram.variables])
    )
    for event, p in exact.as_dict().items():
        if p == 0:
            continue
        assert estimate(batch, event) == pytest.approx(p, abs=0.02)


def test_interventional_estimator_concentrates():
    model = bow_model()
    batch = sample_interventional(model, {"X": 1}, 20_000, seed=24, outcome=["Y"])
    exact = interventional_distribution(model, ["Y"], {"X": 1})
    for event, p in exact.as_dict().items():
        assert estimate(batch, event) == pytest.approx(p, abs=0.02)


def test_interventional_default_outcome_leaves_out_the_regime():
    model = bow_model()
    small = sample_interventional(model, {"X": 1}, 10, seed=1)
    assert [t.variable for t in small.query.terms] == ["Y"]
    assert len(small) == 10
    batch = sample_interventional(model, {"X": 1}, 20_000, seed=24)
    exact = interventional_distribution(model, ["Y"], {"X": 1})
    assert exact.total_variation(batch.empirical()) < 0.02


def test_agent_exogeneity_over_all_drawn_units():
    # units drawn during rejection sampling remain population-distributed
    model = bow_model()
    q = parse_query("P(Y[X=1], X)", model.diagram)
    plan = ctf_realize(q, model.diagram, maximal_action_set(model.diagram))

    class CountingExperiment(Experiment):
        def __init__(self, *a, **k):
            super().__init__(*a, **k)
            self.seen = []

        def new_unit(self):
            unit = super().new_unit()
            self.seen.append(unit.peek_exogenous()["U_XY"])
            return unit

    exp = CountingExperiment(model, seed=25)
    for _ in range(8_000):
        execute_plan(plan, exp)
    n = len(exp.seen)
    weights = dict(model.exogenous_support())
    for value, p in [((k[0]), v) for k, v in weights.items()]:
        c = exp.seen.count(value)
        sigma = (n * p * (1 - p)) ** 0.5
        assert abs(c - n * p) < 4 * sigma


def test_do_sigma_equivalence():
    # conditioning whole-variable-randomized samples on the drawn value
    # reproduces the atomic intervention
    model = bow_model()
    exp = Experiment(model, seed=26)
    kept = []
    for _ in range(20_000):
        unit = exp.new_unit()
        if unit.rand("X") == 1:
            kept.append((unit.read("Y"),))
    exact = interventional_distribution(model, ["Y"], {"X": 1}).as_dict()
    n = len(kept)
    for event, p in exact.items():
        freq = sum(1 for r in kept if r == event) / n
        assert freq == pytest.approx(p, abs=0.02)


def test_required_value_outside_the_domain_cannot_be_drawn():
    model = bow_model()
    plan = fixture_plan(model, "P(Y[X=1], X)")
    ((action, _),) = plan.tags
    bad = RealizationPlan(plan.query, plan.diagram, ((action, 7),))
    exp = Experiment(model, seed=27)
    with pytest.raises(EstimationError, match="cannot draw"):
        execute_plan(bad, exp)
    # checked before the first unit: the selection stream is untouched
    assert np.array_equal(exp.select_rows(50), Experiment(model, seed=27).select_rows(50))
    with pytest.raises(EstimationError, match="cannot draw"):
        draw_plan_batch(bad, model, 10, seed=27)


def test_a_plan_is_refused_before_its_unit_runs(monkeypatch):
    # plan_regime checks kinds, variables and values first: an undrawable
    # value, a non-randomizing action and an unknown variable raise, and
    # no unit is built
    built = []

    class CountingUnit(Unit):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(simulate, "Unit", CountingUnit)
    model = bow_model()
    plan = fixture_plan(model, "P(Y[X=1], X)")
    ((action, _),) = plan.tags
    for tags, error, text in (
        (((action, 7),), EstimationError, "cannot draw required value 7"),
        (((read_action("X"), 1),), ActionError, "plan contains non-randomizing"),
        (((select(), 1),), ActionError, "^plan contains non-randomizing Select$"),
        (((rand_action("Q"), 1),), ActionError, "^unknown variable 'Q'$"),
    ):
        with pytest.raises(error, match=text):
            draw_plan_batch(RealizationPlan(plan.query, plan.diagram, tags), model, 10, seed=27)
    assert built == []
