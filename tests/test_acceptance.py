"""Acceptance suite: one test per exit criterion, each printing a
verdict line (run with ``pytest tests/test_acceptance.py -v -s``).

The heavyweight criteria (exhaustive small-graph equivalence, the full
bandit reproduction) build their artifacts once per session.
"""

import itertools
import time
import warnings
import zlib

import numpy as np
import pytest

from ctfrealize import (
    RealizabilityChecker,
    RealizationPlan,
    ctf_realize,
    draw_plan_batch,
    estimate,
    exact_distribution,
    interventional_distribution,
    maximal_action_set,
    nde,
    parse_query,
    query,
    rand_action,
    read_action,
    realizable_by_criterion,
    response,
    sample_interventional,
    sample_observational,
    select,
)
from ctfrealize.realizability import (
    ActionSet,
    NATURAL_CONFLICT_CTF,
    OUTPUT_ERASED,
    VALUE_CONFLICT_CTF,
    ctf_rand_action,
)
from ctfrealize import bandits as bd
from ctfrealize import fairness as fr
from ctfrealize.fixtures import (
    bow_diagram,
    bow_model,
    chain_model,
    collider_hub_diagram,
    collider_hub_model,
    fan_diagram,
    fan_model,
    hub_conflict_diagram,
    hub_conflict_model,
    hub_split_diagram,
    hub_split_model,
    mediation_model,
)

from enumeration import enumerate_mixed_graphs, enumerate_terms
from reference import (
    brute_force_optimal,
    expanded_mediator_model,
    potential_response,
    verify_counterfactual_mediator,
)
from test_engine import nde_oracle
from test_simulate import (
    random_action_sequence_respects_fce,
    supersede_model,
    unit_with,
)


def report(criterion: int, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion:02d}: PASS — {detail}")


# ---------------------------------------------------------------------------
# 1. Algorithm-criterion equivalence on all small graphs
# ---------------------------------------------------------------------------

def _pair_conflict_from_ancestors(anc_a, anc_b) -> bool:
    for a in anc_a:
        for b in anc_b:
            if a.variable == b.variable and not a.same_response(b):
                return True
    return False


def test_criterion_01_algorithm_criterion_equivalence():
    t0 = time.perf_counter()
    graphs = queries_1 = queries_2 = queries_3 = 0
    rng = np.random.default_rng(20240106)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for diagram in enumerate_mixed_graphs(4):
            graphs += 1
            actions = maximal_action_set(diagram)
            checker = RealizabilityChecker(diagram, actions)
            terms = enumerate_terms(diagram)
            n = len(terms)
            anc = [
                __import__("ctfrealize").counterfactual_ancestors(
                    query(t), diagram
                )
                for t in terms
            ]
            # single terms: always realizable under the maximal set, and
            # single ancestor sets never repeat a variable
            for i, t in enumerate(terms):
                queries_1 += 1
                assert checker.realize(query(t)), (diagram, t)
                seen = {}
                for a in anc[i]:
                    assert a.variable not in seen
                    seen[a.variable] = a
            # every pair through both production routes
            algo_ok = np.zeros((n, n), dtype=bool)
            crit_ok = np.zeros((n, n), dtype=bool)
            for i in range(n):
                for j in range(i + 1, n):
                    queries_2 += 1
                    q = query(terms[i], terms[j])
                    a = bool(checker.realize(q))
                    c = not _pair_conflict_from_ancestors(anc[i], anc[j])
                    assert a == c, (diagram, q)
                    algo_ok[i, j] = a
                    crit_ok[i, j] = c
            assert (algo_ok == crit_ok).all()
            # triples decompose over pairs on both routes; validate the
            # decomposition itself against the full procedures on a
            # seeded sample, then rely on the (equal) pair matrices
            if n >= 3:
                for _ in range(40):
                    i, j, k = sorted(rng.choice(n, size=3, replace=False))
                    queries_3 += 1
                    q = query(terms[i], terms[j], terms[k])
                    expected = bool(
                        algo_ok[i, j] and algo_ok[i, k] and algo_ok[j, k]
                    )
                    assert bool(checker.realize(q)) == expected, (diagram, q)
                    assert realizable_by_criterion(q, diagram)[0] == expected
    elapsed = time.perf_counter() - t0
    assert elapsed < 300, f"equivalence sweep took {elapsed:.0f}s"
    report(
        1,
        f"{graphs} graph classes, {queries_1} single, {queries_2} pair, "
        f"{queries_3} sampled triple queries, zero disagreements "
        f"({elapsed:.0f}s)",
    )


# ---------------------------------------------------------------------------
# 2. Worked-example golden verdicts
# ---------------------------------------------------------------------------

def test_criterion_02_worked_examples():
    bow = bow_diagram()
    fan = fan_diagram()
    reads = lambda d: [select(), *(read_action(v) for v in d.variables)]  # noqa: E731
    fan_coarse = ActionSet(
        reads(fan) + [rand_action("X"), ctf_rand_action("X", ["Z", "W"])], fan
    )
    fan_fine = fan_coarse.union(ActionSet([ctf_rand_action("X", ["Z"])]))
    g1, g2, ch = hub_conflict_diagram(), hub_split_diagram(), collider_hub_diagram()
    cases = [
        ("bow ETT", bow, "P(Y[X=1], X)", maximal_action_set(bow), True, None),
        ("bow sufficiency", bow, "P(Y[X=1], X, Y)", maximal_action_set(bow),
         False, NATURAL_CONFLICT_CTF),
        ("hub conflict", g1, "P(Z[X=0], W[T=0])", maximal_action_set(g1),
         False, VALUE_CONFLICT_CTF),
        ("hub split", g2, "P(Z[X=0], W[T=0])", maximal_action_set(g2), True, None),
        ("fan coarse", fan, "P(Y[X=1], Z[X=0], W[X=1])", fan_coarse,
         False, VALUE_CONFLICT_CTF),
        ("fan fine", fan, "P(Y[X=1], Z[X=0], W[X=1])", fan_fine, True, None),
        ("bow ETT, whole-variable only", bow, "P(Y[X=1], X)",
         ActionSet(reads(bow) + [rand_action("X")], bow), False, OUTPUT_ERASED),
        ("collider hub", ch, "P(W[X=1,T=0], Z[X=0])", maximal_action_set(ch),
         False, VALUE_CONFLICT_CTF),
    ]
    for name, diagram, text, actions, realizable, failure in cases:
        verdict = ctf_realize(parse_query(text, diagram), diagram, actions)
        assert bool(verdict) == realizable, name
        if not realizable:
            assert verdict.conflict.failure == failure, name
    # witnesses called out in the write-ups
    v = ctf_realize(parse_query("P(Z[X=0], W[T=0])", g1), g1, maximal_action_set(g1))
    assert sorted(str(t) for t in v.criterion_pair) == ["A", "A[T=0]"]
    report(2, f"{len(cases)} golden verdicts with matching failure classes")


# ---------------------------------------------------------------------------
# 3. Sampling fidelity of executed plans
# ---------------------------------------------------------------------------

FIDELITY_CASES = [
    ("bow", bow_model, "P(Y[X=1], X)"),
    ("chain", chain_model, "P(Y[X=0], X)"),
    ("hub_split", hub_split_model, "P(Z[X=0], W[T=0])"),
    ("fan", fan_model, "P(Y[X=1], Z[X=0], W[X=1])"),
    ("collider_hub", collider_hub_model, "P(W[X=1,T=0])"),
    ("bandit_example", lambda: bd.example3_problem().model, "P(Y[X=0], X, D[X=1])"),
    ("admissions", lambda: fr.example2_scm().to_model(), "P(Y[X=1], Z[X=0])"),
]


def test_criterion_03_sampling_fidelity():
    n = 100_000
    worst = 0.0
    for name, build, text in FIDELITY_CASES:
        model = build()
        q = parse_query(text, model.diagram)
        plan = ctf_realize(q, model.diagram, maximal_action_set(model.diagram))
        assert isinstance(plan, RealizationPlan), name
        batch = draw_plan_batch(plan, model, n, seed=zlib.crc32(name.encode()))
        tv = exact_distribution(model, q).total_variation(batch.empirical())
        assert tv < 0.02, (name, tv)
        worst = max(worst, tv)
    report(3, f"{len(FIDELITY_CASES)} plans at N=1e5, worst TV {worst:.4f} < 0.02")


# ---------------------------------------------------------------------------
# 4. Single-use enforcement under random action sequences
# ---------------------------------------------------------------------------

def test_criterion_04_fce_property():
    rng = np.random.default_rng(77)
    total = 0
    for model in (fan_model(), hub_conflict_model(), supersede_model()):
        total += random_action_sequence_respects_fce(model, rng, 3400)
    report(4, f"10200 random action sequences, {total} double-use attempts "
              "all raised, zero silent refires")


# ---------------------------------------------------------------------------
# 5. Layered-randomization semantics
# ---------------------------------------------------------------------------

def test_criterion_05_supersede_semantics():
    model = supersede_model()
    checked = 0
    for u in ((0,), (1,)):
        for x, xp, xpp in itertools.product((0, 1), repeat=3):
            unit = unit_with(model, u)
            unit.rand("X", x)
            unit.ctf_rand("X", ["Z", "T", "B"], xp)
            unit.ctf_rand("X", ["T", "B"], xpp)
            assert unit.read("Y") == x
            assert unit.read("Z") == xp
            assert unit.read("T") == xpp
            assert unit.read("B") == xpp
            checked += 1
    report(5, f"triple randomization exact on all {checked} (unit, draw) combos")


# ---------------------------------------------------------------------------
# 6. Mediator forcing equivalence
# ---------------------------------------------------------------------------

def test_criterion_06_mediator_lemma():
    model = expanded_mediator_model()
    pairs = [("W1", "X", "Z"), ("W1", "X", "W2"), ("W2", "W1", "T"), ("W2", "W1", "B")]
    for w, x, y in pairs:
        assert verify_counterfactual_mediator(model, w, x, y), (w, x, y)
    # the chained copy also mediates the root decision for every unit
    checked = 0
    for u, _ in model.exogenous_support():
        for x in (0, 1):
            for target in ("Z", "T", "B"):
                via_w = potential_response(
                    model, u, response(target, {("W1" if target == "Z" else "W2"): x})
                )
                via_x = potential_response(model, u, response(target, {"X": x}))
                assert via_w == via_x, (u, x, target)
                checked += 1
    report(6, f"forcing equivalence exact for {len(pairs)} mediator relations "
              f"and {checked} per-unit checks")


# ---------------------------------------------------------------------------
# 7 & 8. Bandit exact values and online reproduction
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def bandit_problem():
    return bd.example3_problem()


@pytest.fixture(scope="session")
def bandit_tables(bandit_problem):
    return bd.ExactTables(bandit_problem)


@pytest.fixture(scope="session")
def bandit_runs(bandit_problem, bandit_tables):
    runs = {}
    for algo in ("ts-opt", "ts-ett", "ts", "ts-aug"):
        runs[algo] = bd.run_epochs(
            algo, bandit_problem, 2000, 200, seed=20240106, tables=bandit_tables
        )
    return runs


def test_criterion_07_exact_strategy_values(bandit_problem, bandit_tables):
    values = {}
    for name, form in bd.TIERS.items():
        bd.check_strategy_realizable(bandit_problem, form)
        values[name] = bd.evaluate_strategy_exact(
            bandit_problem, bd.best_strategy(bandit_problem, form, bandit_tables),
            bandit_tables,
        )
    assert values["obs"] == pytest.approx(0.65, abs=1e-12)
    assert values["int"] == pytest.approx(0.70, abs=1e-12)
    assert values["ett"] == pytest.approx(0.75, abs=1e-12)
    assert values["opt"] == pytest.approx(0.80, abs=1e-12)
    _, best = brute_force_optimal(bandit_problem, bandit_tables)
    assert best == pytest.approx(0.80, abs=1e-12)
    report(7, "tier values 0.65 / 0.70 / 0.75 / 0.80 exact to 1e-12; "
              "normal-form maximum 0.80")


def test_criterion_08_bandit_reproduction(bandit_runs):
    t0 = time.time()
    opt, ett, std, aug = (
        bandit_runs["ts-opt"], bandit_runs["ts-ett"],
        bandit_runs["ts"], bandit_runs["ts-aug"],
    )
    assert opt.terminal_mean_reward(500) == pytest.approx(0.80, abs=0.02)
    assert ett.terminal_mean_reward(500) == pytest.approx(0.75, abs=0.02)
    assert std.terminal_mean_reward(500) == pytest.approx(0.70, abs=0.02)
    # cumulative-regret ordering with separated 95% bands at the horizon
    opt_hi = opt.final_regret()[2]
    ett_lo, ett_hi = ett.final_regret()[1], ett.final_regret()[2]
    assert opt_hi < ett_lo
    assert ett_hi < std.final_regret()[1]
    assert ett_hi < aug.final_regret()[1]
    # the two-stage sampler keeps improving; the others plateau
    assert opt.terminal_oap(500) > 0.9
    for m in bandit_runs.values():
        diffs = np.diff(m.cumulative_regret, axis=1)
        assert (diffs >= -1e-12).all()
        assert ((m.oap >= 0) & (m.oap <= 1)).all()
    report(
        8,
        "T=2000, 200 epochs: rewards "
        f"{opt.terminal_mean_reward(500):.3f}/{ett.terminal_mean_reward(500):.3f}/"
        f"{std.terminal_mean_reward(500):.3f}; CR order opt<ett<(ts,aug) with "
        f"separated bands; opt OAP {opt.terminal_oap(500):.3f}",
    )
    assert time.time() - t0 < 600


# ---------------------------------------------------------------------------
# 9 & 10. Fairness values and constrained-sampling contrast
# ---------------------------------------------------------------------------

def test_criterion_09_fairness_exact_and_sampled():
    scm = fr.example2_scm()
    exact = fr.mu_ctf(scm, exact=True)
    assert exact.mu_ctf == pytest.approx(0.10, abs=1e-12)
    assert fr.mu_int(scm, 1) == pytest.approx(0.0, abs=1e-12)
    assert fr.mu_int(scm, 2) == pytest.approx(0.0, abs=1e-12)
    sampled = fr.mu_ctf(scm, exact=False, n=100_000, seed=20240106)
    assert sampled.mu_ctf == pytest.approx(0.10, abs=0.01)
    report(9, f"exact 0.10 / 0 / 0 to 1e-12; sampled {sampled.mu_ctf:.4f} "
              "within 0.01 at N=1e5")


def test_criterion_10_fairness_contrast():
    l3 = fr.sample_constrained_scms(fr.L3_PENALTY, 1000, 0.01, seed=101)
    l2 = fr.sample_constrained_scms(fr.L2_PENALTY, 1000, 0.01, seed=102)
    frac_l3 = fr.violation_fraction(l3)
    frac_l2 = fr.violation_fraction(l2)
    assert 1.0 - frac_l3 >= 0.95
    assert frac_l2 >= 0.25
    report(10, f"1000 tables each: l3-constrained {100 * (1 - frac_l3):.1f}% "
               f"fair (>=95%), l2-constrained {100 * frac_l2:.1f}% "
               "discriminatory (>=25%)")


# ---------------------------------------------------------------------------
# 11. Estimator unbiasedness
# ---------------------------------------------------------------------------

def test_criterion_11_estimator_unbiasedness():
    batches, n = 200, 1000
    checks = 0
    observational = [
        (bow_model(), None), (hub_split_model(), None), (fan_model(), None),
    ]
    for model, _ in observational:
        variables = model.diagram.variables
        exact = exact_distribution(model, query(*[response(v) for v in variables]))
        event = max(exact.as_dict().items(), key=lambda kv: kv[1])[0]
        p = exact.prob(event)
        estimates = [
            estimate(
                sample_observational(
                    model, n, seed=(zlib.crc32(",".join(variables).encode()) + b) % 2**32
                ),
                event,
            )
            for b in range(batches)
        ]
        mean = float(np.mean(estimates))
        sigma = float(np.sqrt(p * (1 - p) / (batches * n)))
        assert abs(mean - p) < 3 * sigma, (variables, mean, p)
        checks += 1
    interventional = [
        (bow_model(), {"X": 1}, ["Y"]),
        (fan_model(), {"X": 0}, ["Y", "Z", "W"]),
    ]
    for model, do, outcome in interventional:
        exact = interventional_distribution(model, outcome, do)
        event = max(exact.as_dict().items(), key=lambda kv: kv[1])[0]
        p = exact.prob(event)
        estimates = [
            estimate(
                sample_interventional(model, do, n, seed=(31 * b + 7) % 2**32,
                                      outcome=outcome),
                event,
            )
            for b in range(batches)
        ]
        mean = float(np.mean(estimates))
        sigma = float(np.sqrt(p * (1 - p) / (batches * n)))
        assert abs(mean - p) < 3 * sigma, (do, mean, p)
        checks += 1
    report(11, f"{checks} estimators, 200 batches of N=1e3 each, "
               "means within 3 sigma of exact")


# ---------------------------------------------------------------------------
# 12. Natural direct effect
# ---------------------------------------------------------------------------

def test_criterion_12_nde():
    zero = mediation_model(direct_effect=False)
    assert nde(zero, 0, 1, 1) == 0.0
    assert nde(zero, 1, 0, 1) == 0.0
    direct = mediation_model(direct_effect=True)
    worst = 0.0
    for x, xp in ((0, 1), (1, 0)):
        for y in (0, 1):
            got = nde(direct, x, xp, y)
            want = nde_oracle(direct, x, xp, y)
            worst = max(worst, abs(got - want))
            assert got == pytest.approx(want, abs=1e-12)
    report(12, f"zero-effect fixture exact 0; nested-oracle deviation {worst:.2e}")
