import hashlib
import itertools
import re
import warnings

import numpy as np
import pytest

from ctfrealize import (
    CausalDiagram,
    EstimationError,
    Mechanism,
    ModelError,
    QueryError,
    ScmModel,
    ctf_realize,
    maximal_action_set,
    query,
    response,
)
from ctfrealize.bandits import (
    ACT_NONE,
    ALGORITHMS,
    READ_D,
    SKIP_D,
    TIERS,
    ExactTables,
    MabProblem,
    Strategy,
    StrategyForm,
    act_fix_y,
    act_write,
    best_strategy,
    check_strategy_realizable,
    evaluate_strategy_exact,
    example3_problem,
    fix_d,
    run_epochs,
    write_metric_csv,
)
from ctfrealize.bandits import _POLICIES, _Responses, _play_epoch  # the loop and its parts
from ctfrealize.models import independent_exogenous
from ctfrealize.realizability import NO_ACTION, OUTPUT_ERASED
from ctfrealize.simulate import Experiment, Unit

from reference import ThompsonSolver, brute_force_optimal, natural_values, potential_response


@pytest.fixture(scope="module")
def problem():
    return example3_problem()


@pytest.fixture(scope="module")
def tables(problem):
    return ExactTables(problem)


def unconfounded_problem():
    """Reward depends on the arm and private noise only: nothing above
    the write-tier can help."""
    d = CausalDiagram(
        ["X", "D", "Y"],
        directed_edges=[("X", "Y"), ("X", "D")],
    )
    names, doms, dist = independent_exogenous(
        {"UX": (0, 1), "UD": (0, 1), "UY": tuple(range(10))}
    )
    mech = {
        "X": Mechanism.tabulate((), ("UX",), (), ((0, 1),), lambda u: u),
        "D": Mechanism.tabulate(("X",), ("UD",), ((0, 1),), ((0, 1),),
                                lambda x, u: x ^ u),
        "Y": Mechanism.tabulate(
            ("X",), ("UY",), ((0, 1),), (tuple(range(10)),),
            lambda x, uy: 1 if uy < (6 if x == 1 else 4) else 0,
        ),
    }
    return MabProblem(ScmModel(d, names, doms, dist, mech))


def context_problem():
    """Z -> X, Z -> Y, X -> D, X -> Y, with X and Y confounded through UX.
    Playing the natural decision pays 0.1 when z=0 and 0.5 when z=1, the
    other arm 0.3 either way; D carries no information."""
    d = CausalDiagram(
        ["Z", "X", "D", "Y"],
        directed_edges=[("Z", "X"), ("Z", "Y"), ("X", "D"), ("X", "Y")],
        bidirected_edges=[("X", "Y")],
    )
    names, doms, dist = independent_exogenous(
        {"UZ": (0, 1), "UX": (0, 1), "UD": (0, 1), "UY": tuple(range(10))}
    )
    natural_pays = {0: 1, 1: 5}  # tenths

    def f_y(z, x, ux, uy):
        return int(uy < (natural_pays[z] if x == z ^ ux else 3))

    mech = {
        "Z": Mechanism.tabulate((), ("UZ",), (), ((0, 1),), lambda u: u),
        "X": Mechanism.tabulate(("Z",), ("UX",), ((0, 1),), ((0, 1),),
                                lambda z, u: z ^ u),
        "D": Mechanism.tabulate(("X",), ("UD",), ((0, 1),), ((0, 1),),
                                lambda x, u: x ^ u),
        "Y": Mechanism.tabulate(("Z", "X"), ("UX", "UY"), ((0, 1), (0, 1)),
                                ((0, 1), tuple(range(10))), f_y),
    }
    return MabProblem(ScmModel(d, names, doms, dist, mech), context="Z")


def constant_reward_problem():
    d = CausalDiagram(["X", "D", "Y"], directed_edges=[("X", "Y"), ("X", "D")])
    names, doms, dist = independent_exogenous({"UX": (0, 1), "UD": (0, 1)})
    mech = {
        "X": Mechanism.tabulate((), ("UX",), (), ((0, 1),), lambda u: u),
        "D": Mechanism.tabulate(("X",), ("UD",), ((0, 1),), ((0, 1),),
                                lambda x, u: x ^ u),
        "Y": Mechanism.tabulate(("X",), (), ((0, 1),), (), lambda x: 1),
    }
    return MabProblem(ScmModel(d, names, doms, dist, mech))


def gated_post_problem():
    """Example 3 with D = x and u3: only the input x'' = 1 makes D reveal
    the mood bit, so the D-stage choice matters."""
    base = example3_problem().model
    mech = dict(base.mechanisms)
    mech["D"] = Mechanism.tabulate(("X",), ("U3",), ((0, 1),), ((0, 1),),
                                   lambda x, u3: x & u3)
    return MabProblem(ScmModel(base.diagram, base.exogenous_vars,
                               base.exogenous_domains, base.exogenous_dist, mech))


PROBLEMS = (example3_problem, unconfounded_problem, context_problem,
            constant_reward_problem, gated_post_problem)


def tier_values(prob, tables):
    return {
        name: evaluate_strategy_exact(prob, best_strategy(prob, form, tables), tables)
        for name, form in TIERS.items()
    }


# ---------------------------------------------------------------------------
# Exact values
# ---------------------------------------------------------------------------

def test_tier_values_match_published_numbers(problem, tables):
    values = tier_values(problem, tables)
    assert values["obs"] == pytest.approx(0.65, abs=1e-12)
    assert values["int"] == pytest.approx(0.70, abs=1e-12)
    assert values["ett"] == pytest.approx(0.75, abs=1e-12)
    assert values["opt"] == pytest.approx(0.80, abs=1e-12)


def test_natural_value(problem, tables):
    assert tables.natural_value == pytest.approx(0.65, abs=1e-12)


def test_brute_force_certifies_the_opt_tier(problem, tables):
    _, value = brute_force_optimal(problem, tables)
    assert value == pytest.approx(0.80, abs=1e-12)


def test_dominance_over_lower_tiers():
    # obs <= int is not asserted: natural behaviour can beat the best fixed arm
    for make_problem in PROBLEMS:
        prob = make_problem()
        t = ExactTables(prob)
        _, best = brute_force_optimal(prob, t)
        v = tier_values(prob, t)
        assert v["obs"] <= v["ett"] + 1e-12, make_problem.__name__
        assert v["int"] <= v["ett"] + 1e-12, make_problem.__name__
        assert v["ett"] <= v["opt"] + 1e-12, make_problem.__name__
        assert v["opt"] <= best + 1e-12, make_problem.__name__


def test_no_confounding_means_write_tier_ties_the_optimum():
    prob = unconfounded_problem()
    t = ExactTables(prob)
    _, best = brute_force_optimal(prob, t)
    int_v = evaluate_strategy_exact(prob, best_strategy(prob, TIERS["int"], t), t)
    assert best == pytest.approx(int_v, abs=1e-12)


def test_arm_with_no_effect_makes_all_strategies_tie():
    prob = constant_reward_problem()
    t = ExactTables(prob)
    _, best = brute_force_optimal(prob, t)
    for form in TIERS.values():
        v = evaluate_strategy_exact(prob, best_strategy(prob, form, t), t)
        assert v == pytest.approx(best, abs=1e-12)


def test_normal_form_is_not_beaten_by_the_wider_strategy_space(problem, tables):
    # exhaustive cross-oracle: every D-stage option (skip / read natural /
    # fix either input) crossed with every final action (none / write /
    # fix reward input) on each information key
    arms = problem.arms
    keys = tables.keys()
    d_options = [SKIP_D, READ_D] + [fix_d(x) for x in arms]
    y_options = [ACT_NONE] + [act_write(x) for x in arms] + [act_fix_y(x) for x in arms]
    _, normal_best = brute_force_optimal(problem, tables)
    best = -1.0
    per_key_choices = []
    for key in keys:
        cell = []
        for d_opt in d_options:
            if d_opt == SKIP_D:
                info_keys = [key]
            else:
                info_keys = [key + (d,) for d in problem.post_domain]
            for ys in itertools.product(y_options, repeat=len(info_keys)):
                cell.append((d_opt, dict(zip(info_keys, ys))))
        per_key_choices.append(cell)
    for combo in itertools.product(*per_key_choices):
        d_stage = {k: c[0] for k, c in zip(keys, combo)}
        y_stage = {}
        for _, c in zip(keys, combo):
            y_stage.update(c[1])
        strat = Strategy("cross-oracle", d_stage, y_stage)
        v = evaluate_strategy_exact(problem, strat, tables)
        best = max(best, v)
    assert best <= normal_best + 1e-12


def form_strategies(prob, form, tables):
    """Every strategy the form allows: per key of what it observes of
    (z, x'), each allowed D choice, then each final action of the form's
    kind on every information key that choice leads to."""
    arms, keys = prob.arms, tables.keys()
    if form.final == "none":
        finals = [ACT_NONE]
    else:
        act = act_write if form.final == "write" else act_fix_y
        finals = [act(x) for x in arms]
    d_options = [fix_d(x2) for x2 in arms] if form.fixes_d else [SKIP_D]

    def seen(key):
        z, xn = key
        return (z if form.final != "none" else None, xn if form.sees_x else None)

    seen_keys = list(dict.fromkeys(seen(k) for k in keys))
    per_key = []
    for _ in seen_keys:
        cell = []
        for d_opt in d_options:
            ds = [None] if d_opt == SKIP_D else list(prob.post_domain)
            for ys in itertools.product(finals, repeat=len(ds)):
                cell.append((d_opt, dict(zip(ds, ys))))
        per_key.append(cell)
    for combo in itertools.product(*per_key):
        choice = dict(zip(seen_keys, combo))
        d_stage, y_stage = {}, {}
        for k in keys:
            d_opt, ys = choice[seen(k)]
            d_stage[k] = d_opt
            for d, y in ys.items():
                y_stage[k if d is None else k + (d,)] = y
        yield Strategy(form.name, d_stage, y_stage)


@pytest.mark.parametrize("make_problem", PROBLEMS)
def test_best_strategy_attains_the_form_maximum(make_problem):
    prob = make_problem()
    t = ExactTables(prob)
    values = tier_values(prob, t)
    for name, form in TIERS.items():
        best = max(evaluate_strategy_exact(prob, s, t) for s in form_strategies(prob, form, t))
        assert values[name] == pytest.approx(best, abs=1e-12), name


def per_row_sums(prob):
    """The per-row reference for ExactTables: each row fired through
    ``natural_values`` and ``potential_response``, each conditional
    sum kept in its own dict and added up in support order."""
    model, arms = prob.model, prob.arms
    dec, rew, post, ctx = prob.decision, prob.reward, prob.post, prob.context
    core_vars = tuple(
        u for u in model.exogenous_vars
        if any(u in model.mechanisms[v].exogenous
               for v in model.diagram.variables if v != rew)
    )
    ref = {name: {} for name in
           ("key", "zx", "d", "full", "core_p", "core_e", "obs_p", "obs_e")}

    def add(name, cell, w):
        ref[name][cell] = ref[name].get(cell, 0.0) + w

    natural, rows = 0.0, {}
    for u, p in model.exogenous_support():
        if p == 0.0:
            continue
        nat = natural_values(model, u)
        z, xn, y_nat = (nat[ctx] if ctx else None), nat[dec], float(nat[rew])
        core = tuple(model.exo_value(u, e) for e in core_vars)
        y_x = {x: float(potential_response(model, u, response(rew, {dec: x})))
               for x in arms}
        d_x = {x2: potential_response(model, u, response(post, {dec: x2}))
               for x2 in arms}
        rows[u] = (p, core, z, xn, nat[post], d_x, y_x)
        natural += p * y_nat
        add("core_p", core, p)
        add("key", (z, xn), p)
        for cell in ((z, xn), (z, xn, nat[post])):
            add("obs_p", cell, p)
            add("obs_e", cell, p * y_nat)
        for x in arms:
            add("zx", (z, xn, x), p * y_x[x])
            add("core_e", core + (x,), p * y_x[x])
        for x2 in arms:
            add("d", (z, xn, x2, d_x[x2]), p)
            for x in arms:
                add("full", (z, xn, x2, d_x[x2], x), p * y_x[x])
    return natural, rows, ref


@pytest.mark.parametrize("make_problem", [
    example3_problem, unconfounded_problem, context_problem, constant_reward_problem,
])
def test_exact_tables_equal_the_per_row_sums(make_problem):
    prob = make_problem()
    t = ExactTables(prob)
    natural, rows, ref = per_row_sums(prob)
    arms = prob.arms
    assert t.natural_value == natural
    assert t.rows == list(rows.values()) and prob.model.compile().rows == list(rows)
    assert t.keys() == sorted(ref["key"], key=repr)
    for (z, xn), pk in ref["key"].items():
        assert t.key_prob((z, xn)) == pk
        for x in arms:
            assert t.mean_given_zx(z, xn, x) == ref["zx"][(z, xn, x)] / pk
        for x2 in arms:
            assert t.d_dist(z, xn, x2) == {
                d: ref["d"].get((z, xn, x2, d), 0.0) / pk for d in prob.post_domain
            }
    for cell, pd in ref["d"].items():
        for x in arms:
            assert t.mean_given_full(*cell, x) == ref["full"][cell + (x,)] / pd
    for cell, po in ref["obs_p"].items():
        assert t.obs_mean(cell) == ref["obs_e"][cell] / po
    assert t.obs_mean(("unseen", None)) == 0.5
    for core, pc in ref["core_p"].items():
        means = [ref["core_e"][core + (x,)] / pc for x in arms]
        assert [t.reward_mean(x, core) for x in arms] == means
        assert t.oracle_value(core) == max(means)


# ---------------------------------------------------------------------------
# Realizability gate
# ---------------------------------------------------------------------------

def test_double_post_decision_context_is_rejected(problem):
    q = query(
        response("Y", {"X": 0}),
        response("X"),
        response("D", {"X": 0}),
        response("D", {"X": 1}),
    )
    verdict = ctf_realize(q, problem.model.diagram,
                          maximal_action_set(problem.model.diagram))
    assert not verdict
    pair = verdict.criterion_pair
    assert pair and {t.variable for t in pair} == {"D"}


def test_gate_passes_every_tier(problem, tables):
    for form in TIERS.values():
        check_strategy_realizable(problem, form)


def test_gate_rejects_unrealizable_strategy(problem, tables):
    # observing the natural decision while erase-and-writing it needs
    # samples of (Y_x, X) with only whole-variable randomization: the
    # natural readout is destroyed, so the gate must refuse to run this
    broken = StrategyForm("write-after-observing", sees_x=True, final="write")
    with pytest.raises(QueryError, match="not realizable"):
        check_strategy_realizable(problem, broken)


@pytest.mark.parametrize("final", ["bogus", "fix-y", "", None])
def test_a_strategy_form_refuses_an_unknown_final_action(final):
    with pytest.raises(ModelError, match="must be 'none', 'write' or 'fix_y'"):
        StrategyForm("x", final=final)
    assert [StrategyForm("x", final=f).final for f in ("none", "write", "fix_y")] == [
        "none", "write", "fix_y",
    ]


def test_tier_queries_and_randomizations_are_pinned(problem):
    rands = [set(), {"Rand(X)"}, {"CtfRand(X->Y)"}, {"CtfRand(X->D)", "CtfRand(X->Y)"}]
    for prob, texts in (
        (problem, ["P(Y)", "P(Y[X=0])", "P(Y[X=0], X)", "P(Y[X=0], X, D[X=1])"]),
        (context_problem(),
         ["P(Y)", "P(Y[X=0], Z)", "P(Y[X=0], X, Z)", "P(Y[X=0], X, Z, D[X=1])"]),
    ):
        plain = {"Select"} | {f"Read({v})" for v in prob.model.diagram.variables}
        for form, text, rand in zip(TIERS.values(), texts, rands):
            assert str(form.sampling_query(prob)) == text
            assert {str(a) for a in form.required_actions(prob)} == plain | rand


@pytest.mark.parametrize("make_problem", PROBLEMS)
def test_tier_ladder_is_tight(make_problem):
    # each richer tier needs its extra physical action: its sampling
    # distribution is not realizable with the previous tier's actions
    prob = make_problem()
    for lower, form, failure in (
        ("obs", "int", NO_ACTION),
        ("int", "ett", OUTPUT_ERASED),
        ("ett", "opt", NO_ACTION),
    ):
        verdict = ctf_realize(TIERS[form].sampling_query(prob), prob.model.diagram,
                              TIERS[lower].required_actions(prob))
        assert not verdict and verdict.conflict.failure == failure, (form, lower)


def test_natural_plus_forced_reward_joint_is_rejected(problem):
    q = query(response("Y"), response("Y", {"X": 1}), response("X"))
    verdict = ctf_realize(q, problem.model.diagram,
                          maximal_action_set(problem.model.diagram))
    assert not verdict


def test_post_decision_variable_feeding_the_reward_is_rejected():
    # D is read before the reward arm is fixed; a D that feeds Y would pay
    # the learner a y that the exact tables do not score
    d = CausalDiagram(
        ["X", "D", "Y"],
        directed_edges=[("X", "D"), ("D", "Y"), ("X", "Y")],
        bidirected_edges=[("X", "Y")],
    )
    names, doms, dist = independent_exogenous({"UX": (0, 1), "UD": (0, 1)})
    mech = {
        "X": Mechanism.tabulate((), ("UX",), (), ((0, 1),), lambda u: u),
        "D": Mechanism.tabulate(("X",), ("UD",), ((0, 1),), ((0, 1),),
                                lambda x, u: x ^ u),
        "Y": Mechanism.tabulate(("X", "D"), ("UX",), ((0, 1), (0, 1)), ((0, 1),),
                                lambda x, dv, u: x ^ dv ^ u),
    }
    with pytest.raises(ModelError, match="must not feed the reward"):
        MabProblem(ScmModel(d, names, doms, dist, mech))


def _roles_only(diagram):
    # MabProblem checks roles on the diagram alone: no mechanism is read
    return ScmModel(diagram, ("U",), {"U": (0,)}, {(0,): 1.0}, {})


def test_problem_roles_must_fit_the_template():
    fork = CausalDiagram(["X", "D", "Y", "W"], directed_edges=[("X", "D"), ("X", "Y")])
    model = _roles_only(fork)
    for kwargs, text in (
        ({"reward": "Q"}, "problem variable 'Q' not in the model"),
        ({"context": "Q"}, "context variable 'Q' not in the model"),
        ({"post": "W"}, "'W' must be a child of 'X'"),
        ({"reward": "W"}, "'W' must be downstream of 'X'"),
    ):
        with pytest.raises(ModelError, match=f"^{re.escape(text)}$"):
            MabProblem(model, **kwargs)
    ternary = CausalDiagram(["X", "D", "Y"], directed_edges=[("X", "D"), ("X", "Y")],
                            domains={"Y": (0, 1, 2)})
    with pytest.raises(ModelError, match="^reward must be binary 0/1$"):
        MabProblem(_roles_only(ternary))
    MabProblem(model)


def test_unknown_algorithm_and_metric_are_named(problem, tables, tmp_path):
    with pytest.raises(EstimationError, match=re.escape(
        f"unknown algorithm 'ts-bogus'; pick from {ALGORITHMS}"
    )):
        run_epochs("ts-bogus", problem, 5, 1, seed=0, tables=tables)
    m = run_epochs("ts", problem, 5, 1, seed=0, tables=tables)
    with pytest.raises(EstimationError, match="^unknown metric 'regret'$"):
        write_metric_csv(tmp_path / "m.csv", m, "regret")
    assert not (tmp_path / "m.csv").exists()


def test_context_downstream_of_the_decision_is_rejected():
    d = CausalDiagram(
        ["X", "Z", "D", "Y"],
        directed_edges=[("X", "Z"), ("X", "D"), ("X", "Y")],
    )
    names, doms, dist = independent_exogenous({"UX": (0, 1)})
    mech = {
        "X": Mechanism.tabulate((), ("UX",), (), ((0, 1),), lambda u: u),
        "Z": Mechanism.tabulate(("X",), (), ((0, 1),), (), lambda x: x),
        "D": Mechanism.tabulate(("X",), (), ((0, 1),), (), lambda x: x),
        "Y": Mechanism.tabulate(("X",), (), ((0, 1),), (), lambda x: x),
    }
    model = ScmModel(d, names, doms, dist, mech)
    with pytest.raises(ModelError, match="'Z' must not descend from 'X'"):
        MabProblem(model, context="Z")
    MabProblem(model)


# ---------------------------------------------------------------------------
# Online runs
# ---------------------------------------------------------------------------

def test_short_runs_are_sane(problem, tables):
    m = run_epochs("ts-opt", problem, 200, 4, seed=0, tables=tables)
    assert m.cumulative_regret.shape == (4, 200)
    diffs = np.diff(m.cumulative_regret, axis=1)
    assert (diffs >= -1e-12).all()  # CR nondecreasing
    assert ((m.oap >= 0) & (m.oap <= 1)).all()


def test_tables_of_another_problem_are_refused(problem, tables):
    prob = context_problem()
    with pytest.raises(EstimationError, match="another problem"):
        run_epochs("ts-ett", prob, 300, 2, seed=0, tables=tables)
    for call in (
        lambda t: evaluate_strategy_exact(prob, best_strategy(prob, TIERS["opt"]), t),
        lambda t: best_strategy(prob, TIERS["opt"], t),
        lambda t: brute_force_optimal(prob, t),
    ):
        with pytest.raises(EstimationError, match="another problem"):
            call(tables)
    # tables of an equal problem (same model and roles) are accepted
    same = MabProblem(problem.model)
    assert same is not problem
    assert brute_force_optimal(same, tables)[1] == pytest.approx(0.80, abs=1e-12)


def test_terminal_window_must_be_positive(problem, tables):
    m = run_epochs("ts", problem, 50, 2, seed=0, tables=tables)
    assert m.terminal_mean_reward(1) == float(m.reward[:, -1].mean())
    assert m.terminal_oap(50) == m.terminal_oap(500) == float(m.oap.mean())
    for window in (0, -5):
        with pytest.raises(EstimationError, match="at least 1"):
            m.terminal_mean_reward(window)
        with pytest.raises(EstimationError, match="at least 1"):
            m.terminal_oap(window)
        with pytest.raises(EstimationError, match="at least 1"):
            m.summary(window)


@pytest.mark.parametrize("window", [2.5, 2.0, True, "2", None])
def test_terminal_window_must_be_an_integer(problem, tables, window):
    m = run_epochs("ts", problem, 20, 2, seed=0, tables=tables)
    for read in (m.terminal_mean_reward, m.terminal_oap, m.summary):
        with pytest.raises(EstimationError, match="window must be an integer"):
            read(window)
    assert m.terminal_mean_reward(np.int64(2)) == m.terminal_mean_reward(2)


def test_zero_horizon_yields_empty_metrics(problem, tables):
    m = run_epochs("ts-opt", problem, 0, 3, seed=0, tables=tables)
    assert m.cumulative_regret.shape == (3, 0)
    assert run_epochs("ts", problem, 10, 0, seed=0, tables=tables).oap.shape == (0, 10)
    with pytest.raises(EstimationError, match="non-negative"):
        run_epochs("ts", problem, 10, -1, seed=0, tables=tables)


@pytest.mark.parametrize("horizon, epochs", [
    (2.5, 1), (10, True), (True, 2), (10, 2.0), ("10", 1), (np.float64(3.0), 1),
])
def test_a_round_count_must_be_an_integer(problem, tables, horizon, epochs):
    with pytest.raises(EstimationError, match="must be an integer"):
        run_epochs("ts", problem, horizon, epochs, seed=0, tables=tables)


def test_an_empty_run_cannot_be_summarized(problem, tables, tmp_path):
    # no rounds or no epochs: nothing to take the last regret or a mean of
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for horizon, epochs in ((0, 3), (10, 0)):
            m = run_epochs("ts-opt", problem, horizon, epochs, seed=0, tables=tables)
            for read in (m.final_regret, m.summary, m.terminal_mean_reward, m.terminal_oap):
                with pytest.raises(EstimationError, match="empty run"):
                    read()
        # with no epochs there is no band either; with no rounds it is empty
        for read in (m.regret_band, m.oap_band):
            with pytest.raises(EstimationError, match="empty run"):
                read()
        with pytest.raises(EstimationError, match="empty run"):
            write_metric_csv(tmp_path / "cr.csv", m, "cr")
        no_rounds = run_epochs("ts", problem, 0, 2, seed=0, tables=tables)
        assert no_rounds.regret_band()[0].shape == (0,)


def test_constant_reward_run_has_zero_regret(tables):
    prob = constant_reward_problem()
    t = ExactTables(prob)
    m = run_epochs("ts", prob, 100, 2, seed=0, tables=t)
    assert np.allclose(m.cumulative_regret, 0.0)


def test_same_seed_reproduces_csv_bytes(problem, tables, tmp_path):
    a = run_epochs("ts-ett", problem, 120, 3, seed=9, tables=tables)
    b = run_epochs("ts-ett", problem, 120, 3, seed=9, tables=tables)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_metric_csv(pa, a, "cr")
    write_metric_csv(pb, b, "cr")
    assert pa.read_bytes() == pb.read_bytes()
    c = run_epochs("ts-ett", problem, 120, 3, seed=10, tables=tables)
    pc = tmp_path / "c.csv"
    write_metric_csv(pc, c, "cr")
    assert pa.read_bytes() != pc.read_bytes()


def test_single_epoch_band_collapses(problem, tables):
    m = run_epochs("ts", problem, 50, 1, seed=0, tables=tables)
    mean, lo, hi = m.regret_band()
    assert np.allclose(mean, lo) and np.allclose(mean, hi)


def test_thompson_posterior_counts_match_updates():
    solver = ThompsonSolver()
    rng = np.random.default_rng(0)
    routed = {"a": 0, "b": 0}
    for _ in range(200):
        key = "a" if rng.random() < 0.3 else "b"
        solver.draw(key, rng)
        solver.update(key, float(rng.random() < 0.5))
        routed[key] += 1
    assert solver.pulls("a") == routed["a"]
    assert solver.pulls("b") == routed["b"]


# sha256 of the cumulative-regret, OAP and reward arrays (float64 bytes, in
# that order) for seed 3, 300 rounds, 2 epochs, computed at commit 8a60c42
# with the unit-at-a-time loops and per-round metric recorder
PINNED_DIGESTS = {
    "ts-opt": "139b8490e4499dc6fad69985e34e6560e7b14133f9f25d656264fba0ea6ba86d",
    "ts-ett": "446580f46ad7146e852e7d20fc986815e87d24fc07361b2467b54bf895541322",
    "ts": "c0ab5e6a532a3a27af78d8366b6af8609e572c5d83261745a08ec33b162b93fb",
    "ts-aug": "81f7be18827c1b675b8f40881d05d0da32ba6a90471d27cc8f3c4a5b6da0f5ec",
}


def metrics_digest(m):
    h = hashlib.sha256()
    for arr in (m.cumulative_regret, m.oap, m.reward):
        h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    return h.hexdigest()


def test_run_metrics_match_the_unit_at_a_time_digests(problem, tables):
    for algo, digest in PINNED_DIGESTS.items():
        m = run_epochs(algo, problem, 300, 2, seed=3, tables=tables)
        assert metrics_digest(m) == digest, algo
        assert m.epoch_seconds.shape == (2,) and (m.epoch_seconds > 0).all()


# the same digests for the context problem, computed at commit 206b796 with
# the tuple-keyed ThompsonSolver in the epoch loop
CONTEXT_DIGESTS = {
    "ts-opt": "8ddbe36821c58d0c682ca143d2088807433c9875e48be5a9c5f702b93fdb83e2",
    "ts-ett": "8afa9b23426d7c57ad5a1ac0523726a838dc9636fbcb018c0d631bbcdf77c1cc",
    "ts": "8f8133fd1d690eb7353cf2e808ce56b9ec8317525c2ee1a4faa259b509a3ba83",
    "ts-aug": "b450a14ca04e98e3ab3b21a740caf31993e555a9ec34061401416411a722f0a3",
}


def test_context_run_metrics_match_the_pinned_digests():
    prob = context_problem()
    t = ExactTables(prob)
    for algo, digest in CONTEXT_DIGESTS.items():
        assert metrics_digest(run_epochs(algo, prob, 300, 2, seed=3, tables=t)) == digest, algo


def reference_epoch(policy, responses, experiment, horizon, rng):
    """The epoch loop written out the slow way: keys built from the
    policy for each round, posteriors in a ``ThompsonSolver`` keyed by
    them, argmaxes by ``max``. Only the metric offsets come from the
    memo ``responses``, which this loop fills as it goes."""
    prob, t = responses.problem, responses.tables
    solver = ThompsonSolver()
    played = []
    for i in experiment.select_rows(horizon).tolist():
        _, _, z, xn, _, d_x, y_x = t.rows[i]
        _, branches = responses.rows.get(i) or responses.add_row(i)
        d_keys = [("D", z, xn, x2) for x2 in prob.arms]
        if policy.d_stage == "thompson":
            scores = [solver.draw(key, rng) for key in d_keys]
            j = max(range(len(scores)), key=scores.__getitem__)
        elif policy.d_stage == "uniform":
            j = int(rng.integers(len(prob.arms)))
        else:
            j = 0
        x2 = None if policy.d_stage == "none" else prob.arms[j]
        d = None if x2 is None else d_x[x2]
        keys = [policy.arm_key(z, xn, x2, d, x) for x in prob.arms]
        hots = [policy.hot_cell(z, xn, x2, d, x) for x in prob.arms]
        mu = [solver.draw(key, rng) if hot is None else t.obs_mean(hot)
              for key, hot in zip(keys, hots)]
        a = max(range(len(mu)), key=mu.__getitem__)
        y = y_x[prob.arms[a]]
        if policy.d_stage == "thompson":
            solver.update(d_keys[j], y)
        if hots[a] is None:
            solver.update(keys[a], y)
        played.append(branches[j][2] + a)
    return played


class TiedDraws:
    """A generator stand-in whose Beta draws all equal 0.5, so every
    Thompson argmax is a tie (with a hot-start mean of 0.5 too)."""

    def beta(self, a, b):
        return 0.5

    def integers(self, n):
        return n - 1


@pytest.mark.parametrize("make_problem", [example3_problem, context_problem])
def test_epoch_loop_plays_like_the_solver_reference(make_problem):
    # two epochs per seed share one memo each, as in run_epochs, so the
    # second epoch starts with ids the first one gave out
    prob = make_problem()
    t = ExactTables(prob)
    for algo in ("ts-opt", "ts-ett", "ts", "ts-aug"):
        policy = _POLICIES[algo]
        for seed, tied in ((0, False), (1, False), (2, False), (0, True)):
            runs = []
            for loop in (_play_epoch, reference_epoch):
                memo, played = _Responses(prob, t, policy), []
                for ss in np.random.SeedSequence(seed).spawn(2):
                    rng = (TiedDraws() if tied
                           else np.random.Generator(np.random.PCG64(ss.spawn(1)[0])))
                    experiment = Experiment(prob.model, seed=ss)
                    played.append(loop(policy, memo, experiment, 400, rng))
                runs.append((played, memo.regret, memo.keys))
            assert runs[0] == runs[1], (algo, seed, tied)


def fresh_unit_protocol(problem, actions, u, policy, x2, arm):
    """One unit through the round protocol, written out step by step:
    read z and x', fix x2 into D and read d, act with the arm, read y."""

    def fresh():
        return Unit(problem.model, u, np.random.default_rng(0), actions)

    unit = fresh()
    # an erase-and-write destroys the natural x'; metrics read it off a twin
    seen = fresh() if policy.form.final == "write" else unit
    z = seen.read(problem.context) if problem.context else None
    xn = seen.read(problem.decision)
    d = None
    if x2 is not None:
        unit.ctf_rand(problem.decision, [problem.post], x2)
        d = unit.read(problem.post)
    if policy.form.final == "write":
        unit.rand(problem.decision, arm)
    else:
        unit.ctf_rand(problem.decision, [problem.reward], arm)
    return z, xn, d, float(unit.read(problem.reward))


@pytest.mark.parametrize("make_problem", [example3_problem, context_problem])
def test_memoized_responses_match_fresh_units(make_problem):
    # the loop reads each unit's outcome off its exact-table row; a fresh
    # unit played through the protocol must show the same (z, x', d, y)
    prob = make_problem()
    t = ExactTables(prob)
    for algo in ("ts", "ts-ett", "ts-aug", "ts-opt"):
        policy = _POLICIES[algo]
        actions = policy.form.required_actions(prob)
        experiment = Experiment(prob.model, actions, seed=1)
        memo = _Responses(prob, t, policy)
        d_inputs = (None,) if policy.d_stage == "none" else prob.arms
        checked = 0
        for i, u in enumerate(experiment.support):
            _, _, z, xn, _, d_x, _ = t.rows[i]
            d_ids, branches = memo.add_row(i)
            if policy.d_stage == "thompson":
                assert [memo.keys[k] for k in d_ids] == [("D", z, xn, x2) for x2 in d_inputs]
            assert len(branches) == len(d_inputs)
            for x2, (cells, rewards, _) in zip(d_inputs, branches):
                d = None if x2 is None else d_x[x2]
                for arm, (key_id, _), y in zip(prob.arms, cells, rewards):
                    assert memo.keys[key_id] == policy.arm_key(z, xn, x2, d, arm)
                    assert (z, xn, d, y) == fresh_unit_protocol(
                        prob, actions, u, policy, x2, arm
                    ), (algo, u, x2, arm)
                    checked += 1
        assert checked == len(experiment.support) * len(d_inputs) * len(prob.arms)


def test_standard_sampler_regret_is_linear(problem, tables):
    m = run_epochs("ts", problem, 1200, 8, seed=2, tables=tables)
    mean, _, _ = m.regret_band()
    # slope over the second half approaches the 0.10 gap to the optimum
    slope = (mean[-1] - mean[600]) / 600
    assert slope == pytest.approx(0.10, abs=0.02)


# ---------------------------------------------------------------------------
# Context variables
# ---------------------------------------------------------------------------

def test_hot_start_cells_match_brute_force_conditionals():
    prob = context_problem()
    t = ExactTables(prob)
    num, den = {}, {}
    for u, p in prob.model.exogenous_support():
        nat = natural_values(prob.model, u)
        z, x, d = nat["Z"], nat["X"], nat["D"]
        for cell in ((z, x), (z, x, d)):
            num[cell] = num.get(cell, 0.0) + p * nat["Y"]
            den[cell] = den.get(cell, 0.0) + p
    for cell in den:
        assert t.obs_mean(cell) == pytest.approx(num[cell] / den[cell], abs=1e-12), cell
    # the consistency cell depends on the context, not just on (x, d)
    assert t.obs_mean((0, 1, 0)) == pytest.approx(0.1, abs=1e-12)
    assert t.obs_mean((1, 1, 0)) == pytest.approx(0.5, abs=1e-12)


def test_ts_opt_learns_the_optimum_on_a_context_problem():
    # a consistency cell pinned to E[Y | x, d] = 0.3 in place of
    # E[Y | z, x, d] keeps the terminal OAP at 0.64-0.80 over seeds 0-9;
    # keyed by z it is 0.87-0.93 over the same seeds
    prob = context_problem()
    m = run_epochs("ts-opt", prob, 1000, 4, seed=0)
    assert m.terminal_oap(500) > 0.84
