import hashlib
import itertools

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
    eval_potential_response,
    maximal_action_set,
    query,
    response,
)
from ctfrealize.bandits import (
    ACT_NONE,
    READ_D,
    SKIP_D,
    ExactTables,
    MabProblem,
    Strategy,
    ThompsonSolver,
    act_fix_y,
    act_write,
    brute_force_optimal,
    check_strategy_realizable,
    evaluate_strategy_exact,
    example3_problem,
    fix_d,
    run_epochs,
    tier_ett,
    tier_int,
    tier_obs,
    tier_opt,
    write_metric_csv,
)
from ctfrealize.bandits import _POLICIES, _Responses  # the loop's policies and memo
from ctfrealize.models import independent_exogenous
from ctfrealize.simulate import Experiment, RandomDevice, Unit


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


# ---------------------------------------------------------------------------
# Exact values
# ---------------------------------------------------------------------------

def test_tier_values_match_published_numbers(problem, tables):
    assert evaluate_strategy_exact(problem, tier_obs(problem, tables), tables) \
        == pytest.approx(0.65, abs=1e-12)
    assert evaluate_strategy_exact(problem, tier_int(problem, tables), tables) \
        == pytest.approx(0.70, abs=1e-12)
    assert evaluate_strategy_exact(problem, tier_ett(problem, tables), tables) \
        == pytest.approx(0.75, abs=1e-12)
    assert evaluate_strategy_exact(problem, tier_opt(problem, tables), tables) \
        == pytest.approx(0.80, abs=1e-12)


def test_interventional_arm_values(problem, tables):
    assert tables.interventional_value(0) == pytest.approx(0.7, abs=1e-12)
    assert tables.interventional_value(1) == pytest.approx(0.7, abs=1e-12)
    assert tables.natural_value == pytest.approx(0.65, abs=1e-12)


def test_brute_force_certifies_the_opt_tier(problem, tables):
    _, value = brute_force_optimal(problem, tables)
    assert value == pytest.approx(0.80, abs=1e-12)


def test_dominance_over_lower_tiers():
    for prob in (example3_problem(), unconfounded_problem()):
        t = ExactTables(prob)
        _, best = brute_force_optimal(prob, t)
        for tier in (tier_obs, tier_int):
            v = evaluate_strategy_exact(prob, tier(prob, t), t)
            assert best >= v - 1e-12


def test_no_confounding_means_write_tier_ties_the_optimum():
    prob = unconfounded_problem()
    t = ExactTables(prob)
    _, best = brute_force_optimal(prob, t)
    int_v = evaluate_strategy_exact(prob, tier_int(prob, t), t)
    assert best == pytest.approx(int_v, abs=1e-12)


def test_arm_with_no_effect_makes_all_strategies_tie():
    prob = constant_reward_problem()
    t = ExactTables(prob)
    _, best = brute_force_optimal(prob, t)
    for tier in (tier_obs, tier_int, tier_ett, tier_opt):
        v = evaluate_strategy_exact(prob, tier(prob, t), t)
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
        v = evaluate_strategy_exact(problem, strat, tables,
                                    check_realizability=False)
        best = max(best, v)
    assert best <= normal_best + 1e-12


def per_row_sums(prob):
    """The per-row reference for ExactTables: each row fired through
    ``natural_values`` and ``eval_potential_response``, each conditional
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
        nat = model.natural_values(u)
        z, xn, y_nat = (nat[ctx] if ctx else None), nat[dec], float(nat[rew])
        core = tuple(model.exo_value(u, e) for e in core_vars)
        y_x = {x: float(eval_potential_response(model, u, response(rew, {dec: x})))
               for x in arms}
        d_x = {x2: eval_potential_response(model, u, response(post, {dec: x2}))
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
    assert t.rows == rows and list(t.rows) == list(rows)
    assert t.keys() == sorted(ref["key"], key=repr)
    for x in arms:
        assert t.interventional_value(x) == sum(ref["zx"][k + (x,)] for k in ref["key"])
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
    for tier in (tier_obs, tier_int, tier_ett, tier_opt):
        check_strategy_realizable(problem, tier(problem, tables))


def test_gate_rejects_unrealizable_strategy(problem, tables):
    # observing the natural decision while erase-and-writing it needs
    # samples of (Y_x, X) with only whole-variable randomization: the
    # natural readout is destroyed, so the gate must refuse to run this
    broken = Strategy(
        "write-after-observing",
        {k: SKIP_D for k in tables.keys()},
        {k: act_write(0) for k in tables.keys()},
        observes=frozenset({"x_nat"}),
    )
    with pytest.raises(QueryError, match="not realizable"):
        check_strategy_realizable(problem, broken)


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


def test_zero_horizon_yields_empty_metrics(problem, tables):
    m = run_epochs("ts-opt", problem, 0, 3, seed=0, tables=tables)
    assert m.cumulative_regret.shape == (3, 0)
    assert run_epochs("ts", problem, 10, 0, seed=0, tables=tables).oap.shape == (0, 10)
    with pytest.raises(EstimationError, match="non-negative"):
        run_epochs("ts", problem, 10, -1, seed=0, tables=tables)


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


def test_mab_opt_matches_ts_opt_with_thompson_solver(problem, tables):
    a = run_epochs("ts-opt", problem, 150, 2, seed=5, tables=tables)
    b = run_epochs("mab-opt", problem, 150, 2, seed=5,
                   solver_factory=ThompsonSolver, tables=tables)
    assert np.array_equal(a.cumulative_regret, b.cumulative_regret)


# sha256 of the cumulative-regret, OAP and reward arrays (float64 bytes, in
# that order) for seed 3, 300 rounds, 2 epochs, computed at commit 8a60c42
# with the unit-at-a-time loops and per-round metric recorder
PINNED_DIGESTS = {
    "ts-opt": "139b8490e4499dc6fad69985e34e6560e7b14133f9f25d656264fba0ea6ba86d",
    "ts-ett": "446580f46ad7146e852e7d20fc986815e87d24fc07361b2467b54bf895541322",
    "ts": "c0ab5e6a532a3a27af78d8366b6af8609e572c5d83261745a08ec33b162b93fb",
    "ts-aug": "81f7be18827c1b675b8f40881d05d0da32ba6a90471d27cc8f3c4a5b6da0f5ec",
}


def test_run_metrics_match_the_unit_at_a_time_digests(problem, tables):
    for algo, digest in PINNED_DIGESTS.items():
        m = run_epochs(algo, problem, 300, 2, seed=3, tables=tables)
        h = hashlib.sha256()
        for arr in (m.cumulative_regret, m.oap, m.reward):
            h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
        assert h.hexdigest() == digest, algo
        assert m.epoch_seconds.shape == (2,) and (m.epoch_seconds > 0).all()


def fresh_unit_protocol(problem, actions, u, policy, x2, arm):
    """One unit through the round protocol, written out step by step:
    read z and x', fix x2 into D and read d, act with the arm, read y."""

    def fresh():
        return Unit(0, problem.model, u, np.random.default_rng(0), actions)

    unit = fresh()
    # an erase-and-write destroys the natural x'; metrics read it off a twin
    seen = fresh() if policy.final == "write" else unit
    z = seen.read(problem.context) if problem.context else None
    xn = seen.read(problem.decision)
    d = None
    dom = problem.arms
    if x2 is not None:
        unit.ctf_rand(problem.decision, [problem.post], RandomDevice.constant(dom, x2))
        d = unit.read(problem.post)
    if policy.final == "write":
        unit.rand(problem.decision, RandomDevice.constant(dom, arm))
    else:
        unit.ctf_rand(problem.decision, [problem.reward], RandomDevice.constant(dom, arm))
    return z, xn, d, float(unit.read(problem.reward))


@pytest.mark.parametrize("make_problem", [example3_problem, context_problem])
def test_memoized_responses_match_fresh_units(make_problem):
    # the loop reads each unit's outcome off its exact-table row; a fresh
    # unit played through the protocol must show the same (z, x', d, y)
    prob = make_problem()
    t = ExactTables(prob)
    for algo in ("ts", "ts-ett", "ts-aug", "ts-opt"):
        policy = _POLICIES[algo]
        actions = policy.gate(prob, t).required_actions(prob)
        experiment = Experiment(prob.model, actions, seed=1)
        memo = _Responses(prob, t, policy)
        d_inputs = (None,) if policy.d_stage == "none" else prob.arms
        checked = 0
        for i, u in enumerate(experiment.support):
            _, _, z, xn, _, d_x, _ = t.rows[u]
            _, branches = memo.add_row(i, u)
            assert len(branches) == len(d_inputs)
            for x2, (cells, rewards, _) in zip(d_inputs, branches):
                d = None if x2 is None else d_x[x2]
                for arm, (key, _), y in zip(prob.arms, cells, rewards):
                    assert key == policy.arm_key(z, xn, x2, d, arm)
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
        nat = prob.model.natural_values(u)
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
