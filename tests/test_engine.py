import itertools
import re
import zlib

import numpy as np
import pytest

from ctfrealize import (
    CausalDiagram,
    CtfQuery,
    Mechanism,
    ModelError,
    PotentialResponse,
    QueryError,
    RegimeEntry,
    ScmModel,
    exact_distribution,
    exact_l3_probabilities,
    exact_l3_probability,
    interventional_distribution,
    nde,
    query,
    response,
    validate_scm,
)
from ctfrealize import models
from ctfrealize import engine
from ctfrealize.engine import add_rows, exact_rows
from ctfrealize.bandits import example3_problem
from ctfrealize.fairness import (
    L2_PENALTY,
    L3_PENALTY,
    CanonicalScm,
    FairnessReport,
    example2_scm,
    mu_ctf,
    sample_constrained_scms,
)
from ctfrealize.fixtures import (
    bow_model,
    builtin,
    builtin_names,
    chain_model,
    fan_model,
    hub_split_model,
    mediation_diagram,
    mediation_model,
)
from ctfrealize.models import MAX_TABLE_ROWS, independent_exogenous

from reference import natural_values, potential_response

DIST_TOL = 1e-10


def brute_force_probability(model, terms_with_values):
    """Independent oracle: evaluate each term by directly re-simulating
    the submodel from the mechanism tables, no engine involved."""
    total = 0.0
    order = model.diagram.topological_order()
    for u, p in model.exogenous_support():
        ok = True
        for term, wanted in terms_with_values:
            values = {}
            assignment = term.assignment()
            for v in order:
                if v in assignment:
                    values[v] = assignment[v]
                else:
                    values[v] = model.evaluate(v, values, u)
            if values[term.variable] != wanted:
                ok = False
                break
        if ok:
            total += p
    return total


def truncated_factorization(model, outcome, do=None):
    """Independent route to the interventional joint: sum the exogenous
    weight of every full endogenous assignment consistent with the
    intervention and the mechanisms, then marginalize onto ``outcome``."""
    do = dict(do or {})
    order = model.diagram.topological_order()
    doms = [model.diagram.domains[v] for v in outcome]
    out = {row: 0.0 for row in itertools.product(*doms)}
    for u, p in model.exogenous_support():
        if p == 0.0:
            continue
        values = {}
        for v in order:
            values[v] = do[v] if v in do else model.evaluate(v, values, u)
        out[tuple(values[v] for v in outcome)] += p
    return out


def test_conflicting_responses_brute_force():
    # the engine evaluates non-realizable joints; realizability is a
    # separate concern
    bow = bow_model()
    q = query(response("Y", {"X": 0}, 1), response("Y", {"X": 1}, 1))
    oracle = brute_force_probability(
        bow, [(t, 1) for t in q.unvalued().terms]
    )
    assert oracle == pytest.approx(0.25, abs=1e-15)
    assert exact_l3_probability(bow, q) == pytest.approx(oracle, abs=DIST_TOL)


def test_ett_joint_frozen_values():
    dist = exact_distribution(
        bow_model(), query(response("Y", {"X": 1}), response("X"))
    )
    table = dist.as_dict()
    assert table[(1, 0)] == pytest.approx(0.55, abs=1e-12)
    assert table[(0, 1)] == pytest.approx(0.20, abs=1e-12)
    assert table[(1, 1)] == pytest.approx(0.25, abs=1e-12)
    assert table[(0, 0)] == pytest.approx(0.0, abs=1e-12)


def test_empty_regime_equals_forward_simulation():
    for model in (bow_model(), fan_model(), hub_split_model()):
        for u, p in model.exogenous_support():
            nat = natural_values(model, u)
            for v in model.diagram.variables:
                assert potential_response(model, u, response(v)) == nat[v]


def test_consistency_property():
    # forcing the value the unit would have chosen anyway changes nothing
    bow = bow_model()
    for u, _ in bow.exogenous_support():
        nat = natural_values(bow, u)
        forced = potential_response(bow, u, response("Y", {"X": nat["X"]}))
        assert forced == nat["Y"]


def test_example3_branch_mean():
    model = example3_problem().model
    uy_dom = model.exogenous_domains["UY"]
    vals = []
    for uy in uy_dom:
        u = (0, 0, 0, uy)
        vals.append(potential_response(model, u, response("Y", {"X": 0})))
    assert sum(vals) / len(vals) == pytest.approx(0.6, abs=1e-12)


def test_unvalued_query_rejected_for_probability():
    with pytest.raises(QueryError):
        exact_l3_probability(bow_model(), query(response("Y", {"X": 1})))


def test_marginalization_agreement():
    for model in (bow_model(), hub_split_model()):
        q = query(response("Y" if "Y" in model.diagram else "Z", {"X": 1}), response("X"))
        dist = exact_distribution(model, q)
        for i, term in enumerate(q.terms):
            marg = dist.marginal(i)
            for value, p in marg.items():
                single = exact_l3_probability(
                    model, CtfQuery((term.with_value(value),))
                )
                assert p == pytest.approx(single, abs=DIST_TOL)


def test_distributions_sum_to_one_and_nonnegative():
    cases = [
        (bow_model(), query(response("Y", {"X": 0}), response("Y", {"X": 1}))),
        (fan_model(), query(response("Y", {"X": 1}), response("Z", {"X": 0}),
                            response("W", {"X": 1}))),
        (hub_split_model(), query(response("Z", {"X": 0}), response("W", {"T": 1}))),
    ]
    for model, q in cases:
        dist = exact_distribution(model, q)
        assert all(p >= 0 for p in dist.probabilities)
        assert sum(dist.probabilities) == pytest.approx(1.0, abs=DIST_TOL)


def test_interventional_truncated_factorization_agreement():
    cases = [
        (bow_model(), ["Y"], {"X": 1}),
        (bow_model(), ["X", "Y"], {}),
        (fan_model(), ["Y", "Z", "W"], {"X": 0}),
        (hub_split_model(), ["Z", "W"], {"X": 1, "T": 0}),
        (mediation_model(), ["Y", "Z"], {"X": 1}),
    ]
    for model, outcome, do in cases:
        via_submodel = interventional_distribution(model, outcome, do).as_dict()
        via_truncation = truncated_factorization(model, outcome, do)
        assert set(via_submodel) == set(via_truncation)
        for k in via_submodel:
            assert via_submodel[k] == pytest.approx(via_truncation[k], abs=0)


def test_do_on_non_ancestor_equals_observational():
    fan = fan_model()
    plain = exact_distribution(fan, query(response("Y"))).as_dict()
    done = interventional_distribution(fan, ["Y"], {"Z": 1}).as_dict()
    assert plain == done


def test_example3_interventional_values():
    model = example3_problem().model
    for x in (0, 1):
        d = interventional_distribution(model, ["Y"], {"X": x})
        assert d.expectation() == pytest.approx(0.7, abs=1e-12)


def test_example3_conditional_maxima():
    model = example3_problem().model
    x2 = 0  # post-decision input fixed to arm 0
    joint = {}
    for x in (0, 1):
        q = query(
            response("Y", {"X": x}),
            response("X"),
            response("D", {"X": x2}),
        )
        joint[x] = exact_distribution(model, q).as_dict()
    seen = {}
    for xn in (0, 1):
        for d in (0, 1):
            best = max(
                sum(p for (y, a, b), p in joint[x].items() if y == 1 and a == xn and b == d)
                / sum(p for (_, a, b), p in joint[x].items() if a == xn and b == d)
                for x in (0, 1)
            )
            seen[(xn, d)] = best
    # the post-decision readout reveals the mood bit: 0.85 when it is 0,
    # 0.75 when it is 1 (d equals the bit when the input is arm 0)
    for xn in (0, 1):
        assert seen[(xn, 0)] == pytest.approx(0.85, abs=1e-12)
        assert seen[(xn, 1)] == pytest.approx(0.75, abs=1e-12)


def test_point_mass_for_deterministic_variable():
    d = CausalDiagram(["C", "Y"], directed_edges=[("C", "Y")])
    names, doms, dist = independent_exogenous({"U": (0, 1)})
    mech = {
        "C": Mechanism.tabulate((), (), (), (), lambda: 1),
        "Y": Mechanism.tabulate(("C",), ("U",), ((0, 1),), ((0, 1),),
                                lambda c, u: c ^ u),
    }
    model = ScmModel(d, names, doms, dist, mech)
    out = exact_distribution(model, query(response("C"))).as_dict()
    assert out == {(0,): 0.0, (1,): 1.0}


# ---------------------------------------------------------------------------
# Natural direct effect
# ---------------------------------------------------------------------------

def nde_oracle(model, x, xp, y):
    """Nested-evaluation oracle: run the mediator under the baseline, feed
    the contrast value straight into the outcome mechanism."""
    total = 0.0
    for u, p in model.exogenous_support():
        z_x = potential_response(model, u, response("Z", {"X": x}))
        yv = model.evaluate("Y", {"X": xp, "Z": z_x}, u)
        total += p * (1.0 if yv == y else 0.0)
    do_x = exact_l3_probability(model, query(response("Y", {"X": x}, y)))
    return total - do_x


def test_nde_zero_when_outcome_ignores_direct_input():
    model = mediation_model(direct_effect=False)
    assert nde(model, 0, 1, 1) == 0.0
    assert nde(model, 1, 0, 1) == 0.0


def test_nde_matches_nested_oracle():
    model = mediation_model(direct_effect=True)
    for x, xp in ((0, 1), (1, 0)):
        for y in (0, 1):
            assert nde(model, x, xp, y) == pytest.approx(
                nde_oracle(model, x, xp, y), abs=1e-12
            )


def test_nde_collapses_to_total_effect_when_mediator_constant():
    d = mediation_diagram()
    names, doms, dist = independent_exogenous(
        {"U_X": (0, 1), "U_ZY": (0, 1, 2)},
        {"U_X": (0.5, 0.5), "U_ZY": (0.5, 0.25, 0.25)},
    )
    mech = {
        "X": Mechanism.tabulate((), ("U_X",), (), ((0, 1),), lambda u: u),
        "Z": Mechanism.tabulate(("X",), ("U_ZY",), ((0, 1),), ((0, 1, 2),),
                                lambda x, u: 0),
        "Y": Mechanism.tabulate(
            ("X", "Z"), ("U_ZY",), ((0, 1), (0, 1)), ((0, 1, 2),),
            lambda x, z, u: (x | z) ^ (u == 2),
        ),
    }
    model = ScmModel(d, names, doms, dist, mech)
    total_effect = exact_l3_probability(
        model, query(response("Y", {"X": 1}, 1))
    ) - exact_l3_probability(model, query(response("Y", {"X": 0}, 1)))
    assert nde(model, 0, 1, 1) == pytest.approx(total_effect, abs=1e-12)


def test_nde_requires_mediation_structure():
    with pytest.raises(QueryError):
        nde(bow_model(), 0, 1, 1)
    with pytest.raises(QueryError):
        nde(mediation_model(), 1, 1, 1)  # contrast values must differ


# ---------------------------------------------------------------------------
# Compiled evaluation against the per-row oracle
# ---------------------------------------------------------------------------

def per_row_values(model, term):
    """The term's value on each nonzero-weight support row, by the per-row
    oracle, with the row weights."""
    return [
        (potential_response(model, u, term), p)
        for u, p in model.exogenous_support()
        if p != 0.0
    ]


def assert_exact_rows_equal(model, terms, rows):
    # exact_rows gives every term's per-row values in one call
    support, weights, columns = exact_rows(model, CtfQuery(tuple(terms)))
    assert support == [u for u, p in model.exogenous_support() if p != 0.0]
    for t, column in zip(terms, columns, strict=True):
        assert list(zip(column, weights.tolist())) == rows[t], str(t)


def per_row_probability(rows_by_term, values):
    # the per-row loop: rows in support order, terms in query order
    total = 0.0
    for cells in zip(*rows_by_term):
        if all(v == want for (v, _), want in zip(cells, values)):
            total += cells[0][1]
    return total


def per_row_distribution(model, terms, rows_by_term):
    doms = [model.diagram.domains[t.variable] for t in terms]
    probs = {row: 0.0 for row in itertools.product(*doms)}
    for cells in zip(*rows_by_term):
        probs[tuple(v for v, _ in cells)] += cells[0][1]
    return tuple(probs), tuple(probs.values())


def terms_with_two_regime_variables(diagram):
    """Every term whose regime fixes at most two other variables, each at
    every value of its domain."""
    out = []
    for v in diagram.variables:
        others = [a for a in diagram.variables if a != v]
        for k in (0, 1, 2):
            for regime_vars in itertools.combinations(others, k):
                doms = [diagram.domains[a] for a in regime_vars]
                for values in itertools.product(*doms):
                    out.append(response(v, dict(zip(regime_vars, values))))
    return out


BUILTIN_MODELS = [n for n in builtin_names() if isinstance(builtin(n), ScmModel)]


@pytest.mark.parametrize("name", BUILTIN_MODELS)
def test_compiled_engine_equals_per_row_oracle(name):
    model = builtin(name)
    terms = terms_with_two_regime_variables(model.diagram)
    rows = {t: per_row_values(model, t) for t in terms}
    assert_exact_rows_equal(model, terms, rows)
    for t in terms:
        for value in model.diagram.domains[t.variable]:
            got = exact_l3_probability(model, CtfQuery((t.with_value(value),)))
            assert got == per_row_probability([rows[t]], [value]), (name, str(t), value)
    domains = model.diagram.domains
    for a, b in itertools.combinations(terms, 2):
        dist = exact_distribution(model, CtfQuery((a, b)))
        expected = per_row_distribution(model, (a, b), (rows[a], rows[b]))
        assert (dist.support, dist.probabilities) == expected, (name, str(a), str(b))
        values = (domains[a.variable][0], domains[b.variable][-1])
        q = CtfQuery((a.with_value(values[0]), b.with_value(values[1])))
        assert exact_l3_probability(model, q) == per_row_probability(
            (rows[a], rows[b]), values
        ), (name, str(q))


def mediation_path_terms():
    """Terms of the mediation model whose regime feeds X to a subset of
    its children, optionally with Z fixed for Y, fully or on its edge."""
    out = []
    edge_values = [None, 0, 1]
    for variable in ("Z", "Y"):
        z_entries = [()] if variable == "Z" else [()] + [
            (RegimeEntry("Z", z, targets),)
            for z in (0, 1) for targets in (None, frozenset({"Y"}))
        ]
        for to_z, to_y in itertools.product(edge_values, edge_values):
            by_value: dict[int, set[str]] = {}
            for child, x in (("Z", to_z), ("Y", to_y)):
                if x is not None:
                    by_value.setdefault(x, set()).add(child)
            x_entries = tuple(
                RegimeEntry("X", x, frozenset(children)) for x, children in by_value.items()
            )
            for z in z_entries:
                out.append(PotentialResponse(variable, x_entries + z))
    return out


@pytest.mark.parametrize("direct_effect", [True, False])
def test_compiled_path_restricted_terms_equal_per_row_oracle(direct_effect):
    model = mediation_model(direct_effect=direct_effect)
    terms = mediation_path_terms()
    rows = {t: per_row_values(model, t) for t in terms}
    assert_exact_rows_equal(model, terms, rows)
    for t in terms:
        for value in (0, 1):
            got = exact_l3_probability(model, CtfQuery((t.with_value(value),)))
            assert got == per_row_probability([rows[t]], [value]), str(t)
    for a, b in itertools.combinations(terms, 2):
        dist = exact_distribution(model, CtfQuery((a, b)))
        expected = per_row_distribution(model, (a, b), (rows[a], rows[b]))
        assert (dist.support, dist.probabilities) == expected, (str(a), str(b))
    for x, xp in ((0, 1), (1, 0)):
        for y in (0, 1):
            nested = PotentialResponse("Y", (
                RegimeEntry("X", xp, frozenset({"Y"})),
                RegimeEntry("X", x, frozenset({"Z"})),
            ))
            do_x = response("Y", {"X": x})
            expected = (
                per_row_probability([per_row_values(model, nested)], [y])
                - per_row_probability([per_row_values(model, do_x)], [y])
            )
            assert nde(model, x, xp, y) == expected


@pytest.mark.parametrize("constraint", [L3_PENALTY, L2_PENALTY])
def test_compiled_fairness_probabilities_equal_per_row_oracle(constraint):
    queries = (
        query(response("Y", {"X": 1}, 1), response("Z", {"X": 1}, 0)),
        query(response("Y", {"X": 1}, 1), response("Z", {"X": 0}, 0)),
        query(response("Y", {"X": 0}, 1), response("Z", {"X": 0}, 0)),
        query(response("Y", {"X": 1}, 1)),
        query(response("Z", {"X": 1}, 0)),
        query(response("Z", {"X": 0}, 0)),
    )
    tables = sample_constrained_scms(
        constraint, 200, 0.01, seed=zlib.crc32(constraint.encode())
    )
    for scm, _ in tables:
        model = scm.to_model()
        oracle = {}
        for q in queries:
            rows = [per_row_values(model, t) for t in q.terms]
            oracle[q] = per_row_probability(rows, q.values())
            assert exact_l3_probability(model, q) == oracle[q], (scm.type_probs, str(q))
        a, b, j0, y1, z1, z0 = (oracle[q] for q in queries)
        assert mu_ctf(scm) == FairnessReport(
            abs(a - b), abs(y1 * z1 - y1 * z0), abs(a - j0), exact=True
        )


def missing_entry_model(weight_of_reaching_row):
    """X copies U; Y's table lacks the X=1 entry, which only the U=1 row
    reaches, with the given weight."""
    d = CausalDiagram(["X", "Y"], directed_edges=[("X", "Y")])
    mech = {
        "X": Mechanism.tabulate((), ("U",), (), ((0, 1),), lambda u: u),
        "Y": Mechanism(("X",), (), {(0,): 1}),
    }
    w = weight_of_reaching_row
    return ScmModel(d, ("U",), {"U": (0, 1)}, {(0,): 1.0 - w, (1,): w}, mech)


def test_regime_value_outside_domain_raises_query_error():
    bow = bow_model()
    with pytest.raises(QueryError, match="outside domain"):
        exact_l3_probability(bow, query(response("Y", {"X": 2}, 1)))
    with pytest.raises(QueryError, match="outside domain"):
        exact_distribution(bow, query(response("Y", {"X": 2})))


@pytest.mark.parametrize("weight", [0.5, 0.0])
def test_partial_table_is_rejected_at_compile(weight):
    model = missing_entry_model(weight)
    with pytest.raises(ModelError) as per_row:
        potential_response(model, (1,), response("Y"))
    # compiling raises whether or not a weighted row reaches the gap, and
    # even for a query that never reads Y
    for call in (
        lambda: exact_l3_probability(
            model, query(response("X", value=0), response("Y", value=1))
        ),
        lambda: exact_distribution(model, query(response("X"), response("Y"))),
        lambda: exact_rows(model, query(response("X"))),
    ):
        with pytest.raises(ModelError) as compiled:
            call()
        assert str(compiled.value) == str(per_row.value)
    assert "mechanism for 'Y' missing table row (1,)" in validate_scm(model)
    # the per-row oracle raises only where a row reaches the gap
    assert [potential_response(model, (u,), response("X")) for u in (0, 1)] == [0, 1]


def test_missing_mechanism_is_rejected_at_compile():
    d = CausalDiagram(["X", "Y"], directed_edges=[("X", "Y")])
    mech = {"X": Mechanism.tabulate((), ("U",), (), ((0, 1),), lambda u: u)}
    model = ScmModel(d, ("U",), {"U": (0, 1)}, {(0,): 0.5, (1,): 0.5}, mech)
    assert "no mechanism for 'Y'" in validate_scm(model)
    # even a query that never reads Y raises
    for q in (query(response("X", value=1)), query(response("Y", value=1))):
        with pytest.raises(ModelError, match="^no mechanism for 'Y'$"):
            exact_l3_probability(model, q)
    with pytest.raises(ModelError, match="^no mechanism for 'Y'$"):
        model.compile()


@pytest.mark.parametrize("parents, exogenous, message", [
    (("X",), ("U", "U_Q"), "mechanism for 'Y' reads undeclared exogenous 'U_Q'"),
    (("X", "W"), ("U",),
     "mechanism for 'Y' reads parents ('X', 'W'), diagram declares ('X',)"),
])
def test_undeclared_mechanism_input_is_rejected_at_compile(parents, exogenous, message):
    d = CausalDiagram(["X", "Y"], directed_edges=[("X", "Y")])
    mech = {
        "X": Mechanism.tabulate((), ("U",), (), ((0, 1),), lambda u: u),
        "Y": Mechanism.tabulate(
            parents, exogenous, [(0, 1)] * len(parents), [(0, 1)] * len(exogenous),
            lambda x, *rest: x,
        ),
    }
    model = ScmModel(d, ("U",), {"U": (0, 1)}, {(0,): 0.5, (1,): 0.5}, mech)
    # the fault alone, with no row count against an empty domain after it
    assert validate_scm(model) == [message]
    for q in (query(response("X", value=1)), query(response("Y", value=1))):
        with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
            exact_l3_probability(model, q)


def test_table_size_cap_raises_before_building():
    cap = f"exceeds the cap of {MAX_TABLE_ROWS}"
    with pytest.raises(ModelError, match=f"10000000 rows {cap}$"):
        independent_exogenous({f"U{i}": range(10) for i in range(7)})
    # Y's coded table would have 40**4 entries, although its dict is empty
    parents = ("A", "B", "C", "D")
    d = CausalDiagram(
        [*parents, "Y"],
        domains={v: range(40) for v in parents},
        directed_edges=[(p, "Y") for p in parents],
    )
    mech = {p: Mechanism((), ("U",), {(0,): 0, (1,): 1}) for p in parents}
    mech["Y"] = Mechanism(parents, (), {})
    names, doms, dist = independent_exogenous({"U": (0, 1)})
    with pytest.raises(ModelError, match=f"{40**4} entries .* {cap}$"):
        ScmModel(d, names, doms, dist, mech).compile()


def test_support_size_cap_raises_at_compile(monkeypatch):
    monkeypatch.setattr(models, "MAX_TABLE_ROWS", 3)
    with pytest.raises(ModelError, match="support of 4 rows exceeds the cap of 3"):
        bow_model().compile()


# ---------------------------------------------------------------------------
# Reweighted models against freshly built ones
# ---------------------------------------------------------------------------

def fresh(model, dist):
    return ScmModel(
        model.diagram, model.exogenous_vars, model.exogenous_domains, dist,
        model.mechanisms,
    )


def assert_same_results(model, other):
    """Every single term at every value, consecutive pairs valued and
    unvalued, and all terms' rows: ``==`` on both models."""
    terms = terms_with_two_regime_variables(model.diagram)
    domains = model.diagram.domains
    for t in terms:
        for value in domains[t.variable]:
            q = CtfQuery((t.with_value(value),))
            assert exact_l3_probability(model, q) == exact_l3_probability(other, q), str(q)
    for a, b in zip(terms, terms[1:]):
        q = CtfQuery((a, b))
        assert exact_distribution(model, q) == exact_distribution(other, q), str(q)
        valued = CtfQuery((a.with_value(domains[a.variable][0]),
                           b.with_value(domains[b.variable][-1])))
        assert exact_l3_probability(model, valued) == exact_l3_probability(other, valued)
    every_term = CtfQuery(tuple(terms))
    mine, theirs = exact_rows(model, every_term), exact_rows(other, every_term)
    assert mine[0] == theirs[0] and mine[2] == theirs[2]
    assert mine[1].tolist() == theirs[1].tolist()


@pytest.mark.parametrize("name", BUILTIN_MODELS)
def test_reweighted_model_equals_fresh_model(name):
    model = builtin(name)
    support = [u for u, _ in model.exogenous_support()]
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    # warm the base's memos, so the reweighted models read shared entries
    assert_same_results(model, fresh(model, model.exogenous_dist))
    reweighted = model
    for _ in range(2):  # the second reweights the first
        w = dict(zip(support, rng.dirichlet(np.ones(len(support))).tolist()))
        reweighted = reweighted.reweighted(w)
        assert reweighted.compile().rows is model.compile().rows
        assert_same_results(reweighted, fresh(model, w))
    # zero every other row: a different row set compiles afresh
    w = dict(zip(support, rng.dirichlet(np.ones(len(support))).tolist()))
    for u in support[::2]:
        w[u] = 0.0
    reweighted = model.reweighted(w)
    assert reweighted.compile().rows is not model.compile().rows
    assert_same_results(reweighted, fresh(model, w))


@pytest.mark.parametrize("p_x1", [0.0, 0.3, 1.0])
def test_reweighted_canonical_table_equals_fresh_model(p_x1):
    model = CanonicalScm(example2_scm().type_probs, p_x1).to_model()
    shared = p_x1 not in (0.0, 1.0)
    base = CanonicalScm(example2_scm().type_probs).to_model()
    assert (model.compile().rows is base.compile().rows) == shared
    assert_same_results(model, fresh(model, model.exogenous_dist))


def test_reweighted_model_rejects_invalid_queries_on_every_call():
    model = bow_model()
    support = [u for u, _ in model.exogenous_support()]
    reweighted = model.reweighted(dict(zip(support, (0.1, 0.2, 0.3, 0.4))))
    invalid = [
        (query(response("Y", value=2)), "outside domain of 'Y'"),
        (query(response("Y", value=[1])), r"value \[1\] outside domain of 'Y'"),
        (query(response("Y", {"X": 2}, 1)), "outside domain of 'X'"),
        (query(response("W", value=1)), "unknown variable 'W'"),
        (query(response("Y", {"W": 0}, 1)), "unknown regime variable 'W'"),
        # the one invalid query whose mask could be computed unvalidated
        (query(PotentialResponse("Y", (RegimeEntry("X", 1, frozenset({"X"})),), 1)),
         r"targets \['X'\] are not children of 'X'"),
    ]
    for warm in (False, True):
        if warm:  # valid queries fill the shared mask memo
            for m in (model, reweighted):
                for y in (0, 1):
                    exact_l3_probability(m, query(response("Y", {"X": 1}, y)))
                    exact_l3_probability(m, query(response("Y", value=y)))
        for q, message in invalid:
            for _ in range(2):
                with pytest.raises(QueryError, match=message):
                    exact_l3_probability(reweighted, q)


def test_reweighted_row_outside_domain_compiles_as_fresh_model():
    model = bow_model()
    support = [u for u, _ in model.exogenous_support()]
    bad = ("outside",) * len(support[0])
    w = {u: 0.2 for u in support} | {bad: 0.2}
    with pytest.raises(ModelError, match="outside the domain") as expected:
        fresh(model, w).compile()
    with pytest.raises(ModelError) as got:
        model.reweighted(w).compile()
    assert str(got.value) == str(expected.value)
    # zeroing the bad row gives a valid model, though its base is not
    zeroed = {u: 0.25 for u in support} | {bad: 0.0}
    assert_same_results(fresh(model, w).reweighted(zeroed), fresh(model, zeroed))


# ---------------------------------------------------------------------------
# Many queries in one call
# ---------------------------------------------------------------------------

def valued_queries(model):
    """Every single term at its first value, then consecutive pairs of
    terms at their first and last values."""
    terms = terms_with_two_regime_variables(model.diagram)
    domains = model.diagram.domains
    out = [CtfQuery((t.with_value(domains[t.variable][0]),)) for t in terms]
    for a, b in zip(terms, terms[1:]):
        out.append(CtfQuery((a.with_value(domains[a.variable][0]),
                             b.with_value(domains[b.variable][-1]))))
    return out


def test_add_rows_adds_in_the_order_given(monkeypatch):
    weights = [0.1, 0.2, 1e16, -1e16]
    assert add_rows(weights, []) == 0.0 and type(add_rows(weights, [])) is float
    # left to right, uncompensated: the order decides whether 0.1 is lost
    assert add_rows(weights, [2, 3, 0]) == 0.1
    assert add_rows(weights, [0, 2, 3]) == 0.0
    # the exact engine sums every query through it, once per query
    summed = []

    def counting(weights, rows):
        summed.append(list(rows))
        return add_rows(weights, rows)

    monkeypatch.setattr(engine, "add_rows", counting)
    model = builtin("bow")
    queries = [query(response("Y", {"X": x}, 1)) for x in (0, 1)]
    assert exact_l3_probabilities(model, queries) == [
        add_rows(model.compile().weights, rows) for rows in summed
    ]
    assert len(summed) == 2


@pytest.mark.parametrize("name", BUILTIN_MODELS)
def test_many_queries_in_one_call_equal_one_at_a_time(name):
    model = builtin(name)
    queries = valued_queries(model)
    middle = len(queries) // 2
    # a repeated query, the sure event, and an equal query built anew
    queries += [queries[0], CtfQuery(()), CtfQuery(queries[middle].terms)]
    # each side on its own fresh model, so that neither reads rows the
    # other stored
    together = exact_l3_probabilities(fresh(model, model.exogenous_dist), queries)
    alone = fresh(model, model.exogenous_dist)
    assert together == [exact_l3_probability(alone, q) for q in queries]
    assert together[-3] == together[0] and together[-1] == together[middle]
    assert together[-2] == exact_l3_probability(model, CtfQuery(()))
    assert exact_l3_probabilities(model, []) == []
    unvalued = CtfQuery((queries[0].terms[0].with_value(None),))
    for call in (
        lambda: exact_l3_probabilities(model, [queries[0], unvalued]),
        lambda: exact_l3_probability(model, unvalued),
    ):
        with pytest.raises(QueryError, match="must assign a value to every term"):
            call()


def test_a_query_that_fails_validation_midway_raises_on_every_call():
    model = fresh(bow_model(), bow_model().exogenous_dist)
    good = [query(response("Y", {"X": 1}, 1)), query(response("X", value=0))]
    bad = query(response("Y", value=2))
    for _ in range(3):
        with pytest.raises(QueryError, match="outside domain of 'Y'"):
            exact_l3_probabilities(model, [good[0], bad, good[1]])
        events = model.compile().events
        assert bad not in events
        assert good[0] in events  # the valid query before it was stored
    # the valid queries still evaluate, alone and together
    assert exact_l3_probabilities(model, good) == [
        exact_l3_probability(bow_model(), q) for q in good
    ]


def dirichlet_weights(model, seed):
    """Dirichlet weights on the model's support, keyed in support order."""
    support = [u for u, _ in model.exogenous_support()]
    rng = np.random.default_rng(seed)
    return dict(zip(support, rng.dirichlet(np.ones(len(support))).tolist()))


@pytest.mark.parametrize("name", BUILTIN_MODELS)
def test_reweighting_in_row_order_and_by_lookup_equals_fresh_model(name):
    model = builtin(name)
    rows = model.compile().rows
    w = dirichlet_weights(model, zlib.crc32(name.encode()))
    extra = ("extra",) * len(model.exogenous_vars)
    cases = {
        "row order": (w, True),
        "reversed": (dict(reversed(w.items())), True),
        "extra zero key": (w | {extra: 0.0}, True),
        "row left out": ({u: p for u, p in w.items() if u != rows[0]}, False),
        "zero in row order": (w | {rows[-1]: 0.0}, False),
    }
    for case, (dist, shared) in cases.items():
        reweighted = model.reweighted(dist)
        compiled = reweighted.compile()
        assert (compiled.rows is rows) == shared, case
        assert compiled.weights == [dist[u] for u in compiled.rows], case
        assert_same_results(reweighted, fresh(model, dist))


def test_canonical_table_weighs_each_row_by_its_own_type():
    # 16 distinct entries and p_x1 away from 1/2, so that any other
    # pairing of rows and entries gives some row another weight
    probs = tuple(k / 136 for k in range(1, 17))
    scm = CanonicalScm(probs, p_x1=0.3)
    dist = scm.to_model().exogenous_dist
    assert len(dist) == 32
    for ux, p_ux in ((0, 1.0 - 0.3), (1, 0.3)):
        for t in range(16):
            assert dist[(ux, t)] == p_ux * probs[t], (ux, t)
