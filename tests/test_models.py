import hashlib
import json
import re

import pytest

from ctfrealize import fairness, models
from ctfrealize import (
    CausalDiagram,
    ExpandedDiagram,
    Mechanism,
    ModelError,
    ScmModel,
    validate_scm,
)
from ctfrealize.bandits import example3_problem
from ctfrealize.fixtures import (
    builtin,
    builtin_model,
    builtin_names,
    diagram_from_dict,
    expanded_from_dict,
    mediation_model,
    model_from_dict,
)
from ctfrealize.models import independent_exogenous

from reference import diagram_to_dict, expanded_to_dict, model_to_dict


def test_example3_model_valid():
    assert validate_scm(example3_problem().model) == []


def test_all_builtin_models_valid():
    from ctfrealize.fixtures import builtin_diagram, builtin_model
    from ctfrealize.errors import ModelError

    for name in builtin_names():
        try:
            model = builtin_model(name)
        except ModelError:
            builtin_diagram(name)  # graph-only fixture
            continue
        assert validate_scm(model) == [], name


def test_mechanism_reading_non_parent_is_violation():
    d = CausalDiagram(["X", "Y"], directed_edges=[("X", "Y")])
    names, doms, dist = independent_exogenous({"U": (0, 1)})
    mech = {
        "X": Mechanism.tabulate((), ("U",), (), ((0, 1),), lambda u: u),
        # declares no parents although the diagram says X -> Y
        "Y": Mechanism.tabulate((), ("U",), (), ((0, 1),), lambda u: u),
    }
    model = ScmModel(d, names, doms, dist, mech)
    problems = validate_scm(model)
    assert any("reads parents" in p for p in problems)


def test_exogenous_sum_violation():
    d = CausalDiagram(["X"], directed_edges=[])
    mech = {"X": Mechanism.tabulate((), ("U",), (), ((0, 1),), lambda u: u)}
    model = ScmModel(d, ("U",), {"U": (0, 1)}, {(0,): 0.5, (1,): 0.4}, mech)
    problems = validate_scm(model)
    assert any("sums to" in p for p in problems)


def test_missing_table_row_is_violation():
    d = CausalDiagram(["X", "Y"], directed_edges=[("X", "Y")])
    names, doms, dist = independent_exogenous({"U": (0, 1)})
    mech = {
        "X": Mechanism.tabulate((), ("U",), (), ((0, 1),), lambda u: u),
        "Y": Mechanism(("X",), (), {(0,): 0}),  # missing the X=1 row
    }
    model = ScmModel(d, names, doms, dist, mech)
    assert any("missing table row" in p for p in validate_scm(model))


def test_bidirected_mismatch_is_violation():
    # shared exogenous input without a declared bidirected edge
    d = CausalDiagram(["X", "Y"], directed_edges=[("X", "Y")])
    names, doms, dist = independent_exogenous({"U": (0, 1)})
    mech = {
        "X": Mechanism.tabulate((), ("U",), (), ((0, 1),), lambda u: u),
        "Y": Mechanism.tabulate(("X",), ("U",), ((0, 1),), ((0, 1),),
                                lambda x, u: x ^ u),
    }
    model = ScmModel(d, names, doms, dist, mech)
    assert any("bidirected" in p for p in validate_scm(model))


def test_out_of_domain_output_is_violation():
    d = CausalDiagram(["X"], directed_edges=[])
    names, doms, dist = independent_exogenous({"U": (0, 1)})
    mech = {"X": Mechanism.tabulate((), ("U",), (), ((0, 1),), lambda u: u + 5)}
    model = ScmModel(d, names, doms, dist, mech)
    assert any("outside its domain" in p for p in validate_scm(model))


def _one_variable_model(dist, domain=(0, 1), table=None):
    d = CausalDiagram(["X"], directed_edges=[])
    table = {(u,): u for u in domain} if table is None else table
    return ScmModel(d, ("U",), {"U": domain}, dist, {"X": Mechanism((), ("U",), table)})


def test_dependent_unshared_inputs_induce_a_bidirected_edge():
    # X reads only U1 and Y only U2, but U1 and U2 agree 80% of the time
    d = CausalDiagram(["X", "Y"], directed_edges=[])
    dist = {(0, 0): 0.4, (1, 1): 0.4, (0, 1): 0.1, (1, 0): 0.1}
    mech = {
        "X": Mechanism((), ("U1",), {(0,): 0, (1,): 1}),
        "Y": Mechanism((), ("U2",), {(0,): 0, (1,): 1}),
    }
    model = ScmModel(d, ("U1", "U2"), {"U1": (0, 1), "U2": (0, 1)}, dist, mech)
    assert models.derived_bidirected_edges(model) == frozenset({frozenset({"X", "Y"})})
    assert validate_scm(model) == [
        "declared bidirected edges [] differ from those induced by "
        "shared/dependent exogenous inputs ['X<->Y']"
    ]


def test_validate_scm_names_each_broken_table():
    uniform = {(0,): 0.5, (1,): 0.5}
    stray = _one_variable_model(uniform)
    stray.mechanisms["Q"] = Mechanism((), ("U",), {(0,): 0, (1,): 1})
    assert validate_scm(stray) == ["mechanism for undeclared variable 'Q'"]
    extra_row = _one_variable_model(uniform, table={(0,): 0, (1,): 1, (2,): 0})
    assert validate_scm(extra_row) == ["mechanism for 'X' has 3 rows, expected 2"]
    assert validate_scm(_one_variable_model({**uniform, (1, 0): 0.0})) == [
        "exogenous assignment (1, 0) has wrong arity"
    ]
    assert validate_scm(_one_variable_model({(0,): 0.5, (2,): 0.5})) == [
        "exogenous value 2 outside domain of 'U'"
    ]
    assert validate_scm(_one_variable_model({(0,): 1.5, (1,): -0.5})) == [
        "exogenous probability 1.5 outside [0, 1]",
        "exogenous probability -0.5 outside [0, 1]",
    ]


def test_a_row_of_wrong_arity_still_counts_its_weight():
    # the rows sum to 1, so the arity is the only problem
    assert validate_scm(_one_variable_model({(0,): 0.5, (1, 0): 0.5})) == [
        "exogenous assignment (1, 0) has wrong arity"
    ]
    assert validate_scm(_one_variable_model({(0,): 1.0, (1, 0): 1.5})) == [
        "exogenous assignment (1, 0) has wrong arity",
        "exogenous probability 1.5 outside [0, 1]",
        "exogenous distribution sums to 2.5, not 1",
    ]


def test_compile_refuses_what_it_cannot_code(monkeypatch):
    uniform = {(0,): 0.5, (1,): 0.5}
    outside = _one_variable_model(uniform, table={(0,): 0, (1,): 7})
    with pytest.raises(ModelError, match=re.escape(
        "mechanism (parents (), exogenous ('U',)) outputs 7 outside its domain"
    )):
        outside.compile()
    # a zero-weight row of the wrong arity is skipped; a weighted one is not
    assert len(_one_variable_model({**uniform, (0, 1): 0.0}).compile().rows) == 2
    with pytest.raises(ModelError, match="^an exogenous assignment of nonzero "
                       "weight has the wrong arity$"):
        _one_variable_model({(0,): 0.5, (0, 1): 0.5}).compile()
    monkeypatch.setattr(models, "MAX_TABLE_ROWS", 1)
    with pytest.raises(ModelError, match=re.escape(
        "exogenous support of 2 rows exceeds the cap of 1"
    )):
        _one_variable_model(uniform).compile()


def test_reweighted_tables_refuse_a_distribution_past_the_cap(monkeypatch):
    compiled = _one_variable_model({(0,): 0.5, (1,): 0.5}).compile()
    assert compiled.reweighted({(0,): 0.25, (1,): 0.75}).weights == [0.25, 0.75]
    monkeypatch.setattr(models, "MAX_TABLE_ROWS", 1)
    assert compiled.reweighted({(0,): 0.25, (1,): 0.75}) is None


def test_exogenous_names_must_differ_from_endogenous_names():
    d = CausalDiagram(["X"], directed_edges=[])
    with pytest.raises(ModelError, match="^exogenous names collide with endogenous names$"):
        ScmModel(d, ("X",), {"X": (0, 1)}, {(0,): 0.5, (1,): 0.5}, {})


def test_independent_weights_must_match_the_domain():
    with pytest.raises(ModelError, match="^weights for 'U' do not match its domain$"):
        independent_exogenous({"U": (0, 1)}, {"U": (1.0,)})


def test_the_support_is_sorted_once_per_model(monkeypatch):
    # compile, selection_table and every later call share one sort, and a
    # caller that edits the returned list leaves the model's order intact
    keyed = []
    sort_key = models._sort_key
    monkeypatch.setattr(models, "_sort_key", lambda u: keyed.append(u) or sort_key(u))
    model = builtin_model("fan")
    rows = len(model.exogenous_dist)
    model.compile()
    model.selection_table()
    first = model.exogenous_support()
    first.reverse()
    assert model.exogenous_support() == first[::-1]
    assert len(keyed) == rows

    # a reweighted model sorts its own weights on first use, not before
    weights = dict(zip(model.exogenous_dist, reversed(model.exogenous_dist.values())))
    reweighted = model.reweighted(weights)
    assert len(keyed) == rows
    built = ScmModel(model.diagram, model.exogenous_vars, model.exogenous_domains,
                     weights, model.mechanisms)
    assert reweighted.exogenous_support() == built.exogenous_support() != first[::-1]
    reweighted.exogenous_support()
    assert len(keyed) == 3 * rows


def test_mechanism_total_lookup_errors_on_missing_key():
    m = Mechanism(("X",), (), {(0,): 1})
    with pytest.raises(ModelError):
        m((1,), ())


@pytest.mark.parametrize("name", builtin_names())
def test_fixture_round_trip_preserves_model(name):
    # builder -> document -> JSON text -> document -> loader gives the
    # builder's fixture back, for models, graph-only and expanded diagrams
    fixture = builtin(name)
    if isinstance(fixture, ScmModel):
        doc = json.loads(json.dumps(model_to_dict(fixture, name)))
        back = model_from_dict(doc)
        assert back.diagram == fixture.diagram
        assert back.exogenous_dist == fixture.exogenous_dist
        assert back.mechanisms.keys() == fixture.mechanisms.keys()
        for v, m in fixture.mechanisms.items():
            b = back.mechanisms[v]
            assert (b.parents, b.exogenous, b.table) == (m.parents, m.exogenous, m.table), v
        assert diagram_from_dict(doc) == fixture.diagram
    elif isinstance(fixture, ExpandedDiagram):
        back = expanded_from_dict(json.loads(json.dumps(expanded_to_dict(fixture, name))))
        assert back.base == fixture.base
        assert back.mediators == fixture.mediators
        assert back.elicit_natural == fixture.elicit_natural
        assert back.randomizable == fixture.randomizable
    else:
        doc = json.loads(json.dumps(diagram_to_dict(fixture, name)))
        assert diagram_from_dict(doc) == fixture


def _model_text(model: ScmModel) -> str:
    """Everything that makes the model the model, in a fixed order: the
    diagram, the exogenous variables, domains and support (floats as
    ``float.hex``), and each mechanism as a map from (sorted
    (parent, value) pairs, exogenous values) to its output, so the order
    a mechanism lists its parents in does not count."""
    d = model.diagram
    mechanisms = []
    for v in sorted(model.mechanisms):
        m = model.mechanisms[v]
        k = len(m.parents)
        table = sorted(
            (repr((tuple(sorted(zip(m.parents, key[:k]))), key[k:])), repr(out))
            for key, out in m.table.items()
        )
        mechanisms.append((v, sorted(m.parents), m.exogenous, table))
    return repr((
        d.variables,
        sorted(d.domains.items()),
        sorted(d.directed_edges),
        sorted(sorted(e) for e in d.bidirected_edges),
        model.exogenous_vars,
        [(u, model.exogenous_domains[u]) for u in model.exogenous_vars],
        [(u, p.hex()) for u, p in model.exogenous_support()],
        mechanisms,
    ))


# sha256 of _model_text for each shipped model
SHIPPED_MODEL_DIGESTS = {
    "admissions": "beb2f1d9ab99c13dd12eab61393de4d49de55b38078b9ee951eaf348a77735d0",
    "bandit_example": "9f3162a8f2b29255dd6c28793f3fda6bc4de807eb9d1b6c7697f41c292561c90",
    "bow": "622a16f1a2aa55e61ed2f406537ea4913ba60d027829292e5694d14fe128810f",
    "chain": "9d1ca9489736073e49ff17dd608a3d1069ad2158d653bbaa6ff183799ffa6e88",
    "collider_hub": "58a2bbf7d7dd8180181446394be29c225bd42107d5276d62c19fd6dca2e0dbab",
    "fan": "757d0c041f29003be08f2870696a4c70e9e0be10e5adac0aa3308847229a70b9",
    "hub_conflict": "061f8a0479636cb50e396c3a110e618f6ad1f798d9e424424a6f85ea2baf3185",
    "hub_split": "ee67679dc137ea1d934b42f3bdfc6ff22c4915c009719324c7a04420684d3007",
    "mediation": "b957a7d75ff3b6e7919ec05dced5aba8c83b854c77be35ebdf86852332f343dd",
    "mediation(direct_effect=False)":
        "06d802fd3a72196a5510d0b0e91a5f0fd65c35184db8aca68d4e3a7aa4e2c07d",
    "fairness._BASE": "2e1c4b92a2d19149230bc9ceb4931b84a3541eeae1c75f2a8ab8d0a382f0f0d8",
}


def _shipped_models() -> dict[str, ScmModel]:
    out = {
        name: fixture for name in builtin_names()
        if isinstance(fixture := builtin(name), ScmModel)
    }
    out["mediation(direct_effect=False)"] = mediation_model(direct_effect=False)
    out["fairness._BASE"] = fairness._BASE
    return out


def test_the_shipped_models_are_pinned():
    # each shipped model, its mechanism tables included, is the model
    # pinned here: a builder may change how it spells a model, not the
    # model it builds
    digests = {
        name: hashlib.sha256(_model_text(model).encode()).hexdigest()
        for name, model in _shipped_models().items()
    }
    assert digests == SHIPPED_MODEL_DIGESTS
