import json

import pytest

from ctfrealize import models
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
