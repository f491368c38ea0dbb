import re

import pytest

from ctfrealize import (
    CausalDiagram,
    ExpandedDiagram,
    Mechanism,
    MediatorNode,
    MediatorStructureError,
    ScmModel,
    ctf_procedures,
    ctf_rand_action,
    response,
)
from ctfrealize.fixtures import (
    expanded_chained_mediators,
    expanded_elicit,
    expanded_two_mediators,
)
from ctfrealize.models import independent_exogenous

from reference import expanded_mediator_model, potential_response, verify_counterfactual_mediator


def test_elicit_environment_grants_whole_children_action():
    acts = ctf_procedures(expanded_elicit(), "X")
    assert set(acts) == {ctf_rand_action("X", ["Y", "Z"])}


def test_two_sibling_mediators():
    acts = ctf_procedures(expanded_two_mediators(), "X")
    assert set(acts) == {
        ctf_rand_action("X", ["Y"]),
        ctf_rand_action("X", ["Z", "T"]),
    }


def test_chained_mediators_grant_nested_actions():
    acts = ctf_procedures(expanded_chained_mediators(), "X")
    assert set(acts) == {
        ctf_rand_action("X", ["Y", "Z", "T"]),
        ctf_rand_action("X", ["Z", "T"]),
    }


def test_elicit_without_randomizable_grants_nothing():
    base = expanded_elicit().base
    expanded = ExpandedDiagram(base=base, elicit_natural=frozenset({"X"}))
    assert len(ctf_procedures(expanded, "X")) == 0


def test_sibling_mediators_sharing_a_child_rejected():
    base = CausalDiagram(
        ["X", "Y", "Z", "T"],
        directed_edges=[("X", "Y"), ("X", "Z"), ("X", "T")],
    )
    expanded = ExpandedDiagram(
        base=base,
        mediators=(
            MediatorNode("W1", "X", frozenset({"Y", "Z"})),
            MediatorNode("W2", "X", frozenset({"Z", "T"})),
        ),
    )
    with pytest.raises(MediatorStructureError, match="through both"):
        ctf_procedures(expanded, "X")


def test_mediator_descending_through_ordinary_variable_rejected():
    base = CausalDiagram(
        ["X", "A", "Y", "Z"],
        directed_edges=[("X", "A"), ("A", "Y"), ("A", "Z")],
        bidirected_edges=[("Y", "Z")],
    )
    expanded = ExpandedDiagram(
        base=base,
        mediators=(MediatorNode("W2", "A", frozenset()),),
    )
    # W2 hangs off A, which sits between X and the target: the chain
    # rooted at A is not a chain rooted at X, so asking for X's
    # procedures ignores it, and a mediator claiming to carry X cannot
    # root anywhere else
    acts = ctf_procedures(expanded, "X")
    assert len(acts) == 0
    bad = ExpandedDiagram(
        base=base,
        mediators=(
            MediatorNode("W1", "X", frozenset({"A"})),
            MediatorNode("W2", "W1", frozenset({"Y"})),
        ),
    )
    with pytest.raises(MediatorStructureError, match="outside its parent"):
        ctf_procedures(bad, "X")


def _forked(*mediators: MediatorNode) -> ExpandedDiagram:
    base = CausalDiagram(
        ["X", "Y", "Z", "T"],
        directed_edges=[("X", "Y"), ("X", "Z"), ("X", "T")],
    )
    return ExpandedDiagram(base=base, mediators=mediators)


def test_sibling_mediators_with_nested_served_sets_rejected():
    # Z perceives X through both siblings, although W2's set nests in W1's:
    # only a chained W2 (parent W1) may serve a subset of W1's children
    expanded = _forked(
        MediatorNode("W1", "X", frozenset({"Y", "Z"})),
        MediatorNode("W2", "X", frozenset({"Z"})),
    )
    with pytest.raises(MediatorStructureError, match=r"\['Z'\] perceive 'X' through both"):
        ctf_procedures(expanded, "X")


def test_mediator_with_unknown_parent_rejected():
    expanded = _forked(MediatorNode("W1", "Xx", frozenset({"Y"})))
    with pytest.raises(MediatorStructureError, match="parent 'Xx', which is neither"):
        ctf_procedures(expanded, "X")


def test_unknown_decision_variable_rejected():
    with pytest.raises(MediatorStructureError, match="^unknown variable 'Q'$"):
        ctf_procedures(expanded_elicit(), "Q")


def test_mediator_serving_a_non_child_rejected():
    base = CausalDiagram(["X", "Y", "Z"], directed_edges=[("X", "Y"), ("Y", "Z")])
    expanded = ExpandedDiagram(
        base=base, mediators=(MediatorNode("W1", "X", frozenset({"Y", "Z"})),)
    )
    with pytest.raises(MediatorStructureError, match=re.escape(
        "mediator 'W1' serves ['Z'], which are not children of 'X'"
    )):
        ctf_procedures(expanded, "X")


def test_mediator_chain_cycle_rejected():
    expanded = _forked(
        MediatorNode("W1", "W2", frozenset({"Y"})),
        MediatorNode("W2", "W1", frozenset({"Y"})),
    )
    with pytest.raises(MediatorStructureError, match="^mediator chain cycle at 'W1'$"):
        ctf_procedures(expanded, "X")


def test_mediator_name_clash_rejected():
    repeated = _forked(
        MediatorNode("W1", "X", frozenset({"Y"})),
        MediatorNode("W1", "X", frozenset({"Z"})),
    )
    with pytest.raises(MediatorStructureError, match="name 'W1' is already taken"):
        ctf_procedures(repeated, "X")
    variable = _forked(MediatorNode("T", "X", frozenset({"Y"})))
    with pytest.raises(MediatorStructureError, match="name 'T' is already taken"):
        ctf_procedures(variable, "X")


def test_non_invertible_mediator_grants_no_action():
    exp = expanded_two_mediators()
    weakened = ExpandedDiagram(
        base=exp.base,
        mediators=(
            MediatorNode("W1", "X", frozenset({"Y"}), invertible=False),
            exp.mediators[1],
        ),
    )
    acts = ctf_procedures(weakened, "X")
    assert set(acts) == {ctf_rand_action("X", ["Z", "T"])}


# ---------------------------------------------------------------------------
# Verifying mediator conditions on explicit expanded models
# ---------------------------------------------------------------------------

def test_identity_copy_is_a_mediator():
    model = expanded_mediator_model()
    assert verify_counterfactual_mediator(model, "W1", "X", "Z")
    assert verify_counterfactual_mediator(model, "W2", "W1", "T")
    assert verify_counterfactual_mediator(model, "W2", "W1", "B")


def test_collapsing_mechanism_is_not_a_mediator():
    d = CausalDiagram(["X", "W", "Y"], directed_edges=[("X", "W"), ("W", "Y")])
    names, doms, dist = independent_exogenous({"U_X": (0, 1), "U_Y": (0, 1)})
    mech = {
        "X": Mechanism.tabulate((), ("U_X",), (), ((0, 1),), lambda u: u),
        "W": Mechanism.tabulate(("X",), (), ((0, 1),), (), lambda x: 0),
        "Y": Mechanism.tabulate(("W",), ("U_Y",), ((0, 1),), ((0, 1),),
                                lambda w, u: w ^ u),
    }
    model = ScmModel(d, names, doms, dist, mech)
    assert not verify_counterfactual_mediator(model, "W", "X", "Y")


def test_outcome_peeking_past_the_class_is_not_a_mediator():
    # w has two values per x-class and y depends on which one: condition
    # on class-determinism fails
    d = CausalDiagram(["X", "W", "Y"], directed_edges=[("X", "W"), ("W", "Y")])
    names, doms, dist = independent_exogenous({"U_X": (0, 1), "U_W": (0, 1)})
    mech = {
        "X": Mechanism.tabulate((), ("U_X",), (), ((0, 1),), lambda u: u),
        "W": Mechanism.tabulate(("X",), ("U_W",), ((0, 1),), ((0, 1),),
                                lambda x, u: 2 * x + u),
        "Y": Mechanism.tabulate(("W",), (), ((0, 1, 2, 3),), (),
                                lambda w: w % 2),
    }
    d = CausalDiagram(
        ["X", "W", "Y"],
        domains={"X": (0, 1), "W": (0, 1, 2, 3), "Y": (0, 1)},
        directed_edges=[("X", "W"), ("W", "Y")],
    )
    model = ScmModel(d, names, doms, dist, mech)
    assert not verify_counterfactual_mediator(model, "W", "X", "Y")


@pytest.mark.parametrize("y_fn", [
    lambda w, x, u: w ^ u,
    lambda w, x, u: w ^ x ^ u,
], ids=["y-ignores-x", "y-reads-x"])
def test_mediator_beside_a_direct_edge(y_fn):
    # X->W->Y and X->Y: forcing W in X's class must equal forcing X into W
    # while Y's direct X input keeps its fixed value
    d = CausalDiagram(["X", "W", "Y"],
                      directed_edges=[("X", "W"), ("W", "Y"), ("X", "Y")])
    names, doms, dist = independent_exogenous({"U_X": (0, 1), "U_Y": (0, 1)})
    mech = {
        "X": Mechanism.tabulate((), ("U_X",), (), ((0, 1),), lambda u: u),
        "W": Mechanism.tabulate(("X",), (), ((0, 1),), (), lambda x: x),
        "Y": Mechanism.tabulate(("W", "X"), ("U_Y",), ((0, 1), (0, 1)), ((0, 1),),
                                y_fn),
    }
    model = ScmModel(d, names, doms, dist, mech)
    assert verify_counterfactual_mediator(model, "W", "X", "Y")


def test_forcing_equivalence_holds_for_every_unit_and_class_member():
    # the check inside verify_counterfactual_mediator is exhaustive; spot
    # check the equality it asserts, term by term
    model = expanded_mediator_model()
    for u, _ in model.exogenous_support():
        for x in (0, 1):
            via_w = potential_response(model, u, response("Z", {"W1": x}))
            via_x = potential_response(model, u, response("Z", {"X": x}))
            assert via_w == via_x
