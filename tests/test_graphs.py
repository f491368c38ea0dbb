import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctfrealize import CausalDiagram, GraphError
from ctfrealize.fixtures import (
    collider_hub_diagram,
    fan_diagram,
    hub_conflict_diagram,
    mab_template_diagram,
)


def chain():
    return CausalDiagram(["X", "A", "W"], directed_edges=[("X", "A"), ("A", "W")])


def test_children():
    g1 = hub_conflict_diagram()
    assert g1.children("T") == ("A",)
    single = CausalDiagram(["V"], allow_constant=["V"], domains={"V": [0]})
    assert single.children("V") == ()
    mab = mab_template_diagram()
    assert set(mab.children("X")) == {"D", "Y"}


def test_children_unknown_variable():
    with pytest.raises(GraphError):
        hub_conflict_diagram().children("Q")


def test_ancestors_descendants():
    g1 = hub_conflict_diagram()
    assert set(g1.ancestors("W")) == {"W", "A", "T"}
    edgeless = CausalDiagram(["V", "U"])
    assert edgeless.ancestors("V") == ("V",)
    assert chain().descendants("X") == ("X", "A", "W")


def test_ancestors_intersect_descendants_is_self():
    for g in (hub_conflict_diagram(), collider_hub_diagram(), fan_diagram()):
        for v in g.variables:
            assert set(g.ancestors(v)) & set(g.descendants(v)) == {v}
        # closures are memoized: asking again, or asking a fresh copy whose
        # caches are empty, gives the same answer
        for v in g.variables:
            fresh = g.mutilate()
            assert g.ancestors(v) == g.ancestors(v) == fresh.ancestors(v)
            assert g.descendants(v) == g.descendants(v) == fresh.descendants(v)


def test_mutilate_removes_edges():
    ch = collider_hub_diagram()
    cut = ch.mutilate(cut_into=["A"])
    assert ("T", "A") not in cut.directed_edges
    assert ("X", "A") not in cut.directed_edges
    assert ("A", "W") in cut.directed_edges
    # original untouched
    assert ("T", "A") in ch.directed_edges


def test_mutilate_identity_and_idempotence():
    g1 = hub_conflict_diagram()
    assert g1.mutilate() == g1
    once = g1.mutilate(cut_into=["T"], cut_out_of=["T"])
    assert once.mutilate(cut_into=["T"], cut_out_of=["T"]) == once
    # T fully isolated from A
    assert not any("T" in e for e in once.directed_edges)


def test_mutilate_commutes_for_disjoint_sets():
    g1 = hub_conflict_diagram()
    a_then_b = g1.mutilate(cut_into=["A"]).mutilate(cut_out_of=["X"])
    b_then_a = g1.mutilate(cut_out_of=["X"]).mutilate(cut_into=["A"])
    assert a_then_b == b_then_a


def test_topological_order():
    assert chain().topological_order() == ("X", "A", "W")
    g1 = hub_conflict_diagram()
    order = g1.topological_order()
    pos = {v: i for i, v in enumerate(order)}
    for a, b in g1.directed_edges:
        assert pos[a] < pos[b]
    assert sorted(order) == sorted(g1.variables)
    single = CausalDiagram(["V"])
    assert single.topological_order() == ("V",)


def test_cycle_rejected():
    with pytest.raises(GraphError):
        CausalDiagram(["A", "B"], directed_edges=[("A", "B"), ("B", "A")])


def test_self_loop_and_duplicate_domain_rejected():
    with pytest.raises(GraphError):
        CausalDiagram(["A"], directed_edges=[("A", "A")])
    with pytest.raises(GraphError):
        CausalDiagram(["A"], domains={"A": [0, 0]})
    with pytest.raises(GraphError):
        CausalDiagram(["A"], domains={"A": [0]})  # constant needs the flag
    with pytest.raises(GraphError, match="^domain of 'A' is empty$"):
        CausalDiagram(["A"], domains={"A": []}, allow_constant=["A"])  # one value, not none


def test_duplicate_names_and_bidirected_self_loop_rejected():
    with pytest.raises(GraphError, match="^duplicate variable names$"):
        CausalDiagram(["A", "B", "A"])
    with pytest.raises(GraphError, match="^bidirected self-loop on 'A'$"):
        CausalDiagram(["A", "B"], bidirected_edges=[("A", "B"), ("A", "A")])


@st.composite
def random_dags(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    names = [f"V{i}" for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                edges.append((names[i], names[j]))
    return CausalDiagram(names, directed_edges=edges)


@settings(max_examples=120, deadline=None)
@given(random_dags())
def test_topological_order_respects_edges_and_is_deterministic(g):
    order = g.topological_order()
    assert sorted(order) == sorted(g.variables)
    pos = {v: i for i, v in enumerate(order)}
    for a, b in g.directed_edges:
        assert pos[a] < pos[b]
    rebuilt = CausalDiagram(g.variables, g.domains, g.directed_edges)
    assert rebuilt.topological_order() == order


@settings(max_examples=120, deadline=None)
@given(random_dags())
def test_ancestor_descendant_duality(g):
    for a in g.variables:
        for b in g.variables:
            assert (a in g.ancestors(b)) == (b in g.descendants(a))


@settings(max_examples=120, deadline=None)
@given(random_dags(), st.data())
def test_cut_ancestors_match_mutilated_copy(g, data):
    into = data.draw(st.sets(st.sampled_from(g.variables)))
    out_of = data.draw(st.sets(st.sampled_from(g.variables)))
    cut = g.mutilate(cut_into=into, cut_out_of=out_of)
    for v in g.variables:
        first = g.ancestors(v, cut_into=into, cut_out_of=out_of)
        assert first == cut.ancestors(v)
        assert g.ancestors(v, cut_into=into, cut_out_of=out_of) == first
