import copy
import dataclasses
import os
import pickle
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from ctfrealize import (
    CausalDiagram,
    CtfQuery,
    PotentialResponse,
    QueryError,
    QuerySyntaxError,
    RealizabilityChecker,
    RegimeEntry,
    counterfactual_ancestors,
    exact_l3_probability,
    maximal_action_set,
    parse_query,
    query,
    response,
)
from ctfrealize.fixtures import (
    bow_diagram,
    bow_model,
    fan_diagram,
    hub_conflict_diagram,
    mediation_diagram,
)


def test_parse_ett_query():
    bow = bow_diagram()
    q = parse_query("P(Y[X=1], X)", bow)
    assert len(q.terms) == 2
    assert q.terms[0].variable == "Y"
    assert q.terms[0].assignment() == {"X": 1}
    assert q.terms[1].variable == "X"
    assert q.terms[1].regime == ()


def test_parse_path_restricted_terms():
    med = mediation_diagram()
    q = parse_query("P(Y[X=1->Y], X)", med)
    entry = q.terms[0].regime[0]
    assert entry.targets == frozenset({"Y"})
    assert not q.terms[0].is_full_do()
    q2 = parse_query("P(Y[X=1->Y, X=0->Z])", med)
    assert len(q2.terms[0].regime) == 2


def test_parse_values_and_braces():
    fan = fan_diagram()
    q = parse_query("P(Y[X=1]=1, Z[X=0]=0)", fan)
    assert q.is_valued()
    assert q.values() == (1, 0)
    q2 = parse_query("P(Y[X=1->{Y}])", fan)
    assert q2.terms[0].regime[0].targets == frozenset({"Y"})


def test_a_value_token_naming_a_string_and_an_int_is_refused():
    # with X's domain [0, "0"], the bare token 0 names both values: the
    # parser refuses to pick one, in a regime and in an event alike
    d = CausalDiagram(["X", "Y"], domains={"X": [0, "0"]}, directed_edges=[("X", "Y")])
    for text in ("P(Y[X=0])", "P(X=0)"):
        with pytest.raises(QueryError, match=r"ambiguous .* both '0' and 0"):
            parse_query(text, d)
    # a token that names one value either way still parses
    mixed = CausalDiagram(["X", "Y"], domains={"X": ["a", 1]}, directed_edges=[("X", "Y")])
    assert parse_query("P(Y[X=a], X=1)", mixed) == query(response("Y", {"X": "a"}), response("X", value=1))


def test_a_value_token_is_an_integer_only_in_int_spelling():
    # int() reads "1_0" as 10, "0_0" as 0 and "010" as 10; as value tokens
    # they are text, which names no value of an integer domain
    d = CausalDiagram(["X", "Y"], domains={"X": [0, 10]}, directed_edges=[("X", "Y")])
    for text in ("P(Y[X=1_0])", "P(Y[X=0_0])", "P(X=1_0)", "P(Y[X=010])"):
        with pytest.raises(QueryError, match="outside domain"):
            parse_query(text, d)
    assert parse_query("P(Y[X=10], X=0)", d) == query(
        response("Y", {"X": 10}), response("X", value=0)
    )
    # and such a token names a string value of that spelling, with no clash
    s = CausalDiagram(["X", "Y"], domains={"X": ["1_0", 10]}, directed_edges=[("X", "Y")])
    assert parse_query("P(Y[X=1_0])", s) == query(response("Y", {"X": "1_0"}))


def test_parse_errors():
    bow = bow_diagram()
    with pytest.raises(QueryError, match="self-intervention"):
        parse_query("P(Y[Y=1])", bow)
    with pytest.raises(QueryError, match="unknown"):
        parse_query("P(Q)", bow)
    with pytest.raises(QueryError, match="domain"):
        parse_query("P(Y[X=7])", bow)
    with pytest.raises(QuerySyntaxError) as err:
        parse_query("P(Y[X=1], )", bow)
    assert err.value.pos > 0
    with pytest.raises(QuerySyntaxError):
        parse_query("P(Y[X=1]", bow)


def test_the_empty_query_parses_and_round_trips():
    bow = bow_diagram()
    empty = CtfQuery(())
    for text in ("P()", "P( )", "  P()  "):
        assert parse_query(text, bow) == empty, text
    assert str(empty) == "P()"
    assert parse_query(str(empty), bow) == empty
    # only the wrapped form may be empty
    for text in ("", "P(,)", "P()X", "P(Y,)"):
        with pytest.raises(QuerySyntaxError):
            parse_query(text, bow)


def test_regime_entry_validation():
    with pytest.raises(QueryError, match="overlapping targets"):
        PotentialResponse(
            "Y",
            (
                RegimeEntry("X", 1, frozenset({"Y"})),
                RegimeEntry("X", 0, frozenset({"Y"})),
            ),
        )
    with pytest.raises(QueryError, match="both fully and per-edge"):
        PotentialResponse(
            "Y",
            (RegimeEntry("X", 1), RegimeEntry("X", 0, frozenset({"Z"}))),
        )
    # two full entries are no per-edge split, whether or not they agree
    for text in ("P(Y[X=1, X=0])", "P(Y[X=1, X=1])"):
        with pytest.raises(QueryError, match="regime assigns 'X' more than once"):
            parse_query(text, bow_diagram())


def test_regime_targets_of_any_collection_decide_like_a_frozenset():
    model = bow_model()
    checker = RealizabilityChecker(model.diagram, maximal_action_set(model.diagram))

    def ett(targets):
        y = PotentialResponse("Y", (RegimeEntry("X", 1, targets),), 1)
        return query(y, response("X", value=0))

    def verdict(q):
        # the checker takes plain value subscripts only, so a path-restricted
        # term is refused, with the same message for every container
        with pytest.raises(QueryError, match="path-restricted") as err:
            checker.realize(q)
        return str(err.value)

    reference = ett(frozenset({"Y"}))
    for targets in (["Y"], ("Y",), {"Y"}):
        q = ett(targets)
        assert q == reference and hash(q) == hash(reference)
        assert verdict(q) == verdict(reference)
        assert exact_l3_probability(model, q) == exact_l3_probability(model, reference)
    for targets in ("Y", [["Y"]]):
        with pytest.raises(QueryError, match="collection of child names"):
            RegimeEntry("X", 1, targets)


def _nested_term():
    return PotentialResponse(
        "Y", (RegimeEntry("X", 1), RegimeEntry("Z", 0, frozenset({"Y"}))), 1
    )


def test_term_hash_survives_pickle_and_copy_without_its_cache():
    t = _nested_term()
    h = hash(t)
    for other in (pickle.loads(pickle.dumps(t)), copy.copy(t), copy.deepcopy(t)):
        assert "_hash" not in other.__dict__
        assert other == t and hash(other) == h
    # the pickled state holds the fields only, also for the regime entries
    # (whose hashes the term's hash computed)
    for obj in (t, *t.regime):
        state = obj.__reduce_ex__(pickle.HIGHEST_PROTOCOL)[2]
        assert "_hash" in obj.__dict__ and "_hash" not in state
    # the cache is no field and shows in neither equality nor repr
    assert [f.name for f in dataclasses.fields(t)] == ["variable", "regime", "value"]
    assert repr(t) == repr(_nested_term()) and "_hash" not in repr(t)


def test_pickled_term_is_rehashed_under_another_hash_seed():
    t = _nested_term()
    hash(t)
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"  # not ours
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import pickle, sys\n"
        "from ctfrealize import PotentialResponse, RegimeEntry\n"
        "t = pickle.loads(sys.stdin.buffer.read())\n"
        "fresh = PotentialResponse('Y', (RegimeEntry('X', 1), "
        "RegimeEntry('Z', 0, frozenset({'Y'}))), 1)\n"
        "print(hash('Y'), t in {fresh})\n"
    )
    env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", code], input=pickle.dumps(t), env=env,
        capture_output=True, check=True, timeout=60,
    ).stdout.split()
    assert int(out[0]) != hash("Y")  # the subprocess hashes differently
    assert out[1] == b"True"


def test_ctf_ancestors_hub_conflict():
    g1 = hub_conflict_diagram()
    q = query(response("Z", {"X": 0}), response("W", {"T": 0}))
    anc = counterfactual_ancestors(q, g1)
    labels = sorted(str(a) for a in anc)
    assert labels == ["A", "A[T=0]", "T", "W[T=0]", "Z[X=0]"]


def test_ctf_ancestors_bow_ett():
    bow = bow_diagram()
    anc = counterfactual_ancestors(query(response("Y", {"X": 1}), response("X")), bow)
    assert sorted(str(a) for a in anc) == ["X", "Y[X=1]"]


def test_ctf_ancestors_unsubscripted_equals_plain_ancestors():
    g1 = hub_conflict_diagram()
    anc = counterfactual_ancestors(query(response("W")), g1)
    assert {a.variable for a in anc} == set(g1.ancestors("W"))
    assert all(a.regime == () for a in anc)


def test_normalization_drops_irrelevant_subscripts():
    fan = fan_diagram()
    q = query(response("Y", {"X": 1, "Z": 0}))  # Z is not an ancestor of Y
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        normalized = q.normalized(fan)
    assert any("irrelevant subscript" in str(w.message) for w in caught)
    assert normalized.terms[0].assignment() == {"X": 1}


def test_empty_query_is_the_sure_event():
    from ctfrealize import exact_l3_probability
    from ctfrealize.fixtures import bow_model

    assert exact_l3_probability(bow_model(), CtfQuery(())) == 1.0
