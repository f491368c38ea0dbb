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
    CtfQuery,
    PotentialResponse,
    QueryError,
    QuerySyntaxError,
    RegimeEntry,
    counterfactual_ancestors,
    parse_query,
    query,
    response,
)
from ctfrealize.fixtures import (
    bow_diagram,
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
