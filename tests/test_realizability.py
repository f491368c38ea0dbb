import hashlib
import itertools
import random
import warnings

import pytest

from ctfrealize import (
    ActionSet,
    ActionError,
    CausalDiagram,
    ContainmentViolation,
    CtfQuery,
    NotRealizable,
    QueryError,
    RealizabilityChecker,
    RealizationPlan,
    ctf_rand_action,
    ctf_realize,
    maximal_action_set,
    parse_action_set,
    parse_query,
    query,
    rand_action,
    read_action,
    realizable_by_criterion,
    response,
    select,
)
from ctfrealize.realizability import (
    CTF_RAND,
    NATURAL,
    NATURAL_CONFLICT_CTF,
    NATURAL_CONFLICT_RAND,
    NO_ACTION,
    OUTPUT_ERASED,
    READ_UNAVAILABLE,
    VALUE_CONFLICT_CTF,
    VALUE_CONFLICT_RAND,
    Conflict,
)
from ctfrealize.errors import QuerySyntaxError
from ctfrealize.queries import normalize_term
from ctfrealize.fixtures import (
    builtin_diagram,
    builtin_names,
    bow_diagram,
    chain_diagram,
    collider_hub_diagram,
    fan_diagram,
    hub_conflict_diagram,
    hub_split_diagram,
    mab_template_diagram,
)

from enumeration import enumerate_mixed_graphs, enumerate_terms, queries_of_size


def reads_and_select(diagram):
    return [select(), *(read_action(v) for v in diagram.variables)]


# ---------------------------------------------------------------------------
# Worked examples (golden verdicts)
# ---------------------------------------------------------------------------

def test_ett_realizable_on_bow():
    bow = bow_diagram()
    plan = ctf_realize(parse_query("P(Y[X=1], X)", bow), bow, maximal_action_set(bow))
    assert isinstance(plan, RealizationPlan)
    acts = plan.required_actions()
    assert acts == ((ctf_rand_action("X", ["Y"]), 1),)


def test_ett_fails_with_whole_variable_randomization_only():
    bow = bow_diagram()
    actions = ActionSet(reads_and_select(bow) + [rand_action("X")], bow)
    verdict = ctf_realize(parse_query("P(Y[X=1], X)", bow), bow, actions)
    assert isinstance(verdict, NotRealizable)
    assert verdict.conflict.failure == OUTPUT_ERASED
    assert verdict.conflict.variable == "X"


def test_sufficiency_joint_fails_on_bow():
    bow = bow_diagram()
    verdict = ctf_realize(
        parse_query("P(Y[X=1], X, Y)", bow), bow, maximal_action_set(bow)
    )
    assert isinstance(verdict, NotRealizable)
    assert verdict.conflict.failure == NATURAL_CONFLICT_CTF
    assert verdict.conflict.existing == 1 and verdict.conflict.required == NATURAL
    assert verdict.criterion_pair is not None
    assert {t.variable for t in verdict.criterion_pair} == {"Y"}


def test_hub_query_fails_on_shared_hub_but_not_on_split(monkeypatch):
    # the criterion witness is computed on first access, not by realize
    calls = []

    def counting(q, diagram):
        calls.append(q)
        return realizable_by_criterion(q, diagram)

    monkeypatch.setattr(
        "ctfrealize.realizability.realizable_by_criterion", counting
    )
    q_text = "P(Z[X=0], W[T=0])"
    g1 = hub_conflict_diagram()
    verdict = ctf_realize(parse_query(q_text, g1), g1, maximal_action_set(g1))
    assert isinstance(verdict, NotRealizable)
    assert calls == []
    a, b = verdict.criterion_pair
    assert len(calls) == 1
    assert (a, b) == realizable_by_criterion(verdict.query, g1)[1]
    assert sorted(str(t) for t in (a, b)) == ["A", "A[T=0]"]
    assert a.variable == b.variable == "A"
    assert verdict.criterion_pair == (a, b) and len(calls) == 1
    g2 = hub_split_diagram()
    plan = ctf_realize(parse_query(q_text, g2), g2, maximal_action_set(g2))
    assert isinstance(plan, RealizationPlan)


def test_fan_three_regimes_need_the_fine_grained_action():
    fan = fan_diagram()
    q = parse_query("P(Y[X=1], Z[X=0], W[X=1])", fan)
    coarse = ActionSet(
        reads_and_select(fan) + [rand_action("X"), ctf_rand_action("X", ["Z", "W"])],
        fan,
    )
    verdict = ctf_realize(q, fan, coarse)
    assert isinstance(verdict, NotRealizable)
    assert verdict.conflict.failure == VALUE_CONFLICT_CTF
    fine = coarse.union(ActionSet([ctf_rand_action("X", ["Z"])]))
    plan = ctf_realize(q, fan, fine)
    assert isinstance(plan, RealizationPlan)
    performed = {str(a) for a, _ in plan.required_actions()}
    assert performed == {"Rand(X)", "CtfRand(X->{W,Z})", "CtfRand(X->Z)"}


def test_collider_hub_two_regimes_clash_at_the_hub_input():
    ch = collider_hub_diagram()
    verdict = ctf_realize(
        parse_query("P(W[X=1,T=0], Z[X=0])", ch), ch, maximal_action_set(ch)
    )
    assert isinstance(verdict, NotRealizable)
    assert verdict.conflict.failure == VALUE_CONFLICT_CTF
    assert verdict.conflict.variable == "X"
    assert verdict.conflict.existing == 1 and verdict.conflict.required == 0
    a, b = verdict.criterion_pair
    assert a.variable == b.variable == "A"


def test_fpci_joint_never_realizable():
    for g in (bow_diagram(), chain_diagram(), fan_diagram()):
        q = query(response("Y", {"X": 0}), response("Y", {"X": 1}))
        verdict = ctf_realize(q, g, maximal_action_set(g))
        assert isinstance(verdict, NotRealizable)
        ok, pair = realizable_by_criterion(q, g)
        assert not ok and {str(t) for t in pair} == {"Y[X=0]", "Y[X=1]"}


# ---------------------------------------------------------------------------
# Criterion
# ---------------------------------------------------------------------------

def test_criterion_examples():
    g1 = hub_conflict_diagram()
    ok, pair = realizable_by_criterion(
        query(response("Z", {"X": 0}), response("W", {"T": 0})), g1
    )
    assert not ok
    assert sorted(str(t) for t in pair) == ["A", "A[T=0]"]

    fan = fan_diagram()
    ok, pair = realizable_by_criterion(
        query(response("Y", {"X": 0}), response("Z", {"X": 1}),
              response("W", {"X": 0})),
        fan,
    )
    assert ok and pair is None


# enumerated terms carry irrelevant subscripts, whose drop warns
@pytest.mark.filterwarnings("ignore:dropping irrelevant subscript")
def test_criterion_matches_algorithm_on_three_node_graphs():
    # the acceptance suite does <= 4 nodes; keep a fast version here
    for diagram in enumerate_mixed_graphs(3):
        checker = RealizabilityChecker(diagram, maximal_action_set(diagram))
        terms = enumerate_terms(diagram)
        for size in (1, 2):
            for q in queries_of_size(terms, size):
                algo = bool(checker.realize(q))
                crit, _ = realizable_by_criterion(q, diagram)
                assert algo == crit, f"{q} on {diagram}"


# ---------------------------------------------------------------------------
# Action sets
# ---------------------------------------------------------------------------

def test_maximal_action_set_contents():
    bow = bow_diagram()
    acts = {str(a) for a in maximal_action_set(bow)}
    assert acts == {"Select", "Read(X)", "Read(Y)", "CtfRand(X->Y)"}
    edgeless = maximal_action_set(
        hub_conflict_diagram().mutilate(
            cut_out_of=hub_conflict_diagram().variables
        )
    )
    assert all(a.kind in ("select", "read") for a in edgeless)
    mab = maximal_action_set(mab_template_diagram())
    assert ctf_rand_action("X", ["D"]) in mab
    assert ctf_rand_action("X", ["Y"]) in mab


def test_containment_violation_rejected():
    fan = fan_diagram()
    with pytest.raises(ContainmentViolation):
        ActionSet(
            [ctf_rand_action("X", ["Y", "Z"]), ctf_rand_action("X", ["Z", "W"])],
            fan,
        )


def test_every_action_variable_must_be_in_the_diagram():
    fan = fan_diagram()
    for action in (rand_action("Q"), read_action("Q"), ctf_rand_action("Q", ["Y"])):
        with pytest.raises(ActionError, match="unknown variable 'Q'"):
            ActionSet([select(), action], fan)
    # without a diagram there is nothing to check against
    assert len(ActionSet([rand_action("Q")])) == 1


def test_the_checker_rejects_actions_outside_its_diagram():
    # a union is built without a diagram; the checker checks its actions
    # at the first decision (not when it is built), and on every later one
    bow = bow_diagram()
    q = parse_query("P(Y[X=1])", bow)
    for extra, message in (
        (rand_action("Q"), r"Rand\(Q\): unknown variable 'Q'"),
        (ctf_rand_action("Y", ["X"]),
         r"CtfRand\(Y->X\): targets \['X'\] are not children of 'Y'"),
    ):
        checker = RealizabilityChecker(
            bow, maximal_action_set(bow).union(ActionSet([extra]))
        )
        for _ in range(2):
            with pytest.raises(ActionError, match=message):
                checker.realize(q)


def test_action_text_round_trips_on_every_builtin_diagram():
    for name in builtin_names():
        d = builtin_diagram(name)
        maximal = maximal_action_set(d)
        # every Rand(v), and a CtfRand into all of v's children (braces)
        wider = [rand_action(v) for v in d.variables] + [
            ctf_rand_action(v, d.children(v)) for v in d.variables if d.children(v)
        ]
        for acts in (maximal, ActionSet([*maximal, *wider], d)):
            text = ", ".join(map(str, acts))
            assert parse_action_set(text, d).actions == acts.actions, (name, text)


def test_action_text_takes_whitespace_and_braces():
    fan = fan_diagram()
    acts = parse_action_set(" Select ,Read( Y ),CtfRand(X -> { W , Z }) ", fan)
    assert acts.actions == ActionSet(
        [select(), read_action("Y"), ctf_rand_action("X", ["Z", "W"])]
    ).actions


@pytest.mark.parametrize("text, pos", [
    ("Twist(X)", 0),  # unknown kind
    ("Rand(X), Twist(X)", 9),
    ("Rand(X) Read(Y)", 8),  # no comma
    ("Rand(X", 6),
    ("CtfRand(X->{Y,Z)", 15),
    ("CtfRand(X->)", 11),
    ("Rand(X),", 8),
    ("", 0),
])
def test_malformed_action_text_reports_its_position(text, pos):
    with pytest.raises(QuerySyntaxError) as err:
        parse_action_set(text, fan_diagram())
    assert err.value.pos == pos


def test_each_input_is_fixed_by_its_smallest_covering_action():
    # on the chain {Y,Z,W} > {Z,W} > {Z}, a fixed input to a child tags
    # only the smallest action covering it; a natural read of the child
    # tags every action that covers it Natural
    fan = fan_diagram()
    chain = [ctf_rand_action("X", t) for t in (["Z"], ["Z", "W"], ["Y", "Z", "W"])]
    checker = RealizabilityChecker(fan, ActionSet(reads_and_select(fan) + chain, fan))
    for c, smallest in (("Z", 0), ("W", 1), ("Y", 2)):
        fixed = checker.realize(query(response(c, {"X": 1})))
        assert fixed.tags == ((chain[smallest], 1),), c
        natural = checker.realize(query(response(c)))
        assert dict(natural.tags) == {a: NATURAL for a in chain[smallest:]}, c


# ---------------------------------------------------------------------------
# Tags and conflicts of single terms
# ---------------------------------------------------------------------------

def test_natural_read_clashes_with_an_earlier_fixed_input():
    bow = bow_diagram()
    verdict = ctf_realize(
        query(response("Y", {"X": 1}), response("Y")), bow, maximal_action_set(bow)
    )
    assert isinstance(verdict, NotRealizable)
    assert verdict.conflict == Conflict(
        variable="X",
        failure=NATURAL_CONFLICT_CTF,
        action=ctf_rand_action("X", ["Y"]),
        required=NATURAL,
        existing=1,
        term_index=1,
        prior_term_index=0,
        child="Y",
    )


def test_fixed_input_tags_only_the_covering_action():
    fan = fan_diagram()
    plan = ctf_realize(query(response("Y", {"X": 1})), fan, maximal_action_set(fan))
    assert isinstance(plan, RealizationPlan)
    assert plan.tags == ((ctf_rand_action("X", ["Y"]), 1),)


def test_no_action_available_failure():
    bow = bow_diagram()
    reads_only = ActionSet(reads_and_select(bow), bow)
    verdict = ctf_realize(parse_query("P(Y[X=1])", bow), bow, reads_only)
    assert isinstance(verdict, NotRealizable)
    assert verdict.conflict.failure == NO_ACTION


# ---------------------------------------------------------------------------
# Spec-level invariants
# ---------------------------------------------------------------------------

def test_monotonicity_under_action_superset():
    # realizable under A stays realizable under any containment-respecting
    # superset
    fan = fan_diagram()
    base = ActionSet(
        reads_and_select(fan) + [ctf_rand_action("X", ["Z"])], fan
    )
    q = parse_query("P(Z[X=1], X)", fan)
    assert ctf_realize(q, fan, base)
    supersets = [
        base.union(ActionSet([ctf_rand_action("X", ["Y"])])),
        base.union(ActionSet([ctf_rand_action("X", ["Z", "W"])])),
        base.union(ActionSet([rand_action("X")])),
        maximal_action_set(fan).union(base),
    ]
    for bigger in supersets:
        assert ctf_realize(q, fan, bigger), str(bigger)


def test_layer_degeneration_reads_only():
    g2 = hub_split_diagram()
    reads_only = ActionSet(reads_and_select(g2), g2)
    checker = RealizabilityChecker(g2, reads_only)
    for q in (
        query(response("Z"), response("W")),
        query(response("Z"), response("W"), response("T"), response("X")),
    ):
        assert checker.realize(q)
    for q in (
        query(response("Z", {"X": 0})),
        query(response("W", {"T": 1}), response("X")),
    ):
        assert not checker.realize(q)


def test_layer_degeneration_reads_plus_rand():
    # a query is realizable iff it fits one consistent whole-variable
    # regime whose regime variables are not read naturally
    g2 = hub_split_diagram()
    acts = ActionSet(
        reads_and_select(g2) + [rand_action(v) for v in g2.variables], g2
    )
    checker = RealizabilityChecker(g2, acts)
    assert checker.realize(query(response("Z", {"X": 1}), response("W")))
    assert checker.realize(
        query(response("Z", {"X": 1, "T": 0}), response("W", {"T": 0}))
    )
    assert not checker.realize(
        query(response("Z", {"X": 1}), response("X"))
    )
    assert not checker.realize(
        query(response("Z", {"T": 1}), response("W", {"T": 0}))
    )


def merge_action_sets(diagram):
    """The action sets the merge cross-checks run under, which between
    them reach every failure class."""
    first = diagram.variables[0]
    rands = [rand_action(v) for v in diagram.variables]
    maximal = maximal_action_set(diagram)
    return (
        maximal,
        maximal.union(ActionSet(rands)),
        # whole-variable randomizations only, and no read of the first
        # variable: outputs can be erased or unreadable
        ActionSet(
            [select(), *(read_action(v) for v in diagram.variables[1:])]
            + rands
        ),
        # no randomization of the first variable: its value can have no
        # action to fix it
        ActionSet(a for a in maximal if a.kind != CTF_RAND or a.var != first),
    )


# sha256 of describe(), and of repr(conflict) for a failing query, over
# every pair of test_fast_merge_matches_ordered_merge, as the decision
# procedure gave them before its ordered merge moved to action ids
FAST_MERGE_DIGEST = "6cee7be8c58330e69dd48f32146ad5f6f1b21cd27a2234ba79ce884296fcac55"


def test_fast_merge_matches_ordered_merge():
    # realize decides with an order-free union of the terms' tags and
    # runs the ordered merge only to name a conflict; on every pair the
    # ordered merge must find a clash exactly when the union does, and
    # its first clash must be the reported conflict
    digest = hashlib.sha256()
    classes = set()
    for diagram in itertools.islice(enumerate_mixed_graphs(4), 100, 1400, 300):
        terms = enumerate_terms(diagram)
        for actions in merge_action_sets(diagram):
            checker = RealizabilityChecker(diagram, actions)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                for q in queries_of_size(terms, 2):
                    fast = checker.realize(q)
                    nq = q.normalized(diagram)
                    reqs = [checker.term_requirements(t) for t in nq.terms]
                    clash = checker._first_clash(nq, reqs)
                    assert bool(fast) == (clash is None), q
                    text = fast.describe()
                    if not fast:
                        assert fast.conflict == clash, q
                        classes.add(fast.conflict.failure)
                        text += f"\n{fast.conflict!r}"
                    digest.update(text.encode() + b"\n")
    assert classes == {
        VALUE_CONFLICT_CTF, VALUE_CONFLICT_RAND, NO_ACTION, NATURAL_CONFLICT_CTF,
        NATURAL_CONFLICT_RAND, OUTPUT_ERASED, READ_UNAVAILABLE,
    }
    assert digest.hexdigest() == FAST_MERGE_DIGEST


def test_single_and_triple_verdicts_match_the_ordered_merge():
    # a single term is decided from its prepared plan and a triple by the
    # flat union; both must agree with the ordered merge, and a plan's tags
    # must be the terms' own tags merged by action id
    classes = set()
    rng = random.Random(1703)
    for diagram in itertools.islice(enumerate_mixed_graphs(4), 100, 1400, 300):
        terms = enumerate_terms(diagram)
        triples = rng.sample(list(itertools.combinations(terms, 3)), 300)
        for actions in merge_action_sets(diagram):
            checker = RealizabilityChecker(diagram, actions)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                for q in [CtfQuery((t,)) for t in terms] + [CtfQuery(c) for c in triples]:
                    verdict = checker.realize(q)
                    nq = q.normalized(diagram)
                    reqs = [checker.term_requirements(t) for t in nq.terms]
                    clash = checker._first_clash(nq, reqs)
                    assert bool(verdict) == (clash is None), q
                    assert verdict.query == nq, q
                    if not verdict:
                        assert verdict.conflict == clash, q
                        classes.add((len(q.terms), clash.failure))
                        continue
                    naive = {}
                    for req in reqs:
                        naive.update(req.tags)
                    rands = checker._randomizations
                    assert verdict.tags == tuple((rands[i], naive[i]) for i in sorted(naive)), q
            # no term tags its own variable's randomization, so a single
            # term can never erase its own output
            for t in terms:
                kept, _ = normalize_term(t, diagram)
                assert checker._rand.get(kept.variable) not in checker.term_requirements(kept).tags
    assert {c for n, c in classes if n == 1} == {NO_ACTION, READ_UNAVAILABLE}
    assert {c for n, c in classes if n == 3} == {
        VALUE_CONFLICT_CTF, VALUE_CONFLICT_RAND, NO_ACTION, NATURAL_CONFLICT_CTF,
        NATURAL_CONFLICT_RAND, OUTPUT_ERASED, READ_UNAVAILABLE,
    }


def test_required_actions_are_the_performed_steps():
    # required_actions reads the performed tags straight from the plan's
    # tags; the steps list the same actions, per variable in plan order
    checked = 0
    for diagram in itertools.islice(enumerate_mixed_graphs(4), 0, None, 200):
        actions = maximal_action_set(diagram).union(
            ActionSet([rand_action(v) for v in diagram.variables])
        )
        checker = RealizabilityChecker(diagram, actions)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for q in queries_of_size(enumerate_terms(diagram), 2):
                plan = checker.realize(q)
                if plan:
                    steps = tuple(iv for s in plan.steps for iv in s.interventions)
                    assert plan.required_actions() == steps, q
                    checked += 1
    assert checked > 1000


def test_verdicts_are_deterministic():
    g1 = hub_conflict_diagram()
    q = parse_query("P(Z[X=0], W[T=0])", g1)
    first = ctf_realize(q, g1, maximal_action_set(g1))
    for _ in range(3):
        again = ctf_realize(q, g1, maximal_action_set(g1))
        assert again.conflict == first.conflict
        assert again.criterion_pair == first.criterion_pair
    g2 = hub_split_diagram()
    q2 = parse_query("P(Z[X=0], W[T=0])", g2)
    plans = [ctf_realize(q2, g2, maximal_action_set(g2)) for _ in range(3)]
    assert len({p.describe() for p in plans}) == 1


def test_compat_visit_count_quadratic_on_paths():
    # visits are bounded by (terms) x (variables)^2; check the bound and
    # quadratic growth on path graphs instead of flaky wall-clock timing
    visits = {}
    for n in (8, 16, 32):
        names = [f"V{i}" for i in range(n)]
        path = __import__("ctfrealize").CausalDiagram(
            names, directed_edges=list(zip(names, names[1:]))
        )
        checker = RealizabilityChecker(path, maximal_action_set(path))
        q = query(
            response(names[-1], {names[0]: 0}),
            response(names[-2], {names[0]: 0}),
            response(names[0]),
        )
        checker.realize(q)
        visits[n] = checker.compat_visits
        assert checker.compat_visits <= len(q.terms) * n * n
    growth = visits[32] / visits[8]
    assert growth <= 16 + 1  # at most quadratic in the variable count


def test_plan_notes_flag_held_back_whole_variable_randomization():
    fan = fan_diagram()
    acts = ActionSet(
        reads_and_select(fan)
        + [rand_action("X"), ctf_rand_action("X", ["Z"])],
        fan,
    )
    # Z needs a fixed input; Y natural forbids the whole-variable action
    q = query(response("Z", {"X": 1}), response("Y"))
    plan = ctf_realize(q, fan, acts)
    assert isinstance(plan, RealizationPlan)
    assert rand_action("X") in plan.natural_constraints
    assert plan.notes and "held back" in plan.notes[0]


def test_path_restricted_terms_are_rejected_by_the_decision_procedure():
    from ctfrealize import RegimeEntry, PotentialResponse

    fan = fan_diagram()
    term = PotentialResponse("Y", (RegimeEntry("X", 1, frozenset({"Y"})),))
    with pytest.raises(QueryError, match="expanded diagram"):
        ctf_realize(CtfQuery((term,)), fan, maximal_action_set(fan))
    # nothing is stored for the term, so a reused checker raises every time
    checker = RealizabilityChecker(fan, maximal_action_set(fan))
    for q in (CtfQuery((term,)), CtfQuery((response("X"), term)), CtfQuery((term,))):
        with pytest.raises(QueryError, match="expanded diagram"):
            checker.realize(q)
    assert checker.realize(query(response("Y", {"X": 1})))


def test_dropped_subscript_warns_once_per_checker_at_the_caller():
    fan = fan_diagram()
    q = query(response("Y", {"Z": 0}), response("X"))
    checker = RealizabilityChecker(fan, maximal_action_set(fan))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        first = checker.realize(q)
    assert [str(w.message) for w in caught] == [
        "dropping irrelevant subscript Z=0 from term Y[Z=0]: 'Z' is not an "
        "ancestor of 'Y'"
    ]
    assert caught[0].filename == __file__
    # the prepared term is reused, also inside another query, without a warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        again = checker.realize(q)
        checker.realize(query(response("Z"), response("Y", {"Z": 0})))
    assert caught == []
    assert again == first and str(first.query) == "P(Y, X)"
    # ctf_realize builds a fresh checker, which warns again
    with pytest.warns(UserWarning, match="irrelevant subscript Z=0"):
        ctf_realize(q, fan, maximal_action_set(fan))


def test_values_outside_the_domain_are_rejected():
    fan = fan_diagram()
    checker = RealizabilityChecker(fan, maximal_action_set(fan))
    for value in (2, [1]):  # the list is also unhashable
        for q in (query(response("Y", value=value)),
                  query(response("Y", {"X": value}))):
            with pytest.raises(QueryError, match="outside domain"):
                checker.realize(q)


def test_domain_value_spelled_like_the_natural_tag_is_a_value():
    # P(Y[X=v], Y) needs CtfRand(X->Y) to draw v and also not to be
    # performed, whatever v is called
    d = CausalDiagram(
        ["X", "Y"],
        domains={"X": ("Natural", "Other"), "Y": (0, 1)},
        directed_edges=[("X", "Y")],
        bidirected_edges=[("X", "Y")],
    )
    for value in ("Natural", "Other"):
        verdict = ctf_realize(
            query(response("Y", {"X": value}), response("Y")), d, maximal_action_set(d)
        )
        assert isinstance(verdict, NotRealizable), value
        assert verdict.conflict.failure == NATURAL_CONFLICT_CTF
        assert verdict.conflict.existing == value
        assert verdict.conflict.required is NATURAL
        # the tag and the value print differently in the conflict text
        text = verdict.conflict.describe()
        assert f"needs tag {NATURAL!r}" in text and f"carries {value!r}" in text
        assert repr(NATURAL) != repr(value)
    assert str(NATURAL) == "Natural"


def test_normalized_subscripts_align_algorithm_and_criterion():
    fan = fan_diagram()
    # Z is not an ancestor of Y: both verdicts treat Y[Z=...] as natural Y
    q = query(response("Y", {"Z": 0}), response("Y", {"Z": 1}))
    with pytest.warns(UserWarning):
        verdict = ctf_realize(q, fan, maximal_action_set(fan))
    assert isinstance(verdict, RealizationPlan)
    with pytest.warns(UserWarning):
        ok, _ = realizable_by_criterion(q, fan)
    assert ok
