"""Fixture IO: diagrams and models as JSON documents, plus built-ins.

Document layout::

    {
      "name": "...",
      "variables": ["T", "X", ...],
      "domains": {"T": [0, 1], ...},
      "edges": [["T", "A"], ...],
      "bidirected": [["W", "Z"], ...],
      "exogenous": {                       # models only
        "variables": ["U_T", ...],
        "domains": {"U_T": [0, 1], ...},
        "dist": [{"values": [0, 1], "p": 0.25}, ...]
      },
      "mechanisms": {                      # models only
        "A": {"parents": ["T"], "exogenous": ["U_A"],
              "rows": [{"inputs": [0, 0], "value": 0}, ...]}
      },
      "expanded": {                        # expanded diagrams only
        "mediators": [{"name": "W1", "parent": "X",
                       "serves": ["Y"], "invertible": true,
                       "randomizable": true}],
        "elicit_natural": ["X"], "randomizable": ["X"]
      }
    }

Built-in fixtures are names, not files: each one is defined only by
its Python builder below, and ``builtin_names()`` lists them. They
cover the structural shapes the test-suite and the worked examples rely
on. Fixture files are user input in the layout above (``*_to_dict``
writes it), and the CLI accepts either a built-in name or a path.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable

from .bandits import example3_problem
from .errors import ModelError
from .fairness import example2_scm
from .graphs import CausalDiagram
from .mediators import ExpandedDiagram, MediatorNode
from .models import Mechanism, ScmModel, independent_exogenous


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def diagram_to_dict(diagram: CausalDiagram, name: str = "") -> dict[str, Any]:
    doc: dict[str, Any] = {
        "variables": list(diagram.variables),
        "domains": {v: list(diagram.domains[v]) for v in diagram.variables},
        "edges": sorted([list(e) for e in diagram.directed_edges]),
        "bidirected": sorted(sorted(e) for e in diagram.bidirected_edges),
    }
    if name:
        doc = {"name": name, **doc}
    return doc


def model_to_dict(model: ScmModel, name: str = "") -> dict[str, Any]:
    doc = diagram_to_dict(model.diagram, name)
    doc["exogenous"] = {
        "variables": list(model.exogenous_vars),
        "domains": {u: list(model.exogenous_domains[u]) for u in model.exogenous_vars},
        "dist": [
            {"values": list(u), "p": p} for u, p in model.exogenous_support()
        ],
    }
    doc["mechanisms"] = {
        v: {
            "parents": list(m.parents),
            "exogenous": list(m.exogenous),
            "rows": [
                {"inputs": list(k), "value": val}
                for k, val in sorted(m.table.items(), key=lambda kv: repr(kv[0]))
            ],
        }
        for v, m in sorted(model.mechanisms.items())
    }
    return doc


def expanded_to_dict(expanded: ExpandedDiagram, name: str = "") -> dict[str, Any]:
    doc = diagram_to_dict(expanded.base, name)
    doc["expanded"] = {
        "mediators": [
            {
                "name": m.name,
                "parent": m.parent,
                "serves": sorted(m.served_children),
                "invertible": m.invertible,
                "randomizable": m.randomizable,
            }
            for m in expanded.mediators
        ],
        "elicit_natural": sorted(expanded.elicit_natural),
        "randomizable": sorted(expanded.randomizable),
    }
    return doc


def diagram_from_dict(doc: dict[str, Any]) -> CausalDiagram:
    return CausalDiagram(
        variables=doc["variables"],
        domains={v: tuple(d) for v, d in doc.get("domains", {}).items()},
        directed_edges=[tuple(e) for e in doc.get("edges", [])],
        bidirected_edges=[tuple(e) for e in doc.get("bidirected", [])],
    )


def model_from_dict(doc: dict[str, Any]) -> ScmModel:
    if "exogenous" not in doc or "mechanisms" not in doc:
        raise ModelError("fixture has no exogenous/mechanisms sections")
    diagram = diagram_from_dict(doc)
    exo = doc["exogenous"]
    dist = {tuple(row["values"]): float(row["p"]) for row in exo["dist"]}
    mechanisms = {}
    for v, spec in doc["mechanisms"].items():
        table = {tuple(row["inputs"]): row["value"] for row in spec["rows"]}
        mechanisms[v] = Mechanism(spec["parents"], spec["exogenous"], table)
    return ScmModel(
        diagram=diagram,
        exogenous_vars=exo["variables"],
        exogenous_domains={u: tuple(d) for u, d in exo["domains"].items()},
        exogenous_dist=dist,
        mechanisms=mechanisms,
    )


def expanded_from_dict(doc: dict[str, Any]) -> ExpandedDiagram:
    base = diagram_from_dict(doc)
    ex = doc.get("expanded", {})
    mediators = tuple(
        MediatorNode(
            name=m["name"],
            parent=m["parent"],
            served_children=frozenset(m["serves"]),
            invertible=bool(m.get("invertible", True)),
            randomizable=bool(m.get("randomizable", True)),
        )
        for m in ex.get("mediators", [])
    )
    return ExpandedDiagram(
        base=base,
        mediators=mediators,
        elicit_natural=frozenset(ex.get("elicit_natural", [])),
        randomizable=frozenset(ex.get("randomizable", [])),
    )


def load_fixture(path: str | Path) -> dict[str, Any]:
    with open(path) as fh:
        return json.load(fh)


def save_fixture(doc: dict[str, Any], path: str | Path) -> None:
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=False) + "\n")


# ---------------------------------------------------------------------------
# Built-in structural fixtures
# ---------------------------------------------------------------------------

def bow_diagram() -> CausalDiagram:
    """X -> Y with X and Y confounded: the smallest graph where a natural
    decision and its forced counterpart can be measured together."""
    return CausalDiagram(["X", "Y"], directed_edges=[("X", "Y")],
                         bidirected_edges=[("X", "Y")])


def bow_model() -> ScmModel:
    d = bow_diagram()
    names, doms, dist = independent_exogenous(
        {"U_XY": (0, 1, 2, 3)}, {"U_XY": (0.3, 0.2, 0.25, 0.25)}
    )
    mech = {
        "X": Mechanism.tabulate(
            (), ("U_XY",), (), (doms["U_XY"],), lambda u: 1 if u in (1, 3) else 0
        ),
        "Y": Mechanism.tabulate(
            ("X",), ("U_XY",), ((0, 1),), (doms["U_XY"],),
            lambda x, u: [x, 1 - x, 1, x][u],
        ),
    }
    return ScmModel(d, names, doms, dist, mech)


def chain_diagram() -> CausalDiagram:
    """X -> Y, unconfounded."""
    return CausalDiagram(["X", "Y"], directed_edges=[("X", "Y")])


def chain_model() -> ScmModel:
    d = chain_diagram()
    names, doms, dist = independent_exogenous(
        {"U_X": (0, 1), "U_Y": (0, 1)}, {"U_X": (0.6, 0.4), "U_Y": (0.8, 0.2)}
    )
    mech = {
        "X": Mechanism.tabulate((), ("U_X",), (), (doms["U_X"],), lambda u: u),
        "Y": Mechanism.tabulate(
            ("X",), ("U_Y",), ((0, 1),), (doms["U_Y"],), lambda x, u: x ^ u
        ),
    }
    return ScmModel(d, names, doms, dist, mech)


def hub_conflict_diagram() -> CausalDiagram:
    """T -> A -> {W, Z}, X -> Z, W confounded with Z. Both outputs hang
    off the shared hub A, so fixing T for one while keeping it natural
    for the other collides at A."""
    return CausalDiagram(
        ["T", "X", "A", "W", "Z"],
        directed_edges=[("T", "A"), ("A", "W"), ("A", "Z"), ("X", "Z")],
        bidirected_edges=[("W", "Z")],
    )


def hub_conflict_model() -> ScmModel:
    d = hub_conflict_diagram()
    names, doms, dist = independent_exogenous(
        {"U_T": (0, 1), "U_X": (0, 1), "U_A": (0, 1), "U_WZ": (0, 1, 2)},
        {"U_T": (0.5, 0.5), "U_X": (0.6, 0.4), "U_A": (0.7, 0.3),
         "U_WZ": (0.5, 0.3, 0.2)},
    )
    mech = {
        "T": Mechanism.tabulate((), ("U_T",), (), ((0, 1),), lambda u: u),
        "X": Mechanism.tabulate((), ("U_X",), (), ((0, 1),), lambda u: u),
        "A": Mechanism.tabulate(
            ("T",), ("U_A",), ((0, 1),), ((0, 1),), lambda t, u: t ^ u
        ),
        "W": Mechanism.tabulate(
            ("A",), ("U_WZ",), ((0, 1),), ((0, 1, 2),),
            lambda a, u: (a + (u == 1)) % 2,
        ),
        "Z": Mechanism.tabulate(
            ("A", "X"), ("U_WZ",), ((0, 1), (0, 1)), ((0, 1, 2),),
            lambda a, x, u: (a ^ x) if u == 0 else (x if u == 1 else 1 - a),
        ),
    }
    return ScmModel(d, names, doms, dist, mech)


def hub_split_diagram() -> CausalDiagram:
    """T -> {W, Z}, X -> Z, W confounded with Z: same query as the
    conflict hub but the two outputs take separate edges out of T."""
    return CausalDiagram(
        ["T", "X", "W", "Z"],
        directed_edges=[("T", "W"), ("T", "Z"), ("X", "Z")],
        bidirected_edges=[("W", "Z")],
    )


def hub_split_model() -> ScmModel:
    d = hub_split_diagram()
    names, doms, dist = independent_exogenous(
        {"U_T": (0, 1), "U_X": (0, 1), "U_WZ": (0, 1, 2)},
        {"U_T": (0.5, 0.5), "U_X": (0.3, 0.7), "U_WZ": (0.4, 0.35, 0.25)},
    )
    mech = {
        "T": Mechanism.tabulate((), ("U_T",), (), ((0, 1),), lambda u: u),
        "X": Mechanism.tabulate((), ("U_X",), (), ((0, 1),), lambda u: u),
        "W": Mechanism.tabulate(
            ("T",), ("U_WZ",), ((0, 1),), ((0, 1, 2),),
            lambda t, u: t if u != 2 else 1 - t,
        ),
        "Z": Mechanism.tabulate(
            ("T", "X"), ("U_WZ",), ((0, 1), (0, 1)), ((0, 1, 2),),
            lambda t, x, u: (t & x) if u == 0 else (x ^ (u == 2)),
        ),
    }
    return ScmModel(d, names, doms, dist, mech)


def collider_hub_diagram() -> CausalDiagram:
    """T -> A <- X, A -> {W, Z}: two roots feed one hub with two leaves.
    X is declared first so the scan hits the hub's X-input conflict."""
    return CausalDiagram(
        ["X", "T", "A", "W", "Z"],
        directed_edges=[("T", "A"), ("X", "A"), ("A", "W"), ("A", "Z")],
    )


def collider_hub_model() -> ScmModel:
    d = collider_hub_diagram()
    names, doms, dist = independent_exogenous(
        {"U_T": (0, 1), "U_X": (0, 1), "U_A": (0, 1), "U_W": (0, 1), "U_Z": (0, 1)},
        {"U_T": (0.5, 0.5), "U_X": (0.45, 0.55), "U_A": (0.8, 0.2),
         "U_W": (0.7, 0.3), "U_Z": (0.6, 0.4)},
    )
    mech = {
        "T": Mechanism.tabulate((), ("U_T",), (), ((0, 1),), lambda u: u),
        "X": Mechanism.tabulate((), ("U_X",), (), ((0, 1),), lambda u: u),
        "A": Mechanism.tabulate(
            ("T", "X"), ("U_A",), ((0, 1), (0, 1)), ((0, 1),),
            lambda t, x, u: (t ^ x) ^ u,
        ),
        "W": Mechanism.tabulate(
            ("A",), ("U_W",), ((0, 1),), ((0, 1),), lambda a, u: a | u
        ),
        "Z": Mechanism.tabulate(
            ("A",), ("U_Z",), ((0, 1),), ((0, 1),), lambda a, u: a ^ u
        ),
    }
    return ScmModel(d, names, doms, dist, mech)


def fan_diagram() -> CausalDiagram:
    """One decision X with three children Y, Z, W and nothing else."""
    return CausalDiagram(
        ["X", "Y", "Z", "W"],
        directed_edges=[("X", "Y"), ("X", "Z"), ("X", "W")],
    )


def fan_model() -> ScmModel:
    d = fan_diagram()
    names, doms, dist = independent_exogenous(
        {"U_X": (0, 1), "U_Y": (0, 1), "U_Z": (0, 1), "U_W": (0, 1)},
        {"U_X": (0.5, 0.5), "U_Y": (0.75, 0.25), "U_Z": (0.4, 0.6),
         "U_W": (0.9, 0.1)},
    )
    mech = {
        "X": Mechanism.tabulate((), ("U_X",), (), ((0, 1),), lambda u: u),
        "Y": Mechanism.tabulate(("X",), ("U_Y",), ((0, 1),), ((0, 1),),
                                lambda x, u: x ^ u),
        "Z": Mechanism.tabulate(("X",), ("U_Z",), ((0, 1),), ((0, 1),),
                                lambda x, u: x | u),
        "W": Mechanism.tabulate(("X",), ("U_W",), ((0, 1),), ((0, 1),),
                                lambda x, u: x & (1 - u)),
    }
    return ScmModel(d, names, doms, dist, mech)


def mediation_diagram() -> CausalDiagram:
    """X -> Z -> Y with a direct X -> Y edge and Z confounded with Y."""
    return CausalDiagram(
        ["X", "Z", "Y"],
        directed_edges=[("X", "Z"), ("Z", "Y"), ("X", "Y")],
        bidirected_edges=[("Z", "Y")],
    )


def mediation_model(direct_effect: bool = True) -> ScmModel:
    """Mediation fixture; with ``direct_effect=False`` the outcome ignores
    its direct input from X, so the direct effect is exactly zero."""
    d = mediation_diagram()
    names, doms, dist = independent_exogenous(
        {"U_X": (0, 1), "U_ZY": (0, 1, 2)},
        {"U_X": (0.5, 0.5), "U_ZY": (0.5, 0.25, 0.25)},
    )

    def f_y(x, z, u):
        base = z ^ (u == 2)
        if direct_effect:
            return base | (x & (u != 1))
        return base

    mech = {
        "X": Mechanism.tabulate((), ("U_X",), (), ((0, 1),), lambda u: u),
        "Z": Mechanism.tabulate(
            ("X",), ("U_ZY",), ((0, 1),), ((0, 1, 2),),
            lambda x, u: x ^ (u == 1),
        ),
        "Y": Mechanism.tabulate(
            ("X", "Z"), ("U_ZY",), ((0, 1), (0, 1)), ((0, 1, 2),), f_y
        ),
    }
    return ScmModel(d, names, doms, dist, mech)


def mab_template_diagram() -> CausalDiagram:
    """Context Z, decision X, post-decision D, reward Y, all pairwise
    confounded: the bandit harness accepts subgraphs of this."""
    return CausalDiagram(
        ["Z", "X", "D", "Y"],
        directed_edges=[("Z", "X"), ("Z", "Y"), ("X", "Y"), ("X", "D")],
        bidirected_edges=[
            ("Z", "X"), ("Z", "Y"), ("Z", "D"),
            ("X", "Y"), ("X", "D"), ("D", "Y"),
        ],
    )


# -- expanded diagrams -------------------------------------------------------

def expanded_elicit() -> ExpandedDiagram:
    """Environment that reveals the natural decision while the enacted one
    is randomized: grants control over both children at once."""
    base = CausalDiagram(
        ["T", "X", "Y", "Z"],
        directed_edges=[("T", "X"), ("X", "Y"), ("X", "Z")],
        bidirected_edges=[("T", "Y"), ("T", "Z")],
    )
    return ExpandedDiagram(
        base=base,
        elicit_natural=frozenset({"X"}),
        randomizable=frozenset({"X"}),
    )


def expanded_two_mediators() -> ExpandedDiagram:
    """Two sibling mediators: one carries X to Y, the other to {Z, T}."""
    base = CausalDiagram(
        ["X", "Y", "Z", "T"],
        directed_edges=[("X", "Y"), ("X", "Z"), ("X", "T"), ("Z", "Y")],
    )
    return ExpandedDiagram(
        base=base,
        mediators=(
            MediatorNode("W1", "X", frozenset({"Y"})),
            MediatorNode("W2", "X", frozenset({"Z", "T"})),
        ),
    )


def expanded_chained_mediators() -> ExpandedDiagram:
    """Chained mediators: the outer one carries X to all three children,
    the inner one only to {Z, T}."""
    base = CausalDiagram(
        ["X", "Y", "Z", "T"],
        directed_edges=[("X", "Y"), ("X", "Z"), ("X", "T"), ("Y", "Z"), ("T", "Z")],
    )
    return ExpandedDiagram(
        base=base,
        mediators=(
            MediatorNode("W1", "X", frozenset({"Y", "Z", "T"})),
            MediatorNode("W2", "W1", frozenset({"Z", "T"})),
        ),
    )


def expanded_mediator_model() -> ScmModel:
    """Explicit expanded SCM with two chained copies of X: W1 feeds Z and
    W2; W2 feeds T and B. Used to check the mediator conditions and the
    forcing equivalence by enumeration."""
    d = CausalDiagram(
        ["X", "W1", "W2", "Y", "Z", "T", "B"],
        directed_edges=[
            ("X", "Y"), ("X", "W1"),
            ("W1", "Z"), ("W1", "W2"),
            ("W2", "T"), ("W2", "B"),
        ],
    )
    names, doms, dist = independent_exogenous(
        {"U_X": (0, 1), "U_Y": (0, 1), "U_Z": (0, 1), "U_T": (0, 1), "U_B": (0, 1)},
        {"U_X": (0.5, 0.5), "U_Y": (0.7, 0.3), "U_Z": (0.6, 0.4),
         "U_T": (0.8, 0.2), "U_B": (0.55, 0.45)},
    )
    mech = {
        "X": Mechanism.tabulate((), ("U_X",), (), ((0, 1),), lambda u: u),
        "W1": Mechanism.tabulate(("X",), (), ((0, 1),), (), lambda x: x),
        "W2": Mechanism.tabulate(("W1",), (), ((0, 1),), (), lambda w: w),
        "Y": Mechanism.tabulate(("X",), ("U_Y",), ((0, 1),), ((0, 1),),
                                lambda x, u: x ^ u),
        "Z": Mechanism.tabulate(("W1",), ("U_Z",), ((0, 1),), ((0, 1),),
                                lambda w, u: w | u),
        "T": Mechanism.tabulate(("W2",), ("U_T",), ((0, 1),), ((0, 1),),
                                lambda w, u: w ^ u),
        "B": Mechanism.tabulate(("W2",), ("U_B",), ((0, 1),), ((0, 1),),
                                lambda w, u: w ^ u),
    }
    return ScmModel(d, names, doms, dist, mech)


# -- the registry -------------------------------------------------------------

# Every built-in fixture, by name: the builder is its only definition.
_BUILTINS: dict[str, Callable[[], ScmModel | CausalDiagram | ExpandedDiagram]] = {
    "bow": bow_model,
    "chain": chain_model,
    "hub_conflict": hub_conflict_model,
    "hub_split": hub_split_model,
    "collider_hub": collider_hub_model,
    "fan": fan_model,
    "mediation": mediation_model,
    "bandit_example": lambda: example3_problem().model,
    "admissions": lambda: example2_scm().to_model(),
    "mab_template": mab_template_diagram,
    "expanded_elicit": expanded_elicit,
    "expanded_two_mediators": expanded_two_mediators,
    "expanded_chained_mediators": expanded_chained_mediators,
}

_KINDS = {
    ScmModel: "a model",
    CausalDiagram: "a graph-only diagram",
    ExpandedDiagram: "an expanded diagram",
}


def builtin_names() -> list[str]:
    return sorted(_BUILTINS)


def builtin(name: str) -> ScmModel | CausalDiagram | ExpandedDiagram:
    """Build the named fixture: a model, a graph-only diagram or an
    expanded diagram."""
    if name not in _BUILTINS:
        raise ModelError(f"no built-in fixture named {name!r}; known: {builtin_names()}")
    return _BUILTINS[name]()


def _builtin_of(name: str, kind: type):
    fixture = builtin(name)
    if not isinstance(fixture, kind):
        raise ModelError(f"built-in {name!r} is {_KINDS[type(fixture)]}, not {_KINDS[kind]}")
    return fixture


def builtin_diagram(name: str) -> CausalDiagram:
    """The diagram of any built-in; the base diagram of an expanded one."""
    fixture = builtin(name)
    if isinstance(fixture, ScmModel):
        return fixture.diagram
    if isinstance(fixture, ExpandedDiagram):
        return fixture.base
    return fixture


def builtin_model(name: str) -> ScmModel:
    return _builtin_of(name, ScmModel)


def resolve_diagram(spec: str) -> CausalDiagram:
    """A built-in name, or a path to a fixture JSON."""
    if spec in _BUILTINS:
        return builtin_diagram(spec)
    return diagram_from_dict(load_fixture(spec))


def resolve_model(spec: str) -> ScmModel:
    if spec in _BUILTINS:
        return builtin_model(spec)
    return model_from_dict(load_fixture(spec))


def resolve_expanded(spec: str) -> ExpandedDiagram:
    if spec in _BUILTINS:
        return _builtin_of(spec, ExpandedDiagram)
    return expanded_from_dict(load_fixture(spec))
