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
its Python builder below, and ``builtin_names()`` lists them. A built-in
model is built by ``models.tabulated_model`` from its diagram, its
exogenous weights and one function per variable. They
cover the structural shapes the test-suite and the worked examples rely
on. Fixture files are user input in the layout above, and the CLI
accepts either a built-in name or a path. The package only reads the
layout; the test suite's ``*_to_dict`` writers produce it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable

from .bandits import example3_problem
from .errors import GraphError, ModelError
from .fairness import example2_scm
from .graphs import CausalDiagram
from .mediators import ExpandedDiagram, MediatorNode
from .models import Mechanism, ScmModel, tabulated_model, validate_scm


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------

# The layout above as shapes for _fits, to check each section on reading
_VALUE = (str, int, float, type(None))
_NAMES = [str]
_PAIRS = [[str, str]]
_DOMAINS = {str: [_VALUE]}
_EXOGENOUS = {
    "variables": _NAMES, "domains": _DOMAINS, "dist": [{"values": [_VALUE], "p": (int, float)}],
}
_MECHANISMS = {str: {
    "parents": _NAMES, "exogenous": _NAMES, "rows": [{"inputs": [_VALUE], "value": _VALUE}],
}}
_MEDIATORS = [{
    "name": str, "parent": str, "serves": _NAMES, "invertible?": bool, "randomizable?": bool,
}]


def _fits(x: Any, shape: Any) -> bool:
    """Whether a JSON value has the shape: a type or tuple of types; [s], a
    list of items of shape s; [s, t], a list of exactly those two items;
    {str: s}, an object whose values have shape s; {key: s, ...}, an
    object with at least those keys, where a key ending in "?" may be
    absent."""
    if isinstance(shape, list):
        if not isinstance(x, list):
            return False
        items = shape * len(x) if len(shape) == 1 else shape
        return len(x) == len(items) and all(map(_fits, x, items))
    if isinstance(shape, dict):
        if not isinstance(x, dict):
            return False
        if str in shape:
            return all(_fits(v, shape[str]) for v in x.values())
        return all(
            _fits(x[k.rstrip("?")], s) if k.rstrip("?") in x else k.endswith("?")
            for k, s in shape.items()
        )
    return isinstance(x, shape)


def _section(doc: dict, name: str, shape: Any, error: type, default: Any = None) -> Any:
    """The section ``name`` (dotted when nested) of ``doc``, or ``default``
    when it is absent. Raises ``error`` naming the section when it is
    absent with no default, or does not fit ``shape``."""
    key = name.rpartition(".")[2]
    if key not in doc and default is None:
        raise error(f"fixture has no {name!r} key")
    value = doc.get(key, default)
    if not _fits(value, shape):
        raise error(f"fixture section {name!r} is malformed")
    return value


def diagram_from_dict(doc: dict[str, Any]) -> CausalDiagram:
    variables = _section(doc, "variables", _NAMES, GraphError)
    domains = _section(doc, "domains", _DOMAINS, GraphError, {})
    edges = _section(doc, "edges", _PAIRS, GraphError, [])
    bidirected = _section(doc, "bidirected", _PAIRS, GraphError, [])
    return CausalDiagram(
        variables=variables,
        domains={v: tuple(d) for v, d in domains.items()},
        directed_edges=[tuple(e) for e in edges],
        bidirected_edges=[tuple(e) for e in bidirected],
    )


def model_from_dict(doc: dict[str, Any]) -> ScmModel:
    exo = _section(doc, "exogenous", _EXOGENOUS, ModelError)
    specs = _section(doc, "mechanisms", _MECHANISMS, ModelError)
    diagram = diagram_from_dict(doc)
    dist = {tuple(row["values"]): float(row["p"]) for row in exo["dist"]}
    mechanisms = {}
    for v, spec in specs.items():
        table = {tuple(row["inputs"]): row["value"] for row in spec["rows"]}
        mechanisms[v] = Mechanism(spec["parents"], spec["exogenous"], table)
    model = ScmModel(
        diagram=diagram,
        exogenous_vars=exo["variables"],
        exogenous_domains={u: tuple(d) for u, d in exo["domains"].items()},
        exogenous_dist=dist,
        mechanisms=mechanisms,
    )
    problems = validate_scm(model)
    if problems:
        raise ModelError("invalid model fixture: " + "; ".join(problems))
    return model


def expanded_from_dict(doc: dict[str, Any]) -> ExpandedDiagram:
    base = diagram_from_dict(doc)
    ex = _section(doc, "expanded", {}, GraphError, {})
    mediators = tuple(
        MediatorNode(
            name=m["name"],
            parent=m["parent"],
            served_children=frozenset(m["serves"]),
            invertible=m.get("invertible", True),
            randomizable=m.get("randomizable", True),
        )
        for m in _section(ex, "expanded.mediators", _MEDIATORS, GraphError, [])
    )
    return ExpandedDiagram(
        base=base,
        mediators=mediators,
        elicit_natural=frozenset(_section(ex, "expanded.elicit_natural", _NAMES, GraphError, [])),
        randomizable=frozenset(_section(ex, "expanded.randomizable", _NAMES, GraphError, [])),
    )


def load_fixture(path: str | Path) -> dict[str, Any]:
    """The JSON object in a fixture file. A file that cannot be read, is
    not JSON or holds no object raises ModelError naming the path."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as e:
        raise ModelError(f"cannot read fixture {str(path)!r}: {e.strerror or e}") from None
    except ValueError as e:  # JSONDecodeError, UnicodeDecodeError
        raise ModelError(f"fixture {str(path)!r} is not JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ModelError(f"fixture {str(path)!r} holds no JSON object")
    return doc


# ---------------------------------------------------------------------------
# Built-in structural fixtures
# ---------------------------------------------------------------------------

def bow_diagram() -> CausalDiagram:
    """X -> Y with X and Y confounded: the smallest graph where a natural
    decision and its forced counterpart can be measured together."""
    return CausalDiagram(["X", "Y"], directed_edges=[("X", "Y")],
                         bidirected_edges=[("X", "Y")])


def bow_model() -> ScmModel:
    return tabulated_model(bow_diagram(), {"U_XY": (0.3, 0.2, 0.25, 0.25)}, {
        "X": (("U_XY",), lambda u: 1 if u in (1, 3) else 0),
        "Y": (("U_XY",), lambda x, u: [x, 1 - x, 1, x][u]),
    })


def chain_diagram() -> CausalDiagram:
    """X -> Y, unconfounded."""
    return CausalDiagram(["X", "Y"], directed_edges=[("X", "Y")])


def chain_model() -> ScmModel:
    return tabulated_model(chain_diagram(), {"U_X": (0.6, 0.4), "U_Y": (0.8, 0.2)}, {
        "X": (("U_X",), lambda u: u),
        "Y": (("U_Y",), lambda x, u: x ^ u),
    })


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
    return tabulated_model(
        hub_conflict_diagram(),
        {"U_T": (0.5, 0.5), "U_X": (0.6, 0.4), "U_A": (0.7, 0.3),
         "U_WZ": (0.5, 0.3, 0.2)},
        {
            "T": (("U_T",), lambda u: u),
            "X": (("U_X",), lambda u: u),
            "A": (("U_A",), lambda t, u: t ^ u),
            "W": (("U_WZ",), lambda a, u: (a + (u == 1)) % 2),
            "Z": (("U_WZ",),
                  lambda x, a, u: (a ^ x) if u == 0 else (x if u == 1 else 1 - a)),
        },
    )


def hub_split_diagram() -> CausalDiagram:
    """T -> {W, Z}, X -> Z, W confounded with Z: same query as the
    conflict hub but the two outputs take separate edges out of T."""
    return CausalDiagram(
        ["T", "X", "W", "Z"],
        directed_edges=[("T", "W"), ("T", "Z"), ("X", "Z")],
        bidirected_edges=[("W", "Z")],
    )


def hub_split_model() -> ScmModel:
    return tabulated_model(
        hub_split_diagram(),
        {"U_T": (0.5, 0.5), "U_X": (0.3, 0.7), "U_WZ": (0.4, 0.35, 0.25)},
        {
            "T": (("U_T",), lambda u: u),
            "X": (("U_X",), lambda u: u),
            "W": (("U_WZ",), lambda t, u: t if u != 2 else 1 - t),
            "Z": (("U_WZ",), lambda t, x, u: (t & x) if u == 0 else (x ^ (u == 2))),
        },
    )


def collider_hub_diagram() -> CausalDiagram:
    """T -> A <- X, A -> {W, Z}: two roots feed one hub with two leaves.
    X is declared first so the scan hits the hub's X-input conflict."""
    return CausalDiagram(
        ["X", "T", "A", "W", "Z"],
        directed_edges=[("T", "A"), ("X", "A"), ("A", "W"), ("A", "Z")],
    )


def collider_hub_model() -> ScmModel:
    return tabulated_model(
        collider_hub_diagram(),
        {"U_T": (0.5, 0.5), "U_X": (0.45, 0.55), "U_A": (0.8, 0.2),
         "U_W": (0.7, 0.3), "U_Z": (0.6, 0.4)},
        {
            "T": (("U_T",), lambda u: u),
            "X": (("U_X",), lambda u: u),
            "A": (("U_A",), lambda x, t, u: (t ^ x) ^ u),
            "W": (("U_W",), lambda a, u: a | u),
            "Z": (("U_Z",), lambda a, u: a ^ u),
        },
    )


def fan_diagram() -> CausalDiagram:
    """One decision X with three children Y, Z, W and nothing else."""
    return CausalDiagram(
        ["X", "Y", "Z", "W"],
        directed_edges=[("X", "Y"), ("X", "Z"), ("X", "W")],
    )


def fan_model() -> ScmModel:
    return tabulated_model(
        fan_diagram(),
        {"U_X": (0.5, 0.5), "U_Y": (0.75, 0.25), "U_Z": (0.4, 0.6),
         "U_W": (0.9, 0.1)},
        {
            "X": (("U_X",), lambda u: u),
            "Y": (("U_Y",), lambda x, u: x ^ u),
            "Z": (("U_Z",), lambda x, u: x | u),
            "W": (("U_W",), lambda x, u: x & (1 - u)),
        },
    )


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

    def f_y(x, z, u):
        base = z ^ (u == 2)
        if direct_effect:
            return base | (x & (u != 1))
        return base

    return tabulated_model(
        mediation_diagram(),
        {"U_X": (0.5, 0.5), "U_ZY": (0.5, 0.25, 0.25)},
        {
            "X": (("U_X",), lambda u: u),
            "Z": (("U_ZY",), lambda x, u: x ^ (u == 1)),
            "Y": (("U_ZY",), f_y),
        },
    )


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
