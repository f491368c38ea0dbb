"""Expanded diagrams: deriving input-randomization capabilities.

An input randomization of X exists in an environment either because the
unit's natural decision can be elicited while the enacted decision is
randomized (granting control over every child at once), or because a
*mediator* carries X's value to some children: a variable generated
from X by an invertible mechanism, itself randomizable, through which
those children perceive X. Randomizing the mediator fixes X's value as
seen by exactly the children it serves.

Mediators of one variable must form a tree: each has a single parent
(the variable itself or another of its mediators) and no child of X
perceives X through two separate mediator pathways. A would-be mediator
hanging off an ordinary variable is rejected: once a variable with full
support sits between X and the node, the node's value can no longer be
inverted back to X.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping

from .errors import MediatorStructureError
from .graphs import CausalDiagram, Value
from .models import ScmModel
from .queries import response
from .engine import eval_potential_response
from .realizability import Action, ActionSet, ctf_rand_action, overlap_without_nesting


@dataclass(frozen=True)
class MediatorNode:
    """One mediator: ``parent`` is the decision variable or another
    mediator of it; ``served_children`` are the base-graph children whose
    perception flows through this node."""

    name: str
    parent: str
    served_children: frozenset[str]
    invertible: bool = True
    randomizable: bool = True


@dataclass(frozen=True)
class ExpandedDiagram:
    """Base diagram annotated with mediator nodes and per-variable
    elicitation capabilities."""

    base: CausalDiagram
    mediators: tuple[MediatorNode, ...] = ()
    elicit_natural: frozenset[str] = frozenset()
    randomizable: frozenset[str] = frozenset()

    def mediators_of(self, x: str) -> tuple[MediatorNode, ...]:
        """Mediators whose perception chain roots at x, in declaration
        order; raises if any mediator of x violates the tree structure."""
        by_name = {m.name: m for m in self.mediators}
        out = []
        for m in self.mediators:
            root = self._chain_root(m, by_name)
            if root == x:
                out.append(m)
        return tuple(out)

    def _chain_root(self, m: MediatorNode, by_name: Mapping[str, MediatorNode]) -> str:
        seen = set()
        cur = m
        while True:
            if cur.name in seen:
                raise MediatorStructureError(f"mediator chain cycle at {cur.name!r}")
            seen.add(cur.name)
            if cur.parent in by_name:
                parent = by_name[cur.parent]
                if not cur.served_children <= parent.served_children:
                    raise MediatorStructureError(
                        f"mediator {cur.name!r} serves children outside its "
                        f"parent mediator {parent.name!r}"
                    )
                cur = parent
            else:
                return cur.parent


def ctf_procedures(expanded: ExpandedDiagram, x: str) -> ActionSet:
    """All input randomizations of ``x`` the environment supports.

    Elicitation of the natural decision (with x randomizable) yields the
    whole-children action; each valid mediator yields the action over
    the children it serves.

    Raises MediatorStructureError when a mediator chain breaks the tree
    structure (see ``mediators_of``), when a mediator of x serves a
    variable that is not a child of x, when two mediators' served sets
    overlap without nesting, or when a child of x is served by two
    sibling mediators.
    """
    base = expanded.base
    if x not in base:
        raise MediatorStructureError(f"unknown variable {x!r}")
    children = set(base.children(x))

    actions: list[Action] = []
    if x in expanded.elicit_natural and x in expanded.randomizable:
        if children:
            actions.append(ctf_rand_action(x, children))

    meds = expanded.mediators_of(x)
    for m in meds:
        if not m.served_children <= children:
            raise MediatorStructureError(
                f"mediator {m.name!r} serves {sorted(m.served_children - children)}, "
                f"which are not children of {x!r}"
            )
    # tree structure: sibling mediators must not share children; chained
    # ones must nest (checked against parents in mediators_of already)
    for i, a in enumerate(meds):
        for b in meds[i + 1:]:
            if overlap_without_nesting(a.served_children, b.served_children):
                shared = a.served_children & b.served_children
                raise MediatorStructureError(
                    f"children {sorted(shared)} perceive {x!r} through both "
                    f"{a.name!r} and {b.name!r}"
                )
    for m in meds:
        if m.invertible and m.randomizable and m.served_children:
            actions.append(ctf_rand_action(x, m.served_children))

    return ActionSet(actions, base)


# ---------------------------------------------------------------------------
# Checking mediator conditions on an explicit expanded SCM
# ---------------------------------------------------------------------------

def inverse_image_classes(model: ScmModel, w: str, x: str) -> dict[Value, set[Value]] | None:
    """Partition of w's realized values by the x-value that produced
    them, or None when some w value arises from two different x values
    (the mechanism is not invertible to x)."""
    m = model.mechanisms[w]
    if tuple(m.parents) != (x,):
        return None
    classes: dict[Value, Value] = {}  # w value -> unique x value

    exo_doms = [model.exogenous_domains[e] for e in m.exogenous]
    for xv in model.diagram.domains[x]:
        for evals in itertools.product(*[tuple(d) for d in exo_doms]):
            wv = m((xv,), evals)
            if wv in classes and classes[wv] != xv:
                return None
            classes[wv] = xv
    out: dict[Value, set[Value]] = {}
    for wv, xv in classes.items():
        out.setdefault(xv, set()).add(wv)
    return out


def verify_counterfactual_mediator(
    model: ScmModel, w: str, x: str, y: str
) -> bool:
    """True iff, in this expanded SCM, w mediates x for y: w's mechanism
    inverts to x, y's mechanism sees w only through the inverse-image
    class, and (checked by full enumeration) forcing any w in x's class
    onto y reproduces forcing x itself, for every exogenous assignment
    and every setting of y's other parents."""
    d = model.diagram
    if w not in d or x not in d or y not in d:
        return False
    if w not in d.children(x) or y not in d.children(w):
        return False

    classes = inverse_image_classes(model, w, x)
    if classes is None:
        return False

    class_of: dict[Value, Value] = {}
    for xv, ws in classes.items():
        for wv in ws:
            class_of[wv] = xv

    my = model.mechanisms[y]
    others = tuple(p for p in my.parents if p != w)
    other_doms = [d.domains[p] for p in others]
    exo_doms = [model.exogenous_domains[e] for e in my.exogenous]

    def y_value(wv, other_vals, evals):
        assign = dict(zip(others, other_vals))
        assign[w] = wv
        return my(tuple(assign[p] for p in my.parents), evals)

    # y depends on w only through its class
    for ws in classes.values():
        ws = sorted(ws, key=repr)
        for wa, wb in zip(ws, ws[1:]):
            for other_vals in itertools.product(*[tuple(t) for t in other_doms]):
                for evals in itertools.product(*[tuple(t) for t in exo_doms]):
                    if y_value(wa, other_vals, evals) != y_value(wb, other_vals, evals):
                        return False

    # forcing w in x's class equals forcing x, under every u and every
    # fixed setting of y's other parents
    for u, p in model.exogenous_support():
        for xv, ws in sorted(classes.items(), key=lambda kv: repr(kv[0])):
            for other_vals in itertools.product(*[tuple(t) for t in other_doms]):
                fixed = dict(zip(others, other_vals))
                via_x = eval_potential_response(
                    model, u, response(y, {x: xv, **fixed})
                )
                for wv in sorted(ws, key=repr):
                    via_w = eval_potential_response(
                        model, u, response(y, {w: wv, **fixed})
                    )
                    if via_w != via_x:
                        return False
    return True
