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

The module works on structure only: it reads the mediator declarations
and never evaluates a mechanism. That a declared mediator does carry X
(it inverts to X, and forcing it equals forcing X) is a property of an
explicit SCM, which the test suite checks by enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .errors import MediatorStructureError
from .graphs import CausalDiagram
from .realizability import Action, ActionSet, ctf_rand_action


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
        order; raises if any mediator violates the tree structure: a name
        that repeats or is a variable's, a parent that is neither a
        variable nor a mediator, a cycle, or a mediator serving children
        outside its parent mediator."""
        names = [m.name for m in self.mediators]
        for i, name in enumerate(names):
            if name in self.base or name in names[:i]:
                raise MediatorStructureError(f"mediator name {name!r} is already taken")
        by_name = dict(zip(names, self.mediators))
        return tuple(m for m in self.mediators if self._chain_root(m, by_name) == x)

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
            elif cur.parent in self.base:
                return cur.parent
            else:
                raise MediatorStructureError(
                    f"mediator {cur.name!r} has parent {cur.parent!r}, which is "
                    "neither a variable nor a mediator"
                )


def ctf_procedures(expanded: ExpandedDiagram, x: str) -> ActionSet:
    """All input randomizations of ``x`` the environment supports.

    Elicitation of the natural decision (with x randomizable) yields the
    whole-children action; each valid mediator yields the action over
    the children it serves.

    Raises MediatorStructureError when a mediator chain breaks the tree
    structure (see ``mediators_of``), when a mediator of x serves a
    variable that is not a child of x, or when two sibling mediators (of
    one parent) serve a common child.
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
    # tree structure: sibling mediators serve disjoint children; a chained
    # one nests in its parent (checked in mediators_of), so any two
    # served sets are disjoint or nested
    for i, a in enumerate(meds):
        for b in meds[i + 1:]:
            shared = a.served_children & b.served_children
            if a.parent == b.parent and shared:
                raise MediatorStructureError(
                    f"children {sorted(shared)} perceive {x!r} through both "
                    f"{a.name!r} and {b.name!r}"
                )
    for m in meds:
        if m.invertible and m.randomizable and m.served_children:
            actions.append(ctf_rand_action(x, m.served_children))

    return ActionSet(actions, base)
