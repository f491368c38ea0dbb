"""Causal diagrams over finite named variables.

A diagram is a directed acyclic graph plus a set of bidirected edges
(unordered pairs marking latent confounding). Variables carry ordered
finite domains so value indices are stable across runs. Diagrams are
immutable after construction; every operation returns new objects.

Determinism: variable iteration follows declaration order everywhere,
including topological sorting (ties broken by declaration order), so
plans, witnesses and traces are reproducible.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .errors import GraphError

Value = object  # domain values are arbitrary hashables (ints, strings)


class CausalDiagram:
    """Directed + bidirected finite graph with per-variable domains."""

    def __init__(
        self,
        variables: Sequence[str],
        domains: Mapping[str, Sequence[Value]] | None = None,
        directed_edges: Iterable[tuple[str, str]] = (),
        bidirected_edges: Iterable[tuple[str, str]] = (),
        allow_constant: Iterable[str] = (),
    ):
        self.variables: tuple[str, ...] = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise GraphError("duplicate variable names")
        self._index = {v: i for i, v in enumerate(self.variables)}

        domains = domains or {}
        for v in domains:
            if v not in self._index:
                raise GraphError(f"domain given for undeclared variable {v!r}")
        self.domains: dict[str, tuple[Value, ...]] = {}
        constants = set(allow_constant)
        for v in self.variables:
            dom = tuple(domains.get(v, (0, 1)))
            if len(set(dom)) != len(dom):
                raise GraphError(f"domain of {v!r} has duplicate values")
            if not dom:
                raise GraphError(f"domain of {v!r} is empty")
            if len(dom) < 2 and v not in constants:
                raise GraphError(
                    f"domain of {v!r} has fewer than 2 values; "
                    "flag it with allow_constant if intended"
                )
            self.domains[v] = dom

        self.directed_edges: frozenset[tuple[str, str]] = frozenset(directed_edges)
        for a, b in self.directed_edges:
            self._check_var(a)
            self._check_var(b)
            if a == b:
                raise GraphError(f"self-loop on {a!r}")

        bid = set()
        for a, b in bidirected_edges:
            self._check_var(a)
            self._check_var(b)
            if a == b:
                raise GraphError(f"bidirected self-loop on {a!r}")
            bid.add(frozenset((a, b)))
        self.bidirected_edges: frozenset[frozenset[str]] = frozenset(bid)

        self._parents: dict[str, tuple[str, ...]] = {v: () for v in self.variables}
        self._children: dict[str, tuple[str, ...]] = {v: () for v in self.variables}
        for v in self.variables:
            self._parents[v] = tuple(
                p for p in self.variables if (p, v) in self.directed_edges
            )
            self._children[v] = tuple(
                c for c in self.variables if (v, c) in self.directed_edges
            )

        self._topo = self._topological_order()  # also rejects cycles
        # memoized closures; key (v, cut_into, cut_out_of) for ancestors
        self._anc_cache: dict[tuple, tuple[str, ...]] = {}
        self._desc_cache: dict[str, tuple[str, ...]] = {}

    # -- basic accessors -------------------------------------------------

    def _check_var(self, v: str) -> None:
        if v not in self._index:
            raise GraphError(f"unknown variable {v!r}")

    def __contains__(self, v: str) -> bool:
        return v in self._index

    def parents(self, v: str) -> tuple[str, ...]:
        self._check_var(v)
        return self._parents[v]

    def children(self, v: str) -> tuple[str, ...]:
        self._check_var(v)
        return self._children[v]

    def ancestors(
        self, v: str, cut_into: Iterable[str] = (), cut_out_of: Iterable[str] = ()
    ) -> tuple[str, ...]:
        """Reflexive-transitive closure along incoming edges (includes v).

        With ``cut_into`` / ``cut_out_of`` the closure is taken in the
        graph without edges into / out of those variables, so it equals
        ``mutilate(cut_into, cut_out_of).ancestors(v)`` without building
        the cut diagram. Results are memoized: the diagram is immutable.
        """
        key = (v, frozenset(cut_into), frozenset(cut_out_of))
        cached = self._anc_cache.get(key)
        if cached is not None:
            return cached
        _, into, out_of = key
        for x in (v, *into, *out_of):
            self._check_var(x)
        seen = {v}
        stack = [v]
        while stack:
            u = stack.pop()
            if u in into:
                continue
            for p in self._parents[u]:
                if p not in seen and p not in out_of:
                    seen.add(p)
                    stack.append(p)
        result = tuple(x for x in self.variables if x in seen)
        self._anc_cache[key] = result
        return result

    def descendants(self, v: str) -> tuple[str, ...]:
        """Reflexive-transitive closure along outgoing edges (includes v).
        Memoized: the diagram is immutable."""
        cached = self._desc_cache.get(v)
        if cached is not None:
            return cached
        self._check_var(v)
        seen = {v}
        stack = [v]
        while stack:
            for c in self._children[stack.pop()]:
                if c not in seen:
                    seen.add(c)
                    stack.append(c)
        result = tuple(x for x in self.variables if x in seen)
        self._desc_cache[v] = result
        return result

    # -- surgery ---------------------------------------------------------

    def mutilate(
        self,
        cut_into: Iterable[str] = (),
        cut_out_of: Iterable[str] = (),
    ) -> "CausalDiagram":
        """Diagram with edges into ``cut_into`` and out of ``cut_out_of``
        removed. The original is untouched."""
        into = set(cut_into)
        out_of = set(cut_out_of)
        for v in into | out_of:
            self._check_var(v)
        edges = {
            (a, b)
            for a, b in self.directed_edges
            if b not in into and a not in out_of
        }
        return CausalDiagram(
            self.variables,
            self.domains,
            edges,
            [tuple(e) for e in self.bidirected_edges],
            allow_constant=[v for v in self.variables if len(self.domains[v]) < 2],
        )

    def _topological_order(self) -> tuple[str, ...]:
        indeg = {v: len(self._parents[v]) for v in self.variables}
        ready = [v for v in self.variables if indeg[v] == 0]
        order: list[str] = []
        while ready:
            # declaration order among the ready set keeps ties deterministic
            v = min(ready, key=self._index.__getitem__)
            ready.remove(v)
            order.append(v)
            for c in self._children[v]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    ready.append(c)
        if len(order) != len(self.variables):
            raise GraphError("directed edges contain a cycle")
        return tuple(order)

    def topological_order(self) -> tuple[str, ...]:
        return self._topo

    # -- equality / hashing ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CausalDiagram)
            and self.variables == other.variables
            and self.domains == other.domains
            and self.directed_edges == other.directed_edges
            and self.bidirected_edges == other.bidirected_edges
        )

    def __hash__(self) -> int:
        return hash((self.variables, self.directed_edges, self.bidirected_edges))

    def __repr__(self) -> str:
        d = ", ".join(f"{a}->{b}" for a, b in sorted(self.directed_edges))
        b = ", ".join("<->".join(sorted(e)) for e in sorted(self.bidirected_edges, key=sorted))
        return f"CausalDiagram({list(self.variables)}; {d}; {b})"
