"""Exhaustive enumeration of small mixed graphs and their queries.

Used by the algorithm-vs-criterion equivalence tests: every DAG on up
to four binary variables crossed with every bidirected-edge subset,
deduplicated by isomorphism, and every query term shape with at most
two regime variables.
"""

from __future__ import annotations

import functools
import itertools
from ctfrealize import CausalDiagram, CtfQuery, PotentialResponse, RegimeEntry

NAMES = ("A", "B", "C", "D")


def enumerate_mixed_graphs(max_nodes: int = 4):
    """Iterate over one CausalDiagram per isomorphism class of (DAG,
    bidirected set) with 1..max_nodes binary variables. The classes are
    built once per session and shared by every caller."""
    return iter(_mixed_graphs(max_nodes))


@functools.cache
def _mixed_graphs(max_nodes: int) -> tuple[CausalDiagram, ...]:
    graphs = []
    for n in range(1, max_nodes + 1):
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        unordered = [(i, j) for i in range(n) for j in range(i + 1, n)]
        perms = list(itertools.permutations(range(n)))
        seen = set()
        # enumerate DAGs as subsets of ordered pairs that are acyclic
        for mask in range(2 ** len(pairs)):
            edges = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
            if not _acyclic(n, edges):
                continue
            # the class key is the lexicographically smallest relabeling of
            # (edges, bidirected): the smallest edges, then the smallest
            # bidirected set over the relabelings that give those edges
            relabeled = [(_relabel(p, edges), p) for p in perms]
            best = min(e for e, _ in relabeled)
            keep = [p for e, p in relabeled if e == best]
            for bmask in range(2 ** len(unordered)):
                bidir = [unordered[k] for k in range(len(unordered)) if bmask >> k & 1]
                key = (best, min(_relabel(p, bidir, undirected=True) for p in keep))
                if key in seen:
                    continue
                seen.add(key)
                graphs.append(CausalDiagram(
                    NAMES[:n],
                    directed_edges=[(NAMES[a], NAMES[b]) for a, b in edges],
                    bidirected_edges=[(NAMES[a], NAMES[b]) for a, b in bidir],
                ))
    return tuple(graphs)


def _relabel(perm, edges, undirected=False):
    if undirected:
        return tuple(sorted(tuple(sorted((perm[a], perm[b]))) for a, b in edges))
    return tuple(sorted((perm[a], perm[b]) for a, b in edges))


def _acyclic(n, edges) -> bool:
    adj = {i: [] for i in range(n)}
    indeg = {i: 0 for i in range(n)}
    for a, b in edges:
        adj[a].append(b)
        indeg[b] += 1
    ready = [i for i in range(n) if indeg[i] == 0]
    count = 0
    while ready:
        v = ready.pop()
        count += 1
        for c in adj[v]:
            indeg[c] -= 1
            if indeg[c] == 0:
                ready.append(c)
    return count == n


def enumerate_terms(diagram: CausalDiagram, max_regime_vars: int = 2):
    """Every potential response with a regime of at most two variables,
    over all binary value assignments."""
    variables = diagram.variables
    terms = []
    for w in variables:
        others = [v for v in variables if v != w]
        for k in range(0, max_regime_vars + 1):
            for regime_vars in itertools.combinations(others, k):
                for values in itertools.product((0, 1), repeat=k):
                    regime = tuple(
                        RegimeEntry(v, x) for v, x in zip(regime_vars, values)
                    )
                    terms.append(PotentialResponse(w, regime))
    return terms


def queries_of_size(terms, size: int):
    for combo in itertools.combinations(range(len(terms)), size):
        yield CtfQuery(tuple(terms[i] for i in combo))
