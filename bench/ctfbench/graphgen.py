"""Four-node mixed graphs and the query shapes of the equivalence sweep.

The population is every (DAG, bidirected-edge set) on four labelled
binary variables, deduplicated by isomorphism: 1567 classes. A graph is
coded as a 12-bit directed-edge mask times 64 plus a 6-bit bidirected
mask; a class is represented by the smallest code over the 24 node
relabellings, so the population and its order never depend on Python's
string hashing.

Terms and queries follow the acceptance sweep: every variable under a
regime of at most two other variables with binary values (76 terms per
graph), every single term, every pair, and a seeded set of triples.
"""

from __future__ import annotations

import itertools

import numpy as np

NAMES = ("A", "B", "C", "D")
_N = len(NAMES)
DIRECTED_PAIRS = [(i, j) for i in range(_N) for j in range(_N) if i != j]
UNDIRECTED_PAIRS = [(i, j) for i in range(_N) for j in range(i + 1, _N)]


def _acyclic(mask: int) -> bool:
    indeg = [0] * _N
    children: list[list[int]] = [[] for _ in range(_N)]
    for k, (a, b) in enumerate(DIRECTED_PAIRS):
        if mask >> k & 1:
            children[a].append(b)
            indeg[b] += 1
    ready = [i for i in range(_N) if indeg[i] == 0]
    seen = 0
    while ready:
        v = ready.pop()
        seen += 1
        for c in children[v]:
            indeg[c] -= 1
            if indeg[c] == 0:
                ready.append(c)
    return seen == _N


def _relabel_tables() -> tuple[np.ndarray, np.ndarray]:
    """Per node permutation, the image of every directed mask (4096) and
    every bidirected mask (64)."""
    d_index = {p: k for k, p in enumerate(DIRECTED_PAIRS)}
    b_index = {p: k for k, p in enumerate(UNDIRECTED_PAIRS)}
    d_masks = np.arange(1 << len(DIRECTED_PAIRS), dtype=np.int64)
    b_masks = np.arange(1 << len(UNDIRECTED_PAIRS), dtype=np.int64)
    d_tab, b_tab = [], []
    for perm in itertools.permutations(range(_N)):
        d_img = np.zeros_like(d_masks)
        for k, (a, b) in enumerate(DIRECTED_PAIRS):
            d_img |= ((d_masks >> k) & 1) << d_index[(perm[a], perm[b])]
        b_img = np.zeros_like(b_masks)
        for k, (a, b) in enumerate(UNDIRECTED_PAIRS):
            pa, pb = sorted((perm[a], perm[b]))
            b_img |= ((b_masks >> k) & 1) << b_index[(pa, pb)]
        d_tab.append(d_img)
        b_tab.append(b_img)
    return np.stack(d_tab), np.stack(b_tab)


def four_node_classes() -> np.ndarray:
    """Sorted canonical codes of every isomorphism class."""
    dags = np.array(
        [m for m in range(1 << len(DIRECTED_PAIRS)) if _acyclic(m)], dtype=np.int64
    )
    bids = np.arange(1 << len(UNDIRECTED_PAIRS), dtype=np.int64)
    d_tab, b_tab = _relabel_tables()
    codes = d_tab[:, dags][:, :, None] * 64 + b_tab[:, bids][:, None, :]
    return np.unique(codes.min(axis=0))


def decode(code: int) -> tuple[list[tuple[str, str]], list[tuple[str, str]]]:
    """(directed edges, bidirected edges) over NAMES."""
    d, b = divmod(int(code), 64)
    directed = [
        (NAMES[a], NAMES[c]) for k, (a, c) in enumerate(DIRECTED_PAIRS) if d >> k & 1
    ]
    bidirected = [
        (NAMES[a], NAMES[c]) for k, (a, c) in enumerate(UNDIRECTED_PAIRS) if b >> k & 1
    ]
    return directed, bidirected


def _reach_pairs(code: int) -> int:
    """Number of ordered (ancestor, descendant) pairs: a cost proxy."""
    d = int(code) // 64
    reach = [{i} for i in range(_N)]
    for _ in range(_N):
        for k, (a, b) in enumerate(DIRECTED_PAIRS):
            if d >> k & 1:
                reach[a] |= reach[b]
    return sum(len(r) - 1 for r in reach)


def stratified_sample(codes: np.ndarray, k: int, rng: np.random.Generator) -> list[int]:
    """One class drawn uniformly from each of k equal blocks of the
    population ordered by (reachability pairs, bidirected edges, code),
    so every sample spans sparse to dense graphs in proportion."""
    order = sorted(
        (int(c) for c in codes),
        key=lambda c: (_reach_pairs(c), bin(c % 64).count("1"), c),
    )
    edges = np.linspace(0, len(order), k + 1).astype(int)
    return [order[int(rng.integers(lo, hi))] for lo, hi in zip(edges[:-1], edges[1:])]


def term_shapes() -> list[tuple[str, tuple[tuple[str, int], ...]]]:
    """(variable, regime) for every term of the sweep, in a fixed order."""
    shapes = []
    for w in NAMES:
        others = [v for v in NAMES if v != w]
        for size in range(3):
            for regime_vars in itertools.combinations(others, size):
                for values in itertools.product((0, 1), repeat=size):
                    shapes.append((w, tuple(zip(regime_vars, values))))
    return shapes
