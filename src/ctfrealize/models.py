"""Finite-domain structural causal models.

Mechanisms are explicit lookup tables rather than closures, so the
exogenous domain can be enumerated exhaustively for exact evaluation
and models round-trip through the JSON fixture format. Models are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Mapping, Sequence

from .errors import ModelError
from .graphs import CausalDiagram, Value

PROB_TOL = 1e-12


class Mechanism:
    """Total lookup table (parent values x exogenous-subset values) -> value.

    ``parents`` and ``exogenous`` fix the input order of table keys.
    """

    def __init__(
        self,
        parents: Sequence[str],
        exogenous: Sequence[str],
        table: Mapping[tuple, Value],
    ):
        self.parents = tuple(parents)
        self.exogenous = tuple(exogenous)
        self.table = dict(table)

    @classmethod
    def tabulate(
        cls,
        parents: Sequence[str],
        exogenous: Sequence[str],
        parent_domains: Sequence[Sequence[Value]],
        exo_domains: Sequence[Sequence[Value]],
        fn: Callable[..., Value],
    ) -> "Mechanism":
        """Build the full table by evaluating ``fn(*parent_vals, *exo_vals)``."""
        table = {}
        for pvals in itertools.product(*[tuple(d) for d in parent_domains]):
            for evals in itertools.product(*[tuple(d) for d in exo_domains]):
                table[pvals + evals] = fn(*pvals, *evals)
        return cls(parents, exogenous, table)

    def __call__(self, parent_values: Sequence[Value], exo_values: Sequence[Value]) -> Value:
        key = tuple(parent_values) + tuple(exo_values)
        try:
            return self.table[key]
        except KeyError:
            raise ModelError(
                f"mechanism table missing entry for inputs {key!r} "
                f"(parents {self.parents}, exogenous {self.exogenous})"
            ) from None


class ScmModel:
    """An SCM: diagram, exogenous joint distribution, one mechanism per
    endogenous variable."""

    def __init__(
        self,
        diagram: CausalDiagram,
        exogenous_vars: Sequence[str],
        exogenous_domains: Mapping[str, Sequence[Value]],
        exogenous_dist: Mapping[tuple, float],
        mechanisms: Mapping[str, Mechanism],
    ):
        self.diagram = diagram
        self.exogenous_vars = tuple(exogenous_vars)
        if set(self.exogenous_vars) & set(diagram.variables):
            raise ModelError("exogenous names collide with endogenous names")
        self.exogenous_domains = {
            u: tuple(exogenous_domains[u]) for u in self.exogenous_vars
        }
        self.exogenous_dist = {tuple(k): float(p) for k, p in exogenous_dist.items()}
        self.mechanisms = dict(mechanisms)
        self._exo_index = {u: i for i, u in enumerate(self.exogenous_vars)}

    # -- enumeration helpers ----------------------------------------------

    def exogenous_support(self) -> list[tuple[tuple, float]]:
        """All (joint exogenous assignment, probability) pairs, in a fixed
        order, including zero-probability rows if present in the table."""
        return sorted(self.exogenous_dist.items(), key=lambda kv: _sort_key(kv[0]))

    def exo_value(self, u: tuple, name: str) -> Value:
        return u[self._exo_index[name]]

    def evaluate(self, v: str, parent_values: Mapping[str, Value], u: tuple) -> Value:
        """Fire the mechanism for ``v`` with explicit parent values and the
        exogenous assignment ``u`` (full joint tuple)."""
        m = self.mechanisms[v]
        pv = tuple(parent_values[p] for p in m.parents)
        ev = tuple(self.exo_value(u, e) for e in m.exogenous)
        return m(pv, ev)

    def natural_values(self, u: tuple) -> dict[str, Value]:
        """Forward-simulate every endogenous variable for one u."""
        out: dict[str, Value] = {}
        for v in self.diagram.topological_order():
            out[v] = self.evaluate(v, out, u)
        return out


def _sort_key(assignment: tuple):
    return tuple(repr(x) for x in assignment)


def independent_exogenous(
    domains: Mapping[str, Sequence[Value]],
    weights: Mapping[str, Sequence[float]] | None = None,
) -> tuple[tuple[str, ...], dict[str, tuple], dict[tuple, float]]:
    """Joint table for independent exogenous variables (uniform unless
    per-variable weights are given). Returns (names, domains, dist)."""
    names = tuple(domains)
    doms = {u: tuple(domains[u]) for u in names}
    weights = weights or {}
    dist: dict[tuple, float] = {}
    per_var = []
    for u in names:
        w = weights.get(u)
        if w is None:
            w = [1.0 / len(doms[u])] * len(doms[u])
        if len(w) != len(doms[u]):
            raise ModelError(f"weights for {u!r} do not match its domain")
        per_var.append(list(zip(doms[u], w)))
    for combo in itertools.product(*per_var):
        assignment = tuple(v for v, _ in combo)
        p = 1.0
        for _, w in combo:
            p *= w
        dist[assignment] = p
    return names, doms, dist


def derived_bidirected_edges(model: ScmModel) -> frozenset[frozenset[str]]:
    """Pairs of endogenous variables whose exogenous inputs overlap or are
    dependent under the joint exogenous distribution."""
    out = set()
    variables = model.diagram.variables
    for i, a in enumerate(variables):
        for b in variables[i + 1:]:
            ua = set(model.mechanisms[a].exogenous) if a in model.mechanisms else set()
            ub = set(model.mechanisms[b].exogenous) if b in model.mechanisms else set()
            if not ua or not ub:
                continue
            if ua & ub:
                out.add(frozenset((a, b)))
            elif not _independent(model, tuple(ua), tuple(ub)):
                out.add(frozenset((a, b)))
    return frozenset(out)


def _independent(model: ScmModel, us_a: tuple[str, ...], us_b: tuple[str, ...]) -> bool:
    ja: dict[tuple, float] = {}
    jb: dict[tuple, float] = {}
    jab: dict[tuple, float] = {}
    for u, p in model.exogenous_dist.items():
        ka = tuple(model.exo_value(u, x) for x in us_a)
        kb = tuple(model.exo_value(u, x) for x in us_b)
        ja[ka] = ja.get(ka, 0.0) + p
        jb[kb] = jb.get(kb, 0.0) + p
        jab[(ka, kb)] = jab.get((ka, kb), 0.0) + p
    for (ka, kb), p in jab.items():
        if abs(p - ja[ka] * jb[kb]) > 1e-9:
            return False
    return True


def validate_scm(model: ScmModel) -> list[str]:
    """Check every model invariant; returns a list of violation messages
    (empty means valid). Violations are data, not exceptions."""
    problems: list[str] = []
    diagram = model.diagram

    for v in diagram.variables:
        if v not in model.mechanisms:
            problems.append(f"no mechanism for {v!r}")

    for v, m in model.mechanisms.items():
        if v not in diagram:
            problems.append(f"mechanism for undeclared variable {v!r}")
            continue
        declared = tuple(diagram.parents(v))
        if tuple(sorted(m.parents)) != tuple(sorted(declared)):
            problems.append(
                f"mechanism for {v!r} reads parents {m.parents}, "
                f"diagram declares {declared}"
            )
        for e in m.exogenous:
            if e not in model._exo_index:
                problems.append(f"mechanism for {v!r} reads undeclared exogenous {e!r}")
        # totality and range of the table
        pdoms = [diagram.domains.get(p, ()) for p in m.parents]
        edoms = [model.exogenous_domains.get(e, ()) for e in m.exogenous]
        expected = 1
        for d in pdoms + edoms:
            expected *= max(len(d), 0)
        keys_ok = True
        for key in itertools.product(*[tuple(d) for d in pdoms + edoms]):
            if key not in m.table:
                problems.append(f"mechanism for {v!r} missing table row {key!r}")
                keys_ok = False
                break
        if keys_ok and len(m.table) != expected:
            problems.append(
                f"mechanism for {v!r} has {len(m.table)} rows, expected {expected}"
            )
        dom = set(diagram.domains.get(v, ()))
        for key, val in m.table.items():
            if val not in dom:
                problems.append(
                    f"mechanism for {v!r} outputs {val!r} outside its domain"
                )
                break

    total = 0.0
    for u, p in model.exogenous_dist.items():
        if len(u) != len(model.exogenous_vars):
            problems.append(f"exogenous assignment {u!r} has wrong arity")
            continue
        for name, val in zip(model.exogenous_vars, u):
            if val not in model.exogenous_domains[name]:
                problems.append(f"exogenous value {val!r} outside domain of {name!r}")
        if p < -PROB_TOL or p > 1 + PROB_TOL:
            problems.append(f"exogenous probability {p} outside [0, 1]")
        total += p
    if abs(total - 1.0) > PROB_TOL:
        problems.append(f"exogenous distribution sums to {total}, not 1")

    if not problems:
        derived = derived_bidirected_edges(model)
        declared = model.diagram.bidirected_edges
        if derived != declared:
            fmt = lambda es: sorted("<->".join(sorted(e)) for e in es)  # noqa: E731
            problems.append(
                f"declared bidirected edges {fmt(declared)} differ from "
                f"those induced by shared/dependent exogenous inputs {fmt(derived)}"
            )

    return problems
