"""Finite-domain structural causal models.

Mechanisms are explicit lookup tables rather than closures, so the
exogenous domain can be enumerated exhaustively for exact evaluation
and models round-trip through the JSON fixture format. Models are
immutable after construction and safe to share across threads.

``ScmModel.compile()`` turns a model into integer tables once, on first
use, and caches them on the model. ``ScmModel.reweighted(dist)`` is the
same model under new exogenous weights, and the one way models share
compiled tables: when its rows of nonzero weight are the base model's,
it shares the base's compiled tables and their memos (rows, codes,
coded mechanisms, per-regime term codes, event rows) and builds only
its weight list; any other row set is compiled afresh.
``ScmModel.exogenous_support()`` is the support in its fixed order, and
``compile().rows`` its rows of nonzero weight in that order: the one
row space that sampling uses. ``ScmModel.selection_table()`` is the
table units are selected from those rows by. Both are built on first
use and cached too, and a reweighted model builds its own, since its
weights differ.
The caches are filled lazily and never change a result, so a model
stays safe to share: two threads that compile it at once at worst
build the same tables twice.

Every shipped model is built by ``tabulated_model(diagram, exogenous,
mechanisms)``: independent exogenous variables given by their weights,
and one function per variable, tabulated over the domains the diagram
and the weights fix.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Hashable, Mapping, Sequence

import numpy as np

from .errors import ModelError
from .graphs import CausalDiagram, Value

PROB_TOL = 1e-12

# Largest exogenous support, or coded mechanism table, that is enumerated or
# compiled; a bigger one raises ModelError before it is built.
MAX_TABLE_ROWS = 10**6


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
        inputs = itertools.product(*parent_domains, *exo_domains)
        return cls(parents, exogenous, {key: fn(*key) for key in inputs})

    def __call__(self, parent_values: Sequence[Value], exo_values: Sequence[Value]) -> Value:
        key = tuple(parent_values) + tuple(exo_values)
        try:
            return self.table[key]
        except KeyError:
            raise self._missing(key) from None

    def _missing(self, key: tuple) -> ModelError:
        return ModelError(
            f"mechanism table missing entry for inputs {key!r} "
            f"(parents {self.parents}, exogenous {self.exogenous})"
        )

    def coded(
        self,
        input_domains: tuple[tuple[Value, ...], ...],
        output_domain: tuple[Value, ...],
    ) -> np.ndarray:
        """The table as an integer array over value codes (a value's index
        in its domain): axis i is indexed by the code of input i, parents
        then exogenous, and an entry is the output's code. A compiled
        model is total: an input in the domains with no entry raises the
        error ``__call__`` gives for it, the first such input in domain
        product order."""
        shape = tuple(len(d) for d in input_domains)
        size = math.prod(shape)
        if size > MAX_TABLE_ROWS:
            raise ModelError(
                f"coded table of {size} entries for mechanism (parents "
                f"{self.parents}, exogenous {self.exogenous}) exceeds the "
                f"cap of {MAX_TABLE_ROWS}"
            )
        codes = {x: i for i, x in enumerate(output_domain)}
        flat = []
        for inputs in itertools.product(*input_domains):
            try:
                value = self.table[inputs]
            except KeyError:
                raise self._missing(inputs) from None
            if value not in codes:
                raise ModelError(
                    f"mechanism (parents {self.parents}, exogenous "
                    f"{self.exogenous}) outputs {value!r} outside its domain"
                )
            flat.append(codes[value])
        return np.array(flat, dtype=np.intp).reshape(shape)


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
        self._support: list[tuple[tuple, float]] | None = None
        self._compiled: CompiledScm | None = None
        self._selection: np.ndarray | None = None
        self._base: ScmModel | None = None

    def reweighted(self, exogenous_dist: Mapping[tuple, float]) -> "ScmModel":
        """This model with new exogenous weights: the same diagram,
        exogenous variables, domains and ``Mechanism`` objects. Its
        ``compile()`` shares the base's compiled tables when the rows of
        nonzero weight are the same, and compiles afresh otherwise. The
        base is this model, or its base if it is itself reweighted, so
        repeated reweighting keeps no chain of models alive."""
        model = ScmModel.__new__(ScmModel)
        model.__dict__.update(self.__dict__)
        model.exogenous_dist = {tuple(k): float(p) for k, p in exogenous_dist.items()}
        model._support = None
        model._compiled = None
        model._selection = None
        model._base = self._base or self
        return model

    def compile(self) -> "CompiledScm":
        """The model as integer tables (built on first call, then cached)."""
        if self._compiled is None:
            shared = None
            if self._base is not None:
                try:
                    shared = self._base.compile()
                except ModelError:  # a base row may be invalid where ours are not
                    pass
            compiled = shared.reweighted(self.exogenous_dist) if shared else None
            self._compiled = compiled or CompiledScm(self)
        return self._compiled

    # -- enumeration helpers ----------------------------------------------

    def exogenous_support(self) -> list[tuple[tuple, float]]:
        """All (joint exogenous assignment, probability) pairs, in a fixed
        order, including zero-probability rows if present in the table.
        Sorted on first call; each call returns a fresh list."""
        if self._support is None:
            self._support = sorted(
                self.exogenous_dist.items(), key=lambda kv: _sort_key(kv[0])
            )
        return list(self._support)

    def selection_table(self) -> np.ndarray:
        """How units are selected from this model (built on first call,
        then cached): entry i is the cumulative normalized weight of
        ``compile().rows`` up to and including row i. The weights are
        normalized by their sum over every ``exogenous_support()`` row,
        zero weights included: numpy sums in pairs, so leaving a zero out
        could round the total differently."""
        if self._selection is None:
            total = np.array([p for _, p in self.exogenous_support()], dtype=float).sum()
            weights = np.array(self.compile().weights, dtype=float)
            self._selection = np.cumsum(weights / total)
        return self._selection

    def exo_value(self, u: tuple, name: str) -> Value:
        return u[self._exo_index[name]]

    def evaluate(self, v: str, parent_values: Mapping[str, Value], u: tuple) -> Value:
        """Fire the mechanism for ``v`` with explicit parent values and the
        exogenous assignment ``u`` (full joint tuple)."""
        m = self.mechanisms[v]
        pv = tuple(parent_values[p] for p in m.parents)
        ev = tuple(self.exo_value(u, e) for e in m.exogenous)
        return m(pv, ev)


def _sort_key(assignment: tuple):
    return tuple(map(repr, assignment))


class CompiledScm:
    """An ``ScmModel`` as integer tables, for evaluating a variable under a
    regime on every exogenous row at once.

    - ``codes[v]`` maps each value in v's domain to its index there;
    - ``rows`` are the exogenous assignments of nonzero weight, in
      ``exogenous_support()`` order (units are selected by their index
      here), ``exogenous_codes`` the same rows as an (R, |U|) code
      array, and ``weights`` their probabilities, a list of floats in
      the same order, which the engine adds one at a time;
    - ``mechanisms[v]`` is v's table as ``Mechanism.coded`` gives it.

    A compiled model is total: compiling raises on a missing mechanism or
    table entry, and on a mechanism input the model does not declare.

    ``values`` memoizes its result per (variable, regime), and ``events``
    holds each valued query's event rows, the list of indices of the
    rows where every term hits its value (the engine fills it); both
    memos only grow, and an entry never changes once written.

    ``reweighted`` gives the tables of a model with the same structure
    and new weights: everything above but ``weights`` is shared, memos
    included, so a query evaluated on one model is a lookup on the other.
    It applies only when the rows of nonzero weight are the same set;
    any other reweighting is compiled afresh. A distribution whose keys
    are ``rows``, in that order, gives its values as the weights as they
    are listed, with no lookup per row.
    """

    def __init__(self, model: ScmModel):
        if len(model.exogenous_dist) > MAX_TABLE_ROWS:
            raise ModelError(
                f"exogenous support of {len(model.exogenous_dist)} rows "
                f"exceeds the cap of {MAX_TABLE_ROWS}"
            )
        diagram = model.diagram
        self.codes = {
            v: {x: i for i, x in enumerate(d)} for v, d in diagram.domains.items()
        }
        support = [(u, p) for u, p in model.exogenous_support() if p != 0.0]
        self.rows = [u for u, _ in support]
        self.weights = [p for _, p in support]
        n_exo = len(model.exogenous_vars)
        if any(len(u) != n_exo for u in self.rows):
            raise ModelError(
                "an exogenous assignment of nonzero weight has the wrong arity"
            )
        coded = []
        for e, column in zip(model.exogenous_vars, zip(*self.rows)):
            index = {x: i for i, x in enumerate(model.exogenous_domains[e])}
            try:
                coded.append([index[x] for x in column])
            except KeyError as err:
                raise ModelError(
                    f"exogenous value {err.args[0]!r} of nonzero weight is outside "
                    f"the domain of {e!r}"
                ) from None
        self.exogenous_codes = np.array(coded, dtype=np.intp).reshape(
            n_exo, len(self.rows)
        ).T
        for v in diagram.variables:
            if v not in model.mechanisms:
                raise ModelError(f"no mechanism for {v!r}")
        self.mechanisms: dict[str, np.ndarray] = {}
        self._inputs: dict[str, tuple[tuple[str, ...], tuple[np.ndarray, ...]]] = {}
        for v, m in model.mechanisms.items():
            if v not in diagram:
                continue
            problems = _input_problems(model, v, m)
            if problems:
                raise ModelError(problems[0])
            domains = tuple(diagram.domains[p] for p in m.parents) + tuple(
                model.exogenous_domains[e] for e in m.exogenous
            )
            self.mechanisms[v] = m.coded(domains, diagram.domains[v])
            columns = tuple(
                self.exogenous_codes[:, model._exo_index[e]] for e in m.exogenous
            )
            self._inputs[v] = (m.parents, columns)
        self._memo: dict[tuple[str, frozenset], np.ndarray] = {}
        self.events: dict[Hashable, list[int]] = {}  # keyed by valued query

    def reweighted(self, exogenous_dist: Mapping[tuple, float]) -> "CompiledScm | None":
        """These tables under new weights, or None when the rows of nonzero
        weight in ``exogenous_dist`` are not exactly ``rows``. When its
        keys are ``rows`` in row order (as ``CanonicalScm.to_model``
        builds them), its values are the weights; otherwise each row's
        weight is looked up, a missing row weighing 0. Either way a zero
        weight on a row, or a nonzero weight off the rows, gives None."""
        if len(exogenous_dist) > MAX_TABLE_ROWS:
            return None
        listed = list(exogenous_dist.values())
        if list(exogenous_dist) == self.rows:
            weights = listed
        else:
            weights = [exogenous_dist.get(u, 0.0) for u in self.rows]
        nonzero = len(listed) - listed.count(0.0)
        if 0.0 in weights or nonzero != len(weights):
            return None
        out = CompiledScm.__new__(CompiledScm)
        out.__dict__.update(self.__dict__)
        out.weights = weights
        return out

    def values(self, variable: str, regime: frozenset) -> np.ndarray:
        """Codes of ``variable`` on every row, in the submodel where
        ``regime`` fixes inputs. ``regime`` holds ((var, child), code)
        pairs: var's value is fed to child's mechanism only, or, with child
        None, var is replaced by the constant."""
        return self._natural(variable, dict(regime), regime)

    def _natural(self, v: str, fixed: dict, regime: frozenset) -> np.ndarray:
        out = self._memo.get((v, regime))
        if out is not None:
            return out
        if (v, None) in fixed:
            out = np.full(len(self.rows), fixed[(v, None)], dtype=np.intp)
        else:
            parents, columns = self._inputs[v]
            index = [
                fixed[(p, v)] if (p, v) in fixed else self._natural(p, fixed, regime)
                for p in parents
            ]
            out = self.mechanisms[v][(*index, *columns)]
            if out.ndim == 0:  # no input varies with the row
                out = np.full(len(self.rows), out, dtype=np.intp)
        self._memo[(v, regime)] = out
        return out


def independent_exogenous(
    domains: Mapping[str, Sequence[Value]],
    weights: Mapping[str, Sequence[float]] | None = None,
) -> tuple[tuple[str, ...], dict[str, tuple], dict[tuple, float]]:
    """Joint table for independent exogenous variables (uniform unless
    per-variable weights are given). Returns (names, domains, dist)."""
    names = tuple(domains)
    doms = {u: tuple(domains[u]) for u in names}
    size = math.prod(len(d) for d in doms.values())
    if size > MAX_TABLE_ROWS:
        raise ModelError(
            f"exogenous support of {size} rows exceeds the cap of {MAX_TABLE_ROWS}"
        )
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


def tabulated_model(
    diagram: CausalDiagram,
    exogenous: Mapping[str, Sequence[float]],
    mechanisms: Mapping[str, tuple[Sequence[str], Callable[..., Value]]],
) -> ScmModel:
    """The SCM on ``diagram`` with independent exogenous variables and one
    tabulated mechanism per variable. ``exogenous`` maps each exogenous
    variable, in order, to its weights over the domain 0 .. k-1.
    ``mechanisms`` maps each variable v to (its exogenous inputs, fn):
    v's table is ``fn(*parent_values, *exo_values)``, its parents in
    ``diagram.parents(v)`` order. Every domain is read off the diagram
    or the weights."""
    names, doms, dist = independent_exogenous(
        {u: range(len(w)) for u, w in exogenous.items()}, exogenous
    )
    tables = {}
    for v, (exo, fn) in mechanisms.items():
        parents = diagram.parents(v)
        tables[v] = Mechanism.tabulate(
            parents, exo, [diagram.domains[p] for p in parents], [doms[u] for u in exo], fn
        )
    return ScmModel(diagram, names, doms, dist, tables)


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


def _input_problems(model: ScmModel, v: str, m: Mechanism) -> list[str]:
    """What is wrong with the inputs of v's mechanism m: parents other
    than the diagram declares, or an undeclared exogenous variable.
    ``validate_scm`` lists them all; compiling raises the first."""
    problems = []
    declared = tuple(model.diagram.parents(v))
    if sorted(m.parents) != sorted(declared):
        problems.append(
            f"mechanism for {v!r} reads parents {m.parents}, diagram declares {declared}"
        )
    for e in m.exogenous:
        if e not in model._exo_index:
            problems.append(f"mechanism for {v!r} reads undeclared exogenous {e!r}")
    return problems


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
        problems.extend(_input_problems(model, v, m))
        # totality of the table, when every input has a domain
        domains = [diagram.domains.get(p) for p in m.parents] + [
            model.exogenous_domains.get(e) for e in m.exogenous
        ]
        if None not in domains:
            keys_ok = True
            for key in itertools.product(*domains):
                if key not in m.table:
                    problems.append(f"mechanism for {v!r} missing table row {key!r}")
                    keys_ok = False
                    break
            expected = math.prod(len(d) for d in domains)
            if keys_ok and len(m.table) != expected:
                problems.append(
                    f"mechanism for {v!r} has {len(m.table)} rows, expected {expected}"
                )
        # range of the table
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
        else:
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
