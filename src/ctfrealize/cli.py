"""Command-line entry point.

Subcommands::

    realize     decide a query against a graph and action set
    eval        exact probability / distribution of a query on a model
    sample      execute the realization plan and write sample rows
    bandit      run one bandit algorithm, write cr.csv / oap.csv
    fairness    constrained-sampling fairness contrast
    procedures  list feasible input randomizations of an expanded diagram

Every run writes a summary.json embedding the resolved configuration
(seed always explicit) and the package version. Exit codes: 0 success
or realizable, 3 not realizable, 1 input error, 2 runtime error. A
warning the warnings filters (``-W``) let through prints as
``ctfrealize: warning: ...`` on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import warnings
from pathlib import Path
from typing import Any

from . import __version__
from .errors import CtfRealizeError, EstimationError, QueryError
from .graphs import CausalDiagram
from .queries import parse_query
from .engine import exact_distribution, exact_l3_probability
from .realizability import (
    ActionSet,
    ctf_realize,
    maximal_action_set,
    parse_action_set,
    read_action,
    select,
)
from .mediators import ctf_procedures
from . import bandits
from . import fairness
from .fixtures import builtin_names, resolve_diagram, resolve_expanded, resolve_model

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_RUNTIME = 2
EXIT_NOT_REALIZABLE = 3


def _resolve_actions(args, diagram: CausalDiagram) -> ActionSet:
    if args.maximal:
        return maximal_action_set(diagram)
    if not args.actions:
        raise CtfRealizeError("provide --actions or --maximal")
    acts = parse_action_set(args.actions, diagram)
    if not args.no_implicit_reads:
        acts = acts.union(
            ActionSet([select(), *(read_action(v) for v in diagram.variables)])
        )
    return acts


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("CTFREALIZE_OUT") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _seed(args) -> int:
    if args.seed is not None:
        if args.seed < 0:
            raise EstimationError(f"--seed must be a non-negative integer, got {args.seed}")
        return args.seed
    return int.from_bytes(os.urandom(4), "little")


def _write_summary(path: Path, config: dict[str, Any], payload: dict[str, Any]) -> None:
    doc = {"version": __version__, "config": config, **payload}
    path.write_text(json.dumps(doc, indent=2, default=str) + "\n")


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_realize(args) -> int:
    diagram = resolve_diagram(args.graph)
    q = parse_query(args.query, diagram)
    actions = _resolve_actions(args, diagram)
    verdict = ctf_realize(q, diagram, actions)
    out = _out_dir(args)
    config = {
        "subcommand": "realize", "graph": args.graph, "query": args.query,
        "actions": [str(a) for a in actions], "maximal": bool(args.maximal),
    }
    if verdict:
        print(verdict.describe())
        plan_doc = {
            "realizable": True,
            "steps": [
                {
                    "variable": s.variable,
                    "interventions": [
                        {"action": str(a), "required": v} for a, v in s.interventions
                    ],
                    "reads": [str(q.terms[i]) for i in s.read_terms],
                }
                for s in verdict.steps
            ],
            "do_not_perform": [str(a) for a in verdict.natural_constraints],
            "notes": list(verdict.notes),
            "acceptance_probability": verdict.acceptance_probability(),
        }
        _write_summary(out / "plan.json", config, plan_doc)
        return EXIT_OK
    print(f"NOT REALIZABLE: {verdict.describe()}")
    doc = {
        "realizable": False,
        "conflict": {
            "variable": verdict.conflict.variable,
            "class": verdict.conflict.failure,
            "action": str(verdict.conflict.action) if verdict.conflict.action else None,
            "required": verdict.conflict.required,
            "existing": verdict.conflict.existing,
            "terms": [
                str(q.terms[i])
                for i in (verdict.conflict.term_index, verdict.conflict.prior_term_index)
                if i is not None
            ],
        },
        "criterion_witness": (
            [str(t) for t in verdict.criterion_pair] if verdict.criterion_pair else None
        ),
    }
    _write_summary(out / "plan.json", config, doc)
    return EXIT_NOT_REALIZABLE


def cmd_eval(args) -> int:
    model = resolve_model(args.model)
    q = parse_query(args.query, model.diagram)
    if not q.is_valued() and any(v is not None for v in q.values()):
        raise QueryError(
            f"{q} values only some of its terms: value every term for a "
            "probability, or none for the joint distribution"
        )
    out = _out_dir(args)
    config = {"subcommand": "eval", "model": args.model, "query": args.query}
    if q.is_valued():
        p = exact_l3_probability(model, q)
        print(f"{q} = {p:.12g}")
        _write_summary(out / "summary.json", config, {"probability": p})
    else:
        dist = exact_distribution(model, q)
        for row, prob in zip(dist.support, dist.probabilities):
            print(f"  {row} -> {prob:.12g}")
        if args.format in ("csv", "both"):
            _write_csv(
                out / "distribution.csv",
                [str(t) for t in q.terms] + ["probability"],
                [list(r) + [f"{p:.12g}"] for r, p in zip(dist.support, dist.probabilities)],
            )
        _write_summary(
            out / "summary.json", config,
            {"distribution": {str(r): p for r, p in zip(dist.support, dist.probabilities)}},
        )
    return EXIT_OK


def cmd_sample(args) -> int:
    from .simulate import draw_plan_batch

    if args.n < 1:
        # an empty batch has no empirical distribution to compare
        raise EstimationError(f"--n must be at least 1, got {args.n}")
    seed = _seed(args)
    model = resolve_model(args.model)
    q = parse_query(args.query, model.diagram)
    if any(v is not None for v in q.values()):
        raise QueryError(
            f"{q} assigns event values, but sample draws the joint "
            "distribution of its terms: drop the values"
        )
    actions = _resolve_actions(args, model.diagram)
    verdict = ctf_realize(q, model.diagram, actions)
    if not verdict:
        print(f"NOT REALIZABLE: {verdict.describe()}")
        return EXIT_NOT_REALIZABLE
    batch = draw_plan_batch(verdict, model, args.n, seed=seed)
    out = _out_dir(args)
    if args.format in ("csv", "both"):
        _write_csv(
            out / "samples.csv",
            [str(t) for t in verdict.query.terms],
            batch.rows,
        )
    accepted = len(batch.rows)
    config = {
        "subcommand": "sample", "model": args.model, "query": args.query,
        "actions": [str(a) for a in actions], "n": args.n, "seed": seed,
    }
    payload: dict[str, Any] = {
        "accepted": accepted,
        "rejected_units": batch.rejected_units,
        "acceptance_rate": accepted / max(accepted + batch.rejected_units, 1),
    }
    empirical = batch.empirical()
    dist = exact_distribution(model, verdict.query)
    payload["empirical_vs_exact_tv"] = dist.total_variation(empirical)
    payload["exact"] = {str(k): v for k, v in dist.as_dict().items()}
    payload["empirical"] = {str(k): v for k, v in sorted(empirical.items(), key=repr)}
    _write_summary(out / "summary.json", config, payload)
    print(
        f"wrote {accepted} rows (rejected {batch.rejected_units} units); "
        f"TV vs exact = {payload['empirical_vs_exact_tv']:.4f}"
    )
    return EXIT_OK


def cmd_bandit(args) -> int:
    if args.T < 1 or args.epochs < 1:
        # an empty run has no final regret or terminal window to report
        raise EstimationError(
            f"--T and --epochs must be at least 1, got {args.T} and {args.epochs}"
        )
    seed = _seed(args)
    model = resolve_model(args.problem)
    problem = bandits.MabProblem(model, context="Z" if "Z" in model.diagram else None)
    metrics = bandits.run_epochs(args.algo, problem, args.T, args.epochs, seed)
    out = _out_dir(args)
    if args.format in ("csv", "both"):
        bandits.write_metric_csv(out / "cr.csv", metrics, "cr")
        bandits.write_metric_csv(out / "oap.csv", metrics, "oap")
    config = {
        "subcommand": "bandit", "algo": args.algo, "problem": args.problem,
        "T": args.T, "epochs": args.epochs, "seed": seed,
    }
    s = metrics.summary()
    _write_summary(out / "summary.json", config,
                   {**s, "elapsed_s": metrics.epoch_seconds.tolist()})
    print(
        f"{args.algo}: terminal reward {s['terminal_mean_reward']:.4f}, "
        f"final CR {s['final_cumulative_regret']:.2f}, "
        f"terminal OAP {s['terminal_oap']:.3f}"
    )
    return EXIT_OK


def cmd_fairness(args) -> int:
    if args.n < 1:
        raise EstimationError(f"--n must be at least 1, got {args.n}")
    constraint = fairness.L2_PENALTY if args.constraint == "l2" else fairness.L3_PENALTY
    seed = _seed(args)
    samples = fairness.sample_constrained_scms(
        constraint, args.n, args.epsilon, seed=seed
    )
    out = _out_dir(args)
    if args.format in ("csv", "both"):
        _write_csv(
            out / "mu_ctf_histogram.csv",
            ["mu_ctf", "mu_int1", "mu_int2"],
            [
                [f"{r.mu_ctf:.10g}", f"{r.mu_int1:.10g}", f"{r.mu_int2:.10g}"]
                for _, r in samples
            ],
        )
    frac = fairness.violation_fraction(samples)
    config = {
        "subcommand": "fairness", "constraint": args.constraint, "n": args.n,
        "epsilon": args.epsilon, "seed": seed,
    }
    _write_summary(
        out / "summary.json", config,
        {
            "violation_threshold": fairness.DISCRIMINATION_THRESHOLD,
            "fraction_above_threshold": frac,
        },
    )
    print(
        f"{args.n} tables under the {args.constraint} constraint: "
        f"{100 * frac:.1f}% exceed mu_ctf > {fairness.DISCRIMINATION_THRESHOLD}"
    )
    return EXIT_OK


def cmd_procedures(args) -> int:
    expanded = resolve_expanded(args.expanded)
    acts = ctf_procedures(expanded, args.variable)
    out = _out_dir(args)
    listed = [str(a) for a in acts]
    for a in listed:
        print(a)
    config = {
        "subcommand": "procedures", "expanded": args.expanded,
        "variable": args.variable,
    }
    _write_summary(out / "summary.json", config, {"actions": listed})
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctfrealize",
        description=(
            "Decide whether counterfactual distributions are physically "
            "sampleable, and simulate the experiments that draw from them. "
            f"Built-in fixtures: {', '.join(builtin_names())}."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common_out(p):
        p.add_argument("--out", help="output directory (default: $CTFREALIZE_OUT or .)")
        p.add_argument("--format", choices=["json", "csv", "both"], default="both")
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed; recorded in outputs (random if omitted)")

    def action_flags(p):
        p.add_argument("--actions", help="e.g. \"Rand(X), CtfRand(X->{Z,W})\"")
        p.add_argument("--maximal", action="store_true",
                       help="use the per-child maximal action set")
        p.add_argument("--no-implicit-reads", action="store_true",
                       help="do not add Select/Read(V) to --actions automatically")

    p = sub.add_parser("realize", help="decide realizability of a query")
    p.add_argument("--graph", required=True, help="fixture path or built-in name")
    p.add_argument("--query", required=True, help="e.g. \"P(Y[X=1], X)\"")
    action_flags(p)
    common_out(p)
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("eval", help="exact probability or distribution")
    p.add_argument("--model", required=True)
    p.add_argument("--query", required=True)
    common_out(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sample", help="execute the plan and write sample rows")
    p.add_argument("--model", required=True)
    p.add_argument("--query", required=True)
    action_flags(p)
    p.add_argument("--n", type=int, default=1000)
    common_out(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("bandit", help="run a bandit algorithm")
    p.add_argument("--algo", choices=list(bandits.ALGORITHMS), required=True)
    p.add_argument("--problem", default="bandit_example",
                   help="built-in model name or model fixture path; a "
                   "variable named Z is the context")
    p.add_argument("--T", type=int, default=2000)
    p.add_argument("--epochs", type=int, default=200)
    common_out(p)
    p.set_defaults(func=cmd_bandit)

    p = sub.add_parser("fairness", help="constrained-sampling fairness contrast")
    p.add_argument("--constraint", choices=["l2", "l3"], required=True)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--epsilon", type=float, default=0.01)
    common_out(p)
    p.set_defaults(func=cmd_fairness)

    p = sub.add_parser("procedures", help="feasible input randomizations")
    p.add_argument("--expanded", required=True,
                   help="built-in expanded-diagram name or fixture path")
    p.add_argument("--variable", required=True)
    common_out(p)
    p.set_defaults(func=cmd_procedures)

    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """Print a warning that the filters let through as the CLI's own line,
    not as the source location the package warned at."""
    print(f"ctfrealize: warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors; map to the input-error code
        return EXIT_INPUT if e.code not in (0, None) else EXIT_OK
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            return args.func(args)
    except CtfRealizeError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as e:  # noqa: BLE001
        print(f"runtime error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
