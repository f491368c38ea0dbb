import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import ctfrealize
from ctfrealize.cli import EXIT_INPUT, main, parse_action_set
from ctfrealize import ctf_rand_action, fairness, rand_action
from ctfrealize.fixtures import bow_model, fan_diagram
from reference import model_to_dict
from test_bandits import context_problem


def run_cli(args, tmp_path):
    return main(args + ["--out", str(tmp_path)])


def test_parse_action_set():
    fan = fan_diagram()
    acts = parse_action_set("Rand(X), CtfRand(X->{Z,W}), CtfRand(X->Z)", fan)
    assert rand_action("X") in acts
    assert ctf_rand_action("X", ["Z", "W"]) in acts
    assert ctf_rand_action("X", ["Z"]) in acts
    with pytest.raises(Exception):
        parse_action_set("Twist(X)", fan)


def test_realize_with_actions(tmp_path):
    assert run_cli(
        ["realize", "--graph", "fan", "--query", "P(Y[X=1], Z)",
         "--actions", "CtfRand(X->Y)"],
        tmp_path,
    ) == 0
    doc = json.loads((tmp_path / "plan.json").read_text())
    # Select and every Read are added to the given actions
    assert doc["config"]["actions"] == [
        "CtfRand(X->Y)", "Read(W)", "Read(X)", "Read(Y)", "Read(Z)", "Select",
    ]
    assert doc["steps"][0]["interventions"] == [{"action": "CtfRand(X->Y)", "required": 1}]
    assert doc["do_not_perform"] == []
    # the whole-variable randomization would erase Z's natural input
    assert run_cli(
        ["realize", "--graph", "fan", "--query", "P(Y[X=1], Z)",
         "--actions", "Rand(X)"],
        tmp_path,
    ) == 3


def test_no_implicit_reads_leaves_outputs_unreadable(tmp_path):
    args = ["realize", "--graph", "fan", "--query", "P(Y[X=1])",
            "--actions", "Select, CtfRand(X->Y), Read(X)"]
    assert run_cli(args + ["--no-implicit-reads"], tmp_path) == 3
    doc = json.loads((tmp_path / "plan.json").read_text())
    assert doc["conflict"]["class"] == "read-unavailable"
    assert doc["conflict"]["variable"] == "Y"
    assert run_cli(args, tmp_path) == 0


def test_sample_with_actions(tmp_path):
    assert run_cli(
        ["sample", "--model", "fan", "--query", "P(Y[X=1], Z)",
         "--actions", "CtfRand(X->Y)", "--n", "50", "--seed", "2"],
        tmp_path,
    ) == 0
    doc = json.loads((tmp_path / "summary.json").read_text())
    assert doc["accepted"] == 50


@pytest.mark.parametrize("actions, message", [
    ("Rand(Q), CtfRand(X->Y)", "unknown variable 'Q'"),
    ("Read(Q), CtfRand(X->Y)", "unknown variable 'Q'"),
    ("Select(X)", "Select takes no variable"),
    ("Rand(X->Y)", "Rand takes no targets"),
    ("Read(Y->X)", "Read takes no targets"),
    ("CtfRand(X)", "CtfRand needs a variable and nonempty targets"),
    ("Rand", "Rand needs a variable"),
    ("CtfRand(X->Y) Rand(X)", "trailing input at position 14"),
])
def test_bad_action_text_is_an_input_error(tmp_path, capsys, actions, message):
    assert run_cli(
        ["realize", "--graph", "fan", "--query", "P(Y[X=1])", "--actions", actions],
        tmp_path,
    ) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "plan.json").exists()


def test_realize_exit_codes(tmp_path):
    assert run_cli(
        ["realize", "--graph", "hub_conflict",
         "--query", "P(Z[X=0], W[T=0])", "--maximal"],
        tmp_path,
    ) == 3
    doc = json.loads((tmp_path / "plan.json").read_text())
    assert doc["realizable"] is False
    assert doc["criterion_witness"] == ["A", "A[T=0]"]
    assert run_cli(
        ["realize", "--graph", "hub_split",
         "--query", "P(Z[X=0], W[T=0])", "--maximal"],
        tmp_path,
    ) == 0
    doc = json.loads((tmp_path / "plan.json").read_text())
    assert doc["realizable"] is True and doc["steps"]
    assert doc["config"]["query"] == "P(Z[X=0], W[T=0])"
    assert "version" in doc


def test_input_error_exit_code(tmp_path):
    assert run_cli(
        ["realize", "--graph", "bow", "--query", "P(Y[Y=1])", "--maximal"],
        tmp_path,
    ) == 1
    assert run_cli(
        ["realize", "--graph", "bow", "--query", "P(Y[X=1], X)"],
        tmp_path,
    ) == 1  # neither --actions nor --maximal


def test_eval_valued_and_distribution(tmp_path, capsys):
    assert run_cli(
        ["eval", "--model", "bandit_example", "--query", "P(Y[X=0]=1)"],
        tmp_path,
    ) == 0
    doc = json.loads((tmp_path / "summary.json").read_text())
    assert doc["probability"] == pytest.approx(0.7, abs=1e-12)
    assert run_cli(
        ["eval", "--model", "bow", "--query", "P(Y[X=1], X)"], tmp_path
    ) == 0
    assert (tmp_path / "distribution.csv").exists()


def test_eval_of_the_empty_query_prints_one(tmp_path, capsys):
    assert run_cli(["eval", "--model", "bow", "--query", "P()"], tmp_path) == 0
    assert capsys.readouterr().out == "P() = 1\n"
    assert json.loads((tmp_path / "summary.json").read_text())["probability"] == 1.0


def test_a_dropped_subscript_warns_as_the_cli(tmp_path, capsys):
    # a warning the filters show prints as the CLI's own line, not at a
    # source location; the filters still decide whether it shows
    args = ["sample", "--model", "fan", "--query", "P(Y[X=1,Z=0], X)", "--maximal",
            "--n", "5", "--seed", "1"]
    text = ("dropping irrelevant subscript Z=0 from term Y[X=1, Z=0]: 'Z' is not "
            "an ancestor of 'Y'")
    with warnings.catch_warnings():
        warnings.simplefilter("default")
        assert run_cli(args, tmp_path) == 0
    assert capsys.readouterr().err == f"ctfrealize: warning: {text}\n"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        assert run_cli(args, tmp_path) == 0
    assert capsys.readouterr().err == ""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(args, tmp_path) == 2
    assert capsys.readouterr().err == f"runtime error: UserWarning: {text}\n"
    # run as a module, under the interpreter's own filters and under -W
    src = str(Path(ctfrealize.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    for flags, err in (([], f"ctfrealize: warning: {text}\n"), (["-W", "ignore"], "")):
        out = subprocess.run(
            [sys.executable, *flags, "-m", "ctfrealize.cli", *args, "--out", str(tmp_path)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert (out.returncode, out.stderr) == (0, err), flags


def test_eval_rejects_a_model_file_without_a_mechanism(tmp_path, capsys):
    doc = model_to_dict(bow_model(), "bow")
    del doc["mechanisms"]["Y"]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert run_cli(["eval", "--model", str(path), "--query", "P(Y=1)"], tmp_path) == 1
    assert "no mechanism for 'Y'" in capsys.readouterr().err


@pytest.mark.parametrize("command, content, message", [
    ("eval --model {path} --query P(Y)", None,
     "cannot read fixture '{path}': No such file or directory"),
    ("realize --graph {path} --query P(Y) --maximal", '{"edges": []}',
     "fixture has no 'variables' key"),
    ("eval --model {path} --query P(Y)", "{not json", "fixture '{path}' is not JSON: "),
    ("realize --graph {path} --query P(Y) --maximal", "{not json",
     "fixture '{path}' is not JSON: "),
    ("procedures --expanded {path} --variable X", "[]",
     "fixture '{path}' holds no JSON object"),
    ("realize --graph {path} --query P(Y) --maximal",
     '{"variables": ["X", "Y"], "edges": [["X"]]}', "fixture section 'edges' is malformed"),
    ("eval --model {path} --query P(Y)",
     '{"variables": ["X", "Y"], "exogenous": {"variables": [], "domains": {}}, '
     '"mechanisms": {}}', "fixture section 'exogenous' is malformed"),
    ("realize --graph {path} --query P(Y) --maximal",
     '{"variables": "XY", "edges": [["X", "Y"]]}', "fixture section 'variables' is malformed"),
    ("realize --graph {path} --query P(Y[X=2]) --maximal",
     '{"variables": ["X", "Y"], "domains": {"x": [0, 1, 2]}, "edges": [["X", "Y"]]}',
     "domain given for undeclared variable 'x'"),
    ("procedures --expanded {path} --variable X",
     '{"variables": ["X", "Y"], "edges": [["X", "Y"]], "expanded": {"mediators": '
     '[{"name": "W", "parent": "X", "serves": ["Y"], "invertible": "false"}]}}',
     "fixture section 'expanded.mediators' is malformed"),
])
def test_bad_fixture_file_is_an_input_error(tmp_path, capsys, command, content, message):
    path = tmp_path / "fixture.json"
    if content is not None:
        path.write_text(content)
    assert run_cli(command.format(path=path).split(), tmp_path) == 1
    assert message.format(path=path) in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()
    assert not (tmp_path / "plan.json").exists()


def test_eval_rejects_a_partly_valued_query(tmp_path, capsys):
    assert run_cli(
        ["eval", "--model", "bow", "--query", "P(Y[X=1]=1, X)"], tmp_path
    ) == 1
    assert "value every term" in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()


def test_sample_writes_csv_and_summary(tmp_path):
    assert run_cli(
        ["sample", "--model", "bow", "--query", "P(Y[X=1], X)",
         "--maximal", "--n", "400", "--seed", "3"],
        tmp_path,
    ) == 0
    assert (tmp_path / "samples.csv").exists()
    doc = json.loads((tmp_path / "summary.json").read_text())
    assert doc["accepted"] == 400
    assert doc["config"]["seed"] == 3
    assert 0 < doc["acceptance_rate"] <= 1
    assert doc["empirical_vs_exact_tv"] < 0.2


def test_sample_not_realizable_exit(tmp_path):
    assert run_cli(
        ["sample", "--model", "bow", "--query", "P(Y[X=1], X, Y)",
         "--maximal", "--n", "10"],
        tmp_path,
    ) == 3


def test_bandit_outputs(tmp_path):
    assert run_cli(
        ["bandit", "--algo", "ts-ett", "--T", "100", "--epochs", "2",
         "--seed", "5"],
        tmp_path,
    ) == 0
    for name in ("cr.csv", "oap.csv", "summary.json"):
        assert (tmp_path / name).exists()
    header = (tmp_path / "cr.csv").read_text().splitlines()[0]
    assert header == "iteration,mean,ci95_low,ci95_high"


def test_bandit_problem_is_a_builtin_model_name(tmp_path):
    assert run_cli(
        ["bandit", "--algo", "ts", "--problem", "bandit_example", "--T", "40",
         "--epochs", "2", "--seed", "4"],
        tmp_path / "named",
    ) == 0
    assert run_cli(
        ["bandit", "--algo", "ts", "--T", "40", "--epochs", "2", "--seed", "4"],
        tmp_path / "default",
    ) == 0
    doc = json.loads((tmp_path / "default" / "summary.json").read_text())
    assert doc["config"]["problem"] == "bandit_example"
    for name in ("cr.csv", "oap.csv"):
        named = (tmp_path / "named" / name).read_bytes()
        assert named == (tmp_path / "default" / name).read_bytes()


def test_bandit_reads_z_as_the_context(tmp_path):
    # ts-ett that sees z reaches its 0.40 tier; blind to z the tier is 0.30
    path = tmp_path / "context.json"
    path.write_text(json.dumps(model_to_dict(context_problem().model, "context")))
    assert run_cli(
        ["bandit", "--algo", "ts-ett", "--problem", str(path), "--T", "1000",
         "--epochs", "4", "--seed", "0"],
        tmp_path,
    ) == 0
    doc = json.loads((tmp_path / "summary.json").read_text())
    assert doc["terminal_mean_reward"] > 0.35


@pytest.mark.parametrize("sizes", [["--T", "0", "--epochs", "2"],
                                   ["--T", "40", "--epochs", "0"]])
def test_empty_bandit_run_is_an_input_error(tmp_path, sizes, capsys):
    out = tmp_path / "out"
    assert run_cli(["bandit", "--algo", "ts", "--seed", "4"] + sizes, out) == 1
    assert "must be at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n", ["0", "-3"])
def test_empty_sample_is_an_input_error(tmp_path, n, capsys):
    # refused before the query is realized: this one is not realizable,
    # which would exit 3
    out = tmp_path / "out"
    args = ["sample", "--model", "bow", "--query", "P(Y[X=1], X, Y)", "--maximal", "--n", n]
    assert run_cli(args, out) == 1
    assert f"--n must be at least 1, got {n}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n", ["0", "-3"])
def test_empty_fairness_run_is_an_input_error(tmp_path, n, capsys, monkeypatch):
    # refused before the sampler is called
    monkeypatch.setattr(fairness, "sample_constrained_scms", None)
    out = tmp_path / "out"
    assert run_cli(["fairness", "--constraint", "l2", "--n", n], out) == 1
    assert f"--n must be at least 1, got {n}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    # not realizable: exit 3 if the seed were checked after the plan
    ["sample", "--model", "bow", "--query", "P(Y[X=1], X, Y)", "--maximal"],
    ["bandit", "--algo", "ts", "--T", "40", "--epochs", "2"],
    ["fairness", "--constraint", "l3", "--n", "5"],
], ids=["sample", "bandit", "fairness"])
def test_a_negative_seed_is_an_input_error(tmp_path, args, capsys):
    out = tmp_path / "out"
    assert run_cli(args + ["--seed", "-1"], out) == EXIT_INPUT
    assert capsys.readouterr().err == "error: --seed must be a non-negative integer, got -1\n"
    assert not out.exists()


def test_bandit_summary_reports_seconds_per_epoch(tmp_path):
    assert run_cli(
        ["bandit", "--algo", "ts-opt", "--T", "50", "--epochs", "2", "--seed", "5"],
        tmp_path,
    ) == 0
    doc = json.loads((tmp_path / "summary.json").read_text())
    assert len(doc["elapsed_s"]) == 2
    assert all(isinstance(s, float) and s > 0 for s in doc["elapsed_s"])


def test_bandit_reruns_are_byte_identical(tmp_path):
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    for out in (a_dir, b_dir):
        assert main(
            ["bandit", "--algo", "ts", "--T", "80", "--epochs", "2",
             "--seed", "5", "--out", str(out)]
        ) == 0
    assert (a_dir / "cr.csv").read_bytes() == (b_dir / "cr.csv").read_bytes()
    assert (a_dir / "oap.csv").read_bytes() == (b_dir / "oap.csv").read_bytes()


def test_fairness_outputs(tmp_path):
    assert run_cli(
        ["fairness", "--constraint", "l3", "--n", "50",
         "--epsilon", "0.01", "--seed", "4"],
        tmp_path,
    ) == 0
    doc = json.loads((tmp_path / "summary.json").read_text())
    assert doc["fraction_above_threshold"] <= 0.05
    rows = (tmp_path / "mu_ctf_histogram.csv").read_text().splitlines()
    assert rows[0] == "mu_ctf,mu_int1,mu_int2"
    assert len(rows) == 51


def test_negative_fairness_epsilon_is_an_input_error(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(["fairness", "--constraint", "l3", "--epsilon", "-1"], out) == EXIT_INPUT
    assert "epsilon must be a number at least 0, got -1.0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args, csvs", [
    (["bandit", "--algo", "ts", "--T", "40", "--epochs", "2", "--seed", "4"],
     ("cr.csv", "oap.csv")),
    (["fairness", "--constraint", "l3", "--n", "5", "--epsilon", "0.01", "--seed", "4"],
     ("mu_ctf_histogram.csv",)),
], ids=["bandit", "fairness"])
def test_json_format_writes_no_csv(tmp_path, args, csvs):
    assert run_cli(args + ["--format", "json"], tmp_path / "json") == 0
    assert (tmp_path / "json" / "summary.json").exists()
    assert not any((tmp_path / "json" / name).exists() for name in csvs)
    assert run_cli(args, tmp_path / "default") == 0
    assert all((tmp_path / "default" / name).exists() for name in csvs)


def test_procedures_subcommand(tmp_path):
    from ctfrealize.fixtures import expanded_chained_mediators
    from reference import expanded_to_dict

    fx = tmp_path / "expanded.json"
    fx.write_text(json.dumps(expanded_to_dict(expanded_chained_mediators(), "x")))
    assert run_cli(
        ["procedures", "--expanded", str(fx), "--variable", "X"], tmp_path
    ) == 0
    doc = json.loads((tmp_path / "summary.json").read_text())
    assert set(doc["actions"]) == {"CtfRand(X->{T,Y,Z})", "CtfRand(X->{T,Z})"}


def test_procedures_takes_a_builtin_expanded_name(tmp_path):
    assert run_cli(
        ["procedures", "--expanded", "expanded_chained_mediators", "--variable", "X"],
        tmp_path,
    ) == 0
    doc = json.loads((tmp_path / "summary.json").read_text())
    assert set(doc["actions"]) == {"CtfRand(X->{T,Y,Z})", "CtfRand(X->{T,Z})"}


def test_graph_only_builtin_is_not_a_model(tmp_path, capsys):
    assert run_cli(
        ["eval", "--model", "mab_template", "--query", "P(Y)"], tmp_path
    ) == 1
    assert "'mab_template' is a graph-only diagram, not a model" in capsys.readouterr().err


def test_help_lists_every_subcommand_flag():
    import io
    from contextlib import redirect_stdout

    from ctfrealize.cli import build_parser

    parser = build_parser()
    buf = io.StringIO()
    with redirect_stdout(buf):
        try:
            parser.parse_args(["realize", "--help"])
        except SystemExit:
            pass
    text = buf.getvalue()
    for flag in ("--graph", "--query", "--actions", "--maximal", "--out",
                 "--seed", "--format", "--no-implicit-reads"):
        assert flag in text
    for sub, flags in {
        "bandit": ["--algo", "--problem", "--T", "--epochs"],
        "fairness": ["--constraint", "--n", "--epsilon"],
        # realize and sample share their action flags, help text included
        "sample": ["--model", "--query", "--n", "--actions", "--maximal",
                   "--no-implicit-reads", "per-child maximal action set"],
        "eval": ["--model", "--query"],
        "procedures": ["--expanded", "--variable"],
    }.items():
        buf = io.StringIO()
        with redirect_stdout(buf):
            try:
                parser.parse_args([sub, "--help"])
            except SystemExit:
                pass
        for flag in flags:
            assert flag in buf.getvalue(), (sub, flag)


def test_console_entry_point_runs():
    # the child process imports the package this test imports, also when
    # it was found through pytest's pythonpath setting, not PYTHONPATH
    src = str(Path(ctfrealize.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-m", "ctfrealize.cli", "--version"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert out.returncode == 0


def test_sample_rejects_event_values(tmp_path, capsys):
    assert run_cli(
        ["sample", "--model", "bow", "--query", "P(Y[X=1]=1, X=0)",
         "--maximal", "--n", "50", "--seed", "1"],
        tmp_path,
    ) == 1
    assert "sample draws the joint" in capsys.readouterr().err
    assert not (tmp_path / "samples.csv").exists()
