"""Command-line behavior: exit codes, output formats, determinism."""

import argparse
import json
from pathlib import Path

import pytest

from mdvkit import cli, verify
from mdvkit import scenario as scn_mod
from mdvkit.cli import (
    EXIT_CHECK_FAILED,
    EXIT_INVALID,
    EXIT_NUMERICAL,
    EXIT_OK,
    main,
)
from mdvkit.displacement import DEFAULT_MAX_ITER

GOOD_SCENARIO = {
    "name": "cli-good",
    "dim": 2,
    "seed": 3,
    "operators": [
        {"affine": {"M": [[0.5, 0.0], [0.0, 0.5]], "b": [0.2, 0.0]}},
        {"affine": {"M": [[0.0, 0.0], [0.0, 0.0]], "b": [0.0, 0.3]}},
    ],
    "checks": [
        {"name": "range_formula_composition"},
        {"name": "norm_bound_composition", "ops": [0, 1]},
    ],
}

SHIPPED = Path(__file__).resolve().parents[1] / "scenarios"
REFLECTIONS = str(SHIPPED / "two_reflections.json")
PROJECTOR_MIX = str(SHIPPED / "projector_mix.json")

FAILING_SCENARIO = {
    "name": "cli-bad",
    "dim": 2,
    "seed": 3,
    "operators": [],
    "checks": [
        # overstated cocoercivity modulus: check applies and fails
        {"name": "cocoercive_averaged_equivalence", "mu": 5.0,
         "A": {"Q": [[2.0, 0.0], [0.0, 0.5]], "q": [0.0, 0.0]}, "samples": 100}
    ],
}


def _dump(tmp_path, payload, name="scn.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def test_verify_scenario_ok(tmp_path, capsys):
    rc = main(["verify", _dump(tmp_path, GOOD_SCENARIO)])
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "verify" and payload["summary"]["failed"] == 0
    assert payload["seed"] == 3  # scenario seed wins when no flag


def test_verify_failing_check_exits_one(tmp_path, capsys):
    rc = main(["verify", _dump(tmp_path, FAILING_SCENARIO)])
    assert rc == EXIT_CHECK_FAILED
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["failed"] == 1


def test_verify_seed_flag_overrides(tmp_path, capsys):
    rc = main(["verify", _dump(tmp_path, GOOD_SCENARIO), "--seed", "99"])
    assert rc == EXIT_OK
    assert json.loads(capsys.readouterr().out)["seed"] == 99


def test_estimate_json_and_csv(tmp_path, capsys):
    path = _dump(tmp_path, GOOD_SCENARIO)
    assert main(["estimate", path]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert [e["label"] for e in payload["estimates"]] == ["op[0]", "op[1]"]
    assert payload["estimates"][0]["method"] == "exact_affine"

    assert main(["estimate", path, "--format", "csv"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "label,method,converged,iterations,residual,norm"
    assert len(lines) == 3


def test_estimate_honors_estimator_block(tmp_path, capsys):
    scn = dict(GOOD_SCENARIO)
    scn["operators"] = [{"compose": [
        {"projector": {"ball": {"center": [0.0, 0.0], "radius": 1.0}}},
        {"affine": {"M": [[1.0, 0.0], [0.0, 1.0]], "b": [0.5, 0.0]}},
    ]}]
    scn["estimator"] = {"x0": [2.0, 2.0], "max_iter": 9, "tol": 1e-12}
    assert main(["estimate", _dump(tmp_path, scn)]) == EXIT_OK
    est = json.loads(capsys.readouterr().out)["estimates"][0]
    assert est["method"] == "residual_iteration"
    assert est["iterations"] == 9 and est["converged"] is False
    # the command-line cap takes precedence over the scenario block
    assert main(["estimate", _dump(tmp_path, scn), "--max-iter", "4"]) == EXIT_OK
    est = json.loads(capsys.readouterr().out)["estimates"][0]
    assert est["iterations"] == 4


def test_report_roundtrip(tmp_path, capsys):
    scn_path = _dump(tmp_path, GOOD_SCENARIO)
    out_path = str(tmp_path / "report.json")
    assert main(["verify", scn_path, "--out", out_path]) == EXIT_OK
    assert capsys.readouterr().out == ""  # written to the file, not stdout

    assert main(["report", out_path]) == EXIT_OK
    csv_text = capsys.readouterr().out
    assert csv_text.splitlines()[0].startswith("check_name,pass,")

    assert main(["report", out_path, "--format", "json"]) == EXIT_OK
    rendered = capsys.readouterr().out
    assert json.loads(rendered)["name"] == "cli-good"
    with open(out_path, encoding="utf-8") as fh:
        assert rendered == fh.read()  # a saved report re-renders byte for byte


@pytest.mark.parametrize("command", [["estimate", REFLECTIONS], ["verify", PROJECTOR_MIX]])
def test_out_into_a_missing_directory_exits_two(command, tmp_path, capsys):
    out = str(tmp_path / "missing" / "x.json")
    assert main([*command, "--out", out]) == EXIT_INVALID
    assert f"error: cannot write {out}: " in capsys.readouterr().err
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize(
    "kind, rows_key, rows, message",
    [
        ("verify", "checks", 5, "checks must be an array of objects"),
        ("verify", "checks", {"check_name": "x"}, "checks must be an array of objects"),
        ("verify", "checks", [5], "checks[0]: expected an object"),
        ("estimate", "estimates", [5], "estimates[0]: expected an object"),
        ("estimate", "estimates", [{"label": "op[0]"}, None], "estimates[1]: expected an object"),
        ("estimate", "estimates", "rows", "estimates must be an array of objects"),
        ("mystery", "checks", [], "kind must be one of estimate, verify"),
        (["verify"], "checks", [], "kind must be one of estimate, verify"),
        ("estimate", "estimates", [{"label": "x", "converged": "no"}],
         "estimates[0].converged: expected true or false"),
        ("verify", "checks", [{"check_name": "x", "pass": "false"}],
         "checks[0].pass: expected true or false"),
        ("verify", "checks", [{"check_name": "x", "pass": True, "hypothesis_met": 1}],
         "checks[0].hypothesis_met: expected true or false"),
        ("estimate", "estimates", [{"label": [1, {"a": 2}]}], "estimates[0].label: expected a string"),
        ("estimate", "estimates", [{"label": "x", "method": None}],
         "estimates[0].method: expected a string"),
        ("verify", "checks", [{"check_name": 5}], "checks[0].check_name: expected a string"),
        # mdvkit writes every number as a decimal string, and never null
        ("estimate", "estimates", [{"label": "x", "norm": float("nan")}],
         "estimates[0].norm: expected a decimal string"),
        ("estimate", "estimates", [{"label": "x", "residual": None}],
         "estimates[0].residual: expected a decimal string"),
        ("estimate", "estimates", [{"label": "x", "norm": "1_000"}],
         "estimates[0].norm: expected a decimal string"),
        ("verify", "checks", [{"check_name": "x", "discrepancy": 0.5}],
         "checks[0].discrepancy: expected a decimal string"),
        ("verify", "checks", [{"check_name": "x", "tolerance": "Infinity"}],
         "checks[0].tolerance: expected a decimal string"),
        # a rows key of "schema_version" overrides the valid version 1
        ("verify", "schema_version", True, "not a schema_version=1 report"),
        ("verify", "schema_version", 1.0, "not a schema_version=1 report"),
        # mdvkit writes seed and iterations as JSON integers
        ("estimate", "estimates", [{"label": "x", "iterations": {"a": [1, 2]}}],
         "estimates[0].iterations: expected an integer"),
        ("estimate", "estimates", [{"label": "x", "iterations": 3.0}],
         "estimates[0].iterations: expected an integer"),
        ("verify", "checks", [{"check_name": "x", "seed": True}],
         "checks[0].seed: expected an integer"),
        ("verify", "checks", [{"check_name": "x", "seed": "7"}],
         "checks[0].seed: expected an integer"),
    ],
)
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_malformed_report_rows_exit_two_with_their_path(kind, rows_key, rows, message, fmt,
                                                        tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"schema_version": 1, "kind": kind, "name": "r", "seed": 0,
                                rows_key: rows, "summary": {}}))
    assert main(["report", str(path), "--format", fmt]) == EXIT_INVALID
    assert f"error: {path}: {message}" in capsys.readouterr().err


def test_report_rows_load_every_number_mdvkit_writes(tmp_path, capsys):
    rows = [{"label": "x", "method": "m", "residual": text, "norm": "-0"}
            for text in ("inf", "nan", "1e-08", "-1.5e+300", "0.10000000000000001", "12")]
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"schema_version": 1, "kind": "estimate", "estimates": rows}))
    assert main(["report", str(path)]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[1:3] == ["x,m,,,inf,-0", "x,m,,,nan,-0"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_report_too_deep_to_render_exits_two(fmt, tmp_path, capsys):
    # json reads a witness 600 arrays deep; the recursive render cannot
    path = tmp_path / "report.json"
    path.write_text('{"schema_version": 1, "kind": "verify", "checks": [{"witness": '
                    + "[" * 600 + "]" * 600 + "}]}")
    assert main(["report", str(path), "--format", fmt]) == EXIT_INVALID
    assert capsys.readouterr().err == f"error: {path}: report nested too deeply to render\n"


def test_report_text_not_writable_as_utf8_exits_two(tmp_path, capsys):
    # JSON escapes a lone surrogate; the CSV prints a label as it is
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"schema_version": 1, "kind": "estimate",
                                "estimates": [{"label": "\ud800"}]}))
    assert main(["report", str(path), "--format", "json"]) == EXIT_OK
    capsys.readouterr()
    out = tmp_path / "report.csv"
    assert main(["report", str(path), "--out", str(out)]) == EXIT_INVALID
    assert capsys.readouterr().err == (
        f"error: {path}: text not writable as UTF-8 (surrogates not allowed)\n")
    assert not out.exists()


def test_builtin_suite_deterministic(tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(["verify", "--builtin-suite", "--seed", "7", "--out", a]) == EXIT_OK
    assert main(["verify", "--builtin-suite", "--seed", "7", "--out", b]) == EXIT_OK
    with open(a, "rb") as fa, open(b, "rb") as fb:
        assert fa.read() == fb.read()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "/nonexistent/scenario.json"],
        ["verify"],                      # neither path nor --builtin-suite
        ["estimate", "/nonexistent/scenario.json"],
        ["report", "/nonexistent/report.json"],
        # out-of-range flags, named in the message
        ["estimate", REFLECTIONS, "--max-iter", "0", "--tol", "-1"],
        ["estimate", REFLECTIONS, "--tol", "nan"],
        ["verify", PROJECTOR_MIX, "--tol", "-1"],
        ["verify", PROJECTOR_MIX, "--tol", "inf"],
        ["verify", PROJECTOR_MIX, "--max-iter", "0"],
        ["verify", "--builtin-suite", "--max-iter", "-3"],
        ["verify", "--builtin-suite", "--tol", "1e-3"],  # per-check tolerances are fixed
    ],
)
def test_invalid_inputs_exit_two(argv, capsys):
    assert main(argv) == EXIT_INVALID
    err = capsys.readouterr().err
    assert "error:" in err
    flags = [a for a in argv if a.startswith("--") and a != "--builtin-suite"]
    if flags:
        assert f"error: {flags[0]}: " in err, err


@pytest.mark.parametrize("flags, max_iter", [([], DEFAULT_MAX_ITER), (["--max-iter", "7"], 7)])
def test_builtin_suite_forwards_max_iter(flags, max_iter, monkeypatch, capsys):
    seen = []

    def recorded(**kwargs):
        seen.append(kwargs)
        return []

    monkeypatch.setattr(verify, "builtin_suite", recorded)
    assert main(["verify", "--builtin-suite", "--seed", "5", *flags]) == EXIT_OK
    assert seen == [{"seed": 5, "max_iter": max_iter}]


def test_builtin_suite_refuses_extra_scenario(tmp_path, capsys):
    path = _dump(tmp_path, GOOD_SCENARIO)
    assert main(["verify", path, "--builtin-suite"]) == EXIT_INVALID


def test_scenario_without_checks_rejected_by_verify(tmp_path, capsys):
    scn = dict(GOOD_SCENARIO)
    scn.pop("checks")
    assert main(["verify", _dump(tmp_path, scn)]) == EXIT_INVALID
    assert "no checks" in capsys.readouterr().err


def test_malformed_scenario_exits_two(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert main(["verify", str(p)]) == EXIT_INVALID
    assert "malformed JSON" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["estimate", "report"])
@pytest.mark.parametrize("content, message", [
    (b"\xff\xfe{}", "not UTF-8 text"),
    (b"[" * 100_000 + b"]" * 100_000, "JSON nested too deeply to read"),
], ids=["undecodable", "over_deep"])
def test_unreadable_json_exits_two_naming_the_file(command, content, message, tmp_path, capsys):
    p = tmp_path / "input.json"
    p.write_bytes(content)
    assert main([command, str(p)]) == EXIT_INVALID
    assert capsys.readouterr().err.startswith(f"error: {p}: {message}")


def _nested(leaf, levels, kind):
    """``leaf`` wrapped in ``levels`` one-part ``compose`` or ``combo`` nodes."""
    for _ in range(levels):
        leaf = {"compose": [leaf]} if kind == "compose" else {
            "combo": {"weights": [1.0], "parts": [leaf]}}
    return leaf


def _deep_scenario(extra):
    """Trees exactly ``MAX_NESTING`` entries deep, or ``extra`` levels deeper."""
    depth = scn_mod.MAX_NESTING + extra
    shift = {"affine": {"M": [[0.5, 0.0], [0.0, 0.5]], "b": [1.0, 0.0]}}
    turn = {"affine": {"M": [[0.0, -1.0], [1.0, 0.0]], "b": [0.0, 0.2]}}
    ball = {"projector": {"ball": {"center": [0.0, 0.0], "radius": 1.0}}}  # two entries
    return {"name": "deep", "dim": 2, "operators": [
        _nested(shift, depth - 1, "compose"), _nested(turn, depth - 1, "combo"),
        _nested(ball, depth - 2, "compose")], "checks": [
        {"name": "range_formula_composition", "ops": [0, 1]},
        {"name": "norm_bound_composition", "ops": [1, 0]},
        {"name": "convex_combination", "ops": [0, 1], "weights": [0.5, 0.5]},
        {"name": "cyclic_norm", "ops": [0, 2]}]}


def test_a_tree_at_the_nesting_limit_runs_every_command(tmp_path, capsys):
    scn = _dump(tmp_path, _deep_scenario(0))
    for command in ("estimate", "verify"):
        out = str(tmp_path / f"{command}.json")
        assert main([command, scn, "--out", out]) == EXIT_OK
        for fmt in ("csv", "json"):
            assert main(["report", out, "--format", fmt]) == EXIT_OK
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("op, path", [
    (0, "operators[0]" + ".compose[0]" * scn_mod.MAX_NESTING + ".affine"),
    (1, "operators[1]" + ".combo.parts[0]" * scn_mod.MAX_NESTING + ".affine"),
    (2, "operators[2]" + ".compose[0]" * (scn_mod.MAX_NESTING - 1) + ".projector.ball"),
])
@pytest.mark.parametrize("command", ["estimate", "verify"])
def test_one_level_past_the_nesting_limit_exits_two_naming_the_node(op, path, command,
                                                                      tmp_path, capsys):
    scn = _deep_scenario(0)
    scn["operators"][op] = _deep_scenario(1)["operators"][op]
    assert main([command, _dump(tmp_path, scn)]) == EXIT_INVALID
    message = f"nested deeper than {scn_mod.MAX_NESTING} levels"
    assert capsys.readouterr().err == f"error: scenario.{path}: {message}\n"


def test_reflected_resolvent_with_a_tiny_modulus_estimates(tmp_path, capsys):
    # mu is about 1e-17 > 0, so 1 / (1 + mu) rounds to 1: averaged, with no
    # constant below one to show for it
    nearly_skew = {"reflected": {"Q": [[1e-9, 1e4], [-1e4, 1e-9]], "q": [0, 0]}}
    ball = {"projector": {"ball": {"center": [0, 0], "radius": 1}}}
    scn = {"name": "tiny-modulus", "dim": 2, "operators": [{"compose": [nearly_skew, ball]}]}
    assert main(["estimate", _dump(tmp_path, scn)]) == EXIT_OK
    est = json.loads(capsys.readouterr().out)["estimates"][0]
    assert est["converged"]


def test_convex_combination_allows_for_certified_error_bounds(tmp_path, capsys, monkeypatch):
    # every answer is 0, but the iterative estimate of the combination is
    # certified only to about 3.4e-9, above the check's 1e-9
    scn = {"name": "combo-bound", "dim": 1, "seed": 0,
           "operators": [{"affine": {"M": [[0.5]], "b": [1.0]}},
                         {"projector": {"ball": {"center": [0.0], "radius": 1.0}}},
                         {"reflected": {"Q": [[1.0]], "q": [0.5]}}],
           "checks": [{"name": "convex_combination", "ops": [0, 1, 2],
                       "weights": [0.2, 0.3, 0.5]}],
           "estimator": {"max_iter": 5000, "tol": 1e-8}}
    seen = []
    check = verify.check_convex_combination
    monkeypatch.setattr(verify, "check_convex_combination",
                        lambda *args, **kw: seen.append(kw) or check(*args, **kw))
    assert main(["verify", _dump(tmp_path, scn)]) == EXIT_OK
    row = json.loads(capsys.readouterr().out)["checks"][0]
    assert row["pass"] and row["discrepancy"] == "0"
    assert float(row["lhs"][0]) > float(row["tolerance"])
    assert seen[0]["max_iter"] == 5000 and seen[0]["iter_tol"] == 1e-8


def test_bad_flags_exit_two(capsys):
    assert main(["no-such-command"]) == EXIT_INVALID
    assert main([]) == EXIT_INVALID
    assert main(["--help"]) == EXIT_OK


def test_main_builds_its_parser_once_per_process(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        if kwargs.get("prog") == "mdvkit":  # not the subcommands' parsers
            built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli._build_parser.cache_clear()
    for argv in (["estimate", REFLECTIONS], ["report", "--help"], ["estimate", REFLECTIONS]):
        main(argv)
    assert built == [1]


def test_refused_and_help_calls_leave_the_next_output_unchanged(capsys):
    argv = ["verify", PROJECTOR_MIX, "--format", "csv", "--seed", "99"]
    assert main(argv) == EXIT_OK
    first = capsys.readouterr().out
    assert main(["verify", PROJECTOR_MIX, "--no-such-flag"]) == EXIT_INVALID
    assert main(["verify", "--help"]) == EXIT_OK
    assert main(["--help"]) == EXIT_OK
    capsys.readouterr()
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == first
    # flags of an earlier call do not carry over: the defaults are back
    assert main(["verify", PROJECTOR_MIX]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["seed"] == 11


def _with(**changes):
    scn = json.loads(json.dumps(GOOD_SCENARIO))
    scn.update(changes)
    return scn


_A = {"Q": [[1.0, 0.0], [0.0, 1.0]], "q": [0.0, 0.0]}
_THREE_OPS = GOOD_SCENARIO["operators"] + GOOD_SCENARIO["operators"][:1]


@pytest.mark.parametrize(
    "command, scn, prefix",
    [
        # malformed nodes
        ("estimate", _with(operators=[{"projector": {"box": [1, 2]}}]),
         "scenario.operators[0].projector.box: "),
        ("estimate", _with(operators=[{"affine": [1]}]), "scenario.operators[0].affine: "),
        ("verify", _with(checks=[{"name": "projected_gradient_bound", "Q": _A["Q"], "q": _A["q"],
                                  "set": {"box": [1]}, "alpha": 1.0}]),
         "scenario.checks[0].set.box: "),
        ("verify", _with(checks=[{"name": "cocoercive_averaged_equivalence", "A": _A,
                                  "samples": "many"}]), "scenario.checks[0].samples: "),
        ("verify", _with(checks=[{"name": "cocoercive_averaged_equivalence", "A": _A,
                                  "samples": 2.5}]), "scenario.checks[0].samples: "),
        ("verify", _with(checks=[{"name": "cocoercive_averaged_equivalence", "A": _A,
                                  "samples": True}]), "scenario.checks[0].samples: "),
        ("verify", _with(checks=[{"name": "permutation_displacement", "sigma": ["a", 0]}]),
         "scenario.checks[0].sigma[0]: "),
        ("verify", _with(estimator={"max_iter": "x"}), "scenario.estimator.max_iter: "),
        ("estimate", _with(estimator={"tol": "abc"}), "scenario.estimator.tol: "),
        ("estimate", _with(estimator={"x0": "abc"}), "scenario.estimator.x0: "),
        # estimator rules, on an all-affine scenario that never iterates
        ("estimate", _with(estimator={"x0": [1.0]}), "scenario.estimator.x0: "),
        ("estimate", _with(estimator={"max_iter": 0}), "scenario.estimator.max_iter: "),
        ("estimate", _with(estimator={"tol": -1}), "scenario.estimator.tol: "),
        # constructor and check errors carry the node's path
        ("estimate", _with(operators=[{"affine": {"M": [[2.0, 0.0], [0.0, 2.0]], "b": [0.0, 0.0]}}]),
         "scenario.operators[0].affine: affine map is not nonexpansive"),
        ("estimate", _with(operators=[{"projector": {"ball": {"center": [0.0, 0.0], "radius": -1}}}]),
         "scenario.operators[0].projector.ball: ball radius must be positive and finite"),
        ("estimate", _with(operators=[{"combo": {"weights": [0.5, 0.6],
                                                  "parts": GOOD_SCENARIO["operators"]}}]),
         "scenario.operators[0].combo: weights must sum to one"),
        ("verify", _with(checks=[{"name": "three_op_closed_form", "deltas": [2, 0, 0],
                                  "a": [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}]),
         "scenario.checks[0]: deltas must be three values in {-1, 0, 1}"),
        ("verify", _with(operators=_THREE_OPS,
                         checks=[{"name": "convex_combination", "weights": [1.0]}]),
         "scenario.checks[0]: dimension mismatch: expected 3, got 1"),
        ("verify", _with(operators=GOOD_SCENARIO["operators"] + [
            {"projector": {"ball": {"center": [0.0, 0.0], "radius": 1.0}}}],
            checks=[{"name": "range_formula_composition"}]),
         "scenario.checks[0]: operator does not flatten to an affine map"),
    ],
    ids=["projector-body-list", "affine-body-list", "check-set-body-list", "samples-str",
         "samples-float", "samples-bool", "sigma-str", "max_iter-str", "tol-str", "x0-str",
         "x0-length", "max_iter-zero", "tol-negative", "expansive-affine", "ball-radius",
         "combo-weights", "three-op-deltas", "combination-weights-count", "exact-check-on-ball"],
)
def test_malformed_nodes_exit_two_with_their_path(tmp_path, capsys, command, scn, prefix):
    assert main([command, _dump(tmp_path, scn)]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error: " + prefix), err
    assert "Traceback" not in err


_HALF = {"halfspace": {"normal": [1.0, 0.0], "offset": 0.0}}


@pytest.mark.parametrize(
    "scn, path",
    [
        (_with(speed=9), "scenario.speed"),
        (_with(operators=[{"affine": {"M": [[1.0, 0.0], [0.0, 1.0]], "b": [0.0, 0.0], "bb": 1}}]),
         "scenario.operators[0].affine.bb"),
        (_with(operators=[{"projector": {"halfspace": {**_HALF["halfspace"], "radius": 1}}}]),
         "scenario.operators[0].projector.halfspace.radius"),
        (_with(operators=[{"compose": [{"resolvent": {**_A, "step": 1}}]}]),
         "scenario.operators[0].compose[0].resolvent.step"),
        (_with(operators=[{"combo": {"weights": [1.0], "parts": [], "mode": 0}}]),
         "scenario.operators[0].combo.mode"),
        (_with(checks=[{"name": "cocoercive_averaged_equivalence", "A": _A, "sample": 5}]),
         "scenario.checks[0].sample"),
        (_with(checks=[{"name": "noncyclic_counterexample", "u": [1.0, 0.0], "ops": [0]}]),
         "scenario.checks[0].ops"),
        (_with(estimator={"speed": 9}), "scenario.estimator.speed"),
    ],
    ids=["top-level", "affine-body", "set-body", "monotone-map", "combo-body", "check",
         "ops-on-a-check-without-operators", "estimator"],
)
@pytest.mark.parametrize("command", ["estimate", "verify"])
def test_unknown_keys_exit_two_with_their_path(tmp_path, capsys, command, scn, path):
    # refused when the file is loaded, whether or not the command reads the object
    assert main([command, _dump(tmp_path, scn)]) == EXIT_INVALID
    assert capsys.readouterr().err == f"error: {path}: unknown key\n"


@pytest.mark.parametrize(
    "check, path",
    [
        ({"name": "brezis_haraux_affine", "A": _A, "B": {**_A, "Q2": 0}},
         "scenario.checks[1].B.Q2"),
        ({"name": "projected_gradient_bound", **_A, "alpha": 1.0,
          "set": {"box": {"lo": [0.0, 0.0], "hi": [1.0, 1.0], "mid": [0.5, 0.5]}}},
         "scenario.checks[1].set.box.mid"),
    ],
    ids=["monotone-map", "set-body"],
)
def test_unknown_keys_inside_check_fields_stop_verify_before_any_check_runs(
        tmp_path, capsys, monkeypatch, check, path):
    # estimate reads no check field; verify parses every check before it runs one
    monkeypatch.setattr(verify, "check_norm_bound_composition", None)
    scn = _with(checks=[{"name": "norm_bound_composition"}, check])
    assert main(["verify", _dump(tmp_path, scn)]) == EXIT_INVALID
    assert capsys.readouterr().err == f"error: {path}: unknown key\n"


def test_checks_take_name_tol_and_ops_besides_their_fields(tmp_path, capsys):
    scn = _with(checks=[{"name": "norm_bound_composition", "ops": [0, 1], "tol": 1e-6},
                        {"name": "noncyclic_counterexample", "u": [1.0, 0.0], "tol": 1e-6}])
    assert main(["verify", _dump(tmp_path, scn)]) == EXIT_OK
    assert [row["tolerance"] for row in json.loads(capsys.readouterr().out)["checks"]] == [
        "9.9999999999999995e-07"] * 2


@pytest.mark.parametrize("tol", [-1e-9, 0])
def test_a_check_tol_that_is_not_positive_exits_two(tol, tmp_path, capsys):
    scn = _with(checks=[{"name": "norm_bound_composition", "tol": tol}])
    assert main(["verify", _dump(tmp_path, scn)]) == EXIT_INVALID
    assert capsys.readouterr().err == "error: scenario.checks[0].tol: must be positive\n"


def test_a_huge_sample_count_changes_nothing(tmp_path, capsys):
    # both checks decide exactly, so ``samples`` is validated and then unused
    B = {"Q": [[2.0, 1.0], [-1.0, 1.0]], "q": [0.0, 0.5]}
    checks = [{"name": "cocoercive_averaged_equivalence", "A": _A},
              {"name": "translation_formula", "A": _A, "B": B, "y": [0.7, -0.4]}]
    rows = []
    for samples in (None, 10**12):
        scn = _with(checks=[dict(c, samples=samples) if samples else c for c in checks])
        assert main(["verify", _dump(tmp_path, scn)]) == EXIT_OK
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        rows.append(json.loads(out)["checks"])
    assert rows[0] == rows[1]


@pytest.mark.filterwarnings("error")  # numpy's own warning would expose a source line
def test_overflowing_composition_exits_three(tmp_path, capsys):
    far = {"affine": {"M": [[1.0, 0.0], [0.0, 1.0]], "b": [1e308, 0.0]}}
    scn = {"name": "overflow", "dim": 2, "seed": 0,
           "operators": [{"compose": [far, far]}], "checks": []}
    assert main(["estimate", _dump(tmp_path, scn)]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical error: flattened affine map has non-finite entries"), err
    assert "Traceback" not in err
