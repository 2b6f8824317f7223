"""Scenario parsing, report payloads, canonical serialization."""

import csv
import functools
import io
import json
import math
import os
import stat
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdvkit import displacement as disp_mod
from mdvkit import verify
from mdvkit.displacement import minimal_displacement
from mdvkit.errors import ValidationError
from mdvkit.numeric import AffineSubspace
from mdvkit.operators import Composition
from mdvkit.scenario import (
    _CSV,
    dumps_report,
    estimate_payload,
    estimate_to_dict,
    fmt_float,
    load_report,
    load_scenario,
    report_to_csv,
    run_scenario_checks,
    scenario_from_dict,
    stringify_numbers,
    verify_payload,
    write_atomic,
)
from mdvkit.verify import CheckReport, builtin_suite

REPO_SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _write(tmp_path, payload):
    p = tmp_path / "scn.json"
    p.write_text(json.dumps(payload))
    return str(p)


def test_load_scenario_roundtrip(tmp_path):
    path = _write(tmp_path, {
        "name": "t", "dim": 2, "seed": 5,
        "operators": [{"affine": {"M": [[0.5, 0.0], [0.0, 0.5]], "b": [1.0, 0.0]}}],
        "checks": [{"name": "norm_bound_composition", "ops": [0]}],
    })
    scn = load_scenario(path)
    assert scn.name == "t" and scn.dim == 2 and scn.seed == 5
    assert len(scn.operators) == 1
    np.testing.assert_allclose(scn.operators[0]([2.0, 2.0]), [2.0, 1.0])


def test_malformed_json_reports_line(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{\n  "name": "x",\n  "dim": oops\n}')
    with pytest.raises(ValidationError, match="line 3"):
        load_scenario(str(p))


def test_missing_file_is_validation_error():
    with pytest.raises(ValidationError, match="cannot read"):
        load_scenario("/nonexistent/path.json")


@pytest.mark.parametrize(
    "raw, fragment",
    [
        ({"dim": 0}, "dim"),
        ({"dim": 2, "seed": "x"}, "seed"),
        ({"dim": 2, "operators": [{"affine": {"M": [[1.0]], "b": [0.0]}}]},
         "operators[0]"),
        ({"dim": 2, "operators": [{"wavelet": {}}]}, "operators[0]"),
        ({"dim": 2, "operators": [], "checks": [{"name": "no_such_check"}]},
         "unknown check"),
        ({"dim": 2, "estimator": {"speed": 9}}, "estimator"),
    ],
)
def test_scenario_validation_messages(raw, fragment):
    with pytest.raises(ValidationError, match=None) as err:
        scenario_from_dict(raw)
    assert fragment in str(err.value)


def test_operator_grammar_all_kinds():
    node = {"compose": [
        {"projector": {"box": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]}}},
        {"projector": {"ball": {"center": [0.0, 0.0], "radius": 2.0}}},
        {"projector": {"halfspace": {"normal": [1.0, 0.0], "offset": 1.0}}},
        {"projector": {"singleton": {"point": [0.0, 0.5]}}},
        {"projector": {"affine_subspace": {"base": [0.0, 0.0],
                                           "basis": [[1.0, 1.0]]}}},
        {"combo": {"weights": [0.5, 0.5],
                   "parts": [{"affine": {"M": [[0.0, 0.0], [0.0, 0.0]],
                                         "b": [1.0, 0.0]}},
                             {"resolvent": {"Q": [[1.0, 0.0], [0.0, 1.0]],
                                            "q": [0.0, 0.0]}}]}},
        {"reflected": {"Q": [[0.0, 0.0], [0.0, 0.0]], "q": [0.2, 0.0]}},
        {"gradstep": {"Q": [[1.0, 0.0], [0.0, 1.0]], "q": [0.0, 0.0], "step": 0.5}},
    ]}
    op, = scenario_from_dict({"dim": 2, "operators": [node]}).operators
    assert isinstance(op, Composition) and len(op.parts) == 8
    y = op([0.3, -0.4])
    assert np.all(np.isfinite(y))


def test_affine_subspace_and_singleton_nodes_build_affine_subspaces():
    line, point = (op.set for op in scenario_from_dict({"dim": 2, "operators": [
        {"projector": {"affine_subspace": {"base": [1.0, 2.0], "basis": [[0.0, 3.0]]}}},
        {"projector": {"singleton": {"point": [3.0, -0.0]}}},
    ]}).operators)
    assert type(line) is AffineSubspace and type(point) is AffineSubspace
    assert line.base.tolist() == [1.0, 2.0] and line.basis.tolist() == [[0.0], [1.0]]
    assert point.rank == 0 and point.base.tobytes() == np.array([3.0, -0.0]).tobytes()


def test_run_scenario_checks_requires_parameters():
    scn = scenario_from_dict({
        "dim": 2, "seed": 1,
        "operators": [{"affine": {"M": [[0.5, 0.0], [0.0, 0.5]], "b": [0.0, 0.0]}}],
        "checks": [{"name": "permutation_displacement"}],
    })
    with pytest.raises(ValidationError, match="sigma"):
        run_scenario_checks(scn)


def test_run_scenario_checks_ops_indexing():
    scn = scenario_from_dict({
        "dim": 2, "seed": 1,
        "operators": [
            {"affine": {"M": [[0.5, 0.0], [0.0, 0.5]], "b": [0.1, 0.0]}},
            {"affine": {"M": [[0.0, 0.0], [0.0, 0.0]], "b": [0.0, 0.2]}},
        ],
        "checks": [{"name": "range_formula_composition", "ops": [1, 0]}],
    })
    reports = run_scenario_checks(scn)
    assert len(reports) == 1 and reports[0].passed
    assert verify._composed.cache_info().currsize == 0  # the memo goes with the run
    bad = scenario_from_dict({
        "dim": 2, "seed": 1,
        "operators": [{"affine": {"M": [[0.5, 0.0], [0.0, 0.5]], "b": [0.0, 0.0]}}],
        "checks": [{"name": "range_formula_composition", "ops": [0, 7]}],
    })
    with pytest.raises(ValidationError, match="ops"):
        run_scenario_checks(bad)


def test_zero_sum_corollary_takes_the_estimator_block(monkeypatch):
    # parts that do not flatten take the iterative route, with the scenario's budget
    def clipped_shift(dx):
        return {"compose": [{"projector": {"ball": {"center": [0.0, 0.0], "radius": 1.0}}},
                            {"affine": {"M": [[1.0, 0.0], [0.0, 1.0]], "b": [dx, 0.0]}}]}

    scn = scenario_from_dict({
        "dim": 2, "seed": 1,
        "operators": [clipped_shift(0.5), clipped_shift(-0.5)],
        "checks": [{"name": "zero_sum_corollary", "weights": [0.5, 0.5]}],
        "estimator": {"max_iter": 9, "tol": 1e-12},
    })
    seen = []
    estimate = disp_mod.displacement_iterative
    monkeypatch.setattr(disp_mod, "displacement_iterative",
                        lambda T, **kw: seen.append(kw) or estimate(T, **kw))
    report, = run_scenario_checks(scn)
    assert report.passed
    assert seen == [{"max_iter": 9, "tol": 1e-12}] * 3  # both parts and their combination


def test_benchmark_scenarios_use_only_declared_keys(monkeypatch):
    # mdvbench's generated files cover every operator, set and check kind;
    # a key the tables do not declare would fail every benchmark scenario item
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "mdvbench"))
    workloads = pytest.importorskip("workloads")
    for seed in (0, 42):
        raw = workloads.scenario_dict(np.random.default_rng(seed), 3, "generated")
        assert len(scenario_from_dict(json.loads(json.dumps(raw))).checks) == 13


def test_shipped_scenarios_load_and_run():
    for name in ("two_reflections.json", "projector_mix.json"):
        scn = load_scenario(str(REPO_SCENARIOS / name))
        reports = run_scenario_checks(scn)
        assert reports
        gated = [r for r in reports if r.hypothesis_met]
        assert all(r.passed for r in gated)


# ---------------------------------------------------------------------------
# serialization


def test_fmt_float_round_trips():
    for x in (1.0 / 3.0, 1e-9, -0.0, 2.0**-52, 12345.6789, float(np.pi)):
        assert float(fmt_float(x)) == x


def test_stringify_keeps_bools_and_ints():
    out = stringify_numbers({"flag": True, "n": 3, "x": 0.5,
                             "arr": np.array([1.5, 2.5]), "nested": [False, 1/3],
                             "sub": AffineSubspace([0.5, -2.0], [[0.0], [1.0]]),
                             "f64": np.float64(0.1), "i64": np.int64(7), "tup": (1, 2.5),
                             "mat": np.array([[1.0, 2.0], [3.0, 0.25]]),
                             "deep": {"a": {"b": [np.float64(1e-9), None]}, 2: "s"}})
    assert out["flag"] is True          # bool must not decay to "1"
    assert out["n"] == 3
    assert out["x"] == "0.5"
    assert out["arr"] == ["1.5", "2.5"]
    assert out["nested"][0] is False
    assert float(out["nested"][1]) == 1/3
    assert out["sub"] == {"base": ["0.5", "-2"], "rank": 1}  # the basis is not rendered
    assert type(out["sub"]["rank"]) is int
    assert out["f64"] == "0.10000000000000001"
    assert out["i64"] == 7 and type(out["i64"]) is int
    assert out["tup"] == [1, "2.5"]
    assert out["mat"] == [["1", "2"], ["3", "0.25"]]
    assert out["deep"] == {"a": {"b": ["1.0000000000000001e-09", None]}, "2": "s"}
    json.dumps(out)  # plain JSON throughout


def _former_jsonable(x):
    """Reference copy of the conversion each report once made of its values."""
    if isinstance(x, AffineSubspace):
        return {"base": x.base.tolist(), "rank": x.rank}
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, dict):
        return {k: _former_jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_former_jsonable(v) for v in x]
    return x


def _former_stringify(obj):
    """Reference copy of the float-to-string walk over already plain values."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), ".17g")
    if isinstance(obj, np.ndarray):
        return [_former_stringify(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): _former_stringify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_former_stringify(v) for v in obj]
    return obj


def test_one_walk_renders_the_bytes_of_the_former_two():
    reports = builtin_suite(seed=7, randomized_count=6, cyclic_count=2,
                            closed_form_triples=1, cocoercive_count=3)
    payload = verify_payload("small", 7, reports)
    former = verify_payload("small", 7, reports)
    for row in former["checks"]:
        for key in ("lhs", "rhs", "witness"):
            row[key] = _former_jsonable(row[key])
    expected = json.dumps(_former_stringify(former), indent=2, sort_keys=True) + "\n"
    assert any(isinstance(r.lhs, AffineSubspace) for r in reports)
    assert dumps_report(payload) == expected


def test_dumps_report_is_canonical():
    rep = CheckReport("a", True, None, None, 0.0, 1e-9, seed=3)
    payload = verify_payload("name", 3, [rep])
    text = dumps_report(payload)
    assert text == dumps_report(verify_payload("name", 3, [rep]))
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert parsed["schema_version"] == 1
    assert parsed["summary"] == {"total": 1, "passed": 1, "failed": 0,
                                 "hypothesis_unmet": 0}


_FLOATS = st.floats(width=64) | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
_DTYPES = ["float64", "float32", "int64", "int8", "bool", "complex128"]


def _array(n, dtype, ndim):
    shape = {0: (), 1: (n % 4,), 2: (2, n % 3)}[ndim]
    return (np.arange(int(np.prod(shape))).reshape(shape) / 3.0 - 0.5).astype(dtype)


_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**70), 2**70), _FLOATS,
    st.text(st.characters(exclude_categories=()), max_size=6),
    st.sampled_from(["", "\ud800", "caf\u00e9 \u2603", "tab\tquote\"back\\slash\n"]),
    st.builds(np.float64, _FLOATS), st.builds(np.float32, st.floats(width=32)),
    st.builds(np.int64, st.integers(-(2**63), 2**63 - 1)),
    st.builds(np.int8, st.integers(-128, 127)), st.builds(np.bool_, st.booleans()),
    st.lists(_FLOATS, max_size=5).map(np.array),
    st.builds(_array, st.integers(0, 11), st.sampled_from(_DTYPES), st.integers(0, 2)),
    st.builds(lambda base, k: AffineSubspace(base, np.eye(len(base))[:, :k]),
              st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3), st.integers(0, 3)),
)


def _nested(child):
    return st.one_of(
        st.lists(child, max_size=4),
        st.lists(child, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=3) | st.integers(-2, 2), child, max_size=4),
        # a chain of lists that crosses the depth the one-pass writer walks itself
        st.builds(lambda v, k: functools.reduce(lambda acc, _: [acc], range(k), v),
                  child, st.integers(0, 12)),
    )


def _rendered(render, payload):
    """The text, or the type of the error that stopped it."""
    try:
        return render(payload)
    except (TypeError, ValueError) as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(payload=st.recursive(_LEAVES, _nested, max_leaves=30))
def test_one_pass_report_text_is_the_json_module_text(payload):
    def reference(p):
        return json.dumps(stringify_numbers(p), indent=2, sort_keys=True) + "\n"

    assert _rendered(dumps_report, payload) == _rendered(reference, payload)


def test_write_atomic_and_load_report(tmp_path):
    payload = estimate_payload("e", 0, [])
    target = tmp_path / "report.json"
    write_atomic(str(target), dumps_report(payload))
    assert load_report(str(target))["kind"] == "estimate"
    leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
    assert leftovers == []


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_write_atomic_honours_the_umask(tmp_path, umask, mode):
    target = tmp_path / "report.json"
    previous = os.umask(umask)
    try:
        write_atomic(str(target), "{}\n")
    finally:
        os.umask(previous)
    assert stat.S_IMODE(os.stat(target).st_mode) == mode


def test_write_atomic_leaves_the_process_umask_alone(tmp_path, monkeypatch):
    # setting the umask, even briefly, changes it for every thread of the process
    def refuse(mask):
        raise AssertionError("write_atomic must not call os.umask")

    monkeypatch.setattr(os, "umask", refuse)
    target = tmp_path / "report.json"
    write_atomic(str(target), "{}\n")
    assert target.read_text() == "{}\n"


def test_load_report_rejects_wrong_schema(tmp_path):
    p = tmp_path / "r.json"
    p.write_text('{"schema_version": 99}')
    with pytest.raises(ValidationError, match="schema_version"):
        load_report(str(p))


def test_report_to_csv_verify_and_estimate():
    rep = CheckReport("norm_bound_composition", True, None, None, 0.0, 1e-9,
                      witness=[1.0, 2.0], seed=11)
    csv_text = report_to_csv(stringify_numbers(verify_payload("v", 11, [rep])))
    lines = csv_text.strip().split("\n")
    assert lines[0] == "check_name,pass,discrepancy,tolerance,seed,witness_summary"
    assert lines[1].startswith("norm_bound_composition,true,0,")
    est_csv = report_to_csv(stringify_numbers(estimate_payload("e", 0, [{
        "label": "op[0]", "method": "exact_affine", "vector": [0.0],
        "norm": 0.0, "residual": 0.0, "iterations": 0, "converged": True}])))
    assert est_csv.splitlines()[0] == "label,method,converged,iterations,residual,norm"
    # a flag the row does not state renders empty, like every other missing column
    bare = report_to_csv({"schema_version": 1, "kind": "estimate", "estimates": [{"label": "x"}]})
    assert bare.splitlines()[1] == "x,,,,,"
    bare = report_to_csv({"schema_version": 1, "kind": "verify", "checks": [{"check_name": "c"}]})
    assert bare.splitlines()[1] == "c,,,,,"
    with pytest.raises(ValidationError):
        report_to_csv({"kind": "mystery"})


def _former_csv(payload):
    """Reference copy of the CSV rendering that stringified whole rows first."""
    rows_key, columns = _CSV[payload["kind"]]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    for row in stringify_numbers(payload[rows_key]):
        cells = []
        for column in columns:
            if column == "witness_summary":
                text = "" if row.get("witness") is None else json.dumps(row["witness"],
                                                                         sort_keys=True)
                cells.append(text if len(text) <= 60 else text[:57] + "...")
            elif column in ("pass", "converged", "hypothesis_met") and column in row:
                cells.append(str(bool(row[column])).lower())
            else:
                cells.append(row.get(column))
        writer.writerow(cells)
    return out.getvalue()


def test_csv_renders_the_bytes_of_the_former_whole_row_walk(tmp_path):
    reports = builtin_suite(seed=7, randomized_count=6, cyclic_count=2,
                            closed_form_triples=1, cocoercive_count=3)
    checks = verify_payload("small", 7, reports)
    scn = load_scenario(str(REPO_SCENARIOS / "projector_mix.json"))
    estimates = estimate_payload(scn.name, scn.seed, [
        estimate_to_dict(f"op[{i}]", minimal_displacement(op, x0=scn.x0))
        for i, op in enumerate(scn.operators)])
    assert any(isinstance(r.lhs, AffineSubspace) for r in reports)
    assert any(isinstance(r.witness, np.ndarray) for r in reports)
    for payload in (checks, estimates):
        path = str(tmp_path / f"{payload['kind']}.json")
        write_atomic(path, dumps_report(payload))
        text = report_to_csv(payload)
        assert text == _former_csv(payload)
        assert report_to_csv(load_report(path)) == text
    # values a saved report cannot hold: each flag is read after the same walk
    odd = {"pass": np.float64(0.0), "seed": np.int64(5), "discrepancy": np.float32(0.25),
           "witness": (np.arange(30.0), {2: 1 / 3}), "lhs": np.eye(3)}
    checks["checks"].append(odd)
    estimates["estimates"].append({"label": "x", "converged": np.bool_(False),
                                   "iterations": np.int64(3), "vector": np.ones(2)})
    for payload in (checks, estimates):
        assert report_to_csv(payload) == _former_csv(payload)


# ---------------------------------------------------------------------------
# typed parsing


def _affine_scenario(M):
    return {"dim": len(M), "operators": [{"affine": {"M": M, "b": [0.0] * len(M)}}]}


@pytest.mark.parametrize(
    "entry, message",
    [
        ("x", "M[3][4]: expected a number, got str"),
        (True, "M[3][4]: expected a number, got bool"),
        (None, "M[3][4]: expected a number, got NoneType"),
        (float("nan"), "M[3][4]: number must be finite"),
        (10**400, "M[3][4]: number must be finite"),
        ([1.0], "M[3][4]: expected a number, got list"),
    ],
    ids=["str", "bool", "null", "nan", "huge-int", "list"],
)
def test_matrix_errors_name_the_bad_entry(entry, message):
    M = (0.1 * np.eye(6)).tolist()
    M[3][4] = entry
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(_affine_scenario(M))
    assert str(err.value) == f"scenario.operators[0].affine.{message}"


def test_matrix_shape_errors():
    M = (0.1 * np.eye(3)).tolist()
    with pytest.raises(ValidationError, match=r"affine\.M: rows must share one length"):
        scenario_from_dict(_affine_scenario(M[:2] + [M[2][:2]]))
    with pytest.raises(ValidationError, match=r"affine\.M: expected a 3x3 matrix, got 2x3"):
        scenario_from_dict({"dim": 3, "operators": [{"affine": {"M": M[:2], "b": [0.0] * 3}}]})


def test_parsed_arrays_match_the_json_values():
    Q = 5.0 * np.eye(4) + 0.2 * np.random.default_rng(0).standard_normal((4, 4))
    Q_json = Q.tolist()
    Q_json[1][2] = 3  # an int entry takes the same one-pass route
    Q[1][2] = 3.0
    scn = scenario_from_dict({"dim": 4, "operators": [
        {"resolvent": {"Q": Q_json, "q": [1, 0, 0, 0]}}]})
    np.testing.assert_array_equal(scn.operators[0].operator.Q, Q)
    np.testing.assert_array_equal(scn.operators[0].operator.q, [1.0, 0.0, 0.0, 0.0])


def test_estimator_block_is_typed_with_defaults():
    from mdvkit.displacement import DEFAULT_MAX_ITER, DEFAULT_TOL

    scn = scenario_from_dict({"dim": 2, "estimator": {"x0": [1, 2], "max_iter": 7}})
    np.testing.assert_array_equal(scn.x0, [1.0, 2.0])
    assert scn.max_iter == 7 and scn.tol == DEFAULT_TOL
    bare = scenario_from_dict({"dim": 2})
    assert bare.x0 is None and bare.max_iter == DEFAULT_MAX_ITER and bare.tol == DEFAULT_TOL


def test_readme_documents_every_grammar_entry():
    from mdvkit import scenario

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    for kind in (*scenario._OPERATORS, *scenario._SETS):
        assert f"`{kind}`" in readme, kind
    rows = {line.split("`")[1]: line for line in readme.splitlines()
            if line.startswith("| `")}
    for name, spec in scenario._CHECKS.items():
        assert name in rows, name
        params = (["ops"] if spec.ops else []) + list(spec.fields)
        for key in params:
            assert f"`{key}`" in rows[name], (name, key)
