"""Scenario and report files: schema parsing, deterministic JSON, atomic writes.

Each scenario grammar (operators, sets, checks) is one table of kinds and
their fields; every value read passes through a typed parser whose errors
begin with the node's path.

Every floating-point number in a report is serialized as a decimal string with
17 significant digits, which round-trips float64 exactly; reports carry no
timestamps, so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
import threading
import uuid
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import verify
from .displacement import DEFAULT_MAX_ITER, DEFAULT_TOL, DisplacementEstimate
from .errors import ValidationError
from .numeric import AffineSubspace, orthonormal_range_basis
from .operators import (
    AffineMap,
    Composition,
    ConvexCombination,
    GradientStep,
    MonotoneAffine,
    Operator,
    ReflectedResolvent,
    Resolvent,
    SetProjector,
)
from .sets import Ball, Box, Halfspace

SCHEMA_VERSION = 1
_FLOAT_FORMAT = ".17g"


def fmt_float(x: float) -> str:
    """17-significant-digit decimal string (exact float64 round trip)."""
    return format(float(x), _FLOAT_FORMAT)


def stringify_numbers(obj):
    """The one walk from computed values to report JSON: floats become 17-digit
    decimal strings, ints and bools stay, arrays and tuples become lists, and an
    ``AffineSubspace`` becomes ``{"base": [...], "rank": k}``.  :func:`dumps_report`
    writes the JSON text of this walk without building it."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return fmt_float(obj)
    if isinstance(obj, np.ndarray):
        if obj.ndim == 1 and obj.dtype == np.float64:  # the common case, one walk
            return [format(v, _FLOAT_FORMAT) for v in obj.tolist()]
        return [stringify_numbers(v) for v in obj.tolist()]
    if isinstance(obj, AffineSubspace):
        return {"base": stringify_numbers(obj.base), "rank": obj.rank}
    if isinstance(obj, dict):
        return {str(k): stringify_numbers(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [stringify_numbers(v) for v in obj]
    return obj


def _fail(path: str, message: str):
    raise ValidationError(f"{path}: {message}")


# ---------------------------------------------------------------------------
# Typed parsers ``(node, path, dim)``, ``dim`` ignored where no size applies;
# an absent field arrives as None, which only ``_optional`` accepts.

_NUMBER_TYPES = frozenset({int, float})  # bool is an int subclass, not a number here


def _number(node, path, dim=None) -> float:
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        _fail(path, f"expected a number, got {type(node).__name__}")
    try:
        value = float(node)
    except OverflowError:  # an integer beyond the float range
        value = np.inf
    if not np.isfinite(value):
        _fail(path, "number must be finite")
    return value


def _positive(node, path, dim=None) -> float:
    if (value := _number(node, path)) <= 0.0:
        _fail(path, "must be positive")
    return value


def _integer(node, path, dim=None, least=None) -> int:
    if isinstance(node, bool) or not isinstance(node, int) or least is not None and node < least:
        _fail(path, "expected an integer" + ("" if least is None else f" of at least {least}"))
    return node


_count = partial(_integer, least=1)


def _integers(node, path, dim=None) -> list[int]:
    if not isinstance(node, list) or not node:
        _fail(path, "must be a nonempty array of integers")
    return [_integer(v, f"{path}[{i}]") for i, v in enumerate(node)]


def _numbers(node, path, dim=None, ndim=1) -> np.ndarray:
    """A nonempty regular nest of finite numbers, converted in one pass; only a
    node that fails is walked entry by entry, for the path of its bad entry."""
    if not isinstance(node, list) or not node:
        _fail(path, f"expected a nonempty array of {'numbers' if ndim == 1 else 'rows'}")
    rows = node if ndim == 2 else (node,)
    if all(isinstance(r, list) and _NUMBER_TYPES.issuperset(map(type, r)) for r in rows):
        try:
            arr = np.array(node, dtype=float)
            if arr.ndim == ndim and arr.size and np.isfinite(arr).all():
                return arr
        except (ValueError, OverflowError):  # ragged rows, or an integer beyond float range
            pass
    if ndim == 1:
        return np.array([_number(v, f"{path}[{i}]") for i, v in enumerate(node)])
    rows = [_numbers(r, f"{path}[{i}]") for i, r in enumerate(node)]
    if len({r.size for r in rows}) != 1:
        _fail(path, "rows must share one length")
    return np.vstack(rows)


def _vector(node, path, dim) -> np.ndarray:
    vec = _numbers(node, path)
    if vec.size != dim:
        _fail(path, f"expected {dim} entries, got {vec.size}")
    return vec


def _matrix(node, path, dim, square=True) -> np.ndarray:
    mat = _numbers(node, path, ndim=2)
    if mat.shape[1] != dim or square and mat.shape[0] != dim:
        shape = f"a {dim}x{dim} matrix" if square else f"rows of {dim} entries"
        _fail(path, f"expected {shape}, got {mat.shape[0]}x{mat.shape[1]}")
    return mat


_rows = partial(_matrix, square=False)


def _basis(node, path, dim) -> np.ndarray | None:
    """Spanning vectors (rows) of a subspace as an orthonormal basis (columns)."""
    return None if node == [] else orthonormal_range_basis(_rows(node, path, dim).T)


def _optional(parse, default=None):
    """``parse`` for a field that may be absent or null, and is then ``default``."""
    return lambda node, path, dim: default if node is None else parse(node, path, dim)


def _fields(fields: dict, node: dict, path: str, dim) -> list:
    """Each declared field of object ``node`` through its parser, in order."""
    return [parse(node.get(key), f"{path}.{key}", dim) for key, parse in fields.items()]


def _object(node, keys, path: str) -> None:
    """Refuse ``node`` unless it is an object whose keys are all among ``keys``."""
    if not isinstance(node, dict):
        _fail(path, f"expected an object with {', '.join(keys)}")
    for key in node:
        if key not in keys:
            _fail(f"{path}.{key}", "unknown key")


class _Kind(NamedTuple):
    """``fields``: parsers by key in constructor order, or one for the whole body."""

    cls: type
    fields: dict | Callable


#: Deepest nesting of grammar entries (operators, their sets and monotone maps):
#: parsing and every walk over the built tree stay inside the recursion limit.
MAX_NESTING = 64

_nesting = threading.local()


def _build(spec: _Kind, node, path: str, dim):
    """Parse one entry's body and construct it; constructor errors get ``path``."""
    depth = getattr(_nesting, "depth", 0)
    if depth == MAX_NESTING:
        _fail(path, f"nested deeper than {MAX_NESTING} levels")
    whole = callable(spec.fields)
    if not whole:
        _object(node, spec.fields, path)
    _nesting.depth = depth + 1
    try:
        args = [spec.fields(node, path, dim)] if whole else _fields(spec.fields, node, path, dim)
    finally:
        _nesting.depth = depth
    try:
        return spec.cls(*args)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _tagged(table: dict, what: str, node, path: str, dim):
    """Parse ``{kind: body}`` for one of the kinds of ``table``."""
    if not isinstance(node, dict) or len(node) != 1:
        _fail(path, f"expected an object with exactly one {what} kind")
    kind, body = next(iter(node.items()))
    if kind not in table:
        _fail(path, f"unknown {what} kind {kind!r}; known: {', '.join(table)}")
    return _build(table[kind], body, f"{path}.{kind}", dim)


def _operators(node, path, dim) -> list[Operator]:
    if not isinstance(node, list):
        _fail(path, "expected an array of operators")
    return [_operator(part, f"{path}[{i}]", dim) for i, part in enumerate(node)]


_SETS = {
    "box": _Kind(Box, {"lo": _vector, "hi": _vector}),
    "ball": _Kind(Ball, {"center": _vector, "radius": _number}),
    "halfspace": _Kind(Halfspace, {"normal": _vector, "offset": _number}),
    "affine_subspace": _Kind(AffineSubspace, {"base": _vector, "basis": _optional(_basis)}),
    "singleton": _Kind(AffineSubspace, {"point": _vector}),
}
_set = partial(_tagged, _SETS, "set")

_MONOTONE = _Kind(MonotoneAffine, {"Q": _matrix, "q": _vector})
_monotone = partial(_build, _MONOTONE)

#: ``compose`` lists parts innermost-first (the first entry is applied first).
_OPERATORS = {
    "affine": _Kind(AffineMap, {"M": _matrix, "b": _vector}),
    "projector": _Kind(SetProjector, _set),
    "compose": _Kind(Composition, _operators),
    "combo": _Kind(ConvexCombination, {"weights": _numbers, "parts": _operators}),
    "resolvent": _Kind(Resolvent, _monotone),
    "reflected": _Kind(ReflectedResolvent, _monotone),
    "gradstep": _Kind(GradientStep, {"Q": _matrix, "q": _vector, "step": _number}),
}
_operator = partial(_tagged, _OPERATORS, "operator")


class _Check(NamedTuple):
    """Fields in ``verify.check_<name>`` argument order (after the operators when
    ``ops``); ``iterative`` checks also take the estimator's max_iter and tol."""

    fields: dict = {}
    ops: bool = False
    iterative: bool = False


_CHECKS = {
    "range_formula_composition": _Check(ops=True),
    "permutation_displacement": _Check({"sigma": _integers}, ops=True),
    "norm_bound_composition": _Check(ops=True),
    "cyclic_norm": _Check(ops=True, iterative=True),
    "noncyclic_counterexample": _Check({"u": _vector}),
    "three_op_closed_form": _Check({"deltas": _integers, "a": _rows}),
    "convex_combination": _Check({"weights": _numbers}, ops=True, iterative=True),
    "zero_sum_corollary": _Check({"weights": _numbers}, ops=True, iterative=True),
    "cocoercive_averaged_equivalence": _Check(
        {"A": _monotone, "mu": _optional(_number), "samples": _optional(_count, 1000)}),
    "brezis_haraux_affine": _Check({"A": _monotone, "B": _monotone}),
    "translation_formula": _Check({
        "A": _monotone, "B": _monotone, "y": _vector,
        "samples": _optional(_count, 200)}),
    "range_identity_reflected": _Check({"A": _monotone}),
    "projected_gradient_bound": _Check({
        "Q": _matrix, "q": _vector, "set": _set, "alpha": _number,
        "L": _optional(_number)}, iterative=True),
}

_ESTIMATOR = {"x0": _optional(_vector),
              "max_iter": _optional(_count, DEFAULT_MAX_ITER),
              "tol": _optional(_positive, DEFAULT_TOL)}


@dataclass
class Scenario:
    """A named, seeded problem instance: operators, checks and estimator settings."""

    name: str
    dim: int
    seed: int
    operators: list[Operator]
    checks: list[dict] = field(default_factory=list)
    x0: np.ndarray | None = None
    max_iter: int = DEFAULT_MAX_ITER
    tol: float = DEFAULT_TOL


def scenario_from_dict(raw: dict, path: str = "scenario") -> Scenario:
    _object(raw, ("name", "dim", "seed", "operators", "checks", "estimator"), path)
    name = raw.get("name", "scenario")
    if not isinstance(name, str):
        _fail(f"{path}.name", "must be a string")
    dim = _count(raw.get("dim"), f"{path}.dim")
    seed = _integer(raw.get("seed", 0), f"{path}.seed")
    operators = _operators(raw.get("operators", []), f"{path}.operators", dim)
    checks_node = raw.get("checks", [])
    if not isinstance(checks_node, list):
        _fail(f"{path}.checks", "must be an array")
    for i, node in enumerate(checks_node):
        if not isinstance(node, dict) or not isinstance(node.get("name"), str):
            _fail(f"{path}.checks[{i}]", "each check needs a string 'name'")
        if (spec := _CHECKS.get(node["name"])) is None:
            _fail(f"{path}.checks[{i}].name",
                  f"unknown check {node['name']!r}; known: {', '.join(_CHECKS)}")
        ops = ("ops",) if spec.ops else ()
        _object(node, ("name", "tol", *ops, *spec.fields), f"{path}.checks[{i}]")
    checks = [dict(node) for node in checks_node]
    estimator = raw.get("estimator", {})
    _object(estimator, _ESTIMATOR, f"{path}.estimator")
    x0, max_iter, tol = _fields(_ESTIMATOR, estimator, f"{path}.estimator", dim)
    return Scenario(name, dim, seed, operators, checks, x0, max_iter, tol)


def _read_json(path: str, what: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from exc
    except RecursionError as exc:
        raise ValidationError(f"{path}: JSON nested too deeply to read") from exc


def load_scenario(path: str) -> Scenario:
    return scenario_from_dict(_read_json(path, "scenario"))


def _ops_for_check(scn: Scenario, params: dict, path: str) -> list[Operator]:
    node = params.get("ops")
    if node is None:
        if not scn.operators:
            _fail(path, "scenario has no operators to check")
        return list(scn.operators)
    for i, idx in enumerate(_integers(node, f"{path}.ops")):
        if not 0 <= idx < len(scn.operators):
            _fail(f"{path}.ops[{i}]", f"operator index out of range 0..{len(scn.operators) - 1}")
    return [scn.operators[idx] for idx in node]


def run_scenario_checks(scn: Scenario, seed: int | None = None,
                        tol: float | None = None,
                        max_iter: int | None = None) -> list[verify.CheckReport]:
    """Execute the checks named in the scenario against its operators, once
    every check's parameters have parsed."""
    seed = scn.seed if seed is None else seed
    iterative = {"max_iter": scn.max_iter if max_iter is None else max_iter, "iter_tol": scn.tol}
    calls = []
    for i, params in enumerate(scn.checks):
        path = f"scenario.checks[{i}]"
        spec = _CHECKS[params["name"]]
        kw = {"seed": seed, **(iterative if spec.iterative else {})}
        check_tol = params.get("tol", tol)
        if check_tol is not None:
            kw["tol"] = _positive(check_tol, f"{path}.tol")
        args = [_ops_for_check(scn, params, path)] if spec.ops else []
        calls.append((path, params["name"], args + _fields(spec.fields, params, path, scn.dim), kw))
    reports = []
    for path, name, args, kw in calls:
        # looked up at call time, so wrappers installed on ``verify`` see the call
        check = getattr(verify, f"check_{name}")
        try:
            reports.append(check(*args, **kw))
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from exc
    verify._composed.cache_clear()
    return reports


# ---------------------------------------------------------------------------
# Report payloads


def check_to_dict(r: verify.CheckReport) -> dict:
    return {
        "check_name": r.check_name,
        "pass": r.passed,
        "lhs": r.lhs,
        "rhs": r.rhs,
        "discrepancy": r.discrepancy,
        "tolerance": r.tolerance,
        "witness": r.witness,
        "seed": r.seed,
        "hypothesis_met": r.hypothesis_met,
        "notes": r.notes,
    }


def estimate_to_dict(label: str, est: DisplacementEstimate) -> dict:
    return {
        "label": label,
        "method": est.method,
        "vector": est.vector,
        "norm": est.norm,
        "residual": est.residual,
        "iterations": est.iterations,
        "converged": est.converged,
    }


def verify_payload(name: str, seed: int, reports: list[verify.CheckReport]) -> dict:
    gated = [r for r in reports if r.hypothesis_met]
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "verify",
        "name": name,
        "seed": seed,
        "checks": [check_to_dict(r) for r in reports],
        "summary": {
            "total": len(reports),
            "passed": sum(1 for r in gated if r.passed),
            "failed": sum(1 for r in gated if not r.passed),
            "hypothesis_unmet": len(reports) - len(gated),
        },
    }


def estimate_payload(name: str, seed: int, entries: list[dict]) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "estimate",
        "name": name,
        "seed": seed,
        "estimates": entries,
        "summary": {"total": len(entries),
                    "converged": sum(1 for e in entries if e["converged"])},
    }


def dumps_report(payload: dict) -> str:
    """Canonical report text: sorted keys, stringified floats, trailing newline;
    ``json.dumps(stringify_numbers(payload), indent=2, sort_keys=True)``,
    written in one pass by :func:`_report_text`."""
    return _report_text(payload, "\n", _TEXT_DEPTH) + "\n"


#: Container levels :func:`_report_text` writes itself, enough for every
#: report mdvkit writes; deeper values take the ``json`` path, whose recursion
#: limit then decides, as it does for the whole text.
_TEXT_DEPTH = 8
_quoted = json.encoder.encode_basestring_ascii
_STR = frozenset({str})
#: Text of a value of exactly these types, as :func:`stringify_numbers` and
#: ``json.dumps`` write it.
_LEAF = {
    str: _quoted,
    float: '"{:.17g}"'.format,  # fmt_float, quoted
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _report_text(obj, pad: str, depth: int) -> str:
    """``obj`` as the indent-2 JSON text of ``stringify_numbers(obj)``, at the
    indentation ``pad`` (a newline and the current level's spaces).  Values of
    exactly the types mdvkit writes (str, float, int, bool, None, 1-d float64
    arrays, ``AffineSubspace``, lists, tuples and str-keyed dicts) are written
    here; any other value, and every value ``depth`` levels down, through
    ``json.dumps`` with its newlines indented."""
    kind = type(obj)
    if (leaf := _LEAF.get(kind)) is not None:
        return leaf(obj)
    if depth:
        inner, get, depth = pad + "  ", _LEAF.get, depth - 1
        if kind is dict and _STR.issuperset(map(type, obj)):
            items = [_quoted(k) + ": " + (leaf(v) if (leaf := get(type(v))) is not None
                                          else _report_text(v, inner, depth))
                     for k, v in sorted(obj.items())]
            return "{" + inner + ("," + inner).join(items) + pad + "}" if items else "{}"
        if kind is list or kind is tuple:
            items = [leaf(v) if (leaf := get(type(v))) is not None
                     else _report_text(v, inner, depth) for v in obj]
        elif kind is np.ndarray and obj.ndim == 1 and obj.dtype == np.float64:
            items = list(map(_LEAF[float], obj.tolist()))
        elif kind is AffineSubspace:
            return ("{" + inner + '"base": ' + _report_text(obj.base, inner, depth) + ","
                    + inner + f'"rank": {obj.rank}' + pad + "}")
        else:
            items = None
        if items is not None:
            return "[" + inner + ("," + inner).join(items) + pad + "]" if items else "[]"
    return json.dumps(stringify_numbers(obj), indent=2, sort_keys=True).replace("\n", pad)


def write_atomic(path: str, text: str) -> None:
    """Write via a same-directory temp file and rename, so readers never see partial files."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".mdvkit-{uuid.uuid4().hex}.tmp")
    # mode 0o666 less the umask, applied by the kernel: the mode survives the rename
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_report(path: str) -> dict:
    """A saved report of a known kind whose rows (``checks`` or ``estimates``) are
    objects whose typed fields, where present, hold what mdvkit writes there."""
    payload = _read_json(path, "report")
    version = payload.get("schema_version") if isinstance(payload, dict) else None
    if type(version) is not int or version != SCHEMA_VERSION:  # true and 1.0 both equal 1
        raise ValidationError(f"{path}: not a schema_version={SCHEMA_VERSION} report")
    rows_key = _layout(payload, path)[0]
    rows = payload.get(rows_key, [])
    if not isinstance(rows, list):
        _fail(path, f"{rows_key} must be an array of objects")
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            _fail(f"{path}: {rows_key}[{i}]", "expected an object")
        for key, (valid, what) in _ROW_FIELDS.items():
            if key in row and not valid(row[key]):
                _fail(f"{path}: {rows_key}[{i}].{key}", f"expected {what}")
    return payload


#: Boolean row fields; the CSV prints them as true/false (empty when absent).
_FLAGS = ("pass", "converged", "hypothesis_met")
#: A number as :func:`fmt_float` writes it.
_DECIMAL = re.compile(r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|inf)|nan")

#: Typed row fields -> (test, what the error says was expected).
_ROW_FIELDS = {
    **dict.fromkeys(_FLAGS, (lambda v: isinstance(v, bool), "true or false")),
    **dict.fromkeys(("check_name", "label", "method"), (lambda v: isinstance(v, str), "a string")),
    **dict.fromkeys(("seed", "iterations"), (lambda v: type(v) is int, "an integer")),  # not a bool
    **dict.fromkeys(("discrepancy", "tolerance", "residual", "norm"),
                    (lambda v: isinstance(v, str) and _DECIMAL.fullmatch(v) is not None,
                     "a decimal string")),
}

#: Report kind -> (rows key, CSV columns).
_CSV = {
    "verify": ("checks", ("check_name", "pass", "discrepancy", "tolerance", "seed",
                          "witness_summary")),
    "estimate": ("estimates", ("label", "method", "converged", "iterations", "residual",
                               "norm")),
}


def _csv_cell(row: dict, column: str):
    """One cell, rendered as the JSON report renders the value it prints."""
    if column == "witness_summary":
        witness = stringify_numbers(row.get("witness"))
        text = "" if witness is None else json.dumps(witness, sort_keys=True)
        return text if len(text) <= 60 else text[:57] + "..."
    value = stringify_numbers(row.get(column))
    if column in _FLAGS and column in row:
        return str(bool(value)).lower()
    return value


def _layout(payload: dict, path: str) -> tuple:
    """``(rows key, csv columns)`` of the report's kind; the one kind check."""
    kind = payload.get("kind")
    if not isinstance(kind, str) or kind not in _CSV:
        _fail(path, f"kind must be one of {', '.join(sorted(_CSV))}")
    return _CSV[kind]


def report_to_csv(payload: dict) -> str:
    """Delimited rendering of a report (checks or estimates), numbers as in the JSON."""
    rows_key, columns = _layout(payload, "report")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    for row in payload.get(rows_key, []):
        writer.writerow([_csv_cell(row, column) for column in columns])
    return out.getvalue()
