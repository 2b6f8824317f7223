"""Scenario and report fuzzing: malformed input never crashes the CLI.

Whatever a mutated scenario or report file holds, ``estimate``, ``verify`` and
``report`` end with exit 0 (success), 1 (``verify`` only, with a failed
hypothesis-met check in the written report), 2 (an ``error:`` line) or 3
(numerical failure), and no exception escapes ``cli.main``.
"""

import contextlib
import copy
import functools
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from mdvkit.cli import EXIT_CHECK_FAILED, EXIT_INVALID, main
from mdvkit.scenario import MAX_NESTING

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
BASES = {path.name: json.loads(path.read_text()) for path in sorted(SCENARIOS.glob("*.json"))}
POOL = [None, "x", True, -1, 0, 2.5, [], {}, [1, 2]]


def _node_paths(node, prefix=()):
    """Key paths of every node of a JSON tree, the root included."""
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _node_paths(child, prefix + (key,))


def _replaced(tree, path, value):
    if not path:
        return value
    tree = copy.deepcopy(tree)
    parent = tree
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return tree


TARGETS = [(name, path) for name, raw in BASES.items() for path in _node_paths(raw)]


def _run(command, path, tmp, *flags):
    """Exit code of one CLI call on ``path``, held to the exit-code contract."""
    out = Path(tmp) / f"{command}.out"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main([command, str(path), *flags, "--out", str(out)])
    assert rc in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if rc == EXIT_INVALID:
        assert err.getvalue().startswith("error: ")
    if rc == EXIT_CHECK_FAILED:
        assert command == "verify"
        rows = json.loads(out.read_text())["checks"]
        assert any(row["hypothesis_met"] and not row["pass"] for row in rows)
    return rc


@settings(max_examples=300, deadline=None)
@given(target=st.sampled_from(TARGETS), value=st.sampled_from(POOL))
def test_one_mutated_node_never_crashes(target, value):
    name, path = target
    with tempfile.TemporaryDirectory() as tmp:
        scenario = Path(tmp) / name
        scenario.write_text(json.dumps(_replaced(BASES[name], path, value)))
        for command in ("estimate", "verify"):
            _run(command, scenario, tmp, "--max-iter", "2000")


@functools.cache
def _reports():
    """The estimate and verify reports of each shipped scenario."""
    reports = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in BASES:
            for command in ("estimate", "verify"):
                assert _run(command, SCENARIOS / name, tmp) == 0
                out = Path(tmp) / f"{command}.out"
                reports[f"{command}-{name}"] = json.loads(out.read_text())
    return reports


#: A string leaf that the file text replaces with a deeply nested value.
_DEEP = "\x00deep\x00"
_KEYS = st.text("kéy", max_size=3) | st.sampled_from([
    "bb", "sample", "name", "dim", "checks", "kind", "witness", "label", "seed", "ops", "tol",
    "affine", "compose", "M", "b"])
_TREES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 60) | st.floats(allow_nan=False)
    | st.sampled_from(["", "x", "\ud800", "1e-3", "nan"]),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(_KEYS, kids, max_size=3),
    max_leaves=12)
#: Deep values by kind (bare arrays, operator chains, objects) and depth: at
#: MAX_NESTING, deep enough to exhaust a recursive walk, and past what
#: ``json`` itself reads.
_NESTS = {
    "list": ("[", "0", "]"),
    "compose": ('{"compose": [', '{"affine": {"M": [[1.0]], "b": [0.0]}}', "]}"),
    "object": ('{"a": ', "0", "}"),
}
_DEPTHS = st.sampled_from([MAX_NESTING, MAX_NESTING + 1]) | st.integers(300, 1200)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), base=st.sampled_from(
           sorted(BASES) + [f"{c}-{n}" for c in ("estimate", "verify") for n in sorted(BASES)]),
       damage=st.sampled_from(["graft", "key", "deep", "bytes"]), csv=st.booleans())
def test_fuzzed_json_trees_never_crash(data, base, damage, csv):
    # a shipped scenario or one of its reports, damaged at one node: a random
    # tree grafted over it or under a new key, a deeply nested value, or raw
    # bytes spliced into the file's text
    tree = BASES[base] if base in BASES else _reports()[base]
    path = data.draw(st.sampled_from(list(_node_paths(tree))))
    if damage == "key":
        tree = copy.deepcopy(tree)
        node = tree
        for key in path:
            node = node[key]
        node = node if isinstance(node, dict) else tree
        node[data.draw(_KEYS)] = data.draw(_TREES)
    elif damage != "bytes":
        tree = _replaced(tree, path, _DEEP if damage == "deep" else data.draw(_TREES))
    text = json.dumps(tree)
    if damage == "deep":
        opening, leaf, closing = _NESTS[data.draw(st.sampled_from(sorted(_NESTS)))]
        depth = data.draw(_DEPTHS)
        text = text.replace(json.dumps(_DEEP), opening * depth + leaf + closing * depth)
    raw = text.encode()
    if damage == "bytes":
        at = data.draw(st.integers(0, len(raw)))
        raw = raw[:at] + data.draw(st.binary(min_size=1, max_size=3)) + raw[at:]
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "input.json"
        target.write_bytes(raw)
        for command in ("estimate", "verify"):
            _run(command, target, tmp, "--max-iter", "200")
        _run("report", target, tmp, "--format", "csv" if csv else "json")
