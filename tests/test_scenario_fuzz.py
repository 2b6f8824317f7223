"""Scenario fuzzing: one mutated node of a shipped scenario never crashes the CLI.

Whatever a single node is replaced by, ``estimate`` and ``verify`` end with
exit 0 (success), 1 (``verify`` only, with a failed hypothesis-met check in the
written report), 2 (an ``error:`` line) or 3 (numerical failure), and no
exception escapes ``cli.main``.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from mdvkit.cli import EXIT_CHECK_FAILED, EXIT_INVALID, main

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


@settings(max_examples=300, deadline=None)
@given(target=st.sampled_from(TARGETS), value=st.sampled_from(POOL))
def test_one_mutated_node_never_crashes(target, value):
    name, path = target
    with tempfile.TemporaryDirectory() as tmp:
        scenario = Path(tmp) / name
        scenario.write_text(json.dumps(_replaced(BASES[name], path, value)))
        for command in ("estimate", "verify"):
            out = Path(tmp) / f"{command}.json"
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = main([command, str(scenario), "--max-iter", "2000", "--out", str(out)])
            assert rc in (0, 1, 2, 3)
            if rc == EXIT_INVALID:
                assert err.getvalue().startswith("error: ")
            if rc == EXIT_CHECK_FAILED:
                assert command == "verify"
                rows = json.loads(out.read_text())["checks"]
                assert any(row["hypothesis_met"] and not row["pass"] for row in rows)
