"""The README's Python examples run and print what their comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_print_what_their_comments_say():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 2
    namespace = {}  # the second block uses the first one's imports
    for block in blocks:
        # each `print(...)   # value` line documents its output, quotes aside
        expected = [line.split("#", 1)[1].strip().strip('"')
                    for line in block.splitlines() if line.startswith("print(")]
        assert expected
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(block, namespace)
        assert out.getvalue().splitlines() == expected
