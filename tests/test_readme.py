"""The README's Library examples run and print what their comments say.

Every ```python block of README.md runs in order in one namespace (a later
block may use names an earlier one set).  Each `print(...)` line carries a
`# value` comment, and the printed lines must equal those comments in order.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_print_their_comments(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    prints = [line for block in blocks for line in block.splitlines() if line.startswith("print(")]
    assert all(re.search(r"\)\s+# ", line) for line in prints), "every print line needs a # value comment"
    expected = [line.split("# ", 1)[1] for line in prints]
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert capsys.readouterr().out.splitlines() == expected
