"""The README's library-use example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})
    # It prints the L2 and energy errors of a tri n=16, k=2 solve.
    errs = [float(e) for e in capsys.readouterr().out.split()]
    assert len(errs) == 2 and all(0.0 < e < 1e-2 for e in errs)
