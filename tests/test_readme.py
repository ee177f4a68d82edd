"""The README's library example runs as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    example = re.search(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert example, "README has no python example"
    exec(compile(example.group(1), str(README), "exec"), {})
    gof, auc = capsys.readouterr().out.split()
    assert 0.0 <= float(gof) and 0.0 <= float(auc) <= 1.0
