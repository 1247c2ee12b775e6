"""The public surface: what ``triphoton`` exports, and the README's
library sketch that uses it."""

import math
import os

import triphoton

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def test_every_exported_name_resolves():
    missing = [name for name in triphoton.__all__
               if not hasattr(triphoton, name)]
    assert missing == []


def test_exported_names_are_unique():
    assert len(triphoton.__all__) == len(set(triphoton.__all__))


def test_readme_library_sketch_runs(capsys):
    with open(README) as handle:
        text = handle.read()
    sketch = text.split("## Library sketch", 1)[1]
    code = sketch.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    values = [float(v) for v in capsys.readouterr().out.split()]
    assert len(values) == 2
    assert all(math.isfinite(v) for v in values)
