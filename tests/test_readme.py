"""The README's library example runs as written against the package root."""

import contextlib
import io
import os
import re
import types

import pulsecmp

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _library_example() -> str:
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    assert len(blocks) == 1
    return blocks[0]


def test_package_root_exports_the_readme_names():
    public = {
        name
        for name, value in vars(pulsecmp).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(pulsecmp.__all__) == {"PipelineConfig", "run_compare", "simulate_bundle"}


def test_library_example_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_library_example(), "README.md", "exec"), {})
    cosine_mean = float(out.getvalue())
    assert 0.5 < cosine_mean <= 1.0
