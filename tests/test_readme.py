"""The README's library example runs as written against the package root."""

import contextlib
import io
import os
import re
import subprocess
import sys
import types

import pytest

import pulsecmp
from pulsecmp.config import PipelineConfig

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _library_example() -> str:
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    assert len(blocks) == 1
    return blocks[0]


def test_package_root_exports_the_readme_names():
    # the names load on first use, so dir() and getattr, not vars()
    public = {
        name
        for name in dir(pulsecmp)
        if not name.startswith("_") and not isinstance(getattr(pulsecmp, name), types.ModuleType)
    }
    assert public == set(pulsecmp.__all__) == {"PipelineConfig", "run_compare", "simulate_bundle"}


def test_package_root_imports_nothing_until_used():
    code = (
        "import sys, pulsecmp\n"
        "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('pulsecmp.')))"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_package_root_resolves_its_names_only():
    from pulsecmp.config import PipelineConfig
    from pulsecmp.report import run_compare, simulate_bundle

    assert pulsecmp.PipelineConfig is PipelineConfig
    assert pulsecmp.run_compare is run_compare
    assert pulsecmp.simulate_bundle is simulate_bundle
    for name in ("process_radar", "synth_radar_stream"):
        with pytest.raises(AttributeError, match=f"has no attribute {name!r}"):
            getattr(pulsecmp, name)


def test_library_example_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_library_example(), "README.md", "exec"), {})
    cosine_mean = float(out.getvalue())
    assert 0.5 < cosine_mean <= 1.0


def test_configuration_lists_every_key_once():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    listing = section.split("Keys:", 1)[1].split(").", 1)[0]
    named, family = listing.split("the `synth.*` family", 1)
    keys = re.findall(r"`([a-z]+\.[a-z_]+)`", named)
    keys += [f"synth.{name}" for name in re.findall(r"`([a-z_]+)`", family)]
    assert sorted(keys) == sorted(PipelineConfig().to_flat_dict())
