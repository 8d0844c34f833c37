"""Seed-grid guard: the default-config reports of seeds 1-5 at 60 s.

``seed_grid.json`` holds, per seed, the ``report.json`` document of
``run_compare`` on ``simulate_bundle(PipelineConfig(synth_seed=seed))``.
``test_cli.py`` checks every report it builds for these seeds against
it: statuses, selections, ``inverted`` and every integer and string
exactly, floats within ``RTOL``. A change that means to move report
values rewrites the fixture, from the repository root:

    PYTHONPATH=src python tests/seed_grid.py
"""

from __future__ import annotations

import json
import math
from pathlib import Path

SEEDS = (1, 2, 3, 4, 5)
RTOL = 1e-9
FIXTURE = Path(__file__).with_name("seed_grid.json")


def expected(seed: int) -> dict:
    """The committed report document of one seed."""
    return json.loads(FIXTURE.read_text(encoding="utf-8"))[str(seed)]


def assert_matches(got, want, path: str = "report") -> None:
    """``got`` equals ``want`` but for floats, which agree within ``RTOL``."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), path
        for key in want:
            assert_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{path}[{i}]")
    elif isinstance(want, float) or isinstance(got, float):
        # an integral float is written without a point and reads back as an int
        numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (got, want))
        assert numbers and math.isclose(got, want, rel_tol=RTOL, abs_tol=0.0), (
            f"{path}: {got!r} != {want!r}"
        )
    else:
        assert type(got) is type(want) and got == want, f"{path}: {got!r} != {want!r}"


def main() -> None:
    from pulsecmp.config import PipelineConfig
    from pulsecmp.formats import canonical_json
    from pulsecmp.report import run_compare, simulate_bundle

    docs = {}
    for seed in SEEDS:
        config = PipelineConfig(synth_seed=seed)
        report = run_compare(simulate_bundle(config), config)
        docs[str(seed)] = json.loads(canonical_json(report.to_dict()))
    FIXTURE.write_text(json.dumps(docs, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
