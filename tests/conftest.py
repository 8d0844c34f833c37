import os
import sys

import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, os.path.dirname(__file__))

settings.register_profile(
    "ci",
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture
def detect_peaks_calls(monkeypatch):
    """Record every call of ``beats.detect_peaks``, whatever name it was imported as."""
    import pulsecmp.cli  # noqa: F401  (loads every pipeline module)
    from pulsecmp import beats

    calls = []
    real = beats.detect_peaks

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("pulsecmp") and vars(module).get("detect_peaks") is real:
            monkeypatch.setattr(module, "detect_peaks", counted)
    return calls
