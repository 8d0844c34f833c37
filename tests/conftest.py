import inspect
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
def call_log(monkeypatch):
    """Record the calls of ``pulsecmp`` functions, whatever names they were imported as.

    ``call_log(fn)`` replaces ``fn`` under every name that holds it in a
    loaded ``pulsecmp`` module and returns the list that each later call
    appends its positional arguments to. Each call is bound to ``fn``'s
    signature first, so an argument passed by keyword is logged in its
    positional slot; arguments left at their defaults are not logged.
    """
    import pulsecmp.cli  # noqa: F401  (loads every pipeline module)

    def watch(real):
        calls = []
        signature = inspect.signature(real)

        def counted(*args, **kwargs):
            calls.append(signature.bind(*args, **kwargs).args)
            return real(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("pulsecmp"):
                for attr, value in list(vars(module).items()):
                    if value is real:
                        monkeypatch.setattr(module, attr, counted)
        return calls

    return watch
