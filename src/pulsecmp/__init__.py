"""pulsecmp: multimodal arterial pulse waveform comparison toolkit.

Processing chains for three pulse-wave modalities recorded at the same
site: near-field FMCW radar (tissue displacement via phase), reflective
PPG, and a continuous arterial-pressure reference. Includes beat
detection, inter-beat-interval extraction, waveform morphology metrics,
Bland-Altman agreement statistics, and a seedable physics-based signal
generator used as the verification oracle.

The package root exports the three names of the README's library
example: ``PipelineConfig``, ``simulate_bundle`` and ``run_compare``.
They load on first use (PEP 562), so ``import pulsecmp`` alone imports
neither numpy nor any submodule, and ``pulsecmp.cli`` can set its BLAS
thread default before numpy loads. Everything else is imported from its
module (``pulsecmp.radar``, ``pulsecmp.beats``, ``pulsecmp.formats``, ...).
"""

import importlib

__version__ = "0.1.0"

__all__ = ["PipelineConfig", "run_compare", "simulate_bundle"]

_HOMES = {"PipelineConfig": "config", "run_compare": "report", "simulate_bundle": "report"}


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
