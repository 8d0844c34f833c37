"""pulsecmp: multimodal arterial pulse waveform comparison toolkit.

Processing chains for three pulse-wave modalities recorded at the same
site: near-field FMCW radar (tissue displacement via phase), reflective
PPG, and a continuous arterial-pressure reference. Includes beat
detection, inter-beat-interval extraction, waveform morphology metrics,
Bland-Altman agreement statistics, and a seedable physics-based signal
generator used as the verification oracle.

The package root exports the three names of the README's library
example: ``PipelineConfig``, ``simulate_bundle`` and ``run_compare``.
Everything else is imported from its module (``pulsecmp.radar``,
``pulsecmp.beats``, ``pulsecmp.formats``, ...).
"""

from pulsecmp.config import PipelineConfig
from pulsecmp.report import run_compare, simulate_bundle

__version__ = "0.1.0"

__all__ = ["PipelineConfig", "run_compare", "simulate_bundle"]
