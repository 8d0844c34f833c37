"""Pipeline configuration: defaults, flat key=value files, overrides.

Config files are plain text, one ``key = value`` per line with ``#``
comments. A value must parse as its field's type, and a float must be
finite, from a file, an override or the constructor; each error names
its key, and an error in a file also its line. Field ``filter_low_hz``
is key ``filter.low_hz``, its first underscore turned into a dot. The
environment variable ``PULSECMP_CONFIG`` names a default config file
used without a path.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields

ENV_CONFIG = "PULSECMP_CONFIG"


@dataclass
class PipelineConfig:
    """All tunable pipeline parameters with their defaults."""

    filter_order: int = 4
    filter_low_hz: float = 0.5
    filter_high_hz: float = 8.0
    beats_min_separation_s: float = 0.33
    beats_prominence_rel: float = 0.3
    beats_norm_len: int = 200
    align_max_lag_s: float = 5.0
    align_pair_tol_s: float = 0.25
    radar_max_bins: int = 0  # 0 searches every informative bin
    ppg_channel: str = ""  # empty selects the default channel
    synth_duration_s: float = 60.0
    synth_fs_hz: float = 200.0
    synth_seed: int = 1
    synth_snr_db: float = 20.0  # negative disables noise
    synth_hr_bpm: float = 62.0
    synth_ibi_sd_ms: float = 30.0
    synth_displacement_m: float = 100e-6
    synth_antennas: int = 3
    synth_chirps: int = 16
    synth_samples: int = 64
    synth_target_antenna: int = 1
    synth_target_bin: int = 7
    synth_ppg_tau_s: float = 0.25
    synth_ppg_noise_sd: float = 0.01
    synth_sbp_mmhg: float = 120.0
    synth_dbp_mmhg: float = 80.0

    def __post_init__(self):
        for key, attr in _KEYMAP.items():
            _require_finite(key, getattr(self, attr))

    def set_key(self, key: str, raw: str) -> None:
        """Assign one dotted key from its string representation."""
        attr = _KEYMAP.get(key)
        if attr is None:
            raise ValueError(f"unknown config key {key!r}")
        current = getattr(self, attr)
        if isinstance(current, (int, float)):
            try:
                value = type(current)(raw)
            except ValueError:
                kind = "an integer" if isinstance(current, int) else "a number"
                raise ValueError(f"config key {key!r} needs {kind}, got {raw.strip()!r}") from None
            _require_finite(key, value)
        else:
            value = raw.strip()
        setattr(self, attr, value)

    def to_flat_dict(self) -> dict:
        """Dotted-key view of every parameter (for the report echo)."""
        return {key: getattr(self, attr) for key, attr in sorted(_KEYMAP.items())}

    @property
    def snr_db_or_none(self) -> float | None:
        return None if self.synth_snr_db < 0 else self.synth_snr_db


# Dotted key -> field name: field ``section_name`` is key ``section.name``.
_KEYMAP = {f.name.replace("_", ".", 1): f.name for f in fields(PipelineConfig)}


def _require_finite(key: str, value) -> None:
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"config key {key!r} must be finite, got {value!r}")


def parse_config_text(text: str, base: PipelineConfig | None = None) -> PipelineConfig:
    """Parse ``key = value`` lines into a config, starting from ``base``."""
    cfg = base if base is not None else PipelineConfig()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        key, raw = stripped.split("=", 1)
        try:
            cfg.set_key(key.strip(), raw)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return cfg


def load_config(path: str | None = None) -> PipelineConfig:
    """Load a config file, falling back to $PULSECMP_CONFIG, then defaults."""
    if path is None:
        path = os.environ.get(ENV_CONFIG) or None
    if path is None:
        return PipelineConfig()
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())
