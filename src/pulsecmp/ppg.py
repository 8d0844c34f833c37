"""PPG recordings and channel selection.

The PPG chain is channel selection, then the reference chain: the
selected channel is conditioned exactly as the pressure reference is
(``report.condition_modality``), through the band-pass design shared
with the radar phase signal. Orientation (systolic upstroke
positive-going) and beat detection are one shared last step for every
modality (``beats.orient_and_detect``).
"""

from __future__ import annotations

from dataclasses import dataclass

from pulsecmp.signal_core import TimeSeries

DEFAULT_CHANNEL = "green_0"


@dataclass
class PpgRecording:
    """Multi-channel PPG record on one time base.

    The CSV form holds one time column for every channel, so channels
    share a sample rate, a start time and a length.
    """

    channels: dict[str, TimeSeries]

    def __post_init__(self):
        if not self.channels:
            raise ValueError("at least one channel required")
        bases = {(ts.sample_rate_hz, ts.start_time_s, len(ts)) for ts in self.channels.values()}
        if len(bases) != 1:
            raise ValueError("all channels must share one sample rate, start time and length")

    def channel_names(self) -> list[str]:
        return sorted(self.channels)

    def channel(self, name: str = "") -> TimeSeries:
        """The named channel; an empty name selects :func:`default_channel`."""
        name = name or default_channel(self)
        if name not in self.channels:
            raise ValueError(
                f"channel {name!r} not found; available: {', '.join(self.channel_names())}"
            )
        return self.channels[name]


def default_channel(rec: PpgRecording) -> str:
    """``green_0`` when present, else the alphabetically first channel."""
    if DEFAULT_CHANNEL in rec.channels:
        return DEFAULT_CHANNEL
    return rec.channel_names()[0]
