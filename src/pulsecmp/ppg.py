"""PPG channel selection and conditioning.

The selected channel goes through the identical band-pass design used
for the radar phase signal, then through the shared polarity rule, so
all modalities arrive at beat analysis with the same orientation
convention (systolic upstroke positive-going).
"""

from __future__ import annotations

from dataclasses import dataclass

from pulsecmp.beats import correct_polarity_or_keep
from pulsecmp.signal_core import BandpassSpec, TimeSeries, butterworth_bandpass

DEFAULT_CHANNEL = "green_0"


@dataclass
class PpgRecording:
    """Multi-channel PPG record; channels share one sample rate."""

    channels: dict[str, TimeSeries]

    def __post_init__(self):
        if not self.channels:
            raise ValueError("at least one channel required")
        rates = {ts.sample_rate_hz for ts in self.channels.values()}
        if len(rates) != 1:
            raise ValueError("all channels must share one sample rate")

    def channel_names(self) -> list[str]:
        return sorted(self.channels)


def default_channel(rec: PpgRecording) -> str:
    """``green_0`` when present, else the alphabetically first channel."""
    if DEFAULT_CHANNEL in rec.channels:
        return DEFAULT_CHANNEL
    return rec.channel_names()[0]


def process_ppg(
    rec: PpgRecording,
    channel: str | None = None,
    spec: BandpassSpec | None = None,
    min_separation_s: float = 0.33,
    prominence_rel: float = 0.3,
) -> TimeSeries:
    """Band-pass and orient one PPG channel.

    Parameters
    ----------
    rec : PpgRecording
        Raw recording.
    channel : str, optional
        Channel name; resolved via :func:`default_channel` when omitted.
    spec : BandpassSpec, optional
        Filter design shared with the radar chain.

    Raises
    ------
    ValueError
        When the channel is missing (the message lists available
        channels) or the recording is shorter than 10 s.
    """
    name = channel if channel is not None else default_channel(rec)
    if name not in rec.channels:
        raise ValueError(
            f"channel {name!r} not found; available: {', '.join(rec.channel_names())}"
        )
    raw = rec.channels[name]
    if raw.duration_s < 10.0:
        raise ValueError("recording too short")
    filtered = butterworth_bandpass(raw, spec)
    return correct_polarity_or_keep(filtered, min_separation_s, prominence_rel)[0]
