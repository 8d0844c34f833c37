"""PPG channel selection and conditioning.

The selected channel goes through the identical band-pass design used
for the radar phase signal, and the chain stops there: orientation
(systolic upstroke positive-going) and beat detection are one shared
last step for every modality (``beats.orient_and_detect``).
"""

from __future__ import annotations

from dataclasses import dataclass

from pulsecmp.signal_core import BandpassSpec, TimeSeries, butterworth_bandpass, require_min_record

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
) -> TimeSeries:
    """Band-pass one PPG channel; orientation is left to the shared step.

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
        channels) or the recording is shorter than ``MIN_RECORD_S``.
    """
    name = channel if channel is not None else default_channel(rec)
    if name not in rec.channels:
        raise ValueError(
            f"channel {name!r} not found; available: {', '.join(rec.channel_names())}"
        )
    raw = rec.channels[name]
    require_min_record(raw.duration_s)
    return butterworth_bandpass(raw, spec)
