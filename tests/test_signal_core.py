import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose
from scipy.signal import butter, sosfilt, sosfiltfilt

from pulsecmp import signal_core
from pulsecmp.signal_core import (
    FILTER_BLOCK,
    FILTER_CHUNK,
    FILTER_SLAB,
    BandpassSpec,
    TimeSeries,
    _bandpass_filter,
    _bandpass_padlen,
    _bandpass_sos,
    _block_pass,
    bandpass_array,
    bandpass_gain,
    butterworth_bandpass,
    median,
)

from oracles import (
    ComplexSeries,
    block_pass_one_product,
    brute_dft_onesided,
    range_fft,
    resample_linear,
    tone_amplitude,
    unwrap_phase,
    wrap_phase,
    zero_phase_gain,
)

FS = 200.0


def ts(values, fs=FS):
    return TimeSeries(np.asarray(values, dtype=float), fs)


class TestTimeSeries:
    def test_indexing_rule(self):
        x = TimeSeries([1.0, 2.0, 3.0], 200.0, start_time_s=0.5)
        assert_allclose(x.times(), [0.5, 0.505, 0.51])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty input"):
            TimeSeries(np.array([]), 200.0)

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            TimeSeries([1.0], 0.0)

    def test_complex_series_phase(self):
        cs = ComplexSeries(np.exp(1j * np.array([0.1, -0.2, 3.0])), 200.0)
        assert_allclose(cs.phase().samples, [0.1, -0.2, 3.0], atol=1e-12)


class TestUnwrapPhase:
    def test_constant_unchanged(self):
        out = unwrap_phase(ts([0.0, 0.0, 0.0]))
        assert_allclose(out.samples, [0.0, 0.0, 0.0])

    def test_single_jump(self):
        out = unwrap_phase(ts([3.0, -3.0]))
        assert_allclose(out.samples, [3.0, -3.0 + 2.0 * math.pi])

    def test_recovers_wrapped_ramp(self):
        ramp = np.linspace(0.0, 10.0, 100)
        out = unwrap_phase(ts(wrap_phase(ramp)))
        assert_allclose(out.samples, ramp, atol=1e-9)

    def test_first_sample_unchanged_and_multiple_of_2pi(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-np.pi, np.pi, 50)
        out = unwrap_phase(ts(x))
        assert out.samples[0] == x[0]
        k = (out.samples - x) / (2.0 * np.pi)
        assert_allclose(k, np.round(k), atol=1e-9)
        assert np.all(np.abs(np.diff(out.samples)) <= np.pi + 1e-12)

    @given(
        steps=arrays(
            np.float64,
            st.integers(2, 200),
            elements=st.floats(-3.0, 3.0, allow_nan=False),
        ),
        start=st.floats(-3.1, 3.1),
    )
    def test_wrap_unwrap_identity(self, steps, start):
        original = start + np.concatenate([[0.0], np.cumsum(steps[1:])])
        recovered = unwrap_phase(ts(wrap_phase(original))).samples
        assert_allclose(recovered, original, atol=1e-9)


class TestButterworthBandpass:
    def test_dc_rejected(self):
        x = ts(np.full(int(10 * FS), 5.0))
        y = butterworth_bandpass(x)
        assert np.abs(y.samples).max() < 1e-6

    def test_passband_tone_2hz(self):
        t = np.arange(int(60 * FS)) / FS
        y = butterworth_bandpass(ts(np.sin(2 * np.pi * 2.0 * t)))
        amp = tone_amplitude(y.samples, FS, 2.0)
        db = 20 * math.log10(amp)
        assert abs(db) <= 0.5
        assert_allclose(amp, zero_phase_gain(2.0, FS), rtol=1e-4)

    def test_stopband_tone_01hz(self):
        t = np.arange(int(60 * FS)) / FS
        y = butterworth_bandpass(ts(np.sin(2 * np.pi * 0.1 * t)))
        amp = tone_amplitude(y.samples, FS, 0.1)
        assert 20 * math.log10(amp) <= -40.0
        assert_allclose(amp, zero_phase_gain(0.1, FS), rtol=1e-2)

    def test_invalid_cutoff(self):
        x = ts(np.zeros(100))
        with pytest.raises(ValueError, match="invalid cutoff"):
            butterworth_bandpass(x, BandpassSpec(4, 0.5, 100.0))

    def test_input_too_short(self):
        with pytest.raises(ValueError, match="input too short"):
            butterworth_bandpass(ts(np.zeros(11)))

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="invalid cutoff"):
            BandpassSpec(4, 8.0, 0.5)
        with pytest.raises(ValueError):
            BandpassSpec(0, 0.5, 8.0)

    def test_one_row_only(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            bandpass_array(np.zeros((2, 4000)), FS)

    def test_design_is_cached_read_only(self):
        design = _bandpass_filter(BandpassSpec(), FS)
        assert _bandpass_filter(BandpassSpec(), FS) is design
        for arr in vars(design).values():
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr.flat[0] = 0.0

    def test_output_metadata_preserved(self):
        x = TimeSeries(np.random.default_rng(1).standard_normal(4000), FS, start_time_s=2.0)
        y = butterworth_bandpass(x)
        assert len(y) == len(x)
        assert y.sample_rate_hz == FS
        assert y.start_time_s == 2.0

    @given(seed=st.integers(0, 10_000))
    def test_linearity(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(2000)
        y = rng.standard_normal(2000)
        a, b = rng.uniform(-3, 3, 2)
        lhs = butterworth_bandpass(ts(a * x + b * y)).samples
        rhs = a * butterworth_bandpass(ts(x)).samples + b * butterworth_bandpass(ts(y)).samples
        scale = max(np.abs(rhs).max(), 1e-12)
        assert np.abs(lhs - rhs).max() <= 1e-9 * scale

    def test_zero_phase_preserves_crossings(self):
        f = 2.0
        t = np.arange(int(60 * FS)) / FS
        x = np.sin(2 * np.pi * f * t)
        y = butterworth_bandpass(ts(x)).samples
        mid = slice(int(10.13 * FS), int(49.87 * FS))
        xc = np.where(np.diff(np.signbit(x[mid])))[0]
        yc = np.where(np.diff(np.signbit(y[mid])))[0]
        assert xc.size == yc.size
        assert np.abs(xc - yc).max() <= 1


class TestMedian:
    @given(
        values=st.lists(
            st.floats(-1e300, 1e300) | st.sampled_from([0.0, -0.0, 1.0]), min_size=1, max_size=60
        )
    )
    def test_bit_equal_to_np_median(self, values):
        # odd and even lengths, repeated values and signed zeros
        expected = np.median(np.array(values))
        got = median(np.array(values))
        assert got == expected and math.copysign(1.0, got) == math.copysign(1.0, expected)

    def test_even_length_averages_the_middle_pair(self):
        assert median(np.array([4.0, 1.0, 3.0, 2.0])) == 2.5
        assert median(np.array([0.1, 0.7, 0.3])) == 0.3


class TestNumpyFilterAgainstScipy:
    @pytest.mark.parametrize("order", range(1, 9))
    @pytest.mark.parametrize(
        "band, fs", [((0.5, 8.0), 200.0), ((0.5, 8.0), 17.0), ((1.0, 2.0), 50.0), ((0.7, 40.0), 100.0)]
    )
    def test_design_matches_butter(self, order, band, fs):
        # odd orders over a wide band carry a pair of real poles
        expected = butter(order, band, btype="bandpass", fs=fs, output="sos")
        assert_allclose(_bandpass_sos(BandpassSpec(order, *band), fs), expected, rtol=1e-12, atol=1e-15)

    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(24, 4000),
        order=st.integers(1, 6),
        offset=st.floats(-1e4, 1e4),
    )
    def test_matches_sosfiltfilt(self, seed, n, order, offset):
        spec = BandpassSpec(order, 0.5, 8.0)
        x = offset + np.cumsum(np.random.default_rng(seed).standard_normal(n))
        sos = butter(order, [0.5, 8.0], btype="bandpass", fs=FS, output="sos")
        padlen = _bandpass_padlen(spec, FS, n)
        expected = sosfiltfilt(sos, x, padtype="even", padlen=padlen)
        # both round at about eps times the input's size
        assert np.abs(bandpass_array(x, FS, spec) - expected).max() <= 1e-12 * np.abs(x).max()



def _impulse_response(order, fs, size=20_000):
    """scipy's one-pass impulse response of the band-pass design, and
    its full autocorrelation (lags -(size - 1) .. size - 1)."""
    impulse = np.zeros(size)
    impulse[0] = 1.0
    h = sosfilt(butter(order, [0.5, 8.0], btype="bandpass", fs=fs, output="sos"), impulse)
    return h, np.correlate(h, h, "full")


def _peak_to_peak(x):
    return x.max() - x.min()


def _two_center_row(g, n):
    """A row of +-1 that drives the output to about +||g||_1 at n / 4
    and -||g||_1 at 3n / 4: the sign pattern of the autocorrelation g
    centred on each, the second negated."""
    lag = np.arange(n) + (g.size // 2)
    row = np.zeros(n)
    for centre, sign, part in ((n // 4, 1.0, slice(0, n // 2)), (3 * n // 4, -1.0, slice(n // 2, n))):
        index = lag[part] - centre
        inside = (index >= 0) & (index < g.size)
        row[part][inside] = sign * np.sign(g[index[inside]])
    return row


class TestBandpassGain:
    """``bandpass_gain`` bounds the output's peak-to-peak by ``G`` times
    the row's. It is derived from ``_filtfilt_row``'s even extension and
    steady-state starts, so these fail if either changes without it."""

    # 12 000 and 4 000 samples are padded by 4 800; the shorter rows by
    # n - 1, so their bound carries more of the response's tail
    LENGTHS = (12_000, 4_000, 2_000, 600, 100)

    @pytest.mark.parametrize("n", LENGTHS)
    @pytest.mark.parametrize("order, fs", [(4, 200.0), (4, 50.0), (2, 200.0), (6, 200.0)])
    def test_matches_the_sums_of_scipys_response(self, n, order, fs):
        spec = BandpassSpec(order, 0.5, 8.0)
        h, g = _impulse_response(order, fs)
        padlen = _bandpass_padlen(spec, fs, n)
        expected = np.abs(g).sum() + 2.0 * np.abs(h).sum() * np.abs(h[padlen + 1 :]).sum()
        assert bandpass_gain(n, fs, spec) == pytest.approx(expected * (1.0 + signal_core.GAIN_SLACK), rel=1e-9)

    def test_default_design_values(self):
        h, _ = _impulse_response(4, FS)
        assert np.abs(h).sum() == pytest.approx(2.796, abs=5e-4)
        assert bandpass_gain(12_000, FS) == pytest.approx(2.478, abs=5e-4)

    def test_no_bound_for_a_response_too_long_to_sum(self):
        # a 0.1 mHz low cut (filter.low_hz) rings for far over 2**20
        # samples: nothing can be ruled out, and the input is still checked
        assert bandpass_gain(12_000, FS, BandpassSpec(4, 1e-4, 8.0)) == math.inf
        with pytest.raises(ValueError, match="invalid cutoff"):
            bandpass_gain(12_000, FS, BandpassSpec(4, 0.5, 100.0))
        with pytest.raises(ValueError, match="input too short"):
            bandpass_gain(11, FS)

    @pytest.mark.parametrize("n", LENGTHS)
    def test_bounds_random_and_adversarial_rows(self, n):
        gain = bandpass_gain(n, FS)
        rng = np.random.default_rng(n)
        rows = {
            "walk": 5.0 + np.cumsum(rng.standard_normal(n)),
            "noise": rng.standard_normal(n),
            "uniform": rng.uniform(-1.0, 1.0, n),
            # any leak of the offset through the filter would dwarf the
            # bound of this row's small spread
            "offset": 1e4 + rng.uniform(-1e-3, 1e-3, n),
            "adversarial": _two_center_row(_impulse_response(4, FS)[1], n),
        }
        margin = int(0.05 * n)  # radar.EDGE_FRACTION's trim
        for name, row in rows.items():
            out = bandpass_array(row, FS)
            assert _peak_to_peak(out) <= gain * _peak_to_peak(row), name
            if name == "adversarial" and n >= 2_000:
                # the bound is nearly tight: edge-trimmed, the row
                # reaches 97.7 % of it at 2 000 samples, 99.9999 % at 12 000
                core = out[margin : n - margin]
                assert _peak_to_peak(core) >= 0.95 * gain * _peak_to_peak(row), name

    @pytest.mark.parametrize("n", [40, 600, 2_000])
    def test_bounds_the_worst_row_of_a_short_record(self, n):
        # The filter is linear and maps a flat row to zeros, so output
        # sample t is w_t . (x - c) for any constant c, and the worst
        # row for it, sign(w_t), sends it to ||w_t||_1 with a
        # peak-to-peak of 2: the bound holds exactly when every
        # ||w_t||_1 is at most G. Rows padded by n - 1 read the
        # extension and the start states the most. At 2 000 samples
        # the largest ||w_t||_1 is 0.99993 G, at the last sample; an
        # odd extension would lift it to 1.02 G.
        weights = np.array([bandpass_array(unit, FS) for unit in np.eye(n)])
        assert np.abs(weights).sum(axis=0).max() <= bandpass_gain(n, FS)


CHUNK_SAMPLES = FILTER_BLOCK * FILTER_CHUNK
SLAB_SAMPLES = CHUNK_SAMPLES * FILTER_SLAB
# block, chunk and slab edges, a slab and a chunk (a padded last
# slab), and two slabs; each with its neighbours
EDGES = (FILTER_BLOCK, CHUNK_SAMPLES, SLAB_SAMPLES, SLAB_SAMPLES + CHUNK_SAMPLES, 2 * SLAB_SAMPLES)
EDGE_SIZES = sorted({edge + d for edge in EDGES for d in (-1, 0, 1)})


def one_product_into(f, x, z0, out):
    """``block_pass_one_product`` with ``_block_pass``'s signature: the
    one-product result, taken from ``x`` before ``out`` is written."""
    out[:] = block_pass_one_product(f, x, z0)
    return out


class TestSlabbedFilterBits:
    """The slab-stacked products give the bits of one product per stage
    over the whole row."""

    @pytest.mark.parametrize("order", [1, 4, 6])
    @pytest.mark.parametrize("size", EDGE_SIZES)
    def test_block_pass_matches_one_product(self, size, order):
        f = _bandpass_filter(BandpassSpec(order, 0.5, 8.0), FS)
        x = np.cumsum(np.random.default_rng(size).standard_normal(size))
        z0 = f.zi * x[0]
        assert np.array_equal(_block_pass(f, x, z0, np.empty_like(x)), block_pass_one_product(f, x, z0))

    @pytest.mark.parametrize("order", [1, 4, 6])
    @pytest.mark.parametrize("size", EDGE_SIZES)
    def test_block_pass_in_place_matches_one_product(self, size, order):
        # over the row itself, and over its reversed view, as the
        # backward pass runs
        f = _bandpass_filter(BandpassSpec(order, 0.5, 8.0), FS)
        x = np.cumsum(np.random.default_rng(size).standard_normal(size))
        z0 = f.zi * x[0]
        row = x.copy()
        assert _block_pass(f, row, z0, row) is row
        assert np.array_equal(row, block_pass_one_product(f, x, z0))
        back = x.copy()[::-1]
        _block_pass(f, back, z0, back)
        assert np.array_equal(back, block_pass_one_product(f, x[::-1], z0))

    @pytest.mark.parametrize("size", [12, *EDGE_SIZES, 12_000, 240_000])
    def test_bandpass_array_matches_one_product(self, size, monkeypatch):
        x = 3.0 + np.cumsum(np.random.default_rng(size).standard_normal(size))
        slabbed = bandpass_array(x, FS)
        monkeypatch.setattr(signal_core, "_block_pass", one_product_into)
        assert np.array_equal(slabbed, bandpass_array(x, FS))

    def test_bandpass_array_traced_peak_is_the_extension(self):
        # a 240 k row (20 min at 200 Hz) is filtered in its even
        # extension alone: one slab's buffer and products on top
        x = np.cumsum(np.random.default_rng(7).standard_normal(240_000))
        bandpass_array(x, FS)  # the design is cached
        extension = (x.size + 2 * _bandpass_padlen(BandpassSpec(), FS, x.size)) * 8
        tracemalloc.start()
        try:
            bandpass_array(x, FS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= extension + 256 * 1024


class TestRangeFft:
    def test_zero_chirp(self):
        assert_allclose(np.abs(range_fft(np.zeros(64))), 0.0)

    def test_cosine_bin(self):
        n = np.arange(64)
        spec = range_fft(np.cos(2 * np.pi * 7 * n / 64))
        mags = np.abs(spec)
        assert_allclose(mags[7], 32.0, atol=1e-9)
        others = np.delete(mags, 7)
        assert others.max() < 1e-9
        assert_allclose(spec, brute_dft_onesided(np.cos(2 * np.pi * 7 * n / 64)), atol=1e-9)

    def test_impulse_flat(self):
        x = np.zeros(64)
        x[0] = 1.0
        assert_allclose(np.abs(range_fft(x)), 1.0, atol=1e-12)

    def test_too_short(self):
        with pytest.raises(ValueError):
            range_fft(np.array([1.0]))

    @given(
        x=arrays(
            np.float64,
            st.integers(2, 128),
            elements=st.floats(-100, 100, allow_nan=False),
        )
    )
    def test_parseval(self, x):
        spec = range_fft(x)
        n = x.size
        power = np.abs(spec[0]) ** 2 + np.abs(spec[-1]) ** 2 * (1 if n % 2 == 0 else 2)
        if n % 2 == 0:
            power += 2 * np.sum(np.abs(spec[1:-1]) ** 2)
        else:
            power = np.abs(spec[0]) ** 2 + 2 * np.sum(np.abs(spec[1:]) ** 2)
        time_energy = np.sum(x * x)
        assert_allclose(power / n, time_energy, rtol=1e-9, atol=1e-9)


class TestResampleLinear:
    def test_midpoint(self):
        assert_allclose(resample_linear(ts([0.0, 1.0]), 3), [0.0, 0.5, 1.0])

    def test_identity_length(self):
        x = np.random.default_rng(2).standard_normal(37)
        assert_allclose(resample_linear(ts(x), 37), x, atol=1e-12)

    def test_ramp_arithmetic(self):
        out = resample_linear(ts(np.arange(10.0)), 19)
        assert_allclose(np.diff(out), 9.0 / 18.0, atol=1e-12)

    def test_too_short(self):
        with pytest.raises(ValueError):
            resample_linear(ts([1.0]), 5)
        with pytest.raises(ValueError):
            resample_linear(ts([1.0, 2.0]), 1)

    @given(
        x=arrays(
            np.float64,
            st.integers(2, 100),
            elements=st.floats(-1000, 1000, allow_nan=False),
        ),
        target=st.integers(2, 300),
    )
    def test_monotone_preserves_extremes(self, x, target):
        x = np.sort(x)
        out = resample_linear(ts(x), target)
        assert_allclose(out.min(), x.min(), atol=1e-9)
        assert_allclose(out.max(), x.max(), atol=1e-9)
        assert out[0] == x[0] and out[-1] == x[-1]
