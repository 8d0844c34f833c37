import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from pulsecmp.metrics import (
    BeatTable,
    auc_normalized,
    bland_altman,
    compare_modalities,
    cosine_similarity,
    count_inflections,
    map_from_bp,
    morphology_metrics,
    paired_t_test,
    regularized_incomplete_beta,
)

from oracles import (
    compare_copied_tables,
    count_extrema_dense,
    count_inflections_convolved,
    t_two_sided_p_quadrature,
    three_bump_wave,
)


def make_table(rows):
    shapes = np.array(rows, dtype=float)
    extrema = count_inflections(shapes).astype(float)
    return BeatTable(np.arange(len(shapes)), shapes, extrema, auc_normalized(shapes))


def compare_tables(ref, test):
    """``compare_modalities`` pairing row k of each table."""
    return compare_modalities(ref, test, np.arange(len(ref)), np.arange(len(test)))


class TestMapFromBp:
    def test_textbook_values(self):
        assert_allclose(map_from_bp(120.0, 80.0), 80.0 + 40.0 / 3.0, atol=1e-9)

    def test_continuity_boundary(self):
        assert_allclose(map_from_bp(83.0, 80.0), 81.0, atol=1e-12)

    def test_high_range(self):
        assert_allclose(map_from_bp(151.0, 93.0), 93.0 + 58.0 / 3.0, atol=1e-9)

    def test_invalid(self):
        with pytest.raises(ValueError, match="invalid pressures"):
            map_from_bp(80.0, 80.0)
        with pytest.raises(ValueError, match="invalid pressures"):
            map_from_bp(120.0, -1.0)


class TestBlandAltman:
    def test_self_agreement(self):
        a = np.array([900.0, 1000.0, 1100.0])
        ba = bland_altman(a, a)
        assert ba.bias == 0.0 and ba.sd == 0.0
        assert ba.loa_low == 0.0 and ba.loa_high == 0.0

    def test_hand_computed(self):
        ba = bland_altman(
            np.array([1000.0, 1010.0, 990.0]), np.array([1005.0, 1000.0, 995.0])
        )
        assert_allclose(ba.bias, 0.0, atol=1e-9)
        assert_allclose(ba.sd, math.sqrt(75.0), atol=1e-9)
        assert_allclose(ba.loa_low, -2.0 * math.sqrt(75.0), atol=1e-9)
        assert_allclose(ba.loa_high, 2.0 * math.sqrt(75.0), atol=1e-9)
        assert_allclose([p[1] for p in ba.points], [-5.0, 10.0, -5.0])

    def test_monte_carlo_recovery(self):
        rng = np.random.default_rng(123)
        b = rng.normal(1000.0, 40.0, 1500)
        a = b + rng.normal(2.0, 10.0, 1500)
        ba = bland_altman(a, b)
        assert abs(ba.bias - 2.0) < 1.0
        assert abs(ba.sd - 10.0) < 1.0

    def test_length_errors(self):
        with pytest.raises(ValueError):
            bland_altman(np.array([1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            bland_altman(np.array([1.0, 2.0]), np.array([1.0]))

    @given(
        a=arrays(np.float64, st.integers(2, 50), elements=st.floats(-1e3, 1e3)),
    )
    def test_self_is_exactly_zero(self, a):
        ba = bland_altman(a, a)
        assert ba.bias == 0.0 and ba.sd == 0.0 and ba.loa_low == 0.0 and ba.loa_high == 0.0

    @given(
        ab=st.tuples(
            arrays(np.float64, 20, elements=st.floats(-1e3, 1e3)),
            arrays(np.float64, 20, elements=st.floats(-1e3, 1e3)),
        )
    )
    def test_antisymmetry(self, ab):
        a, b = ab
        fwd = bland_altman(a, b)
        rev = bland_altman(b, a)
        assert_allclose(fwd.bias, -rev.bias, atol=1e-9)
        assert_allclose(fwd.sd, rev.sd, atol=1e-9)


class TestCountInflections:
    def test_single_bump(self):
        u = np.linspace(0, 1, 200)
        beat = np.exp(-(((u - 0.5) / 0.1) ** 2))
        assert count_inflections(beat) == 1

    def test_two_bumps(self):
        u = np.linspace(0, 1, 200)
        beat = np.exp(-0.5 * ((u - 0.3) / 0.07) ** 2) + np.exp(-0.5 * ((u - 0.7) / 0.07) ** 2)
        expected = count_extrema_dense(
            lambda v: np.exp(-0.5 * ((v - 0.3) / 0.07) ** 2)
            + np.exp(-0.5 * ((v - 0.7) / 0.07) ** 2)
        )
        assert expected == 3
        assert count_inflections(beat) == 3

    def test_constant(self):
        assert count_inflections(np.ones(50)) == 0

    def test_too_short(self):
        with pytest.raises(ValueError):
            count_inflections(np.ones(5))

    def test_default_pulse_shape(self):
        u = np.linspace(0, 1, 200)
        beat = three_bump_wave(u)
        assert count_extrema_dense(three_bump_wave) == 5
        assert count_inflections(beat) == 5

    @given(
        seed=st.integers(0, 2000),
        a=st.floats(0.1, 10.0),
        b=st.floats(-100.0, 100.0),
    )
    def test_affine_invariance(self, seed, a, b):
        rng = np.random.default_rng(seed)
        u = np.linspace(0, 1, 120)
        beat = np.cumsum(rng.standard_normal(120)) * 0.1
        beat += np.sin(2 * np.pi * u)
        assert count_inflections(beat) == count_inflections(a * beat + b)


class TestAucNormalized:
    def test_constant_one(self):
        assert_allclose(auc_normalized(np.ones(100)), 1.0, atol=1e-12)

    def test_ramp(self):
        assert_allclose(auc_normalized(np.linspace(0, 1, 100)), 0.5, atol=1e-12)

    def test_half_sine(self):
        beat = np.sin(np.pi * np.linspace(0, 1, 200))
        assert_allclose(auc_normalized(beat), 2.0 / math.pi, atol=1e-4)

    @given(beat=arrays(np.float64, st.integers(2, 200), elements=st.floats(0.0, 1.0)))
    def test_complement(self, beat):
        assert_allclose(
            auc_normalized(1.0 - beat), 1.0 - auc_normalized(beat), atol=1e-12
        )


class TestCosineSimilarity:
    def test_identical(self):
        v = np.array([0.3, 0.9, 0.1])
        assert_allclose(cosine_similarity(v, v), 1.0, atol=1e-12)

    def test_orthogonal(self):
        assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_hand_computed(self):
        # dot([1,2,3],[2,4,7]) = 31; norms sqrt(14), sqrt(69)
        expected = 31.0 / math.sqrt(14.0 * 69.0)
        assert_allclose(cosine_similarity([1, 2, 3], [2, 4, 7]), expected, atol=1e-12)

    def test_zero_norm(self):
        with pytest.raises(ValueError, match="zero-norm"):
            cosine_similarity([0.0, 0.0], [1.0, 2.0])

    @given(
        v=arrays(np.float64, 16, elements=st.floats(-100, 100)),
        scale=st.floats(1e-3, 1e3),
    )
    def test_scale_invariance(self, v, scale):
        u = v + 1.0  # keep nonzero
        if np.linalg.norm(u) == 0 or np.linalg.norm(v) == 0:
            return
        assert_allclose(
            cosine_similarity(scale * u, v), cosine_similarity(u, v), atol=1e-9
        )


class TestPairedTTest:
    def test_zero_mean(self):
        t, p = paired_t_test(np.array([-1.0, 1.0]))
        assert t == 0.0 and p == 1.0

    def test_zero_variance(self):
        with pytest.raises(ValueError, match="zero variance"):
            paired_t_test(np.array([1.0, 1.0, 1.0, 1.0]))

    def test_all_zero_convention(self):
        t, p = paired_t_test(np.zeros(4))
        assert t == 0.0 and p == 1.0

    def test_hand_computed(self):
        t, p = paired_t_test(np.array([2.0, 4.0, 6.0, 8.0]))
        expected_t = 5.0 / (math.sqrt(20.0 / 3.0) / 2.0)
        assert_allclose(t, expected_t, atol=1e-9)
        assert_allclose(p, 0.0305, atol=1e-3)
        assert_allclose(p, t_two_sided_p_quadrature(expected_t, 3), atol=1e-8)

    def test_against_scipy(self):
        from scipy import stats

        rng = np.random.default_rng(5)
        for n in (3, 5, 12, 40):
            diffs = rng.normal(0.3, 1.0, n)
            t, p = paired_t_test(diffs)
            ref = stats.ttest_1samp(diffs, 0.0)
            assert_allclose(t, ref.statistic, atol=1e-10)
            assert_allclose(p, ref.pvalue, atol=1e-8)

    def test_beta_function_accuracy(self):
        from scipy import special

        rng = np.random.default_rng(6)
        for _ in range(200):
            a = rng.uniform(0.5, 30.0)
            b = rng.uniform(0.5, 30.0)
            x = rng.uniform(0.0, 1.0)
            assert_allclose(
                regularized_incomplete_beta(a, b, x), special.betainc(a, b, x), atol=1e-8
            )

    def test_p_monotone_in_mean(self):
        last = 1.1
        for mean in (0.0, 0.5, 1.0, 2.0, 4.0):
            diffs = mean + np.array([-1.0, -0.5, 0.5, 1.0])
            _, p = paired_t_test(diffs)
            assert p < last or (p == 1.0 and mean == 0.0)
            last = p

    def test_short_input(self):
        with pytest.raises(ValueError):
            paired_t_test(np.array([1.0]))


class TestCompareModalities:
    def test_identical_beats(self):
        u = np.linspace(0, 1, 200)
        shape = three_bump_wave(u)
        normalized = (shape - shape.min()) / (shape.max() - shape.min())
        beats = make_table([normalized] * 5)
        cmp = compare_tables(beats, beats)
        assert cmp.mean_diff_inflections == 0.0
        assert cmp.mean_diff_auc == 0.0
        assert cmp.cosine_mean == 1.0
        assert cmp.p_inflections == 1.0 and cmp.p_auc == 1.0

    def test_slow_decay_inflates_auc(self):
        u = np.linspace(0, 1, 200)
        shape = three_bump_wave(u)
        ref = (shape - shape.min()) / (shape.max() - shape.min())
        kernel = np.exp(-np.arange(60) / 20.0)
        kernel /= kernel.sum()
        rng = np.random.default_rng(0)
        ref_beats, ppg_beats = [], []
        for _ in range(10):
            jittered = ref + 0.002 * rng.standard_normal(200)
            smeared = np.convolve(jittered, kernel)[:200]
            ref_beats.append((jittered - jittered.min()) / np.ptp(jittered))
            ppg_beats.append((smeared - smeared.min()) / np.ptp(smeared))
        cmp = compare_tables(make_table(ref_beats), make_table(ppg_beats))
        assert cmp.mean_diff_auc > 0.0  # slow decay raises the test AUC
        assert cmp.cosine_mean < 1.0

    def test_small_noise_high_cosine(self):
        u = np.linspace(0, 1, 200)
        shape = three_bump_wave(u)
        ref = (shape - shape.min()) / (shape.max() - shape.min())
        rng = np.random.default_rng(1)
        ref_beats, radar_beats = [], []
        for _ in range(10):
            noisy = ref + 0.01 * rng.standard_normal(200)
            ref_beats.append(ref)
            radar_beats.append((noisy - noisy.min()) / np.ptp(noisy))
        cmp = compare_tables(make_table(ref_beats), make_table(radar_beats))
        assert cmp.cosine_mean >= 0.95
        assert abs(cmp.mean_diff_auc) <= 0.05

    def test_morphology_metrics_summary(self):
        u = np.linspace(0, 1, 200)
        shape = three_bump_wave(u)
        normalized = (shape - shape.min()) / (shape.max() - shape.min())
        metrics = morphology_metrics(make_table([normalized] * 4))
        assert metrics.inflection_count_mean == 5.0
        assert metrics.inflection_count_sd == 0.0
        assert 0.0 <= metrics.auc_mean <= 1.0

    def test_table_measures_each_row_once(self):
        rng = np.random.default_rng(3)
        rows = rng.uniform(0.0, 1.0, (6, 50))
        table = make_table(rows)
        assert table.extrema.tolist() == [count_inflections(r) for r in rows]
        assert table.auc.tolist() == [auc_normalized(r) for r in rows]
        picked = table.rows(np.array([4, 1]))
        assert picked.feet.tolist() == [4, 1]
        assert np.array_equal(picked.shapes, rows[[4, 1]])
        assert picked.auc.tolist() == [table.auc[4], table.auc[1]]

    @given(
        table=st.integers(7, 40).flatmap(
            lambda n: arrays(
                np.float64,
                st.tuples(st.integers(0, 9), st.just(n)),
                elements=st.floats(-1e6, 1e6, allow_subnormal=False),
            )
        ),
        flat=st.lists(st.booleans(), min_size=9, max_size=9),
    )
    def test_table_calls_equal_row_calls(self, table, flat):
        table[np.array(flat[: len(table)], dtype=bool)] = 2.5
        counts, areas = count_inflections(table), auc_normalized(table)
        assert counts.shape == areas.shape == (len(table),)
        assert counts.tolist() == [count_inflections(row) for row in table]
        assert counts.tolist() == [count_inflections_convolved(row) for row in table]
        assert areas.tolist() == [auc_normalized(row) for row in table]
        u, v = table + 3.0, table[::-1] - 1.0
        if np.all(np.vecdot(u, u) > 0) and np.all(np.vecdot(v, v) > 0):
            cosines = cosine_similarity(u, v)
            assert cosines.tolist() == [cosine_similarity(a, b) for a, b in zip(u, v)]

    def test_unpaired_tables_rejected(self):
        rows = np.tile(np.linspace(0.0, 1.0, 20), (3, 1))
        with pytest.raises(ValueError, match="paired"):
            compare_tables(make_table(rows), make_table(rows[:2]))
        with pytest.raises(ValueError, match="two beat pairs"):
            compare_tables(make_table(rows[:1]), make_table(rows[:1]))

    @pytest.mark.parametrize("n_pairs", [2, 127, 128, 129, 300])
    def test_rows_by_index_equal_picked_tables(self, n_pairs):
        # pairs read by index, a block of rows at a time, give the bits
        # of one pass over the copied paired tables
        rng = np.random.default_rng(n_pairs)
        ref = make_table(rng.uniform(0.0, 1.0, (400, 40)))
        test = make_table(rng.uniform(0.0, 1.0, (350, 40)))
        i = np.sort(rng.choice(400, n_pairs, replace=False))
        j = np.sort(rng.choice(350, n_pairs, replace=False))
        assert compare_modalities(ref, test, i, j) == compare_copied_tables(ref.rows(i), test.rows(j))
