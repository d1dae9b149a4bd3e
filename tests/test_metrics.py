import math

import numpy as np
import pytest

from mosr.metrics import (
    accuracy_report,
    fit_linear_scaling,
    make_pearson_r2,
    nmse,
    pearson_r2,
    scaled_nmse,
)


def _reference_pearson_r2(pred, actual) -> float:
    """Unprepared R^2: every step on every call, in the library's order."""
    p = np.asarray(pred, dtype=float)
    a = np.asarray(actual, dtype=float)
    if not (np.isfinite(p).all() and np.isfinite(a).all()):
        return 0.0
    with np.errstate(all="ignore"):
        p_centered = p - p.mean()
        a_centered = a - a.mean()
        p_scale = float(np.abs(p_centered).max())
        a_scale = float(np.abs(a_centered).max())
    if not (0.0 < p_scale < math.inf and 0.0 < a_scale < math.inf):
        return 0.0
    pn = p_centered / p_scale
    an = a_centered / a_scale

    def dot(u, v):  # numpy's own summation, as the library's, not BLAS
        return float(np.einsum("i,i->", u, v))

    cov = dot(pn, an)
    return min(cov * cov / (dot(pn, pn) * dot(an, an)), 1.0)


def _vectors(rng, n):
    """Random, constant, non-finite and huge-magnitude vectors of length n."""
    yield rng.normal(size=n)
    yield rng.uniform(-1e6, 1e6, size=n)
    yield np.full(n, 3.25)
    yield np.where(rng.random(n) < 0.5, 1e300, -1e300)
    yield rng.normal(size=n) * 1e300
    for bad in (math.nan, math.inf, -math.inf):
        v = rng.normal(size=n)
        v[rng.integers(n)] = bad
        yield v


class TestPearsonR2:
    def test_perfect_positive_relation(self):
        assert pearson_r2([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_correlation_is_squared(self):
        assert pearson_r2([3, 2, 1], [2, 4, 6]) == pytest.approx(1.0)

    def test_zero_variance_convention(self):
        assert pearson_r2([5, 5, 5], [1, 2, 3]) == 0.0
        assert pearson_r2([1, 2, 3], [7, 7, 7]) == 0.0

    def test_nonfinite_convention(self):
        assert pearson_r2([1, math.inf, 3], [1, 2, 3]) == 0.0
        assert pearson_r2([1, math.nan, 3], [1, 2, 3]) == 0.0

    def test_finite_values_whose_sum_overflows(self):
        # centering overflows double precision: degenerate, never NaN
        pred = [1.7e308, 1.7e308, -1.0e308, 5.0]
        actual = [1.0, 2.0, 3.0, 4.0]
        assert pearson_r2(pred, actual) == 0.0
        slope, intercept = fit_linear_scaling(pred, actual)
        assert (slope, intercept) == (0.0, 2.5)
        assert scaled_nmse(pred, actual, slope, intercept) == pytest.approx(1.0)

    def test_usage_errors(self):
        cases = [
            ([1, 2], [1, 2, 3], "length mismatch"),
            ([1, 2, 3], [], "length mismatch"),
            ([], [], "empty vectors"),
            ([[1, 2]], [1, 2], "1-d"),
            ([1, 2], [[1, 2]], "1-d"),
        ]
        for pred, actual, message in cases:
            with pytest.raises(ValueError, match=message):
                pearson_r2(pred, actual)
            with pytest.raises(ValueError, match=message):
                make_pearson_r2(actual)(pred)

    def test_affine_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            pred = rng.normal(size=40)
            actual = rng.normal(size=40)
            base = pearson_r2(pred, actual)
            a = rng.uniform(0.1, 5) * (1 if rng.random() < 0.5 else -1)
            b = rng.uniform(-10, 10)
            assert pearson_r2(a * pred + b, actual) == pytest.approx(base, abs=1e-12)

    def test_prepared_matches_reference_bit_for_bit(self):
        rng = np.random.default_rng(4)
        for n in (1, 2, 7, 300):
            targets = list(_vectors(rng, n))
            preds = list(_vectors(rng, n)) + [t.copy() for t in targets] + [-2.0 * targets[0]]
            for actual in targets:
                r2 = make_pearson_r2(actual)  # one target, many predictions
                for pred in preds:
                    want = _reference_pearson_r2(pred, actual).hex()
                    assert r2(pred).hex() == want
                    assert pearson_r2(pred, actual).hex() == want

    def test_range_clamped(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            v = rng.normal(size=10)
            r2 = pearson_r2(v, 2.0 * v + 1.0)
            assert 0.0 <= r2 <= 1.0


class TestNmse:
    def test_exact_prediction_is_zero(self):
        assert nmse([1, 2, 3], [1, 2, 3]) == 0.0

    def test_mean_predictor_is_one(self):
        actual = np.array([1.0, 2.0, 3.0, 4.0])
        pred = np.full(4, actual.mean())
        assert nmse(pred, actual) == pytest.approx(1.0, abs=1e-12)

    def test_hand_computed_value(self):
        # MSE 2/3 over population variance 2/3
        assert nmse([2, 2, 2], [1, 2, 3]) == pytest.approx(1.0)

    def test_nonfinite_predictions_are_inf(self):
        assert nmse([1, math.inf, 3], [1, 2, 3]) == math.inf
        assert nmse([1, math.nan, 3], [1, 2, 3]) == math.inf

    def test_zero_variance_target_is_error(self):
        with pytest.raises(ValueError, match="zero-variance"):
            nmse([1, 2, 3], [5, 5, 5])

    def test_shift_both_by_constant(self):
        # variance normalization uses the actual values, so a common shift
        # leaves both numerator and denominator unchanged
        pred = np.array([1.0, 3.0, 2.0])
        actual = np.array([2.0, 2.5, 1.0])
        assert nmse(pred + 7.0, actual + 7.0) == pytest.approx(nmse(pred, actual))


class TestLinearScaling:
    def test_identity_fit(self):
        actual = np.array([1.0, 2.0, 3.0])
        slope, intercept = fit_linear_scaling(actual, actual)
        assert slope == pytest.approx(1.0)
        assert intercept == pytest.approx(0.0, abs=1e-12)

    def test_double_scale_fit(self):
        actual = np.array([1.0, 2.0, 3.0])
        slope, intercept = fit_linear_scaling(2.0 * actual, actual)
        assert slope == pytest.approx(0.5)
        assert intercept == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_prediction(self):
        slope, intercept = fit_linear_scaling([4.0, 4.0, 4.0], [1.0, 2.0, 3.0])
        assert slope == 0.0
        assert intercept == pytest.approx(2.0)

    def test_scaled_nmse_with_identity_scaling_equals_nmse(self):
        pred = np.array([1.0, 2.0, 2.5])
        actual = np.array([1.5, 2.0, 3.0])
        assert scaled_nmse(pred, actual, 1.0, 0.0) == pytest.approx(nmse(pred, actual))

    def test_degenerate_fit_gives_mean_predictor(self):
        pred = np.array([4.0, 4.0, 4.0])
        actual = np.array([1.0, 2.0, 3.0])
        slope, intercept = fit_linear_scaling(pred, actual)
        assert scaled_nmse(pred, actual, slope, intercept) == pytest.approx(1.0)

    def test_ols_identity_on_random_pairs(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(5, 200))
            pred = rng.normal(scale=rng.uniform(0.5, 10), size=n)
            actual = rng.normal(scale=rng.uniform(0.5, 10), size=n) + 0.3 * pred
            slope, intercept = fit_linear_scaling(pred, actual)
            lhs = scaled_nmse(pred, actual, slope, intercept)
            rhs = 1.0 - pearson_r2(pred, actual)
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_nonfinite_pred_scaled_nmse_is_inf(self):
        pred = np.array([1.0, math.inf, 2.0])
        actual = np.array([1.0, 2.0, 3.0])
        slope, intercept = fit_linear_scaling(pred, actual)
        assert (slope, intercept) == (0.0, 2.0)
        assert scaled_nmse(pred, actual, slope, intercept) == math.inf


class TestAccuracyReport:
    def test_report_fields_consistent(self):
        rng = np.random.default_rng(3)
        pred = rng.normal(size=30)
        actual = 2.0 * pred + rng.normal(scale=0.1, size=30)
        report = accuracy_report(pred, actual)
        assert report.nmse_scaled == pytest.approx(1.0 - report.r2, abs=1e-9)
        assert report.nmse_scaled <= report.nmse_raw + 1e-12
        assert report.slope == pytest.approx(2.0, abs=0.1)

    def test_scaled_never_exceeds_raw_on_fit_rows(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            pred = rng.normal(size=25)
            actual = rng.normal(size=25)
            report = accuracy_report(pred, actual)
            assert report.nmse_scaled <= report.nmse_raw + 1e-12
