"""OLS regression with inference statistics."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro.analysis.regression import ols
from repro.exceptions import FittingError


def design_with_intercept(x: np.ndarray) -> np.ndarray:
    return np.column_stack([np.ones_like(x), x])


class TestBasicFit:
    def test_exact_line(self):
        x = np.linspace(0, 10, 20)
        y = 3.0 + 2.0 * x
        result = ols(design_with_intercept(x), y, names=("intercept", "slope"))
        assert result.coefficient("intercept") == pytest.approx(3.0)
        assert result.coefficient("slope") == pytest.approx(2.0)
        assert result.r_squared == pytest.approx(1.0)

    def test_matches_scipy_linregress(self):
        rng = np.random.default_rng(42)
        x = rng.uniform(0, 10, 50)
        y = 1.5 + 0.7 * x + rng.normal(0, 0.3, 50)
        ours = ols(design_with_intercept(x), y, names=("intercept", "slope"))
        theirs = scipy_stats.linregress(x, y)
        assert ours.coefficient("slope") == pytest.approx(theirs.slope)
        assert ours.coefficient("intercept") == pytest.approx(theirs.intercept)
        assert ours.std_errors[1] == pytest.approx(theirs.stderr)
        assert ours.p_values[1] == pytest.approx(theirs.pvalue, rel=1e-6)
        assert ours.r_squared == pytest.approx(theirs.rvalue**2)

    def test_multivariate(self):
        rng = np.random.default_rng(1)
        X = np.column_stack(
            [np.ones(100), rng.uniform(0, 1, 100), rng.uniform(0, 1, 100)]
        )
        beta = np.array([2.0, -1.0, 0.5])
        y = X @ beta
        result = ols(X, y)
        assert result.coefficients == pytest.approx(beta)
        assert np.all(result.p_values < 1e-10)

    def test_residuals(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        y = np.array([0.0, 1.0, 2.0, 4.0])
        result = ols(design_with_intercept(x), y)
        assert result.residuals == pytest.approx(y - (x * 1.3 - 0.2), abs=1e-9)

    def test_dof(self):
        x = np.linspace(0, 1, 10)
        result = ols(design_with_intercept(x), x)
        assert result.dof == 8


class TestDiagnostics:
    def test_summary_contains_names(self):
        x = np.linspace(0, 1, 10)
        result = ols(design_with_intercept(x), 2 * x, names=("a", "b"))
        text = result.summary()
        assert "a" in text and "b" in text and "R^2" in text

    def test_coefficient_lookup_unknown(self):
        x = np.linspace(0, 1, 10)
        result = ols(design_with_intercept(x), x, names=("a", "b"))
        with pytest.raises(KeyError):
            result.coefficient("missing")

    def test_p_value_lookup(self):
        x = np.linspace(0, 1, 10)
        result = ols(design_with_intercept(x), 5 * x, names=("a", "b"))
        assert result.p_value("b") < 1e-10


class TestPValueIdentity:
    """``ols`` p-values are ``2·scipy.stats.t.sf(|t|, dof)`` bit for bit.

    They are computed with ``scipy.special.stdtr`` (the routine
    ``t.sf`` calls) so that fitting never imports ``scipy.stats``.
    """

    @staticmethod
    def assert_identical(result):
        expected = 2.0 * scipy_stats.t.sf(np.abs(result.t_values), result.dof)
        assert result.p_values.dtype == expected.dtype
        assert result.p_values.tobytes() == np.asarray(expected).tobytes()

    def test_zero_std_error_gives_infinite_t(self):
        result = ols(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]), np.array([3.0, -2.0, 0.0]))
        assert list(result.std_errors) == [0.0, 0.0]
        assert list(result.t_values) == [np.inf, -np.inf]
        self.assert_identical(result)

    def test_zero_t(self):
        result = ols(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]), np.array([0.0, 3.0, 1.0]))
        assert result.t_values[0] == 0.0 and result.std_errors[0] > 0
        assert result.p_values[0] == 1.0
        self.assert_identical(result)

    @pytest.mark.parametrize("dof", [1, 2, 30, 10_000])
    def test_noisy_fit(self, dof):
        rng = np.random.default_rng(dof)
        x = rng.uniform(0, 10, dof + 3)
        X = np.column_stack([np.ones_like(x), x, rng.uniform(0, 1, x.size)])
        y = 1.5 + 0.01 * x + rng.normal(0, 0.3, x.size)
        result = ols(X, y)
        assert result.dof == dof
        self.assert_identical(result)


class TestFailureModes:
    def test_rank_deficient(self):
        x = np.linspace(0, 1, 10)
        X = np.column_stack([x, 2 * x])  # collinear
        with pytest.raises(FittingError, match="rank"):
            ols(X, x)

    def test_too_few_rows(self):
        X = np.ones((2, 3))
        with pytest.raises(FittingError, match="more observations"):
            ols(X, np.ones(2))

    def test_shape_mismatch(self):
        with pytest.raises(FittingError):
            ols(np.ones((5, 2)), np.ones(4))

    def test_one_dimensional_design_rejected(self):
        with pytest.raises(FittingError):
            ols(np.ones(5), np.ones(5))

    def test_non_finite_rejected(self):
        X = np.ones((5, 1))
        y = np.array([1.0, 2.0, np.nan, 4.0, 5.0])
        with pytest.raises(FittingError, match="finite"):
            ols(X, y)

    def test_wrong_name_count(self):
        x = np.linspace(0, 1, 10)
        with pytest.raises(FittingError, match="names"):
            ols(design_with_intercept(x), x, names=("only-one",))
