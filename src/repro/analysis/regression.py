"""Ordinary least squares with the inference statistics the paper reports.

The paper fits eq. (9) "using the standard regression routine in R" and
reports (footnote 8) R² near unity at p-values below 1e-14.  This module
provides an equivalent: OLS via :func:`numpy.linalg.lstsq` plus standard
errors, t statistics, two-sided p-values (Student's t survival function
via :func:`scipy.special.stdtr`, the routine ``scipy.stats.t.sf`` calls,
so the values are the same bits without importing ``scipy.stats``), and R².
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import stdtr as _stdtr

from repro.exceptions import FittingError

__all__ = ["OLSResult", "ols"]


@dataclass(frozen=True)
class OLSResult:
    """Result of an ordinary-least-squares fit ``y ≈ X @ beta``.

    Attributes
    ----------
    coefficients:
        Fitted ``beta`` (length = number of regressors).
    std_errors:
        Standard error of each coefficient.
    t_values, p_values:
        Per-coefficient t statistics and two-sided p-values under the
        usual normal-errors assumptions.
    r_squared, adjusted_r_squared:
        Goodness of fit.
    residuals:
        ``y − X @ beta``.
    dof:
        Residual degrees of freedom (n − k).
    names:
        Regressor labels, parallel to ``coefficients``.
    """

    coefficients: np.ndarray
    std_errors: np.ndarray
    t_values: np.ndarray
    p_values: np.ndarray
    r_squared: float
    adjusted_r_squared: float
    residuals: np.ndarray
    dof: int
    names: tuple[str, ...]

    def coefficient(self, name: str) -> float:
        """Look up a coefficient by regressor name."""
        try:
            idx = self.names.index(name)
        except ValueError as exc:
            raise KeyError(f"no regressor named {name!r}; have {self.names}") from exc
        return float(self.coefficients[idx])

    def p_value(self, name: str) -> float:
        """Look up a p-value by regressor name."""
        idx = self.names.index(name)
        return float(self.p_values[idx])

    def summary(self) -> str:
        """R-style text summary of the fit."""
        lines = [
            f"OLS fit: n={len(self.residuals)}, k={len(self.coefficients)}, "
            f"R^2={self.r_squared:.6f} (adj {self.adjusted_r_squared:.6f})",
            f"{'regressor':<16}{'coef':>14}{'stderr':>14}{'t':>10}{'p':>12}",
        ]
        for i, name in enumerate(self.names):
            lines.append(
                f"{name:<16}{self.coefficients[i]:>14.6g}{self.std_errors[i]:>14.3g}"
                f"{self.t_values[i]:>10.2f}{self.p_values[i]:>12.3g}"
            )
        return "\n".join(lines)


def ols(
    design: np.ndarray,
    response: np.ndarray,
    names: tuple[str, ...] | list[str] | None = None,
) -> OLSResult:
    """Fit ``response ≈ design @ beta`` by ordinary least squares.

    Parameters
    ----------
    design:
        ``(n, k)`` design matrix.  Include an explicit ones column for an
        intercept; no column is added implicitly.
    response:
        Length-``n`` observations.
    names:
        Optional regressor labels (defaults to ``x0..x{k-1}``).

    Raises
    ------
    FittingError
        If the design is rank-deficient or has too few rows (``n <= k``).
    """
    X = np.asarray(design, dtype=float)
    y = np.asarray(response, dtype=float)
    if X.ndim != 2:
        raise FittingError(f"design must be 2-D, got shape {X.shape}")
    n, k = X.shape
    if y.shape != (n,):
        raise FittingError(f"response shape {y.shape} does not match design rows {n}")
    if n <= k:
        raise FittingError(f"need more observations ({n}) than regressors ({k})")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise FittingError("design and response must be finite")

    beta, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
    if rank < k:
        raise FittingError(
            f"design matrix is rank-deficient (rank {rank} < {k}); "
            "regressors are collinear"
        )

    resolved_names = tuple(names) if names is not None else tuple(
        f"x{i}" for i in range(k)
    )
    if len(resolved_names) != k:
        raise FittingError(
            f"got {len(resolved_names)} names for {k} regressors"
        )

    residuals = y - X @ beta
    dof = n - k
    rss = float(residuals @ residuals)
    sigma2 = rss / dof if dof > 0 else float("nan")
    xtx_inv = np.linalg.inv(X.T @ X)
    std_errors = np.sqrt(np.maximum(np.diag(xtx_inv) * sigma2, 0.0))

    with np.errstate(divide="ignore", invalid="ignore"):
        t_values = np.where(std_errors > 0, beta / std_errors, np.inf * np.sign(beta))
    p_values = 2.0 * _stdtr(dof, -np.abs(t_values))

    tss = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 - rss / tss if tss > 0 else 1.0
    adj = 1.0 - (1.0 - r_squared) * (n - 1) / dof if dof > 0 else float("nan")

    return OLSResult(
        coefficients=beta,
        std_errors=std_errors,
        t_values=np.asarray(t_values, dtype=float),
        p_values=np.asarray(p_values, dtype=float),
        r_squared=r_squared,
        adjusted_r_squared=adj,
        residuals=residuals,
        dof=dof,
        names=resolved_names,
    )
