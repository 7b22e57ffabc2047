"""Second-degree response surfaces linking design factors to modal coordinates."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .doe import FactorSpace, ccd_design
from .errors import NumericError, ValidationError


# Row and column of each interaction term x_i x_j, i < j, in term order:
# (0, 1), (0, 2), (1, 2), the products of the blank's three factors.
_PAIR_I, _PAIR_J = np.array([0, 0, 1]), np.array([1, 2, 2])
_PAIR_I.flags.writeable = _PAIR_J.flags.writeable = False


def term_names(factor_names) -> tuple[str, ...]:
    """Model terms in column order: 1, linear, pairwise interactions, squares."""
    names = tuple(factor_names)
    if len(names) != 3:
        raise ValidationError(
            f"a quadratic model has three factors, got {len(names)}: {names}")
    pairs = [f"{names[i]}*{names[j]}" for i, j in zip(_PAIR_I, _PAIR_J)]
    return ("1", *names, *pairs, *[f"{n}^2" for n in names])


def model_matrix(points) -> np.ndarray:
    """Quadratic model matrix for normalized points (n_points, 3), in
    term_names order: 1, x, the products x_i x_j in pair order, x^2."""
    x = np.atleast_2d(np.asarray(points, dtype=float))
    return np.concatenate(
        [np.ones((len(x), 1)), x, x[:, _PAIR_I] * x[:, _PAIR_J], x * x], axis=1)


def _tensor_form(coef: np.ndarray):
    """The slopes of the models whose coefficients are the columns of `coef`:
    b (3, m) and a symmetric Q (3, 3, m), so that L_i(x) = L_i(0) + x @ b_i +
    x @ Q_i @ x has the gradient b_i + 2 Q_i x. Q's off-diagonal entries hold
    half the interaction coefficient (term_names order). Values of L come from
    model_matrix.
    """
    q = np.zeros((3, 3, coef.shape[1]))
    q[_PAIR_I, _PAIR_J] = q[_PAIR_J, _PAIR_I] = 0.5 * coef[4:7]
    q[[0, 1, 2], [0, 1, 2]] = coef[7:]
    return coef[1:4], q


@dataclass(frozen=True)
class ResponseTable:
    """Observed responses, one row per design point."""

    names: tuple[str, ...]  # e.g. ("L1", ..., "L5")
    values: np.ndarray      # (n_points, n_responses), mm

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or values.shape[1] != len(self.names):
            raise ValidationError("response table shape does not match names")
        if not np.all(np.isfinite(values)):
            raise ValidationError("response table entries must be finite")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "names", tuple(self.names))


@dataclass(frozen=True)
class QuadraticModel:
    """Fitted quadratic surface for one response, normalized factor units."""

    response: str
    factor_names: tuple[str, ...]
    coefficients: np.ndarray  # (n_terms,), ordered as term_names(factor_names)
    residual_rms: float       # RMS residual over the design points
    max_abs_residual: float   # worst residual over the design points

    def __post_init__(self):
        # contiguous, as when read back from JSON: `row @ coef` gives equal bits
        coef = np.ascontiguousarray(self.coefficients, dtype=float)
        n_terms = len(term_names(self.factor_names))
        if coef.size != n_terms:
            raise ValidationError(
                f"{self.response}: expected {n_terms} coefficients, got {coef.size}")
        if self.residual_rms < 0 or self.max_abs_residual < 0:
            raise ValidationError("fit diagnostics must be non-negative")
        object.__setattr__(self, "coefficients", coef)
        object.__setattr__(self, "factor_names", tuple(self.factor_names))

    @property
    def terms(self) -> tuple[str, ...]:
        return term_names(self.factor_names)


def fit_quadratic(responses: ResponseTable,
                  space: FactorSpace) -> list[QuadraticModel]:
    """Least squares of every response on the quadratic model over the CCD
    of `space`, in closed form (Box & Hunter 1957).

    The CCD's moment matrix is block diagonal: Σxᵢ² = s = 8 + 2α² for each
    linear column, Σ(xᵢxⱼ)² = 8 for each interaction, and the intercept and
    squares solve through a 2×2 system with det = 6(3α⁴ − 16α² + 28) > 0.
    Coefficients and residuals are fixed-order sums (no BLAS or LAPACK), so
    they have the same bits on every machine. Raises NumericError where they
    overflow (α ≳ 5e76).
    """
    y = responses.values
    alpha2 = space.alpha * space.alpha  # not **, which raises on large floats
    alpha4 = alpha2 * alpha2
    s, d = 8.0 + 2.0 * alpha2, 24.0 + 2.0 * alpha4
    det = 15.0 * d - 3.0 * s * s
    with np.errstate(over="ignore", invalid="ignore"):
        a = model_matrix(ccd_design(space).points)
        if len(y) != len(a):
            raise ValidationError(
                f"{len(y)} response rows for the design's {len(a)} runs")
        t = np.add.reduce(a[:, :, None] * y[:, None, :], axis=0)  # Aᵀy
        q_sum = t[7] + t[8] + t[9]
        b_sum = (15.0 * q_sum - 3.0 * s * t[0]) / det
        coefs = np.concatenate([
            [(d * t[0] - s * q_sum) / det], t[1:4] / s, t[4:7] / 8.0,
            (t[7:] - q_sum / 3.0) / (2.0 * alpha4) + b_sum / 3.0])
        residuals = y - np.add.reduce(a[:, :, None] * coefs, axis=1)
    if not (np.isfinite(det) and np.all(np.isfinite(coefs))):
        raise NumericError(f"the CCD fit overflows at alpha = {space.alpha!r}")
    models = []
    for j, name in enumerate(responses.names):
        r = residuals[:, j]
        models.append(QuadraticModel(
            response=name,
            factor_names=space.names,
            coefficients=coefs[:, j],
            residual_rms=float(np.sqrt(np.mean(r * r))),
            max_abs_residual=float(np.max(np.abs(r))),
        ))
    return models
