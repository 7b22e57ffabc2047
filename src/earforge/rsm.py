"""Second-degree response surfaces linking design factors to modal coordinates."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .doe import DesignMatrix
from .errors import ValidationError


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

    @property
    def n_points(self) -> int:
        return self.values.shape[0]


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


def fit_quadratic(design: DesignMatrix, responses: ResponseTable,
                  factor_names) -> list[QuadraticModel]:
    """Ordinary least squares of every response on the quadratic model.

    Solved with an orthogonal-factorization least-squares routine in
    normalized factor units; deterministic. Raises ValidationError when the
    model matrix is rank deficient.
    """
    if responses.n_points != design.n_points:
        raise ValidationError(
            f"{responses.n_points} response rows for {design.n_points} design points")
    a = model_matrix(design.points)
    coefs, _, rank, _ = np.linalg.lstsq(a, responses.values, rcond=None)
    if rank < a.shape[1]:
        raise ValidationError(
            f"design is rank deficient (rank {rank} < {a.shape[1]} terms)")
    residuals = responses.values - a @ coefs
    models = []
    for j, name in enumerate(responses.names):
        r = residuals[:, j]
        models.append(QuadraticModel(
            response=name,
            factor_names=tuple(factor_names),
            coefficients=coefs[:, j],
            residual_rms=float(np.sqrt(np.mean(r * r))),
            max_abs_residual=float(np.max(np.abs(r))),
        ))
    return models
