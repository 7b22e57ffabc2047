"""Second-degree response surfaces linking design factors to modal coordinates."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .doe import DesignMatrix
from .errors import ValidationError


def term_names(factor_names) -> tuple[str, ...]:
    """Model terms in column order: 1, linear, pairwise interactions, squares."""
    names = list(factor_names)
    terms = ["1"] + names
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            terms.append(f"{names[i]}*{names[j]}")
    terms += [f"{n}^2" for n in names]
    return tuple(terms)


def model_matrix(points) -> np.ndarray:
    """Quadratic model matrix for normalized points (n_points, n_factors)."""
    x = np.atleast_2d(np.asarray(points, dtype=float))
    n, f = x.shape
    cols = [np.ones(n)]
    cols += [x[:, i] for i in range(f)]
    for i in range(f):
        for j in range(i + 1, f):
            cols.append(x[:, i] * x[:, j])
    cols += [x[:, i] ** 2 for i in range(f)]
    return np.column_stack(cols)


@functools.cache
def _pair_index(f: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of each interaction term x_i x_j, i < j, in term order."""
    i, j = np.triu_indices(f, k=1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def _tensor_form(models):
    """The models as L(x) = c + x @ b + x @ Q @ x, one column per model.

    Returns c (m,), b (f, m) and a symmetric Q (f, f, m) whose off-diagonal
    entries hold half the interaction coefficient (term_names order).
    """
    coef = np.column_stack([m.coefficients for m in models])
    f = len(models[0].factor_names)
    q = np.zeros((f, f, coef.shape[1]))
    i, j = _pair_index(f)
    q[i, j] = q[j, i] = 0.5 * coef[1 + f:1 + f + i.size]
    q[np.arange(f), np.arange(f)] = coef[1 + f + i.size:]
    return coef[0], coef[1:1 + f], q


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
    if len(factor_names) != design.n_factors:
        raise ValidationError("factor_names length != design factor count")
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
