"""Second-degree response surfaces linking design factors to modal coordinates."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .doe import DesignMatrix
from .errors import SingularDesignError, ValidationError


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
        coef = np.asarray(self.coefficients, dtype=float)
        f = len(self.factor_names)
        n_terms = 1 + f + f * (f - 1) // 2 + f
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


def _dependent_columns(a: np.ndarray, names, rank: int) -> list[str]:
    # columns with weight in the null space of the model matrix
    _, _, vt = np.linalg.svd(a)
    null = vt[rank:]
    involved = np.any(np.abs(null) > 1e-8, axis=0)
    return [n for n, flag in zip(names, involved) if flag]


def fit_quadratic(design: DesignMatrix, responses: ResponseTable,
                  factor_names=None) -> list[QuadraticModel]:
    """Ordinary least squares of every response on the quadratic model.

    Solved with an orthogonal-factorization least-squares routine in
    normalized factor units; deterministic. Raises SingularDesignError,
    naming the linearly dependent columns, when the model matrix is rank
    deficient.
    """
    if factor_names is None:
        factor_names = tuple(f"X{i+1}" for i in range(design.n_factors))
    if len(factor_names) != design.n_factors:
        raise ValidationError("factor_names length != design factor count")
    if responses.n_points != design.n_points:
        raise ValidationError(
            f"{responses.n_points} response rows for {design.n_points} design points")
    a = model_matrix(design.points)
    n_terms = a.shape[1]
    if design.n_points < n_terms:
        raise ValidationError(
            f"need >= {n_terms} design points for {design.n_factors} factors, "
            f"got {design.n_points}")
    rank = np.linalg.matrix_rank(a)
    names = term_names(factor_names)
    if rank < n_terms:
        dependent = _dependent_columns(a, names, rank)
        raise SingularDesignError(
            f"design is rank deficient (rank {rank} < {n_terms}); "
            f"dependent columns: {', '.join(dependent)}", dependent)
    coefs, *_ = np.linalg.lstsq(a, responses.values, rcond=None)
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


def models_to_dict(models) -> dict:
    """JSON-ready mapping: per response, named coefficients plus diagnostics."""
    out = {}
    for m in models:
        out[m.response] = {
            "coefficients": {t: float(c) for t, c in zip(m.terms, m.coefficients)},
            "diagnostics": {
                "residual_rms": float(m.residual_rms),
                "max_abs_residual": float(m.max_abs_residual),
            },
            "factors": list(m.factor_names),
        }
    return out


def models_from_dict(payload: dict) -> list[QuadraticModel]:
    """Rebuild fitted models from the mapping written by models_to_dict."""
    models = []
    for response, entry in payload.items():
        factors = tuple(entry["factors"])
        terms = term_names(factors)
        coef = np.array([entry["coefficients"][t] for t in terms])
        models.append(QuadraticModel(
            response=response,
            factor_names=factors,
            coefficients=coef,
            residual_rms=entry["diagnostics"]["residual_rms"],
            max_abs_residual=entry["diagnostics"]["max_abs_residual"],
        ))
    return models
