"""Box-constrained minimization of the summed squared modal coordinates.

The objective F(x) = sum_i L_i(x)^2 over the fitted quadratic surfaces L_i is
a smooth quartic. Each L_i is held in tensor form c + b.x + x.Q.x, so values
and gradients come from a few einsums. F is scored on a dense grid once; only
the grid's basins are polished with projected gradient descent (closed-form
gradient, Armijo backtracking): its discrete local minima plus the few best
grid points. The polished starts are advanced in lockstep with vectorized
array ops, and the reduction to a single winner is ordered, so results are
deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .doe import FactorSpace, to_physical
from .errors import NumericError, ValidationError
from .rsm import QuadraticModel, model_matrix

DEFAULT_GRID_PER_AXIS = 21
_SEED_BEST = 8  # best grid points polished besides the grid's local minima
_ARMIJO_C1 = 1e-4
_STEP_TOL = 1e-16
_GRAD_TOL = 1e-11


def default_bounds(n_factors: int) -> np.ndarray:
    """The factorial cube [-1, +1] per factor."""
    return np.array([[-1.0, 1.0]] * n_factors)


@dataclass(frozen=True)
class ObjectiveSpec:
    """Models to square-and-sum plus the normalized search box."""

    models: tuple[QuadraticModel, ...]
    bounds: np.ndarray = None  # (n_factors, 2); defaults to [-1, 1] per factor

    def __post_init__(self):
        models = tuple(self.models)
        if not models:
            raise ValidationError("objective needs at least one model")
        f = len(models[0].factor_names)
        if any(len(m.factor_names) != f for m in models):
            raise ValidationError("all models must share the same factor count")
        object.__setattr__(self, "models", models)
        bounds = self.bounds
        if bounds is None:
            bounds = default_bounds(f)
        bounds = np.asarray(bounds, dtype=float)
        if bounds.shape != (f, 2) or np.any(bounds[:, 0] >= bounds[:, 1]):
            raise ValidationError(f"bounds must be ({f}, 2) with lo < hi")
        object.__setattr__(self, "bounds", bounds)

    @property
    def n_factors(self) -> int:
        return len(self.models[0].factor_names)

    def coefficient_stack(self) -> np.ndarray:
        """Model coefficients as one (n_terms, n_models) array."""
        return np.column_stack([m.coefficients for m in self.models])


@dataclass(frozen=True)
class ConvergenceReport:
    starts: int            # grid points polished: basins plus the best few
    iterations: int        # accepted descent steps summed over all starts
    gradient_norm: float   # projected gradient norm at the returned point


@dataclass(frozen=True)
class Optimum:
    point: np.ndarray             # normalized coordinates, inside the box
    f_value: float
    predicted: np.ndarray         # model values L_i at the optimum
    report: ConvergenceReport
    physical: np.ndarray | None = None  # physical coordinates when a space is given


def _tensor_form(spec: ObjectiveSpec):
    """The models as L(x) = c + x @ b + x @ Q @ x, one column per model.

    Returns c (m,), b (f, m) and a symmetric Q (f, f, m) whose off-diagonal
    entries hold half the interaction coefficient.
    """
    coef = spec.coefficient_stack()
    f = spec.n_factors
    q = np.zeros((f, f, coef.shape[1]))
    i, j = np.triu_indices(f, k=1)
    q[i, j] = q[j, i] = 0.5 * coef[1 + f:1 + f + i.size]
    q[np.arange(f), np.arange(f)] = coef[1 + f + i.size:]
    return coef[0], coef[1:1 + f], q


def _f_batch(tensors, points: np.ndarray) -> np.ndarray:
    """F at each point, without building the per-point gradient tensor."""
    c, b, q = tensors
    n, f = points.shape
    # the (n, f*f) outer products are freed before the linear term is added,
    # which keeps the peak of a dense scan below that of a model matrix
    q2 = q.reshape(f * f, -1)
    l = (points[:, :, None] * points[:, None, :]).reshape(n, f * f) @ q2
    l += points @ b
    l += c
    return np.einsum("ij,ij->i", l, l)


def _grad_batch(tensors, points: np.ndarray) -> np.ndarray:
    """Gradient of F at each point: 2 * sum_i L_i * (b_i + 2 Q_i x)."""
    c, b, q = tensors
    qx = np.einsum("ijm,nj->nim", q, points)
    l = c + np.einsum("ni,nim->nm", points, b + qx)
    return 2.0 * np.einsum("nm,nim->ni", l, b + 2.0 * qx)


def _grid_points(bounds: np.ndarray, per_axis: int) -> np.ndarray:
    axes = [np.linspace(lo, hi, per_axis) for lo, hi in bounds]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _basin_seeds(f_grid: np.ndarray, per_axis: int, n_factors: int) -> np.ndarray:
    """Grid indices, in C order, worth polishing.

    These are the discrete local minima (F <= all 3**n_factors - 1 neighbours,
    the box edges padded with +inf, so every plateau point counts) together
    with the _SEED_BEST best grid points.
    """
    cube = f_grid.reshape((per_axis,) * n_factors)
    padded = np.pad(cube, 1, constant_values=np.inf)
    keep = np.ones(cube.shape, dtype=bool)
    for offset in itertools.product((-1, 0, 1), repeat=n_factors):
        if any(offset):
            keep &= cube <= padded[tuple(slice(1 + o, 1 + o + per_axis)
                                         for o in offset)]
    keep = keep.ravel()
    keep[np.argsort(f_grid, kind="stable")[:_SEED_BEST]] = True
    return np.flatnonzero(keep)


def minimize(spec: ObjectiveSpec, space: FactorSpace | None = None,
             grid_per_axis: int = DEFAULT_GRID_PER_AXIS,
             max_iterations: int = 500) -> Optimum:
    """Multi-start projected gradient descent over the box.

    Scores F on a uniform grid (grid_per_axis points per factor), polishes
    the grid's discrete local minima and its few best points with
    backtracking gradient descent projected onto the box, and returns the
    best polished point. Exactly tied objective values are broken toward the
    lexicographically smallest coordinates.
    """
    if grid_per_axis < 2:
        raise ValidationError(f"grid_per_axis must be >= 2, got {grid_per_axis}")
    tensors = _tensor_form(spec)
    lo = spec.bounds[:, 0]
    hi = spec.bounds[:, 1]
    grid = _grid_points(spec.bounds, grid_per_axis)
    f_grid = _f_batch(tensors, grid)
    if not np.all(np.isfinite(f_grid)):
        bad = grid[int(np.flatnonzero(~np.isfinite(f_grid))[0])]
        raise NumericError(f"objective is not finite at seed {bad.tolist()}")
    seeds = _basin_seeds(f_grid, grid_per_axis, spec.n_factors)
    x = grid[seeds]
    f_cur = f_grid[seeds]
    n_starts = x.shape[0]
    alive = np.ones(n_starts, dtype=bool)
    step = np.ones(n_starts)
    prev_x = np.full_like(x, np.nan)
    prev_g = np.full_like(x, np.nan)
    accepted_steps = 0
    for _ in range(max_iterations):
        idx = np.flatnonzero(alive)
        if idx.size == 0:
            break
        xa = x[idx]
        g = _grad_batch(tensors, xa)
        pg = xa - np.clip(xa - g, lo, hi)
        done = np.sqrt(np.einsum("ij,ij->i", pg, pg)) <= _GRAD_TOL
        if done.any():
            alive[idx[done]] = False
            idx = idx[~done]
            if idx.size == 0:
                continue
            xa = xa[~done]
            g = g[~done]
        fa = f_cur[idx]
        # spectral (Barzilai-Borwein) initial step where curvature info exists,
        # safeguarded by the Armijo backtracking below
        s = xa - prev_x[idx]
        y = g - prev_g[idx]
        sy = np.einsum("ij,ij->i", s, y)
        yy = np.einsum("ij,ij->i", y, y)
        t = step[idx].copy()
        with np.errstate(invalid="ignore", divide="ignore"):
            t_bb = sy / yy
        usable = np.isfinite(t_bb) & (t_bb > 0)
        t[usable] = np.clip(t_bb[usable], 1e-10, 1e10)
        prev_x[idx] = xa
        prev_g[idx] = g
        searching = np.ones(idx.size, dtype=bool)
        while searching.any():
            cand = np.clip(xa - t[:, None] * g, lo, hi)
            fc = _f_batch(tensors, cand)
            if not np.all(np.isfinite(fc[searching])):
                bad = cand[searching][int(np.flatnonzero(
                    ~np.isfinite(fc[searching]))[0])]
                raise NumericError(
                    f"objective is not finite at {bad.tolist()} during polish")
            decrease = np.einsum("ij,ij->i", g, xa - cand)
            ok = searching & (fc <= fa - _ARMIJO_C1 * decrease)
            if ok.any():
                rows = idx[ok]
                x[rows] = cand[ok]
                f_cur[rows] = fc[ok]
                step[rows] = t[ok] * 2.0
                accepted_steps += int(ok.sum())
                # a start whose objective no longer moves has converged
                stalled = ok & (fa - fc <= 1e-15 * (1.0 + np.abs(fa)))
                if stalled.any():
                    alive[idx[stalled]] = False
                searching &= ~ok
            t[searching] *= 0.5
            exhausted = searching & (t < _STEP_TOL)
            if exhausted.any():
                alive[idx[exhausted]] = False
                searching &= ~exhausted
    f_min = float(np.min(f_cur))
    tie = np.flatnonzero(f_cur <= f_min + 1e-12 * (1.0 + abs(f_min)))
    order = np.lexsort(tuple(x[tie, k] for k in reversed(range(x.shape[1]))))
    winner = tie[order[0]]
    point = x[winner].copy()
    g_win = _grad_batch(tensors, point[None, :])[0]
    pg_win = point - np.clip(point - g_win, lo, hi)
    report = ConvergenceReport(
        starts=n_starts,
        iterations=accepted_steps,
        gradient_norm=float(np.sqrt(np.sum(pg_win * pg_win))),
    )
    row = model_matrix(point[None, :])[0]
    predicted = np.array([row @ m.coefficients for m in spec.models])
    physical = to_physical(space, point) if space is not None else None
    return Optimum(point=point, f_value=float(f_cur[winner]),
                   predicted=predicted, report=report, physical=physical)


def grid_oracle(spec: ObjectiveSpec, resolution: int) -> tuple[np.ndarray, float]:
    """Exhaustive argmin of F over a uniform grid; independent check for tests.

    Scans in C order, so among exact ties the lexicographically smallest grid
    point wins.
    """
    if resolution < 3:
        raise ValidationError(f"grid resolution must be >= 3, got {resolution}")
    pts = _grid_points(spec.bounds, resolution)
    f = _f_batch(_tensor_form(spec), pts)
    i = int(np.argmin(f))
    return pts[i].copy(), float(f[i])
