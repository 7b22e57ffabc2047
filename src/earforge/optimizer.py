"""Box-constrained minimization of the summed squared modal coordinates.

The objective F(x) = sum_i L_i(x)^2 over the fitted quadratic surfaces L_i is
a smooth quartic. Each L_i is held in tensor form c + b.x + x.Q.x, so values,
gradients and Hessians come from a few einsums. F is scored on a dense grid
once; only the grid's basins are polished, its discrete local minima plus the
few best grid points, with projected Newton steps on the closed-form Hessian
and Armijo backtracking along the projection arc. The search grid and its
monomials x_i x_j depend only on the factor count, so they are built once per
factor count and shared, read-only, by every later call. The polished starts
advance in lockstep with vectorized array ops, and the reduction to a single
winner is ordered, so results are deterministic. The model values reported at
the optimum (`Optimum.predicted`) come from the same tensors as F.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .doe import FactorSpace, to_physical
from .errors import NumericError, ValidationError
from .rsm import QuadraticModel, _tensor_form

_GRID_PER_AXIS = 21
_MAX_ITERATIONS = 500
_SEED_BEST = 8  # best grid points polished besides the grid's local minima
_ARMIJO_C1 = 1e-4
_STEP_TOL = 1e-16
_GRAD_TOL = 1e-11
_EIG_FLOOR = 1e-8  # relative floor of the Hessian eigenvalues in the Newton step


@dataclass(frozen=True)
class ObjectiveSpec:
    """Models to square-and-sum over the normalized factorial cube [-1, 1]."""

    models: tuple[QuadraticModel, ...]

    def __post_init__(self):
        models = tuple(self.models)
        if not models:
            raise ValidationError("objective needs at least one model")
        f = len(models[0].factor_names)
        if any(len(m.factor_names) != f for m in models):
            raise ValidationError("all models must share the same factor count")
        object.__setattr__(self, "models", models)

    @property
    def n_factors(self) -> int:
        return len(self.models[0].factor_names)


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


def _monomials(points: np.ndarray) -> np.ndarray:
    """The (n, f*f) products x_i x_j of each point, C-contiguous."""
    n, f = points.shape
    return (points[:, :, None] * points[:, None, :]).reshape(n, f * f)


def _f_batch(tensors, points: np.ndarray,
             squares: np.ndarray | None = None) -> np.ndarray:
    """F at each point, without building the per-point gradient tensor.

    `squares` may hold `_monomials(points)`, computed beforehand.
    """
    c, b, q = tensors
    f = points.shape[1]
    # outer products built here are freed before the linear term is added,
    # which keeps the peak of a dense scan below that of a model matrix
    if squares is None:
        squares = _monomials(points)
    l = squares @ q.reshape(f * f, -1)
    del squares
    l += points @ b
    l += c
    return np.einsum("ij,ij->i", l, l)


def _derivatives(tensors, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradient 2 sum_i L_i J_i and Hessian 2 sum_i (J_i J_i^T + 2 L_i Q_i)
    of F at each point, with J_i = b_i + 2 Q_i x."""
    c, b, q = tensors
    qx = np.einsum("ijm,nj->nim", q, points)
    l = c + np.einsum("ni,nim->nm", points, b + qx)
    jac = b + 2.0 * qx
    grad = 2.0 * np.einsum("nm,nim->ni", l, jac)
    hess = 2.0 * (np.einsum("nim,njm->nij", jac, jac)
                  + 2.0 * np.einsum("nm,ijm->nij", l, q))
    return grad, hess


def _newton_direction(x: np.ndarray, g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Two-metric projected Newton direction at each point (Bertsekas 1982).

    Coordinates held at a face (on the bound, the gradient pointing outward)
    take -g. The free ones solve with the Hessian restricted to them, its
    eigenvalues made absolute (Nocedal & Wright, 3.4) and floored relative to
    the largest, or to the gradient's norm so a vanishing Hessian stays finite.
    """
    free = ~(((x <= -1.0) & (g > 0.0)) | ((x >= 1.0) & (g < 0.0)))
    g_free = np.where(free, g, 0.0)
    lam, v = np.linalg.eigh(h * (free[:, :, None] & free[:, None, :]))
    lam = np.abs(lam)
    scale = np.maximum(lam.max(axis=1), np.sqrt(np.einsum("ij,ij->i", g_free, g_free)))
    lam = np.maximum(lam, _EIG_FLOOR * scale[:, None])
    step = np.einsum("nij,nj->ni", v, np.einsum("nji,nj->ni", v, g_free) / lam)
    return np.where(free, -step, -g)


def _to_box(points: np.ndarray) -> np.ndarray:
    """Projection onto the cube [-1, 1]; np.clip's values, without its overhead."""
    return np.minimum(np.maximum(points, -1.0), 1.0)


def _grid_points(n_factors: int, per_axis: int) -> np.ndarray:
    """The per_axis**n_factors points of a uniform grid over the cube, C order."""
    axis = np.linspace(-1.0, 1.0, per_axis)
    index = np.indices((per_axis,) * n_factors).reshape(n_factors, per_axis ** n_factors)
    return np.ascontiguousarray(axis[index.T])


@functools.cache
def _search_grid(n_factors: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only search grid of `minimize` and its monomials."""
    grid = _grid_points(n_factors, _GRID_PER_AXIS)
    squares = _monomials(grid)
    grid.flags.writeable = False
    squares.flags.writeable = False
    return grid, squares


def _basin_seeds(f_grid: np.ndarray, per_axis: int, n_factors: int) -> np.ndarray:
    """Grid indices, in C order, worth polishing.

    These are the discrete local minima (F <= all 3**n_factors - 1 neighbours,
    the box edges padded with +inf, so every plateau point counts) together
    with the _SEED_BEST best grid points, ties at the last of them taken in
    index order, as a stable sort would. The partition needs at least
    _SEED_BEST grid points; minimize's 21 per axis always give more.
    """
    cube = f_grid.reshape((per_axis,) * n_factors)
    # minimum over each point's 3**n_factors neighbourhood, one axis at a time
    # (a separable running minimum: outside the box there is no neighbour,
    # which is a +inf pad; the point itself never changes the test)
    low = cube
    for axis in range(n_factors):
        prev = np.moveaxis(low, axis, 0)
        cur = prev.copy()
        np.minimum(cur[1:], prev[:-1], out=cur[1:])
        np.minimum(cur[:-1], prev[1:], out=cur[:-1])
        low = np.moveaxis(cur, 0, axis)
    keep = (cube <= low).ravel()
    kth = np.partition(f_grid, _SEED_BEST - 1)[_SEED_BEST - 1]
    below = f_grid < kth
    keep |= below
    ties = np.flatnonzero(f_grid == kth)
    keep[ties[:_SEED_BEST - int(np.count_nonzero(below))]] = True
    return np.flatnonzero(keep)


def minimize(spec: ObjectiveSpec, space: FactorSpace | None = None) -> Optimum:
    """Multi-start projected Newton descent over the cube [-1, 1].

    Scores F on a uniform grid (21 points per factor), polishes the grid's
    discrete local minima and its few best points with projected Newton steps
    on the Hessian with its eigenvalues made absolute, so saddles repel, each
    accepted by Armijo backtracking along the projection onto the cube (at
    most 500 steps per point), and returns the best polished point. Exactly
    tied objective values are broken toward the lexicographically smallest
    coordinates. The grid and its monomials are built at the first call for a
    factor count and reused by later ones.
    """
    tensors = _tensor_form(spec.models)
    grid, squares = _search_grid(spec.n_factors)
    f_grid = _f_batch(tensors, grid, squares)
    if not np.all(np.isfinite(f_grid)):
        bad = grid[int(np.flatnonzero(~np.isfinite(f_grid))[0])]
        raise NumericError(f"objective is not finite at seed {bad.tolist()}")
    seeds = _basin_seeds(f_grid, _GRID_PER_AXIS, spec.n_factors)
    x = grid[seeds]
    f_cur = f_grid[seeds]
    n_starts = x.shape[0]
    alive = np.ones(n_starts, dtype=bool)
    accepted_steps = 0
    for _ in range(_MAX_ITERATIONS):
        idx = np.flatnonzero(alive)
        if idx.size == 0:
            break
        xa = x[idx]
        g, h = _derivatives(tensors, xa)
        pg = xa - _to_box(xa - g)
        done = np.sqrt(np.einsum("ij,ij->i", pg, pg)) <= _GRAD_TOL
        if done.any():
            alive[idx[done]] = False
            idx = idx[~done]
            if idx.size == 0:
                continue
            xa = xa[~done]
            g = g[~done]
            h = h[~done]
        fa = f_cur[idx]
        d = _newton_direction(xa, g, h)
        t = np.ones(idx.size)
        searching = np.ones(idx.size, dtype=bool)
        while searching.any():
            cand = _to_box(xa + t[:, None] * d)
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
    g_win = _derivatives(tensors, point[None, :])[0][0]
    pg_win = point - _to_box(point - g_win)
    report = ConvergenceReport(
        starts=n_starts,
        iterations=accepted_steps,
        gradient_norm=float(np.sqrt(np.sum(pg_win * pg_win))),
    )
    c, b, q = tensors
    predicted = c + point @ b + np.einsum("i,ijm,j->m", point, q, point)
    physical = to_physical(space, point) if space is not None else None
    return Optimum(point=point, f_value=float(f_cur[winner]),
                   predicted=predicted, report=report, physical=physical)


def grid_oracle(spec: ObjectiveSpec, resolution: int) -> tuple[np.ndarray, float]:
    """Exhaustive argmin of F over a uniform grid; independent check for tests.

    Scans in C order, one slab of the first factor at a time, so memory stays
    at one slab; among exact ties the lexicographically smallest grid point
    wins.
    """
    if resolution < 3:
        raise ValidationError(f"grid resolution must be >= 3, got {resolution}")
    tensors = _tensor_form(spec.models)
    axis = np.linspace(-1.0, 1.0, resolution)
    slab = np.empty((resolution ** (spec.n_factors - 1), spec.n_factors))
    slab[:, 1:] = _grid_points(spec.n_factors - 1, resolution)
    lows = []  # each slab's first minimum and its index in the slab
    for first in axis:
        slab[:, 0] = first
        f = _f_batch(tensors, slab)
        i = int(np.argmin(f))
        lows.append((f[i], i))
    k = int(np.argmin([value for value, _ in lows]))  # first in C order
    slab[:, 0] = axis[k]
    return slab[lows[k][1]].copy(), float(lows[k][0])
