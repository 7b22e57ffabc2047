"""Box-constrained minimization of the summed squared modal coordinates.

The objective F(x) = sum_i L_i(x)^2 over the fitted quadratic surfaces L_i is
a smooth quartic. F is scored on a dense grid once, through the fit's own
quadratic model matrix: the grid's rows times the stacked coefficients give
every L_i in one matmul. The grid and its model matrix depend only on the
factor count, so they are built once per factor count and shared, read-only,
by every later call. Only the grid's basins are polished, its discrete local
minima plus the few best grid points. There each L_i is held in tensor form
c + b.x + x.Q.x, so values, gradients and Hessians come from a few einsums,
and the starts take projected Newton steps on the closed-form Hessian with
Armijo backtracking along the projection arc. The polished starts advance in
lockstep with vectorized array ops, and the reduction to a single winner is
ordered, so results are deterministic. The model values reported at the
optimum (`Optimum.predicted`) come from the same tensors as F.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .doe import FactorSpace, to_physical
from .errors import NumericError, ValidationError
from .rsm import QuadraticModel, _tensor_form, model_matrix

_GRID_PER_AXIS = 21
_MAX_ITERATIONS = 500
_SEED_BEST = 8  # best grid points polished besides the grid's local minima
_ARMIJO_C1 = 1e-4
_STEP_TOL = 1e-16
_GRAD_TOL = 1e-11
_FLAT_TOL = 1e-13  # relative change of F below which a full step's F is rounding
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


def _f_batch(tensors, points: np.ndarray) -> np.ndarray:
    """F at each point, without building the per-point gradient tensor."""
    c, b, q = tensors
    n, f = points.shape
    squares = (points[:, :, None] * points[:, None, :]).reshape(n, f * f)
    l = squares @ q.reshape(f * f, -1)
    l += points @ b
    l += c
    return np.einsum("ij,ij->i", l, l)


def _f_design(design: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """F at the points whose quadratic model matrix is `design`: one matmul."""
    l = design @ coef
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
    held = (x * g < 0.0) & (np.abs(x) == 1.0)  # x is on the box: |x| <= 1
    any_held = held.any()
    g_free, h_free = g, h
    if any_held:
        g_free = np.where(held, 0.0, g)
        h_free = h * ~(held[:, :, None] | held[:, None, :])
    lam, v = np.linalg.eigh(h_free)
    lam = np.abs(lam)
    scale = np.maximum(lam.max(axis=1), np.sqrt(np.einsum("ij,ij->i", g_free, g_free)))
    lam = np.maximum(lam, _EIG_FLOOR * scale[:, None])
    step = np.einsum("nij,nj->ni", v, np.einsum("nji,nj->ni", v, g_free) / lam)
    return np.where(held, -g, -step) if any_held else -step


def _projected_gradient_norm(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Norm of each point's step x - P(x - g) onto the cube."""
    pg = x - _to_box(x - g)
    return np.sqrt(np.einsum("ij,ij->i", pg, pg))


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
    """The read-only search grid of `minimize` and its quadratic model matrix."""
    grid = _grid_points(n_factors, _GRID_PER_AXIS)
    design = model_matrix(grid)
    grid.flags.writeable = False
    design.flags.writeable = False
    return grid, design


def _basin_seeds(f_grid: np.ndarray, per_axis: int, n_factors: int) -> np.ndarray:
    """Grid indices, in C order, worth polishing.

    These are the discrete local minima (F <= all 3**n_factors - 1 neighbours,
    the box edges padded with +inf, so every plateau point counts) together
    with the _SEED_BEST best grid points, ties at the last of them taken in
    index order, as a stable sort would. The partition needs at least
    _SEED_BEST grid points; minimize's 21 per axis always give more.
    """
    # minimum over each point's 3**n_factors neighbourhood, one axis at a time
    # (a separable running minimum on a copy padded with +inf, flat, so the
    # neighbours along axis k are the entries (per_axis + 2)**k away; a pad
    # entry only ever meets pad entries of its own axis before that axis's
    # pass, and the point itself never changes the test)
    side = per_axis + 2
    inner = (slice(1, -1),) * n_factors
    padded = np.full((side,) * n_factors, np.inf)
    padded[inner] = f_grid.reshape((per_axis,) * n_factors)
    low = padded.ravel()
    for axis in range(n_factors):
        s = side ** axis
        prev = low.copy()
        np.minimum(low[s:], prev[:-s], out=low[s:])
        np.minimum(low[:-s], prev[s:], out=low[:-s])
    keep = f_grid <= padded[inner].ravel()
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
    most 500 steps per point), and returns the best polished point. Where a
    full step changes F by rounding alone (at most 1e-13 relative), it is
    accepted when it at least halves the projected gradient, so the polish
    reaches its 1e-11 gradient tolerance. Exactly tied objective values are
    broken toward the lexicographically smallest coordinates. The grid and its
    model matrix are built at the first call for a factor count and reused by
    later ones; the grid is scored with one matmul.
    """
    coef = np.column_stack([m.coefficients for m in spec.models])
    tensors = _tensor_form(spec.models)
    grid, design = _search_grid(spec.n_factors)
    f_grid = _f_design(design, coef)
    if not np.all(np.isfinite(f_grid)):
        bad = grid[int(np.flatnonzero(~np.isfinite(f_grid))[0])]
        raise NumericError(f"objective is not finite at seed {bad.tolist()}")
    seeds = _basin_seeds(f_grid, _GRID_PER_AXIS, spec.n_factors)
    x = grid[seeds]
    f_cur = f_grid[seeds]
    n_starts = x.shape[0]
    live = np.arange(n_starts)  # the starts still being polished
    accepted_steps = 0
    for _ in range(_MAX_ITERATIONS):
        xa = x[live]
        g, h = _derivatives(tensors, xa)
        pg_norm = _projected_gradient_norm(xa, g)
        moving = ~(pg_norm <= _GRAD_TOL)
        if not moving.all():
            live, xa, g, h = live[moving], xa[moving], g[moving], h[moving]
            pg_norm = pg_norm[moving]
            if live.size == 0:
                break
        fa = f_cur[live]
        scale = 1.0 + np.abs(fa)
        d = _newton_direction(xa, g, h)
        # every start halves its own step from t = 1 until Armijo accepts it
        # or t falls below _STEP_TOL; the batch keeps its shape meanwhile
        t = np.ones(live.size)
        searching = np.ones(live.size, dtype=bool)
        full_step = True
        while True:
            cand = _to_box(xa + t[:, None] * d)
            fc = _f_batch(tensors, cand)
            if not np.isfinite(fc).all():
                bad = searching & ~np.isfinite(fc)
                if bad.any():
                    raise NumericError(f"objective is not finite at "
                                       f"{cand[np.argmax(bad)].tolist()} during polish")
            searching &= ~(fc <= fa - _ARMIJO_C1 * np.einsum("ij,ij->i", g, xa - cand))
            if not searching.any():
                break
            if full_step:
                # where F moves by rounding alone, a full step is judged by
                # the projected gradient instead (Hager & Zhang 2005)
                full_step = False
                flat = searching & (np.abs(fc - fa) <= _FLAT_TOL * scale)
                if flat.any():
                    xf = cand[flat]
                    gf = _derivatives(tensors, xf)[0]
                    searching[flat] = ~(_projected_gradient_norm(xf, gf)
                                        <= 0.5 * pg_norm[flat])
            np.multiply(t, 0.5, out=t, where=searching)
            searching &= t >= _STEP_TOL
            if not searching.any():
                break
        ok = t >= _STEP_TOL  # accepted; the other starts ran out of step
        accepted_steps += int(np.count_nonzero(ok))
        rows = live[ok]
        x[rows] = cand[ok]
        f_cur[rows] = fc[ok]
        # a start whose objective no longer moves has converged
        live = live[ok & (fa - fc > 1e-15 * scale)]
        if live.size == 0:
            break
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
    at one slab. The slab's model matrix is built once; each slab rewrites
    only the columns that hold the first factor, so every row is the one a
    model matrix of the whole grid holds. Among exact ties the
    lexicographically smallest grid point wins.
    """
    if resolution < 3:
        raise ValidationError(f"grid resolution must be >= 3, got {resolution}")
    f = spec.n_factors
    coef = np.column_stack([m.coefficients for m in spec.models])
    axis = np.linspace(-1.0, 1.0, resolution)
    if f == 1:  # a slab of one point would take BLAS's matrix-vector path
        values = _f_design(model_matrix(axis[:, None]), coef)
        i = int(np.argmin(values))
        return axis[i:i + 1].copy(), float(values[i])
    slab = np.empty((resolution ** (f - 1), f))
    slab[:, 0] = axis[0]
    slab[:, 1:] = _grid_points(f - 1, resolution)
    # column-major, so the columns rewritten per slab are contiguous
    design = np.asfortranarray(model_matrix(slab))
    rest = np.asfortranarray(slab[:, 1:])
    square = 1 + f + f * (f - 1) // 2  # column of the first factor's square
    lows = []  # each slab's first minimum and its index in the slab
    for first in axis:
        design[:, 1] = first
        np.multiply(rest, first, out=design[:, 1 + f:f + f])  # x0 x_j
        design[:, square] = first * first
        values = _f_design(design, coef)
        i = int(np.argmin(values))
        lows.append((values[i], i))
    k = int(np.argmin([value for value, _ in lows]))  # first in C order
    slab[:, 0] = axis[k]
    return slab[lows[k][1]].copy(), float(lows[k][0])
