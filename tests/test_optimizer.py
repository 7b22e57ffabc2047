import dataclasses
import itertools
import runpy
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import earforge
from earforge import optimizer
from earforge.doe import to_physical
from earforge.errors import NumericError, ValidationError
from earforge.optimizer import (_SEED_BEST, ObjectiveSpec, _basin_seeds,
                                _derivatives, _f, _model_values, _search_grid,
                                grid_oracle, minimize)
from earforge.rsm import QuadraticModel, _tensor_form, model_matrix


def stacked_coefficients(spec):
    return np.column_stack([m.coefficients for m in spec.models])


def objective_f(spec, point):
    """F at one point, through the evaluator minimize uses."""
    return float(_f(model_matrix(point) @ stacked_coefficients(spec))[0])


def objective_derivatives(spec, points, l=None):
    """Gradient and Hessian of F at each point, as minimize computes them,
    from the model values L there (by default model_matrix @ coef)."""
    coef = stacked_coefficients(spec)
    if l is None:
        l = model_matrix(points) @ coef
    return _derivatives(_tensor_form(coef), points, l)


def objective_gradient(spec, point):
    """Gradient of F at one point, as minimize computes it."""
    return objective_derivatives(spec, np.asarray(point)[None, :])[0][0]


def model_from_terms(**terms):
    """Quadratic model over (X1, X2, X3) with named coefficients, rest zero."""
    names = ("X1", "X2", "X3")
    order = ["1", "X1", "X2", "X3", "X1*X2", "X1*X3", "X2*X3",
             "X1^2", "X2^2", "X3^2"]
    coef = np.array([float(terms.get(t, 0.0)) for t in order])
    return QuadraticModel("Y", names, coef, 0.0, 0.0)


def random_models(rng, n_models=5):
    return tuple(
        dataclasses.replace(model_from_terms(), coefficients=rng.normal(0, 1, 10))
        for _ in range(n_models))


ZERO_SPEC = ObjectiveSpec(models=(model_from_terms(),))
PERFBENCH_INPUTS = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"


def rugged_pool(seed):
    """The 256 objectives of the benchmark's optimize-rugged pool for a seed."""
    rugged_models = runpy.run_path(str(PERFBENCH_INPUTS))["rugged_models"]
    rng = np.random.default_rng(seed)
    return [ObjectiveSpec(models=rugged_models(rng, earforge)) for _ in range(256)]


def seeded_spec(rng, n_active, n_models=5):
    """n_models quadratics over (X1, X2, X3) with N(0, 1) coefficients on the
    terms of the first n_active factors and zeros on the rest, so F does not
    depend on the last 3 - n_active factors."""
    # a term is nonzero at (1, .., 1, 0, ..) iff it holds active factors only
    active = model_matrix([1.0] * n_active + [0.0] * (3 - n_active))[0] != 0.0
    models = []
    for _ in range(n_models):
        coef = np.zeros(10)
        coef[active] = rng.normal(0, 1, np.count_nonzero(active))
        models.append(dataclasses.replace(model_from_terms(), coefficients=coef))
    return ObjectiveSpec(models=tuple(models))


def reference_f(coef, points):
    """F from the model matrix: sum over models of (model_matrix @ coef)^2."""
    l = model_matrix(points) @ coef
    return np.einsum("ij,ij->i", l, l)


def reference_gradient(coef, points):
    """Gradient of F, one factor at a time from the model-matrix derivative."""
    x = np.atleast_2d(points)
    n, f = x.shape
    l = model_matrix(x) @ coef
    grad = np.empty((n, f))
    pairs = [(i, j) for i in range(f) for j in range(i + 1, f)]
    for k in range(f):
        dmm = np.zeros((n, coef.shape[0]))
        dmm[:, 1 + k] = 1.0
        for p, (i, j) in enumerate(pairs):
            if i == k:
                dmm[:, 1 + f + p] = x[:, j]
            elif j == k:
                dmm[:, 1 + f + p] = x[:, i]
        dmm[:, 1 + f + len(pairs) + k] = 2.0 * x[:, k]
        dl = dmm @ coef
        grad[:, k] = 2.0 * np.einsum("ij,ij->i", l, dl)
    return grad


class TestObjective:
    def test_zero_models_everywhere_zero(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            assert objective_f(ZERO_SPEC, rng.uniform(-1, 1, 3)) == 0.0

    def test_single_linear_model(self):
        spec = ObjectiveSpec(models=(model_from_terms(X1=1.0),))
        assert objective_f(spec, np.array([0.5, 0.0, 0.0])) == pytest.approx(0.25)

    def test_reference_optimum_dominates_design_points(self, reference_models,
                                                       default_design):
        spec = ObjectiveSpec(models=reference_models)
        opt = minimize(spec)
        design_f = [objective_f(spec, p) for p in default_design.points]
        assert all(opt.f_value <= f for f in design_f)

    def test_reference_optimum_characterization(self, reference_models,
                                                default_space):
        # frozen from an independent grid-plus-polish solve of the fitted
        # reference-campaign objective
        opt = minimize(ObjectiveSpec(models=reference_models))
        physical = to_physical(default_space, opt.point)
        assert physical[0] == pytest.approx(116.7554, abs=1e-3)
        assert physical[1] == pytest.approx(0.4514, abs=1e-3)
        assert physical[2] == pytest.approx(-0.3368, abs=1e-3)
        assert opt.f_value == pytest.approx(0.0131311, abs=1e-6)

    @pytest.mark.parametrize("n_active, bounds", [
        (2, None),
        (3, None),
        (3, [[-0.5, 0.7], [-2.0, 1.0], [0.0, 3.0]]),
    ])
    def test_tensor_form_matches_model_matrix(self, n_active, bounds):
        # n_active: the factors F depends on; bounds: the box the 200
        # evaluation points are drawn from, None for the cube [-1, 1] that
        # minimize searches
        rng = np.random.default_rng(44)
        spec = seeded_spec(rng, n_active)
        box = np.array(bounds or [[-1.0, 1.0]] * 3)
        points = rng.uniform(box[:, 0], box[:, 1], (200, 3))
        coef = np.column_stack([m.coefficients for m in spec.models])
        f_ref = reference_f(coef, points)
        g_ref = reference_gradient(coef, points)
        for x, f, g in zip(points, f_ref, g_ref):
            assert abs(objective_f(spec, x) - f) <= 1e-12 * f
            assert (np.linalg.norm(objective_gradient(spec, x) - g)
                    <= 1e-12 * np.linalg.norm(g))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        spec = ObjectiveSpec(models=random_models(rng))
        h = 1e-5
        for _ in range(100):
            x = rng.uniform(-1, 1, 3)
            g = objective_gradient(spec, x)
            fd = np.empty(3)
            for k in range(3):
                e = np.zeros(3)
                e[k] = h
                fd[k] = (objective_f(spec, x + e) - objective_f(spec, x - e)) / (2 * h)
            denom = max(1.0, float(np.linalg.norm(fd)))
            assert np.linalg.norm(g - fd) / denom <= 1e-4

    @pytest.mark.parametrize("n_active", [1, 2, 3])
    def test_hessian_matches_finite_differences_of_the_gradient(self, n_active):
        # n_active: the factors F depends on; the Hessian is singular below 3
        rng = np.random.default_rng(55 + n_active)
        h = 1e-5
        for _ in range(20):
            spec = seeded_spec(rng, n_active)
            x = rng.uniform(-1, 1, (1, 3))
            hess = objective_derivatives(spec, x)[1][0]
            fd = np.empty((3, 3))
            for k in range(3):
                e = np.zeros((1, 3))
                e[0, k] = h
                fd[:, k] = (objective_derivatives(spec, x + e)[0][0]
                            - objective_derivatives(spec, x - e)[0][0]) / (2 * h)
            denom = max(1.0, float(np.linalg.norm(fd)))
            assert np.linalg.norm(hess - fd) / denom <= 1e-6


def basin_seeds_reference(f_grid, per_axis):
    """Local minima by 26 shifted comparisons against an +inf-padded cube,
    plus the _SEED_BEST first of a stable sort."""
    cube = f_grid.reshape((per_axis,) * 3)
    padded = np.pad(cube, 1, constant_values=np.inf)
    keep = np.ones(cube.shape, dtype=bool)
    for offset in itertools.product((-1, 0, 1), repeat=3):
        if any(offset):
            keep &= cube <= padded[tuple(slice(1 + o, 1 + o + per_axis)
                                         for o in offset)]
    keep = keep.ravel()
    keep[np.argsort(f_grid, kind="stable")[:_SEED_BEST]] = True
    return np.flatnonzero(keep)


def dense_grid_argmin(spec, resolution):
    """The first grid argmin of F in C order, from one scan of the whole grid."""
    axis = np.linspace(-1.0, 1.0, resolution)
    mesh = np.meshgrid(axis, axis, axis, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=1)
    f = reference_f(np.column_stack([m.coefficients for m in spec.models]), points)
    i = int(np.argmin(f))
    return points[i], float(f[i])


class TestBasinSeeds:
    @pytest.mark.parametrize("n_active", [1, 2, 3])
    @pytest.mark.parametrize("levels", [None, 3])
    def test_matches_reference_on_seeded_grids(self, n_active, levels):
        # levels: None for continuous values, else that many distinct values,
        # so plateaus and ties are everywhere; n_active: the axes F varies
        # along, the first ones, so it is constant along the rest
        rng = np.random.default_rng(46 + n_active)
        for _ in range(20):
            size = 21 ** n_active
            f = (rng.random(size) if levels is None
                 else rng.integers(0, levels, size).astype(float))
            f = np.repeat(f, 21 ** (3 - n_active))
            assert np.array_equal(_basin_seeds(f, 21),
                                  basin_seeds_reference(f, 21))

    def test_plateau_keeps_every_point(self):
        f = np.full(21 ** 3, 0.25)
        seeds = _basin_seeds(f, 21)
        assert np.array_equal(seeds, np.arange(21 ** 3))
        assert np.array_equal(seeds, basin_seeds_reference(f, 21))

    def test_ties_straddling_the_last_best_point(self):
        # 5 isolated low points, each flanked along the last axis by two
        # points tied at the next value: the 10 ties compete for the 6th to 8th
        # best places, none is a local minimum, and only the 3 first in index
        # order may be kept
        rng = np.random.default_rng(47)
        f = 5.0 + rng.random(21 ** 3)
        low = np.ravel_multi_index(([3, 7, 10, 14, 17], [4, 16, 10, 2, 12],
                                    [5, 9, 10, 15, 3]), (21,) * 3)
        f[low] = 0.1 * np.arange(1, 6)
        ties = np.sort(np.concatenate([low - 1, low + 1]))
        f[ties] = 1.0
        seeds = _basin_seeds(f, 21)
        assert np.array_equal(seeds, basin_seeds_reference(f, 21))
        assert np.isin(low, seeds).all()
        assert np.array_equal(ties[np.isin(ties, seeds)], ties[:3])


class TestSearchGrid:
    def test_arrays_are_read_only_and_survive_minimize(self, reference_models):
        grid, design = _search_grid()
        before = grid.copy(), design.copy()
        assert not grid.flags.writeable
        assert not design.flags.writeable
        minimize(ObjectiveSpec(models=reference_models))
        minimize(ObjectiveSpec(models=random_models(np.random.default_rng(48))))
        assert _search_grid()[0] is grid
        assert _search_grid()[1] is design
        assert np.array_equal(grid, before[0])
        assert np.array_equal(design, before[1])

    def test_cached_design_is_the_model_matrix(self):
        grid, design = _search_grid()
        assert grid.shape == (21 ** 3, 3)
        assert np.array_equal(design, model_matrix(grid))
        assert design.dtype == np.float64 and design.flags.c_contiguous
        assert not design.flags.writeable
        with pytest.raises(ValueError):
            design[0, 0] = 2.0

    @pytest.mark.parametrize("n_active", [1, 2, 3])
    def test_grid_scores_equal_the_model_matrix_reference(self, n_active,
                                                           monkeypatch):
        # the F that minimize hands to its basin search, bit for bit
        scored = []

        def record(f_grid, per_axis):
            scored.append(f_grid.copy())
            return _basin_seeds(f_grid, per_axis)

        monkeypatch.setattr(optimizer, "_basin_seeds", record)
        rng = np.random.default_rng(49)
        grid = _search_grid()[0]
        for _ in range(8):
            spec = seeded_spec(rng, n_active)
            minimize(spec)
            coef = np.column_stack([m.coefficients for m in spec.models])
            assert np.array_equal(scored.pop(), reference_f(coef, grid))

    def test_grid_oracle_leaves_the_cache_alone(self):
        spec = ObjectiveSpec(models=random_models(np.random.default_rng(50)))
        before = _search_grid.cache_info()
        grid_oracle(spec, 21)
        assert _search_grid.cache_info() == before


class TestMinimize:
    def test_polish_values_do_not_depend_on_the_batch(self):
        # the line search scores a start's candidate beside however many
        # starts are still live: each row gets the bits it gets alone
        rng = np.random.default_rng(51)
        for n in range(1, 17):
            coef = stacked_coefficients(seeded_spec(rng, 3))
            points = rng.uniform(-1, 1, (n, 3))
            batch = _model_values(points, coef)
            assert np.allclose(batch, model_matrix(points) @ coef,
                               rtol=1e-14, atol=1e-14)
            for i in range(n):
                alone = _model_values(points[i:i + 1], coef)
                assert batch[i].tobytes() == alone[0].tobytes(), (n, i)

    def test_linear_root_inside_box(self):
        spec = ObjectiveSpec(models=(model_from_terms(**{"1": -0.3, "X1": 1.0}),))
        opt = minimize(spec)
        assert opt.point[0] == pytest.approx(0.3, abs=1e-7)
        assert opt.f_value == pytest.approx(0.0, abs=1e-12)
        # flat directions resolve to the lexicographically smallest tie
        assert opt.point[1] == pytest.approx(-1.0)
        assert opt.point[2] == pytest.approx(-1.0)

    def test_one_dimensional_affine_closed_form(self, default_space):
        spec = ObjectiveSpec(models=(model_from_terms(**{"1": -0.882, "X3": 1.08}),))
        opt = minimize(spec)
        assert opt.point[2] == pytest.approx(0.882 / 1.08, abs=1e-7)
        assert to_physical(default_space, opt.point)[2] == pytest.approx(
            1.225, abs=1e-6)

    def test_never_loses_to_grid_oracle(self):
        rng = np.random.default_rng(43)
        for _ in range(5):
            spec = ObjectiveSpec(models=random_models(rng))
            opt = minimize(spec)
            _, f_grid = grid_oracle(spec, 41)
            assert opt.f_value <= f_grid + 1e-6

    def test_scaling_models_leaves_argmin_unchanged(self, reference_models):
        spec = ObjectiveSpec(models=reference_models)
        opt = minimize(spec)
        scaled = ObjectiveSpec(models=tuple(
            dataclasses.replace(m, coefficients=3.0 * m.coefficients)
            for m in reference_models))
        opt_scaled = minimize(scaled)
        assert np.max(np.abs(opt.point - opt_scaled.point)) <= 1e-6
        assert opt_scaled.f_value == pytest.approx(9.0 * opt.f_value, rel=1e-6)

    def test_point_respects_box_edge_exactly(self):
        # minimum of (X1 - 2)^2 over X1 <= 1 sits on the edge of the cube
        spec = ObjectiveSpec(models=(model_from_terms(**{"1": -2.0, "X1": 1.0}),))
        opt = minimize(spec)
        assert opt.point[0] == 1.0
        assert np.all(np.abs(opt.point) <= 1.0)

    def test_zero_objective_tie_break(self):
        opt = minimize(ZERO_SPEC)
        assert np.array_equal(opt.point, [-1.0, -1.0, -1.0])
        assert opt.f_value == 0.0

    def test_deterministic_repeat(self, reference_models):
        spec = ObjectiveSpec(models=reference_models)
        a = minimize(spec)
        b = minimize(spec)
        assert np.array_equal(a.point, b.point)
        assert a.f_value == b.f_value
        assert a.report == b.report

    def test_predicted_values_match_models(self, reference_models):
        # the reference objective, the benchmark's seed-1 rugged pool and
        # seeded objectives of 1, 2 and 3 of the factors
        rng = np.random.default_rng(56)
        specs = [ObjectiveSpec(models=reference_models), *rugged_pool(1)]
        specs += [seeded_spec(rng, n) for n in (1, 2, 3) for _ in range(20)]
        for spec in specs:
            opt = minimize(spec)
            for value, model in zip(opt.predicted, spec.models):
                expected = (model_matrix(opt.point) @ model.coefficients)[0]
                assert value == pytest.approx(expected, abs=1e-12)
            # F is the sum of the reported values' squares, bit for bit
            assert opt.f_value == np.einsum("i,i->", opt.predicted, opt.predicted)

    def test_convergence_report_populated(self, reference_models):
        opt = minimize(ObjectiveSpec(models=reference_models))
        # frozen at the switch to basin seeding: the reference objective has
        # one grid local minimum, inside the 8 best grid points
        assert opt.report.starts == 8
        assert opt.report.iterations > 0
        assert opt.report.gradient_norm <= 1e-11

    def test_returned_points_meet_box_kkt_conditions(self):
        # Whatever the polish, the returned point is a box-constrained local
        # minimum: its projected gradient vanishes and the Hessian on the
        # coordinates strictly inside the box has no negative eigenvalue.
        # The first-order bound is minimize's own tolerance, 1e-11. Below a
        # projected gradient of ~1e-7 a full Newton step changes F by a few
        # ulps at most, so only a step judged by the projected gradient, not
        # by F, gets there.
        rng = np.random.default_rng(51)
        specs = [seeded_spec(rng, 3) for _ in range(100)]
        specs += [seeded_spec(rng, n) for n in (1, 2) for _ in range(20)]
        for spec in specs:
            opt = minimize(spec)
            g, h = objective_derivatives(spec, opt.point[None, :],
                                         opt.predicted[None, :])
            pg = opt.point - np.clip(opt.point - g[0], -1.0, 1.0)
            assert np.linalg.norm(pg) <= 1e-11
            assert opt.report.gradient_norm == pytest.approx(np.linalg.norm(pg))
            inner = np.abs(opt.point) < 1.0
            if inner.any():
                assert np.linalg.eigvalsh(h[0][np.ix_(inner, inner)]).min() >= -1e-8

    def test_grid_seed_beside_a_strict_saddle_reaches_the_oracle_basin(self):
        # F = (10 X1^2 - 0.9 X1 - 0.09)^2 + 1e-4 (1 + X2)^2 does not depend
        # on X3. It vanishes at X1 = -0.06 and X1 = 0.15 on the face X2 = -1,
        # and has a strict saddle line between them at (0.045, -1, X3), where
        # d2F/dX1^2 = -4.41. Every grid seed lies in the plane X1 = 0.1,
        # inside the slab |X1 - 0.045| < 0.105 / sqrt(3) where F is concave
        # along X1; a Newton step on the unmodified Hessian points back at
        # the saddle from there.
        spec = ObjectiveSpec(models=(
            model_from_terms(**{"1": -0.09, "X1": -0.9, "X1^2": 10.0}),
            model_from_terms(**{"1": 0.01, "X2": 0.01})))
        grid, design = _search_grid()
        seeds = grid[_basin_seeds(_f(design @ stacked_coefficients(spec)), 21)]
        assert np.allclose(seeds[:, 0], 0.1)
        _, h = objective_derivatives(spec, seeds)
        assert np.all(h[:, 0, 0] < 0.0)
        saddle = np.array([[0.045, -1.0, 0.3]])
        g, h = objective_derivatives(spec, saddle)
        assert np.abs(g).max() <= 1e-15 and h[0, 0, 0] == pytest.approx(-4.41)
        opt = minimize(spec)
        oracle_point, oracle_f = grid_oracle(spec, 41)
        # F ties along X3, so both break the tie at its smallest value
        assert np.allclose(oracle_point, [0.15, -1.0, -1.0], atol=1e-12)
        assert opt.f_value <= oracle_f + 1e-12
        assert np.allclose(opt.point, [0.15, -1.0, -1.0], atol=1e-9)

    def test_nonfinite_objective_raises(self):
        spec = ObjectiveSpec(models=(model_from_terms(X1=1e200),))
        with pytest.raises(NumericError):
            minimize(spec)


class TestGridOracle:
    def test_resolution_three_on_linear_model(self):
        spec = ObjectiveSpec(models=(model_from_terms(X1=1.0),))
        point, value = grid_oracle(spec, 3)
        assert point[0] == 0.0
        assert value == 0.0

    def test_zero_models_any_point_zero(self):
        point, value = grid_oracle(ZERO_SPEC, 5)
        assert value == 0.0
        assert np.array_equal(point, [-1.0, -1.0, -1.0])  # first grid point

    def test_resolution_validation(self):
        with pytest.raises(ValidationError):
            grid_oracle(ZERO_SPEC, 2)

    def test_peak_allocation_of_dense_scan(self):
        # The scan holds one first-factor slab (41**2 points) and its model
        # matrix at a time and peaks at 0.3 MiB here; a model matrix of the
        # whole 41**3 grid at once peaked at 10.5 MiB.
        spec = ObjectiveSpec(models=random_models(np.random.default_rng(45)))
        grid_oracle(spec, 3)
        tracemalloc.start()
        try:
            grid_oracle(spec, 41)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1 * 2 ** 20

    @pytest.mark.parametrize("n_active", [1, 2, 3])
    def test_slab_scan_matches_dense_scan(self, n_active):
        # below 3 active factors, F ties along the others
        rng = np.random.default_rng(52 + n_active)
        for _ in range(16):
            spec = seeded_spec(rng, n_active)
            for resolution in (3, 20, 41):
                point, value = grid_oracle(spec, resolution)
                want_point, want_value = dense_grid_argmin(spec, resolution)
                assert np.array_equal(point, want_point)
                assert value == want_value

    @pytest.mark.parametrize("n_flat", [1, 2, 3])
    def test_ties_return_the_first_grid_point(self, n_flat):
        # F = sum of X_k^2 over the first 3 - n_flat factors is 0 at 0 there,
        # whatever the last n_flat factors, so its grid minima tie
        spec = ObjectiveSpec(models=(model_from_terms(), *[
            model_from_terms(**{name: 1.0}) for name in ("X1", "X2")[:3 - n_flat]]))
        point, value = grid_oracle(spec, 7)
        assert np.array_equal(point, [0.0] * (3 - n_flat) + [-1.0] * n_flat)
        assert value == 0.0
        assert np.array_equal(point, dense_grid_argmin(spec, 7)[0])


class TestObjectiveSpec:
    def test_needs_models(self):
        with pytest.raises(ValidationError):
            ObjectiveSpec(models=())

    def test_factor_count_consistency(self):
        # every model is over three factors, so no objective mixes counts
        with pytest.raises(ValidationError, match="three factors"):
            ObjectiveSpec(models=(model_from_terms(), QuadraticModel(
                "Y", ("X1", "X2"), np.zeros(6), 0.0, 0.0)))
