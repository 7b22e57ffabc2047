import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from earforge.errors import NumericError, ValidationError
from earforge.optimizer import (_SEED_BEST, ObjectiveSpec, _basin_seeds,
                                _f_batch, _grad_batch, _search_grid,
                                grid_oracle, minimize)
from earforge.rsm import QuadraticModel, _tensor_form, model_matrix, term_names


def objective_f(spec, point):
    """F at one point, through the batch evaluator minimize uses."""
    tensors = _tensor_form(spec.models)
    return float(_f_batch(tensors, np.asarray(point)[None, :])[0])


def objective_gradient(spec, point):
    """Gradient of F at one point, through the batch evaluator minimize uses."""
    return _grad_batch(_tensor_form(spec.models), np.asarray(point)[None, :])[0]


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
                                                       default_design,
                                                       default_space):
        spec = ObjectiveSpec(models=reference_models)
        opt = minimize(spec, space=default_space)
        design_f = [objective_f(spec, p) for p in default_design.points]
        assert all(opt.f_value <= f for f in design_f)

    def test_reference_optimum_characterization(self, reference_models,
                                                default_space):
        # frozen from an independent grid-plus-polish solve of the fitted
        # reference-campaign objective
        opt = minimize(ObjectiveSpec(models=reference_models),
                       space=default_space)
        assert opt.physical[0] == pytest.approx(116.7554, abs=1e-3)
        assert opt.physical[1] == pytest.approx(0.4514, abs=1e-3)
        assert opt.physical[2] == pytest.approx(-0.3368, abs=1e-3)
        assert opt.f_value == pytest.approx(0.0131311, abs=1e-6)

    @pytest.mark.parametrize("n_factors, bounds", [
        (2, None),
        (3, None),
        (3, [[-0.5, 0.7], [-2.0, 1.0], [0.0, 3.0]]),
    ])
    def test_tensor_form_matches_model_matrix(self, n_factors, bounds):
        # bounds: the box the 200 evaluation points are drawn from, None for
        # the cube [-1, 1] that minimize searches
        rng = np.random.default_rng(44)
        names = tuple(f"X{k + 1}" for k in range(n_factors))
        n_terms = len(term_names(names))
        spec = ObjectiveSpec(
            models=tuple(QuadraticModel("Y", names, rng.normal(0, 1, n_terms),
                                        0.0, 0.0) for _ in range(5)))
        box = np.array(bounds or [[-1.0, 1.0]] * n_factors)
        points = rng.uniform(box[:, 0], box[:, 1], (200, n_factors))
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


def basin_seeds_reference(f_grid, per_axis, n_factors):
    """Local minima by 3**n_factors - 1 shifted comparisons against an
    +inf-padded cube, plus the _SEED_BEST first of a stable sort."""
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


class TestBasinSeeds:
    @pytest.mark.parametrize("n_factors", [1, 2, 3])
    @pytest.mark.parametrize("levels", [None, 3])
    def test_matches_reference_on_seeded_grids(self, n_factors, levels):
        # levels: None for continuous values, else that many distinct values,
        # so plateaus and ties are everywhere
        rng = np.random.default_rng(46 + n_factors)
        for _ in range(20):
            size = 21 ** n_factors
            f = (rng.random(size) if levels is None
                 else rng.integers(0, levels, size).astype(float))
            assert np.array_equal(_basin_seeds(f, 21, n_factors),
                                  basin_seeds_reference(f, 21, n_factors))

    def test_plateau_keeps_every_point(self):
        f = np.full(21 ** 3, 0.25)
        seeds = _basin_seeds(f, 21, 3)
        assert np.array_equal(seeds, np.arange(21 ** 3))
        assert np.array_equal(seeds, basin_seeds_reference(f, 21, 3))

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
        seeds = _basin_seeds(f, 21, 3)
        assert np.array_equal(seeds, basin_seeds_reference(f, 21, 3))
        assert np.isin(low, seeds).all()
        assert np.array_equal(ties[np.isin(ties, seeds)], ties[:3])


class TestSearchGrid:
    def test_arrays_are_read_only_and_survive_minimize(self, reference_models):
        grid, squares = _search_grid(3)
        before = grid.copy(), squares.copy()
        assert not grid.flags.writeable
        assert not squares.flags.writeable
        minimize(ObjectiveSpec(models=reference_models))
        minimize(ObjectiveSpec(models=random_models(np.random.default_rng(48))))
        assert _search_grid(3)[0] is grid
        assert np.array_equal(grid, before[0])
        assert np.array_equal(squares, before[1])

    def test_precomputed_monomials_give_the_same_bits(self):
        grid, squares = _search_grid(3)
        tensors = _tensor_form(random_models(np.random.default_rng(49)))
        assert np.array_equal(_f_batch(tensors, grid, squares),
                              _f_batch(tensors, grid))

    def test_grid_oracle_leaves_the_cache_alone(self):
        spec = ObjectiveSpec(models=random_models(np.random.default_rng(50)))
        before = _search_grid.cache_info()
        grid_oracle(spec, 21)
        assert _search_grid.cache_info() == before


class TestMinimize:
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
        opt = minimize(spec, space=default_space)
        assert opt.point[2] == pytest.approx(0.882 / 1.08, abs=1e-7)
        assert opt.physical[2] == pytest.approx(1.225, abs=1e-6)

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
        spec = ObjectiveSpec(models=reference_models)
        opt = minimize(spec)
        for value, model in zip(opt.predicted, reference_models):
            expected = (model_matrix(opt.point) @ model.coefficients)[0]
            assert value == pytest.approx(expected, abs=1e-12)

    def test_convergence_report_populated(self, reference_models):
        opt = minimize(ObjectiveSpec(models=reference_models))
        # frozen at the switch to basin seeding: the reference objective has
        # one grid local minimum, inside the 8 best grid points
        assert opt.report.starts == 8
        assert opt.report.iterations > 0
        assert opt.report.gradient_norm <= 1e-6

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
        # A model-matrix scan peaks at 10.5 MiB here and the tensor-form F at
        # 8.9 MiB; an F that builds the (n, f, m) gradient tensor peaks at 20.
        spec = ObjectiveSpec(models=random_models(np.random.default_rng(45)))
        grid_oracle(spec, 3)
        tracemalloc.start()
        try:
            grid_oracle(spec, 41)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 2 ** 20


class TestObjectiveSpec:
    def test_needs_models(self):
        with pytest.raises(ValidationError):
            ObjectiveSpec(models=())

    def test_factor_count_consistency(self):
        two = QuadraticModel("Y", ("X1", "X2"), np.zeros(6), 0.0, 0.0)
        with pytest.raises(ValidationError):
            ObjectiveSpec(models=(model_from_terms(), two))
