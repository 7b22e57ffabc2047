import dataclasses
import tracemalloc

import numpy as np
import pytest

from earforge.errors import NumericError, ValidationError
from earforge.optimizer import (ObjectiveSpec, _f_batch, _grad_batch,
                                _tensor_form, grid_oracle, minimize)
from earforge.rsm import QuadraticModel, model_matrix, term_names


def objective_f(spec, point):
    """F at one point, through the batch evaluator minimize uses."""
    return float(_f_batch(_tensor_form(spec), np.asarray(point)[None, :])[0])


def objective_gradient(spec, point):
    """Gradient of F at one point, through the batch evaluator minimize uses."""
    return _grad_batch(_tensor_form(spec), np.asarray(point)[None, :])[0]


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
        rng = np.random.default_rng(44)
        names = tuple(f"X{k + 1}" for k in range(n_factors))
        n_terms = len(term_names(names))
        spec = ObjectiveSpec(
            models=tuple(QuadraticModel("Y", names, rng.normal(0, 1, n_terms),
                                        0.0, 0.0) for _ in range(5)),
            bounds=bounds)
        points = rng.uniform(spec.bounds[:, 0], spec.bounds[:, 1],
                             (200, n_factors))
        coef = spec.coefficient_stack()
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

    def test_point_respects_custom_bounds_exactly(self):
        # minimum of (X1 - 2)^2 over X1 <= 0.5 sits on the bound
        spec = ObjectiveSpec(models=(model_from_terms(**{"1": -2.0, "X1": 1.0}),),
                             bounds=np.array([[-0.5, 0.5], [-1, 1], [-1, 1]]))
        opt = minimize(spec)
        assert opt.point[0] == 0.5
        assert np.all(opt.point >= spec.bounds[:, 0])
        assert np.all(opt.point <= spec.bounds[:, 1])

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

    def test_bounds_shape_checked(self):
        with pytest.raises(ValidationError):
            ObjectiveSpec(models=(model_from_terms(),),
                          bounds=np.array([[1.0, -1.0], [-1, 1], [-1, 1]]))

    def test_factor_count_consistency(self):
        two = QuadraticModel("Y", ("X1", "X2"), np.zeros(6), 0.0, 0.0)
        with pytest.raises(ValidationError):
            ObjectiveSpec(models=(model_from_terms(), two))

    def test_default_bounds_are_unit_box(self):
        assert np.array_equal(ZERO_SPEC.bounds,
                              [[-1, 1], [-1, 1], [-1, 1]])
