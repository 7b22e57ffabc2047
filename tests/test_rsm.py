import numpy as np
import pytest

from earforge.doe import DesignMatrix
from earforge.errors import ValidationError
from earforge.rsm import (QuadraticModel, ResponseTable, fit_quadratic,
                          model_matrix, term_names)


FACTORS = ("D", "A1", "A2")


def evaluate(model, points):
    """The fitted surface at normalized points: model matrix times coefficients."""
    return model_matrix(points) @ model.coefficients


def normal_equations_fit(points, y):
    """Independent oracle: explicit normal-equations solve of the 10-term fit."""
    a = model_matrix(points)
    return np.linalg.solve(a.T @ a, a.T @ y)


def make_table(values, names=None):
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if values.shape[0] == 1:
        values = values.T
    if names is None:
        names = tuple(f"Y{i+1}" for i in range(values.shape[1]))
    return ResponseTable(names=names, values=values)


class TestFitQuadratic:
    def test_exact_recovery_of_in_space_data(self, default_design):
        x = default_design.points
        y = 1.0 + 2.0 * x[:, 0] - 3.0 * x[:, 2] ** 2
        model, = fit_quadratic(default_design, make_table(y), FACTORS)
        expected = np.zeros(10)
        expected[0], expected[1], expected[9] = 1.0, 2.0, -3.0
        assert np.max(np.abs(model.coefficients - expected)) <= 1e-8
        assert model.max_abs_residual <= 1e-8

    def test_constant_response(self, default_design):
        model, = fit_quadratic(default_design, make_table(np.full(15, 4.2)),
                               FACTORS)
        assert model.coefficients[0] == pytest.approx(4.2, abs=1e-10)
        assert np.max(np.abs(model.coefficients[1:])) <= 1e-10

    def test_reference_linear_diameter_coefficient(self, reference_models,
                                                   default_design,
                                                   reference_runs):
        _, responses, _ = reference_runs
        l1 = reference_models[0]
        oracle = normal_equations_fit(default_design.points, responses[:, 0])
        assert np.max(np.abs(l1.coefficients - oracle)) <= 1e-8
        assert l1.coefficients[1] == pytest.approx(1.3136996543188748, abs=1e-9)
        assert l1.coefficients[1] == pytest.approx(1.33, abs=0.02)

    def test_diagnostics_match_recomputed_residuals(self, reference_models,
                                                    default_design,
                                                    reference_runs):
        _, responses, _ = reference_runs
        for j, model in enumerate(reference_models):
            r = responses[:, j] - evaluate(model, default_design.points)
            assert model.max_abs_residual == pytest.approx(np.max(np.abs(r)),
                                                           abs=1e-12)
            assert model.residual_rms == pytest.approx(
                np.sqrt(np.mean(r * r)), abs=1e-12)

    def test_point_order_permutation_invariance(self, default_design,
                                                reference_runs):
        _, responses, _ = reference_runs
        rng = np.random.default_rng(31)
        perm = rng.permutation(15)
        shuffled = DesignMatrix(points=default_design.points[perm],
                                roles=tuple(default_design.roles[i] for i in perm))
        base, = fit_quadratic(default_design, make_table(responses[:, 0]),
                              FACTORS)
        permuted, = fit_quadratic(shuffled, make_table(responses[perm, 0]),
                                  FACTORS)
        assert np.allclose(base.coefficients, permuted.coefficients,
                           rtol=0, atol=1e-12)

    def test_refit_on_own_predictions_is_identity(self, reference_models,
                                                  default_design):
        model = reference_models[2]
        y = evaluate(model, default_design.points)
        refit, = fit_quadratic(default_design, make_table(y), FACTORS)
        assert np.allclose(refit.coefficients, model.coefficients,
                           rtol=0, atol=1e-10)

    def test_singular_design_is_refused(self, default_design):
        pts = default_design.points.copy()
        pts[:, 2] = pts[:, 1]  # A2 duplicates A1
        degenerate = DesignMatrix(points=pts, roles=default_design.roles)
        y = make_table(np.arange(15.0))
        with pytest.raises(ValidationError, match="rank deficient"):
            fit_quadratic(degenerate, y, FACTORS)

    def test_too_few_points(self, default_design):
        small = DesignMatrix(points=default_design.points[:9],
                             roles=default_design.roles[:9])
        with pytest.raises(ValidationError):
            fit_quadratic(small, make_table(np.arange(9.0)), FACTORS)

    def test_response_row_count_mismatch(self, default_design):
        with pytest.raises(ValidationError):
            fit_quadratic(default_design, make_table(np.arange(14.0)),
                          FACTORS)


class TestPredict:
    def test_center_returns_intercept(self, reference_models):
        for model in reference_models:
            assert evaluate(model, np.zeros(3))[0] == model.coefficients[0]

    def test_single_linear_term(self):
        coef = np.zeros(10)
        coef[1] = 2.0
        model = QuadraticModel("Y", ("X1", "X2", "X3"), coef, 0.0, 0.0)
        assert evaluate(model, np.array([1.0, 0.0, 0.0]))[0] == 2.0
        assert evaluate(model, np.array([0.5, 9.0, -3.0]))[0] == 1.0


class TestInfluence:
    def test_reference_diagonal_structure(self, reference_models):
        # largest linear coefficient: D drives L1, A1 drives L2, A2 drives L3
        for model, factor in zip(reference_models, ("D", "A1", "A2")):
            linear = np.abs(model.coefficients[1:4])
            assert model.factor_names[int(np.argmax(linear))] == factor

    def test_reference_top_ranked_terms(self, reference_models):
        # largest non-constant term overall is that same linear term
        for model, factor in zip(reference_models, ("D", "A1", "A2")):
            top = 1 + int(np.argmax(np.abs(model.coefficients[1:])))
            assert model.terms[top] == factor


class TestSerialization:
    def test_term_names_order(self):
        assert term_names(("D", "A1", "A2")) == (
            "1", "D", "A1", "A2", "D*A1", "D*A2", "A1*A2",
            "D^2", "A1^2", "A2^2")
