from fractions import Fraction

import numpy as np
import pytest

from earforge.doe import FactorSpace, ccd_design
from earforge.errors import NumericError, ValidationError
from earforge.rsm import (QuadraticModel, ResponseTable, fit_quadratic,
                          model_matrix, term_names)


def evaluate(model, points):
    """The fitted surface at normalized points: model matrix times coefficients."""
    return model_matrix(points) @ model.coefficients


def normal_equations_fit(points, y):
    """Independent oracle: explicit normal-equations solve of the 10-term fit."""
    a = model_matrix(points)
    return np.linalg.solve(a.T @ a, a.T @ y)


def exact_fit(points, y):
    """Exact oracle: the least-squares coefficients of the 10-term fit,
    eliminated over the rationals from the points' and responses' exact
    binary values, then rounded once."""
    rows = [[Fraction(1), *map(Fraction, p)] for p in points.tolist()]
    rows = [r + [r[1] * r[2], r[1] * r[3], r[2] * r[3], r[1] ** 2, r[2] ** 2,
                 r[3] ** 2] for r in rows]
    ys = [Fraction(v) for v in y.tolist()]
    n = len(rows[0])
    # normal equations [AᵀA | Aᵀy], reduced by Gauss-Jordan elimination
    m = [[sum(r[i] * r[j] for r in rows) for j in range(n)]
         + [sum(r[i] * v for r, v in zip(rows, ys))] for i in range(n)]
    for c in range(n):
        pivot = next(i for i in range(c, n) if m[i][c] != 0)
        m[c], m[pivot] = m[pivot], m[c]
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c] / m[c][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return np.array([float(m[i][n] / m[i][i]) for i in range(n)])


def model_matrix_reference(points, names):
    """Term names and model matrix columns, built one column at a time."""
    x = np.atleast_2d(points)
    f = x.shape[1]
    terms = [("1", np.ones(len(x)))]
    terms += [(names[i], x[:, i]) for i in range(f)]
    for i in range(f):
        for j in range(i + 1, f):
            terms.append((f"{names[i]}*{names[j]}", x[:, i] * x[:, j]))
    terms += [(f"{names[i]}^2", x[:, i] ** 2) for i in range(f)]
    return tuple(t for t, _ in terms), np.column_stack([c for _, c in terms])


def make_table(values, names=None):
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if values.shape[0] == 1:
        values = values.T
    if names is None:
        names = tuple(f"Y{i+1}" for i in range(values.shape[1]))
    return ResponseTable(names=names, values=values)


class TestFitQuadratic:
    def test_exact_recovery_of_in_space_data(self, default_space,
                                             default_design):
        x = default_design.points
        y = 1.0 + 2.0 * x[:, 0] - 3.0 * x[:, 2] ** 2
        model, = fit_quadratic(make_table(y), default_space)
        expected = np.zeros(10)
        expected[0], expected[1], expected[9] = 1.0, 2.0, -3.0
        assert np.max(np.abs(model.coefficients - expected)) <= 1e-8
        assert model.max_abs_residual <= 1e-8

    def test_constant_response(self, default_space):
        model, = fit_quadratic(make_table(np.full(15, 4.2)), default_space)
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

    def test_refit_on_own_predictions_is_identity(self, reference_models,
                                                  default_space,
                                                  default_design):
        model = reference_models[2]
        y = evaluate(model, default_design.points)
        refit, = fit_quadratic(make_table(y), default_space)
        assert np.allclose(refit.coefficients, model.coefficients,
                           rtol=0, atol=1e-10)

    @pytest.mark.parametrize("alpha", [1.0, 1.287, 1.6, 2 ** 0.75])
    def test_matches_normal_equations_on_seeded_tables(self, default_space,
                                                       alpha):
        space = FactorSpace(default_space.factors, alpha)
        points = ccd_design(space).points
        rng = np.random.default_rng(33)
        worst = 0.0
        for _ in range(200):
            y = rng.normal(0, 1, (15, 5))
            got = [m.coefficients for m in fit_quadratic(make_table(y), space)]
            want = normal_equations_fit(points, y)
            worst = max(worst, float(np.max(np.abs(np.transpose(got) - want))
                                     / np.max(np.abs(want))))
        assert worst <= 1e-12

    @pytest.mark.parametrize("alpha", [1.287, 1e4, 1e7, 1e50])
    def test_matches_exact_least_squares(self, default_space, alpha):
        # the CCD's model matrix has condition ~alpha^2, so a factorization
        # loses digits as alpha grows; the closed form stays at roundoff
        space = FactorSpace(default_space.factors, alpha)
        points = ccd_design(space).points
        rng = np.random.default_rng(34)
        for _ in range(3):
            y = rng.normal(0, 1, 15)
            model, = fit_quadratic(make_table(y), space)
            want = exact_fit(points, y)
            assert (np.max(np.abs(model.coefficients - want))
                    <= 1e-12 * np.max(np.abs(want)))

    def test_overflowing_alpha_is_refused(self, default_space):
        space = FactorSpace(default_space.factors, 1e160)
        with pytest.raises(NumericError, match=r"overflows at alpha = 1e\+160$"):
            fit_quadratic(make_table(np.arange(15.0)), space)

    @pytest.mark.parametrize("rows", [9, 14, 16])
    def test_response_row_count_mismatch(self, default_space, rows):
        with pytest.raises(ValidationError,
                           match=f"^{rows} response rows for the design's 15 runs$"):
            fit_quadratic(make_table(np.arange(float(rows))), default_space)


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


class TestModelMatrix:
    def test_matches_column_by_column_reference(self):
        rng = np.random.default_rng(63)
        names = ("X1", "X2", "X3")
        for n_points in (1, 2, 9, 50):
            x = rng.uniform(-1, 1, (n_points, 3))
            want_terms, want = model_matrix_reference(x, names)
            got = model_matrix(x)
            assert got.shape == want.shape
            assert np.array_equal(got, want)
        assert term_names(names) == want_terms
        assert np.array_equal(model_matrix(x[0]), want[:1])


class TestSerialization:
    def test_term_names_order(self):
        assert term_names(("D", "A1", "A2")) == (
            "1", "D", "A1", "A2", "D*A1", "D*A2", "A1*A2",
            "D^2", "A1^2", "A2^2")

    @pytest.mark.parametrize("names", [("D", "A1"), ("D", "A1", "A2", "A3")],
                             ids=["two", "four"])
    def test_other_factor_counts_are_refused(self, names):
        n_terms = 1 + 2 * len(names) + len(names) * (len(names) - 1) // 2
        with pytest.raises(ValidationError, match="three factors"):
            term_names(names)
        with pytest.raises(ValidationError, match="three factors"):
            QuadraticModel("Y", names, np.zeros(n_terms), 0.0, 0.0)
