import numpy as np
import pytest

from earforge.errors import ValidationError
from earforge.geometry import THETA, ContourProfile, deviation_vector
from earforge.modal import (ModalBasis, ModalCoordinates, analytic_mode,
                            build_modal_basis, coordinates_text, decompose,
                            lumped_mass_diagonal, project)


def normal_equations_fit(q, v):
    """Independent oracle: solve the normal equations of the dense fit."""
    gram = q.T @ q
    return np.linalg.solve(gram, q.T @ v)


class TestBasisConstruction:
    def test_first_mode_is_rigid_body(self, basis36):
        assert np.allclose(basis36.modes[:, 0], 1.0, rtol=0, atol=1e-12)

    def test_rigid_mode_pulsation_is_numerically_zero(self, basis36):
        assert basis36.pulsations[0] <= 1e-6 * basis36.pulsations[1]

    def test_pulsations_ascend(self, basis36):
        assert np.all(np.diff(basis36.pulsations) > 0)

    def test_unit_infinity_norm(self, basis36):
        assert np.allclose(np.max(np.abs(basis36.modes), axis=0), 1.0,
                           rtol=0, atol=1e-12)

    def test_mass_orthogonality(self, basis36):
        q = basis36.modes
        m = lumped_mass_diagonal()
        gram = q.T @ (m[:, None] * q)
        norms = np.linalg.norm(q, axis=0)
        for i in range(q.shape[1]):
            for j in range(q.shape[1]):
                if i != j:
                    assert abs(gram[i, j]) <= 1e-9 * norms[i] * norms[j]

    def test_modes_match_analytic_cosines(self, basis36):
        for k in range(1, 6):
            err = np.max(np.abs(basis36.modes[:, k - 1] - analytic_mode(k)))
            assert err <= 0.02
            assert err <= 1e-12  # the lumped chain reproduces them exactly

    def test_basis_is_solved_once_per_size(self, basis36):
        assert build_modal_basis() is basis36
        assert build_modal_basis(n_modes=5) is basis36
        assert build_modal_basis(n_modes=4) is build_modal_basis(n_modes=4)
        assert build_modal_basis(n_modes=4) is not basis36

    def test_mode_count_is_keyword_only(self):
        # a positional count is refused: it cannot be misread as 20 nodes
        with pytest.raises(TypeError):
            build_modal_basis(20)

    def test_shared_basis_is_read_only(self, basis36):
        for array in (basis36.modes, basis36.pulsations, basis36.mass):
            with pytest.raises(ValueError):
                array[0] = 0.0
        with pytest.raises(ValueError):
            basis36.modes[:, 1] *= 2.0
        assert np.allclose(basis36.modes[:, 0], 1.0, rtol=0, atol=1e-12)

    def test_mode_count_validation(self):
        with pytest.raises(ValidationError):
            build_modal_basis(n_modes=1)
        with pytest.raises(ValidationError, match="need 2 <= n_modes <= n_nodes, "
                                                  "got n_modes=37, n_nodes=36"):
            build_modal_basis(n_modes=37)


class TestAnalyticMode:
    def test_constant_term(self):
        assert np.array_equal(analytic_mode(1), np.ones(36))

    def test_half_wave_endpoints(self):
        mode = analytic_mode(2)
        assert mode[0] == pytest.approx(1.0)
        assert mode[35] == pytest.approx(-1.0)

    def test_full_wave_dips_at_midspan(self):
        mode = analytic_mode(3)
        # the -1 minimum at midspan falls between nodes 17 and 18
        assert mode[17] == pytest.approx(mode[18], abs=1e-12)
        assert mode[17] < -0.99

    def test_index_validation(self):
        with pytest.raises(ValidationError):
            analytic_mode(0)


class TestProjection:
    def test_single_mode_vector(self, basis36):
        coords = project(3.0 * basis36.modes[:, 0], basis36)
        assert np.allclose(coords.lambdas, [3, 0, 0, 0, 0], atol=1e-12)
        assert coords.residue == pytest.approx(0.0, abs=1e-12)

    def test_mode_combination(self, basis36):
        v = basis36.modes[:, 1] + 2.0 * basis36.modes[:, 2]
        coords = project(v, basis36)
        assert np.allclose(coords.lambdas, [0, 1, 2, 0, 0], atol=1e-9)
        assert coords.residue <= 1e-9

    def test_unit_coordinates_for_every_mode(self, basis36):
        for j in range(5):
            coords = project(basis36.modes[:, j], basis36)
            expected = np.zeros(5)
            expected[j] = 1.0
            assert np.allclose(coords.lambdas, expected, atol=1e-9)

    def test_matches_normal_equations_oracle(self, basis36):
        rng = np.random.default_rng(11)
        for _ in range(25):
            v = rng.uniform(-1, 1, 36)
            coords = project(v, basis36)
            oracle = normal_equations_fit(basis36.modes, v)
            assert np.allclose(coords.lambdas, oracle, rtol=0, atol=1e-9)

    def test_linearity(self, basis36):
        rng = np.random.default_rng(12)
        for _ in range(10):
            v1 = rng.uniform(-1, 1, 36)
            v2 = rng.uniform(-1, 1, 36)
            a, b = rng.uniform(-3, 3, 2)
            combined = project(a * v1 + b * v2, basis36).lambdas
            separate = (a * project(v1, basis36).lambdas
                        + b * project(v2, basis36).lambdas)
            assert np.allclose(combined, separate, atol=1e-9)

    def test_span_vectors_reconstruct_exactly(self, basis36):
        rng = np.random.default_rng(13)
        for _ in range(25):
            lam = rng.uniform(-2, 2, 5)
            v = basis36.modes @ lam
            coords = project(v, basis36)
            assert coords.residue <= 1e-9
            assert np.allclose(basis36.modes @ coords.lambdas, v, atol=1e-9)

    def test_zero_vector_residue_defined_as_zero(self, basis36):
        coords = project(np.zeros(36), basis36)
        assert coords.residue == 0.0
        assert np.allclose(coords.lambdas, 0.0, atol=1e-15)

    def test_residue_matches_definition(self, basis36):
        rng = np.random.default_rng(14)
        v = rng.uniform(-1, 1, 36)
        coords = project(v, basis36)
        remainder = v - basis36.modes @ coords.lambdas
        assert coords.residue == pytest.approx(
            np.max(np.abs(remainder)) / np.max(np.abs(v)), abs=1e-15)

    def test_truncated_euclidean_residual_is_monotone(self, basis36):
        # the 2-norm of a least-squares remainder cannot grow when the fit
        # gains basis vectors
        rng = np.random.default_rng(15)
        for _ in range(50):
            v = rng.uniform(-1, 1, 36)
            norms = []
            for k in range(1, 6):
                sliced = ModalBasis(modes=basis36.modes[:, :k],
                                    pulsations=basis36.pulsations[:k],
                                    mass=basis36.mass)
                coords = project(v, sliced)
                rem = v - basis36.modes[:, :k] @ coords.lambdas
                norms.append(np.linalg.norm(rem))
            assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))

    def test_length_mismatch(self, basis36):
        with pytest.raises(ValidationError):
            project(np.ones(20), basis36)

    def test_nonfinite_rejected(self, basis36):
        v = np.ones(36)
        v[0] = np.inf
        with pytest.raises(ValidationError):
            project(v, basis36)


class TestReconstruct:
    def test_zero_coordinates(self, basis36):
        coords = ModalCoordinates(lambdas=np.zeros(5), residue=0.0)
        assert np.array_equal(basis36.modes @ coords.lambdas, np.zeros(36))

    def test_reported_residue_matches_reconstruction(self, basis36):
        rng = np.random.default_rng(16)
        v = rng.uniform(-1, 1, 36)
        coords = project(v, basis36)
        err = np.max(np.abs(v - basis36.modes @ coords.lambdas))
        assert err == pytest.approx(coords.residue * np.max(np.abs(v)), abs=1e-12)


class TestCoordinatesCsv:
    def test_roundtrip(self, basis36):
        coords = project(np.linspace(-1, 1, 36), basis36)
        text = coordinates_text(coords)
        assert text.startswith("mode,lambda_mm\n") and text.endswith("\n")
        rows = [line.split(",") for line in text.splitlines()[1:]]
        assert [r[0] for r in rows] == ["1", "2", "3", "4", "5", "residue"]
        back = np.array([float(r[1]) for r in rows[:-1]])
        assert np.array_equal(back, coords.lambdas)
        assert float(rows[-1][1]) == coords.residue


class TestDecompose:
    @pytest.mark.parametrize("n_modes", [2, 5, 9])
    def test_projects_the_deviation_vector_on_every_mode(self, n_modes):
        profile = ContourProfile(35.2 + 0.4 * np.cos(4 * THETA)
                                 - 0.1 * np.cos(2 * THETA))
        basis = build_modal_basis(n_modes=n_modes)
        coords = decompose(profile, 35.0, basis)
        expected = project(deviation_vector(profile, 35.0), basis)
        assert coords.lambdas.shape == (n_modes,)
        assert np.array_equal(coords.lambdas, expected.lambdas)
        assert coords.residue == expected.residue

    def test_target_height_validated(self, basis36):
        with pytest.raises(ValidationError):
            decompose(ContourProfile(np.full(144, 35.0)), 0.0, basis36)
