import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from earforge import modal
from earforge.errors import ValidationError
from earforge.geometry import THETA, ContourProfile, deviation_vector
from earforge.modal import (ModalCoordinates, analytic_mode,
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

    def test_modes_match_analytic_cosines(self, basis36, chain_eigensolve):
        # the basis is the analytic cosines, and they are the chain's
        # eigenvectors: the eigen-solve reproduces them to roundoff
        for k in range(1, 6):
            assert np.array_equal(basis36.modes[:, k - 1], analytic_mode(k))
            err = np.max(np.abs(basis36.modes[:, k - 1]
                                - chain_eigensolve.modes[:, k - 1]))
            assert err <= 0.02
            assert err <= 1e-12  # the lumped chain reproduces them exactly

    def test_pulsations_match_the_eigen_solve(self, basis36, chain_eigensolve):
        ref = chain_eigensolve.pulsations
        assert basis36.pulsations[0] == 0.0
        assert np.allclose(basis36.pulsations[1:], ref[1:], rtol=1e-12, atol=0)

    def test_basis_is_solved_once(self, basis36):
        # every call returns the one shared five-mode basis, whose arrays
        # test_shared_basis_is_read_only finds read-only
        assert build_modal_basis() is basis36
        assert build_modal_basis() is build_modal_basis()
        assert basis36.modes.shape == (36, 5)
        assert basis36.pulsations.shape == (5,)

    def test_takes_no_argument(self):
        # the mode count is N_MODES, not a parameter
        for args, kwargs in (((5,), {}), ((20,), {}), ((), {"n_modes": 5})):
            with pytest.raises(TypeError):
                build_modal_basis(*args, **kwargs)

    def test_mode_table_is_the_same_on_every_machine(self, basis36,
                                                     emulated_machines):
        # the closed form calls no BLAS and no eigen-solver, so a process
        # whose numpy and OpenBLAS take other kernels builds the same bits
        script = ("import hashlib\n"
                  "from earforge.modal import build_modal_basis\n"
                  "b = build_modal_basis()\n"
                  "for a in (b.modes, b.pulsations):\n"
                  "    print(hashlib.sha256(a.tobytes()).hexdigest())\n")
        native = [hashlib.sha256(a.tobytes()).hexdigest()
                  for a in (basis36.modes, basis36.pulsations)]
        src = str(Path(modal.__file__).parents[1])
        for name, settings in emulated_machines.items():
            env = dict(os.environ, PYTHONPATH=src, **settings)
            done = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, timeout=60)
            assert done.returncode == 0, done.stderr
            assert done.stdout.split() == native, name

    def test_shared_basis_is_read_only(self, basis36):
        for array in (basis36.modes, basis36.pulsations, basis36.mass):
            with pytest.raises(ValueError):
                array[0] = 0.0
        with pytest.raises(ValueError):
            basis36.modes[:, 1] *= 2.0
        assert np.allclose(basis36.modes[:, 0], 1.0, rtol=0, atol=1e-12)


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
        coords = project(3.0 * basis36.modes[:, 0])
        assert np.allclose(coords.lambdas, [3, 0, 0, 0, 0], atol=1e-12)
        assert coords.residue == pytest.approx(0.0, abs=1e-12)

    def test_mode_combination(self, basis36):
        v = basis36.modes[:, 1] + 2.0 * basis36.modes[:, 2]
        coords = project(v)
        assert np.allclose(coords.lambdas, [0, 1, 2, 0, 0], atol=1e-9)
        assert coords.residue <= 1e-9

    def test_unit_coordinates_for_every_mode(self, basis36):
        for j in range(5):
            coords = project(basis36.modes[:, j])
            expected = np.zeros(5)
            expected[j] = 1.0
            assert np.allclose(coords.lambdas, expected, atol=1e-9)

    def test_matches_normal_equations_oracle(self, basis36):
        rng = np.random.default_rng(11)
        for _ in range(25):
            v = rng.uniform(-1, 1, 36)
            coords = project(v)
            oracle = normal_equations_fit(basis36.modes, v)
            assert np.allclose(coords.lambdas, oracle, rtol=0, atol=1e-9)

    def test_linearity(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            v1 = rng.uniform(-1, 1, 36)
            v2 = rng.uniform(-1, 1, 36)
            a, b = rng.uniform(-3, 3, 2)
            combined = project(a * v1 + b * v2).lambdas
            separate = a * project(v1).lambdas + b * project(v2).lambdas
            assert np.allclose(combined, separate, atol=1e-9)

    def test_span_vectors_reconstruct_exactly(self, basis36):
        rng = np.random.default_rng(13)
        for _ in range(25):
            lam = rng.uniform(-2, 2, 5)
            v = basis36.modes @ lam
            coords = project(v)
            assert coords.residue <= 1e-9
            assert np.allclose(basis36.modes @ coords.lambdas, v, atol=1e-9)

    def test_zero_vector_residue_defined_as_zero(self):
        coords = project(np.zeros(36))
        assert coords.residue == 0.0
        assert np.allclose(coords.lambdas, 0.0, atol=1e-15)

    def test_residue_matches_definition(self, basis36):
        rng = np.random.default_rng(14)
        v = rng.uniform(-1, 1, 36)
        coords = project(v)
        remainder = v - basis36.modes @ coords.lambdas
        assert coords.residue == pytest.approx(
            np.max(np.abs(remainder)) / np.max(np.abs(v)), abs=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            project(np.ones(20))

    def test_nonfinite_rejected(self):
        v = np.ones(36)
        v[0] = np.inf
        with pytest.raises(ValidationError):
            project(v)


class TestReconstruct:
    def test_zero_coordinates(self, basis36):
        coords = ModalCoordinates(lambdas=np.zeros(5), residue=0.0)
        assert np.array_equal(basis36.modes @ coords.lambdas, np.zeros(36))

    def test_reported_residue_matches_reconstruction(self, basis36):
        rng = np.random.default_rng(16)
        v = rng.uniform(-1, 1, 36)
        coords = project(v)
        err = np.max(np.abs(v - basis36.modes @ coords.lambdas))
        assert err == pytest.approx(coords.residue * np.max(np.abs(v)), abs=1e-12)


class TestCoordinatesCsv:
    def test_roundtrip(self):
        coords = project(np.linspace(-1, 1, 36))
        text = coordinates_text(coords)
        assert text.startswith("mode,lambda_mm\n") and text.endswith("\n")
        rows = [line.split(",") for line in text.splitlines()[1:]]
        assert [r[0] for r in rows] == ["1", "2", "3", "4", "5", "residue"]
        back = np.array([float(r[1]) for r in rows[:-1]])
        assert np.array_equal(back, coords.lambdas)
        assert float(rows[-1][1]) == coords.residue


class TestDecompose:
    def test_projects_the_deviation_vector_on_every_mode(self):
        profile = ContourProfile(35.2 + 0.4 * np.cos(4 * THETA)
                                 - 0.1 * np.cos(2 * THETA))
        coords = decompose(profile, 35.0)
        expected = project(deviation_vector(profile, 35.0))
        assert coords.lambdas.shape == (5,)
        assert np.array_equal(coords.lambdas, expected.lambdas)
        assert coords.residue == expected.residue

    def test_target_height_validated(self):
        with pytest.raises(ValidationError):
            decompose(ContourProfile(np.full(144, 35.0)), 0.0)
