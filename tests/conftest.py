"""Shared fixtures: the reference forming campaign and common objects.

tests/data/reference_fem_runs.csv holds the published 15-run press campaign
(finite-element rim decompositions) used to validate the design generator,
the regression, and the optimizer against real data. The table does not
reproduce the published optimum (117.05, 0, -0.807): refitted, it puts the
optimum at (116.76, 0.45, -0.34), which is what criterion 2 checks.

`chain_eigensolve` is the reference the closed-form modal basis is checked
against: the quarter chain's eigenproblem, assembled and solved numerically.
`emulated_machines` holds environment settings under which a child process's
numpy and OpenBLAS dispatch to other kernels, as on another machine.
"""

import csv
from pathlib import Path

import numpy as np
import pytest

from earforge import ccd_design, default_factor_space, fit_quadratic
from earforge.modal import (N_MODES, ModalBasis, build_modal_basis,
                            lumped_mass_diagonal)
from earforge.rsm import ResponseTable

DATA_DIR = Path(__file__).parent / "data"


def second_difference_stiffness(n: int) -> np.ndarray:
    """Assembled second-difference stiffness of the unit-length free-free
    chain of n nodes."""
    h = 1.0 / (n - 1)
    k = np.zeros((n, n))
    for e in range(n - 1):
        k[e, e] += 1.0 / h
        k[e + 1, e + 1] += 1.0 / h
        k[e, e + 1] -= 1.0 / h
        k[e + 1, e] -= 1.0 / h
    return k


@pytest.fixture(scope="session")
def reference_runs():
    """Reference campaign as (physical_points, responses) arrays."""
    with (DATA_DIR / "reference_fem_runs.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    physical = np.array([[float(r["D"]), float(r["A1"]), float(r["A2"])]
                         for r in rows])
    responses = np.array([[float(r[f"L{i}"]) for i in range(1, 6)]
                          for r in rows])
    roles = [r["role"] for r in rows]
    return physical, responses, roles


@pytest.fixture(scope="session")
def default_space():
    return default_factor_space()


@pytest.fixture(scope="session")
def default_design(default_space):
    return ccd_design(default_space)


@pytest.fixture(scope="session")
def basis36():
    return build_modal_basis()


@pytest.fixture(scope="session")
def emulated_machines():
    """Environment settings, by name, that emulate two other x86-64 machines.

    They change the kernels numpy and OpenBLAS dispatch to, not the BLAS
    vendor, the libm or the CPU architecture.
    """
    return {
        # AVX2: no AVX-512 kernels in numpy, Haswell kernels in OpenBLAS
        "E1": {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
               "OPENBLAS_CORETYPE": "Haswell"},
        # numpy at its X86_V2 baseline, AVX-only OpenBLAS kernels
        "E2": {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR",
               "OPENBLAS_CORETYPE": "Sandybridge"},
    }


@pytest.fixture(scope="session")
def chain_eigensolve():
    """The chain's N_MODES lowest modes from the generalized eigenproblem
    (K - w^2 M) Q = 0, solved with eigh after M^(-1/2) scaling.

    Each mode is normalized to unit infinity-norm with the sign fixed so the
    first non-zero entry is positive, as the closed-form basis is.
    """
    m = lumped_mass_diagonal()
    k = second_difference_stiffness(m.size)
    inv_sqrt_m = 1.0 / np.sqrt(m)
    s = k * inv_sqrt_m[None, :] * inv_sqrt_m[:, None]
    eigvals, eigvecs = np.linalg.eigh(0.5 * (s + s.T))
    modes = inv_sqrt_m[:, None] * eigvecs[:, :N_MODES]
    modes /= np.max(np.abs(modes), axis=0)
    for i in range(N_MODES):
        col = modes[:, i]
        if col[np.flatnonzero(np.abs(col) > 1e-12)[0]] < 0:
            modes[:, i] = -col
    pulsations = np.sqrt(np.clip(eigvals[:N_MODES], 0.0, None))
    return ModalBasis(modes=modes, pulsations=pulsations, mass=m)


@pytest.fixture(scope="session")
def reference_models(default_space, default_design, reference_runs):
    """Quadratic surfaces fitted to the reference campaign responses."""
    _, responses, _ = reference_runs
    table = ResponseTable(names=("L1", "L2", "L3", "L4", "L5"),
                          values=responses)
    return tuple(fit_quadratic(default_design, table,
                               factor_names=default_space.names))
