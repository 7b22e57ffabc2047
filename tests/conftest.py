"""Shared fixtures: the reference forming campaign and common objects.

tests/data/reference_fem_runs.csv holds the published 15-run press campaign
(finite-element rim decompositions) used to validate the design generator,
the regression, and the optimizer against real data. The table does not
reproduce the published optimum (117.05, 0, -0.807): refitted, it puts the
optimum at (116.76, 0.45, -0.34), which is what criterion 2 checks.
"""

import csv
from pathlib import Path

import numpy as np
import pytest

from earforge import ccd_design, default_factor_space, fit_quadratic
from earforge.modal import build_modal_basis
from earforge.rsm import ResponseTable

DATA_DIR = Path(__file__).parent / "data"


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
def reference_models(default_space, default_design, reference_runs):
    """Quadratic surfaces fitted to the reference campaign responses."""
    _, responses, _ = reference_runs
    table = ResponseTable(names=("L1", "L2", "L3", "L4", "L5"),
                          values=responses)
    return tuple(fit_quadratic(default_design, table,
                               factor_names=default_space.names))
