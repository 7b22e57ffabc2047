import math

import numpy as np
import pytest

from earforge.doe import (Factor, FactorSpace, ROLE_CENTER, ROLE_FACTORIAL,
                          ROLE_STAR, ccd_design, to_physical, write_design_csv)
from earforge.errors import ValidationError


class TestCcdDesign:
    def test_point_count_and_roles(self, default_design):
        assert default_design.n_points == 15
        assert default_design.roles.count(ROLE_FACTORIAL) == 8
        assert default_design.roles.count(ROLE_CENTER) == 1
        assert default_design.roles.count(ROLE_STAR) == 6

    def test_reference_rows(self, default_design):
        pts = default_design.points
        assert np.array_equal(pts[0], [-1, -1, -1])
        assert np.array_equal(pts[8], [0, 0, 0])
        assert np.array_equal(pts[9], [-1.287, 0, 0])

    def test_factorial_order_last_factor_fastest(self, default_design):
        pts = default_design.points
        assert np.array_equal(pts[1], [-1, -1, 1])
        assert np.array_equal(pts[2], [-1, 1, -1])
        assert np.array_equal(pts[7], [1, 1, 1])

    def test_star_pairs_in_factor_order(self, default_design):
        pts = default_design.points
        assert np.array_equal(pts[10], [1.287, 0, 0])
        assert np.array_equal(pts[11], [0, -1.287, 0])
        assert np.array_equal(pts[14], [0, 0, 1.287])

    def test_physical_columns_match_reference_campaign(self, default_space,
                                                       default_design,
                                                       reference_runs):
        physical = to_physical(default_space, default_design.points)
        reference, _, roles = reference_runs
        assert np.max(np.abs(physical - reference)) <= 0.005
        assert tuple(roles) == ccd_design(default_space).roles

    def test_two_factor_face_centered(self):
        space = FactorSpace((Factor("X1", 0, 1), Factor("X2", 0, 1)), alpha=1.0)
        design = ccd_design(space)
        assert design.n_points == 9
        stars = design.points[[r == ROLE_STAR for r in design.roles]]
        assert np.max(np.abs(stars)) == 1.0

    def test_column_balance_is_exact(self, default_design):
        sums = default_design.points.sum(axis=0)
        assert np.array_equal(sums, np.zeros(3))

    def test_factor_count_limits(self):
        with pytest.raises(ValidationError):
            ccd_design(FactorSpace((Factor("X1", 0, 1),)))
        seven = tuple(Factor(f"X{i}", 0, 1) for i in range(7))
        with pytest.raises(ValidationError):
            ccd_design(FactorSpace(seven))


class TestCoordinateMaps:
    def test_star_level_physical_values(self, default_space):
        low_star = to_physical(default_space, np.array([-1.287, 0, 0]))
        assert low_star[0] == pytest.approx(115.07, abs=0.005)
        high_a1 = to_physical(default_space, np.array([0, 1.287, 0]))
        assert high_a1[1] == pytest.approx(1.93, abs=0.005)

    def test_center_maps_to_center(self, default_space):
        assert np.array_equal(to_physical(default_space, np.zeros(3)),
                              [117.0, 0.0, 0.0])

    def test_length_validation(self, default_space):
        with pytest.raises(ValidationError):
            to_physical(default_space, np.zeros(2))


class TestFactorValidation:
    def test_half_range_positive(self):
        with pytest.raises(ValidationError):
            Factor("D", 117.0, 0.0)

    def test_alpha_at_least_one(self):
        for alpha in (0.9, math.nan, math.inf):
            with pytest.raises(ValidationError, match="finite and >= 1"):
                FactorSpace((Factor("D", 117, 1.5),), alpha=alpha)

    def test_duplicate_names(self):
        with pytest.raises(ValidationError):
            FactorSpace((Factor("D", 117, 1.5), Factor("D", 0, 1.5)))

    def test_default_space_layout(self, default_space):
        assert default_space.names == ("D", "A1", "A2")
        assert default_space.alpha == 1.287
        assert default_space.factors[0].center == 117.0
        assert default_space.factors[0].half_range == 1.5


class TestDesignCsv:
    def test_roundtrip(self, tmp_path, default_space, default_design):
        path = tmp_path / "design.csv"
        write_design_csv(path, default_space, default_design)
        text = path.read_text()
        assert text.startswith("run,role,D,A1,A2\n")
        rows = [line.split(",") for line in text.splitlines()[1:]]
        assert [int(r[0]) for r in rows] == list(range(1, 16))
        assert tuple(r[1] for r in rows) == default_design.roles
        physical = np.array([[float(v) for v in r[2:]] for r in rows])
        assert np.array_equal(physical,
                              to_physical(default_space, default_design.points))
