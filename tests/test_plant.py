import math

import numpy as np
import pytest

from earforge import campaign as cp
from earforge.doe import Factor, FactorSpace
from earforge.errors import (AmbiguousProfileError, InsufficientDataError,
                             InvalidBlankError, ValidationError)
from earforge.geometry import (THETA, BlankSpec, ContourProfile,
                               deviation_vector, ear_amplitude, quarter_nodes,
                               read_rim_csv, write_contour_csv)
from earforge.modal import (analytic_mode, decompose,
                            project)
from earforge.plant import (DC05, MaterialAnisotropy, SurrogateParams,
                            ingest_profile, simulate)

ISOTROPIC = MaterialAnisotropy(2.0, 2.0, 2.0)


def ring(n):
    """n uniform angles 2*pi*k/n over [0, 2*pi): an export's sampling."""
    return 2.0 * np.pi * np.arange(n) / n


class TestMaterial:
    def test_dc05_planar_anisotropy(self):
        assert DC05.delta_r == pytest.approx(0.845, abs=1e-12)

    def test_isotropic_sheet_has_zero_delta_r(self):
        assert ISOTROPIC.delta_r == 0.0

    def test_positive_lankford_required(self):
        with pytest.raises(ValidationError):
            MaterialAnisotropy(0.0, 1.0, 1.0)


class TestSimulate:
    def test_calibrated_initial_amplitude(self):
        params = SurrogateParams()
        profile = simulate(BlankSpec(116.63), DC05, params)
        expected = 2.0 * params.c_ear * DC05.delta_r  # = 1.719744
        assert ear_amplitude(profile) == pytest.approx(expected, abs=1e-9)
        assert ear_amplitude(profile) == pytest.approx(1.72, abs=5e-4)

    def test_mean_height_at_reference_blank(self):
        profile = simulate(BlankSpec(116.63), DC05)
        assert np.mean(profile.height) == pytest.approx(34.69, abs=1e-12)

    def test_isotropic_circular_blank_is_flat(self):
        params = SurrogateParams(c8=0.0)
        profile = simulate(BlankSpec(116.63), ISOTROPIC, params)
        assert ear_amplitude(profile) <= 1e-12

    def test_four_lobe_cancellation(self):
        params = SurrogateParams(c8=0.0, kappa4_6=0.0)
        a2 = -params.c_ear * DC05.delta_r / params.g4
        assert a2 == pytest.approx(-0.807, abs=5e-4)
        profile = simulate(BlankSpec(116.63, a2=a2), DC05, params)
        assert ear_amplitude(profile) <= 1e-12

    def test_mirror_symmetries(self):
        profile = simulate(BlankSpec(117.3, a1=0.8, a2=-1.2), DC05)
        n = profile.height.size
        h = profile.height
        for k in range(1, n):
            assert h[k] == pytest.approx(h[n - k], abs=1e-12)
        for k in range(n):
            assert h[k] == pytest.approx(h[(n // 2 - k) % n], abs=1e-12)

    def test_invalid_blank_propagates(self):
        with pytest.raises(InvalidBlankError):
            simulate(BlankSpec(4.0, a2=2.5), DC05)

    def test_deterministic(self):
        a = simulate(BlankSpec(117.0, 0.5, -0.5), DC05)
        b = simulate(BlankSpec(117.0, 0.5, -0.5), DC05)
        assert np.array_equal(a.height, b.height)


class TestIngestProfile:
    def test_roundtrip_from_simulation(self, tmp_path):
        profile = simulate(BlankSpec(117.0, 0.6, -0.9), DC05)
        path = tmp_path / "run.csv"
        write_contour_csv(path, profile)
        back = ingest_profile(path)
        assert np.max(np.abs(back.height - profile.height)) <= 1e-9
        assert np.max(np.abs(back.theta - profile.theta)) <= 1e-12

    def test_rim_on_the_grid_reads_back_bit_for_bit(self, tmp_path):
        # `report` reads a campaign's rims through ingest and holds the
        # verified numbers to them bit for bit
        rng = np.random.default_rng(3)
        for i in range(20):
            height = 35.0 + rng.normal(size=144)
            height[i] = (-0.0, 5e-324, 1e7, -1e-7)[i % 4]
            path = tmp_path / f"rim_{i}.csv"
            write_contour_csv(path, ContourProfile(height))
            assert ingest_profile(path).height.tobytes() == height.tobytes()

    def test_constant_profile(self, tmp_path):
        path = tmp_path / "flat.csv"
        write_contour_csv(path, ContourProfile(np.full(144, 35.0)))
        profile = ingest_profile(path)
        assert np.allclose(profile.height, 35.0, atol=1e-12)

    def test_too_few_points(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("theta_rad,value_mm\n0.0,35\n1.0,35\n2.0,35\n")
        with pytest.raises(InsufficientDataError):
            ingest_profile(path)

    @pytest.mark.parametrize("text", ["theta_rad,value_mm\n",
                                      "x_mm,y_mm,z_mm\r\n\r\n"])
    def test_header_only_file(self, tmp_path, text):
        # loadtxt would warn "input contained no data"; warnings are errors
        path = tmp_path / "empty.csv"
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(InsufficientDataError, match="got 0"):
            ingest_profile(path)

    def test_duplicate_angles_are_ambiguous(self, tmp_path):
        theta = ring(16).tolist()
        theta[5] = theta[4]
        path = tmp_path / "dup.csv"
        lines = ["theta_rad,value_mm"] + [f"{t},35.0" for t in theta]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(AmbiguousProfileError) as err:
            ingest_profile(path)
        assert f"{theta[4]:.9g}" in str(err.value)

    @pytest.mark.parametrize("last, error", [
        (35.5, None), (99.0, AmbiguousProfileError)])
    def test_sample_one_turn_later(self, tmp_path, last, error):
        theta = ring(16)
        lines = ["theta_rad,value_mm"] + [
            f"{t!r},{35.0 + 0.5 * math.cos(4 * t)!r}" for t in theta.tolist()]
        path = tmp_path / "closed.csv"
        path.write_text("\n".join(lines + [f"{2 * np.pi!r},{last!r}"]) + "\n")
        if error is None:  # a closed-loop export: the repeat changes nothing
            open_rim = tmp_path / "open.csv"
            open_rim.write_text("\n".join(lines) + "\n")
            assert np.array_equal(ingest_profile(path).height,
                                  ingest_profile(open_rim).height)
        else:
            with pytest.raises(error, match="one turn apart"):
                ingest_profile(path)

    def test_more_than_one_turn(self, tmp_path):
        path = tmp_path / "degrees.csv"
        lines = ["theta_rad,value_mm"] + [f"{22.5 * k},35.0" for k in range(16)]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError, match="span 337.5 rad") as err:
            ingest_profile(path)
        assert not isinstance(err.value, AmbiguousProfileError)

    def test_unknown_header(self, tmp_path):
        path = tmp_path / "odd.csv"
        path.write_text("a,b,c,d\n1,2,3,4\n")
        with pytest.raises(ValidationError):
            ingest_profile(path)

    def test_point_cloud_conversion(self, tmp_path):
        theta = THETA
        height = 35.0 + 0.8 * np.cos(4 * theta) - 0.1 * np.cos(8 * theta)
        radius = 33.0
        x = radius * np.cos(theta) + 12.5   # rim centered away from origin
        y = radius * np.sin(theta) - 4.0
        rng = np.random.default_rng(51)
        order = rng.permutation(144)
        path = tmp_path / "cloud.csv"
        lines = ["x_mm,y_mm,z_mm"] + [
            f"{float(x[i])!r},{float(y[i])!r},{float(height[i])!r}"
            for i in order]
        path.write_text("\n".join(lines) + "\n")
        profile = ingest_profile(path)
        assert np.max(np.abs(profile.height - height)) <= 1e-9

    def test_point_cloud_missing_a_sector(self, tmp_path):
        # the grid's points, none on (1, 2) rad nor on the opposite sector:
        # two gaps of 24 sample steps, pi/3 each
        theta = THETA[np.abs((THETA % np.pi) - 1.5) >= 0.5]
        path = tmp_path / "cloud.csv"
        lines = ["x_mm,y_mm,z_mm"] + [
            f"{30 * math.cos(t)!r},{30 * math.sin(t)!r},35.0"
            for t in theta.tolist()]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InsufficientDataError,
                           match=r"gap of 1\.047197\d* rad after theta = "
                                 r"(0\.959931|4\.101523)"):
            ingest_profile(path)

    def test_unevenly_sampled_cloud_reads_as_its_polar_file(self, tmp_path):
        # twice as many points on [0, pi) as on [pi, 2*pi): their mean lies
        # 6.4 mm off the axis, the fitted circle's centre on it
        theta = np.concatenate([np.pi * np.arange(400) / 400,
                                np.pi + np.pi * np.arange(200) / 200])
        height = 35.0 + 0.5 * np.cos(4 * theta)
        cloud = rim_file(tmp_path / "cloud.csv", ("x_mm", "y_mm", "z_mm"),
                         zip((30 * np.cos(theta) - 7.0).tolist(),
                             (30 * np.sin(theta) + 2.0).tolist(),
                             height.tolist()))
        polar = rim_file(tmp_path / "polar.csv", ("theta_rad", "value_mm"),
                         zip(theta.tolist(), height.tolist()))
        got = decompose(ingest_profile(cloud), 35.0)
        want = decompose(ingest_profile(polar), 35.0)
        assert want.lambdas[2] == pytest.approx(0.5, abs=2e-3)
        assert np.max(np.abs(got.lambdas - want.lambdas)) <= 1e-9
        assert got.residue == pytest.approx(want.residue, abs=1e-9)

    def test_point_cloud_resamples_nonuniform_angles(self, tmp_path):
        # jittered sampling, the usual texture of a rim export
        rng = np.random.default_rng(52)
        theta = np.sort((2 * np.pi * np.arange(400) / 400
                         + rng.uniform(-0.006, 0.006, 400)) % (2 * np.pi))
        height = 35.0 + 0.5 * np.cos(2 * theta)
        x = 30.0 * np.cos(theta)
        y = 30.0 * np.sin(theta)
        path = tmp_path / "cloud.csv"
        lines = ["x_mm,y_mm,z_mm"] + [
            f"{float(a)!r},{float(b)!r},{float(c)!r}"
            for a, b, c in zip(x, y, height)]
        path.write_text("\n".join(lines) + "\n")
        profile = ingest_profile(path)
        expected = 35.0 + 0.5 * np.cos(2 * profile.theta)
        assert np.max(np.abs(profile.height - expected)) <= 5e-3


def rim_file(path, header, rows):
    """Write rows of numbers under header as a rim CSV; returns path."""
    lines = [",".join(header)] + [",".join(map(repr, r)) for r in rows]
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("source", ["simulate", "polar-37", "cloud-2000",
                                    "run-csv"])
def test_every_profile_lies_on_the_grid(tmp_path, source):
    # whatever sampling comes in, a profile is 144 heights on THETA
    rng = np.random.default_rng(53)
    rim = simulate(BlankSpec(117.2, 0.3, -0.5), DC05)
    if source == "polar-37":
        rows = [(t, 35.0 + 0.4 * math.cos(4 * t)) for t in ring(37).tolist()]
        rim = ingest_profile(rim_file(tmp_path / "rim.csv",
                                      ("theta_rad", "value_mm"), rows))
    elif source == "cloud-2000":
        theta = np.sort(rng.uniform(0.0, 2 * np.pi, 2000))
        rows = zip((12.0 + 30 * np.cos(theta)).tolist(),
                   (30 * np.sin(theta) - 5.0).tolist(),
                   (35.0 + 0.4 * np.cos(4 * theta)).tolist())
        rim = ingest_profile(rim_file(tmp_path / "rim.csv",
                                      ("x_mm", "y_mm", "z_mm"), rows))
    elif source == "run-csv":
        write_contour_csv(tmp_path / "run_01.csv", rim)
        rows = read_rim_csv(tmp_path / "run_01.csv")[1]
        assert rows[:, 0].tolist() == THETA.tolist()
        rim = ingest_profile(tmp_path / "run_01.csv")
    assert rim.height.shape == (144,)
    assert rim.theta is THETA


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    """The default design run on the surrogate by the campaign's simulate
    stage (DC05 sheet, default gains, 144 points, 5 modes, 35 mm target)."""
    d = tmp_path_factory.mktemp("camp")
    state = cp.design_campaign(cp.init_campaign(d), d)
    return cp.simulate_campaign(state, d)


def center_lambdas(state):
    center, = [r for r in state.runs if r.role == "center"]
    return np.array(center.lambdas)


class TestRunDesign:
    """The design run on the surrogate through the campaign, and the plant's
    modal responses to single blanks."""

    def test_full_campaign_table_shape(self, simulated):
        table = cp.response_table(simulated)
        assert table.values.shape == (15, 5)
        assert table.names == ("L1", "L2", "L3", "L4", "L5")

    def test_center_run_four_lobe_coordinate(self, simulated):
        # oracle: least-squares coefficient of the interpolated cos(4θ)
        # quarter shape on the analytic cosine set, scaled by the rim gain
        cfg = simulated.config
        modes = np.column_stack([analytic_mode(k) for k in range(1, 6)])
        shape = np.interp(quarter_nodes(), THETA, np.cos(4 * THETA))
        transmission = np.linalg.lstsq(modes, shape, rcond=None)[0][2]
        oracle = cfg.surrogate.c_ear * cfg.material.delta_r * transmission
        assert oracle == pytest.approx(0.8578951525155493, abs=1e-12)
        assert center_lambdas(simulated)[2] == pytest.approx(oracle, abs=5e-4)

    def test_two_lobe_response_is_affine_in_a1(self, default_space):
        params = SurrogateParams()
        values = []
        a1_levels = (-1.5, 0.0, 1.5)
        for a1 in a1_levels:
            profile = simulate(BlankSpec(117.0, a1=a1), DC05, params)
            dev = deviation_vector(profile, 35.0)
            values.append(project(dev).lambdas[1])
        slope_lo = (values[1] - values[0]) / 1.5
        slope_hi = (values[2] - values[1]) / 1.5
        assert slope_hi == pytest.approx(slope_lo, rel=1e-9)
        assert np.sign(slope_hi) == np.sign(params.g2)

    def test_flat_rims_have_zero_shape_coordinates(self):
        params = SurrogateParams(c8=0.0)
        for d in (115.5, 116.63, 118.5):
            profile = simulate(BlankSpec(d), ISOTROPIC, params)
            dev = deviation_vector(profile, 35.0)
            lam = project(dev).lambdas
            assert np.max(np.abs(lam[1:])) <= 1e-12

    def test_dominant_defect_is_four_lobe(self, simulated):
        shape_coords = np.abs(center_lambdas(simulated)[1:])
        assert np.argmax(shape_coords) == 1  # L3
        assert shape_coords[1] > 3 * np.max(np.delete(shape_coords, 1))

    def test_requires_blank_factor_names(self):
        wrong = FactorSpace((Factor("X", 1, 1), Factor("Y", 0, 1),
                             Factor("Z", 0, 1)))
        with pytest.raises(ValidationError):
            cp.CampaignConfig(space=wrong)
