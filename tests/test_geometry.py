import csv
import math

import numpy as np
import pytest

from earforge.errors import InvalidBlankError, ValidationError
from earforge.geometry import (THETA, BlankSpec, ContourProfile, CupSpec,
                               blank_contour, deviation_vector,
                               ear_amplitude, initial_blank_diameter,
                               read_rim_csv, write_contour_csv)

# the 36 quarter nodes the deviation vector is read at, over [0, pi/2]
QUARTER = (np.pi / 2.0) * np.arange(36) / 35


def cosine_profile(mean=35.0, amplitudes=()):
    """Profile mean + sum(a_k * cos(k*theta)) on the rim grid."""
    height = np.full(144, float(mean))
    for k, a in amplitudes:
        height = height + a * np.cos(k * THETA)
    return ContourProfile(height)


class TestBlankContour:
    def test_pure_circle(self):
        radius = blank_contour(BlankSpec(117.0))
        assert radius.shape == (144,)
        assert np.allclose(radius, 58.5, rtol=0, atol=1e-12)

    def test_two_lobe_radii(self):
        radius = blank_contour(BlankSpec(117.0, a1=1.5))
        assert radius[0] == pytest.approx(60.0, abs=1e-12)
        # theta = pi/2 is sample 36 of 144
        assert radius[36] == pytest.approx(57.0, abs=1e-12)

    def test_negative_radius_is_invalid_blank(self):
        with pytest.raises(InvalidBlankError) as err:
            blank_contour(BlankSpec(4.0, a2=2.5))
        # 2 + 2.5*cos(4θ) first drops below 0 at sample 15 of 144
        first = min(k for k in range(144)
                    if 2.0 + 2.5 * math.cos(4 * 2 * math.pi * k / 144) <= 0)
        assert first == 15
        assert f"theta = {2 * math.pi * first / 144:.6g} rad" in str(err.value)

    def test_mirror_symmetries(self):
        spec = BlankSpec(117.0, a1=0.7, a2=-1.1)
        r = blank_contour(spec)
        n = r.size
        for k in range(1, n):
            assert r[k] == pytest.approx(r[n - k], abs=1e-12)          # theta -> -theta
        for k in range(n):
            assert r[k] == pytest.approx(r[(n // 2 - k) % n], abs=1e-12)  # theta -> pi - theta

    def test_blank_spec_validation(self):
        with pytest.raises(ValidationError):
            BlankSpec(0.0)
        with pytest.raises(ValidationError, match="BlankSpec.diameter must be "
                                                  "finite, got nan"):
            BlankSpec(float("nan"))
        with pytest.raises(ValidationError, match="BlankSpec.a2 must be "
                                                  "finite, got -inf"):
            BlankSpec(117.0, a2=-math.inf)
        with pytest.raises(ValidationError, match="BlankSpec.a1 must be finite"):
            BlankSpec(117.0, a1=np.float32("nan"))


class TestInitialBlankDiameter:
    @staticmethod
    def area_balance_root(d, h):
        """Independent oracle: bisect the area balance for the blank diameter."""
        def imbalance(d0):
            return math.pi * d0 * d0 / 4 - (math.pi * d * d / 4 + math.pi * d * h)
        lo, hi = d, d + 4 * h + 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if imbalance(mid) > 0:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    def test_reference_cup(self):
        d0 = initial_blank_diameter(CupSpec(66.03, 35.0))
        assert d0 == pytest.approx(116.63, abs=0.05)
        assert d0 == pytest.approx(self.area_balance_root(66.03, 35.0), abs=1e-9)
        assert d0 == pytest.approx(116.63687624417932, abs=1e-9)

    def test_zero_wall(self):
        assert initial_blank_diameter(CupSpec(50.0, 0.0)) == pytest.approx(50.0)

    def test_direct_formula(self):
        assert initial_blank_diameter(CupSpec(10.0, 10.0)) == pytest.approx(
            22.360679774997898, abs=1e-12)

    def test_monotone_in_both_arguments(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            d, h = rng.uniform(5, 200), rng.uniform(0.1, 100)
            base = initial_blank_diameter(CupSpec(d, h))
            assert initial_blank_diameter(CupSpec(d + 1.0, h)) > base
            assert initial_blank_diameter(CupSpec(d, h + 1.0)) > base

    def test_cup_validation(self):
        with pytest.raises(ValidationError):
            CupSpec(-1.0, 10.0)


class TestEarAmplitude:
    def test_flat_rim(self):
        assert ear_amplitude(cosine_profile()) == 0.0

    def test_four_lobe_peak_to_peak(self):
        profile = cosine_profile(amplitudes=[(4, 0.86)])
        assert ear_amplitude(profile) == pytest.approx(1.72, abs=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        h = rng.uniform(30, 40, 144)
        base = ear_amplitude(ContourProfile(h))
        shifted = ear_amplitude(ContourProfile(h + 5.4))
        assert shifted == pytest.approx(base, abs=1e-12)

    def test_scaling_about_mean(self):
        rng = np.random.default_rng(4)
        h = rng.uniform(30, 40, 144)
        mean = h.mean()
        base = ear_amplitude(ContourProfile(h))
        scaled = ear_amplitude(ContourProfile(mean + 2.5 * (h - mean)))
        assert scaled == pytest.approx(2.5 * base, rel=1e-12)


class TestDeviationVector:
    def test_flat_profile_zero_deviation(self):
        dev = deviation_vector(cosine_profile(mean=35.0), 35.0)
        assert dev.shape == (36,)
        assert np.all(dev == 0.0)

    def test_pure_size_defect(self):
        dev = deviation_vector(cosine_profile(mean=34.0), 35.0)
        assert np.allclose(dev, -1.0, rtol=0, atol=1e-12)

    def test_quarter_ends_are_orbit_means(self):
        # nodes 0 and 35 are grid angles 0 and pi/2; the symmetric part
        # there averages each mirror orbit: {0, pi} and {pi/2, 3*pi/2}
        rng = np.random.default_rng(12)
        profile = ContourProfile(rng.uniform(30, 40, 144))
        assert QUARTER[[0, 35]].tolist() == THETA[[0, 36]].tolist()
        h = profile.height
        dev = deviation_vector(profile, 35.0)
        assert dev[0] == pytest.approx((h[0] + h[72]) / 2 - 35.0, abs=1e-13)
        assert dev[35] == pytest.approx((h[36] + h[108]) / 2 - 35.0, abs=1e-13)

    def test_even_cosine_reads_exactly_on_default_grid(self):
        profile = cosine_profile(amplitudes=[(4, 1.0)])
        dev = deviation_vector(profile, 35.0)
        assert np.allclose(dev, np.cos(4 * QUARTER), rtol=0, atol=1e-13)

    def test_asymmetric_part_reads_zero(self):
        # sine and odd cosine harmonics break a mirror symmetry: no deviation
        for k in (1, 2, 3, 4, 5, 8):
            for wave in (np.sin(k * THETA), np.cos((2 * k - 1) * THETA)):
                dev = deviation_vector(ContourProfile(35.0 + wave), 35.0)
                assert np.max(np.abs(dev)) <= 1e-13, k

    def test_is_the_even_cosine_part_of_the_interpolant(self):
        # the table is the even cosine part of the rim's DFT, at the nodes
        rng = np.random.default_rng(21)
        h = rng.uniform(30, 40, 144)
        a = np.fft.rfft(h).real / 72.0
        oracle = h.mean() + sum(
            (a[2 * m] / (2.0 if m == 36 else 1.0)) * np.cos(2 * m * QUARTER)
            for m in range(1, 37))
        dev = deviation_vector(ContourProfile(h), 35.0)
        assert np.allclose(dev, oracle - 35.0, rtol=0, atol=1e-12)

    def test_constant_profile_entries_equal(self):
        dev = deviation_vector(cosine_profile(mean=37.25), 35.0)
        assert np.all(dev == dev[0])

    def test_amplitude_matches_deviation_range_when_extremes_on_nodes(self):
        # cos(2*theta) peaks at the quarter endpoints, which are always nodes
        profile = cosine_profile(amplitudes=[(2, 0.5)])
        dev = deviation_vector(profile, 35.0)
        assert ear_amplitude(profile) == pytest.approx(dev.max() - dev.min(),
                                                       abs=1e-9)

    def test_target_validation(self):
        for target in (0.0, math.nan, math.inf):
            with pytest.raises(ValidationError, match="target height"):
                deviation_vector(cosine_profile(), target)


class TestContourTypes:
    def test_contour_rejects_nonpositive_radius(self):
        # r = 1 + cos(2θ) is exactly 0 at theta = pi/2, sample 36 of 144
        spec = BlankSpec(2.0, a1=1.0)
        assert spec.radius_at(THETA).min() == 0.0
        with pytest.raises(InvalidBlankError) as err:
            blank_contour(spec)
        assert f"{math.pi / 2:.6g}" in str(err.value)

    def test_profile_rejects_nonfinite_heights(self):
        height = np.ones(144)
        height[2] = np.nan
        with pytest.raises(ValidationError, match="finite"):
            ContourProfile(height)

    def test_profile_theta_is_the_uniform_grid(self):
        # theta_k = 2*pi*k/144, the one array every profile shares
        grid = [2 * math.pi * k / 144 for k in range(144)]
        assert THETA.tolist() == grid
        a = cosine_profile(amplitudes=[(4, 0.5)])
        assert a.theta is THETA and cosine_profile().theta is THETA
        assert not THETA.flags.writeable
        with pytest.raises(ValueError):
            a.theta[1] = 0.0

    def test_profile_rejects_2d_heights(self):
        with pytest.raises(ValidationError, match=r"144 heights.*\(1, 144\)"):
            ContourProfile(np.ones((1, 144)))

    @pytest.mark.parametrize("n", [7, 10, 143, 145, 288])
    def test_profile_rejects_bad_sample_counts(self, n):
        with pytest.raises(ValidationError,
                           match=rf"144 heights.*got shape \({n},\)"):
            ContourProfile(np.ones(n))


def csv_writer_reference(path, theta, values):
    """The csv.writer codec write_contour_csv must match byte for byte."""
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["theta_rad", "value_mm"])
        for t, v in zip(theta, values):
            writer.writerow([repr(float(t)), repr(float(v))])


def float_reader_reference(path):
    """Per-cell float() over csv.reader, blank rows skipped: the reference
    read_rim_csv must match bit for bit on well-formed files."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = tuple(c.strip() for c in next(reader))
        rows = [[float(v) for v in row] for row in reader if row]
    return header, np.array(rows)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


def rim_text(header, rows, newline="\n", blank_every=0, quote_every=0):
    """CSV text of rows under header, with optional blank lines and
    double-quoted cells."""
    lines = [",".join(header)]
    for i, row in enumerate(rows, start=1):
        cells = [repr(v) for v in row]
        if quote_every and i % quote_every == 0:
            cells[-1] = f'"{cells[-1]}"'
        lines.append(",".join(cells))
        if blank_every and i % blank_every == 0:
            lines.append("")
    return newline.join(lines) + newline


class TestContourCsv:
    def test_roundtrip_is_exact(self, tmp_path):
        profile = cosine_profile(amplitudes=[(2, 0.3), (4, 0.86)])
        path = tmp_path / "profile.csv"
        write_contour_csv(path, profile)
        header, rows = read_rim_csv(path)
        assert header == ("theta_rad", "value_mm")
        assert np.array_equal(rows[:, 0], profile.theta)
        assert np.array_equal(rows[:, 1], profile.height)

    def test_header_is_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("angle,height\n0.0,35.0\n")
        with pytest.raises(ValidationError):
            read_rim_csv(path)

    def test_line_endings_are_lf(self, tmp_path):
        path = tmp_path / "profile.csv"
        write_contour_csv(path, ContourProfile(np.full(144, 35.0)))
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.startswith(b"theta_rad,value_mm\n")

    @pytest.mark.parametrize("seed", range(5))
    def test_bytes_match_csv_writer_on_seeded_profiles(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        values = (35.0 + rng.normal(0.0, 1.0, 144)
                  * 10.0 ** rng.uniform(-8, 2, 144))
        data = write_contour_csv(tmp_path / "new.csv", ContourProfile(values))
        csv_writer_reference(tmp_path / "ref.csv", THETA, values)
        assert data == (tmp_path / "new.csv").read_bytes()
        assert data == (tmp_path / "ref.csv").read_bytes()

    def test_bytes_match_csv_writer_on_edge_values(self, tmp_path):
        edge = np.resize([-0.0, 5e-324, 1e308, 1 / 3, -1e308, 0.0, 1e-7, 1e16],
                         144)
        write_contour_csv(tmp_path / "new.csv", ContourProfile(edge))
        csv_writer_reference(tmp_path / "ref.csv", THETA, edge)
        raw = (tmp_path / "new.csv").read_bytes()
        assert raw == (tmp_path / "ref.csv").read_bytes()
        assert raw.startswith(b"theta_rad,value_mm\n0.0,-0.0\n")

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("blank_every,quote_every", [(0, 0), (7, 0), (0, 5),
                                                         (3, 4)])
    @pytest.mark.parametrize("header", [("theta_rad", "value_mm"),
                                        ("x_mm", "y_mm", "z_mm")])
    def test_reader_matches_float_reference(self, tmp_path, header, newline,
                                            blank_every, quote_every):
        rng = np.random.default_rng(len(header) + blank_every + quote_every)
        rows = rng.normal(0.0, 40.0, (333, len(header))).tolist()
        rows[0][-1], rows[1][-1], rows[2][-1] = -0.0, 5e-324, 1 / 3
        path = tmp_path / "rim.csv"
        path.write_bytes(rim_text(header, rows, newline, blank_every,
                                  quote_every).encode("utf-8"))
        got_header, got = read_rim_csv(path)
        ref_header, ref = float_reader_reference(path)
        assert got_header == ref_header == header
        assert same_bits(got, ref)
        assert same_bits(got, rows)

    def test_header_only_file_has_no_rows(self, tmp_path):
        path = tmp_path / "rim.csv"
        path.write_text("theta_rad,value_mm\n\n")
        header, rows = read_rim_csv(path)
        assert header == ("theta_rad", "value_mm")
        assert rows.shape == (0, 2)

    @pytest.mark.parametrize("header,body,line,what", [
        ("x_mm,y_mm,z_mm", "1,2,3\n4,5\n", 3, "expected 3 fields, got 2"),
        ("x_mm,y_mm,z_mm", "1,2\n4,5\n", 2, "expected 3 fields, got 2"),
        ("theta_rad,value_mm", "0,35\n\n0.5\n", 4, "expected 2 fields, got 1"),
        ("theta_rad,value_mm", "0,35,1\n0.5,35,1\n", 2,
         "expected 2 fields, got 3"),
        ("theta_rad,value_mm", "0,35\r\n0.5,35,1\r\n", 3,
         "expected 2 fields, got 3"),
        ("theta_rad,value_mm", "0,35\n0.5,abc\n", 3, "cannot read"),
        ("theta_rad,value_mm", "0,35\n  \n", 3, "cannot read"),
        ("theta_rad,value_mm", "0,35\nnan,35\n", 3, "non-finite"),
        ("theta_rad,value_mm", "\n\n0,inf\n", 4, "non-finite"),
        ("theta_rad,value_mm", '0,35\n1,"-inf"\n', 3, "non-finite"),
        ("x_mm,y_mm,z_mm", "1,2,3\n1,2,1e400\n", 3, "non-finite"),
    ])
    def test_bad_rows_name_the_file_line(self, tmp_path, header, body, line,
                                         what):
        path = tmp_path / "rim.csv"
        path.write_bytes(f"{header}\n{body}".encode("utf-8"))
        with pytest.raises(ValidationError) as err:
            read_rim_csv(path)
        assert f"rim.csv: line {line}: {what}" in str(err.value)
