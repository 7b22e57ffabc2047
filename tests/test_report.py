import numpy as np
import pytest

from earforge import report


def polyline_reference(xs, ys, color, width=1.5):
    """_polyline as each point was once written: `_fmt(x),_fmt(y)`."""
    pts = " ".join(f"{report._fmt(x)},{report._fmt(y)}"
                   for x, y in zip(xs, ys))
    return (f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{width}"/>')


class TestPolyline:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_per_point_format(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 400))
        xs = 320.0 + rng.normal(0.0, 1.0, n) * 10.0 ** rng.uniform(-6, 7, n)
        ys = 240.0 - rng.normal(0.0, 1.0, n) * 10.0 ** rng.uniform(-6, 7, n)
        assert report._polyline(xs, ys, "#c0392b", 2.0) == \
            polyline_reference(xs, ys, "#c0392b", 2.0)

    def test_matches_per_point_format_on_edge_values(self):
        # rounding to zero keeps the sign, halves round to even bits
        xs = np.array([-0.0004, 1e7, -0.0, 0.0005, 0.0015, 2.675, -1e7, 1e-9])
        ys = xs[::-1].copy()
        assert report._polyline(xs, ys, "#2980b9") == \
            polyline_reference(xs, ys, "#2980b9")
        assert 'points="-0.000,0.000 10000000.000,-10000000.000 ' in \
            report._polyline(xs, ys, "#2980b9")

    def test_empty(self):
        assert report._polyline(np.array([]), np.array([]), "#000000") == \
            polyline_reference([], [], "#000000")
