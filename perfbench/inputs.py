"""Seeded input generators for the four workloads.

Everything here is made from the workload seed with numpy's default_rng, so
the same seed gives byte-identical inputs. The generators model rims with
their own formulas (not earforge's plant), so the program only ever sees
files, configs and coefficient arrays, and the known amplitudes behind each
file can be compared with what earforge reports.
"""

from __future__ import annotations

import dataclasses
import itertools
from pathlib import Path

import numpy as np

TARGET_HEIGHT = 35.0          # mm, the `decompose` default target
CUP_RADIUS = 33.015           # mm, rim radius of the default 66.03 mm cup
NOISE_MM = 0.005              # measurement noise, one sigma
MIN_SAMPLES, MAX_SAMPLES = 300, 2000
TILTED_SHARE = 0.25           # metrology rims carrying an asymmetric sin(theta) tilt
N_MODES = 5

# Default surrogate gains and DC05 sheet, the plant the CLI exports come from.
PLANT = dict(ref_diameter=116.63, base_height=34.69, k_d=0.886, k_q=0.03,
             g2=1.0, g4=1.066, c_ear=1.0176, kappa4_6=0.03, c8=-0.05)
DC05_R = (2.09, 1.56, 2.72)
GAIN_JITTER = 0.01            # relative sigma of per-export plant-gain jitter
CCD_ALPHA = 1.287
DEFAULT_FACTORS = (("D", 117.0, 1.5), ("A1", 0.0, 1.5), ("A2", 0.0, 1.5))


def sample_counts(rng, n):
    """n sample counts spread evenly over [MIN, MAX], in seeded order.

    Stratified rather than drawn independently, so every seed carries the
    same total work and run-to-run spread comes from the program.
    """
    edges = np.linspace(MIN_SAMPLES, MAX_SAMPLES, n + 1)
    counts = (edges[:-1] + rng.uniform(0, 1, n) * np.diff(edges)).astype(int)
    return rng.permutation(counts)


def jittered_angles(rng, n):
    """n distinct angles in [0, 2*pi): a uniform grid with seeded jitter."""
    theta = (np.arange(n) + rng.uniform(-0.3, 0.3, n)) * (2.0 * np.pi / n)
    return np.sort(theta % (2.0 * np.pi))


def modal_rim(theta, amps, tilt=0.0):
    """Rim height: target plus cos(2(k-1)θ) lobes of amplitude amps[k-1].

    The quarter-rim modes of earforge are exactly these cosines, so for an
    untilted rim the modal coordinates are the amplitudes themselves.
    """
    h = np.full_like(theta, TARGET_HEIGHT) + amps[0]
    for k in range(1, len(amps)):
        h += amps[k] * np.cos(2.0 * k * theta)
    return h + tilt * np.sin(theta)


def write_rim(path: Path, theta, height, rng, point_cloud: bool) -> None:
    """Write a rim as a polar profile or as an off-centre x,y,z point cloud."""
    if point_cloud:
        cx, cy = rng.uniform(-20.0, 20.0, 2)
        rows = np.column_stack([cx + CUP_RADIUS * np.cos(theta),
                                cy + CUP_RADIUS * np.sin(theta), height])
        header = "x_mm,y_mm,z_mm"
    else:
        rows = np.column_stack([theta, height])
        header = "theta_rad,value_mm"
    lines = [header] + [",".join(f"{v:.12g}" for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclasses.dataclass(frozen=True)
class Rim:
    path: Path
    amps: tuple       # synthesized L1..L5, mm
    tilted: bool      # carries a sin(theta) tilt the quarter model cannot see


def metrology_rims(rng, out_dir: Path, n: int) -> list[Rim]:
    """n rim exports with known L1..L5, half point clouds, a quarter tilted."""
    out_dir.mkdir(parents=True, exist_ok=True)
    counts = sample_counts(rng, n)
    clouds = rng.permutation(np.arange(n) < n // 2)
    tilted = rng.permutation(np.arange(n) < round(n * TILTED_SHARE))
    rims = []
    for i in range(n):
        amps = np.concatenate([rng.uniform(-1.5, 1.5, 3),
                               rng.uniform(-0.3, 0.3, N_MODES - 3)])
        tilt = rng.uniform(0.1, 0.3) * rng.choice([-1.0, 1.0]) if tilted[i] else 0.0
        theta = jittered_angles(rng, int(counts[i]))
        height = modal_rim(theta, amps, tilt) + rng.normal(0, NOISE_MM, theta.size)
        path = out_dir / f"rim_{i:03d}.csv"
        write_rim(path, theta, height, rng, bool(clouds[i]))
        rims.append(Rim(path, tuple(float(a) for a in amps), bool(tilted[i])))
    return rims


def ccd_points(n_factors=3, alpha=CCD_ALPHA):
    """Normalized CCD points in earforge's documented run order.

    Factorial block (last factor fastest), one centre point, then the
    (-alpha, +alpha) star pair of each factor.
    """
    pts = [list(bits) for bits in itertools.product((-1.0, 1.0), repeat=n_factors)]
    pts.append([0.0] * n_factors)
    for i in range(n_factors):
        for sign in (-1.0, 1.0):
            p = [0.0] * n_factors
            p[i] = sign * alpha
            pts.append(p)
    return np.array(pts)


def plant_rim(theta, blank, gains, r=DC05_R):
    """The surrogate plant's rim for blank (D, A1, A2) under the given gains."""
    d, a1, a2 = blank
    delta_r = (r[0] - 2.0 * r[1] + r[2]) / 2.0
    dd = d - gains["ref_diameter"]
    return (gains["base_height"] + gains["k_d"] * dd + gains["k_q"] * dd * dd
            + gains["g2"] * a1 * np.cos(2.0 * theta)
            + (gains["g4"] * a2 + gains["c_ear"] * delta_r) * np.cos(4.0 * theta)
            + gains["kappa4_6"] * a2 * np.cos(6.0 * theta)
            + gains["c8"] * np.cos(8.0 * theta))


def campaign_exports(rng, out_dir: Path) -> None:
    """run_01..run_15.csv for the default design: jittered plant, noisy probe."""
    out_dir.mkdir(parents=True, exist_ok=True)
    center = np.array([c for _, c, _ in DEFAULT_FACTORS])
    half = np.array([h for _, _, h in DEFAULT_FACTORS])
    blanks = center + ccd_points() * half
    n = len(blanks)
    counts = sample_counts(rng, n)
    clouds = rng.permutation(np.arange(n) < n // 2)
    for i, blank in enumerate(blanks):
        gains = {k: v * (1.0 + rng.normal(0, GAIN_JITTER)) if k != "ref_diameter"
                 else v for k, v in PLANT.items()}
        theta = jittered_angles(rng, int(counts[i]))
        height = plant_rim(theta, blank, gains) + rng.normal(0, NOISE_MM, theta.size)
        write_rim(out_dir / f"run_{i + 1:02d}.csv", theta, height, rng,
                  bool(clouds[i]))


def campaign_configs(rng, ef, n: int) -> list:
    """n campaign configs near the default: DC05 +-5 % Lankford values,
    shifted factor centres and target height. The A2 that cancels the
    four-lobe ear stays inside every factor box, so verification is `ok`."""
    configs = []
    for _ in range(n):
        r0, r45, r90 = (v * (1.0 + rng.uniform(-0.05, 0.05)) for v in DC05_R)
        d_c, a1_c, a2_c = rng.uniform([-0.5, -0.3, -0.3], [0.5, 0.3, 0.3])
        space = ef.FactorSpace(factors=(ef.Factor("D", 117.0 + d_c, 1.5),
                                        ef.Factor("A1", a1_c, 1.5),
                                        ef.Factor("A2", a2_c, 1.5)),
                               alpha=CCD_ALPHA)
        configs.append(ef.campaign.CampaignConfig(
            space=space, target_height=35.0 + rng.uniform(-0.5, 0.5),
            material=ef.MaterialAnisotropy(r0=r0, r45=r45, r90=r90)))
    return configs


def rugged_models(rng, ef, n_models=5):
    """Five quadratics over three factors with N(0, 1) coefficients, the
    class acceptance criterion 7 checks against the grid oracle."""
    base = ef.QuadraticModel("Y", ("X1", "X2", "X3"), np.zeros(10), 0.0, 0.0)
    return tuple(dataclasses.replace(base, coefficients=rng.normal(0, 1, 10))
                 for _ in range(n_models))
