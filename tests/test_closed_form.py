"""The surrogate campaign against its closed form.

The surrogate rim is a cosine sum whose even terms the modes read exactly,
so each run's lambda is known in closed form, and so is the optimum of the
summed squares: D at the root of L1, A1 = 0, and A2 minimizing
(g4*A2 + c_ear*delta_r)^2 + (kappa4_6*A2)^2. Plant gains, sheets and factor
spaces are drawn from the ranges below; every factor box is centred within
half its half-range of the closed-form optimum, so the optimum lies inside.
"""

import math

import numpy as np
import pytest

from earforge import campaign as cp
from earforge.doe import Factor, FactorSpace
from earforge.plant import MaterialAnisotropy, SurrogateParams


def closed_form_optimum(p, material, target_height):
    """(D, A1, A2) minimizing the summed squared lambdas of the surrogate."""
    dr = material.delta_r
    c = p.base_height - target_height
    # the root of k_q*dD^2 + k_d*dD + c nearest dD = 0, in its stable form
    dd = -2.0 * c / (p.k_d + math.sqrt(p.k_d ** 2 - 4.0 * p.k_q * c))
    a2 = -p.g4 * p.c_ear * dr / (p.g4 ** 2 + p.kappa4_6 ** 2)
    return np.array([p.ref_diameter + dd, 0.0, a2])


def closed_form_lambdas(cfg, blank):
    p, dr = cfg.surrogate, cfg.material.delta_r
    d, a1, a2 = blank
    dd = d - p.ref_diameter
    return np.array([p.k_d * dd + p.k_q * dd * dd + p.base_height
                     - cfg.target_height,
                     p.g2 * a1, p.g4 * a2 + p.c_ear * dr, p.kappa4_6 * a2, p.c8])


def drawn_config(rng):
    """A campaign config whose closed-form optimum lies inside its box."""
    surrogate = SurrogateParams(
        ref_diameter=rng.uniform(100.0, 130.0),
        base_height=rng.uniform(30.0, 40.0),
        k_d=rng.uniform(0.7, 1.2), k_q=rng.uniform(0.0, 0.05),
        g2=rng.uniform(0.5, 1.5), g4=rng.uniform(0.8, 1.3),
        c_ear=rng.uniform(0.5, 1.5), kappa4_6=rng.uniform(0.0, 0.1),
        c8=rng.uniform(-0.1, 0.1))
    material = MaterialAnisotropy(*rng.uniform(1.0, 2.8, 3))
    target = surrogate.base_height + rng.uniform(-0.5, 0.5)
    optimum = closed_form_optimum(surrogate, material, target)
    half = rng.uniform(1.0, 2.0, 3)
    centre = optimum + rng.uniform(-0.5, 0.5, 3) * half
    space = FactorSpace(tuple(Factor(name, float(c), float(h)) for name, c, h
                              in zip(("D", "A1", "A2"), centre, half)),
                        alpha=float(rng.uniform(1.0, 1.6)))
    return cp.CampaignConfig(space=space, target_height=target,
                             material=material, surrogate=surrogate)


def optimized(campaign_dir, cfg):
    campaign_dir.mkdir()
    with cp.campaign_lock(campaign_dir):
        state = cp.init_campaign(campaign_dir, cfg)
        for stage in (cp.design_campaign, cp.simulate_campaign,
                      cp.fit_campaign, cp.optimize_campaign):
            state = stage(state, campaign_dir)
    return state


@pytest.mark.parametrize("seed", range(8))
def test_drawn_campaign_meets_its_closed_form(tmp_path, seed):
    cfg = drawn_config(np.random.default_rng(seed))
    state = optimized(tmp_path / "camp", cfg)
    for run in state.runs:
        assert np.allclose(run.lambdas, closed_form_lambdas(cfg, run.blank),
                           rtol=0, atol=1e-12), run.run
    assert np.allclose(state.optimum.physical,
                       closed_form_optimum(cfg.surrogate, cfg.material,
                                           cfg.target_height),
                       rtol=0, atol=1e-9)


def test_default_optimum_a2_is_the_closed_form(tmp_path):
    cfg = cp.default_config()
    state = optimized(tmp_path / "camp", cfg)
    want = closed_form_optimum(cfg.surrogate, cfg.material, cfg.target_height)
    assert want[2] == pytest.approx(-0.8059958, abs=1e-7)
    assert abs(state.optimum.physical[2] - want[2]) <= 1e-12
    assert np.allclose(state.optimum.physical, want, rtol=0, atol=1e-9)
