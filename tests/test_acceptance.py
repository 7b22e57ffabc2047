"""Acceptance gate: the toolkit's exit criteria, each at its stated tolerance.

Run `pytest tests/test_acceptance.py -v -s` to see one pass/fail line per
check; every check is expected to pass. Criterion 2 refits the reference run
table and checks the optimum that table supports, (116.76, 0.45, -0.34) mm,
which an independent refit confirms; the table does not reproduce the
published optimum (117.05, 0, -0.807) mm, and criterion 2 records that as a
checked fact. The published bands are asserted on the surrogate closed loop
(criterion 6), which does reproduce the published optimum.
"""

import dataclasses
import time

import numpy as np

from earforge import campaign as cp
from earforge.cli import cli_main
from earforge.doe import to_physical
from earforge.geometry import BlankSpec, deviation_vector, ear_amplitude
from earforge.modal import lumped_mass_diagonal, project
from earforge.optimizer import (ObjectiveSpec, _derivatives, _f, grid_oracle,
                                minimize)
from earforge.plant import DC05, SurrogateParams, simulate
from earforge.rsm import (QuadraticModel, ResponseTable, _tensor_form,
                          fit_quadratic, model_matrix)


def _objective(spec):
    """F and its gradient at one point, through the evaluators minimize uses."""
    coef = np.column_stack([m.coefficients for m in spec.models])
    tensors = _tensor_form(coef)

    def values(x):
        x = np.asarray(x, dtype=float)[None, :]
        return x, model_matrix(x) @ coef

    return (lambda x: float(_f(values(x)[1])[0]),
            lambda x: _derivatives(tensors, *values(x))[0][0])


def _check(label: str, ok: bool, detail: str) -> str | None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    return None if ok else f"{label}: {detail}"


def test_criterion_1_design_reproduction(default_space, default_design,
                                         reference_runs):
    """15-point design matches the published campaign plan within 0.005 mm."""
    from earforge.doe import to_physical
    reference, _, _ = reference_runs
    physical = to_physical(default_space, default_design.points)
    worst = float(np.max(np.abs(physical - reference)))
    failures = [
        _check("criterion 1 (design rows)", default_design.n_points == 15,
               f"{default_design.n_points} points"),
        _check("criterion 1 (physical columns)", worst <= 0.005,
               f"worst column error {worst:.4g} mm (tol 0.005)"),
    ]
    failures = [f for f in failures if f]
    assert not failures, "; ".join(failures)


def test_criterion_2_published_data_optimum(reference_models, default_space,
                                            default_design):
    """Refit of the reference run table yields the optimum the table supports.

    Required bands: D in [116.71, 116.81] mm, A1 in [0.40, 0.50] mm,
    A2 in [-0.39, -0.29] mm, i.e. +-0.05 mm around (116.76, 0.45, -0.34),
    the argmin of an independent refit (plain numpy, QR least squares with
    another column order, dense 201^3 grid; F = 0.01319 there). Also
    F(optimum) <= F at all 15 design points, within 5 s.

    The table does not reproduce the published optimum (117.05, 0, -0.807):
    its two-lobe response L2 is 2.00 at A1 = -1.93, 0.448 at the centre and
    -1.22 at A1 = +1.93, so L2 crosses zero near A1 = +0.45 only. On these
    surfaces F at the published point is >= 10x F(optimum) (measured ~25x);
    the published bands are asserted on the surrogate loop (criterion 6).
    """
    t0 = time.perf_counter()
    spec = ObjectiveSpec(models=reference_models)
    opt = minimize(spec)
    elapsed = time.perf_counter() - t0
    d, a1, a2 = to_physical(default_space, opt.point)
    objective_f, _ = _objective(spec)
    design_f = np.array([objective_f(p) for p in default_design.points])
    center = np.array([f.center for f in default_space.factors])
    half = np.array([f.half_range for f in default_space.factors])
    published_f = objective_f((np.array([117.05, 0.0, -0.807]) - center) / half)
    failures = [
        _check("criterion 2 (D band)", 116.71 <= d <= 116.81,
               f"D = {d:.4f} mm, band [116.71, 116.81]"),
        _check("criterion 2 (A1 band)", 0.40 <= a1 <= 0.50,
               f"A1 = {a1:.4f} mm, band [0.40, 0.50]"),
        _check("criterion 2 (A2 band)", -0.39 <= a2 <= -0.29,
               f"A2 = {a2:.4f} mm, band [-0.39, -0.29]"),
        _check("criterion 2 (F dominates design)",
               bool(np.all(opt.f_value <= design_f)),
               f"F(opt) = {opt.f_value:.4e}, min design F = {design_f.min():.4e}"),
        _check("criterion 2 (published point not supported)",
               published_f >= 10.0 * opt.f_value,
               f"F(117.05, 0, -0.807) = {published_f:.4e} = "
               f"{published_f / opt.f_value:.1f}x F(opt) (required >= 10x)"),
        _check("criterion 2 (runtime)", elapsed < 5.0, f"{elapsed:.2f} s"),
    ]
    failures = [f for f in failures if f]
    assert not failures, (
        "refit of the reference run table does not yield the optimum the "
        "table supports: " + "; ".join(failures))


def test_criterion_3_influence_structure(reference_models):
    """Dominant linear factor is D for L1, A1 for L2, A2 for L3."""
    expected = {"L1": "D", "L2": "A1", "L3": "A2"}
    failures = []
    for model in reference_models[:3]:
        f = len(model.factor_names)
        linear = np.abs(model.coefficients[1:1 + f])
        top = model.factor_names[int(np.argmax(linear))]
        failures.append(_check(
            f"criterion 3 ({model.response})", top == expected[model.response],
            f"dominant linear factor {top}, expected {expected[model.response]}"))
    failures = [f for f in failures if f]
    assert not failures, "; ".join(failures)


def test_criterion_4_modal_basis_fidelity(basis36, chain_eigensolve):
    """Closed-form modes match the chain's eigen-solve; rigid mode; orthogonality."""
    worst_shape = float(np.max(np.abs(basis36.modes - chain_eigensolve.modes)))
    ratio = chain_eigensolve.pulsations[0] / chain_eigensolve.pulsations[1]
    m = lumped_mass_diagonal()
    gram = basis36.modes.T @ (m[:, None] * basis36.modes)
    norms = np.linalg.norm(basis36.modes, axis=0)
    worst_ortho = max(
        abs(gram[i, j]) / (norms[i] * norms[j])
        for i in range(5) for j in range(5) if i != j)
    failures = [
        _check("criterion 4 (mode shapes)", worst_shape <= 0.02,
               f"worst per-node error {worst_shape:.2e} (tol 0.02)"),
        _check("criterion 4 (rigid mode)", ratio <= 1e-6,
               f"omega1/omega2 = {ratio:.2e} (tol 1e-6)"),
        _check("criterion 4 (M-orthogonality)", worst_ortho <= 1e-9,
               f"worst scaled cross term {worst_ortho:.2e} (tol 1e-9)"),
    ]
    failures = [f for f in failures if f]
    assert not failures, "; ".join(failures)


def test_criterion_5_initial_decomposition():
    """Initial-profile deviation: residue < 1%, calibrated 1.72 mm amplitude."""
    params = SurrogateParams()
    profile = simulate(BlankSpec(116.63), DC05, params)
    amplitude = ear_amplitude(profile)
    calibrated = 2.0 * params.c_ear * DC05.delta_r
    coords = project(deviation_vector(profile, 35.0))
    failures = [
        _check("criterion 5 (residue)", coords.residue < 0.01,
               f"5-mode residue {coords.residue:.4%} (limit 1%)"),
        _check("criterion 5 (amplitude)", abs(amplitude - calibrated) <= 1e-6,
               f"amplitude {amplitude:.6f} mm vs calibrated "
               f"{calibrated:.6f} mm (tol 1e-6)"),
    ]
    failures = [f for f in failures if f]
    assert not failures, "; ".join(failures)


def test_criterion_6_closed_loop_on_surrogate(tmp_path):
    """design -> simulate -> fit -> optimize -> verify cuts the ears >= 10x.

    The loop's optimum lands in the published bands: D in [116.5, 117.6] mm,
    |A1| <= 0.15 mm, A2 in [-1.1, -0.5] mm, around the published optimum
    (117.05, 0, -0.807).
    """
    t0 = time.perf_counter()
    d = tmp_path / "camp"
    for stage in ("init", "design", "simulate", "fit", "optimize", "verify"):
        assert cli_main(["--campaign", str(d), stage]) == 0
    elapsed = time.perf_counter() - t0
    state = cp.load_state(d)
    v = state.verification
    opt_d, opt_a1, opt_a2 = state.optimum.physical
    # status "not_applicable"/"unbounded" leave no factor to format
    reduction = (f"{v.reduction_factor:.2f}x" if v.reduction_factor is not None
                 else f"None (status {v.status})")
    failures = [
        _check("criterion 6 (D band)", 116.5 <= opt_d <= 117.6,
               f"D = {opt_d:.4f} mm, band [116.5, 117.6]"),
        _check("criterion 6 (A1 band)", abs(opt_a1) <= 0.15,
               f"A1 = {opt_a1:.4f} mm, band |A1| <= 0.15"),
        _check("criterion 6 (A2 band)", -1.1 <= opt_a2 <= -0.5,
               f"A2 = {opt_a2:.4f} mm, band [-1.1, -0.5]"),
        _check("criterion 6 (reduction factor)",
               v.reduction_factor is not None and v.reduction_factor >= 10.0,
               f"reduction {reduction} (required >= 10)"),
        _check("criterion 6 (final amplitude)", v.optimum_amplitude <= 0.2,
               f"optimum amplitude {v.optimum_amplitude:.4f} mm (limit 0.2)"),
        _check("criterion 6 (runtime)", elapsed < 30.0, f"{elapsed:.1f} s"),
    ]
    failures = [f for f in failures if f]
    assert not failures, "; ".join(failures)


def _random_models(rng, n_models=5):
    base = QuadraticModel("Y", ("X1", "X2", "X3"), np.zeros(10), 0.0, 0.0)
    return tuple(dataclasses.replace(base, coefficients=rng.normal(0, 1, 10))
                 for _ in range(n_models))


def test_criterion_7_oracle_equivalence():
    """Optimizer never loses to the dense grid; analytic gradient checks out."""
    rng = np.random.default_rng(2024)
    worst_margin = -np.inf
    for _ in range(20):
        spec = ObjectiveSpec(models=_random_models(rng))
        opt = minimize(spec)
        _, f_grid = grid_oracle(spec, 41)
        worst_margin = max(worst_margin, opt.f_value - f_grid)
    objective_f, objective_gradient = _objective(
        ObjectiveSpec(models=_random_models(rng)))
    h = 1e-5
    worst_rel = 0.0
    for _ in range(100):
        x = rng.uniform(-1, 1, 3)
        g = objective_gradient(x)
        fd = np.empty(3)
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            fd[k] = (objective_f(x + e) - objective_f(x - e)) / (2 * h)
        worst_rel = max(worst_rel,
                        float(np.linalg.norm(g - fd)
                              / max(1.0, np.linalg.norm(fd))))
    failures = [
        _check("criterion 7 (grid oracle, 20 sets)", worst_margin <= 1e-6,
               f"worst F margin over 41^3 grid {worst_margin:.2e} (tol 1e-6)"),
        _check("criterion 7 (gradient check)", worst_rel <= 1e-4,
               f"worst relative FD mismatch {worst_rel:.2e} (tol 1e-4)"),
    ]
    failures = [f for f in failures if f]
    assert not failures, "; ".join(failures)


def test_criterion_8_exact_recovery(default_space, default_design, basis36):
    """Regression recovers in-space quadratics; span vectors project exactly."""
    rng = np.random.default_rng(2025)
    worst_coef = 0.0
    a = model_matrix(default_design.points)
    for _ in range(10):
        truth = rng.normal(0, 2, 10)
        table = ResponseTable(names=("Y",), values=(a @ truth)[:, None])
        model, = fit_quadratic(table, default_space)
        worst_coef = max(worst_coef,
                         float(np.max(np.abs(model.coefficients - truth))))
    worst_residue = 0.0
    for _ in range(25):
        v = basis36.modes @ rng.uniform(-2, 2, 5)
        worst_residue = max(worst_residue, project(v).residue)
    failures = [
        _check("criterion 8 (coefficient recovery)", worst_coef <= 1e-8,
               f"worst coefficient error {worst_coef:.2e} (tol 1e-8)"),
        _check("criterion 8 (span projection)", worst_residue <= 1e-9,
               f"worst span residue {worst_residue:.2e} (tol 1e-9)"),
    ]
    failures = [f for f in failures if f]
    assert not failures, "; ".join(failures)
