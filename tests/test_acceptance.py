"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Tolerances are fixed here, not calibrated.
"""

import dataclasses
import time

import numpy as np

from causalsde import (
    Grid,
    JumpAtom,
    LevyTriplet,
    ScalarField2,
    apply_generator,
    bump_field_battery,
    characteristic_function,
    check_commutation,
    compare_generators,
    constant_field,
    convergence_study,
    default_u_grid,
    empirical_cf,
    field_from_callable,
    gaussian_bump,
    identifiability_check,
    intervene_sde,
    ito_counterexample,
    load_builtin,
    ou_intervene,
    ou_transition,
    probe_points,
    sample_increments,
    semigroup_estimate,
    simulate_slices,
)
from causalsde._rng import path_stream
from causalsde.presets import ou_builtin_model
from causalsde.system import InitialLaw, SdeSystem


def _report(name: str, passed: bool, detail: str, started: float, budget: float):
    elapsed = time.perf_counter() - started
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] {name}: {detail} [{elapsed:.1f}s / budget {budget:.0f}s]")
    assert passed, f"{name}: {detail}"
    assert elapsed < budget, f"{name} exceeded its runtime budget ({elapsed:.1f}s)"


def gbm_system(x0=1.0):
    field = field_from_callable(
        1, 1, lambda x: x[:, None], batch_func=lambda xs: xs[:, :, None],
        declared_dependence=np.array([[True]]),
    )
    driver = LevyTriplet(dim=1, alpha=np.zeros(1), cov=np.eye(1))
    return SdeSystem(field, driver, InitialLaw(np.array([x0])))


def single_atom_system():
    driver = LevyTriplet(
        dim=1, alpha=[0.0], cov=0.0,
        jumps=(JumpAtom(rate=1.0, location=np.array([2.0])),), trunc_radius=1.0,
    )
    return SdeSystem(constant_field(np.ones((1, 1))), driver, InitialLaw(np.zeros(1)))


def jump_suite():
    """Jump-bearing reference systems for the two generator forms."""
    two_atom_driver = LevyTriplet(
        dim=1, alpha=[0.3], cov=0.5,
        jumps=(
            JumpAtom(rate=1.0, location=np.array([2.0])),
            JumpAtom(rate=1.5, location=np.array([-0.5])),
        ),
        trunc_radius=1.0,
    )
    wavy = field_from_callable(
        1, 1, lambda x: np.array([[1.0 + 0.25 * np.sin(x[0])]]),
        batch_func=lambda xs: (1.0 + 0.25 * np.sin(xs))[:, :, None],
    )
    planar_driver = LevyTriplet(
        dim=2, alpha=[0.1, -0.2], cov=np.array([[1.0, 0.2], [0.2, 0.5]]),
        jumps=(
            JumpAtom(rate=0.7, location=np.array([0.5, 0.5])),
            JumpAtom(rate=1.2, location=np.array([-2.0, 1.0])),
        ),
        trunc_radius=1.0,
    )
    planar = field_from_callable(
        2, 2,
        lambda x: np.array([[1.0, 0.3 * x[1]], [0.2 * np.cos(x[0]), 2.0]]),
        batch_func=lambda xs: np.stack(
            [
                np.stack([np.ones(len(xs)), 0.3 * xs[:, 1]], axis=1),
                np.stack([0.2 * np.cos(xs[:, 0]), 2.0 * np.ones(len(xs))], axis=1),
            ],
            axis=1,
        ),
    )
    return [
        single_atom_system(),
        SdeSystem(wavy, two_atom_driver, InitialLaw(np.zeros(1))),
        SdeSystem(planar, planar_driver, InitialLaw(np.zeros(2))),
    ]


def test_criterion_1_commutation():
    started = time.perf_counter()
    grid = Grid(1.0, 2.0**-8)
    worst = 0.0
    for name in ("ou", "chem"):
        built = load_builtin(name)
        report = check_commutation(built.system, built.intervention, grid, 100, seed=71)
        assert report["explosion_pattern_match"]
        worst = max(worst, report["max_discrepancy"])
    _report(
        "criterion 1 (commutation, ou+chem)",
        worst <= 1e-12,
        f"max pathwise discrepancy {worst:.2e} (tol 1e-12)",
        started,
        budget=10.0,
    )


def test_criterion_2_euler_convergence():
    started = time.perf_counter()
    system = gbm_system()
    exact = lambda t, z: np.exp(z[:, :, 0] - 0.5 * t)
    deltas = [2.0**-k for k in range(4, 10)]
    study = convergence_study(system, exact, deltas, 1.0, 2000, seed=2024)
    slope_ok = 0.35 <= study.slope <= 0.65
    rms = [study.rms_for(d) for d in sorted(deltas, reverse=True)]
    monotone_ok = all(fine <= coarse * 1.05 for coarse, fine in zip(rms, rms[1:]))
    _report(
        "criterion 2 (strong Euler convergence, GBM)",
        slope_ok and monotone_ok,
        f"slope {study.slope:.3f} in [0.35, 0.65]; monotone within 5%: {monotone_ok}",
        started,
        budget=60.0,
    )


def test_criterion_3_identifiability():
    started = time.perf_counter()
    built = load_builtin("two-signatures")
    sys_a, sys_b, spec = built.system, built.partner, built.intervention

    pts = probe_points(sys_a.coeff, 1000)
    structural = compare_generators(sys_a, sys_b, pts, fields=bump_field_battery(2)[:1])
    part_a = structural["max_diffusion_distance"] <= 1e-12

    consistent = identifiability_check(
        sys_a, sys_b, spec, times=[0.5, 1.0], n_paths=10_000, delta=1e-3,
        seed=314159, alpha=0.01,
    )
    part_b = consistent.verdict == "consistent with equality"

    scaled_field = field_from_callable(
        2, 2,
        lambda x, f=sys_b.coeff: 1.25 * f(x),
        batch_func=lambda xs, f=sys_b.coeff: 1.25 * f.eval_batch(xs),
        declared_dependence=sys_b.coeff.declared_dependence,
        singular_points=sys_b.coeff.singular_points,
    )
    sys_scaled = dataclasses.replace(sys_b, coeff=scaled_field)
    power = identifiability_check(
        sys_a, sys_scaled, spec, times=[0.5, 1.0], n_paths=10_000, delta=1e-3,
        seed=314159, alpha=0.01,
    )
    part_c = power.verdict == "inconsistent"

    _report(
        "criterion 3 (identifiability, two-signature pair)",
        part_a and part_b and part_c,
        f"squared-coefficient gap {structural['max_diffusion_distance']:.2e}; "
        f"null verdict '{consistent.verdict}'; scaled verdict '{power.verdict}'",
        started,
        budget=180.0,
    )


def test_criterion_4_ou_closed_forms():
    started = time.perf_counter()
    model = ou_builtin_model()
    built = load_builtin("ou")
    spec = built.intervention
    reduced_model = ou_intervene(model, spec.target, spec.constant())
    mean_exact, cov_exact = ou_transition(reduced_model, reduced_model.initial.mean, 1.0)

    reduced_sys = intervene_sde(built.system, spec)
    n = 100_000
    sl = simulate_slices(reduced_sys, 1e-3, [1.0], n, seed=99)
    final = sl.state_at(1.0)[sl.alive()]
    n_ok = len(final)

    mean_hat = final.mean(axis=0)
    se_mean = final.std(axis=0, ddof=1) / np.sqrt(n_ok)
    mean_ok = np.all(np.abs(mean_hat - mean_exact) <= 4 * se_mean)

    centered = final - mean_hat
    cov_hat = (centered.T @ centered) / (n_ok - 1)
    cov_ok = True
    for i in range(cov_hat.shape[0]):
        for j in range(cov_hat.shape[0]):
            prods = centered[:, i] * centered[:, j]
            se = prods.std(ddof=1) / np.sqrt(n_ok)
            tol = max(4 * se, 0.05 * abs(cov_exact[i, j]))
            cov_ok &= abs(cov_hat[i, j] - cov_exact[i, j]) <= tol
    _report(
        "criterion 4 (OU closed forms vs simulation)",
        bool(mean_ok and cov_ok),
        f"mean gap {np.max(np.abs(mean_hat - mean_exact)):.2e} (4*SE {np.max(4 * se_mean):.2e}); "
        f"var gap {abs(cov_hat[0, 0] - cov_exact[0, 0]):.2e}",
        started,
        budget=60.0,
    )


def test_criterion_5_generator_semigroup():
    started = time.perf_counter()
    cases = []
    gbm = gbm_system()
    bump = gaussian_bump(np.array([1.0]), width=0.5)
    for x in (0.8, 1.0, 1.3):
        cases.append((gbm, bump, np.array([x])))
    jumpy = single_atom_system()
    rational = ScalarField2(value=lambda x: 1.0 / (1.0 + x[..., 0] ** 2))
    for x in (0.0, 0.5, -0.5):
        cases.append((jumpy, rational, np.array([x])))

    all_ok = True
    worst = ""
    for k, (system, f, x) in enumerate(cases):
        exact = apply_generator(system, f, x)
        est = semigroup_estimate(system, f, x, t=1e-3, n_paths=1_000_000, seed=500 + k)
        tol = max(3 * est.std_error, 0.05 * abs(exact) + 1e-3)
        ok = abs(est.estimate - exact) <= tol
        if not ok or not worst:
            worst = f"x={x[0]:g}: |{est.estimate:.4f} - {exact:.4f}| vs tol {tol:.4f}"
        all_ok &= ok
    _report(
        "criterion 5 (generator vs semigroup difference quotient)",
        bool(all_ok),
        worst,
        started,
        budget=120.0,
    )


def test_criterion_6_generator_form_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(6)
    worst = 0.0
    for system in jump_suite():
        fields = bump_field_battery(system.p)
        xs = rng.uniform(-5, 5, size=(100, system.p))
        for f in fields:
            a = apply_generator(system, f, xs, form="driver")
            b = apply_generator(system, f, xs, form="state")
            worst = max(worst, float(np.max(np.abs(a - b))))
    _report(
        "criterion 6 (generator form equivalence)",
        worst <= 1e-9,
        f"max |driver-form - state-form| = {worst:.2e} (tol 1e-9)",
        started,
        budget=5.0,
    )


def test_criterion_7_ito_counterexample():
    started = time.perf_counter()
    report = ito_counterexample(
        lambda x: np.square(x), lambda x: 2.0 * x, lambda x: 2.0 + 0.0 * x,
        zeta=1.0, horizon=1.0, delta=2.0**-8, n_paths=100, seed=7,
    )
    path_ok = report["max_distance_from_definition_path"] <= 1e-12
    gap_ok = report["distance_assumed_at_time_zero"] == 1.0
    _report(
        "criterion 7 (held-coordinate counterexample)",
        path_ok and gap_ok,
        f"definition-path gap {report['max_distance_from_definition_path']:.2e}; "
        f"time-zero distance from assumed constant {report['distance_assumed_at_time_zero']:g}",
        started,
        budget=5.0,
    )


def test_criterion_8_driver_law_fidelity():
    started = time.perf_counter()
    brownian = LevyTriplet(
        dim=2, alpha=np.array([0.5, -0.2]), cov=np.array([[1.0, 0.3], [0.3, 0.8]])
    )
    two_atom = LevyTriplet(
        dim=1, alpha=[0.1], cov=0.2,
        jumps=(
            JumpAtom(rate=0.8, location=np.array([1.5])),
            JumpAtom(rate=2.0, location=np.array([-0.4])),
        ),
        trunc_radius=1.0,
    )
    worst = 0.0
    delta = 0.7
    for k, triplet in enumerate((brownian, two_atom)):
        incs = sample_increments(triplet, delta, 1_000_000, path_stream(808 + k, 0))
        grid = default_u_grid(triplet.dim)
        gap = np.max(np.abs(empirical_cf(incs, grid) - characteristic_function(triplet, grid, delta)))
        worst = max(worst, float(gap))
    _report(
        "criterion 8 (driver law fidelity, empirical CF)",
        worst <= 0.01,
        f"sup CF error over 20-point grid = {worst:.4f} (tol 0.01)",
        started,
        budget=30.0,
    )


def test_criterion_9_null_calibration():
    started = time.perf_counter()
    built = load_builtin("two-signatures")
    rejections = 0
    for rep in range(100):
        report = identifiability_check(
            built.system, built.partner, built.intervention,
            times=[0.5], n_paths=10_000, delta=1.0 / 128, seed=90_000 + rep,
            alpha=0.01, n_permutations=500, energy_max_points=1024,
        )
        rejections += report.verdict == "inconsistent"
    _report(
        "criterion 9 (null calibration of the equality check)",
        rejections <= 5,
        f"{rejections}/100 null rejections at alpha=0.01 (allowed 5)",
        started,
        budget=600.0,
    )
