"""Generator tests: closed-form values, form equivalence, semigroup estimates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalsde import (
    JumpAtom,
    LevyTriplet,
    ScalarField2,
    apply_generator,
    compare_generators,
    compute_terms,
    constant_field,
    field_from_callable,
    field_from_expressions,
    gaussian_bump,
    probe_points,
    semigroup_estimate,
    bump_field_battery,
    load_builtin,
    two_signature_pair,
)
from causalsde.expr import Expression
from causalsde.system import CoefficientField, InitialLaw, SdeSystem
from strategies import expression_trees


def bm_driver(d=1):
    return LevyTriplet(dim=d, alpha=np.zeros(d), cov=np.eye(d))


def unit_field():
    return constant_field(np.ones((1, 1)))


def gbm_system(x0=1.0):
    field = field_from_callable(
        1, 1, lambda x: x[:, None], batch_func=lambda xs: xs[:, :, None],
        declared_dependence=np.array([[True]]),
    )
    return SdeSystem(field, bm_driver(), InitialLaw(np.array([x0])))


def single_atom_system():
    driver = LevyTriplet(
        dim=1, alpha=[0.0], cov=0.0,
        jumps=(JumpAtom(rate=1.0, location=np.array([2.0])),), trunc_radius=1.0,
    )
    return SdeSystem(unit_field(), driver, InitialLaw(np.zeros(1)))


def two_atom_system():
    driver = LevyTriplet(
        dim=1, alpha=[0.3], cov=0.5,
        jumps=(
            JumpAtom(rate=1.0, location=np.array([2.0])),
            JumpAtom(rate=1.5, location=np.array([-0.5])),
        ),
        trunc_radius=1.0,
    )
    field = field_from_callable(
        1, 1, lambda x: np.array([[1.0 + 0.25 * np.sin(x[0])]]),
        batch_func=lambda xs: (1.0 + 0.25 * np.sin(xs))[:, :, None],
    )
    return SdeSystem(field, driver, InitialLaw(np.zeros(1)))


def two_atom_planar_driver():
    # one atom inside the unit truncation ball, one outside; correlated Gaussian part
    return LevyTriplet(
        dim=2, alpha=[0.3, -0.1], cov=np.array([[0.5, 0.1], [0.1, 0.4]]),
        jumps=(
            JumpAtom(rate=1.0, location=np.array([2.0, 0.5])),
            JumpAtom(rate=1.5, location=np.array([-0.5, 0.2])),
        ),
        trunc_radius=1.0,
    )


def two_atom_planar_system():
    def batch(xs):
        x1, x2 = xs[:, 0], xs[:, 1]
        rows = [[1.0 + 0.25 * np.sin(x1), 0.3 * x2], [0.2 * np.cos(x2), 1.0 + 0.1 * x1 * x1]]
        return np.stack([np.stack(r, axis=-1) for r in rows], axis=1)

    field = field_from_callable(2, 2, batch_func=batch)
    return SdeSystem(field, two_atom_planar_driver(), InitialLaw(np.zeros(2)))


def chem_system():
    return load_builtin("chem").system


def reference_terms(system, x, r_state=1.0):
    """Per-point state-side terms, one atom at a time."""
    a, trip = system.coeff(x), system.driver
    beta, atoms = a @ trip.alpha, []
    for atom in trip.jumps:
        image = a @ atom.location
        in_state = float(np.linalg.norm(image) <= r_state)
        in_driver = float(np.linalg.norm(atom.location) <= trip.trunc_radius)
        beta = beta + atom.rate * (in_state - in_driver) * image
        atoms.append((atom.rate, image))
    diffusion = a @ trip.cov @ a.T
    return beta, 0.5 * (diffusion + diffusion.T), atoms


def reference_value(system, f, x, form="driver", r_state=1.0):
    """Per-point generator value with scalar arithmetic: the reference the
    batched layer must reproduce."""
    grad, hess = f.grad(x), f.hess(x)
    a, trip = system.coeff(x), system.driver
    if form == "driver":
        drift, diffusion = a @ trip.alpha, a @ trip.cov @ a.T
        jumps = [
            (atom.rate, a @ atom.location, np.linalg.norm(atom.location) <= trip.trunc_radius)
            for atom in trip.jumps
        ]
    else:
        drift, diffusion, atoms = reference_terms(system, x, r_state)
        jumps = [(rate, image, np.linalg.norm(image) <= r_state) for rate, image in atoms]
    value = float(grad @ drift) + 0.5 * float(np.einsum("ij,ij->", diffusion, hess))
    f0 = float(f(x))
    for rate, jump, compensated in jumps:
        term = float(f(x + jump)) - f0
        if compensated:
            term -= float(grad @ jump)
        value += rate * term
    return value


def reference_fd(f, x):
    """Per-point central differences, one coordinate (pair) at a time."""
    h = 1e-5 * (1.0 + np.linalg.norm(x))
    p, eye = x.size, np.eye(x.size) * h
    grad, hess, f0 = np.empty(p), np.empty((p, p)), float(f(x))
    for i in range(p):
        grad[i] = (f(x + eye[i]) - f(x - eye[i])) / (2 * h)
        hess[i, i] = (f(x + eye[i]) - 2 * f0 + f(x - eye[i])) / h**2
        for j in range(i + 1, p):
            hess[i, j] = hess[j, i] = (
                f(x + eye[i] + eye[j])
                - f(x + eye[i] - eye[j])
                - f(x - eye[i] + eye[j])
                + f(x - eye[i] - eye[j])
            ) / (4 * h**2)
    return grad, hess


def linear_f(slope=3.0):
    return ScalarField2(
        value=lambda x: slope * x[..., 0],
        gradient=lambda x: np.array([slope]),
        hessian=lambda x: np.zeros((1, 1)),
    )


class TestPointwiseValues:
    def test_pure_drift(self):
        driver = LevyTriplet(dim=1, alpha=[1.0], cov=0.0)
        system = SdeSystem(unit_field(), driver, InitialLaw(np.zeros(1)))
        assert apply_generator(system, linear_f(3.0), np.zeros(1)) == pytest.approx(3.0)

    def test_diffusion_only(self):
        f = ScalarField2(
            value=lambda x: (x[..., 0] - 2.0) ** 2,
            gradient=lambda x: np.array([2.0 * (x[0] - 2.0)]),
            hessian=lambda x: np.array([[2.0]]),
        )
        value = apply_generator(gbm_system(), f, np.array([2.0]))
        assert value == pytest.approx(4.0, abs=1e-12)

    def test_single_atom_no_compensation(self):
        f = ScalarField2(value=lambda x: 1.0 / (1.0 + x[..., 0] ** 2))
        value = apply_generator(single_atom_system(), f, np.zeros(1))
        assert value == pytest.approx(-0.8, abs=1e-9)


class TestTerms:
    def test_no_jumps_drift_is_field_times_alpha(self):
        driver = LevyTriplet(dim=2, alpha=[0.7, -0.3], cov=np.eye(2))
        field = constant_field(np.array([[1.0, 2.0], [0.0, 1.0]]))
        system = SdeSystem(field, driver, InitialLaw(np.zeros(2)))
        terms = compute_terms(system, np.zeros(2))
        np.testing.assert_allclose(terms.beta, field(np.zeros(2)) @ driver.alpha)

    def test_atom_outside_both_balls_leaves_drift(self):
        system = single_atom_system()  # image 2 outside both unit balls
        terms = compute_terms(system, np.zeros(1), r_state=1.0)
        np.testing.assert_allclose(terms.beta, [0.0], atol=1e-15)

    def test_pushforward_atom(self):
        driver = LevyTriplet(
            dim=1, alpha=[0.0], cov=0.0,
            jumps=(JumpAtom(rate=0.5, location=np.array([3.0])),), trunc_radius=1.0,
        )
        field = constant_field(np.array([[1.0], [2.0]]))
        system = SdeSystem(field, driver, InitialLaw(np.zeros(2)))
        terms = compute_terms(system, np.zeros(2))
        (rate, loc), = terms.atoms
        assert rate == 0.5
        np.testing.assert_array_equal(loc, [3.0, 6.0])

    def test_pushforward_preserves_total_rate(self):
        system = two_atom_system()
        for x in (np.array([0.0]), np.array([1.7])):
            terms = compute_terms(system, x)
            assert terms.total_jump_rate == pytest.approx(2.5, abs=1e-15)


class TestFormEquivalence:
    @pytest.mark.parametrize("factory", [single_atom_system, two_atom_system])
    def test_driver_and_state_forms_agree(self, factory):
        system = factory()
        rng = np.random.default_rng(0)
        fields = bump_field_battery(system.p)
        for _ in range(100):
            x = rng.uniform(-5, 5, size=system.p)
            for f in fields:
                a = apply_generator(system, f, x, form="driver")
                b = apply_generator(system, f, x, form="state")
                assert abs(a - b) <= 1e-9

    def test_linearity(self):
        system = two_atom_system()
        f, g = bump_field_battery(1)[:2]
        combo = ScalarField2(
            value=lambda x: 2.0 * f.value(x) + 3.0 * g.value(x),
            gradient=lambda x: 2.0 * f.gradient(x) + 3.0 * g.gradient(x),
            hessian=lambda x: 2.0 * f.hessian(x) + 3.0 * g.hessian(x),
        )
        for x in (np.array([0.2]), np.array([-1.4])):
            lhs = apply_generator(system, combo, x)
            rhs = 2.0 * apply_generator(system, f, x) + 3.0 * apply_generator(system, g, x)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


class TestCompare:
    def test_system_against_itself(self):
        system = two_atom_system()
        pts = np.linspace(-2, 2, 7)[:, None]
        report = compare_generators(system, system, pts)
        assert report["max_value_difference"] == 0.0
        assert report["max_beta_distance"] == 0.0
        assert report["max_jump_distance"] == 0.0
        assert report["structurally_equal"]

    def test_two_signature_pair_structurally_equal(self):
        sys_a, sys_b = two_signature_pair()
        pts = probe_points(sys_a.coeff, 1000)
        report = compare_generators(sys_a, sys_b, pts)
        assert report["max_diffusion_distance"] <= 1e-12
        assert report["structurally_equal"]
        assert report["max_value_difference"] <= 1e-9

    def test_driver_rescaling_invariance(self):
        sys_a, _ = two_signature_pair()
        rescaled_driver = LevyTriplet(dim=2, alpha=np.zeros(2), cov=4.0 * np.eye(2))
        half = field_from_callable(
            2, 2,
            lambda x, f=sys_a.coeff: 0.5 * f(x),
            batch_func=lambda xs, f=sys_a.coeff: 0.5 * f.eval_batch(xs),
            declared_dependence=sys_a.coeff.declared_dependence,
            singular_points=sys_a.coeff.singular_points,
        )
        sys_b = SdeSystem(half, rescaled_driver, sys_a.initial, sys_a.labels)
        pts = probe_points(sys_a.coeff, 200)
        report = compare_generators(sys_a, sys_b, pts)
        assert report["max_beta_distance"] <= 1e-12
        assert report["max_diffusion_distance"] <= 1e-12

    def test_structural_equality_implies_functional(self):
        sys_a, sys_b = two_signature_pair()
        pts = probe_points(sys_a.coeff, 100)
        report = compare_generators(sys_a, sys_b, pts)
        for entry in report["per_point"]:
            structural = max(
                entry["beta_distance"], entry["diffusion_distance"], entry["jump_distance"]
            )
            if structural < 1e-12:
                assert entry["max_value_difference"] < 1e-9

    def test_dimension_mismatch(self):
        sys_a, _ = two_signature_pair()
        with pytest.raises(ValueError, match="dimension"):
            compare_generators(sys_a, gbm_system(), np.zeros((1, 2)))


class TestBatched:
    @pytest.mark.parametrize("form", ["driver", "state"])
    @pytest.mark.parametrize("factory", [two_atom_planar_system, chem_system])
    def test_stack_matches_per_point_reference(self, factory, form):
        system = factory()
        pts = probe_points(system.coeff, 64)
        for f in bump_field_battery(system.p):
            batched = apply_generator(system, f, pts, form=form)
            ref = np.array([reference_value(system, f, x, form) for x in pts])
            np.testing.assert_allclose(batched, ref, rtol=1e-15, atol=1e-15 * np.abs(ref).max())

    @pytest.mark.parametrize("factory", [two_atom_planar_system, chem_system])
    def test_terms_stack_matches_per_point_reference(self, factory):
        system = factory()
        pts = probe_points(system.coeff, 64)
        terms = compute_terms(system, pts)
        refs = [reference_terms(system, x) for x in pts]
        np.testing.assert_array_equal(terms.point, pts)
        np.testing.assert_array_equal(terms.beta, [r[0] for r in refs])
        np.testing.assert_array_equal(terms.diffusion, [r[1] for r in refs])
        for k, (rate, images) in enumerate(terms.atoms):
            assert rate == refs[0][2][k][0]
            np.testing.assert_array_equal(images, [r[2][k][1] for r in refs])

    def test_point_input_keeps_point_shapes(self):
        system = two_atom_planar_system()
        f = bump_field_battery(2)[2]
        x = np.array([0.3, -0.2])
        value = apply_generator(system, f, x, form="state")
        assert type(value) is float
        assert value == apply_generator(system, f, x[None, :], form="state")[0]
        terms = compute_terms(system, x)
        assert terms.beta.shape == (2,) and terms.diffusion.shape == (2, 2)
        assert all(image.shape == (2,) for _, image in terms.atoms)

    @pytest.mark.parametrize("n_points", [3, 200])
    def test_compare_evaluates_each_system_once(self, monkeypatch, n_points):
        calls = []
        original = CoefficientField.eval_batch
        monkeypatch.setattr(
            CoefficientField, "eval_batch", lambda self, xs: calls.append(len(xs)) or original(self, xs)
        )
        system = two_atom_planar_system()
        compare_generators(system, system, probe_points(system.coeff, n_points))
        assert len(calls) == 2

    def test_per_point_derivatives_rejected_on_a_stack(self):
        # written for one point: on a stack x[0] is the first row, not the first coordinate
        f = ScalarField2(
            value=lambda x: (x[..., 0] - 2.0) ** 2,
            gradient=lambda x: np.array([2.0 * (x[0] - 2.0)]),
            hessian=lambda x: np.array([[2.0]]),
        )
        system = SdeSystem(unit_field(), LevyTriplet(dim=1, alpha=[1.0], cov=0.0), InitialLaw(np.zeros(1)))
        assert apply_generator(system, f, np.array([3.0])) == 2.0
        with pytest.raises(ValueError, match="shapes"):
            apply_generator(system, f, np.array([[2.0], [3.0], [1.0]]))

    def test_bad_point_shape(self):
        with pytest.raises(ValueError, match="shape"):
            apply_generator(two_atom_planar_system(), bump_field_battery(2)[0], np.zeros((2, 3)))


_POLYNOMIALS = expression_trees(binops=("+", "-", "*"), calls=False, n_vars=2, max_leaves=6)


@given(st.lists(_POLYNOMIALS, min_size=4, max_size=4))
@settings(max_examples=25, deadline=None)
def test_random_polynomial_fields_with_jumps(trees):
    exprs = [Expression(t) for t in trees]
    field = field_from_expressions([exprs[:2], exprs[2:]], p=2)
    system = SdeSystem(field, two_atom_planar_driver(), InitialLaw(np.zeros(2)))
    axis = np.linspace(-2.0, 2.0, 4)
    pts = np.array([[u, v] for u in axis for v in axis])
    scale = (1.0 + np.abs(field.eval_batch(pts)).max()) ** 2
    for f in bump_field_battery(2):
        driver = apply_generator(system, f, pts, form="driver")
        state = apply_generator(system, f, pts, form="state")
        np.testing.assert_allclose(driver, state, rtol=0, atol=1e-12 * scale)
        ref = np.array([reference_value(system, f, x, "state") for x in pts])
        np.testing.assert_allclose(state, ref, rtol=1e-15, atol=1e-15 * scale)
    report = compare_generators(system, system, pts)
    assert report["structurally_equal"]
    assert report["max_value_difference"] == 0.0


class TestFiniteDifferenceFallback:
    def test_stack_matches_per_point(self):
        bump = gaussian_bump(np.array([0.3, -0.6, 0.1]), width=1.2, lin=np.array([0.5, 0.0, 0.0]))
        bare = ScalarField2(value=bump.value)
        pts = np.random.default_rng(4).uniform(-2, 2, size=(40, 3))
        grad, hess = bare.grad(pts), bare.hess(pts)
        for x, g, h in zip(pts, grad, hess):
            np.testing.assert_array_equal(g, bare.grad(x))
            np.testing.assert_array_equal(h, bare.hess(x))
            g_ref, h_ref = reference_fd(bare, x)
            np.testing.assert_allclose(g, g_ref, rtol=1e-15, atol=0)
            np.testing.assert_allclose(h, h_ref, rtol=1e-15, atol=0)

    def test_gradient_and_hessian_match_analytic(self):
        bump = gaussian_bump(np.array([0.3, -0.6]), width=1.2, lin=np.array([0.5, 0.0]))
        bare = ScalarField2(value=bump.value)
        x = np.array([0.4, 0.2])
        np.testing.assert_allclose(bare.grad(x), bump.grad(x), atol=1e-7)
        np.testing.assert_allclose(bare.hess(x), bump.hess(x), atol=1e-5)

    def test_fd_hessian_symmetric(self):
        bare = ScalarField2(value=lambda x: np.sin(x[..., 0]) * np.exp(-x[..., 1] ** 2))
        h = bare.hess(np.array([0.3, 0.4]))
        np.testing.assert_array_equal(h, h.T)


class TestSemigroup:
    def test_zero_field_estimates_zero(self):
        system = SdeSystem(constant_field(np.zeros((1, 1))), bm_driver(), InitialLaw(np.zeros(1)))
        est = semigroup_estimate(system, gaussian_bump(np.zeros(1)), np.zeros(1), 1e-3, 5000, seed=0)
        assert est.estimate == 0.0
        assert est.std_error == 0.0

    def test_gbm_matches_generator(self):
        system = gbm_system()
        f = gaussian_bump(np.array([1.0]), width=0.5)
        x = np.array([1.0])
        exact = apply_generator(system, f, x)
        est = semigroup_estimate(system, f, x, 1e-3, 200_000, seed=1)
        tol = max(4 * est.std_error, 0.05 * abs(exact) + 1e-3)
        assert abs(est.estimate - exact) <= tol

    def test_jump_system_matches_generator(self):
        system = single_atom_system()
        f = ScalarField2(value=lambda x: 1.0 / (1.0 + x[..., 0] ** 2))
        x = np.zeros(1)
        exact = apply_generator(system, f, x)  # -0.8
        est = semigroup_estimate(system, f, x, 1e-3, 200_000, seed=2)
        assert abs(est.estimate - exact) <= max(4 * est.std_error, 0.05 * abs(exact))

    def test_deterministic(self):
        system = gbm_system()
        f = gaussian_bump(np.array([1.0]))
        a = semigroup_estimate(system, f, np.ones(1), 1e-3, 20_000, seed=3)
        b = semigroup_estimate(system, f, np.ones(1), 1e-3, 20_000, seed=3)
        assert a == b

    def test_no_paths_rejected(self):
        system = gbm_system()
        with pytest.raises(ValueError, match="n_paths must be positive"):
            semigroup_estimate(system, gaussian_bump(np.ones(1)), np.ones(1), 1e-3, 0, seed=0)

    @pytest.mark.parametrize(
        "x, match",
        [(np.zeros(2), r"shape \(1,\), got \(2,\)"), (np.array([np.nan]), "finite")],
        ids=["wrong-size", "nan"],
    )
    def test_bad_start_rejected_before_the_draw(self, monkeypatch, x, match):
        def refuse(*args):
            raise AssertionError("block drawn")

        monkeypatch.setattr("causalsde.generator.block_stream", refuse)
        with pytest.raises(ValueError, match=match):
            semigroup_estimate(gbm_system(), gaussian_bump(np.ones(1)), x, 1e-3, 100, seed=0)

    def test_one_path_needs_a_second_survivor(self):
        system = SdeSystem(constant_field(np.ones((1, 1))), bm_driver(), InitialLaw(np.zeros(1)))
        f = gaussian_bump(np.zeros(1))
        with pytest.raises(ValueError, match=r"at least two surviving paths.*got 1 of 1 \(0 exploded\)"):
            semigroup_estimate(system, f, np.zeros(1), 1e-3, 1, seed=0)

    def test_huge_surviving_paths_give_infinite_std_error(self):
        # x1^3 from 3: the survivors reach ~1e199, so the sum of squares overflows
        driver = LevyTriplet(dim=1, alpha=[0.0], cov=[[1.0]])
        system = SdeSystem(field_from_expressions([["x1 * x1 * x1"]]), driver, InitialLaw([3.0]))
        f = ScalarField2(value=lambda x: x[..., 0])
        est = semigroup_estimate(system, f, np.array([3.0]), 0.1, 3000, seed=1, n_substeps=32)
        assert np.isfinite(est.estimate) and abs(est.estimate) > 1e100
        assert est.std_error == np.inf
        assert 0 < est.n_exploded < 3000
