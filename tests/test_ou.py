"""Closed-form tests for the mean-reverting (OU) machinery."""

import numpy as np
import pytest

from causalsde import (
    Grid,
    InterventionSpec,
    OuModel,
    SingularReversionError,
    gramian,
    intervene_sde,
    matrix_exp,
    ou_intervene,
    ou_to_system,
    ou_transition,
    probe_signature,
    simulate,
    simulate_slices,
)

EXAMPLE_B = np.array([[-1.0, 0.5], [0.3, -2.0]])


def example_model():
    return OuModel(level=np.zeros(2), reversion=EXAMPLE_B, diffusion=np.eye(2),
                   initial=np.array([1.0, 1.0]))


def test_system_keeps_a_copy_of_the_reversion_matrix():
    reversion = EXAMPLE_B.copy()
    model = OuModel(level=np.zeros(2), reversion=reversion, diffusion=np.eye(2))
    system = ou_to_system(model)
    x = np.array([[1.0, -1.0]])
    drift = system.coeff.eval_batch(x)[:, :, 0]
    reversion[0, 0] = 50.0
    np.testing.assert_array_equal(system.coeff.eval_batch(x)[:, :, 0], drift)
    np.testing.assert_array_equal(model.reversion, EXAMPLE_B)


class TestMatrixExp:
    def test_zero(self):
        np.testing.assert_array_equal(matrix_exp(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        d = np.diag([1.0, -2.0, 0.5])
        np.testing.assert_allclose(matrix_exp(d), np.diag(np.exp(np.diag(d))), rtol=1e-13)

    def test_nilpotent(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        np.testing.assert_allclose(matrix_exp(m), np.array([[1.0, 1.0], [0.0, 1.0]]), atol=1e-15)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            matrix_exp(np.array([[np.inf]]))


class TestGramian:
    def test_zero_horizon(self):
        np.testing.assert_array_equal(gramian(EXAMPLE_B, np.eye(2), 0.0), np.zeros((2, 2)))

    def test_zero_reversion_gives_linear_growth(self):
        q = np.array([[2.0, 0.3], [0.3, 1.0]])
        np.testing.assert_allclose(gramian(np.zeros((2, 2)), q, 1.7), 1.7 * q, atol=1e-12)

    def test_against_trapezoid_quadrature(self):
        rng = np.random.default_rng(3)
        b = rng.standard_normal((3, 3))
        m = rng.standard_normal((3, 3))
        q = m @ m.T
        t = 0.8
        n_nodes = 10_000
        ds = t / n_nodes
        step = matrix_exp(ds * b)
        acc = np.zeros((3, 3))
        e = np.eye(3)
        for k in range(n_nodes + 1):
            w = 0.5 if k in (0, n_nodes) else 1.0
            acc += w * (e @ q @ e.T)
            e = step @ e
        reference = acc * ds
        np.testing.assert_allclose(gramian(b, q, t), reference, atol=1e-8)

    def test_output_is_psd(self):
        w = np.linalg.eigvalsh(gramian(EXAMPLE_B, np.eye(2), 2.0))
        assert np.min(w) > -1e-10


class TestOuSystem:
    def test_drift_vanishes_at_level(self):
        model = OuModel(level=np.array([1.0, -2.0]), reversion=EXAMPLE_B, diffusion=np.eye(2))
        system = ou_to_system(model)
        np.testing.assert_allclose(system.coeff(model.level)[:, 0], np.zeros(2), atol=1e-15)

    def test_frozen_when_static(self):
        model = OuModel(level=np.zeros(2), reversion=np.zeros((2, 2)),
                        diffusion=np.zeros((2, 1)), initial=np.array([3.0, -1.0]))
        ens = simulate(ou_to_system(model), Grid(1.0, 0.5), 5, seed=1)
        assert np.all(ens.values == np.array([3.0, -1.0]))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_probe_matches_declared_for_sparse_reversion(self, seed):
        rng = np.random.default_rng(seed)
        b = rng.standard_normal((3, 3))
        b[rng.random((3, 3)) < 0.5] = 0.0
        np.fill_diagonal(b, -1.0)
        model = OuModel(level=np.zeros(3), reversion=b, diffusion=np.eye(3))
        system = ou_to_system(model)
        assert probe_signature(system).edges == system.signature().edges


class TestOuIntervene:
    def test_example_values(self):
        reduced = ou_intervene(example_model(), 0, 2.0)
        np.testing.assert_allclose(reduced.reversion, np.array([[-2.0]]))
        np.testing.assert_allclose(reduced.level, np.array([0.3]), atol=1e-15)
        np.testing.assert_array_equal(reduced.diffusion, np.array([[0.0, 1.0]]))
        np.testing.assert_array_equal(reduced.initial.mean, np.array([1.0]))

    def test_level_unchanged_when_target_column_zero(self):
        b = np.array([[-1.0, 0.0, 0.0], [0.0, -2.0, 0.4], [0.0, 0.1, -1.5]])
        model = OuModel(level=np.array([0.7, -0.1, 0.2]), reversion=b, diffusion=np.eye(3))
        reduced = ou_intervene(model, 0, 100.0)
        np.testing.assert_allclose(reduced.level, model.level[1:], atol=1e-15)

    def test_singular_reduced_reversion(self):
        model = OuModel(level=np.zeros(2), reversion=np.array([[0.0, 1.0], [1.0, 0.0]]),
                        diffusion=np.eye(2))
        with pytest.raises(SingularReversionError, match="singular"):
            ou_intervene(model, 0, 1.0)

    def test_coefficients_agree_with_generic_intervention(self):
        model = example_model()
        reduced_direct = ou_to_system(ou_intervene(model, 0, 2.0))
        reduced_generic = intervene_sde(ou_to_system(model), InterventionSpec(0, 2.0))
        rng = np.random.default_rng(5)
        ys = rng.uniform(-4, 4, size=(1000, 1))
        np.testing.assert_allclose(
            reduced_direct.coeff.eval_batch(ys),
            reduced_generic.coeff.eval_batch(ys),
            atol=1e-12,
        )

    @pytest.mark.parametrize("m, zeta", [(0, 2.0), (1, -0.5), (2, 0.0)])
    def test_constant_hold_keeps_the_affine_form(self, m, zeta):
        model = OuModel(
            level=np.array([0.7, -0.3, 1.2]),
            reversion=np.array([[-1.0, 0.4, 0.0], [0.3, -2.0, 0.5], [-0.2, 0.1, -1.5]]),
            diffusion=np.array([[0.5, 0.2], [0.0, 1.0], [0.3, -0.4]]),
        )
        held = intervene_sde(ou_to_system(model), InterventionSpec(m, zeta)).coeff.affine
        direct = ou_to_system(ou_intervene(model, m, zeta)).coeff.affine
        assert held is not None
        for h, d in zip(held, direct):
            np.testing.assert_allclose(h, d, rtol=0, atol=1e-12)

    def test_state_dependent_hold_has_no_affine_form(self):
        reduced = intervene_sde(ou_to_system(example_model()), InterventionSpec(0, "0.5 * x1"))
        assert reduced.coeff.affine is None

    def test_double_intervention_order_irrelevant(self):
        rng = np.random.default_rng(11)
        b = rng.standard_normal((3, 3)) - 3.0 * np.eye(3)
        model = OuModel(level=rng.standard_normal(3), reversion=b, diffusion=np.eye(3),
                        initial=np.zeros(3))
        # hold original coordinates 1 and 2; after the first reduction the
        # other original coordinate sits at index 1
        one_then_two = ou_intervene(ou_intervene(model, 1, 0.5), 1, -0.7)
        two_then_one = ou_intervene(ou_intervene(model, 2, -0.7), 1, 0.5)
        np.testing.assert_allclose(one_then_two.level, two_then_one.level, atol=1e-12)
        np.testing.assert_allclose(one_then_two.reversion, two_then_one.reversion, atol=1e-12)
        np.testing.assert_array_equal(one_then_two.diffusion, two_then_one.diffusion)


class TestTransition:
    def test_pure_diffusion(self):
        model = OuModel(level=np.zeros(2), reversion=np.zeros((2, 2)), diffusion=np.eye(2))
        mean, cov = ou_transition(model, np.array([1.0, 2.0]), 0.7)
        np.testing.assert_allclose(mean, [1.0, 2.0], atol=1e-14)
        np.testing.assert_allclose(cov, 0.7 * np.eye(2), atol=1e-13)

    def test_scalar_halving_time(self):
        model = OuModel(level=np.zeros(1), reversion=np.array([[-1.0]]),
                        diffusion=np.array([[1.0]]))
        t = np.log(2.0)
        mean, cov = ou_transition(model, np.array([1.0]), t)
        assert mean[0] == pytest.approx(0.5, abs=1e-12)
        assert cov[0, 0] == pytest.approx(0.375, abs=1e-12)

    def test_semigroup_property(self):
        model = example_model()
        x = np.array([0.4, -1.1])
        t, s = 0.6, 0.9
        mean_t, cov_t = ou_transition(model, x, t)
        mean_ts, cov_ts = ou_transition(model, x, t + s)
        e_s = matrix_exp(s * model.reversion)
        mean_composed = model.level + e_s @ (mean_t - model.level)
        _, cov_s = ou_transition(model, x, s)
        cov_composed = e_s @ cov_t @ e_s.T + cov_s
        np.testing.assert_allclose(mean_composed, mean_ts, atol=1e-10)
        np.testing.assert_allclose(cov_composed, cov_ts, atol=1e-10)

    def test_simulated_moments_match(self):
        model = example_model()
        system = ou_to_system(model)
        n = 30_000
        sl = simulate_slices(system, 1e-2, [1.0], n, seed=17)
        final = sl.state_at(1.0)[sl.alive()]
        mean, cov = ou_transition(model, model.initial.mean, 1.0)
        se_mean = final.std(axis=0, ddof=1) / np.sqrt(len(final))
        np.testing.assert_array_less(np.abs(final.mean(axis=0) - mean), 5 * se_mean)
        sample_cov = np.cov(final.T)
        tol = np.maximum(5 * np.abs(cov) * np.sqrt(2.0 / len(final)), 0.05 * np.abs(cov) + 1e-3)
        np.testing.assert_array_less(np.abs(sample_cov - cov), tol)

    def test_identifiability_closed_form(self):
        # equal reversion, diffusions differing by an orthogonal factor:
        # the held-coordinate models have identical transition laws
        rng = np.random.default_rng(2)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        sigma = rng.standard_normal((3, 3))
        base = dict(level=np.zeros(3), initial=np.zeros(3))
        b = rng.standard_normal((3, 3)) - 2.0 * np.eye(3)
        model_a = OuModel(reversion=b, diffusion=sigma, **base)
        model_b = OuModel(reversion=b, diffusion=sigma @ q, **base)
        red_a = ou_intervene(model_a, 0, 1.5)
        red_b = ou_intervene(model_b, 0, 1.5)
        x = np.array([0.3, -0.2])
        for t in (0.5, 1.0):
            mean_a, cov_a = ou_transition(red_a, x, t)
            mean_b, cov_b = ou_transition(red_b, x, t)
            np.testing.assert_allclose(mean_a, mean_b, atol=1e-10)
            np.testing.assert_allclose(cov_a, cov_b, atol=1e-10)
