"""System tests: coefficient fields, signature probing, chemical builder."""

import numpy as np
import pytest

from causalsde import (
    CoefficientOverflowError,
    Grid,
    InitialLaw,
    LevyTriplet,
    SdeSystem,
    SignatureGraph,
    SignatureMismatchError,
    build_chem_system,
    constant_field,
    evaluate_coeff,
    field_from_callable,
    field_from_expressions,
    is_locally_unaffected,
    load_builtin,
    probe_signature,
    simulate,
    two_signature_pair,
)

B12 = B11 = B22 = 0.5
PAPER_S = np.array([[0.0, 1.0, -1.0, 0.0], [1.0, -1.0, 0.0, -1.0]])
PAPER_RATES = ["1.0", f"{B12}*x2", f"{B11}*x1", f"{B22}*x2"]


def paper_network():
    return build_chem_system(PAPER_S, PAPER_RATES, np.array([1.0, 1.0]), labels=("X", "Y"))


def bm_driver(d):
    return LevyTriplet(dim=d, alpha=np.zeros(d), cov=np.eye(d))


class TestCoefficientEvaluation:
    def test_constant_field_everywhere(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        system = SdeSystem(constant_field(m), bm_driver(2), InitialLaw(np.zeros(2)))
        for x in (np.zeros(2), np.array([5.0, -3.0])):
            np.testing.assert_array_equal(evaluate_coeff(system, x), m)

    def test_two_signature_field_at_unit_point(self):
        sys_a, _ = two_signature_pair()
        np.testing.assert_allclose(
            sys_a.coeff(np.array([1.0, 0.0])), np.array([[1.0, 0.0], [0.0, 0.0]])
        )

    def test_two_signature_field_zero_at_origin(self):
        sys_a, sys_b = two_signature_pair()
        np.testing.assert_array_equal(sys_a.coeff(np.zeros(2)), np.zeros((2, 2)))
        np.testing.assert_array_equal(sys_b.coeff(np.zeros(2)), np.zeros((2, 2)))

    def test_purity_bit_identical(self):
        sys_a, _ = two_signature_pair()
        x = np.array([0.7, -1.3])
        np.testing.assert_array_equal(sys_a.coeff(x), sys_a.coeff(x))

    def test_overflow_reported(self):
        field = field_from_expressions([["1 / x1"]])
        system = SdeSystem(field, bm_driver(1), InitialLaw(np.ones(1)))
        with pytest.raises(CoefficientOverflowError, match="coefficient overflow"):
            evaluate_coeff(system, np.zeros(1))

    def test_field_needs_func_or_batch_func(self):
        with pytest.raises(ValueError, match="func or batch_func"):
            field_from_callable(1, 1)

    def test_batch_matches_scalar(self):
        field = field_from_expressions([["x1 + x2", "x1 * x2"], ["sqrt(abs(x2))", "1"]])
        xs = np.array([[1.0, 2.0], [-0.5, 4.0]])
        batch = field.eval_batch(xs)
        for row, x in enumerate(xs):
            np.testing.assert_array_equal(batch[row], field(x))


class TestSignatureProbing:
    def test_constant_field_has_empty_signature(self):
        system = SdeSystem(constant_field(np.ones((3, 2))), bm_driver(2), InitialLaw(np.zeros(3)))
        assert probe_signature(system).edges == frozenset()

    def test_two_signature_graphs(self):
        sys_a, sys_b = two_signature_pair()
        assert probe_signature(sys_a).edge_list() == [(0, 0), (0, 1), (1, 1)]
        assert probe_signature(sys_b).edge_list() == [(0, 0), (1, 0), (1, 1)]

    def test_chem_builtin_is_complete(self):
        system = load_builtin("chem").system
        assert probe_signature(system).edge_list() == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_monotone_in_tolerance(self):
        sys_a, _ = two_signature_pair()
        loose = probe_signature(sys_a, tol=1e3).edges
        tight = probe_signature(sys_a, tol=1e-9).edges
        assert loose <= tight

    def test_declared_must_contain_probe(self):
        # declare independence that the field violates
        wrong = field_from_callable(
            2, 1,
            lambda x: np.array([[x[0] + x[1]], [x[1]]]),
            declared_dependence=np.array([[True, False], [False, True]]),
        )
        system = SdeSystem(wrong, bm_driver(1), InitialLaw(np.zeros(2)))
        with pytest.raises(SignatureMismatchError):
            probe_signature(system)

    def test_declared_signature_is_used_without_probing(self):
        _, sys_b = two_signature_pair()
        assert sys_b.signature().edge_list() == [(0, 0), (1, 0), (1, 1)]


class TestLocallyUnaffected:
    def test_empty_graph_all_unaffected(self):
        sig = SignatureGraph(3, frozenset())
        assert all(is_locally_unaffected(sig, i, j) for i in range(3) for j in range(3))

    def test_two_signature_pairs(self):
        sys_a, _ = two_signature_pair()
        sig = probe_signature(sys_a)
        assert is_locally_unaffected(sig, 1, 0)       # second row of the twin story
        assert not is_locally_unaffected(sig, 0, 1)

    def test_invalid_vertex(self):
        with pytest.raises(ValueError):
            is_locally_unaffected(SignatureGraph(2, frozenset()), 0, 5)


class TestChemBuilder:
    def test_diffusion_rows_are_scaled_stoichiometry_columns(self):
        system = paper_network()
        x, y = 1.7, 0.9
        a = system.coeff(np.array([x, y]))
        np.testing.assert_allclose(
            a[0, 1:],
            np.array([0.0, np.sqrt(B12 * y), -np.sqrt(B11 * x), 0.0]),
            atol=1e-15,
        )
        np.testing.assert_allclose(
            a[1, 1:],
            np.array([1.0, -np.sqrt(B12 * y), 0.0, -np.sqrt(B22 * y)]),
            atol=1e-15,
        )

    def test_drift_is_stoichiometry_times_rates(self):
        system = paper_network()
        x, y = 0.8, 2.1
        lam = np.array([1.0, B12 * y, B11 * x, B22 * y])
        a = system.coeff(np.array([x, y]))
        np.testing.assert_allclose(a[:, 0], PAPER_S @ lam, atol=1e-15)

    def test_zero_stoichiometry_freezes_paths(self):
        system = build_chem_system(np.zeros((2, 3)), ["1.0", "x1", "x2"], np.array([2.0, 3.0]))
        ens = simulate(system, Grid(1.0, 0.25), 8, seed=3)
        assert np.all(ens.values == np.array([2.0, 3.0]))

    def test_squared_diffusion_matches_rate_quadratic_form(self):
        system = paper_network()
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.uniform(0.05, 4.0, size=2)
            a = system.coeff(x)
            sigma = a[:, 1:]
            lam = np.array([1.0, B12 * x[1], B11 * x[0], B22 * x[1]])
            np.testing.assert_allclose(
                sigma @ sigma.T, PAPER_S @ np.diag(lam) @ PAPER_S.T, atol=1e-12
            )

    def test_negative_rate_reported_on_direct_evaluation(self):
        system = paper_network()
        with pytest.raises(ValueError, match="rate negative at x"):
            evaluate_coeff(system, np.array([1.0, -0.5]))

    def test_negative_rate_explodes_path_in_simulation(self):
        # start with a negative concentration: the square root is undefined
        system = build_chem_system(PAPER_S, PAPER_RATES, np.array([1.0, -1.0]))
        ens = simulate(system, Grid(0.5, 0.25), 4, seed=0)
        assert ens.n_exploded == 4

    def test_intervened_network_drift_and_diffusion(self):
        from causalsde import InterventionSpec, intervene_sde

        zeta = 1.3
        reduced = intervene_sde(paper_network(), InterventionSpec(1, zeta))
        for x in (0.4, 1.0, 2.6):
            row = reduced.coeff(np.array([x]))[0]
            assert row[0] == pytest.approx(B12 * zeta - B11 * x, abs=1e-14)
            np.testing.assert_allclose(
                row[1:], [0.0, np.sqrt(B12 * zeta), -np.sqrt(B11 * x), 0.0], atol=1e-15
            )


class TestInitialLaw:
    def test_gaussian_sampling_moments(self):
        law = InitialLaw(np.array([1.0, -2.0]), np.array([[2.0, 0.5], [0.5, 1.0]]))
        from causalsde._rng import path_stream

        draws = law.sample(path_stream(0, 0), 50_000)
        np.testing.assert_allclose(draws.mean(axis=0), law.mean, atol=0.03)
        np.testing.assert_allclose(np.cov(draws.T), law.cov, atol=0.05)

    @pytest.mark.parametrize(
        "cov, message",
        [
            ([[1.0, 2.0], [0.0, 1.0]], "symmetric"),
            ([[1.0, 0.0], [0.0, -1.0]], "not positive semidefinite"),
            ([[np.nan, 0.0], [0.0, 1.0]], "finite"),
        ],
    )
    def test_bad_covariance_rejected_at_construction(self, cov, message):
        with pytest.raises(ValueError, match=message):
            InitialLaw(np.zeros(2), np.array(cov))

    def test_drop_and_fix(self):
        law = InitialLaw(np.array([1.0, 2.0, 3.0]), np.eye(3))
        dropped = law.drop_coordinate(1)
        np.testing.assert_array_equal(dropped.mean, [1.0, 3.0])
        fixed = law.fix_coordinate(0, 9.0)
        assert fixed.mean[0] == 9.0
        assert np.all(fixed.cov[0] == 0.0) and np.all(fixed.cov[:, 0] == 0.0)


def test_labels_must_be_distinct():
    with pytest.raises(ValueError, match="distinct"):
        SdeSystem(
            constant_field(np.ones((2, 1))), bm_driver(1), InitialLaw(np.zeros(2)),
            labels=("a", "a"),
        )


def test_driver_dimension_must_match():
    with pytest.raises(ValueError, match="driver"):
        SdeSystem(constant_field(np.ones((2, 3))), bm_driver(2), InitialLaw(np.zeros(2)))
