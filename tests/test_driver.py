"""Driver tests: triplet validation, factorization, sampling law, CF identities."""

import numpy as np
import pytest

from causalsde import (
    JumpAtom,
    LevyTriplet,
    characteristic_function,
    default_u_grid,
    empirical_cf,
    psd_factor,
    sample_increment,
    sample_increments,
)
from causalsde._rng import path_stream


def brownian_with_drift():
    return LevyTriplet(
        dim=2,
        alpha=np.array([0.5, -0.2]),
        cov=np.array([[1.0, 0.3], [0.3, 0.8]]),
    )


def two_atom_triplet():
    return LevyTriplet(
        dim=1,
        alpha=np.array([0.1]),
        cov=np.array([[0.2]]),
        jumps=(
            JumpAtom(rate=0.8, location=np.array([1.5])),
            JumpAtom(rate=2.0, location=np.array([-0.4])),
        ),
        trunc_radius=1.0,
    )


class TestTripletValidation:
    def test_asymmetric_cov_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            LevyTriplet(dim=2, alpha=np.zeros(2), cov=np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_indefinite_cov_rejected(self):
        with pytest.raises(ValueError, match="not positive semidefinite"):
            LevyTriplet(dim=2, alpha=np.zeros(2), cov=np.array([[1.0, 0.0], [0.0, -1.0]]))

    def test_non_finite_cov_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            LevyTriplet(dim=2, alpha=np.zeros(2), cov=np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_zero_jump_location_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            JumpAtom(rate=1.0, location=np.zeros(2))

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ValueError, match="rate"):
            JumpAtom(rate=0.0, location=np.array([1.0]))

    def test_trunc_radius_positive(self):
        with pytest.raises(ValueError, match="trunc_radius"):
            LevyTriplet(dim=1, alpha=[0.0], cov=0.0, trunc_radius=0.0)


class TestPsdFactor:
    def test_identity(self):
        np.testing.assert_array_equal(psd_factor(np.eye(3)), np.eye(3))

    def test_zero(self):
        np.testing.assert_array_equal(psd_factor(np.zeros((2, 2))), np.zeros((2, 2)))

    def test_reconstruction_random_psd(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((4, 4))
        cov = m.T @ m
        factor = psd_factor(cov)
        err = np.linalg.norm(factor @ factor.T - cov) / np.linalg.norm(cov)
        assert err < 1e-10

    def test_rank_deficient(self):
        cov = np.diag([0.0, 1.0, 1.0])
        factor = psd_factor(cov)
        assert np.linalg.norm(factor @ factor.T - cov) < 1e-12

    def test_indefinite_rejected(self):
        with pytest.raises(ValueError, match="not positive semidefinite"):
            psd_factor(np.array([[1.0, 0.0], [0.0, -0.5]]))


class TestSampling:
    def test_pure_drift_is_deterministic(self):
        triplet = LevyTriplet(dim=1, alpha=[2.0], cov=0.0)
        inc = sample_increment(triplet, 0.5, path_stream(123, 0))
        assert inc.shape == (1,)
        assert inc[0] == 1.0

    def test_atom_outside_ball_gives_scaled_poisson(self):
        # single atom at 3 with the truncation ball of radius 1: no compensation
        lam, delta = 1.3, 0.7
        triplet = LevyTriplet(
            dim=1, alpha=[0.0], cov=0.0,
            jumps=(JumpAtom(rate=lam, location=np.array([3.0])),), trunc_radius=1.0,
        )
        incs = sample_increments(triplet, delta, 20000, path_stream(9, 0))[:, 0]
        counts = incs / 3.0
        assert np.all(counts == np.round(counts)) and np.all(counts >= 0)
        assert abs(counts.mean() - lam * delta) < 4 * np.sqrt(lam * delta / 20000)

    def test_deterministic_given_stream_state(self):
        triplet = two_atom_triplet()
        a = sample_increment(triplet, 0.3, path_stream(5, 17))
        b = sample_increment(triplet, 0.3, path_stream(5, 17))
        np.testing.assert_array_equal(a, b)

    def test_distinct_paths_differ(self):
        triplet = brownian_with_drift()
        a = sample_increment(triplet, 0.3, path_stream(5, 0))
        b = sample_increment(triplet, 0.3, path_stream(5, 1))
        assert not np.array_equal(a, b)


class TestCharacteristicFunction:
    def test_standard_gaussian(self):
        triplet = LevyTriplet(dim=1, alpha=[0.0], cov=1.0)
        value = characteristic_function(triplet, np.array([1.0]), 1.0)
        assert value == pytest.approx(np.exp(-0.5), abs=1e-12)

    def test_atom_outside_ball_no_compensation(self):
        triplet = LevyTriplet(
            dim=1, alpha=[0.0], cov=0.0,
            jumps=(JumpAtom(rate=1.0, location=np.array([2.0])),), trunc_radius=1.0,
        )
        for u in (0.3, 1.0, 2.7):
            expected = np.exp(np.exp(2j * u) - 1.0)
            got = characteristic_function(triplet, np.array([u]), 1.0)
            assert got == pytest.approx(expected, abs=1e-12)

    def test_pure_drift(self):
        triplet = LevyTriplet(dim=1, alpha=[1.0], cov=0.0)
        for u, t in ((0.5, 1.0), (2.0, 0.25)):
            got = characteristic_function(triplet, np.array([u]), t)
            assert got == pytest.approx(np.exp(1j * t * u), abs=1e-12)

    def test_batch_of_frequencies(self):
        triplet = brownian_with_drift()
        grid = default_u_grid(2)
        values = characteristic_function(triplet, grid, 0.5)
        assert values.shape == (20,)
        assert np.all(np.abs(values) <= 1 + 1e-12)


class TestLawFidelity:
    @pytest.mark.parametrize("factory", [brownian_with_drift, two_atom_triplet])
    def test_empirical_cf_matches_closed_form(self, factory):
        triplet = factory()
        n, delta = 200_000, 0.7
        incs = sample_increments(triplet, delta, n, path_stream(2024, 0))
        grid = default_u_grid(triplet.dim)
        emp = empirical_cf(incs, grid)
        exact = characteristic_function(triplet, grid, delta)
        assert np.max(np.abs(emp - exact)) < 3 / np.sqrt(n) + 0.005

    def test_adjacent_increment_sum_has_doubled_law(self):
        triplet = two_atom_triplet()
        n, delta = 200_000, 0.4
        first = sample_increments(triplet, delta, n, path_stream(7, 0))
        second = sample_increments(triplet, delta, n, path_stream(7, 1))
        grid = default_u_grid(triplet.dim)
        emp = empirical_cf(first + second, grid)
        exact = characteristic_function(triplet, grid, 2 * delta)
        assert np.max(np.abs(emp - exact)) < 3 / np.sqrt(n) + 0.005

    def test_law_invariant_under_truncation_radius_change(self):
        # enlarging the ball to capture the atom at 1.5 shifts the reported
        # drift by its rate mass; the law is unchanged
        base = two_atom_triplet()
        moved = LevyTriplet(
            dim=1,
            alpha=base.alpha + 0.8 * np.array([1.5]),
            cov=base.cov,
            jumps=base.jumps,
            trunc_radius=2.0,
        )
        grid = default_u_grid(1)
        cf_a = characteristic_function(base, grid, 1.3)
        cf_b = characteristic_function(moved, grid, 1.3)
        assert np.max(np.abs(cf_a - cf_b)) < 1e-12


def test_default_u_grid_deterministic():
    a = default_u_grid(3)
    b = default_u_grid(3)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (20, 3)
