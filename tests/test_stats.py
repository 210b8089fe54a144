"""Statistical layer tests: KS, energy distance, Holm, the equality check."""

import numpy as np
import pytest

from causalsde import (
    CoefficientOverflowError,
    InterventionSpec,
    LevyTriplet,
    TestReport,
    compare_generators,
    constant_field,
    energy_distance_test,
    field_from_callable,
    holm_rejections,
    identifiability_check,
    ks_two_sample,
    load_builtin,
    probe_points,
)
from causalsde.system import InitialLaw, SdeSystem


class TestKs:
    def test_identical_arrays(self):
        xs = np.linspace(-1, 1, 500)
        stat, p = ks_two_sample(xs, xs.copy())
        assert stat == 0.0
        assert p == 1.0

    def test_detects_unit_mean_shift(self):
        rng = np.random.default_rng(0)
        stat, p = ks_two_sample(rng.standard_normal(10_000), rng.standard_normal(10_000) + 1.0)
        assert p < 1e-6

    def test_null_calibration_on_split_sample(self):
        rng = np.random.default_rng(1)
        ok = 0
        for _ in range(100):
            pooled = rng.standard_normal(20_000)
            _, p = ks_two_sample(pooled[:10_000], pooled[10_000:])
            ok += p > 0.01
        assert ok >= 95

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(2)
        xs = rng.standard_normal(3000)
        ys = rng.standard_normal(3000) * 1.3
        base, _ = ks_two_sample(xs, ys)
        warped, _ = ks_two_sample(np.exp(xs), np.exp(ys))
        assert warped == pytest.approx(base, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            ks_two_sample([], [1.0])


class TestEnergy:
    def test_equal_multisets_give_zero(self):
        xs = np.array([[0.0, 1.0], [2.0, -1.0], [0.5, 0.5]])
        stat, p = energy_distance_test(xs, xs[::-1].copy(), n_permutations=50, seed=0)
        assert stat == pytest.approx(0.0, abs=1e-14)
        assert p > 0.5

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        stat, _ = energy_distance_test(
            rng.standard_normal((200, 2)), rng.standard_normal((150, 2)),
            n_permutations=50, seed=1,
        )
        assert stat >= 0.0

    def test_detects_mean_shift(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((2000, 1))
        b = rng.standard_normal((2000, 1)) + 0.5
        stat, p = energy_distance_test(a, b, n_permutations=500, seed=2)
        assert p < 0.01

    def test_null_calibration(self):
        rng = np.random.default_rng(5)
        ok = 0
        for rep in range(100):
            pooled = rng.standard_normal((1000, 1))
            _, p = energy_distance_test(
                pooled[:500], pooled[500:], n_permutations=200, seed=rep
            )
            ok += p > 0.01
        assert ok >= 95

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            energy_distance_test(np.zeros((5, 2)), np.zeros((5, 3)))

    def test_subsampling_cap(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((5000, 1))
        b = rng.standard_normal((5000, 1))
        stat, p = energy_distance_test(a, b, n_permutations=100, seed=3, max_points=512)
        assert np.isfinite(stat) and 0.0 < p <= 1.0

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((400, 2))
        b = rng.standard_normal((400, 2))
        assert energy_distance_test(a, b, 100, seed=9) == energy_distance_test(a, b, 100, seed=9)


class TestHolm:
    def test_textbook_example(self):
        p = [0.01, 0.04, 0.03, 0.005]
        reject, thresholds = holm_rejections(p, alpha=0.05)
        # sorted: 0.005 <= 0.0125, 0.01 <= 0.0167, 0.03 > 0.025 stops the chain
        np.testing.assert_array_equal(reject, [True, False, False, True])
        assert thresholds[3] == pytest.approx(0.05 / 4)

    def test_all_large_none_rejected(self):
        reject, _ = holm_rejections([0.5, 0.9, 0.2], alpha=0.01)
        assert not reject.any()


@pytest.fixture(scope="module")
def pair():
    built = load_builtin("two-signatures")
    return built.system, built.partner, built.intervention


def nan_at_origin_pair():
    """Constant identity coefficients; the partner returns NaN at the origin
    and declares the origin singular."""
    driver = LevyTriplet(dim=2, alpha=np.zeros(2), cov=np.eye(2))

    def batch(xs):
        out = np.broadcast_to(np.eye(2), (len(xs), 2, 2)).copy()
        out[np.all(xs == 0.0, axis=1)] = np.nan
        return out

    partner = field_from_callable(2, 2, batch_func=batch, singular_points=(np.zeros(2),))
    initial = InitialLaw(np.ones(2))
    return SdeSystem(constant_field(np.eye(2)), driver, initial), SdeSystem(partner, driver, initial)


class TestSingularPartner:
    def test_non_finite_coefficient_raises(self):
        sys_a, sys_b = nan_at_origin_pair()
        pts = probe_points(sys_a.coeff, 256)
        assert np.all(pts[1] == 0.0)
        with pytest.raises(CoefficientOverflowError, match=r"x=\[0\.0, 0\.0\]"):
            compare_generators(sys_a, sys_b, pts)

    def test_check_avoids_partner_singular_points(self):
        sys_a, sys_b = nan_at_origin_pair()
        report = identifiability_check(
            sys_a, sys_b, InterventionSpec(0, 0.5), [0.25], 1000, 2.0**-5, seed=0, n_permutations=19
        )
        assert report.extras["hypothesis"] == "ok"
        assert report.extras["generator_comparison"]["max_value_difference"] == 0.0


class TestIdentifiabilityCheck:
    def test_small_sample_rejected(self, pair):
        sys_a, sys_b, spec = pair
        with pytest.raises(ValueError, match="1000"):
            identifiability_check(sys_a, sys_b, spec, [0.5], 100, 1.0 / 64, seed=0)

    def test_pair_consistent(self, pair):
        sys_a, sys_b, spec = pair
        report = identifiability_check(
            sys_a, sys_b, spec, [0.5], 2000, 1.0 / 64, seed=100,
            n_permutations=200, energy_max_points=1000,
        )
        assert report.verdict == "consistent with equality"
        assert report.extras["hypothesis"] == "ok"
        assert report.passed

    def test_self_comparison_consistent(self, pair):
        sys_a, _, spec = pair
        report = identifiability_check(
            sys_a, sys_a, spec, [0.5], 2000, 1.0 / 64, seed=5,
            n_permutations=200, energy_max_points=1000,
        )
        assert report.verdict == "consistent with equality"

    def test_scaled_diffusion_flagged(self, pair):
        import dataclasses

        from causalsde import field_from_callable

        sys_a, sys_b, spec = pair
        scaled = field_from_callable(
            2, 2,
            lambda x, f=sys_b.coeff: 1.25 * f(x),
            batch_func=lambda xs, f=sys_b.coeff: 1.25 * f.eval_batch(xs),
            declared_dependence=sys_b.coeff.declared_dependence,
            singular_points=sys_b.coeff.singular_points,
        )
        sys_scaled = dataclasses.replace(sys_b, coeff=scaled)
        report = identifiability_check(
            sys_a, sys_scaled, spec, [0.5], 4000, 1.0 / 64, seed=6,
            n_permutations=200, energy_max_points=1000,
        )
        assert report.extras["hypothesis"] == "violated"
        assert report.verdict == "inconsistent"

    def test_deterministic_given_seed(self, pair):
        sys_a, sys_b, spec = pair
        kwargs = dict(times=[0.5], n_paths=1500, delta=1.0 / 32, seed=77,
                      n_permutations=100, energy_max_points=500)
        a = identifiability_check(sys_a, sys_b, spec, **kwargs)
        b = identifiability_check(sys_a, sys_b, spec, **kwargs)
        assert a.to_dict() == b.to_dict()

    def test_multicoordinate_reduction(self):
        # three-coordinate mean-reverting system: holding one leaves two
        # coordinates, exercising the per-coordinate breakdown and the
        # stacked joint test
        from causalsde import InterventionSpec, OuModel, ou_to_system

        rng = np.random.default_rng(0)
        b = rng.standard_normal((3, 3)) - 2.0 * np.eye(3)
        model = OuModel(level=np.zeros(3), reversion=b, diffusion=np.eye(3),
                        initial=np.ones(3))
        system = ou_to_system(model)
        report = identifiability_check(
            system, system, InterventionSpec(1, 0.5), [0.25, 0.5], 1500, 1.0 / 32,
            seed=13, n_permutations=100, energy_max_points=500,
        )
        ks_entries = [e for e in report.breakdown if e["test"].startswith("ks")]
        assert len(ks_entries) == 4  # two times, two coordinates
        assert report.verdict == "consistent with equality"

    def test_times_on_one_step_share_a_test(self, pair):
        sys_a, sys_b, spec = pair
        report = identifiability_check(
            sys_a, sys_b, spec, [0.3, 0.1 + 0.2, 0.5], 1000, 0.1, seed=1,
            n_permutations=19, structure_points=16,
        )
        tests = [e["test"] for e in report.breakdown]
        assert tests == ["ks[t=0.3,x1]", "ks[t=0.5,x1]", "energy[stacked slices]"]

    def test_report_field_names(self, pair):
        sys_a, sys_b, spec = pair
        report = identifiability_check(
            sys_a, sys_b, spec, [0.5], 1500, 1.0 / 32, seed=8,
            n_permutations=100, energy_max_points=500,
        )
        doc = report.to_dict()
        for key in ("test", "statistic", "p_value", "corrected_alpha", "verdict"):
            assert key in doc
        assert doc["correction"] == "holm"
        for entry in doc["breakdown"]:
            for key in ("test", "statistic", "p_value", "corrected_alpha", "verdict"):
                assert key in entry


def test_report_verdict_consistency():
    report = TestReport(
        test="demo", statistic=0.1, p_value=0.5, alpha=0.01,
        corrected_alpha=0.01, verdict="consistent with equality",
    )
    assert report.passed
    assert report.to_dict()["verdict"] == "consistent with equality"
