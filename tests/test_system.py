"""System tests: coefficient fields, signature probing, chemical builder."""

import dataclasses
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import causalsde
from causalsde import (
    CoefficientField,
    CoefficientOverflowError,
    Grid,
    InitialLaw,
    LevyTriplet,
    SdeSystem,
    SignatureGraph,
    SignatureMismatchError,
    affine_field,
    build_chem_system,
    compute_terms,
    constant_field,
    field_from_callable,
    field_from_expressions,
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
            np.testing.assert_array_equal(system.coeff(x), m)

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
            compute_terms(system, np.zeros(1))

    def test_field_needs_func_or_batch_func(self):
        with pytest.raises(ValueError, match="func or batch_func"):
            field_from_callable(1, 1)

    def test_batch_matches_scalar(self):
        field = field_from_expressions([["x1 + x2", "x1 * x2"], ["sqrt(abs(x2))", "1"]])
        xs = np.array([[1.0, 2.0], [-0.5, 4.0]])
        batch = field.eval_batch(xs)
        for row, x in enumerate(xs):
            np.testing.assert_array_equal(batch[row], field(x))


def planar_point(x):
    return np.array([[-x[0] + 0.5 * x[1], 1.0], [x[0] - 0.25 * x[1] * x[1], 0.5 * x[0]]])


def planar_batch(xs):
    """``planar_point`` on a stack of states, with the same + - * operations."""
    out = np.empty((xs.shape[0], 2, 2))
    out[:, 0, 0] = -xs[:, 0] + 0.5 * xs[:, 1]
    out[:, 0, 1] = 1.0
    out[:, 1, 0] = xs[:, 0] - 0.25 * xs[:, 1] * xs[:, 1]
    out[:, 1, 1] = 0.5 * xs[:, 0]
    return out


class TestOneEvaluator:
    """A field has one evaluator, the stack map; a one-state function is
    adapted by ``field_from_callable``."""

    def test_point_func_simulates_like_batch_func(self):
        initial = InitialLaw(np.array([1.0, -0.5]), np.diag([0.25, 1.0]))
        ensembles = [
            simulate(SdeSystem(field, bm_driver(2), initial), Grid(1.0, 2.0**-5), 40, seed=13)
            for field in (
                field_from_callable(2, 2, planar_point),
                field_from_callable(2, 2, batch_func=planar_batch),
            )
        ]
        assert ensembles[0].values.tobytes() == ensembles[1].values.tobytes()
        np.testing.assert_array_equal(ensembles[0].exploded_at, ensembles[1].exploded_at)

    def test_point_func_unused_when_batch_func_given(self):
        def refuse(x):
            raise AssertionError("the point function was called")

        field = field_from_callable(2, 2, refuse, batch_func=planar_batch)
        x = np.array([0.7, -1.3])
        assert field(x).tobytes() == field.eval_batch(x[None])[0].tobytes()
        system = SdeSystem(field, bm_driver(2), InitialLaw(x))
        simulate(system, Grid(0.25, 2.0**-4), 8, seed=1)
        compute_terms(system, x)

    @pytest.mark.parametrize(
        "field",
        [
            constant_field(np.array([[1.0, 2.0], [3.0, 4.0]])),
            field_from_callable(2, 2, planar_point),
            field_from_callable(2, 2, batch_func=planar_batch),
            field_from_expressions([["x1 + x2", "1"], ["x1 * x2", "2"]]),
        ],
        ids=["constant", "point", "batch", "expression"],
    )
    def test_call_returns_fresh_array(self, field):
        x = np.array([0.5, 2.0])
        first = field(x)
        expected = first.copy()
        first[...] = -7.0
        np.testing.assert_array_equal(field(x), expected)
        np.testing.assert_array_equal(field.eval_batch(x[None])[0], expected)


class TestEmptyStack:
    @pytest.mark.parametrize("form", ["func", "batch_func"])
    def test_empty_stack_gives_empty_terms(self, form):
        maps = {
            "func": lambda x: np.array([[x[0], 1.0]]),
            "batch_func": lambda xs: np.stack([xs[:, 0], np.ones(len(xs))], axis=1)[:, None, :],
        }
        field = field_from_callable(1, 2, **{form: maps[form]})
        assert field.eval_batch(np.zeros((0, 1))).shape == (0, 1, 2)
        system = SdeSystem(field, bm_driver(2), InitialLaw(np.zeros(1)))
        terms = compute_terms(system, np.zeros((0, 1)))
        assert terms.beta.shape == (0, 1)
        assert terms.diffusion.shape == (0, 1, 1)


class TestAffineField:
    M = np.array([[-1.0, 0.5], [0.0, -2.0]])
    c = np.array([0.5, -1.0])
    S = np.array([[1.0, 0.25], [0.0, 0.5]])

    def test_eval_batch_is_the_canonical_encoding(self):
        field = affine_field(self.M, self.c, self.S)
        assert (field.p, field.d) == (2, 3)
        xs = np.array([[1.0, -2.0], [0.5, 3.0], [0.0, 0.0]])
        out = field.eval_batch(xs)
        np.testing.assert_allclose(out[:, :, 0], xs @ self.M.T + self.c, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(out[:, :, 1:], np.broadcast_to(self.S, (3, 2, 2)))
        np.testing.assert_array_equal(field.declared_dependence, self.M.T != 0.0)

    def test_keeps_read_only_copies(self):
        M = self.M.copy()
        field = affine_field(M, self.c, self.S)
        x = np.array([1.0, -1.0])
        before = field(x)
        M[0, 0] = 50.0
        np.testing.assert_array_equal(field(x), before)
        assert not any(a.flags.writeable for a in field.affine)

    @pytest.mark.parametrize(
        "M, c, S",
        [
            (np.eye(3), np.zeros(2), np.eye(2)),
            (np.eye(2)[:, :1], np.zeros(2), np.eye(2)),
            (np.eye(2), np.zeros(3), np.eye(2)),
            (np.eye(2), np.zeros(2), np.eye(3)),
        ],
        ids=["M-rows", "M-columns", "c", "S"],
    )
    def test_rejects_a_misshaped_form(self, M, c, S):
        with pytest.raises(ValueError, match="affine form needs"):
            affine_field(M, c, S)
        with pytest.raises(ValueError, match="affine form needs"):
            CoefficientField(2, 3, lambda xs: None, affine=(M, c, S))

    @pytest.mark.parametrize("part", [0, 1, 2])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_a_non_finite_form(self, part, value):
        form = [self.M.copy(), self.c.copy(), self.S.copy()]
        form[part].flat[0] = value
        with pytest.raises(ValueError, match="finite"):
            affine_field(*form)


def test_import_leaves_scipy_stats_unloaded():
    """``import causalsde`` does not load scipy.stats; probing loads it on demand."""
    code = (
        "import sys; sys.path[:0] = sys.argv[1:]; import numpy as np, causalsde; "
        "assert 'scipy.stats' not in sys.modules, 'scipy.stats loaded on import'; "
        "pts = causalsde.probe_points(causalsde.constant_field(np.eye(2)), 16); "
        "assert pts.shape == (16, 2), pts.shape"
    )
    src = Path(causalsde.__file__).resolve().parents[1]
    child = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True, text=True)
    assert child.returncode == 0, child.stderr


class TestConstructorsCopyInputs:
    """Constructors keep read-only copies, so the validation done at
    construction still holds after the caller writes into its arrays."""

    def test_constant_field_keeps_a_copy(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        field = constant_field(m)
        assert field(np.zeros(2)) is not m
        m[1, 1] = 3.0
        assert field.eval_batch(np.zeros((3, 2)))[:, 1, 1].tolist() == [4.0, 4.0, 4.0]

    def test_initial_mean_keeps_a_copy(self):
        x0 = np.array([1.0, 2.0])
        law = InitialLaw(x0)
        x0[0] = 9.0
        np.testing.assert_array_equal(law.mean, [1.0, 2.0])
        with pytest.raises(ValueError):
            law.mean[0] = 9.0

    def test_initial_covariance_stays_validated(self):
        cov = np.array([[1.0, 0.5], [0.5, 1.0]])
        law = InitialLaw(np.zeros(2), cov)
        cov[0, 1] = cov[1, 0] = 5.0  # indefinite if it reached the law
        np.testing.assert_array_equal(law.cov, [[1.0, 0.5], [0.5, 1.0]])
        with pytest.raises(ValueError):
            law.cov[0, 1] = 5.0


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
    """Coordinate j is locally unaffected by coordinate i iff there is no edge i -> j."""

    def test_empty_graph_all_unaffected(self):
        sig = SignatureGraph(3, frozenset())
        assert not any(sig.has_edge(i, j) for i in range(3) for j in range(3))

    def test_two_signature_pairs(self):
        sys_a, _ = two_signature_pair()
        sig = probe_signature(sys_a)
        assert not sig.has_edge(1, 0)       # second row of the twin story
        assert sig.has_edge(0, 1)


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
        # the square root of the negative rate 0.5 * x2 is NaN
        system = paper_network()
        with pytest.raises(CoefficientOverflowError, match=r"x=\[1\.0, -0\.5\]"):
            compute_terms(system, np.array([1.0, -0.5]))

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


def _array_holders():
    built = load_builtin("ou")
    system = built.system
    ou = causalsde.OuModel(level=np.zeros(1), reversion=-np.eye(1), diffusion=np.eye(1))
    grid = Grid(0.5, 0.25)
    return {
        "CoefficientField": system.coeff,
        "LevyTriplet": system.driver,
        "InitialLaw": system.initial,
        "JumpAtom": causalsde.JumpAtom(1.0, [0.5]),
        "OuModel": ou,
        "EulerSem": causalsde.build_euler_sem(system, grid),
        "Builtin": built,
        "SdeSystem": system,
        "PathEnsemble": simulate(system, grid, 3, seed=0),
        "PathEnsemble-slices": causalsde.simulate_slices(system, 0.25, [0.5], 3, seed=0),
        "GeneratorTerms": compute_terms(system, np.zeros(2)),
    }


@pytest.mark.parametrize("name", sorted(_array_holders()))
def test_array_holders_compare_by_identity(name):
    """Frozen types that hold arrays use identity equality and hashing:
    comparing the arrays would raise, and hashing them is impossible."""
    x = _array_holders()[name]
    assert x == x
    assert x != dataclasses.replace(x)
    assert hash(x) == hash(x)
