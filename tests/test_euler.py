"""Euler scheme tests: recursion exactness, determinism, the layered SEM,
commutation, convergence, CSV round trip."""

import os

import numpy as np
import pytest

from causalsde import (
    Grid,
    InterventionSpec,
    JumpAtom,
    LevyTriplet,
    SignatureGraph,
    build_euler_sem,
    check_commutation,
    constant_field,
    convergence_study,
    driver_increments,
    ensemble_from_csv,
    ensemble_to_csv,
    field_from_callable,
    field_from_expressions,
    intervene_sde,
    load_builtin,
    sample_increments,
    simulate,
    simulate_shared,
    simulate_slices,
)
from causalsde._rng import _philox_key, path_stream
from causalsde.euler import _draw_paths
from causalsde.system import InitialLaw, SdeSystem, canonical_driver


def bm_driver(d):
    return LevyTriplet(dim=d, alpha=np.zeros(d), cov=np.eye(d))


def gbm_system(x0=1.0):
    field = field_from_callable(
        1, 1, lambda x: x[:, None], batch_func=lambda xs: xs[:, :, None],
        declared_dependence=np.array([[True]]),
    )
    return SdeSystem(field, bm_driver(1), InitialLaw(np.array([x0])))


class TestGrid:
    def test_non_integral_ratio_rejected(self):
        with pytest.raises(ValueError, match="not a positive integer"):
            Grid(1.0, 0.3)

    def test_times_and_index(self):
        grid = Grid(1.0, 0.25)
        np.testing.assert_allclose(grid.times, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert grid.index_of(0.5) == 2
        with pytest.raises(ValueError, match="not on the grid"):
            grid.index_of(0.3)


class TestSimulate:
    def test_unit_drift_tracks_time(self):
        field = field_from_expressions([["1"]])
        system = SdeSystem(
            field,
            LevyTriplet(dim=1, alpha=[1.0], cov=0.0),
            InitialLaw(np.array([2.0])),
        )
        grid = Grid(1.0, 0.125)
        ens = simulate(system, grid, 4, seed=0)
        expected = np.broadcast_to(2.0 + grid.times, (4, grid.n_steps + 1))
        np.testing.assert_allclose(ens.values[:, :, 0], expected, atol=1e-15)

    def test_zero_field_is_frozen(self):
        system = SdeSystem(
            constant_field(np.zeros((2, 2))), bm_driver(2), InitialLaw(np.array([4.0, -1.0]))
        )
        ens = simulate(system, Grid(1.0, 0.5), 7, seed=1)
        assert np.all(ens.values == np.array([4.0, -1.0]))

    def test_single_step_by_hand(self):
        # deterministic driver increment 0.5 over one unit step
        field = field_from_callable(1, 1, lambda x: x[:, None],
                                    batch_func=lambda xs: xs[:, :, None])
        system = SdeSystem(field, LevyTriplet(dim=1, alpha=[0.5], cov=0.0),
                           InitialLaw(np.array([2.0])))
        ens = simulate(system, Grid(1.0, 1.0), 1, seed=0)
        assert ens.values[0, 1, 0] == 3.0

    def test_deterministic_given_seed(self):
        system = load_builtin("ou").system
        a = simulate(system, Grid(0.5, 2.0**-6), 37, seed=4)
        b = simulate(system, Grid(0.5, 2.0**-6), 37, seed=4)
        np.testing.assert_array_equal(a.values, b.values)

    def test_chunk_size_does_not_change_values(self, monkeypatch):
        system = load_builtin("ou").system
        whole = simulate(system, Grid(0.5, 2.0**-5), 40, seed=6)
        monkeypatch.setattr("causalsde.euler._CHUNK", 16)
        chunked = simulate(system, Grid(0.5, 2.0**-5), 40, seed=6)
        np.testing.assert_array_equal(whole.values, chunked.values)

    def test_explosion_freezes_and_flags(self):
        field = field_from_expressions([["x1 * x1 * x1"]])  # supercritical growth
        system = SdeSystem(field, bm_driver(1), InitialLaw(np.array([40.0])))
        ens = simulate(system, Grid(1.0, 1.0 / 32), 8, seed=2)
        assert ens.n_exploded == 8
        for row in range(8):
            k = ens.exploded_at[row]
            assert k >= 0
            assert np.all(np.isnan(ens.values[row, k:, :]))
            assert np.all(np.isfinite(ens.values[row, :k, :]))
        assert 0.0 <= ens.exploded_fraction <= 1.0

    def test_gaussian_initial_law(self):
        from causalsde import OuModel, ou_to_system

        model = OuModel(
            level=np.zeros(2), reversion=-np.eye(2), diffusion=np.eye(2),
            initial=InitialLaw(np.array([1.0, -1.0]), 0.25 * np.eye(2)),
        )
        system = ou_to_system(model)
        ens = simulate(system, Grid(0.5, 0.25), 20_000, seed=14)
        start = ens.values[:, 0, :]
        np.testing.assert_allclose(start.mean(axis=0), [1.0, -1.0], atol=0.02)
        np.testing.assert_allclose(start.var(axis=0, ddof=1), [0.25, 0.25], atol=0.02)
        again = simulate(system, Grid(0.5, 0.25), 20_000, seed=14)
        np.testing.assert_array_equal(ens.values, again.values)

    def test_slices_match_full_simulation(self):
        system = load_builtin("ou").system
        grid = Grid(1.0, 2.0**-5)
        full = simulate(system, grid, 25, seed=8)
        sl = simulate_slices(system, grid.delta, [0.5, 1.0], 25, seed=8)
        np.testing.assert_array_equal(sl.state_at(0.5), full.state_at(0.5))
        np.testing.assert_array_equal(sl.state_at(1.0), full.state_at(1.0))


class TestSharedSimulation:
    def test_copies_are_bit_identical(self):
        system = load_builtin("chem").system
        a, b = simulate_shared([system, system], Grid(0.5, 2.0**-6), 21, seed=3)
        np.testing.assert_array_equal(a.values, b.values)

    def test_driver_mismatch_rejected(self):
        ou = load_builtin("ou").system
        other = SdeSystem(
            constant_field(np.zeros((2, 3))), canonical_driver(2), InitialLaw(np.zeros(2))
        )
        bad = SdeSystem(
            constant_field(np.zeros((2, 3))),
            LevyTriplet(dim=3, alpha=[1.0, 0, 0], cov=np.diag([0.0, 1.0, 2.0])),
            InitialLaw(np.zeros(2)),
        )
        with pytest.raises(ValueError, match="driver mismatch"):
            simulate_shared([other, bad], Grid(0.5, 0.25), 4, seed=0)


def _seed_with_high_key_words(count: int) -> int:
    # one word at or above 2**63: numpy rounds the mixed key tuple through float64
    return next(s for s in range(100) if sum(w >= 2**63 for w in _philox_key(s)) == count)


class TestDrawPaths:
    """Chunk draws equal the per-path reference streams byte for byte."""

    @staticmethod
    def system(initial):
        cov = np.array([[1.0, 0.3, 0.1], [0.3, 2.0, -0.4], [0.1, -0.4, 0.7]])
        jumps = (JumpAtom(1.5, [0.3, 0.0, 0.1]), JumpAtom(0.5, [0.0, -2.0, 0.0]))
        driver = LevyTriplet(dim=3, alpha=[0.2, -0.1, 0.0], cov=cov, jumps=jumps)
        field = field_from_expressions([["x1", "1", "x2"], ["0.5", "x1 * x2", "1"]])
        return SdeSystem(field, driver, initial)

    # 1024 steps x d = 3 puts about ten paths in one assembly group, so the
    # 24 indices span several groups
    grid = Grid(1.0, 2.0**-10)
    indices = np.array([3, 17, 4, 250] + list(range(41, 81, 2)))

    @pytest.mark.parametrize("high_words", [0, 1, 2])
    @pytest.mark.parametrize(
        "initial",
        [InitialLaw(np.array([0.1, 0.2])), InitialLaw(np.array([0.1, 0.2]), [[1.0, 0.4], [0.4, 0.5]])],
        ids=["fixed", "gaussian"],
    )
    def test_rows_equal_path_streams(self, initial, high_words):
        seed = _seed_with_high_key_words(high_words)
        system = self.system(initial)
        x0, dz = _draw_paths(system.driver, initial, self.grid, seed, self.indices)
        for row, idx in enumerate(self.indices):
            g = path_stream(seed, int(idx))
            ref_x0 = initial.sample(g, 1)[0]
            ref_dz = sample_increments(system.driver, self.grid.delta, self.grid.n_steps, g)
            assert x0[row].tobytes() == ref_x0.tobytes()
            assert dz[row].tobytes() == ref_dz.tobytes()

    @pytest.mark.parametrize("high_words", [0, 1, 2])
    def test_driver_increments_equal_path_streams(self, high_words):
        seed = _seed_with_high_key_words(high_words)
        driver = self.system(InitialLaw(np.zeros(2))).driver
        dz = driver_increments(driver, self.grid, 25, seed)
        for idx in range(25):
            ref = sample_increments(driver, self.grid.delta, self.grid.n_steps, path_stream(seed, idx))
            assert dz[idx].tobytes() == ref.tobytes()


class TestEulerSemStructure:
    def test_figure_signature_layer_count(self):
        # three coordinates; edges: self-loop on 1, 1 -> 2, 3 -> 2
        sig = SignatureGraph(3, frozenset({(0, 0), (0, 1), (2, 1)}))
        system = SdeSystem(constant_field(np.zeros((3, 2))), bm_driver(2), InitialLaw(np.zeros(3)))
        esem = build_euler_sem(system, Grid(1.0, 0.25), signature=sig)
        assert esem.layer_edge_count == 5
        assert esem.primary_edge_count == 4 * 5

    def test_empty_signature_gives_straight_edges(self):
        system = SdeSystem(constant_field(np.zeros((3, 2))), bm_driver(2), InitialLaw(np.zeros(3)))
        esem = build_euler_sem(system, Grid(1.0, 0.5))
        assert esem.layer_edges == frozenset({(0, 0), (1, 1), (2, 2)})

    def test_layer_invariant_no_backward_or_intra_edges(self):
        built = load_builtin("chem")
        esem = build_euler_sem(built.system, Grid(1.0, 0.25))
        for (_, k1, _), (_, k2, _) in esem.dag_edges():
            assert k2 == k1 + 1

    def test_sem_evaluation_matches_simulation(self):
        system = load_builtin("ou").system
        grid = Grid(0.5, 2.0**-4)
        n = 9
        ens = simulate(system, grid, n, seed=12)
        esem = build_euler_sem(system, grid)
        sem = esem.to_sem_model(ens.values[:, 0, :])
        dz = driver_increments(system.driver, grid, n, seed=12)
        env = sem.evaluate({("dz", k): dz[:, k - 1] for k in range(1, grid.n_steps + 1)})
        for k in range(grid.n_steps + 1):
            for i in range(system.p):
                np.testing.assert_array_equal(env[("x", k, i)], ens.values[:, k, i])

    def test_intervened_sem_keeps_noise_assignment(self):
        from causalsde import intervene_sem

        system = load_builtin("ou").system
        grid = Grid(0.5, 0.25)
        esem = build_euler_sem(system, grid)
        sem = esem.to_sem_model(np.ones((3, 2)))
        assignments = {("x", k, 0): 2.0 for k in range(grid.n_steps + 1)}
        held = intervene_sem(sem, assignments)
        assert held.noise_assignment == sem.noise_assignment


class TestCommutation:
    @pytest.mark.parametrize("name", ["ou", "chem"])
    def test_builtins_commute_exactly(self, name):
        built = load_builtin(name)
        report = check_commutation(
            built.system, built.intervention, Grid(1.0, 2.0**-8), 100, seed=7
        )
        assert report["max_discrepancy"] <= 1e-12
        assert report["passed"]
        assert report["explosion_pattern_match"]

    def test_rows_independent_of_target_reduce_to_original(self):
        # diagonal system: each coordinate driven by its own noise only
        field = field_from_expressions([["x1", "0"], ["0", "x2"]])
        system = SdeSystem(field, bm_driver(2), InitialLaw(np.array([1.0, 2.0])))
        grid = Grid(0.5, 2.0**-5)
        report = check_commutation(system, InterventionSpec(1, 7.0), grid, 20, seed=5)
        assert report["max_discrepancy"] <= 1e-12
        observational = simulate(system, grid, 20, seed=5)
        reduced = intervene_sde(system, InterventionSpec(1, 7.0))
        held = simulate(reduced, grid, 20, seed=5)
        np.testing.assert_array_equal(held.values[:, :, 0], observational.values[:, :, 0])

    @pytest.mark.parametrize("delta", [2.0**-5, 2.0**-7, 2.0**-9])
    def test_non_constant_map_runs(self, delta):
        system = load_builtin("ou").system
        report = check_commutation(
            system, InterventionSpec(0, "0.5 * x1"), Grid(0.5, delta), 10, seed=1
        )
        assert report["max_discrepancy"] <= 1e-12
        assert report["passed"]


class TestConvergence:
    def test_zero_field_has_zero_error(self):
        system = SdeSystem(constant_field(np.zeros((1, 1))), bm_driver(1), InitialLaw(np.ones(1)))
        study = convergence_study(system, None, [0.25, 0.125, 0.0625], 1.0, 50, seed=0)
        assert all(rms == 0.0 for _, rms, _ in study.rows)

    def test_gbm_strong_order_band(self):
        system = gbm_system()
        exact = lambda t, z: np.exp(z[:, :, 0] - 0.5 * t)
        deltas = [2.0**-k for k in range(4, 8)]
        study = convergence_study(system, exact, deltas, 1.0, 500, seed=42)
        assert 0.3 <= study.slope <= 0.7
        rms = [study.rms_for(d) for d in sorted(deltas, reverse=True)]
        for coarse, fine in zip(rms, rms[1:]):
            assert fine <= coarse * 1.05

    def test_self_reference_mode_decreases(self):
        system = gbm_system()
        deltas = [2.0**-k for k in range(3, 7)]
        study = convergence_study(system, None, deltas, 1.0, 400, seed=11)
        rms = [study.rms_for(d) for d in sorted(deltas, reverse=True)]
        assert rms[-1] < rms[0]

    def test_non_dyadic_deltas_rejected(self):
        system = gbm_system()
        with pytest.raises(ValueError, match="integer multiples"):
            convergence_study(system, None, [0.25, 0.1], 1.0, 10, seed=0)


class TestCsvRoundTrip:
    def test_bit_identical(self, tmp_path):
        system = load_builtin("ou").system
        ens = simulate(system, Grid(0.5, 0.125), 11, seed=9)
        target = os.path.join(tmp_path, "paths.csv")
        ensemble_to_csv(ens, target)
        back = ensemble_from_csv(target)
        np.testing.assert_array_equal(back.values, ens.values)
        assert back.labels == ens.labels
        np.testing.assert_allclose(back.grid.times, ens.grid.times)

    def test_header_format(self, tmp_path):
        system = load_builtin("chem").system
        ens = simulate(system, Grid(0.25, 0.125), 2, seed=0)
        target = os.path.join(tmp_path, "paths.csv")
        ensemble_to_csv(ens, target)
        with open(target) as fh:
            assert fh.readline().strip() == "path,t,X,Y"

    def test_exploded_rows_absent(self, tmp_path):
        field = field_from_expressions([["x1 * x1 * x1"]])
        system = SdeSystem(field, bm_driver(1), InitialLaw(np.array([50.0])))
        ens = simulate(system, Grid(1.0, 1.0 / 32), 5, seed=2)
        assert ens.n_exploded == 5
        target = os.path.join(tmp_path, "exploded.csv")
        ensemble_to_csv(ens, target)
        with open(target) as fh:
            body = fh.read().splitlines()[1:]
        assert all("nan" not in line for line in body)
