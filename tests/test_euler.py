"""Euler scheme tests: recursion exactness, determinism, the layered SEM,
commutation, convergence, CSV round trip."""

import os
from dataclasses import replace

import numpy as np
import pytest

from causalsde import (
    Grid,
    InterventionSpec,
    JumpAtom,
    LevyTriplet,
    OuModel,
    SignatureGraph,
    affine_field,
    build_euler_sem,
    check_commutation,
    constant_field,
    convergence_study,
    driver_increments,
    embed_constant_intervention,
    ensemble_from_csv,
    ensemble_to_csv,
    field_from_callable,
    field_from_expressions,
    intervene_sde,
    load_builtin,
    ou_to_system,
    sample_increments,
    simulate,
    simulate_shared,
    simulate_slices,
)
from causalsde._rng import _philox_key, block_stream, path_stream, path_streams
from causalsde.euler import _CHUNK, _CHUNK_VALUES, _draw_paths, _euler_update, _path_chunks
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
        grid, n = Grid(0.5, 2.0**-5), 40
        whole = simulate(system, grid, n, seed=6)
        slices = simulate_slices(system, grid.delta, [0.25, 0.5], n, seed=6)
        study = convergence_study(system, None, [2.0**-4, 2.0**-5], 0.5, n, seed=6)
        assert len(_path_chunks(n, grid.n_steps * system.d)) == 1
        monkeypatch.setattr("causalsde.euler._CHUNK", 16)
        monkeypatch.setattr("causalsde.euler._CHUNK_VALUES", 7 * grid.n_steps * system.d)
        assert [len(c) for c in _path_chunks(n, grid.n_steps * system.d)] == [7] * 5 + [5]
        assert simulate(system, grid, n, seed=6).values.tobytes() == whole.values.tobytes()
        chunked = simulate_slices(system, grid.delta, [0.25, 0.5], n, seed=6)
        for t in (0.25, 0.5):
            assert chunked.state_at(t).tobytes() == slices.state_at(t).tobytes()
        again = convergence_study(system, None, [2.0**-4, 2.0**-5], 0.5, n, seed=6)
        assert again.rows == study.rows

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

    def test_slice_lookup_tolerates_rounding(self):
        system = load_builtin("ou").system
        full = simulate(system, Grid(0.3, 0.1), 9, seed=3)
        sl = simulate_slices(system, 0.1, [0.3], 9, seed=3)
        np.testing.assert_array_equal(sl.state_at(0.1 + 0.2), full.state_at(0.3))
        assert sl.steps == (3,)

    def test_times_on_one_step_share_a_column(self):
        system = load_builtin("ou").system
        sl = simulate_slices(system, 0.1, [0.3, 0.1 + 0.2], 9, seed=3)
        assert sl.steps == (3,)
        assert sl.values.shape == (9, 1, system.p)
        np.testing.assert_array_equal(sl.state_at(0.3), sl.state_at(0.1 + 0.2))

    def test_unkept_grid_time_rejected(self):
        sl = simulate_slices(load_builtin("ou").system, 0.25, [0.5, 1.0], 3, seed=0)
        assert sl.steps == (2, 4)
        with pytest.raises(ValueError, match="time 0.25 was not kept"):
            sl.state_at(0.25)
        with pytest.raises(ValueError, match="not on the grid"):
            sl.state_at(0.3)
        np.testing.assert_array_equal(sl.alive(), sl.exploded_at < 0)


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

    def test_equals_simulate_across_chunks(self):
        built = load_builtin("ou")
        held = embed_constant_intervention(built.system, 0, 2.0)
        assert built.system.coeff.affine is not None
        grid, n = Grid(0.25, 2.0**-4), _CHUNK + 37
        shared = simulate_shared([built.system, held], grid, n, seed=5)
        for system, ens in zip([built.system, held], shared):
            alone = simulate(system, grid, n, seed=5)
            assert ens.values.tobytes() == alone.values.tobytes()
            np.testing.assert_array_equal(ens.exploded_at, alone.exploded_at)


def _seed_with_high_key_words(count: int) -> int:
    # a tuple key mixing a word at or above 2**63 with a smaller one would go through float64
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


class TestStreamLayout:
    """Stream layout v2: rank normals per step, one Poisson total per path,
    and chunks bounded by their increment values."""

    @pytest.mark.parametrize(
        "make",
        [lambda s: path_stream(s, 3), lambda s: next(path_streams(s, [3])), lambda s: block_stream(s, 3)],
        ids=["path_stream", "path_streams", "block_stream"],
    )
    def test_stored_philox_key_is_exact(self, make):
        for seed in range(200):
            key = make(seed).bit_generator.state["state"]["key"]
            assert [int(w) for w in key] == list(_philox_key(seed))

    def test_canonical_rows_draw_rank_normals(self):
        driver = canonical_driver(2)  # deterministic time and two Wiener coordinates
        assert (driver.dim, driver.rank) == (3, 2)
        grid, seed, indices = Grid(1.0, 2.0**-6), 13, [0, 5, 2]
        _, dz = _draw_paths(driver, InitialLaw(np.zeros(0)), grid, seed, indices)
        root = np.sqrt(grid.delta)
        for row, idx in enumerate(indices):
            z = path_stream(seed, idx).standard_normal((grid.n_steps, 2))
            ref = np.column_stack([np.full(grid.n_steps, grid.delta), root * z[:, 0], root * z[:, 1]])
            assert dz[row].tobytes() == ref.tobytes()

    @staticmethod
    def counting_driver():
        # no drift, no Gaussian part, atoms outside the ball on separate axes:
        # each increment coordinate is a location times an atom's count
        atoms = (JumpAtom(1.5, [2.0, 0.0]), JumpAtom(0.5, [0.0, 3.0]))
        return LevyTriplet(dim=2, alpha=[0.0, 0.0], cov=0.0, jumps=atoms, trunc_radius=1.0)

    @pytest.mark.parametrize("route", ["per_path", "block"])
    def test_step_counts_are_independent_poisson(self, route):
        driver, grid, n = self.counting_driver(), Grid(1.0, 2.0**-5), 4000
        if route == "per_path":
            dz = driver_increments(driver, grid, n, seed=31)
        else:
            dz = sample_increments(driver, grid.delta, (n, grid.n_steps), block_stream(31, 0))
        counts = (dz / np.array([2.0, 3.0])).reshape(-1, 2)
        assert np.array_equal(counts, np.round(counts))
        cells = len(counts)
        for j, lam in enumerate(driver.jump_rates * grid.delta):
            assert abs(counts[:, j].mean() - lam) <= 4 * np.sqrt(lam / cells)
            # Poisson: variance lam, and (X - lam)^2 has variance lam + 2 lam^2
            assert abs(counts[:, j].var() - lam) <= 4 * np.sqrt((lam + 2 * lam**2) / cells)
        assert abs(np.corrcoef(counts.T)[0, 1]) <= 4 / np.sqrt(cells)

    @pytest.mark.parametrize("n_paths", [1, 699, 700, 4096, 10_000])
    @pytest.mark.parametrize("values_per_path", [1, 12, 192, 3000, 2**21])
    def test_chunks_stay_within_the_value_bound(self, n_paths, values_per_path):
        chunks = _path_chunks(n_paths, values_per_path)
        assert [i for c in chunks for i in c] == list(range(n_paths))
        for c in chunks:
            assert len(c) <= _CHUNK and len(c) * values_per_path <= _CHUNK_VALUES

    def test_reduced_ou_chunk(self):
        built = load_builtin("ou")
        reduced = intervene_sde(built.system, built.intervention)
        chunks = _path_chunks(8192, Grid(1.0, 1e-3).n_steps * reduced.d)
        assert len(chunks[0]) == 699


@pytest.mark.parametrize("n", [1, 7, 1000, 4096])
def test_euler_update_equals_explicit_contractions(n):
    rng = np.random.default_rng(n)
    for p in (1, 2, 3, 5):
        for d in (1, 2, 3, 5, 8, 17):
            a, x, dz = rng.normal(size=(n, p, d)), rng.normal(size=(n, p)), rng.normal(size=(n, d))
            full = x + np.einsum("npd,nd->np", a, dz)
            assert _euler_update(a, x, dz).tobytes() == full.tobytes()
            for i in range(p):
                row = x[:, i] + np.einsum("nd,nd->n", a[:, i], dz)
                assert _euler_update(a[:, i], x[:, i], dz).tobytes() == row.tobytes()


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

    @staticmethod
    def sem_values(system, grid, x0, dz):
        env = build_euler_sem(system, grid).to_sem_model(x0).evaluate(
            {("dz", k): dz[:, k - 1] for k in range(1, grid.n_steps + 1)}
        )
        layers = [[env[("x", k, i)] for i in range(system.p)] for k in range(grid.n_steps + 1)]
        return np.transpose(layers, (2, 0, 1))

    def test_sem_evaluation_matches_simulation(self):
        affine = load_builtin("ou").system
        # the SEM contracts coefficient tensors, as the generic step does;
        # the builtin's affine step agrees with that step to rounding
        system = _generic(affine)
        grid = Grid(0.5, 2.0**-4)
        n = 9
        ens = simulate(system, grid, n, seed=12)
        stepped = simulate(affine, grid, n, seed=12).values
        np.testing.assert_allclose(stepped, ens.values, rtol=0, atol=1e-13)
        dz = driver_increments(system.driver, grid, n, seed=12)
        # the SEM of either field never takes the affine step
        for s in (system, affine):
            values = self.sem_values(s, grid, ens.values[:, 0, :], dz)
            assert values.tobytes() == ens.values.tobytes()

    def test_sparse_signature_fills_unread_coordinates(self):
        # row 1 reads x1 only and row 3 reads x3 only, so their states are
        # assembled with the other coordinates taken from the initial mean
        field = field_from_expressions(
            [["-x1", "1", "0"], ["x1 - x2 * x2", "0", "0.5"], ["0.3 * x3", "0", "x3"]]
        )
        driver = LevyTriplet(dim=3, alpha=[1.0, 0.0, 0.0], cov=np.diag([0.0, 1.0, 1.0]),
                             jumps=(JumpAtom(2.0, [0.0, 0.5, 0.0]),))
        system = SdeSystem(field, driver, InitialLaw(np.array([1.0, -0.5, 2.0])))
        grid = Grid(0.5, 2.0**-5)
        esem = build_euler_sem(system, grid)
        assert [esem.parent_coordinates(i) for i in range(3)] == [(0,), (0, 1), (2,)]
        ens = simulate(system, grid, 11, seed=4)
        dz = driver_increments(system.driver, grid, 11, seed=4)
        values = self.sem_values(system, grid, ens.values[:, 0, :], dz)
        assert values.tobytes() == ens.values.tobytes()

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
        assert report["max_discrepancy"] == 0.0
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
        assert report["max_discrepancy"] == 0.0
        assert report["passed"]

    def test_out_of_range_hold_rejected_before_the_draw(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("paths drawn")

        monkeypatch.setattr("causalsde.euler._draw_paths", refuse)
        with pytest.raises(ValueError, match="out of range"):
            check_commutation(
                load_builtin("ou").system, InterventionSpec(5, 1.0), Grid(0.5, 0.25), 10, seed=0
            )

    @pytest.mark.parametrize("value", [1.5, "0.5 * x1 - x2 * x2"], ids=["constant", "expression"])
    def test_gaussian_initial_law_commutes_exactly(self, value):
        report = check_commutation(
            _leveled_ou(), InterventionSpec(1, value), Grid(0.5, 2.0**-6), 50, seed=2
        )
        assert report["max_discrepancy"] == 0.0
        assert report["explosion_pattern_match"]


def _generic(system):
    return replace(system, coeff=replace(system.coeff, affine=None))


def _leveled_ou():
    """OU with a nonzero level, a non-diagonal reversion and a non-diagonal diffusion."""
    model = OuModel(
        level=np.array([0.7, -0.3, 1.2]),
        reversion=np.array([[-1.0, 0.4, 0.0], [0.3, -2.0, 0.5], [-0.2, 0.1, -1.5]]),
        diffusion=np.array([[0.5, 0.2], [0.0, 1.0], [0.3, -0.4]]),
        initial=InitialLaw(np.array([1.0, -0.5, 0.0]), 0.25 * np.eye(3)),
    )
    return ou_to_system(model)


def _unstable():
    """Affine field that grows about 26-fold per step and overflows near step 216."""
    field = affine_field(
        np.array([[200.0, 20.0], [10.0, 150.0]]), np.array([1.0, -2.0]),
        np.array([[1.0, 0.5], [0.0, 2.0]]),
    )
    initial = InitialLaw(np.array([1.0, -1.0]), 100.0 * np.eye(2))
    return SdeSystem(field, canonical_driver(2), initial)


class TestAffineStep:
    @pytest.mark.parametrize(
        "system, grid, n_exploded",
        [
            (_leveled_ou(), Grid(1.0, 2.0**-6), 0),
            (intervene_sde(_leveled_ou(), InterventionSpec(1, 1.5)), Grid(1.0, 2.0**-6), 0),
            (_unstable(), Grid(32.0, 2.0**-3), 64),
        ],
        ids=["ou", "ou-held", "unstable"],
    )
    def test_matches_generic_step(self, system, grid, n_exploded):
        assert system.coeff.affine is not None
        affine = simulate(system, grid, 64, seed=3)
        generic = simulate(_generic(system), grid, 64, seed=3)
        assert affine.n_exploded == n_exploded
        np.testing.assert_array_equal(affine.exploded_at, generic.exploded_at)
        np.testing.assert_array_equal(np.isnan(affine.values), np.isnan(generic.values))
        # absolute for states of order one, relative for the growing ones
        gap = np.abs(affine.values - generic.values) / np.maximum(1.0, np.abs(generic.values))
        assert np.nanmax(gap) <= 1e-13

    def test_affine_step_builds_no_coefficient_tensor(self):
        system = _leveled_ou()

        def refuse(xs):
            raise AssertionError("coefficient tensor evaluated")

        field = replace(system.coeff, batch_func=refuse)
        ens = simulate(replace(system, coeff=field), Grid(0.5, 2.0**-4), 8, seed=1)
        assert ens.n_exploded == 0


class TestNoPaths:
    """Every entry point that draws paths rejects an empty or negative path
    count; a commutation check over no paths is not a verdict."""

    @pytest.mark.parametrize("n_paths", [0, -1])
    def test_simulation_entry_points(self, n_paths):
        built = load_builtin("ou")
        system = built.system
        calls = [
            lambda: check_commutation(system, built.intervention, Grid(0.5, 0.25), n_paths, seed=0),
            lambda: simulate(system, Grid(0.5, 0.25), n_paths, seed=0),
            lambda: simulate_slices(system, 0.25, [0.5], n_paths, seed=0),
            lambda: convergence_study(system, None, [0.25, 0.125], 0.5, n_paths, seed=0),
            lambda: driver_increments(system.driver, Grid(0.5, 0.25), n_paths, seed=0),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="n_paths must be positive"):
                call()


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

    def test_slice_ensemble_writes_kept_times(self, tmp_path):
        system = load_builtin("ou").system
        full = simulate(system, Grid(1.0, 0.25), 3, seed=9)
        sl = simulate_slices(system, 0.25, [0.5, 1.0], 3, seed=9)
        target = os.path.join(tmp_path, "slices.csv")
        ensemble_to_csv(sl, target)
        with open(target) as fh:
            body = [line.split(",") for line in fh.read().splitlines()[1:]]
        assert [(int(r[0]), float(r[1])) for r in body] == [
            (i, t) for i in range(3) for t in (0.5, 1.0)
        ]
        values = np.array([[float(v) for v in r[2:]] for r in body]).reshape(3, 2, -1)
        np.testing.assert_array_equal(values, full.values[:, [2, 4]])
        with pytest.raises(ValueError, match="consecutive grid times"):
            ensemble_from_csv(target)
