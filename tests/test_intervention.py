"""Intervention operator tests: substitution exactness, SEM rewiring, update maps."""

import numpy as np
import pytest

from causalsde import (
    Grid,
    IntegratorInterventionError,
    InterventionSpec,
    NotDagError,
    SemModel,
    SemVertex,
    embed_constant_intervention,
    field_from_callable,
    field_from_expressions,
    full_process_lift,
    intervene_sde,
    intervene_sem,
    intervene_update,
    ito_counterexample,
    ks_two_sample,
    load_builtin,
    simulate,
    simulate_shared,
    two_signature_pair,
)
from causalsde.system import InitialLaw, SdeSystem
from causalsde.driver import LevyTriplet


def _insert(y, m, value):
    return np.concatenate([y[:m], [value], y[m:]])


class TestInterveneSde:
    def test_dimension_and_driver_contract(self):
        system = load_builtin("ou").system
        reduced = intervene_sde(system, InterventionSpec(0, 2.0))
        assert reduced.p == system.p - 1
        assert reduced.driver is system.driver
        assert reduced.labels == ("x2",)

    def test_substitution_bit_exact_constant(self):
        sys_a, _ = two_signature_pair()
        spec = InterventionSpec(1, 1.0)
        reduced = intervene_sde(sys_a, spec)
        rng = np.random.default_rng(0)
        for _ in range(1000):
            y = rng.uniform(-4, 4, size=1)
            full = sys_a.coeff(_insert(y, 1, 1.0))
            np.testing.assert_array_equal(reduced.coeff(y), full[[0], :])

    def test_substitution_bit_exact_expression_map(self):
        field = field_from_expressions(
            [["x1 * x3", "exp(x2)"], ["x2 + x3", "1"], ["sqrt(abs(x1))", "x3"]]
        )
        system = SdeSystem(
            field,
            LevyTriplet(dim=2, alpha=np.zeros(2), cov=np.eye(2)),
            InitialLaw(np.zeros(3)),
        )
        spec = InterventionSpec(1, "x1 - 2*x2")  # map of the reduced vector
        reduced = intervene_sde(system, spec)
        rng = np.random.default_rng(1)
        for _ in range(1000):
            y = rng.uniform(-3, 3, size=2)
            value = y[0] - 2 * y[1]
            full = system.coeff(_insert(y, 1, value))
            np.testing.assert_array_equal(reduced.coeff(y), full[[0, 2], :])

    def test_unused_slot_leaves_rows_unchanged(self):
        field = field_from_expressions([["x1", "2"], ["3", "x2"]])
        system = SdeSystem(
            field,
            LevyTriplet(dim=2, alpha=np.zeros(2), cov=np.eye(2)),
            InitialLaw(np.ones(2)),
        )
        reduced = intervene_sde(system, InterventionSpec(1, 42.0))
        rng = np.random.default_rng(2)
        ys = rng.uniform(-5, 5, (200, 1))
        full = system.coeff.eval_batch(np.hstack([ys, np.full((200, 1), 42.0)]))
        np.testing.assert_array_equal(reduced.coeff.eval_batch(ys), full[:, [0], :])

    def test_ou_reduction_matches_closed_form(self):
        system = load_builtin("ou").system
        reduced = intervene_sde(system, InterventionSpec(0, 2.0))
        for y in (-1.0, 0.0, 2.5):
            row = reduced.coeff(np.array([y]))[0]
            assert row[0] == pytest.approx(-2.0 * (y - 0.3), abs=1e-14)
            np.testing.assert_array_equal(row[1:], [0.0, 1.0])

    def test_requires_two_coordinates(self):
        field = field_from_expressions([["x1"]])
        system = SdeSystem(
            field, LevyTriplet(dim=1, alpha=np.zeros(1), cov=np.eye(1)), InitialLaw(np.ones(1))
        )
        with pytest.raises(ValueError, match="two coordinates"):
            intervene_sde(system, InterventionSpec(0, 1.0))

    @pytest.mark.parametrize("declared", [True, False])
    def test_hold_reading_a_missing_coordinate_rejected(self, declared):
        # the reduced state of a 2-d system has only x1
        system = load_builtin("ou").system
        if not declared:
            coeff = system.coeff
            undeclared = field_from_callable(coeff.p, coeff.d, batch_func=coeff.batch_func)
            system = SdeSystem(undeclared, system.driver, system.initial)
        with pytest.raises(ValueError, match="held value reads x2"):
            intervene_sde(system, InterventionSpec(0, "x2"))


class TestEmbedding:
    def test_target_row_identically_zero(self):
        system = load_builtin("chem").system
        embedded = embed_constant_intervention(system, 1, 1.0)
        rng = np.random.default_rng(3)
        xs = rng.uniform(0.1, 3.0, (100, 2))
        assert np.all(embedded.coeff.eval_batch(xs)[:, 1, :] == 0.0)

    def test_target_coordinate_constant_along_paths(self):
        system = load_builtin("ou").system
        embedded = embed_constant_intervention(system, 0, 2.0)
        ens = simulate(embedded, Grid(1.0, 2.0**-6), 16, seed=5)
        assert np.all(ens.values[:, :, 0] == 2.0)

    def test_embedded_equals_lifted_reduction(self):
        built = load_builtin("chem")
        spec = built.intervention
        embedded = embed_constant_intervention(built.system, spec.target, spec.constant())
        reduced = intervene_sde(built.system, spec)
        ens_embedded, ens_reduced = simulate_shared(
            [embedded, reduced], Grid(1.0, 2.0**-7), 64, seed=9
        )
        lifted = full_process_lift(ens_reduced, spec)
        both = np.isfinite(ens_embedded.values) & np.isfinite(lifted.values)
        gap = np.abs(np.where(both, ens_embedded.values - lifted.values, 0.0)).max()
        assert gap <= 1e-12

    def test_embedding_order_irrelevant(self):
        field = field_from_expressions(
            [["x1 + x2 * x3", "1"], ["x3", "x1"], ["x2", "sqrt(abs(x3))"]]
        )
        system = SdeSystem(
            field,
            LevyTriplet(dim=2, alpha=np.zeros(2), cov=np.eye(2)),
            InitialLaw(np.ones(3)),
        )
        one = embed_constant_intervention(embed_constant_intervention(system, 0, 1.5), 2, -2.0)
        two = embed_constant_intervention(embed_constant_intervention(system, 2, -2.0), 0, 1.5)
        rng = np.random.default_rng(4)
        xs = rng.uniform(-3, 3, (500, 3))
        np.testing.assert_array_equal(one.coeff.eval_batch(xs), two.coeff.eval_batch(xs))
        np.testing.assert_array_equal(one.initial.mean, two.initial.mean)

    def test_non_constant_rejected(self):
        system = load_builtin("ou").system
        with pytest.raises(ValueError, match="embedding defined only for constant"):
            embed_constant_intervention(system, 0, InterventionSpec(0, "x1"))


class TestLift:
    def test_constant_column_inserted(self):
        built = load_builtin("ou")
        reduced = intervene_sde(built.system, built.intervention)
        ens = simulate(reduced, Grid(0.5, 0.25), 6, seed=2)
        lifted = full_process_lift(ens, built.intervention, label="x1")
        assert lifted.labels == ("x1", "x2")
        assert np.all(lifted.values[:, :, 0] == 2.0)

    def test_remove_recovers_input_bit_exactly(self):
        built = load_builtin("ou")
        reduced = intervene_sde(built.system, built.intervention)
        ens = simulate(reduced, Grid(0.5, 0.25), 6, seed=2)
        lifted = full_process_lift(ens, built.intervention)
        np.testing.assert_array_equal(lifted.drop_coordinate(0).values, ens.values)


def _chain_sem():
    # x -> y -> z with additive noise
    return SemModel(
        (
            SemVertex("x", (), lambda pv, u: 1.0 + u, noise="u1"),
            SemVertex("y", ("x",), lambda pv, u: 2.0 * pv["x"] + u, noise="u2"),
            SemVertex("z", ("y",), lambda pv, u: pv["y"] - u, noise="u3"),
        )
    )


class TestSemIntervention:
    def test_empty_assignment_is_identity(self):
        sem = _chain_sem()
        noise = {"u1": 0.5, "u2": -1.0, "u3": 0.25}
        assert intervene_sem(sem, {}).evaluate(noise) == sem.evaluate(noise)

    def test_constant_on_source_vertex(self):
        sem = intervene_sem(_chain_sem(), {"x": 7.0})
        assert sem.by_name["x"].parents == ()
        values = sem.evaluate({"u1": 99.0, "u2": 0.0, "u3": 0.0})
        assert values == {"x": 7.0, "y": 14.0, "z": 14.0}

    def test_noise_assignment_untouched(self):
        sem = intervene_sem(_chain_sem(), {"y": 3.0})
        assert sem.noise_assignment == _chain_sem().noise_assignment

    def test_functional_assignment(self):
        sem = intervene_sem(_chain_sem(), {"z": (("x",), lambda pv: 10.0 * pv["x"])})
        values = sem.evaluate({"u1": 0.0, "u2": 5.0, "u3": 123.0})
        assert values["z"] == 10.0

    def test_cycle_detected(self):
        with pytest.raises(NotDagError, match="not a DAG"):
            intervene_sem(_chain_sem(), {"x": (("z",), lambda pv: pv["z"])})

    def test_noise_target_rejected(self):
        with pytest.raises(IntegratorInterventionError, match="driving-noise"):
            intervene_sem(_chain_sem(), {"u2": 0.0})

    def test_assignment_reading_target_rejected(self):
        with pytest.raises(ValueError, match="intervened"):
            intervene_sem(
                _chain_sem(),
                {"x": 1.0, "y": (("x",), lambda pv: pv["x"])},
            )

    def test_unknown_target(self):
        with pytest.raises(KeyError):
            intervene_sem(_chain_sem(), {"nope": 1.0})


class TestUpdateMaps:
    def test_direct_substitution_example(self):
        update = lambda x, u: np.stack([x[..., 0] + x[..., 1] * u, x[..., 1] + u], axis=-1)
        held = intervene_update(update, 0, lambda y: y[..., 0])
        for y, u in ((2.0, 0.3), (-1.0, 1.7)):
            out = held(np.array([y]), u)
            assert out.shape == (1,)
            assert out[0] == pytest.approx(y + u, abs=1e-15)

    def test_target_independent_update(self):
        update = lambda x, u: np.stack([x[..., 0] + u, x[..., 1] * 2.0], axis=-1)
        held_a = intervene_update(update, 1, 0.0)
        held_b = intervene_update(update, 1, 123.0)
        y = np.array([1.5])
        np.testing.assert_array_equal(held_a(y, 0.25), held_b(y, 0.25))

    def test_equal_transition_laws_give_equal_intervened_chains(self):
        # two updates equal in law (orthogonal noise rotation), run the
        # intervened chains and compare marginals at each step
        rng = np.random.default_rng(8)
        mix = np.array([[1.0, 0.4], [-0.3, 0.8]])
        q, _ = np.linalg.qr(rng.standard_normal((2, 2)))

        def update_a(x, u):
            return x + u @ mix.T

        def update_b(x, v):
            return x + v @ (mix @ q).T

        held_a = intervene_update(update_a, 0, 0.5)
        held_b = intervene_update(update_b, 0, 0.5)
        n = 10_000
        ya = np.ones((n, 1))
        yb = np.ones((n, 1))
        worst = 1.0
        for step in range(10):
            ua = rng.standard_normal((n, 2))
            vb = rng.standard_normal((n, 2))
            ya = held_a(ya, ua)
            yb = held_b(yb, vb)
            _, p = ks_two_sample(ya[:, 0], yb[:, 0])
            worst = min(worst, p)
        assert worst > 1e-3


class TestItoCounterexample:
    def test_square_function_with_unit_level(self):
        report = ito_counterexample(
            lambda x: np.square(x), lambda x: 2.0 * x, lambda x: 2.0 + 0.0 * x,
            zeta=1.0, horizon=1.0, delta=2.0**-8, n_paths=100, seed=3,
        )
        assert report["max_distance_from_definition_path"] <= 1e-12
        assert report["distance_assumed_at_time_zero"] == 1.0
        assert report["max_distance_from_assumed_constant"] >= 1.0 - 1e-12

    def test_zero_level_distance_grows(self):
        report = ito_counterexample(
            lambda x: np.square(x), lambda x: 2.0 * x, lambda x: 2.0 + 0.0 * x,
            zeta=0.0, horizon=1.0, delta=2.0**-8, n_paths=100, seed=3,
        )
        assert report["distance_assumed_at_time_zero"] == 0.0
        assert report["median_final_distance_from_assumed"] > 0.5

    def test_increments_are_drawn_once(self, monkeypatch):
        import causalsde.euler as euler

        draw, calls = euler._draw_paths, []

        def counted(*args):
            calls.append(args)
            return draw(*args)

        monkeypatch.setattr(euler, "_draw_paths", counted)
        report = ito_counterexample(
            lambda x: np.square(x), lambda x: 2.0 * x, lambda x: 2.0 + 0.0 * x,
            zeta=1.0, horizon=1.0, delta=2.0**-8, n_paths=100, seed=3,
        )
        assert len(calls) == 1
        assert report["max_distance_from_definition_path"] <= 1e-12
