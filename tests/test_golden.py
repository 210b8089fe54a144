"""Golden digests of seeded outputs.

Each case hashes the bytes of a seeded result.  The systems use
expression fields built from + - * only, Gaussian parts with diagonal
factors and at most one jump atom, so every value is fixed by IEEE
arithmetic alone: no BLAS reduction and no transcendental ufunc enters,
and the digests do not depend on the BLAS build or its thread count.
A refactor that keeps the arithmetic leaves every digest unchanged; a
change to the stream layout or the recursion must update them on purpose.
"""

import hashlib
import json

import numpy as np
import pytest

from causalsde import (
    Grid,
    InterventionSpec,
    JumpAtom,
    LevyTriplet,
    ScalarField2,
    check_commutation,
    convergence_study,
    field_from_expressions,
    identifiability_check,
    intervene_sde,
    semigroup_estimate,
    simulate,
    simulate_shared,
    simulate_slices,
)
from causalsde._rng import derive_seed
from causalsde.system import InitialLaw, SdeSystem


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _planar(initial) -> SdeSystem:
    # driver: deterministic time, two Wiener coordinates, one compensated atom
    driver = LevyTriplet(
        dim=3,
        alpha=[1.0, 0.0, 0.0],
        cov=np.diag([0.0, 1.0, 1.0]),
        jumps=(JumpAtom(rate=2.0, location=[0.0, 0.5, 0.0]),),
    )
    field = field_from_expressions(
        [
            ["-x1 + 0.5 * x2", "1", "0"],
            ["x1 - 0.25 * x2 * x2", "0.5 * x1", "0.25"],
        ]
    )
    return SdeSystem(field, driver, initial)


def _fixed(*x0) -> InitialLaw:
    return InitialLaw(np.array(x0, dtype=float))


def _gaussian() -> InitialLaw:
    return InitialLaw(np.array([1.0, -0.5]), np.diag([0.25, 1.0]))


def _cubic() -> SdeSystem:
    """Supercritical growth from x0 = 3: a share of the paths explodes."""
    driver = LevyTriplet(dim=1, alpha=[0.0], cov=[[1.0]])
    return SdeSystem(field_from_expressions([["x1 * x1 * x1"]]), driver, _fixed(3.0))


def _case_simulate():
    ens = simulate(_planar(_gaussian()), Grid(1.0, 2.0**-6), 50, seed=11)
    return _digest(ens.values, ens.exploded_at)


def _case_slices():
    s = simulate_slices(_planar(_gaussian()), 2.0**-6, [0.25, 1.0], 50, seed=11)
    return _digest(*s.states, s.exploded_at)


def _case_shared():
    systems = [_planar(_fixed(1.0, 0.0)), _planar(_fixed(-0.5, 2.0))]
    out = simulate_shared(systems, Grid(0.5, 2.0**-5), 30, seed=3)
    return _digest(*(e.values for e in out), *(e.exploded_at for e in out))


def _case_convergence():
    study = convergence_study(
        _planar(_fixed(1.0, 0.0)), None, [2.0**-3, 2.0**-4, 2.0**-5], 1.0, 40, seed=5
    )
    return _digest(np.array(study.rows, dtype=float))


def _case_commutation():
    report = check_commutation(
        _planar(_fixed(1.0, 0.0)), InterventionSpec(1, 0.75), Grid(0.5, 2.0**-5), 20, seed=9
    )
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


def _case_semigroup():
    f = ScalarField2(lambda x: x[..., 0] * x[..., 1] + x[..., 1])
    est = semigroup_estimate(
        _planar(_fixed(0.5, 0.25)), f, np.array([0.5, 0.25]), 0.05, 10_000, seed=2, n_substeps=8
    )
    return _digest(np.array([est.estimate, est.std_error, est.n_exploded], dtype=float))


def _case_explode():
    ens = simulate(_cubic(), Grid(1.0, 2.0**-5), 64, seed=0)
    assert 0 < ens.n_exploded < ens.n_paths
    s = simulate_slices(_cubic(), 2.0**-5, [0.5, 1.0], 64, seed=0)
    return _digest(ens.values, ens.exploded_at, *s.states, s.exploded_at)


def _spatial(rows) -> SdeSystem:
    # three coordinates, a Gaussian initial law, a time coordinate and two Wiener ones
    driver = LevyTriplet(dim=3, alpha=[1.0, 0.0, 0.0], cov=np.diag([0.0, 1.0, 0.5]))
    initial = InitialLaw(np.array([0.5, -1.0, 0.25]), np.diag([0.25, 1.0, 0.5]))
    return SdeSystem(field_from_expressions(rows), driver, initial)


def _case_identifiability():
    """KS statistics and both slices; the energy statistic and the p-values
    go through BLAS and scipy special functions, so they stay out."""
    sys_a = _spatial(
        [
            ["-x1 + 0.5 * x3", "1", "0"],
            ["x1 - x2", "0", "0.5 * x2"],
            ["x2 * x3 - x1", "0.25", "0"],
        ]
    )
    sys_b = _spatial(
        [
            ["0.5 * x3 - x1", "1", "0"],
            ["x1 - x2", "0", "x2 * 0.5"],
            ["x3 * x2 - x1", "0.25", "0"],
        ]
    )
    spec, times, n, delta, seed = InterventionSpec(1, 0.75), [0.25, 0.5], 1000, 2.0**-5, 4
    report = identifiability_check(
        sys_a, sys_b, spec, times, n, delta, seed, n_permutations=19, structure_points=32
    )
    ks = [e["statistic"] for e in report.breakdown if e["test"].startswith("ks[")]
    slices = [
        simulate_slices(intervene_sde(s, spec), delta, times, n, derive_seed(seed, k))
        for k, s in ((1, sys_a), (2, sys_b))
    ]
    return _digest(
        np.array(ks),
        np.array(report.extras["n_exploded"]),
        *(x for s in slices for x in (*s.states, s.exploded_at)),
    )


GOLDEN = {
    "simulate": (
        _case_simulate,
        "efeb6bcfdd13777797c2904bec90952d43ccb1856ff22973c104f203947f0c51",
    ),
    "simulate_slices": (
        _case_slices,
        "75f889a770d99a8c1709e60c61d9d1f56822fc97ef076643befe645d48f3d576",
    ),
    "simulate_shared": (
        _case_shared,
        "f49bad0c99a2034b27a865538e4dcd62b3d663d3106eb733a661ceedbd5b7f3b",
    ),
    "convergence_study": (
        _case_convergence,
        "c3c0036cb712672bf665bff08d47960a2971f82f87d99185d693c8ff36a6a32a",
    ),
    "check_commutation": (
        _case_commutation,
        "3e02933d435c6dffe277328f4c8e80a479bfc5925fea98baf9b8b876577318b8",
    ),
    "semigroup_estimate": (
        _case_semigroup,
        "8b3b6b0d364164edc4ebfaa8605d467953d3313e3d2ec5c49107ba10ac1d85ab",
    ),
    "identifiability_check": (
        _case_identifiability,
        "84c7f5716293c14caf96c2325af61c919130f750627866b4e0ce9af4c42ad1d3",
    ),
    "exploding": (
        _case_explode,
        "7b985cbb9258b7e64e706eb1ecadc666dafe04cfebd52f93f0a5c593540f47d7",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digest(name):
    case, expected = GOLDEN[name]
    assert case() == expected
