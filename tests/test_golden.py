"""Golden digests of seeded outputs.

Each case hashes the bytes of a seeded result.  Except in the generator
and reduced-OU cases, the systems use expression fields built from
+ - * only, Gaussian parts with diagonal factors and at most one jump
atom, so every value is fixed by IEEE arithmetic alone: no BLAS
reduction and no transcendental ufunc enters, and the digests do not
depend on the BLAS build or its thread count.
A refactor that keeps the arithmetic leaves every digest unchanged; a
change to the stream layout or the recursion must update them on purpose.
The digests below were pinned under ``PINNED_STREAM_VERSION``; a re-pin
that comes from a new stream layout bumps ``_rng.STREAM_VERSION`` and this
number with it.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import causalsde
from causalsde import (
    Grid,
    InterventionSpec,
    JumpAtom,
    LevyTriplet,
    ScalarField2,
    apply_generator,
    check_commutation,
    compute_terms,
    convergence_study,
    field_from_expressions,
    identifiability_check,
    intervene_sde,
    load_builtin,
    semigroup_estimate,
    simulate,
    simulate_shared,
    simulate_slices,
)
from causalsde._rng import STREAM_VERSION, derive_seed
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


def _columns(s) -> list:
    """The states of a slice ensemble as one (n, p) array per kept time."""
    return [s.values[:, c] for c in range(len(s.steps))]


def _case_simulate():
    ens = simulate(_planar(_gaussian()), Grid(1.0, 2.0**-6), 50, seed=11)
    return _digest(ens.values, ens.exploded_at)


def _case_slices():
    s = simulate_slices(_planar(_gaussian()), 2.0**-6, [0.25, 1.0], 50, seed=11)
    return _digest(*_columns(s), s.exploded_at)


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
    return _digest(ens.values, ens.exploded_at, *_columns(s), s.exploded_at)


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
        *(x for s in slices for x in (*_columns(s), s.exploded_at)),
    )


def _case_generator():
    """Both generator forms and the state-side terms of the planar system
    on a 9 x 9 grid, for a cubic test function with + - * derivatives.

    Unlike the other cases, the drift and diffusion products and the dot
    products go through BLAS, at sizes too small to be split across
    threads; the digest is fixed by the BLAS kernels, not their thread
    count."""
    f = ScalarField2(
        value=lambda x: x[..., 0] * x[..., 0] * x[..., 1] - 0.5 * x[..., 1] * x[..., 1] + x[..., 0],
        gradient=lambda x: np.stack(
            [2.0 * x[..., 0] * x[..., 1] + 1.0, x[..., 0] * x[..., 0] - x[..., 1]], axis=-1
        ),
        hessian=lambda x: np.stack(
            [
                np.stack([2.0 * x[..., 1], 2.0 * x[..., 0]], axis=-1),
                np.stack([2.0 * x[..., 0], -np.ones_like(x[..., 0])], axis=-1),
            ],
            axis=-2,
        ),
    )
    system = _planar(_fixed(0.0, 0.0))
    axis = np.linspace(-2.0, 2.0, 9)
    pts = np.array([[u, v] for u in axis for v in axis])
    values = [[apply_generator(system, f, x, form=form) for x in pts] for form in ("driver", "state")]
    terms = [compute_terms(system, x) for x in pts]
    return _digest(
        np.array(values),
        np.array([t.beta for t in terms]),
        np.array([t.diffusion for t in terms]),
    )


def _case_ou_reduced():
    """The ou builtin held at x1 := 2.  Its field is affine, so the drift
    goes through BLAS at sizes too small to be split across threads, as in
    the generator case."""
    builtin = load_builtin("ou")
    reduced = intervene_sde(builtin.system, builtin.intervention)
    s = simulate_slices(reduced, 2.0**-7, [0.5, 1.0], 300, seed=21)
    return _digest(*_columns(s), s.exploded_at)


PINNED_STREAM_VERSION = 2

GOLDEN = {
    "simulate": (
        _case_simulate,
        "7db20d47e7ed58502a38eba934276d472947b5597e68462eee7b0b1c10354adf",
    ),
    "simulate_slices": (
        _case_slices,
        "1bccb3e4e498ed8517970e67f2e3a2a641233682ee4b16c8df38531bd91682b0",
    ),
    "simulate_shared": (
        _case_shared,
        "06fb34fb79a0b90049e407288f7cfa3549ed7db87e62f99fc927f4d83e3e8df8",
    ),
    "convergence_study": (
        _case_convergence,
        "a55602bc8550b0690c389bfdd45557b16d9a5e53b2c512775965fca29b031f64",
    ),
    "check_commutation": (
        _case_commutation,
        "3e02933d435c6dffe277328f4c8e80a479bfc5925fea98baf9b8b876577318b8",
    ),
    "semigroup_estimate": (
        _case_semigroup,
        "89074a51eb73f652864ccf12f7626e9ae112609026ad01d09334f2bb711e2754",
    ),
    "identifiability_check": (
        _case_identifiability,
        "aefd21f862199ea3e2e1348a6200297059399c7bca66e5697ce41108136ad1c0",
    ),
    "generator": (
        _case_generator,
        "da732b8664cbcccbb49dbbd5836ba8dac31d6a01d616643d7a4692a8462ef45c",
    ),
    "ou_reduced_slices": (
        _case_ou_reduced,
        "a2f64a6f528451c858a02bb0ec0c2b2a41c411f10fc050d1da7263de45dd280f",
    ),
    "exploding": (
        _case_explode,
        "7b985cbb9258b7e64e706eb1ecadc666dafe04cfebd52f93f0a5c593540f47d7",
    ),
}


def test_digests_pinned_under_current_stream_version():
    assert STREAM_VERSION == PINNED_STREAM_VERSION


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digest(name):
    case, expected = GOLDEN[name]
    assert case() == expected


def test_golden_digests_at_one_blas_thread():
    """Every case again in one child process whose OpenBLAS runs a single
    thread; the variable takes effect only if set before numpy loads."""
    src = Path(causalsde.__file__).resolve().parents[1]
    code = (
        "import json, sys; sys.path[:0] = sys.argv[1:]; import test_golden as g; "
        "print(json.dumps({name: case() for name, (case, _) in g.GOLDEN.items()}))"
    )
    child = subprocess.run(
        [sys.executable, "-c", code, str(src), str(Path(__file__).parent)],
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
        capture_output=True,
        text=True,
    )
    assert child.returncode == 0, child.stderr
    digests = json.loads(child.stdout.splitlines()[-1])
    assert digests == {name: expected for name, (_, expected) in GOLDEN.items()}
