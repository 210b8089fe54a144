"""Pointwise generator of a system and its Monte Carlo semigroup check.

The generator acts on twice continuously differentiable test functions as
drift + diffusion + jump terms.  Two equivalent forms are evaluated: the
driver-side form integrates over the driver's jump atoms with the
truncation ball in driver space, while the state-side form pushes the
atoms forward through the coefficient matrix and truncates in state space
(re-absorbing the difference of the two compensations into the drift).
With finitely many atoms both forms are exact finite sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rng import block_stream, derive_seed
from .driver import sample_increments
from .euler import Grid, _euler_paths
from .system import SdeSystem, _eval_finite

__all__ = [
    "ScalarField2",
    "GeneratorTerms",
    "apply_generator",
    "compute_terms",
    "compare_generators",
    "semigroup_estimate",
    "SemigroupEstimate",
    "gaussian_bump",
    "bump_field_battery",
]


@dataclass(frozen=True)
class ScalarField2:
    """Twice-differentiable scalar test function with optional analytic derivatives.

    The evaluators take states of shape (..., p) and return shapes (...),
    (..., p) and (..., p, p).  Missing derivatives fall back to central
    finite differences with step ``1e-5 * (1 + |x|)`` per state, from one
    ``value`` call on the stencil stack; the cross-difference Hessian
    stencil is symmetric in the coordinate pair by construction.
    """

    value: callable
    gradient: callable | None = None
    hessian: callable | None = None

    def __call__(self, x) -> np.ndarray:
        return np.asarray(self.value(np.asarray(x, dtype=float)), dtype=float)

    def grad(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.gradient is not None:
            return np.asarray(self.gradient(x), dtype=float)
        h, x1, steps = _fd_stencil(x)
        up, down = np.split(self(np.concatenate([x1 + steps, x1 - steps], axis=-2)), 2, axis=-1)
        return (up - down) / (2 * h[..., None])

    def hess(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.hessian is not None:
            return np.asarray(self.hessian(x), dtype=float)
        h, x1, steps = _fd_stencil(x)
        p = x.shape[-1]
        iu, ju = np.triu_indices(p, 1)
        ei, ej = steps[..., iu, :], steps[..., ju, :]
        stencil = [x1, x1 + steps, x1 - steps, x1 + ei + ej, x1 + ei - ej, x1 - ei + ej, x1 - ei - ej]
        vals = self(np.concatenate(stencil, axis=-2))
        f0, up, down, pp, pm, mp, mm = np.split(vals, np.cumsum([1, p, p] + [iu.size] * 3), axis=-1)
        h2 = h[..., None] ** 2
        out = np.empty(x.shape + (p,))
        diag = np.arange(p)
        out[..., diag, diag] = (up - 2 * f0 + down) / h2
        out[..., iu, ju] = out[..., ju, iu] = (pp - pm - mp + mm) / (4 * h2)
        return out


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Dot product over the last axis: a stack of BLAS dots, each summing
    as ``u @ v`` does on one pair of vectors (einsum sums in another order)."""
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def _norm(u: np.ndarray) -> np.ndarray:
    return np.sqrt(_dot(u, u))


def _fd_stencil(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Finite-difference step h per state, the states with a new axis -2,
    and the coordinate steps h e_i along that axis."""
    h = 1e-5 * (1.0 + _norm(x))
    return h, x[..., None, :], h[..., None, None] * np.eye(x.shape[-1])


def gaussian_bump(
    center: np.ndarray,
    width: float = 1.0,
    lin: np.ndarray | None = None,
    quad: np.ndarray | None = None,
) -> ScalarField2:
    """Gaussian bump with a polynomial prefactor of degree at most two.

    f(x) = q(z) exp(-|z|^2 / (2 w^2)) with z = x - center and
    q(z) = 1 + lin . z + z' quad z; analytic gradient and Hessian.
    """
    c = np.atleast_1d(np.asarray(center, dtype=float))
    p = c.size
    w2 = float(width) ** 2
    lin_v = np.zeros(p) if lin is None else np.asarray(lin, dtype=float)
    quad_m = np.zeros((p, p)) if quad is None else np.asarray(quad, dtype=float)
    quad_m = 0.5 * (quad_m + quad_m.T)

    def q(z):
        return 1.0 + _dot(z, lin_v) + np.einsum("...i,ij,...j->...", z, quad_m, z)

    def grad_q(z):
        return lin_v + (2.0 * quad_m @ z[..., None])[..., 0]

    def gauss(z):
        return np.exp(-0.5 * _dot(z, z) / w2)

    def value(x):
        # |z|^2 by einsum here and by BLAS dot in the derivatives; keep both, as
        # a finite-difference stencil amplifies a last-bit change by 1 / h^2
        z = np.asarray(x, dtype=float) - c
        return q(z) * np.exp(-0.5 * np.einsum("...i,...i->...", z, z) / w2)

    def gradient(x):
        z = np.asarray(x, dtype=float) - c
        return gauss(z)[..., None] * (grad_q(z) - q(z)[..., None] * z / w2)

    def hessian(x):
        z = np.asarray(x, dtype=float) - c
        qv = q(z)[..., None, None]
        gq = grad_q(z)
        zc, zr = z[..., :, None], z[..., None, :]
        term = 2.0 * quad_m - (gq[..., :, None] * zr + zc * gq[..., None, :] + qv * np.eye(p)) / w2
        return gauss(z)[..., None, None] * (term + qv * (zc * zr) / w2**2)

    return ScalarField2(value=value, gradient=gradient, hessian=hessian)


def bump_field_battery(p: int, width: float = 1.5) -> list[ScalarField2]:
    """Five bump fields with lattice centers, rich enough to separate
    drift, diffusion and jump terms at probe tolerance."""
    e0 = np.zeros(p)
    e0[0] = 1.0
    e1 = np.zeros(p)
    e1[min(1, p - 1)] = 1.0
    quad = np.outer(e0, e1)
    return [
        gaussian_bump(np.zeros(p), width),
        gaussian_bump(0.5 * np.ones(p), width),
        gaussian_bump(-np.ones(p), width, lin=e0),
        gaussian_bump(np.ones(p), width, lin=e1),
        gaussian_bump(np.zeros(p), 2.0 * width, quad=quad),
    ]


@dataclass(frozen=True, eq=False)
class GeneratorTerms:
    """Generator data at a point, or at a stack of points along a leading
    axis: effective drift, diffusion matrix, and the pushforward jump atoms
    (rate, state-space location)."""

    point: np.ndarray
    beta: np.ndarray
    diffusion: np.ndarray
    atoms: tuple[tuple[float, np.ndarray], ...]

    @property
    def total_jump_rate(self) -> float:
        return float(sum(rate for rate, _ in self.atoms))


def _states(system: SdeSystem, x) -> tuple[np.ndarray, np.ndarray]:
    """States of shape (p,) or (n, p) and the coefficient matrices there,
    from one ``eval_batch``; a non-finite coefficient raises."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.ndim > 2 or x.shape[-1] != system.p:
        raise ValueError(f"x must have shape ({system.p},) or (n, {system.p})")
    if not np.all(np.isfinite(x)):
        raise ValueError("x must be finite")
    a = _eval_finite(system.coeff, x.reshape(-1, system.p))
    return x, a.reshape(x.shape[:-1] + a.shape[1:])


def _form(trip, a: np.ndarray, form: str, r_state: float) -> tuple:
    """Drift, diffusion matrix and (rate, jump, compensated) triples of one
    generator form.  The state form truncates the pushforward atoms in the
    radius-``r_state`` ball, and its drift absorbs, per atom, the
    difference between compensating in state space and in driver space."""
    drift, diffusion = a @ trip.alpha, a @ trip.cov @ np.swapaxes(a, -1, -2)
    jumps = [
        (atom.rate, a @ atom.location, np.linalg.norm(atom.location) <= trip.trunc_radius)
        for atom in trip.jumps
    ]
    if form == "driver":
        return drift, diffusion, jumps
    if form != "state":
        raise ValueError("form must be 'driver' or 'state'")
    if not r_state > 0:
        raise ValueError("state truncation radius must be positive")
    state_jumps = []
    for rate, image, in_driver_ball in jumps:
        in_state_ball = _norm(image) <= r_state
        drift = drift + rate * (in_state_ball - float(in_driver_ball))[..., None] * image
        state_jumps.append((rate, image, in_state_ball))
    return drift, 0.5 * (diffusion + np.swapaxes(diffusion, -1, -2)), state_jumps


def compute_terms(system: SdeSystem, x: np.ndarray, r_state: float = 1.0) -> GeneratorTerms:
    """State-side generator data at a point (p,) or a point stack (n, p)."""
    x, a = _states(system, x)
    beta, diffusion, jumps = _form(system.driver, a, "state", r_state)
    atoms = tuple((rate, image) for rate, image, _ in jumps)
    return GeneratorTerms(x, beta, diffusion, atoms)


def _values(f: ScalarField2, x, drift, diffusion, jumps) -> np.ndarray:
    """grad f . drift + tr(diffusion hess f) / 2 plus, per (rate, jump,
    compensated) triple, rate * (f(x + jump) - f(x) - [compensated] grad f . jump)."""
    grad, hess = f.grad(x), f.hess(x)
    if grad.shape != x.shape or hess.shape != x.shape + x.shape[-1:]:
        raise ValueError("test function gradient and Hessian must have shapes (..., p) and (..., p, p)")
    value = _dot(grad, drift) + 0.5 * np.einsum("...ij,...ij->...", diffusion, hess)
    f0 = f(x)
    for rate, jump, compensated in jumps:
        term = f(x + jump) - f0 - np.where(compensated, _dot(grad, jump), 0.0)
        value = value + rate * term
    return value


def apply_generator(
    system: SdeSystem,
    f: ScalarField2,
    x: np.ndarray,
    form: str = "driver",
    r_state: float = 1.0,
):
    """Generator of the system on a test function at a point (p,), as a
    float, or at each point of a stack (n, p), as an array.

    ``form="driver"`` integrates jump terms against the driver atoms with
    driver-space truncation; ``form="state"`` uses the pushforward atoms
    with state-space truncation and the correspondingly shifted drift.
    Both are exact finite sums and agree up to rounding.
    """
    x, a = _states(system, x)
    value = _values(f, x, *_form(system.driver, a, form, r_state))
    return float(value) if value.ndim == 0 else value


def _match_atoms(atoms_a, atoms_b, loc_tol: float = 1e-9) -> float:
    """Distance between two finite atom lists: matched-rate differences
    plus all unmatched mass; atoms match by location within ``loc_tol``
    and images at the origin carry no mass."""
    left = [(rate, loc) for rate, loc in atoms_a if np.linalg.norm(loc) > 0]
    right = [(rate, loc) for rate, loc in atoms_b if np.linalg.norm(loc) > 0]
    used = [False] * len(right)
    dist = 0.0
    for rate, loc in left:
        hit = None
        for idx, (rate_b, loc_b) in enumerate(right):
            if not used[idx] and np.linalg.norm(loc - loc_b) <= loc_tol:
                hit = idx
                break
        if hit is None:
            dist += rate
        else:
            used[hit] = True
            dist += abs(rate - right[hit][0])
    dist += sum(rate for (rate, _), u in zip(right, used) if not u)
    return dist


def compare_generators(
    sys_a: SdeSystem,
    sys_b: SdeSystem,
    points: np.ndarray,
    fields: list[ScalarField2] | None = None,
    r_state: float = 1.0,
    tol: float = 1e-9,
) -> dict:
    """Functional and structural comparison of two generators.

    Reports the maximum over points and test fields of the difference of
    generator values, and per point the drift, diffusion (Frobenius) and
    pushforward-measure distances.  Structural equality at every point
    implies functional equality, which is what the identifiability theorem
    consumes.  A non-finite coefficient at a point raises
    :class:`CoefficientOverflowError` naming the point.
    """
    if sys_a.p != sys_b.p:
        raise ValueError("dimension mismatch")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if fields is None:
        fields = bump_field_battery(sys_a.p)
    sides = []
    for system in (sys_a, sys_b):
        x, a = _states(system, pts)
        form = _form(system.driver, a, "driver", r_state)
        values = np.array([_values(f, x, *form) for f in fields])
        sides.append((_form(system.driver, a, "state", r_state), values))
    ((beta_a, diff_a, jumps_a), va), ((beta_b, diff_b, jumps_b), vb) = sides
    beta_dist = _norm(beta_a - beta_b)
    diff_dist = _norm((diff_a - diff_b).reshape(len(pts), -1))
    jump_dist = np.zeros(len(pts))
    if jumps_a or jumps_b:
        for k in range(len(pts)):
            jump_dist[k] = _match_atoms(
                [(r, im[k]) for r, im, _ in jumps_a], [(r, im[k]) for r, im, _ in jumps_b]
            )
    value_diff = np.abs(va - vb).max(axis=0)
    keys = ("point", "beta_distance", "diffusion_distance", "jump_distance", "max_value_difference")
    columns = (pts, beta_dist, diff_dist, jump_dist, value_diff)
    per_point = [dict(zip(keys, row)) for row in zip(*(c.tolist() for c in columns))]
    max_beta, max_diffusion, max_jump = (float(np.max(v)) for v in (beta_dist, diff_dist, jump_dist))
    return {
        "max_value_difference": float(np.max(value_diff)),
        "max_beta_distance": max_beta,
        "max_diffusion_distance": max_diffusion,
        "max_jump_distance": max_jump,
        "structurally_equal": bool(np.max([max_beta, max_diffusion, max_jump]) <= tol),
        "tolerance": float(tol),
        "n_points": int(len(pts)),
        "n_fields": int(len(fields)),
        "per_point": per_point,
    }


@dataclass(frozen=True)
class SemigroupEstimate:
    estimate: float
    std_error: float
    n_exploded: int


def semigroup_estimate(
    system: SdeSystem,
    f: ScalarField2,
    x: np.ndarray,
    t: float,
    n_paths: int,
    seed: int,
    n_substeps: int = 64,
) -> SemigroupEstimate:
    """Monte Carlo difference quotient of the transition semigroup.

    Simulates from the fixed state ``x`` over a short horizon ``t`` with 64
    Euler substeps and returns (mean f(X_t) - f(x)) / t with its Monte
    Carlo standard error, excluding and counting exploded paths.  As t
    shrinks this converges to the generator value at ``x``.
    """
    if not t > 0:
        raise ValueError("t must be positive")
    if n_paths < 1:
        raise ValueError("n_paths must be positive")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (system.p,):
        raise ValueError(f"x must have shape ({system.p},), got {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError(f"x must be finite, got {x}")
    grid = Grid(t, t / n_substeps)
    block = 1 << 13  # keys block_stream, so it fixes the sampled values
    total = 0.0
    total_sq = 0.0
    n_ok = 0
    n_bad = 0
    run_seed = derive_seed(seed, 97)
    with np.errstate(all="ignore"):
        for b0 in range(0, n_paths, block):
            b1 = min(b0 + block, n_paths)
            g = block_stream(run_seed, b0 // block)
            dz = sample_increments(system.driver, grid.delta, (b1 - b0, grid.n_steps), g)
            x0 = np.broadcast_to(x, (b1 - b0, x.size))
            end, exploded = _euler_paths(system.coeff, x0, dz, keep=[grid.n_steps])
            states = end[:, 0]
            vals = f(states)
            ok = (exploded < 0) & np.isfinite(vals)
            n_ok += int(np.sum(ok))
            n_bad += int(np.sum(~ok))
            total += float(np.sum(vals[ok]))
            total_sq += float(np.sum(vals[ok] ** 2))
    if n_ok < 2:
        raise ValueError(
            f"no estimate: at least two surviving paths are needed, got {n_ok} "
            f"of {n_paths} ({n_bad} exploded)"
        )
    mean = total / n_ok
    var = (total_sq - n_ok * (mean * mean)) / (n_ok - 1)  # float ** 2 raises on overflow
    estimate = (mean - float(f(x))) / t
    std_error = float(np.sqrt(max(0.0, var) / n_ok)) / t if np.isfinite(var) else float("inf")
    return SemigroupEstimate(float(estimate), std_error, n_bad)
