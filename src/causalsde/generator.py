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
from .system import SdeSystem

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

    ``value`` must accept states of shape (..., p).  Missing derivative
    evaluators fall back to central finite differences with step
    ``1e-5 * (1 + |x|)``; the cross-difference Hessian stencil is symmetric
    in the coordinate pair by construction.
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
        h = 1e-5 * (1.0 + np.linalg.norm(x))
        p = x.size
        out = np.empty(p)
        for i in range(p):
            e = np.zeros(p)
            e[i] = h
            out[i] = (self(x + e) - self(x - e)) / (2 * h)
        return out

    def hess(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.hessian is not None:
            return np.asarray(self.hessian(x), dtype=float)
        h = 1e-5 * (1.0 + np.linalg.norm(x))
        p = x.size
        out = np.empty((p, p))
        f0 = float(self(x))
        eye = np.eye(p) * h
        for i in range(p):
            out[i, i] = (self(x + eye[i]) - 2 * f0 + self(x - eye[i])) / h**2
        for i in range(p):
            for j in range(i + 1, p):
                val = (
                    self(x + eye[i] + eye[j])
                    - self(x + eye[i] - eye[j])
                    - self(x - eye[i] + eye[j])
                    + self(x - eye[i] - eye[j])
                ) / (4 * h**2)
                out[i, j] = val
                out[j, i] = val
        return out


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
        return 1.0 + z @ lin_v + np.einsum("...i,ij,...j->...", z, quad_m, z)

    def value(x):
        z = np.asarray(x, dtype=float) - c
        return q(z) * np.exp(-0.5 * np.einsum("...i,...i->...", z, z) / w2)

    def gradient(x):
        z = np.asarray(x, dtype=float) - c
        g = np.exp(-0.5 * (z @ z) / w2)
        grad_q = lin_v + 2.0 * quad_m @ z
        return g * (grad_q - q(z) * z / w2)

    def hessian(x):
        z = np.asarray(x, dtype=float) - c
        g = np.exp(-0.5 * (z @ z) / w2)
        qv = q(z)
        grad_q = lin_v + 2.0 * quad_m @ z
        term = 2.0 * quad_m - (np.outer(grad_q, z) + np.outer(z, grad_q) + qv * np.eye(p)) / w2
        return g * (term + qv * np.outer(z, z) / w2**2)

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


@dataclass(frozen=True)
class GeneratorTerms:
    """Pointwise generator data: effective drift, diffusion matrix, and
    the pushforward jump atoms (rate, state-space location)."""

    point: np.ndarray
    beta: np.ndarray
    diffusion: np.ndarray
    atoms: tuple[tuple[float, np.ndarray], ...]
    trunc_radius_driver: float
    trunc_radius_state: float

    @property
    def total_jump_rate(self) -> float:
        return float(sum(rate for rate, _ in self.atoms))


def compute_terms(system: SdeSystem, x: np.ndarray, r_state: float = 1.0) -> GeneratorTerms:
    """State-side generator data at one point.

    The drift absorbs, per atom, the difference between compensating in
    state space (image inside the radius-``r_state`` ball) and in driver
    space (atom inside the truncation ball).
    """
    if not r_state > 0:
        raise ValueError("state truncation radius must be positive")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    a = system.coeff(x)
    trip = system.driver
    beta = a @ trip.alpha
    atoms = []
    for atom in trip.jumps:
        image = a @ atom.location
        in_driver_ball = np.linalg.norm(atom.location) <= trip.trunc_radius
        in_state_ball = np.linalg.norm(image) <= r_state
        beta = beta + atom.rate * (float(in_state_ball) - float(in_driver_ball)) * image
        atoms.append((atom.rate, image))
    diffusion = a @ trip.cov @ a.T
    return GeneratorTerms(
        point=x,
        beta=beta,
        diffusion=0.5 * (diffusion + diffusion.T),
        atoms=tuple(atoms),
        trunc_radius_driver=trip.trunc_radius,
        trunc_radius_state=float(r_state),
    )


def apply_generator(
    system: SdeSystem,
    f: ScalarField2,
    x: np.ndarray,
    form: str = "driver",
    r_state: float = 1.0,
) -> float:
    """Evaluate the generator of the system on a test function at a point.

    ``form="driver"`` integrates jump terms against the driver atoms with
    driver-space truncation; ``form="state"`` uses the pushforward atoms
    with state-space truncation and the correspondingly shifted drift.
    Both are exact finite sums and agree up to rounding.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(x)):
        raise ValueError("x must be finite")
    grad = f.grad(x)
    hess = f.hess(x)
    trip = system.driver
    a = system.coeff(x)
    if form == "driver":
        value = float(grad @ (a @ trip.alpha))
        value += 0.5 * float(np.einsum("ij,ij->", a @ trip.cov @ a.T, hess))
        f0 = float(f(x))
        for atom in trip.jumps:
            jump = a @ atom.location
            term = float(f(x + jump)) - f0
            if np.linalg.norm(atom.location) <= trip.trunc_radius:
                term -= float(grad @ jump)
            value += atom.rate * term
        return value
    if form == "state":
        terms = compute_terms(system, x, r_state=r_state)
        value = float(grad @ terms.beta)
        value += 0.5 * float(np.einsum("ij,ij->", terms.diffusion, hess))
        f0 = float(f(x))
        for rate, jump in terms.atoms:
            term = float(f(x + jump)) - f0
            if np.linalg.norm(jump) <= terms.trunc_radius_state:
                term -= float(grad @ jump)
            value += rate * term
        return value
    raise ValueError("form must be 'driver' or 'state'")


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
    consumes.
    """
    if sys_a.p != sys_b.p:
        raise ValueError("dimension mismatch")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if fields is None:
        fields = bump_field_battery(sys_a.p)
    per_point = []
    max_value_diff = 0.0
    for x in pts:
        ta = compute_terms(sys_a, x, r_state)
        tb = compute_terms(sys_b, x, r_state)
        beta_dist = float(np.linalg.norm(ta.beta - tb.beta))
        diff_dist = float(np.linalg.norm(ta.diffusion - tb.diffusion))
        jump_dist = _match_atoms(ta.atoms, tb.atoms)
        value_diff = 0.0
        for f in fields:
            va = apply_generator(sys_a, f, x, form="driver")
            vb = apply_generator(sys_b, f, x, form="driver")
            value_diff = max(value_diff, abs(va - vb))
        max_value_diff = max(max_value_diff, value_diff)
        per_point.append(
            {
                "point": [float(v) for v in x],
                "beta_distance": beta_dist,
                "diffusion_distance": diff_dist,
                "jump_distance": jump_dist,
                "max_value_difference": value_diff,
            }
        )
    max_beta = max(e["beta_distance"] for e in per_point)
    max_diffusion = max(e["diffusion_distance"] for e in per_point)
    max_jump = max(e["jump_distance"] for e in per_point)
    return {
        "max_value_difference": float(max_value_diff),
        "max_beta_distance": float(max_beta),
        "max_diffusion_distance": float(max_diffusion),
        "max_jump_distance": float(max_jump),
        "structurally_equal": bool(max(max_beta, max_diffusion, max_jump) <= tol),
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

    def __iter__(self):
        return iter((self.estimate, self.std_error))


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
    x = np.atleast_1d(np.asarray(x, dtype=float))
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
        raise ValueError("all paths exploded; no estimate")
    mean = total / n_ok
    var = (total_sq - n_ok * (mean * mean)) / (n_ok - 1)  # float ** 2 raises on overflow
    estimate = (mean - float(f(x))) / t
    std_error = float(np.sqrt(max(0.0, var) / n_ok)) / t if np.isfinite(var) else float("inf")
    return SemigroupEstimate(float(estimate), std_error, n_bad)
