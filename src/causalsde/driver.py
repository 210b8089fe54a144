"""Driving Levy processes described by their characteristic triplet.

A driver is a d-dimensional Levy process with law determined by a drift
vector, a Gaussian covariance rate and a finite list of jump atoms, all
stated relative to a truncation ball of radius ``trunc_radius`` (the set
inside which small jumps are compensated).  Restricting the jump measure
to finitely many atoms keeps both simulation and generator integrals
exact: increments are drift + Gaussian + compound Poisson, with the drift
corrected by the rate mass of atoms inside the truncation ball.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

_GROUP_VALUES = 1 << 15  # per row group in assemble_increments: temporaries stay in cache

__all__ = [
    "JumpAtom",
    "LevyTriplet",
    "check_covariance",
    "psd_factor",
    "characteristic_function",
    "sample_increments",
    "jump_counts",
    "assemble_increments",
    "empirical_cf",
    "default_u_grid",
]


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class JumpAtom:
    """One atom of the jump measure: events of size ``location`` at ``rate`` per unit time."""

    rate: float
    location: np.ndarray

    def __post_init__(self):
        loc = _readonly(np.atleast_1d(self.location))
        object.__setattr__(self, "location", loc)
        object.__setattr__(self, "rate", float(self.rate))
        if not np.isfinite(self.rate) or self.rate <= 0.0:
            raise ValueError(f"jump rate must be positive and finite, got {self.rate}")
        if not np.all(np.isfinite(loc)) or np.linalg.norm(loc) == 0.0:
            raise ValueError("jump location must be finite and nonzero")


@dataclass(frozen=True, eq=False)
class LevyTriplet:
    """Characteristic triplet (drift rate, Gaussian covariance rate, jump atoms).

    The truncation set is the closed ball of radius ``trunc_radius``; atoms
    inside it are compensated.  Changing the radius changes the reported
    drift of the same law, never the law itself.
    """

    dim: int
    alpha: np.ndarray
    cov: np.ndarray
    jumps: tuple[JumpAtom, ...] = field(default_factory=tuple)
    trunc_radius: float = 1.0

    def __post_init__(self):
        d = int(self.dim)
        if d < 1:
            raise ValueError("dim must be a positive integer")
        object.__setattr__(self, "dim", d)
        alpha = _readonly(np.broadcast_to(np.atleast_1d(self.alpha), (d,)))
        cov_in = np.asarray(self.cov, dtype=float)
        if cov_in.ndim == 0:
            cov_in = float(cov_in) * np.eye(d)
        elif cov_in.ndim == 1:
            cov_in = np.diag(cov_in)
        cov = _readonly(cov_in)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "jumps", tuple(self.jumps))
        object.__setattr__(self, "trunc_radius", float(self.trunc_radius))
        if not np.all(np.isfinite(alpha)):
            raise ValueError("alpha must be finite")
        if cov.shape != (d, d):
            raise ValueError(f"cov must be {d}x{d}, got {cov.shape}")
        check_covariance(cov, "cov")
        for atom in self.jumps:
            if atom.location.shape != (d,):
                raise ValueError("jump atom dimension mismatch")
        if not (self.trunc_radius > 0.0):
            raise ValueError("trunc_radius must be positive")

    @cached_property
    def gauss_factor(self) -> np.ndarray:
        """Matrix L with L @ L.T equal to the Gaussian covariance rate."""
        return psd_factor(self.cov)

    @cached_property
    def rank(self) -> int:
        """Number of nonzero columns of ``gauss_factor`` (sorted first): the
        normals one increment needs."""
        return int(np.count_nonzero(np.any(self.gauss_factor != 0.0, axis=0)))

    @cached_property
    def jump_rates(self) -> np.ndarray:
        return np.array([a.rate for a in self.jumps], dtype=float)

    @cached_property
    def jump_locations(self) -> np.ndarray:
        if not self.jumps:
            return np.zeros((0, self.dim))
        return np.array([a.location for a in self.jumps], dtype=float)

    @cached_property
    def compensated_drift(self) -> np.ndarray:
        """Drift rate with the compensation of atoms inside the truncation ball removed."""
        drift = np.array(self.alpha, dtype=float)
        for atom in self.jumps:
            if np.linalg.norm(atom.location) <= self.trunc_radius:
                drift -= atom.rate * atom.location
        return drift

    def same_law(self, other: "LevyTriplet") -> bool:
        """Bit-identical triplet comparison (not law equality across truncation radii)."""
        return (
            self.dim == other.dim
            and np.array_equal(self.alpha, other.alpha)
            and np.array_equal(self.cov, other.cov)
            and self.trunc_radius == other.trunc_radius
            and len(self.jumps) == len(other.jumps)
            and all(
                a.rate == b.rate and np.array_equal(a.location, b.location)
                for a, b in zip(self.jumps, other.jumps)
            )
        )


def check_covariance(cov: np.ndarray, name: str) -> None:
    """Reject a square matrix that is not finite, not symmetric within 1e-12
    (relative to its largest entry, at least 1) or not positive semidefinite."""
    if not np.all(np.isfinite(cov)):
        raise ValueError(f"{name} must be finite")
    scale = max(1.0, float(np.max(np.abs(cov))) if cov.size else 0.0)
    if float(np.max(np.abs(cov - cov.T))) > 1e-12 * scale:
        raise ValueError(f"{name} must be symmetric within 1e-12")
    psd_factor(cov)


def psd_factor(cov: np.ndarray) -> np.ndarray:
    """Factor a symmetric positive-semidefinite matrix as L @ L.T.

    Uses a symmetric eigendecomposition so rank-deficient inputs (for
    example a deterministic time coordinate) are handled; eigenvalues in
    ``[-1e-10 * norm, 0)`` are clipped to zero.  Columns are ordered by
    descending eigenvalue with the first nonzero component of each column
    made nonnegative, which pins an otherwise arbitrary sign convention.
    """
    c = np.atleast_2d(np.asarray(cov, dtype=float))
    if c.shape[0] != c.shape[1]:
        raise ValueError("cov must be square")
    c = 0.5 * (c + c.T)
    w, v = np.linalg.eigh(c)
    scale = float(np.max(np.abs(w))) if w.size else 0.0
    tol = 1e-10 * max(scale, np.finfo(float).tiny)
    if np.min(w) < -tol:
        raise ValueError("not positive semidefinite")
    w = np.clip(w, 0.0, None)
    order = np.argsort(-w, kind="stable")
    w, v = w[order], v[:, order]
    for j in range(v.shape[1]):
        nz = np.nonzero(v[:, j])[0]
        if nz.size and v[nz[0], j] < 0:
            v[:, j] = -v[:, j]
    return v * np.sqrt(w)


def characteristic_function(triplet: LevyTriplet, u: np.ndarray, t: float) -> complex | np.ndarray:
    """Characteristic function of the driver increment over a window of length t.

    Accepts a single frequency vector of shape (d,) or a stack (..., d).
    """
    u = np.asarray(u, dtype=float)
    single = u.ndim == 1
    uu = np.atleast_2d(u)
    if uu.shape[-1] != triplet.dim:
        raise ValueError("frequency dimension mismatch")
    exponent = 1j * (uu @ triplet.alpha)
    exponent -= 0.5 * np.einsum("...i,ij,...j->...", uu, triplet.cov, uu)
    for atom in triplet.jumps:
        phase = uu @ atom.location
        term = np.exp(1j * phase) - 1.0
        if np.linalg.norm(atom.location) <= triplet.trunc_radius:
            term = term - 1j * phase
        exponent = exponent + atom.rate * term
    out = np.exp(float(t) * exponent)
    return complex(out[0]) if single else out


def sample_increments(
    triplet: LevyTriplet,
    delta: float,
    size: int | tuple[int, ...],
    stream: np.random.Generator,
) -> np.ndarray:
    """Draw a block of independent increments, shape ``size + (d,)``.

    The stream gives all ``rank`` normals first, then the jump counts of
    :func:`jump_counts` with the last axis of ``size`` as the steps, so a
    block is not element-for-element identical to repeated single draws
    from the same stream (the laws agree; only stream consumption differs).
    """
    if not delta > 0.0:
        raise ValueError("delta must be positive")
    shape = (size,) if np.isscalar(size) else tuple(size)
    z = stream.standard_normal(shape + (triplet.rank,))
    counts = None
    if triplet.jumps:
        lead = int(np.prod(shape[:-1], dtype=np.int64))
        counts = jump_counts(triplet, delta, shape[-1], lead, stream).reshape(shape + (-1,))
    out = z if triplet.rank == triplet.dim else np.empty(shape + (triplet.dim,))
    return assemble_increments(triplet, delta, z, counts, out)


def jump_counts(
    triplet: LevyTriplet, delta: float, n_steps: int, n: int, stream: np.random.Generator
) -> np.ndarray:
    """Per-step, per-atom jump counts, shape (n, n_steps, J).

    Each of the n rows draws one Poisson total of rate ``sum(rates) * delta
    * n_steps``; then every event gets a uniform step and atom j with
    probability ``rate_j / sum(rates)``.  By the conditional uniformity of
    Poisson arrivals the counts are independent Poisson(``rate_j * delta``),
    as per-step draws would be, for one Poisson call per row.
    """
    rates = triplet.jump_rates
    n_jumps, total = len(rates), float(rates.sum())
    events = stream.poisson(total * delta * n_steps, n)
    n_events = int(events.sum())
    if not n_events:
        return np.zeros((n, n_steps, n_jumps), dtype=np.int64)
    cell = stream.integers(0, n_steps, n_events) * n_jumps
    if n_jumps > 1:
        cdf = np.cumsum(rates) / total
        cdf[-1] = 1.0
        cell += np.searchsorted(cdf, stream.random(n_events), side="right")
    cell += np.repeat(np.arange(n) * (n_steps * n_jumps), events)
    return np.bincount(cell, minlength=n * n_steps * n_jumps).reshape(n, n_steps, n_jumps)


def assemble_increments(triplet: LevyTriplet, delta: float, z, counts, out) -> np.ndarray:
    """Write ``delta * drift + sqrt(delta) * z @ L[:, :rank].T [+ counts @ jumps]``
    into ``out``, where ``z`` holds ``rank`` normals per increment.

    Works through the leading axis in row groups of about ``_GROUP_VALUES``
    values; a group's product is computed before it is written, and it
    reads only its own rows of ``z``, so ``z`` may be a view into the
    leading values of ``out``'s rows.  A stacked group is multiplied one
    matrix per leading row, bit-identical to assembling each row alone.
    """
    drift, root = delta * triplet.compensated_drift, np.sqrt(delta)
    factor_t = triplet.gauss_factor[:, : triplet.rank].T
    rows = max(1, _GROUP_VALUES // max(1, out[:1].size))
    for r0 in range(0, len(out), rows):
        group = slice(r0, r0 + rows)
        inc = z[group] @ factor_t
        inc *= root
        inc += drift
        if counts is not None:
            inc += counts[group] @ triplet.jump_locations
        out[group] = inc
    return out


def empirical_cf(samples: np.ndarray, u_grid: np.ndarray) -> np.ndarray:
    """Empirical characteristic function of d-dimensional samples on a frequency grid."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    u_grid = np.atleast_2d(np.asarray(u_grid, dtype=float))
    return np.exp(1j * (samples @ u_grid.T)).mean(axis=0)


def default_u_grid(dim: int, n_points: int = 20, radius: float = 3.0) -> np.ndarray:
    """Deterministic frequency grid used in characteristic-function checks.

    Magnitudes are evenly spaced in (0, radius] and directions cycle over
    the coordinate axes plus the main diagonal, with alternating sign.
    """
    dirs = np.vstack([np.eye(dim), np.ones((1, dim)) / np.sqrt(dim)])
    mags = np.linspace(radius / n_points, radius, n_points)
    grid = np.empty((n_points, dim))
    for k in range(n_points):
        sign = -1.0 if (k // len(dirs)) % 2 else 1.0
        grid[k] = sign * mags[k] * dirs[k % len(dirs)]
    return grid
