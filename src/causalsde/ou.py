"""Ornstein-Uhlenbeck systems: closed-form transitions and interventions.

An OU model is ``dX = B (X - A) dt + sigma dW``.  Holding one coordinate at
a constant level leaves another OU model of one dimension less, with the
reduced reversion matrix and a level shifted by the held coordinate's
pull.  Gaussian transition laws come from the matrix exponential and a
Van Loan block integral; both are exact up to matrix-exponential error,
so they serve as oracles for Euler simulations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .driver import _readonly
from .system import InitialLaw, SdeSystem, affine_field, canonical_driver

__all__ = [
    "OuModel",
    "SingularReversionError",
    "ou_to_system",
    "ou_intervene",
    "ou_transition",
    "matrix_exp",
    "gramian",
]


class SingularReversionError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class OuModel:
    """Mean-reversion level, speed matrix, diffusion matrix and initial law."""

    level: np.ndarray        # A, shape (p,)
    reversion: np.ndarray    # B, shape (p, p)
    diffusion: np.ndarray    # sigma, shape (p, d)
    initial: InitialLaw | np.ndarray | None = None

    def __post_init__(self):
        level = _readonly(np.atleast_1d(self.level))
        rev = _readonly(np.atleast_2d(self.reversion))
        dif = _readonly(np.atleast_2d(self.diffusion))
        p = level.size
        if rev.shape != (p, p):
            raise ValueError(f"reversion must be {p}x{p}, got {rev.shape}")
        if dif.shape[0] != p:
            raise ValueError("diffusion must have one row per coordinate")
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "reversion", rev)
        object.__setattr__(self, "diffusion", dif)
        init = self.initial
        if init is None:
            init = InitialLaw(np.zeros(p))
        elif not isinstance(init, InitialLaw):
            init = InitialLaw(np.asarray(init, dtype=float))
        if init.p != p:
            raise ValueError("initial law dimension mismatch")
        object.__setattr__(self, "initial", init)

    @property
    def p(self) -> int:
        return self.level.size

    @property
    def n_wiener(self) -> int:
        return self.diffusion.shape[1]


def ou_to_system(model: OuModel, labels: tuple[str, ...] = ()) -> SdeSystem:
    """Canonical drift + diffusion system for an OU model: the affine field
    with drift ``B x - B A`` and diffusion ``sigma``.

    The dependence relation is declared from the sparsity of the reversion
    matrix (the constant diffusion adds no edges), so downstream graph
    construction sees exact zeros instead of probe estimates.
    """
    B = model.reversion
    return SdeSystem(
        coeff=affine_field(B, -B @ model.level, model.diffusion),
        driver=canonical_driver(model.n_wiener),
        initial=model.initial,
        labels=labels,
    )


def ou_intervene(model: OuModel, m: int, zeta: float) -> OuModel:
    """OU model obtained by holding coordinate ``m`` at the constant ``zeta``.

    The reduced reversion matrix (row and column m removed) must be
    invertible for the level to be defined; the new level is
    ``A^{-m} - B~^{-1} beta`` with ``beta_i = B[i, m] (zeta - A[m])``.
    """
    p = model.p
    if not 0 <= m < p:
        raise ValueError("target coordinate out of range")
    if p < 2:
        raise ValueError("intervention needs at least two coordinates")
    keep = [i for i in range(p) if i != m]
    B_red = model.reversion[np.ix_(keep, keep)]
    if np.linalg.cond(B_red) > 1e12:
        raise SingularReversionError("intervened reversion matrix singular; no OU closed form")
    beta = model.reversion[keep, m] * (float(zeta) - model.level[m])
    level = model.level[keep] - np.linalg.solve(B_red, beta)
    return OuModel(
        level=level,
        reversion=B_red,
        diffusion=model.diffusion[keep, :],
        initial=model.initial.drop_coordinate(m),
    )


def ou_transition(model: OuModel, x: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian transition law from state ``x`` over horizon ``t``: (mean, covariance).

    mean = A + exp(tB)(x - A), covariance = integral of
    exp(sB) sigma sigma' exp(sB') over [0, t].
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    B = model.reversion
    mean = model.level + matrix_exp(t * B) @ (x - model.level)
    cov = gramian(B, model.diffusion @ model.diffusion.T, t)
    return mean, cov


def matrix_exp(m: np.ndarray) -> np.ndarray:
    """Matrix exponential (scaling and squaring with degree-13 Pade)."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    if m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return scipy.linalg.expm(m)


def gramian(B: np.ndarray, Q: np.ndarray, t: float) -> np.ndarray:
    """Controllability-type integral of exp(sB) Q exp(sB') over [0, t].

    Computed from one block matrix exponential: with
    H = [[-B, Q], [0, B']], the upper-right block G of exp(tH) satisfies
    exp(tB) G = integral, read off as F22' @ G.
    """
    B = np.atleast_2d(np.asarray(B, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    p = B.shape[0]
    if Q.shape != (p, p):
        raise ValueError("Q must match B in shape")
    if np.max(np.abs(Q - Q.T)) > 1e-10 * max(1.0, float(np.max(np.abs(Q)))):
        raise ValueError("Q must be symmetric")
    if t == 0.0:
        return np.zeros((p, p))
    H = np.zeros((2 * p, 2 * p))
    H[:p, :p] = -B
    H[:p, p:] = Q
    H[p:, p:] = B.T
    E = matrix_exp(t * H)
    G = E[:p, p:]
    F22 = E[p:, p:]
    W = F22.T @ G
    return 0.5 * (W + W.T)
