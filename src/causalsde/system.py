"""SDE systems: coefficient fields, drivers, initial laws and signatures.

A system is ``dX_t = a(X_{t-}) dZ_t`` for a p-dimensional state, a
coefficient field ``a`` mapping states to p x d matrices, and a
d-dimensional Levy driver.  Systems written in drift + diffusion form are
encoded canonically against a (d+1)-dimensional driver whose first
coordinate is deterministic time (drift column 0, Wiener columns 1..d).

The signature is the directed graph over coordinates with an edge i -> j
whenever some entry of row j depends on coordinate i.  It is determined
by probing the field at quasi-uniform points; a declared dependence
relation, when present, is trusted for downstream construction but is
checked to contain the probed relation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
from scipy.stats import qmc

from .driver import LevyTriplet, check_covariance, psd_factor
from .expr import Expression, parse_expression

__all__ = [
    "CoefficientField",
    "SdeSystem",
    "SignatureGraph",
    "InitialLaw",
    "CoefficientOverflowError",
    "SignatureMismatchError",
    "evaluate_coeff",
    "probe_signature",
    "probe_points",
    "is_locally_unaffected",
    "build_chem_system",
    "canonical_driver",
    "constant_field",
    "field_from_callable",
    "field_from_expressions",
    "drift_diffusion_field",
]


class CoefficientOverflowError(ValueError):
    pass


class SignatureMismatchError(ValueError):
    """Probed dependence found an edge outside the declared relation."""


@dataclass(frozen=True)
class SignatureGraph:
    """Directed dependence graph over coordinates; self-loops and cycles allowed."""

    n_vertices: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        object.__setattr__(self, "edges", frozenset((int(i), int(j)) for i, j in self.edges))
        for i, j in self.edges:
            if not (0 <= i < self.n_vertices and 0 <= j < self.n_vertices):
                raise ValueError(f"edge ({i}, {j}) references an invalid vertex")

    def has_edge(self, i: int, j: int) -> bool:
        return (i, j) in self.edges

    def edge_list(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def to_dot(self, labels: tuple[str, ...] | None = None) -> str:
        names = labels or tuple(f"x{k + 1}" for k in range(self.n_vertices))
        lines = ["digraph signature {"]
        for k in range(self.n_vertices):
            lines.append(f'  "{names[k]}";')
        for i, j in self.edge_list():
            lines.append(f'  "{names[i]}" -> "{names[j]}";')
        lines.append("}")
        return "\n".join(lines)


def is_locally_unaffected(signature: SignatureGraph, i: int, j: int) -> bool:
    """True when coordinate j is locally unaffected by coordinate i (no edge i -> j)."""
    if not (0 <= i < signature.n_vertices and 0 <= j < signature.n_vertices):
        raise ValueError("vertex index out of range")
    return not signature.has_edge(i, j)


@dataclass(frozen=True)
class InitialLaw:
    """Initial state: a fixed point or a Gaussian law."""

    mean: np.ndarray
    cov: np.ndarray | None = None  # None means the fixed point `mean`

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        object.__setattr__(self, "mean", mean)
        if not np.all(np.isfinite(mean)):
            raise ValueError("initial mean must be finite")
        if self.cov is not None:
            cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
            if cov.shape != (mean.size, mean.size):
                raise ValueError("initial covariance shape mismatch")
            check_covariance(cov, "initial covariance")
            object.__setattr__(self, "cov", cov)

    @property
    def p(self) -> int:
        return self.mean.size

    @property
    def is_fixed(self) -> bool:
        return self.cov is None

    @cached_property
    def _factor(self) -> np.ndarray:
        return psd_factor(self.cov)

    def sample(self, stream: np.random.Generator, n: int) -> np.ndarray:
        if self.is_fixed:
            return np.broadcast_to(self.mean, (n, self.p)).copy()
        z = stream.standard_normal((n, self.p))
        return self.mean + z @ self._factor.T

    def drop_coordinate(self, m: int) -> "InitialLaw":
        mean = np.delete(self.mean, m)
        cov = None if self.cov is None else np.delete(np.delete(self.cov, m, 0), m, 1)
        return InitialLaw(mean, cov)

    def fix_coordinate(self, m: int, value: float) -> "InitialLaw":
        mean = self.mean.copy()
        mean[m] = value
        if self.cov is None:
            return InitialLaw(mean)
        cov = self.cov.copy()
        cov[m, :] = 0.0
        cov[:, m] = 0.0
        return InitialLaw(mean, cov)


@dataclass(frozen=True)
class CoefficientField:
    """Pure mapping from states in R^p to p x d coefficient matrices.

    ``func`` evaluates one state; ``batch_func`` evaluates a stack of states
    in one call and must agree with ``func`` elementwise.  At least one is
    required; a missing ``func`` is derived from ``batch_func``.
    ``declared_dependence[i, j]`` means some entry of row j may depend on
    coordinate i.  ``singular_points`` lists isolated states (for example a
    non-differentiable origin) excluded from dependence probing, and
    ``probe_box`` overrides the default probing box.
    """

    p: int
    d: int
    func: Callable[[np.ndarray], np.ndarray] | None = None
    batch_func: Callable[[np.ndarray], np.ndarray] | None = None
    declared_dependence: np.ndarray | None = None
    singular_points: tuple = ()
    probe_box: tuple = ()
    source: str = "closure"
    validator: Callable[[np.ndarray], None] | None = None

    def __post_init__(self):
        if self.func is None:
            if self.batch_func is None:
                raise ValueError("a coefficient field needs func or batch_func")
            batch_func = self.batch_func
            object.__setattr__(self, "func", lambda x: batch_func(x[None, :])[0])
        if self.declared_dependence is not None:
            dep = np.asarray(self.declared_dependence, dtype=bool)
            if dep.shape != (self.p, self.p):
                raise ValueError("declared_dependence must be p x p")
            object.__setattr__(self, "declared_dependence", dep)
        pts = tuple(np.atleast_1d(np.asarray(s, dtype=float)) for s in self.singular_points)
        object.__setattr__(self, "singular_points", pts)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        with np.errstate(all="ignore"):
            out = np.asarray(self.func(np.asarray(x, dtype=float)), dtype=float)
        if out.shape != (self.p, self.d):
            raise ValueError(f"coefficient field returned shape {out.shape}, expected {(self.p, self.d)}")
        return out

    def eval_batch(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.p:
            raise ValueError(f"expected states of shape (n, {self.p})")
        with np.errstate(all="ignore"):
            if self.batch_func is not None:
                out = np.asarray(self.batch_func(xs), dtype=float)
            else:
                out = np.stack([np.asarray(self.func(x), dtype=float) for x in xs])
        if out.shape != (xs.shape[0], self.p, self.d):
            raise ValueError("batch coefficient evaluation returned a bad shape")
        return out

    def default_probe_box(self) -> np.ndarray:
        if self.probe_box:
            box = np.asarray(self.probe_box, dtype=float)
            if box.shape != (self.p, 2):
                raise ValueError("probe_box must give (low, high) per coordinate")
            return box
        return np.tile(np.array([[-5.0, 5.0]]), (self.p, 1))


def constant_field(matrix: np.ndarray) -> CoefficientField:
    m = np.atleast_2d(np.asarray(matrix, dtype=float))
    p, d = m.shape
    dep = np.zeros((p, p), dtype=bool)
    return CoefficientField(
        p=p,
        d=d,
        func=lambda x: m,
        batch_func=lambda xs: np.broadcast_to(m, (xs.shape[0], p, d)).copy(),
        declared_dependence=dep,
        source="constant",
    )


def field_from_callable(
    p: int,
    d: int,
    func: Callable[[np.ndarray], np.ndarray] | None = None,
    batch_func: Callable[[np.ndarray], np.ndarray] | None = None,
    **meta,
) -> CoefficientField:
    return CoefficientField(p=p, d=d, func=func, batch_func=batch_func, **meta)


def field_from_expressions(rows: list[list[str | Expression]], p: int | None = None) -> CoefficientField:
    """Field whose entries are expressions in the coordinates x1..xp.

    The state dimension defaults to the number of rows; pass ``p``
    explicitly when entries reference further coordinates.
    """
    parsed = [[e if isinstance(e, Expression) else parse_expression(e) for e in row] for row in rows]
    n_rows = len(parsed)
    if n_rows == 0 or any(len(r) != len(parsed[0]) for r in parsed):
        raise ValueError("expression matrix must be rectangular and nonempty")
    d = len(parsed[0])
    used = {v for row in parsed for e in row for v in e.variables}
    p_eff = n_rows if p is None else int(p)
    if n_rows != p_eff:
        raise ValueError("coefficient matrix must have one row per coordinate")
    if used and max(used) >= p_eff:
        raise ValueError(f"expressions reference x{max(used) + 1} but p={p_eff}")
    dep = np.zeros((p_eff, p_eff), dtype=bool)
    for j, row in enumerate(parsed):
        for e in row:
            for v in e.variables:
                dep[v, j] = True

    def batch(xs: np.ndarray) -> np.ndarray:
        out = np.empty((xs.shape[0], n_rows, d))
        for j, row in enumerate(parsed):
            for k, e in enumerate(row):
                out[:, j, k] = e(xs)
        return out

    return CoefficientField(
        p=p_eff,
        d=d,
        batch_func=batch,
        declared_dependence=dep,
        source="expression",
    )


def canonical_driver(n_wiener: int) -> LevyTriplet:
    """Driver for drift + diffusion systems: deterministic time plus n Wiener coordinates."""
    d = n_wiener + 1
    alpha = np.zeros(d)
    alpha[0] = 1.0
    cov = np.eye(d)
    cov[0, 0] = 0.0
    return LevyTriplet(dim=d, alpha=alpha, cov=cov)


def drift_diffusion_field(
    p: int,
    n_wiener: int,
    drift_batch: Callable[[np.ndarray], np.ndarray],
    diffusion_batch: Callable[[np.ndarray], np.ndarray],
    **meta,
) -> CoefficientField:
    """Canonical encoding of ``dX = drift(X) dt + diffusion(X) dW``.

    Column 0 of the coefficient matrix carries the drift (against the
    deterministic time coordinate of :func:`canonical_driver`), columns
    1..n the diffusion.
    """

    def batch(xs: np.ndarray) -> np.ndarray:
        out = np.empty((xs.shape[0], p, n_wiener + 1))
        out[:, :, 0] = drift_batch(xs)
        out[:, :, 1:] = diffusion_batch(xs)
        return out

    return CoefficientField(
        p=p,
        d=n_wiener + 1,
        batch_func=batch,
        **meta,
    )


@dataclass(frozen=True)
class SdeSystem:
    """Coefficient field + driving Levy process + initial law."""

    coeff: CoefficientField
    driver: LevyTriplet
    initial: InitialLaw
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        if self.coeff.d != self.driver.dim:
            raise ValueError(
                f"coefficient field expects a {self.coeff.d}-dimensional driver, got {self.driver.dim}"
            )
        if isinstance(self.initial, (list, tuple, np.ndarray)):
            object.__setattr__(self, "initial", InitialLaw(np.asarray(self.initial, dtype=float)))
        if self.initial.p != self.coeff.p:
            raise ValueError("initial law dimension mismatch")
        labels = tuple(self.labels) or tuple(f"x{k + 1}" for k in range(self.coeff.p))
        if len(labels) != self.coeff.p or len(set(labels)) != len(labels):
            raise ValueError("labels must be distinct, one per coordinate")
        object.__setattr__(self, "labels", labels)

    @property
    def p(self) -> int:
        return self.coeff.p

    @property
    def d(self) -> int:
        return self.coeff.d

    def signature(self, **probe_kwargs) -> SignatureGraph:
        """Declared signature when available, otherwise the probed one."""
        dep = self.coeff.declared_dependence
        if dep is not None:
            edges = frozenset(
                (i, j) for i in range(self.p) for j in range(self.p) if dep[i, j]
            )
            return SignatureGraph(self.p, edges)
        return probe_signature(self, **probe_kwargs)

    def label_index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown coordinate label {label!r}") from None


def evaluate_coeff(system: SdeSystem, x: np.ndarray) -> np.ndarray:
    """Evaluate the coefficient matrix at one state, rejecting non-finite output."""
    x = np.asarray(x, dtype=float)
    if x.shape != (system.p,):
        raise ValueError(f"state must have shape ({system.p},)")
    if system.coeff.validator is not None:
        system.coeff.validator(x)
    out = system.coeff(x)
    if not np.all(np.isfinite(out)):
        raise CoefficientOverflowError(f"coefficient overflow at x={x.tolist()}")
    return out


def _sobol_points(n_points: int, box: np.ndarray) -> np.ndarray:
    p = box.shape[0]
    m = max(1, int(np.ceil(np.log2(max(n_points, 2)))))
    sampler = qmc.Sobol(d=p, scramble=False)
    unit = sampler.random_base2(m=m)[:n_points]
    return box[:, 0] + unit * (box[:, 1] - box[:, 0])


def probe_points(
    field: CoefficientField,
    n_points: int,
    box: np.ndarray | None = None,
    clearance: float = 1e-3,
) -> np.ndarray:
    """Quasi-uniform probe states in the field's box, keeping clear of
    declared singular points."""
    return _probe_grid(field, n_points, box, [0.0], clearance)


def _probe_grid(field: CoefficientField, n_points: int, box, shifts, clearance: float) -> np.ndarray:
    """Sobol points of the box whose every shifted copy ``pts + shift``
    stays more than ``clearance`` away from each declared singular point."""
    box_arr = field.default_probe_box() if box is None else np.asarray(box, dtype=float)
    pts = _sobol_points(n_points, box_arr)
    keep = np.ones(len(pts), dtype=bool)
    for s in field.singular_points:
        for shift in shifts:
            keep &= np.linalg.norm(pts + shift - s, axis=1) > clearance
    pts = pts[keep]
    if len(pts) == 0:
        raise ValueError("no probe points left after excluding singular neighborhoods")
    return pts


def probe_signature(
    system: SdeSystem,
    n_points: int = 256,
    perturbation: float = 1e-3,
    tol: float = 1e-9,
    box: np.ndarray | None = None,
) -> SignatureGraph:
    """Determine the dependence graph of the coefficient field by probing.

    Edge i -> j is reported when perturbing coordinate i changes some entry
    of row j by more than ``tol`` at one of the sampled points.  Points
    within 1e-3 of a declared singular state (before or after perturbation)
    are skipped.  When a declared dependence relation exists, the probed
    relation must be contained in it.
    """
    if n_points < 1:
        raise ValueError("n_points must be at least 1")
    if not perturbation > 0:
        raise ValueError("perturbation must be positive")
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    field = system.coeff
    p = field.p
    shifts = [0.0] + [perturbation * np.eye(p)[i] for i in range(p)]
    pts = _probe_grid(field, n_points, box, shifts, 1e-3)
    base = field.eval_batch(pts)
    if not np.all(np.isfinite(base)):
        bad = pts[~np.isfinite(base).all(axis=(1, 2))][0]
        raise CoefficientOverflowError(f"coefficient overflow at x={bad.tolist()}")
    edges = set()
    for i in range(p):
        shifted = field.eval_batch(pts + perturbation * np.eye(p)[i])
        if not np.all(np.isfinite(shifted)):
            bad = pts[~np.isfinite(shifted).all(axis=(1, 2))][0]
            raise CoefficientOverflowError(f"coefficient overflow at x={bad.tolist()}")
        delta = np.abs(shifted - base).max(axis=(0, 2))  # per row j
        for j in range(p):
            if delta[j] > tol:
                edges.add((i, j))
    if field.declared_dependence is not None:
        extra = [e for e in edges if not field.declared_dependence[e[0], e[1]]]
        if extra:
            raise SignatureMismatchError(
                f"probed dependence edges {sorted(extra)} are outside the declared relation"
            )
    return SignatureGraph(p, frozenset(edges))


def build_chem_system(
    stoichiometry: np.ndarray,
    rates: list[str | Expression],
    x0: np.ndarray,
    labels: tuple[str, ...] = (),
) -> SdeSystem:
    """Langevin system of a reaction network from its stoichiometric matrix.

    ``stoichiometry`` is p x R (species by reactions) and ``rates`` gives
    one nonnegative rate expression per reaction in the species
    concentrations x1..xp.  The system has drift ``S @ rates(x)`` and
    diffusion ``S @ diag(sqrt(rates(x)))`` against R Wiener coordinates in
    the canonical encoding.  A negative rate is a domain error: direct
    evaluation reports it, and during simulation the square root makes the
    path explode.
    """
    S = np.atleast_2d(np.asarray(stoichiometry, dtype=float))
    p, n_react = S.shape
    exprs = [r if isinstance(r, Expression) else parse_expression(r) for r in rates]
    if len(exprs) != n_react:
        raise ValueError("need one rate expression per reaction column")
    used = {v for e in exprs for v in e.variables}
    if used and max(used) >= p:
        raise ValueError(f"rate expressions reference x{max(used) + 1} but there are {p} species")

    def rates_batch(xs: np.ndarray) -> np.ndarray:
        lam = np.empty((xs.shape[0], n_react))
        for k, e in enumerate(exprs):
            lam[:, k] = e(xs)
        return lam

    def drift(xs: np.ndarray) -> np.ndarray:
        return rates_batch(xs) @ S.T

    def diffusion(xs: np.ndarray) -> np.ndarray:
        return np.sqrt(rates_batch(xs))[:, None, :] * S[None, :, :]

    def validate(x: np.ndarray) -> None:
        lam = rates_batch(x[None, :])[0]
        if np.any(lam < 0):
            raise ValueError(f"rate negative at x={x.tolist()}")

    # dependence: row j of drift/diffusion involves every rate with S[j, k] != 0
    dep = np.zeros((p, p), dtype=bool)
    for j in range(p):
        for k in range(n_react):
            if S[j, k] != 0.0:
                for v in exprs[k].variables:
                    dep[v, j] = True

    field = drift_diffusion_field(
        p,
        n_react,
        drift,
        diffusion,
        declared_dependence=dep,
        probe_box=tuple((1e-3, 5.0) for _ in range(p)),
        source="chem",
        validator=validate,
    )
    return SdeSystem(
        coeff=field,
        driver=canonical_driver(n_react),
        initial=InitialLaw(np.asarray(x0, dtype=float)),
        labels=labels,
    )
