"""Interventions on SDE systems, structural equation models and update maps.

Holding coordinate m at ``zeta(X^{-m})`` turns a p-dimensional system into
the (p-1)-dimensional one whose coefficients are the original rows (minus
row m) evaluated with ``zeta`` substituted into slot m.  The same
substitution principle applies to structural equation models (rewiring
target vertices) and to Markov update maps.  Only the state equations are
touched: the driving noise is never a legal target.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Any, Callable, Hashable, Mapping

import numpy as np

from .expr import Expression, parse_expression
from .system import CoefficientField, SdeSystem, canonical_driver, drift_diffusion_field

__all__ = [
    "InterventionSpec",
    "SemVertex",
    "SemModel",
    "NotDagError",
    "IntegratorInterventionError",
    "intervene_sde",
    "embed_constant_intervention",
    "full_process_lift",
    "intervene_sem",
    "intervene_update",
]


class NotDagError(ValueError):
    pass


class IntegratorInterventionError(ValueError):
    pass


@dataclass(frozen=True)
class InterventionSpec:
    """Target coordinate index plus the held value (constant or map of the rest).

    A non-constant value is a map of the reduced state vector: an
    :class:`Expression` over x1..x(p-1) indexing the remaining coordinates
    in their original order, or an equivalent callable.  An expression
    without variables is folded to its constant.  Time-dependent values
    are not expressible, by construction.
    """

    target: int
    value: float | str | Expression | Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        object.__setattr__(self, "target", int(self.target))
        if self.target < 0:
            raise ValueError("target coordinate must be nonnegative")
        v = self.value
        if isinstance(v, str):
            v = parse_expression(v)
        if isinstance(v, Expression) and not v.variables:
            v = float(v(np.zeros(0)))
        if isinstance(v, (int, float, np.floating, np.integer)):
            v = float(v)
            if not np.isfinite(v):
                raise ValueError(f"held constant must be finite, got {v}")
        elif not isinstance(v, Expression) and not callable(v):
            raise TypeError("value must be a constant, expression, or callable")
        object.__setattr__(self, "value", v)

    @property
    def is_constant(self) -> bool:
        return isinstance(self.value, float)

    def constant(self) -> float:
        if not self.is_constant:
            raise ValueError("intervention value is not constant")
        return self.value

    def apply(self, reduced: np.ndarray) -> np.ndarray:
        """Evaluate the held value on reduced states of shape (..., p-1)."""
        reduced = np.asarray(reduced, dtype=float)
        if self.is_constant:
            return np.full(reduced.shape[:-1], self.value)
        with np.errstate(all="ignore"):
            out = self.value(reduced)
        return np.asarray(out, dtype=float)


def _insert_coordinate(reduced: np.ndarray, m: int, values: np.ndarray) -> np.ndarray:
    """Insert ``values`` as coordinate m of reduced states (..., p-1) -> (..., p)."""
    reduced = np.asarray(reduced, dtype=float)
    out = np.empty(reduced.shape[:-1] + (reduced.shape[-1] + 1,))
    out[..., :m] = reduced[..., :m]
    out[..., m] = values
    out[..., m + 1:] = reduced[..., m:]
    return out


def intervene_sde(system: SdeSystem, spec: InterventionSpec) -> SdeSystem:
    """The (p-1)-dimensional system obtained by holding one coordinate.

    Row i (i != m) of the new field is row i of the original evaluated at
    the state with ``zeta`` of the remaining coordinates substituted into
    slot m; the driver is untouched and the initial law loses coordinate m.
    A constant hold of an affine field keeps the field affine: the reduced
    form is ``(M[keep, keep], c[keep] + zeta M[keep, m], S[keep])``.
    """
    p = system.p
    m = spec.target
    if p < 2:
        raise ValueError("intervention needs at least two coordinates")
    if m >= p:
        raise ValueError(f"target coordinate {m} out of range for dimension {p}")
    read = max(spec.value.variables, default=-1) if isinstance(spec.value, Expression) else -1
    if read >= p - 1:
        raise ValueError(f"held value reads x{read + 1}, but the reduced state is x1..x{p - 1}")
    orig = system.coeff
    keep = [i for i in range(p) if i != m]

    def inserted(ys: np.ndarray) -> np.ndarray:
        return _insert_coordinate(ys, m, spec.apply(ys))

    def batch(ys: np.ndarray) -> np.ndarray:
        return orig.eval_batch(inserted(ys)).take(keep, axis=1)

    declared = None
    if orig.declared_dependence is not None:
        declared = orig.declared_dependence[np.ix_(keep, keep)].copy()
        if not spec.is_constant:
            rows_reading_m = orig.declared_dependence[m, keep]
            if isinstance(spec.value, Expression):
                for v in spec.value.variables:
                    declared[v, :] |= rows_reading_m
            else:
                declared |= rows_reading_m[None, :]

    singular = ()
    affine = None
    if spec.is_constant:
        zeta = spec.constant()
        singular = tuple(
            np.delete(s, m) for s in orig.singular_points if s[m] == zeta
        )
        if orig.affine is not None:
            M, c, S = orig.affine
            affine = (M[np.ix_(keep, keep)], c[keep] + zeta * M[keep, m], S[keep])

    probe_box = ()
    if orig.probe_box:
        probe_box = tuple(b for i, b in enumerate(orig.probe_box) if i != m)

    field = CoefficientField(
        p=p - 1,
        d=orig.d,
        batch_func=batch,
        declared_dependence=declared,
        singular_points=singular,
        probe_box=probe_box,
        affine=affine,
    )
    labels = tuple(lb for i, lb in enumerate(system.labels) if i != m)
    return SdeSystem(
        coeff=field,
        driver=system.driver,
        initial=system.initial.drop_coordinate(m),
        labels=labels,
    )


def embed_constant_intervention(system: SdeSystem, m: int, zeta: float) -> SdeSystem:
    """Same-dimensional encoding of a constant intervention.

    Row m of the coefficient field becomes identically zero and the initial
    value of coordinate m becomes the held constant, so the coordinate
    stays put while the others evolve exactly as in the reduced system.
    """
    if not isinstance(zeta, (int, float, np.floating, np.integer)):
        raise ValueError("embedding defined only for constant interventions")
    p = system.p
    if not 0 <= m < p:
        raise ValueError("target coordinate out of range")
    orig = system.coeff

    def batch(xs: np.ndarray) -> np.ndarray:
        out = orig.eval_batch(xs).copy()
        out[:, m, :] = 0.0
        return out

    declared = None
    if orig.declared_dependence is not None:
        declared = orig.declared_dependence.copy()
        declared[:, m] = False

    return SdeSystem(
        coeff=replace(orig, batch_func=batch, declared_dependence=declared, affine=None),
        driver=system.driver,
        initial=system.initial.fix_coordinate(m, float(zeta)),
        labels=system.labels,
    )


def full_process_lift(reduced, spec: InterventionSpec, label: str | None = None):
    """Reinsert the held coordinate into a reduced-path ensemble.

    The inserted column carries ``zeta`` of the remaining coordinates at
    every grid time; removing it again returns the input bit-exactly.
    """
    m = spec.target
    values = reduced.values
    n, k, q = values.shape
    col = spec.apply(values.reshape(n * k, q)).reshape(n, k)
    col[~np.isfinite(values).all(axis=2)] = np.nan  # keep exploded segments absent
    lifted = _insert_coordinate(values, m, col)
    name = label if label is not None else f"do{m + 1}"
    labels = reduced.labels[:m] + (name,) + reduced.labels[m:]
    return replace(reduced, values=lifted, labels=labels)


# ---------------------------------------------------------------------------
# structural equation models


@dataclass(frozen=True)
class SemVertex:
    """One primary variable: parents, optional noise id, and its update map.

    ``func(parent_values, noise_value)`` receives the parent values keyed
    by vertex name and the value of the assigned noise variable (None when
    the vertex has no noise).
    """

    name: Hashable
    parents: tuple
    func: Callable[[Mapping, Any], Any]
    noise: Hashable | None = None


@dataclass(frozen=True)
class SemModel:
    """Primary variables with a DAG, noise assignment and update maps."""

    vertices: tuple[SemVertex, ...]

    def __post_init__(self):
        names = [v.name for v in self.vertices]
        if len(set(names)) != len(names):
            raise ValueError("duplicate vertex names")
        known = set(names)
        for v in self.vertices:
            for q in v.parents:
                if q not in known:
                    raise ValueError(f"vertex {v.name!r} has unknown parent {q!r}")
        self.topo_order()  # rejects cycles up front

    @cached_property
    def by_name(self) -> dict:
        return {v.name: v for v in self.vertices}

    @cached_property
    def noise_assignment(self) -> dict:
        return {v.name: v.noise for v in self.vertices}

    def topo_order(self) -> tuple:
        return self._order

    @cached_property
    def _order(self) -> tuple:
        """Kahn's sort, ties broken by vertex position."""
        order_index = {v.name: k for k, v in enumerate(self.vertices)}
        indegree = {v.name: len(v.parents) for v in self.vertices}
        children: dict[Hashable, list] = {v.name: [] for v in self.vertices}
        for v in self.vertices:
            for q in v.parents:
                children[q].append(v.name)
        ready = deque(sorted((n for n, k in indegree.items() if k == 0), key=order_index.get))
        out = []
        while ready:
            n = ready.popleft()
            out.append(n)
            for c in sorted(children[n], key=order_index.get):
                indegree[c] -= 1
                if indegree[c] == 0:
                    ready.append(c)
        if len(out) != len(self.vertices):
            raise NotDagError("graph contains a directed cycle")
        return tuple(out)

    def evaluate(self, noise: Mapping | None = None) -> dict:
        """Evaluate all primary variables in DAG order from noise values."""
        noise = noise or {}
        values: dict = {}
        for name in self.topo_order():
            v = self.by_name[name]
            parent_values = {q: values[q] for q in v.parents}
            noise_value = noise[v.noise] if v.noise is not None else None
            values[name] = v.func(parent_values, noise_value)
        return values


def intervene_sem(sem: SemModel, assignments: Mapping) -> SemModel:
    """Replace target vertices by assignments ``name -> (parents, func)`` or a constant.

    Target parent sets are rewired to the assignment's variables; the
    noise assignment is untouched (the new update maps simply ignore the
    noise).  Assignment variables may not themselves be targets, noise
    variables are not legal targets, and the rewired graph must stay
    acyclic.
    """
    targets = set(assignments)
    noise_ids = {v.noise for v in sem.vertices if v.noise is not None}
    for name in targets:
        if name not in sem.by_name:
            if name in noise_ids:
                raise IntegratorInterventionError(
                    "interventions on the driving-noise variables are not allowed"
                )
            raise KeyError(f"unknown vertex {name!r}")
    new_vertices = []
    for v in sem.vertices:
        if v.name not in targets:
            new_vertices.append(v)
            continue
        assignment = assignments[v.name]
        if isinstance(assignment, tuple):
            read, zeta = assignment
            read = tuple(read)
        else:
            read, zeta = (), (lambda c: (lambda parent_values: c))(assignment)
        bad = [q for q in read if q in targets]
        if bad:
            raise ValueError(f"assignment for {v.name!r} reads intervened vertices {bad!r}")

        def func(parent_values, _noise, _zeta=zeta):
            return _zeta(parent_values)

        new_vertices.append(SemVertex(v.name, read, func, noise=v.noise))
    try:
        return SemModel(tuple(new_vertices))
    except NotDagError:
        raise NotDagError("post-intervention graph is not a DAG") from None


def intervene_update(
    update: Callable[[np.ndarray, np.ndarray], np.ndarray],
    m: int,
    zeta: float | str | Expression | Callable,
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Intervened one-step update map of a Markov chain.

    Given ``update(x, u)`` on R^p x R^d, returns the map on R^(p-1) x R^d
    whose components are the non-target components of ``update`` evaluated
    with the held value substituted into slot m.
    """
    spec = InterventionSpec(m, zeta)

    def intervened(y: np.ndarray, u: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        x = _insert_coordinate(y, m, spec.apply(y))
        out = np.asarray(update(x, u), dtype=float)
        return np.delete(out, m, axis=-1)

    return intervened


def ito_pair_system(f: Callable, f_prime: Callable, f_second: Callable) -> SdeSystem:
    """Two-dimensional system for (W, f(W)) with the chain-rule second row."""

    def drift(xs: np.ndarray) -> np.ndarray:
        out = np.zeros((xs.shape[0], 2))
        out[:, 1] = 0.5 * np.asarray(f_second(xs[:, 0]), dtype=float)
        return out

    def diffusion(xs: np.ndarray) -> np.ndarray:
        out = np.empty((xs.shape[0], 2, 1))
        out[:, 0, 0] = 1.0
        out[:, 1, 0] = np.asarray(f_prime(xs[:, 0]), dtype=float)
        return out

    dep = np.array([[False, True], [False, False]])
    field = drift_diffusion_field(2, 1, drift, diffusion, declared_dependence=dep)
    return SdeSystem(
        coeff=field,
        driver=canonical_driver(1),
        initial=np.array([0.0, float(f(0.0))]),
        labels=("w", "f_of_w"),
    )
