"""Euler-scheme simulation and the layered structural model it induces.

Paths follow the left-point recursion ``X_k = X_{k-1} + a(X_{k-1}) dZ_k``
on a uniform grid.  The same recursion, read as a structural equation
model with one primary variable per (time, coordinate) pair and the
driver increments as noise variables, gives the discrete model whose
intervention calculus mirrors the SDE-level intervention operator.  The
kernel and the structural equations both step through ``_euler_update``,
and the commutation check feeds both routes the same inputs, so the two
routes agree exactly.

Paths that produce a non-finite value are frozen at the first bad step,
flagged, and reported as a fraction instead of aborting a study.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable

import numpy as np

from ._rng import path_streams
from .driver import LevyTriplet, assemble_increments, jump_counts
from .intervention import (
    InterventionSpec,
    SemModel,
    SemVertex,
    intervene_sde,
    intervene_sem,
    ito_pair_system,
)
from .system import CoefficientField, InitialLaw, SdeSystem, SignatureGraph

__all__ = [
    "Grid",
    "PathEnsemble",
    "EulerSem",
    "build_euler_sem",
    "simulate",
    "simulate_shared",
    "simulate_slices",
    "driver_increments",
    "check_commutation",
    "ito_counterexample",
    "convergence_study",
    "ConvergenceStudy",
    "ensemble_to_csv",
    "ensemble_from_csv",
]

_CHUNK = 4096  # paths per chunk at most
_CHUNK_VALUES = 1 << 21  # increment values per chunk at most (16 MiB of float64)


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [0, horizon] with step delta; horizon/delta must be integral."""

    horizon: float
    delta: float

    def __post_init__(self):
        object.__setattr__(self, "horizon", float(self.horizon))
        object.__setattr__(self, "delta", float(self.delta))
        if not (self.horizon > 0 and self.delta > 0):
            raise ValueError("horizon and delta must be positive")
        ratio = self.horizon / self.delta
        if abs(ratio - round(ratio)) >= 1e-9 or round(ratio) < 1:
            raise ValueError(f"horizon/delta = {ratio} is not a positive integer")
        object.__setattr__(self, "_n_steps", int(round(ratio)))

    @property
    def n_steps(self) -> int:
        return self._n_steps

    @cached_property
    def times(self) -> np.ndarray:
        t = np.arange(self.n_steps + 1) * self.delta
        t.setflags(write=False)
        return t

    def index_of(self, t: float) -> int:
        k = t / self.delta
        if abs(k - round(k)) >= 1e-9 or not (0 <= round(k) <= self.n_steps):
            raise ValueError(f"time {t} is not on the grid")
        return int(round(k))


@dataclass(frozen=True, eq=False)
class PathEnsemble:
    """Monte Carlo paths on a grid with seed provenance, kept at some or
    all grid steps.

    ``values`` has shape (n_paths, len(steps), p): column s holds the states
    at grid step ``steps[s]``.  :func:`simulate` keeps every step and
    :func:`simulate_slices` the steps of the requested times.  Rows of
    exploded paths are NaN from the recorded step onward.
    """

    grid: Grid
    labels: tuple[str, ...]
    values: np.ndarray
    seed: int
    path_indices: np.ndarray
    exploded_at: np.ndarray  # -1 for clean paths, else first bad step
    steps: tuple[int, ...]  # increasing grid step index of each column

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]

    @property
    def n_exploded(self) -> int:
        return int(np.sum(self.exploded_at >= 0))

    @property
    def exploded_fraction(self) -> float:
        return self.n_exploded / max(1, self.n_paths)

    def alive(self) -> np.ndarray:
        return self.exploded_at < 0

    def state_at(self, t: float) -> np.ndarray:
        k = self.grid.index_of(t)
        if k not in self.steps:
            raise ValueError(f"time {t} was not kept")
        return self.values[:, self.steps.index(k)]

    def drop_coordinate(self, m: int) -> "PathEnsemble":
        return replace(
            self,
            values=np.delete(self.values, m, axis=2),
            labels=tuple(lb for i, lb in enumerate(self.labels) if i != m),
        )


def _euler_update(a: np.ndarray, x: np.ndarray, dz: np.ndarray) -> np.ndarray:
    """The Euler step ``x + a dz`` of a stack of paths: whole states with
    ``a`` of shape (n, p, d) and ``x`` (n, p), or one coordinate with
    ``a`` (n, d) and ``x`` (n,)."""
    return x + np.einsum("n...d,nd->n...", a, dz)


def _euler_paths(field: CoefficientField, x0: np.ndarray, dz: np.ndarray, keep=None):
    """Run the Euler recursion on a block of paths.

    Returns (states, exploded_at): ``states`` has shape (n, len(keep), p)
    and holds the states at the step indices in ``keep`` (every step when
    None).  A path freezes to NaN at its first non-finite state and the
    step index is recorded.

    A field with an affine form ``(M, c, S)`` steps as
    ``x + (x M' + c) dz_0 + dz_{1:} S'``, with no coefficient tensor; every
    other field evaluates its (n, p, d) coefficients and contracts them
    with the increments.  The two forms agree to rounding.
    """
    if field.affine is None:

        def step(x, dz_k):
            return _euler_update(field.eval_batch(x), x, dz_k)

    else:
        M, c, S = field.affine

        def step(x, dz_k):
            return x + (x @ M.T + c) * dz_k[:, :1] + dz_k[:, 1:] @ S.T

    n, n_steps, _ = dz.shape
    slot = {k: s for s, k in enumerate(range(n_steps + 1) if keep is None else keep)}
    states = np.empty((n, len(slot), field.p))
    exploded = np.full(n, -1, dtype=np.int64)
    x = np.array(x0, dtype=float)
    alive = np.isfinite(x).all(axis=1)
    exploded[~alive] = 0
    x[~alive] = np.nan
    if 0 in slot:
        states[:, slot[0]] = x
    with np.errstate(all="ignore"):
        for k in range(1, n_steps + 1):
            x = step(x, dz[:, k - 1])
            bad = ~np.isfinite(x).all(axis=1)
            fresh = bad & alive
            if fresh.any():
                exploded[fresh] = k
                alive &= ~fresh
            if bad.any():
                x[bad] = np.nan
            if k in slot:
                states[:, slot[k]] = x
    return states, exploded


def _draw_paths(triplet: LevyTriplet, initial: InitialLaw, grid: Grid, seed: int, indices):
    """(x0, dz) of the paths in ``indices``: path i draws its initial state,
    ``n_steps * rank`` normals and its jump counts, in that order, from its
    own stream.  The normals go into the leading values of the path's own
    ``dz`` row, which assembly then expands in place, so the chunk holds one
    increment tensor."""
    n, n_steps, rank = len(indices), grid.n_steps, triplet.rank
    random_x0 = not initial.is_fixed  # a fixed law draws nothing
    x0 = np.empty((n, initial.p)) if random_x0 else initial.sample(None, n)
    dz = np.empty((n, n_steps, triplet.dim))
    normals = dz.reshape(n, -1)[:, : n_steps * rank]
    counts = np.empty((n, n_steps, len(triplet.jumps)), dtype=np.int64) if triplet.jumps else None
    for row, g in enumerate(path_streams(seed, indices)):
        if random_x0:
            x0[row] = initial.sample(g, 1)[0]
        g.standard_normal(out=normals[row])
        if counts is not None:
            counts[row] = jump_counts(triplet, grid.delta, n_steps, 1, g)[0]
    z = normals.reshape(n, n_steps, rank, copy=False)
    assemble_increments(triplet, grid.delta, z, counts, out=dz)
    return x0, dz


def _all_paths(n_paths: int) -> range:
    """One chunk of all ``n_paths`` paths, for callers that need every path at once."""
    if n_paths < 1:
        raise ValueError("n_paths must be positive")
    return range(n_paths)


def _path_chunks(n_paths: int, values_per_path: int) -> list[range]:
    """``range(n_paths)`` cut into consecutive chunks of at most ``_CHUNK``
    paths and ``_CHUNK_VALUES`` increment values (one path at least)."""
    paths = _all_paths(n_paths)
    size = max(1, min(_CHUNK, _CHUNK_VALUES // max(1, values_per_path)))
    return [paths[b0 : b0 + size] for b0 in range(0, n_paths, size)]


def driver_increments(triplet: LevyTriplet, grid: Grid, n_paths: int, seed: int) -> np.ndarray:
    """The increment tensor (n_paths, n_steps, d) that simulation of a
    fixed-initial system with the same seed consumes."""
    return _draw_paths(triplet, InitialLaw(np.zeros(0)), grid, seed, _all_paths(n_paths))[1]


def _simulate_chunked(
    system: SdeSystem, grid: Grid, n_paths: int, seed: int, steps: tuple[int, ...]
) -> PathEnsemble:
    """Run ``n_paths`` paths in chunks, keeping the states at ``steps``;
    path i always draws from its own stream."""
    chunks = _path_chunks(n_paths, grid.n_steps * system.d)
    states = np.empty((n_paths, len(steps), system.p))
    exploded = np.empty(n_paths, dtype=np.int64)
    for paths in chunks:
        x0, dz = _draw_paths(system.driver, system.initial, grid, seed, paths)
        rows = slice(paths.start, paths.stop)
        states[rows], exploded[rows] = _euler_paths(system.coeff, x0, dz, steps)
        del x0, dz  # free this chunk's increments before the next chunk draws its own
    return PathEnsemble(
        grid=grid,
        labels=system.labels,
        values=states,
        seed=int(seed),
        path_indices=np.arange(n_paths),
        exploded_at=exploded,
        steps=steps,
    )


def simulate(system: SdeSystem, grid: Grid, n_paths: int, seed: int) -> PathEnsemble:
    """Euler ensemble; deterministic given (system, grid, n_paths, seed).

    Path i draws its initial state and increments from its own
    counter-derived stream, so results do not depend on chunking.
    """
    return _simulate_chunked(system, grid, n_paths, seed, tuple(range(grid.n_steps + 1)))


def simulate_shared(
    systems: list[SdeSystem], grid: Grid, n_paths: int, seed: int
) -> list[PathEnsemble]:
    """Simulate several systems against shared noise.

    All drivers must be bit-identical and all initial laws fixed (shared
    noise with random initial states would be ambiguous).  Path i's
    increments depend only on the seed, i, the driver and the grid, so
    each system is simulated by :func:`simulate`, chunk by chunk, and
    path i of every system sees the same increments.
    """
    for s in systems[1:]:
        if not systems[0].driver.same_law(s.driver):
            raise ValueError("driver mismatch: shared simulation needs bit-identical drivers")
    for s in systems:
        if not s.initial.is_fixed:
            raise ValueError("shared simulation requires fixed initial values")
    return [simulate(s, grid, n_paths, seed) for s in systems]


def simulate_slices(
    system: SdeSystem,
    delta: float,
    times: list[float],
    n_paths: int,
    seed: int,
) -> PathEnsemble:
    """Memory-light simulation on the grid from 0 to the last requested
    time, keeping only the steps of the requested times; times that fall
    on one step share its column."""
    times = sorted({float(t) for t in times})
    if not times or times[0] < 0 or times[-1] <= 0:
        raise ValueError("need at least one positive time")
    grid = Grid(times[-1], delta)
    steps = tuple(sorted({grid.index_of(t) for t in times}))
    return _simulate_chunked(system, grid, n_paths, seed, steps)


# ---------------------------------------------------------------------------
# Euler SEM


@dataclass(frozen=True, eq=False)
class EulerSem:
    """Layered structural model of the Euler recursion.

    Vertices are (time index, coordinate) pairs; the noise variable of
    every layer-k vertex is the driver increment over (t_{k-1}, t_k]; the
    edge (k, j1) -> (k+1, j2) exists iff j1 == j2 or j1 -> j2 is a
    signature edge.
    """

    grid: Grid
    signature: SignatureGraph
    system: SdeSystem

    @cached_property
    def layer_edges(self) -> frozenset[tuple[int, int]]:
        p = self.system.p
        straight = {(j, j) for j in range(p)}
        return frozenset(straight | set(self.signature.edges))

    @property
    def layer_edge_count(self) -> int:
        return len(self.layer_edges)

    @property
    def primary_edge_count(self) -> int:
        return self.grid.n_steps * self.layer_edge_count

    def dag_edges(self):
        """All primary-variable edges ((k, j1), (k+1, j2))."""
        for k in range(self.grid.n_steps):
            for j1, j2 in sorted(self.layer_edges):
                yield (("x", k, j1), ("x", k + 1, j2))

    def parent_coordinates(self, i: int) -> tuple[int, ...]:
        return tuple(sorted(j1 for j1, j2 in self.layer_edges if j2 == i))

    def to_sem_model(self, initial_values: np.ndarray) -> SemModel:
        """Concrete SEM over path-vectorized values.

        ``initial_values`` is (n_paths, p); vertex values are (n_paths,)
        arrays; the noise value for layer k is the (n_paths, d) increment
        block keyed by ("dz", k).  Coordinates outside a vertex's parent
        set are filled with the initial mean when assembling states: the
        signature guarantees the row does not depend on them.
        """
        initial_values = np.atleast_2d(np.asarray(initial_values, dtype=float))
        p = self.system.p
        field = self.system.coeff
        fill = self.system.initial.mean
        parent_js = [self.parent_coordinates(i) for i in range(p)]
        vertices = []
        for i in range(p):
            vertices.append(
                SemVertex(("x", 0, i), (), _initial_func(initial_values[:, i]), noise=None)
            )
        for k in range(1, self.grid.n_steps + 1):
            for i in range(p):
                vertices.append(
                    SemVertex(
                        ("x", k, i),
                        tuple(("x", k - 1, j) for j in parent_js[i]),
                        _euler_update_func(field, k, i, parent_js[i], fill),
                        noise=("dz", k),
                    )
                )
        return SemModel(tuple(vertices))


def _initial_func(column: np.ndarray):
    def func(_parents, _noise):
        return column

    return func


def _euler_update_func(field: CoefficientField, k: int, i: int, parent_js, fill):
    """Structural equation of vertex (k, i): :func:`_euler_update` on row i."""
    p = field.p

    def func(parent_values, dz):
        x = np.empty((dz.shape[0], p))
        for j in range(p):
            x[:, j] = parent_values[("x", k - 1, j)] if j in parent_js else fill[j]
        with np.errstate(all="ignore"):
            return _euler_update(field.eval_batch(x)[:, i], parent_values[("x", k - 1, i)], dz)

    return func


def build_euler_sem(system: SdeSystem, grid: Grid, signature: SignatureGraph | None = None) -> EulerSem:
    """Euler SEM of a system; the signature defaults to the system's own
    (declared when available, probed otherwise)."""
    sig = signature if signature is not None else system.signature()
    if sig.n_vertices != system.p:
        raise ValueError("signature size mismatch")
    return EulerSem(grid=grid, signature=sig, system=system)


# ---------------------------------------------------------------------------
# commutation of intervention and discretization


def check_commutation(
    system: SdeSystem,
    spec: InterventionSpec,
    grid: Grid,
    n_paths: int,
    seed: int,
    tol: float = 1e-12,
) -> dict:
    """Compare the two routes around the intervention/discretization square.

    Route A intervenes in the Euler SEM (holding the target at every
    layer) and evaluates it; route B discretizes the postintervention
    system.  Both consume the same increments, and the system is stripped
    of its affine form first, so route B takes the generic step.  The held
    vertex of layer k reads the other coordinates of layer k, as route B
    substitutes ``zeta(X_k^{-m})`` into step k+1.  Both routes then call
    :func:`_euler_update` on the same inputs, so for every hold the
    reported maximum discrepancy over paths, grid points and untouched
    coordinates is exactly zero.
    """
    system = replace(system, coeff=replace(system.coeff, affine=None))
    p, m = system.p, spec.target
    reduced = intervene_sde(system, spec)  # rejects a bad hold before the draw
    x0, dz = _draw_paths(system.driver, system.initial, grid, seed, _all_paths(n_paths))
    vals_b, exploded_b = _euler_paths(reduced.coeff, np.delete(x0, m, axis=1), dz)

    sem = build_euler_sem(system, grid).to_sem_model(x0)
    keep = [i for i in range(p) if i != m]
    layers = range(grid.n_steps + 1)
    assignments = {}
    for k in layers:
        read = tuple(("x", k, j) for j in keep)
        assignments[("x", k, m)] = (read, _held_zeta(spec, read))
    noise = {("dz", k): dz[:, k - 1] for k in layers[1:]}
    env = intervene_sem(sem, assignments).evaluate(noise)
    del noise, dz  # free the increments before route A's values are gathered
    vals_a = np.stack([env[("x", k, i)] for k in layers for i in keep], axis=1)
    vals_a = vals_a.reshape(n_paths, len(layers), p - 1)

    finite_a = np.isfinite(vals_a)
    finite_b = np.isfinite(vals_b)
    both = finite_a & finite_b
    max_diff = float(np.abs(np.where(both, vals_a - vals_b, 0.0)).max()) if both.any() else 0.0
    # the simulation route freezes a whole path at its first bad value while
    # the SEM route only loses coordinates that actually read the bad one, so
    # the masks can differ without contradicting the comparison
    return {
        "max_discrepancy": max_diff,
        "tolerance": float(tol),
        "passed": bool(max_diff <= tol),
        "explosion_pattern_match": bool(np.array_equal(finite_a, finite_b)),
        "n_paths": int(n_paths),
        "n_steps": int(grid.n_steps),
        "n_exploded_sde_route": int(np.sum(exploded_b >= 0)),
        "n_exploded_sem_route": int(np.sum(~finite_a.all(axis=(1, 2)))),
    }


def _held_zeta(spec: InterventionSpec, read):
    def zeta(parent_values):
        ys = np.stack([np.asarray(parent_values[q], dtype=float) for q in read], axis=1)
        return spec.apply(ys)

    return zeta


def ito_counterexample(
    f: Callable,
    f_prime: Callable,
    f_second: Callable,
    zeta: float,
    horizon: float,
    delta: float,
    n_paths: int,
    seed: int,
) -> dict:
    """Hold the Wiener coordinate of the pair (W, f(W)) and compare outcomes.

    The pair solves a two-dimensional system (second row from the chain
    rule), and holding the first coordinate at a constant gives the path
    ``f(0) + f''(zeta) t / 2 + f'(zeta) W_t`` rather than the constant
    ``f(zeta)`` one might expect from the overt functional relationship.
    The report carries the pathwise distance from both candidates under
    shared noise.
    """
    zeta = float(zeta)
    system = ito_pair_system(f, f_prime, f_second)
    grid = Grid(horizon, delta)
    reduced = intervene_sde(system, InterventionSpec(0, zeta))
    dz = driver_increments(system.driver, grid, n_paths, seed)
    states, exploded = _euler_paths(reduced.coeff, reduced.initial.sample(None, n_paths), dz)
    w = np.concatenate(
        [np.zeros((n_paths, 1)), np.cumsum(dz[:, :, 1], axis=1)], axis=1
    )
    times = grid.times
    closed = f(0.0) + 0.5 * f_second(zeta) * times + f_prime(zeta) * w
    paths = states[:, :, 0]
    ok = np.isfinite(paths)
    dist_def = np.abs(np.where(ok, paths - closed, 0.0)).max()
    dist_const = np.abs(np.where(ok, paths - f(zeta), 0.0))
    return {
        "max_distance_from_definition_path": float(dist_def),
        "max_distance_from_assumed_constant": float(dist_const.max()),
        "distance_assumed_at_time_zero": float(abs(f(0.0) - f(zeta))),
        "median_final_distance_from_assumed": float(np.median(dist_const[:, -1])),
        "zeta": zeta,
        "horizon": float(horizon),
        "delta": float(delta),
        "n_paths": int(n_paths),
        "n_exploded": int(np.sum(exploded >= 0)),
    }


# ---------------------------------------------------------------------------
# convergence study


@dataclass(frozen=True)
class ConvergenceStudy:
    rows: tuple[tuple[float, float, int], ...]  # (delta, rms sup-error, excluded paths)
    slope: float

    def rms_for(self, delta: float) -> float:
        for d, rms, _ in self.rows:
            if d == delta:
                return rms
        raise KeyError(delta)


def convergence_study(
    system: SdeSystem,
    exact,
    deltas: list[float],
    horizon: float,
    n_paths: int,
    seed: int,
) -> ConvergenceStudy:
    """Strong-error table over dyadic step refinements.

    Coarser runs reuse the finest grid's increments by summation, giving a
    single common probability space.  With no exact oracle the finest grid
    serves as the reference; otherwise ``exact(times, z)`` receives the
    grid times (M+1,) and the cumulative driver path (n, M+1, d) and must
    return exact states (n, M+1) or (n, M+1, p).  The fitted slope is the
    least-squares slope of log RMS sup-error against log delta.
    """
    deltas = sorted(float(d) for d in deltas)
    delta_fine = deltas[0]
    fine = Grid(horizon, delta_fine)
    ratios = []
    for d in deltas:
        r = d / delta_fine
        if abs(r - round(r)) > 1e-9:
            raise ValueError("all deltas must be integer multiples of the finest")
        ratios.append(int(round(r)))
        Grid(horizon, d)  # validates divisibility of the horizon

    sup_sq = {d: 0.0 for d in deltas}
    counts = {d: 0 for d in deltas}
    excluded = {d: 0 for d in deltas}

    for paths in _path_chunks(n_paths, fine.n_steps * system.d):
        x0, dz_f = _draw_paths(system.driver, system.initial, fine, seed, paths)
        n = len(paths)
        if exact is None:
            ref_full, ref_expl = _euler_paths(system.coeff, x0, dz_f)
        else:
            z_cum = np.concatenate(
                [np.zeros((n, 1, system.d)), np.cumsum(dz_f, axis=1)], axis=1
            )
        for d, r in zip(deltas, ratios):
            n_c = fine.n_steps // r
            dz_c = dz_f[:, : n_c * r].reshape(n, n_c, r, system.d).sum(axis=2)
            vals, expl = _euler_paths(system.coeff, x0, dz_c)
            times_c = np.arange(n_c + 1) * d
            if exact is None:
                ref = ref_full[:, ::r]
                bad = (expl >= 0) | (ref_expl >= 0)
            else:
                ref = np.asarray(exact(times_c, z_cum[:, ::r]), dtype=float)
                bad = (expl >= 0) | ~np.isfinite(ref).all(axis=tuple(range(1, ref.ndim)))
            if ref.ndim == 2:
                ref = ref[:, :, None]
            err = np.abs(vals - ref).max(axis=(1, 2))
            good = ~bad
            sup_sq[d] += float(np.sum(err[good] ** 2))
            counts[d] += int(np.sum(good))
            excluded[d] += int(np.sum(bad))

    rows = []
    for d in deltas:
        rms = float(np.sqrt(sup_sq[d] / counts[d])) if counts[d] else float("nan")
        rows.append((d, rms, excluded[d]))
    rms_vals = np.array([r[1] for r in rows])
    if np.all(rms_vals > 0) and np.all(np.isfinite(rms_vals)):
        slope = float(np.polyfit(np.log(np.array(deltas)), np.log(rms_vals), 1)[0])
    else:
        slope = float("nan")
    return ConvergenceStudy(rows=tuple(rows), slope=slope)


# ---------------------------------------------------------------------------
# ensemble CSV round trip


def ensemble_to_csv(ensemble: PathEnsemble, path: str) -> None:
    """Long-format export: header ``path,t,<labels...>``, one row per
    (path, kept time); rows from a path's explosion step onward are omitted."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["path", "t"] + list(ensemble.labels))
        times = ensemble.grid.times
        for row, idx in enumerate(ensemble.path_indices):
            stop = ensemble.exploded_at[row]
            for s, k in enumerate(ensemble.steps):
                if 0 <= stop <= k:
                    break
                writer.writerow(
                    [int(idx), repr(float(times[k]))]
                    + [repr(float(v)) for v in ensemble.values[row, s]]
                )


def ensemble_from_csv(path: str) -> PathEnsemble:
    """Re-import an exported full-path ensemble; values round-trip
    bit-identically.  A file whose paths skip grid times, as the export of
    a slice ensemble does, is rejected: its grid cannot be recovered."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        labels = tuple(header[2:])
        by_path: dict[int, list[tuple[float, list[float]]]] = {}
        for row in reader:
            by_path.setdefault(int(row[0]), []).append(
                (float(row[1]), [float(v) for v in row[2:]])
            )
    if not by_path:
        raise ValueError("empty ensemble file")
    all_times = sorted({t for rows in by_path.values() for t, _ in rows})
    if len(all_times) < 2:
        raise ValueError("ensemble must contain at least two grid times")
    grid = Grid(all_times[-1], all_times[1] - all_times[0])
    n_steps = grid.n_steps
    indices = np.array(sorted(by_path))
    values = np.full((len(indices), n_steps + 1, len(labels)), np.nan)
    exploded = np.full(len(indices), -1, dtype=np.int64)
    for r, idx in enumerate(indices):
        rows = sorted(by_path[idx])
        if [grid.index_of(t) for t, _ in rows] != list(range(len(rows))):
            raise ValueError(f"path {idx} does not hold consecutive grid times from 0")
        values[r, : len(rows)] = [vals for _, vals in rows]
        if len(rows) <= n_steps:
            exploded[r] = len(rows)
    return PathEnsemble(
        grid=grid,
        labels=labels,
        values=values,
        seed=0,
        path_indices=indices,
        exploded_at=exploded,
        steps=tuple(range(n_steps + 1)),
    )
