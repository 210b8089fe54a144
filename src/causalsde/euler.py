"""Euler-scheme simulation and the layered structural model it induces.

Paths follow the left-point recursion ``X_k = X_{k-1} + a(X_{k-1}) dZ_k``
on a uniform grid.  The same recursion, read as a structural equation
model with one primary variable per (time, coordinate) pair and the
driver increments as noise variables, gives the discrete model whose
intervention calculus mirrors the SDE-level intervention operator: both
routes execute the same arithmetic, so the commutation check is exact up
to floating-point reassociation.

Paths that produce a non-finite value are frozen at the first bad step,
flagged, and reported as a fraction instead of aborting a study.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from ._rng import path_streams
from .driver import LevyTriplet, assemble_increments
from .intervention import InterventionSpec, SemModel, SemVertex, intervene_sde, intervene_sem
from .system import CoefficientField, InitialLaw, SdeSystem, SignatureGraph

__all__ = [
    "Grid",
    "PathEnsemble",
    "EulerSem",
    "build_euler_sem",
    "simulate",
    "simulate_shared",
    "simulate_slices",
    "SliceSample",
    "driver_increments",
    "check_commutation",
    "convergence_study",
    "ConvergenceStudy",
    "ensemble_to_csv",
    "ensemble_from_csv",
]

_CHUNK = 4096


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


@dataclass(frozen=True)
class PathEnsemble:
    """Monte Carlo paths on a grid with seed provenance.

    ``values`` has shape (n_paths, n_steps + 1, p); rows of exploded paths
    are NaN from the recorded step onward.
    """

    grid: Grid
    labels: tuple[str, ...]
    values: np.ndarray
    seed: int
    path_indices: np.ndarray
    exploded_at: np.ndarray  # -1 for clean paths, else first bad step

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]

    @property
    def n_exploded(self) -> int:
        return int(np.sum(self.exploded_at >= 0))

    @property
    def exploded_fraction(self) -> float:
        return self.n_exploded / max(1, self.n_paths)

    def state_at(self, t: float) -> np.ndarray:
        return self.values[:, self.grid.index_of(t), :]

    def drop_coordinate(self, m: int) -> "PathEnsemble":
        return replace(
            self,
            values=np.delete(self.values, m, axis=2),
            labels=tuple(lb for i, lb in enumerate(self.labels) if i != m),
        )


def _euler_paths(field: CoefficientField, x0: np.ndarray, dz: np.ndarray, keep=None):
    """Run the Euler recursion on a block of paths.

    Returns (states, exploded_at): ``states`` has shape (n, len(keep), p)
    and holds the states at the step indices in ``keep`` (every step when
    None).  A path freezes to NaN at its first non-finite state and the
    step index is recorded.
    """
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
            a = field.eval_batch(x)
            x = x + np.einsum("npd,nd->np", a, dz[:, k - 1])
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
    """(x0, dz) of the paths in ``indices``: path i draws its initial state, normals
    and Poisson counts, in that order, from its own stream."""
    n, n_steps, n_jumps = len(indices), grid.n_steps, len(triplet.jumps)
    random_x0 = not initial.is_fixed  # a fixed law draws nothing
    x0 = np.empty((n, initial.p)) if random_x0 else initial.sample(None, n)
    dz = np.empty((n, n_steps, triplet.dim))
    counts = np.empty((n, n_steps, n_jumps), dtype=np.int64) if n_jumps else None
    lam = triplet.jump_rates * grid.delta
    for row, g in enumerate(path_streams(seed, indices)):
        if random_x0:
            x0[row] = initial.sample(g, 1)[0]
        g.standard_normal(out=dz[row])
        if n_jumps:
            counts[row] = g.poisson(lam, (n_steps, n_jumps))
    assemble_increments(triplet, grid.delta, dz, counts, out=dz)
    return x0, dz


def driver_increments(triplet: LevyTriplet, grid: Grid, n_paths: int, seed: int) -> np.ndarray:
    """The increment tensor (n_paths, n_steps, d) that simulation of a
    fixed-initial system with the same seed consumes."""
    return _draw_paths(triplet, InitialLaw(np.zeros(0)), grid, seed, range(n_paths))[1]


def _simulate_chunked(system: SdeSystem, grid: Grid, n_paths: int, seed: int, keep=None):
    """Run ``n_paths`` paths in chunks; path i always draws from its own stream."""
    n_keep = grid.n_steps + 1 if keep is None else len(keep)
    states = np.empty((n_paths, n_keep, system.p))
    exploded = np.empty(n_paths, dtype=np.int64)
    for b0 in range(0, n_paths, _CHUNK):
        b1 = min(b0 + _CHUNK, n_paths)
        x0, dz = _draw_paths(system.driver, system.initial, grid, seed, range(b0, b1))
        states[b0:b1], exploded[b0:b1] = _euler_paths(system.coeff, x0, dz, keep)
        del x0, dz  # free this chunk's increments before the next chunk draws its own
    return states, exploded


def simulate(system: SdeSystem, grid: Grid, n_paths: int, seed: int) -> PathEnsemble:
    """Euler ensemble; deterministic given (system, grid, n_paths, seed).

    Path i draws its initial state and increments from its own
    counter-derived stream, so results do not depend on chunking.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be positive")
    values, exploded = _simulate_chunked(system, grid, n_paths, seed)
    return PathEnsemble(
        grid=grid,
        labels=system.labels,
        values=values,
        seed=int(seed),
        path_indices=np.arange(n_paths),
        exploded_at=exploded,
    )


def simulate_shared(
    systems: list[SdeSystem], grid: Grid, n_paths: int, seed: int
) -> list[PathEnsemble]:
    """Simulate several systems against one shared increment tensor.

    All drivers must be bit-identical and all initial laws fixed (shared
    noise with random initial states would be ambiguous).
    """
    if not systems:
        return []
    base = systems[0].driver
    for s in systems[1:]:
        if not base.same_law(s.driver):
            raise ValueError("driver mismatch: shared simulation needs bit-identical drivers")
    for s in systems:
        if not s.initial.is_fixed:
            raise ValueError("shared simulation requires fixed initial values")
    out = []
    dz = driver_increments(base, grid, n_paths, seed)
    indices = np.arange(n_paths)
    for s in systems:
        x0 = np.broadcast_to(s.initial.mean, (n_paths, s.p))
        v, e = _euler_paths(s.coeff, x0, dz)
        out.append(
            PathEnsemble(grid, s.labels, v, int(seed), indices, e)
        )
    return out


@dataclass(frozen=True)
class SliceSample:
    """States of an ensemble at selected grid times, without full path storage."""

    times: tuple[float, ...]
    states: tuple[np.ndarray, ...]  # one (n_paths, p) array per time
    exploded_at: np.ndarray
    labels: tuple[str, ...]

    @property
    def n_paths(self) -> int:
        return self.exploded_at.size

    @property
    def n_exploded(self) -> int:
        return int(np.sum(self.exploded_at >= 0))

    def alive(self) -> np.ndarray:
        return self.exploded_at < 0

    def state_at(self, t: float) -> np.ndarray:
        return self.states[self.times.index(t)]


def simulate_slices(
    system: SdeSystem,
    delta: float,
    times: list[float],
    n_paths: int,
    seed: int,
) -> SliceSample:
    """Memory-light simulation keeping only the states at requested times."""
    times = sorted({float(t) for t in times})
    if not times or times[0] < 0 or times[-1] <= 0:
        raise ValueError("need at least one positive time")
    grid = Grid(times[-1], delta)
    keep = [grid.index_of(t) for t in times]
    states, exploded = _simulate_chunked(system, grid, n_paths, seed, keep)
    return SliceSample(
        times=tuple(times),
        states=tuple(states[:, s].copy() for s in range(len(keep))),
        exploded_at=exploded,
        labels=system.labels,
    )


# ---------------------------------------------------------------------------
# Euler SEM


@dataclass(frozen=True)
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
        return tuple(sorted({i} | {j1 for j1, j2 in self.signature.edges if j2 == i}))

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
        vertices = []
        for i in range(p):
            vertices.append(
                SemVertex(("x", 0, i), (), _initial_func(initial_values[:, i]), noise=None)
            )
        for k in range(1, self.grid.n_steps + 1):
            for i in range(p):
                parents = tuple(("x", k - 1, j) for j in self.parent_coordinates(i))
                vertices.append(
                    SemVertex(
                        ("x", k, i),
                        parents,
                        _euler_update_func(field, k, i, self.parent_coordinates(i), fill),
                        noise=("dz", k),
                    )
                )
        return SemModel(tuple(vertices))


def _initial_func(column: np.ndarray):
    def func(_parents, _noise):
        return column

    return func


def _euler_update_func(field: CoefficientField, k: int, i: int, parent_js, fill):
    p = field.p
    parent_js = set(parent_js)

    def func(parent_values, dz):
        n = dz.shape[0]
        x = np.empty((n, p))
        for j in range(p):
            if j in parent_js:
                x[:, j] = parent_values[("x", k - 1, j)]
            else:
                x[:, j] = fill[j]
        with np.errstate(all="ignore"):
            step = np.einsum("npd,nd->np", field.eval_batch(x), dz)
        return parent_values[("x", k - 1, i)] + step[:, i]

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
    system.  Both consume the same increments.  The held vertex of layer
    k reads the other coordinates of layer k, as route B substitutes
    ``zeta(X_k^{-m})`` into step k+1, so for every hold the two routes
    execute identical arithmetic and the reported maximum discrepancy
    over paths, grid points and untouched coordinates should vanish to
    rounding.
    """
    p, m = system.p, spec.target
    x0, dz = _draw_paths(system.driver, system.initial, grid, seed, range(n_paths))

    reduced = intervene_sde(system, spec)
    vals_b, exploded_b = _euler_paths(reduced.coeff, np.delete(x0, m, axis=1), dz)

    esem = build_euler_sem(system, grid)
    sem = esem.to_sem_model(x0)
    assignments = {}
    for k in range(grid.n_steps + 1):
        if spec.is_constant:
            assignments[("x", k, m)] = spec.constant()
        else:
            read = tuple(("x", k, j) for j in range(p) if j != m)
            assignments[("x", k, m)] = (read, _held_zeta(spec, read))
    intervened = intervene_sem(sem, assignments)
    noise = {("dz", k): dz[:, k - 1] for k in range(1, grid.n_steps + 1)}
    env = intervened.evaluate(noise)

    keep = [i for i in range(p) if i != m]
    vals_a = np.empty((n_paths, grid.n_steps + 1, p - 1))
    for k in range(grid.n_steps + 1):
        for col, i in enumerate(keep):
            vals_a[:, k, col] = np.broadcast_to(np.asarray(env[("x", k, i)]), (n_paths,))

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

    for b0 in range(0, n_paths, _CHUNK):
        b1 = min(b0 + _CHUNK, n_paths)
        x0, dz_f = _draw_paths(system.driver, system.initial, fine, seed, range(b0, b1))
        n = b1 - b0
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
    (path, grid time); rows after a path's explosion point are omitted."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["path", "t"] + list(ensemble.labels))
        times = ensemble.grid.times
        for row, idx in enumerate(ensemble.path_indices):
            stop = ensemble.exploded_at[row]
            last = len(times) if stop < 0 else stop
            for k in range(last):
                writer.writerow(
                    [int(idx), repr(float(times[k]))]
                    + [repr(float(v)) for v in ensemble.values[row, k]]
                )


def ensemble_from_csv(path: str) -> PathEnsemble:
    """Re-import an exported ensemble; values round-trip bit-identically."""
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
        for t, vals in rows:
            values[r, grid.index_of(t)] = vals
        if len(rows) <= n_steps:
            exploded[r] = len(rows)
    return PathEnsemble(
        grid=grid,
        labels=labels,
        values=values,
        seed=0,
        path_indices=indices,
        exploded_at=exploded,
    )
