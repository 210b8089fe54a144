"""Two-sample tests and the Monte Carlo postintervention equality check.

Equality of postintervention laws is probed by marginal KS tests at fixed
time slices plus one joint energy-distance test on the stacked slices,
with Holm correction across the family.  This is a practical proxy for
equality of the full path law, not a path-space test.  The check first
verifies the structural generator-equality hypothesis; when that fails,
the verdict is "hypothesis violated" rather than a test outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist
from scipy.special import kolmogorov

from ._rng import derive_seed
from .euler import simulate_slices
from .generator import compare_generators
from .intervention import InterventionSpec, intervene_sde
from .system import SdeSystem, _probe_grid

__all__ = [
    "ks_two_sample",
    "energy_distance_test",
    "holm_rejections",
    "TestReport",
    "identifiability_check",
]


def ks_two_sample(xs, ys) -> tuple[float, float]:
    """Classical two-sample KS statistic with the asymptotic p-value.

    The p-value uses the Kolmogorov limit law at the effective sample size
    n m / (n + m); it is meaningful for samples of a thousand points or
    more.
    """
    xs = np.sort(np.asarray(xs, dtype=float).ravel())
    ys = np.sort(np.asarray(ys, dtype=float).ravel())
    n, m = xs.size, ys.size
    if n == 0 or m == 0:
        raise ValueError("both samples must be nonempty")
    pooled = np.concatenate([xs, ys])
    cdf_x = np.searchsorted(xs, pooled, side="right") / n
    cdf_y = np.searchsorted(ys, pooled, side="right") / m
    statistic = float(np.max(np.abs(cdf_x - cdf_y)))
    effective = n * m / (n + m)
    p_value = float(kolmogorov(np.sqrt(effective) * statistic))
    return statistic, min(1.0, max(0.0, p_value))


def _energy_components(dist: np.ndarray, mask: np.ndarray, n: int, m: int):
    """Energy statistic from a pooled distance matrix and an A-group mask."""
    u = dist @ mask
    s_aa = float(mask @ u)
    row_tot = dist.sum(axis=1)
    s_ab = float(row_tot @ mask) - s_aa
    total = float(row_tot.sum())
    s_bb = total - 2.0 * float(row_tot @ mask) + s_aa
    return 2.0 * s_ab / (n * m) - s_aa / n**2 - s_bb / m**2


def energy_distance_test(
    a,
    b,
    n_permutations: int = 500,
    seed: int = 0,
    max_points: int | None = None,
) -> tuple[float, float]:
    """Energy-distance two-sample test with a permutation null.

    The statistic is the V-statistic form, nonnegative and zero exactly
    when the two samples coincide as multisets.  ``max_points`` caps each
    sample by a seeded subsample to bound the quadratic distance matrix.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if b.ndim == 1:
        b = b[:, None]
    if a.shape[1] != b.shape[1]:
        raise ValueError("dimension mismatch")
    if len(a) == 0 or len(b) == 0:
        raise ValueError("both samples must be nonempty")
    rng = np.random.default_rng(derive_seed(seed, 2718))
    if max_points is not None:
        if len(a) > max_points:
            a = a[rng.choice(len(a), max_points, replace=False)]
        if len(b) > max_points:
            b = b[rng.choice(len(b), max_points, replace=False)]
    n, m = len(a), len(b)
    pooled = np.vstack([a, b])
    dist = cdist(pooled, pooled)
    base_mask = np.zeros(n + m)
    base_mask[:n] = 1.0
    statistic = _energy_components(dist, base_mask, n, m)

    exceed = 0
    row_tot = dist.sum(axis=1)
    for done in range(0, n_permutations, 128):
        k = min(128, n_permutations - done)
        masks = np.zeros((n + m, k))
        for c in range(k):
            idx = rng.permutation(n + m)[:n]
            masks[idx, c] = 1.0
        u = dist @ masks                                  # (n+m, k)
        s_aa = np.einsum("ik,ik->k", masks, u)
        r_dot = row_tot @ masks
        s_ab = r_dot - s_aa
        s_bb = float(row_tot.sum()) - 2.0 * r_dot + s_aa
        stats = 2.0 * s_ab / (n * m) - s_aa / n**2 - s_bb / m**2
        exceed += int(np.sum(stats >= statistic - 1e-15))
    p_value = (1 + exceed) / (1 + n_permutations)
    return float(statistic), float(p_value)


def holm_rejections(p_values, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Step-down Holm procedure.

    Returns the rejection flags (original order) and the per-test Holm
    threshold each p-value was compared against.
    """
    p = np.asarray(p_values, dtype=float)
    k = p.size
    order = np.argsort(p, kind="stable")
    thresholds = np.empty(k)
    reject = np.zeros(k, dtype=bool)
    active = True
    for rank, idx in enumerate(order):
        level = alpha / (k - rank)
        thresholds[idx] = level
        if active and p[idx] <= level:
            reject[idx] = True
        else:
            active = False
    return reject, thresholds


@dataclass
class TestReport:
    """Outcome of a multi-part distributional check."""

    __test__ = False  # not a pytest class, despite the name

    test: str
    statistic: float
    p_value: float
    alpha: float
    corrected_alpha: float
    verdict: str
    breakdown: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict == "consistent with equality"

    def to_dict(self) -> dict:
        out = {
            "test": self.test,
            "statistic": self.statistic,
            "p_value": self.p_value,
            "alpha": self.alpha,
            "corrected_alpha": self.corrected_alpha,
            "correction": "holm",
            "verdict": self.verdict,
        }
        out.update(self.extras)
        out["breakdown"] = self.breakdown
        return out


def identifiability_check(
    sys_a: SdeSystem,
    sys_b: SdeSystem,
    spec: InterventionSpec,
    times,
    n_paths: int,
    delta: float,
    seed: int,
    alpha: float = 0.01,
    n_permutations: int = 500,
    energy_max_points: int = 2048,
    structure_points: int = 256,
) -> TestReport:
    """Test whether two systems share their postintervention distribution.

    Both postintervention systems are simulated with independent derived
    seeds, compared by per-coordinate KS tests at each requested time
    (times that fall on one grid step share one test) plus one energy
    test on the stacked slices, and Holm-corrected; the verdict
    is "consistent with equality" iff nothing rejects at the corrected
    level.  The structural generator-equality hypothesis is checked at
    probe points and reported alongside ("hypothesis": ok or violated): a
    rejection under a violated hypothesis refutes nothing, it shows the
    test has power.  Deterministic given the seed.
    """
    if n_paths < 1000:
        raise ValueError("identifiability_check needs n_paths >= 1000 for asymptotic KS p-values")
    times = sorted({float(t) for t in times})
    pts = _probe_grid([sys_a.coeff, sys_b.coeff], structure_points, None, [0.0], 1e-3)
    comparison = compare_generators(sys_a, sys_b, pts, tol=1e-9)
    comparison_summary = {
        k: comparison[k]
        for k in (
            "max_value_difference",
            "max_beta_distance",
            "max_diffusion_distance",
            "max_jump_distance",
            "structurally_equal",
        )
    }
    hypothesis = "ok" if comparison["structurally_equal"] else "violated"

    reduced_a = intervene_sde(sys_a, spec)
    reduced_b = intervene_sde(sys_b, spec)
    slices_a = simulate_slices(reduced_a, delta, times, n_paths, derive_seed(seed, 1))
    slices_b = simulate_slices(reduced_b, delta, times, n_paths, derive_seed(seed, 2))
    values_a = slices_a.values[slices_a.alive()]
    values_b = slices_b.values[slices_b.alive()]

    breakdown = []
    for s, k in enumerate(slices_a.steps):
        t = slices_a.grid.times[k]
        for j, lab in enumerate(reduced_a.labels):
            stat, pv = ks_two_sample(values_a[:, s, j], values_b[:, s, j])
            breakdown.append({"test": f"ks[t={t:g},{lab}]", "statistic": stat, "p_value": pv})
    # each alive path's kept states, time after time, as one row
    stacked_a = values_a.reshape(len(values_a), -1)
    stacked_b = values_b.reshape(len(values_b), -1)
    stat, pv = energy_distance_test(
        stacked_a,
        stacked_b,
        n_permutations=n_permutations,
        seed=derive_seed(seed, 3),
        max_points=energy_max_points,
    )
    breakdown.append({"test": "energy[stacked slices]", "statistic": stat, "p_value": pv})

    p_values = [entry["p_value"] for entry in breakdown]
    reject, thresholds = holm_rejections(p_values, alpha)
    for entry, rj, th in zip(breakdown, reject, thresholds):
        entry["corrected_alpha"] = float(th)
        entry["reject"] = bool(rj)
        entry["verdict"] = "reject" if rj else "accept"
    head = int(np.argmin(p_values))
    verdict = "inconsistent" if bool(reject.any()) else "consistent with equality"
    return TestReport(
        test="identifiability",
        statistic=float(breakdown[head]["statistic"]),
        p_value=float(p_values[head]),
        alpha=float(alpha),
        corrected_alpha=float(thresholds[head]),
        verdict=verdict,
        breakdown=breakdown,
        extras={
            "hypothesis": hypothesis,
            "times": [float(t) for t in times],
            "n_paths": int(n_paths),
            "delta": float(delta),
            "seed": int(seed),
            "n_exploded": [slices_a.n_exploded, slices_b.n_exploded],
            "generator_comparison": comparison_summary,
        },
    )
