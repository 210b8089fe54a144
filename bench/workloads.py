"""The four benchmark workloads, each shaped like an acceptance criterion.

A workload is built once from the workload seed (``setup``) and then run
in passes.  A pass returns one :class:`Verdict` per verdict it reached;
each verdict carries its own correctness gate.  Per-verdict seeds are
derived from the workload seed, the pass index and the verdict index, so
the same seed always gives the same inputs.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from tracing import NullTracer


def derive_seed(seed: int, *tags) -> int:
    """Child seed in [0, 2**63) from the workload seed and tags."""
    digest = hashlib.sha256(repr((int(seed),) + tags).encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


@dataclass
class Verdict:
    seconds: float
    path_steps: int  # Euler path-steps over every route the verdict stepped
    paths: int  # simulated paths, both routes or both systems included
    exploded: int
    ok: bool  # passed its correctness gate
    seed: int
    detail: str = ""
    known_defect: str = ""  # set when a failure is a recorded, known defect
    null_rejection: bool = False


class Workload:
    name = ""
    sizes: dict = {}
    verdicts_per_pass = 1

    def __init__(self, seed: int, size: str, workdir: str):
        self.seed = int(seed)
        self.size = self.sizes[size]
        self.workdir = workdir
        self.tracer = NullTracer()
        self.seeds: list[int] = []
        self.setup()

    def setup(self) -> None:
        raise NotImplementedError

    def verdict(self, k: int, seed: int) -> Verdict:
        """Run verdict ``k`` of a pass; ``seconds`` is filled in by the caller."""
        raise NotImplementedError

    def run_pass(self, index: int) -> list[Verdict]:
        """One pass; a verdict that raises counts as failed."""
        out = []
        for k in range(self.verdicts_per_pass):
            seed = derive_seed(self.seed, self.name, index, k)
            self.seeds.append(seed)
            started = perf_counter()
            try:
                v = self.verdict(k, seed)
            except Exception as exc:  # noqa: BLE001 - an error is a failed verdict
                v = Verdict(0.0, 0, 0, 0, False, seed, f"error: {type(exc).__name__}: {exc}")
            v.seconds = perf_counter() - started
            out.append(v)
        return out


class OuClosedForm(Workload):
    """Criterion 4 in shape: hold x1 := 2 in ``ou``, simulate slices, compare
    each with the closed-form Gaussian transition."""

    name = "ou-closed-form"
    sizes = {
        "full": {"paths": 8192, "delta": 1e-3, "times": (0.5, 1.0)},
        "tiny": {"paths": 512, "delta": 1e-2, "times": (0.5, 1.0)},
    }

    def setup(self):
        import causalsde as cs
        from causalsde.presets import ou_builtin_model

        built = cs.load_builtin("ou")
        spec = built.intervention
        self.model = cs.ou_intervene(ou_builtin_model(), spec.target, spec.constant())
        self.system = cs.intervene_sde(built.system, spec)

    def verdict(self, k, seed):
        import causalsde.euler as euler
        import causalsde.ou as ou

        sz, t = self.size, self.tracer
        sl = t.call("euler.simulate_slices", euler.simulate_slices,
                    self.system, sz["delta"], list(sz["times"]), sz["paths"], seed)
        ok = sl.n_exploded == 0
        detail = f"{sl.n_exploded} exploded"
        for time in sz["times"]:
            mean, cov = t.call("ou.ou_transition", ou.ou_transition,
                               self.model, self.model.initial.mean, time)
            passed, gap = _criterion_4_rule(sl.state_at(time)[sl.alive()], mean, cov)
            ok &= passed
            detail += f"; t={time:g}: {gap}"
        n_steps = int(round(max(sz["times"]) / sz["delta"]))
        return Verdict(0.0, sz["paths"] * n_steps, sz["paths"], sl.n_exploded, bool(ok), seed, detail)


def _criterion_4_rule(final, mean_exact, cov_exact):
    """Criterion 4's rule: the mean within 4 standard errors, each
    covariance entry within max(4 SE, 5% of the exact value)."""
    n = len(final)
    mean_hat = final.mean(axis=0)
    se_mean = final.std(axis=0, ddof=1) / np.sqrt(n)
    ok = bool(np.all(np.abs(mean_hat - mean_exact) <= 4 * se_mean))
    centered = final - mean_hat
    cov_hat = (centered.T @ centered) / (n - 1)
    for i in range(cov_hat.shape[0]):
        for j in range(cov_hat.shape[0]):
            se = (centered[:, i] * centered[:, j]).std(ddof=1) / np.sqrt(n)
            ok &= bool(abs(cov_hat[i, j] - cov_exact[i, j]) <= max(4 * se, 0.05 * abs(cov_exact[i, j])))
    gap = np.max(np.abs(mean_hat - mean_exact) / se_mean)
    return ok, f"mean gap {gap:.2f} SE"


class IdentifyNull(Workload):
    """Criterion 9 in shape (one null check on the two-signature pair) plus
    one criterion-3 power check against the 1.25x scaled partner."""

    name = "identify-null"
    sizes = {
        "full": {"paths": 10_000, "delta": 1 / 128, "times": (0.5,), "perms": 500, "energy": 1024},
        "tiny": {"paths": 2000, "delta": 1 / 16, "times": (0.5,), "perms": 50, "energy": 256},
    }
    verdicts_per_pass = 2

    def setup(self):
        import causalsde as cs

        built = cs.load_builtin("two-signatures")
        self.sys_a, self.sys_b, self.spec = built.system, built.partner, built.intervention
        partner = self.sys_b.coeff
        scaled = cs.field_from_callable(
            2, 2,
            lambda x, f=partner: 1.25 * f(x),
            batch_func=lambda xs, f=partner: 1.25 * f.eval_batch(xs),
            declared_dependence=partner.declared_dependence,
            singular_points=partner.singular_points,
        )
        self.sys_scaled = dataclasses.replace(self.sys_b, coeff=scaled)

    def verdict(self, k, seed):
        import causalsde.stats as stats

        sz = self.size
        partner = self.sys_b if k == 0 else self.sys_scaled
        report = self.tracer.call(
            "stats.identifiability_check", stats.identifiability_check,
            self.sys_a, partner, self.spec, times=list(sz["times"]), n_paths=sz["paths"],
            delta=sz["delta"], seed=seed, alpha=0.01, n_permutations=sz["perms"],
            energy_max_points=sz["energy"],
        )
        hypothesis = report.extras["hypothesis"]
        if k == 0:
            # a null rejection is the calibrated false alarm, not a failure
            ok, null_rejection = hypothesis == "ok", report.verdict == "inconsistent"
        else:
            ok, null_rejection = report.verdict == "inconsistent", False
        n_steps = int(round(max(sz["times"]) / sz["delta"]))
        return Verdict(0.0, 2 * sz["paths"] * n_steps, 2 * sz["paths"],
                       int(sum(report.extras["n_exploded"])), ok, seed,
                       f"{'null' if k == 0 else 'power'}: {report.verdict} (hypothesis {hypothesis})",
                       null_rejection=null_rejection)


class CommuteCli(Workload):
    """Criterion 1 in shape, through ``causalsde.cli.main(["check-commute", ...])``."""

    name = "commute-cli"
    sizes = {
        "full": {"paths": 1000, "delta": 2.0**-11, "horizon": 1.0},
        "tiny": {"paths": 100, "delta": 2.0**-6, "horizon": 1.0},
    }
    verdicts_per_pass = 3
    # The SEM route reads a state-dependent hold from layer k-1 while the
    # reduced SDE reads layer k, so this config fails today with exit code 3
    # and a discrepancy of about delta / 4 (1.2e-4 at delta 2^-11).
    STATE_DEPENDENT = "state-dependent hold lags one step in check_commutation"
    # a discrepancy of this many deltas or more on that config is a new
    # failure, not the known one (below 1e-3 at the full size)
    KNOWN_DISCREPANCY_DELTAS = 2.0

    def setup(self):
        from causalsde.presets import ou_builtin_model

        sz = self.size
        common = {"grid": {"horizon": sz["horizon"], "delta": sz["delta"]}, "n_paths": sz["paths"]}
        model = ou_builtin_model()
        docs = [
            ("ou-builtin", {"system": {"kind": "builtin", "name": "ou"}}, ""),
            ("chem-builtin", {"system": {"kind": "builtin", "name": "chem"}}, ""),
            ("ou-state-hold", {
                "system": {
                    "kind": "ou",
                    "level": model.level.tolist(),
                    "reversion": model.reversion.tolist(),
                    "diffusion": model.diffusion.tolist(),
                    "initial": model.initial.mean.tolist(),
                    "labels": ["x1", "x2"],
                },
                "intervention": {"target": "x1", "value": "0.5 * x1"},
            }, self.STATE_DEPENDENT),
        ]
        self.configs = []
        for name, doc, known in docs:
            path = os.path.join(self.workdir, f"{name}.json")
            with open(path, "w") as fh:
                json.dump({**doc, **common}, fh)
            self.configs.append((name, path, known))

    def verdict(self, k, seed):
        import causalsde.cli as cli

        sz = self.size
        name, path, known = self.configs[k]
        dest = os.path.join(self.workdir, name)
        report_path = os.path.join(dest, "commutation.json")
        if os.path.exists(report_path):
            os.remove(report_path)
        argv = ["check-commute", "--config", path, "--out", dest, "--seed", str(seed)]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = self.tracer.call("cli.main", cli.main, argv)
        report = {}
        if os.path.exists(report_path):
            with open(report_path) as fh:
                report = json.load(fh)
        matched = bool(report.get("explosion_pattern_match", False))
        ok = code == 0 and matched
        # only the documented symptom is the known defect: a failing verdict
        # (exit 3) with the explosion pattern matched and a one-step-lag discrepancy
        discrepancy = report.get("max_discrepancy")
        defect = known if (not ok and code == 3 and matched and discrepancy is not None
                           and discrepancy < self.KNOWN_DISCREPANCY_DELTAS * sz["delta"]) else ""
        exploded = int(report.get("n_exploded_sde_route", 0)) + int(report.get("n_exploded_sem_route", 0))
        n_steps = int(round(sz["horizon"] / sz["delta"]))
        return Verdict(0.0, 2 * sz["paths"] * n_steps, 2 * sz["paths"], exploded, ok, seed,
                       f"{name}: exit {code}, max discrepancy {report.get('max_discrepancy')}",
                       known_defect=defect)


class SemigroupJump(Workload):
    """Criterion 5 in shape on the 1-d two-atom jump system, compared with
    ``apply_generator``."""

    name = "semigroup-jump"
    sizes = {
        "full": {"paths": 250_000, "t": 1e-3, "substeps": 64, "xs": (0.0, 0.5, -0.5)},
        "tiny": {"paths": 20_000, "t": 1e-3, "substeps": 16, "xs": (0.0, 0.5, -0.5)},
    }
    verdicts_per_pass = 3

    def setup(self):
        import causalsde as cs

        driver = cs.LevyTriplet(
            dim=1, alpha=[0.3], cov=0.5,
            jumps=(
                cs.JumpAtom(rate=1.0, location=np.array([2.0])),  # outside the truncation ball
                cs.JumpAtom(rate=1.5, location=np.array([-0.5])),  # inside it
            ),
            trunc_radius=1.0,
        )
        wavy = cs.field_from_callable(
            1, 1, lambda x: np.array([[1.0 + 0.25 * np.sin(x[0])]]),
            batch_func=lambda xs: (1.0 + 0.25 * np.sin(xs))[:, :, None],
        )
        self.system = cs.SdeSystem(wavy, driver, cs.InitialLaw(np.zeros(1)))
        self.f = cs.ScalarField2(value=lambda x: 1.0 / (1.0 + x[..., 0] ** 2))

    def verdict(self, k, seed):
        import causalsde.generator as gen

        sz, t = self.size, self.tracer
        x = np.array([sz["xs"][k]])
        exact = t.call("generator.apply_generator", gen.apply_generator, self.system, self.f, x)
        est = t.call("generator.semigroup_estimate", gen.semigroup_estimate,
                     self.system, self.f, x, t=sz["t"], n_paths=sz["paths"], seed=seed,
                     n_substeps=sz["substeps"])
        tol = max(3 * est.std_error, 0.05 * abs(exact) + 1e-3)
        ok = abs(est.estimate - exact) <= tol
        return Verdict(0.0, sz["paths"] * sz["substeps"], sz["paths"], est.n_exploded, bool(ok), seed,
                       f"x={x[0]:g}: |{est.estimate:.4f} - {exact:.4f}| vs tol {tol:.4f}")


WORKLOADS = {w.name: w for w in (OuClosedForm, IdentifyNull, CommuteCli, SemigroupJump)}
