"""Command-line interface: config-driven subcommands over the toolkit.

Exit codes: 0 success, 1 configuration error, 2 runtime error, 3 a
check-* subcommand produced a failing verdict.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from ._rng import STREAM_VERSION
from .config import ConfigError, ExperimentConfig, load_config
from .euler import (
    Grid,
    check_commutation,
    convergence_study,
    ensemble_to_csv,
    ito_counterexample,
    simulate,
)
from .generator import apply_generator, compute_terms, bump_field_battery
from .intervention import intervene_sde
from .ou import ou_intervene, ou_transition
from .presets import BUILTIN_NAMES, load_builtin, ou_builtin_model
from .stats import identifiability_check
from .system import probe_points, probe_signature

EXIT_OK, EXIT_CONFIG, EXIT_RUNTIME, EXIT_VERDICT = 0, 1, 2, 3


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def write_json(path: str, report: dict) -> None:
    """Save a report, stamped with the stream layout its samples came from."""
    with open(path, "w") as fh:
        json.dump(_jsonable({**report, "stream_version": STREAM_VERSION}), fh, indent=2)
        fh.write("\n")


def _ensure_out(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    if args.paths is not None and args.paths < 1:
        raise ConfigError("--paths must be at least 1")
    if args.seed is not None and args.seed < 0:
        raise ConfigError("--seed must be nonnegative")
    if args.seed is not None:
        cfg.seed = int(args.seed)
    if args.paths is not None:
        cfg.n_paths = int(args.paths)
    if args.alpha is not None:
        cfg.alpha = float(args.alpha)
    if args.delta is not None or args.horizon is not None:
        base = cfg.grid
        horizon = args.horizon if args.horizon is not None else (base.horizon if base else None)
        delta = args.delta if args.delta is not None else (base.delta if base else None)
        if horizon is None or delta is None:
            raise ConfigError("grid overrides need both --horizon and --delta (or a config grid)")
        cfg.grid = Grid(float(horizon), float(delta))
    return cfg


def _need(cfg: ExperimentConfig, attr: str, what: str):
    value = getattr(cfg, attr)
    if value is None or (isinstance(value, list) and not value):
        raise ConfigError(f"this subcommand needs {what}")
    return value


def _cmd_simulate(cfg: ExperimentConfig, out: str) -> int:
    grid = _need(cfg, "grid", "a grid (horizon, delta)")
    ens = simulate(cfg.system, grid, cfg.n_paths, cfg.seed)
    target = os.path.join(out, "paths.csv")
    ensemble_to_csv(ens, target)
    print(f"wrote {target} ({ens.n_paths} paths, {ens.n_exploded} exploded)")
    return EXIT_OK


def _cmd_intervene(cfg: ExperimentConfig, out: str) -> int:
    spec = _need(cfg, "intervention", "an intervention")
    reduced = intervene_sde(cfg.system, spec)
    summary = {
        "target": cfg.system.labels[spec.target],
        "value": spec.value if spec.is_constant else str(spec.value),
        "labels": list(reduced.labels),
        "dimension": reduced.p,
        "driver_dimension": reduced.d,
    }
    write_json(os.path.join(out, "intervened_system.json"), summary)
    print(json.dumps(_jsonable(summary)))
    if cfg.grid is not None:
        ens = simulate(reduced, cfg.grid, cfg.n_paths, cfg.seed)
        target = os.path.join(out, "intervened_paths.csv")
        ensemble_to_csv(ens, target)
        print(f"wrote {target} ({ens.n_paths} paths, {ens.n_exploded} exploded)")
    return EXIT_OK


def _cmd_signature(cfg: ExperimentConfig, out: str) -> int:
    sig = probe_signature(cfg.system)
    labels = cfg.system.labels
    lines = [f"{labels[i]} -> {labels[j]}" for i, j in sig.edge_list()]
    with open(os.path.join(out, "signature.txt"), "w") as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))
    with open(os.path.join(out, "signature.dot"), "w") as fh:
        fh.write(sig.to_dot(labels) + "\n")
    print("\n".join(lines) if lines else "(no edges)")
    print(f"{len(lines)} edges")
    return EXIT_OK


def _cmd_generator(cfg: ExperimentConfig, out: str) -> int:
    system = cfg.system
    points = np.vstack([system.initial.mean[None, :], probe_points(system.coeff, 4)[:3]])
    fields = bump_field_battery(system.p)
    terms = compute_terms(system, points)
    vals = [[apply_generator(system, f, points, form=fm) for fm in ("driver", "state")] for f in fields]
    entries = [
        {
            "point": list(x),
            "beta": list(terms.beta[k]),
            "diffusion": terms.diffusion[k],
            "jump_atoms": [{"rate": r, "location": list(loc[k])} for r, loc in terms.atoms],
            "values": [{"field": i, "driver_form": d[k], "state_form": s[k]} for i, (d, s) in enumerate(vals)],
        }
        for k, x in enumerate(points)
    ]
    report = {"points": entries, "n_fields": len(fields)}
    write_json(os.path.join(out, "generator.json"), report)
    print(f"evaluated generator at {len(points)} points, {len(fields)} test fields")
    return EXIT_OK


def _cmd_check_commute(cfg: ExperimentConfig, out: str) -> int:
    spec = _need(cfg, "intervention", "an intervention")
    grid = _need(cfg, "grid", "a grid (horizon, delta)")
    report = check_commutation(cfg.system, spec, grid, cfg.n_paths, cfg.seed)
    write_json(os.path.join(out, "commutation.json"), report)
    print(
        f"max discrepancy {report['max_discrepancy']:.3e} over {report['n_paths']} paths: "
        + ("PASS" if report["passed"] else "FAIL")
    )
    return EXIT_OK if report["passed"] else EXIT_VERDICT


def _cmd_check_identify(cfg: ExperimentConfig, out: str) -> int:
    spec = _need(cfg, "intervention", "an intervention")
    partner = cfg.partner if cfg.partner is not None else cfg.system
    times = cfg.times or [0.5, 1.0]
    delta = cfg.grid.delta if cfg.grid is not None else 1e-3
    report = identifiability_check(
        cfg.system,
        partner,
        spec,
        times,
        cfg.n_paths,
        delta,
        cfg.seed,
        alpha=cfg.alpha,
    )
    write_json(os.path.join(out, "identifiability.json"), report.to_dict())
    print(f"verdict: {report.verdict} (hypothesis {report.extras.get('hypothesis', 'ok')})")
    return EXIT_OK if report.passed else EXIT_VERDICT


def _cmd_convergence(cfg: ExperimentConfig, out: str) -> int:
    deltas = _need(cfg, "deltas", "convergence.deltas")
    grid = _need(cfg, "grid", "a grid (horizon, delta)")
    study = convergence_study(cfg.system, None, deltas, grid.horizon, cfg.n_paths, cfg.seed)
    target = os.path.join(out, "convergence.csv")
    with open(target, "w") as fh:
        fh.write("delta,rms_sup_error,n_excluded\n")
        for d, rms, excl in study.rows:
            fh.write(f"{d!r},{rms!r},{excl}\n")
    write_json(
        os.path.join(out, "convergence.json"),
        {"rows": [list(r) for r in study.rows], "slope": study.slope},
    )
    print(f"fitted slope {study.slope:.3f}; wrote {target}")
    return EXIT_OK


def _demo_chem(out: str, seed: int) -> int:
    built = load_builtin("chem")
    grid = Grid(1.0, 2.0**-8)
    report = check_commutation(built.system, built.intervention, grid, 100, seed)
    write_json(os.path.join(out, "chem_commutation.json"), report)
    ens = simulate(built.system, grid, 100, seed)
    ensemble_to_csv(ens, os.path.join(out, "chem_paths.csv"))
    print(f"commutation max discrepancy {report['max_discrepancy']:.3e}")
    return EXIT_OK if report["passed"] else EXIT_VERDICT


def _demo_ou(out: str, seed: int) -> int:
    built = load_builtin("ou")
    grid = Grid(1.0, 2.0**-8)
    commute = check_commutation(built.system, built.intervention, grid, 100, seed)
    model = ou_builtin_model()
    reduced_model = ou_intervene(model, built.intervention.target, built.intervention.constant())
    mean, cov = ou_transition(reduced_model, reduced_model.initial.mean, 1.0)
    reduced_sys = intervene_sde(built.system, built.intervention)
    ens = simulate(reduced_sys, Grid(1.0, 1e-2), 20000, seed)
    final = ens.state_at(1.0)[ens.exploded_at < 0]
    sample_mean = final.mean(axis=0)
    sample_cov = np.cov(final.T).reshape(reduced_sys.p, reduced_sys.p)
    se = final.std(axis=0, ddof=1) / np.sqrt(len(final))
    report = {
        "commutation": commute,
        "transition_mean": list(mean),
        "transition_cov": cov,
        "sample_mean": list(sample_mean),
        "sample_cov": sample_cov,
        "mean_z": list((sample_mean - mean) / se),
    }
    write_json(os.path.join(out, "ou_check.json"), report)
    ok = commute["passed"] and bool(np.all(np.abs(report["mean_z"]) < 6))
    print(f"commutation {commute['max_discrepancy']:.3e}; mean z {report['mean_z']}")
    return EXIT_OK if ok else EXIT_VERDICT


def _demo_two_signatures(out: str, seed: int) -> int:
    built = load_builtin("two-signatures")
    report = identifiability_check(
        built.system,
        built.partner,
        built.intervention,
        times=[0.5, 1.0],
        n_paths=4000,
        delta=1.0 / 256,
        seed=seed,
        alpha=0.01,
    )
    write_json(os.path.join(out, "two_signatures_identifiability.json"), report.to_dict())
    print(f"verdict: {report.verdict}")
    return EXIT_OK if report.passed else EXIT_VERDICT


def _demo_ito(out: str, seed: int) -> int:
    report = ito_counterexample(
        lambda x: np.square(x),
        lambda x: 2.0 * x,
        lambda x: 2.0 + 0.0 * x,
        zeta=1.0,
        horizon=1.0,
        delta=2.0**-8,
        n_paths=200,
        seed=seed,
    )
    report["contradiction"] = bool(
        report["max_distance_from_assumed_constant"]
        >= report["distance_assumed_at_time_zero"] - 1e-12
        and report["distance_assumed_at_time_zero"] > 0
    )
    write_json(os.path.join(out, "ito_counterexample.json"), report)
    print(
        "definition-route distance "
        f"{report['max_distance_from_definition_path']:.3e}; "
        f"distance from assumed constant {report['max_distance_from_assumed_constant']:.3f}"
    )
    return EXIT_OK


def _cmd_demo(args) -> int:
    out = _ensure_out(args.out)
    seed = args.seed if args.seed is not None else 0
    runner = {
        "chem": _demo_chem,
        "ou": _demo_ou,
        "two-signatures": _demo_two_signatures,
        "ito-counterexample": _demo_ito,
    }.get(args.name)
    if runner is None:
        raise ConfigError(f"unknown demo {args.name!r}; known: {', '.join(BUILTIN_NAMES)}")
    return runner(out, int(seed))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causalsde",
        description="Simulate Levy-driven SDE systems and verify their intervention calculus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config_required=True):
        if config_required:
            p.add_argument("--config", required=True, help="experiment config (JSON)")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--paths", type=int, default=None)
        p.add_argument("--delta", type=float, default=None)
        p.add_argument("--horizon", type=float, default=None)
        p.add_argument("--alpha", type=float, default=None)

    for name in ("simulate", "intervene", "signature", "generator", "check-commute",
                 "check-identify", "convergence"):
        add_common(sub.add_parser(name))
    demo = sub.add_parser("demo", help="run a built-in example end to end")
    demo.add_argument("name", choices=BUILTIN_NAMES)
    add_common(demo, config_required=False)
    return parser


_HANDLERS = {
    "simulate": _cmd_simulate,
    "intervene": _cmd_intervene,
    "signature": _cmd_signature,
    "generator": _cmd_generator,
    "check-commute": _cmd_check_commute,
    "check-identify": _cmd_check_identify,
    "convergence": _cmd_convergence,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "demo":
            return _cmd_demo(args)
        cfg = load_config(args.config)
        cfg = _apply_overrides(cfg, args)
        out = _ensure_out(args.out)
        return _HANDLERS[args.command](cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
