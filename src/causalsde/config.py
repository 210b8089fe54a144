"""Experiment configuration: a JSON document with a published schema.

Expressions (coefficient entries, reaction rates, held values) are
embedded as strings in the expression language; interventions address
coordinates by label.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import jsonschema
import numpy as np

from .driver import JumpAtom, LevyTriplet
from .euler import Grid
from .intervention import InterventionSpec, intervene_sde
from .ou import OuModel, ou_to_system
from .presets import load_builtin
from .system import InitialLaw, SdeSystem, build_chem_system, field_from_expressions

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "config_schema"]


class ConfigError(ValueError):
    pass


def config_schema() -> dict:
    with resources.files("causalsde").joinpath("config_schema.json").open("rb") as fh:
        return json.load(fh)


@dataclass
class ExperimentConfig:
    system: SdeSystem
    partner: SdeSystem | None
    intervention: InterventionSpec | None
    grid: Grid | None
    n_paths: int
    seed: int
    times: list[float]
    alpha: float
    deltas: list[float]


def _initial_from(node) -> InitialLaw:
    if isinstance(node, dict):
        return InitialLaw(np.asarray(node["mean"], dtype=float), np.asarray(node["cov"], dtype=float))
    return InitialLaw(np.asarray(node, dtype=float))


def _driver_from(node: dict) -> LevyTriplet:
    alpha = np.asarray(node["alpha"], dtype=float)
    jumps = tuple(
        JumpAtom(rate=j["rate"], location=np.asarray(j["location"], dtype=float))
        for j in node.get("jumps", [])
    )
    return LevyTriplet(
        dim=alpha.size,
        alpha=alpha,
        cov=np.asarray(node["cov"], dtype=float),
        jumps=jumps,
        trunc_radius=node.get("trunc_radius", 1.0),
    )


def _system_from(doc: dict) -> tuple[SdeSystem, SdeSystem | None, InterventionSpec | None]:
    node = doc["system"]
    kind = node["kind"]
    default_spec = None
    partner = None
    if kind == "builtin":
        if "name" not in node:
            raise ConfigError("builtin system needs a name")
        built = load_builtin(node["name"])
        return built.system, built.partner, built.intervention
    if kind == "ou":
        for key in ("level", "reversion", "diffusion", "initial"):
            if key not in node:
                raise ConfigError(f"ou system needs {key!r}")
        model = OuModel(
            level=np.asarray(node["level"], dtype=float),
            reversion=np.asarray(node["reversion"], dtype=float),
            diffusion=np.asarray(node["diffusion"], dtype=float),
            initial=_initial_from(node["initial"]),
        )
        labels = tuple(node.get("labels", ()))
        return ou_to_system(model, labels=labels), partner, default_spec
    if kind == "chem":
        for key in ("stoichiometry", "rates", "initial"):
            if key not in node:
                raise ConfigError(f"chem system needs {key!r}")
        if isinstance(node["initial"], dict):
            raise ConfigError("chem systems take a fixed initial concentration vector")
        system = build_chem_system(
            np.asarray(node["stoichiometry"], dtype=float),
            list(node["rates"]),
            np.asarray(node["initial"], dtype=float),
            labels=tuple(node.get("labels", ())),
        )
        return system, partner, default_spec
    # expression matrix
    for key in ("matrix", "initial"):
        if key not in node:
            raise ConfigError(f"expression system needs {key!r}")
    if "driver" not in doc:
        raise ConfigError("expression systems need an explicit driver")
    field = field_from_expressions(node["matrix"])
    system = SdeSystem(
        coeff=field,
        driver=_driver_from(doc["driver"]),
        initial=_initial_from(node["initial"]),
        labels=tuple(node.get("labels", ())),
    )
    return system, partner, default_spec


def load_config(source: str | dict) -> ExperimentConfig:
    """Parse, schema-validate and materialize a configuration document."""
    if isinstance(source, dict):
        doc = source
    else:
        try:
            with open(source) as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    try:
        jsonschema.validate(doc, config_schema())
    except jsonschema.ValidationError as exc:
        raise ConfigError(f"config does not match schema: {exc.message}") from exc

    try:
        system, partner, default_spec = _system_from(doc)
    except (ValueError, KeyError) as exc:
        raise ConfigError(str(exc)) from exc

    if "driver" in doc and doc["system"]["kind"] != "expression":
        raise ConfigError("an explicit driver is only accepted for expression systems")

    intervention = default_spec
    if "intervention" in doc:
        node = doc["intervention"]
        try:
            target = system.label_index(node["target"])
        except KeyError as exc:
            raise ConfigError(
                f"intervention target {node['target']!r} is not a coordinate label "
                "(the driving noise cannot be a target)"
            ) from exc
        try:
            intervention = InterventionSpec(target=target, value=node["value"])
            intervene_sde(system, intervention)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    grid = None
    if "grid" in doc:
        try:
            grid = Grid(doc["grid"]["horizon"], doc["grid"]["delta"])
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    test_node = doc.get("test", {})
    return ExperimentConfig(
        system=system,
        partner=partner,
        intervention=intervention,
        grid=grid,
        n_paths=int(doc.get("n_paths", 1000)),
        seed=int(doc.get("seed", 0)),
        times=[float(t) for t in test_node.get("times", [])],
        alpha=float(test_node.get("alpha", 0.01)),
        deltas=[float(d) for d in doc.get("convergence", {}).get("deltas", [])],
    )
