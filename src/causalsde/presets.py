"""Built-in example systems with default interventions.

Parameter values (rate constants, initial states, held levels) are
implementation defaults chosen for numerical tameness; the coefficient
shapes are what matters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .intervention import InterventionSpec, ito_pair_system
from .ou import OuModel, ou_to_system
from .system import (
    CoefficientField,
    InitialLaw,
    SdeSystem,
    canonical_driver,
    drift_diffusion_field,
    field_from_callable,
)
from .driver import LevyTriplet

__all__ = ["Builtin", "load_builtin", "BUILTIN_NAMES", "two_signature_pair", "ou_builtin_model"]


@dataclass(frozen=True)
class Builtin:
    """A named example: system, default intervention, optional partner system."""

    name: str
    system: SdeSystem
    intervention: InterventionSpec
    partner: SdeSystem | None = None
    description: str = ""


BUILTIN_NAMES = ("chem", "ou", "two-signatures", "ito-counterexample")

# chem defaults: influx 1, conversion/degradation rates 0.5
_CHEM_A = 1.0
_CHEM_B11 = 0.5
_CHEM_B12 = 0.5
_CHEM_B22 = 0.5


def _chem_builtin() -> Builtin:
    """Two-species reaction network with a fully coupled linear drift.

    Drift (per coordinate): (b12 y - b11 x, a - b12 x - b22 y); diffusion
    rows are the stoichiometry columns scaled by the square roots of the
    reaction rates (influx, conversion, two degradations).
    """
    a0, b11, b12, b22 = _CHEM_A, _CHEM_B11, _CHEM_B12, _CHEM_B22

    def drift(xs: np.ndarray) -> np.ndarray:
        out = np.empty((xs.shape[0], 2))
        out[:, 0] = b12 * xs[:, 1] - b11 * xs[:, 0]
        out[:, 1] = a0 - b12 * xs[:, 0] - b22 * xs[:, 1]
        return out

    def diffusion(xs: np.ndarray) -> np.ndarray:
        x, y = xs[:, 0], xs[:, 1]
        out = np.zeros((xs.shape[0], 2, 4))
        out[:, 0, 1] = np.sqrt(b12 * y)
        out[:, 0, 2] = -np.sqrt(b11 * x)
        out[:, 1, 0] = np.sqrt(a0)
        out[:, 1, 1] = -np.sqrt(b12 * y)
        out[:, 1, 3] = -np.sqrt(b22 * y)
        return out

    dep = np.ones((2, 2), dtype=bool)
    field = drift_diffusion_field(
        2,
        4,
        drift,
        diffusion,
        declared_dependence=dep,
        probe_box=((1e-3, 5.0), (1e-3, 5.0)),
        source="chem",
    )
    system = SdeSystem(
        coeff=field,
        driver=canonical_driver(4),
        initial=InitialLaw(np.array([1.0, 1.0])),
        labels=("X", "Y"),
    )
    return Builtin(
        name="chem",
        system=system,
        intervention=InterventionSpec(target=1, value=1.0),
        description="two-species reaction network; hold the second concentration",
    )


_OU_B = np.array([[-1.0, 0.5], [0.3, -2.0]])


def ou_builtin_model() -> OuModel:
    """The mean-reverting model behind the ``ou`` builtin."""
    return OuModel(
        level=np.zeros(2),
        reversion=_OU_B,
        diffusion=np.eye(2),
        initial=np.array([1.0, 1.0]),
    )


def _ou_builtin() -> Builtin:
    model = ou_builtin_model()
    system = ou_to_system(model, labels=("x1", "x2"))
    return Builtin(
        name="ou",
        system=system,
        intervention=InterventionSpec(target=0, value=2.0),
        description="two-dimensional mean-reverting system; hold the first coordinate at 2",
    )


def _two_sig_field_lower() -> CoefficientField:
    """Field with rows (x1, 0) and (x2^2, -x1 x2)/|x|; zero at the origin."""

    def batch(xs: np.ndarray) -> np.ndarray:
        x1, x2 = xs[:, 0], xs[:, 1]
        r = np.sqrt(x1**2 + x2**2)
        safe = np.where(r > 0, r, 1.0)
        out = np.zeros((xs.shape[0], 2, 2))
        out[:, 0, 0] = x1
        out[:, 1, 0] = np.where(r > 0, x2**2 / safe, 0.0)
        out[:, 1, 1] = np.where(r > 0, -x1 * x2 / safe, 0.0)
        return out

    dep = np.array([[True, True], [False, True]])
    return field_from_callable(
        2,
        2,
        batch_func=batch,
        declared_dependence=dep,
        singular_points=(np.zeros(2),),
        source="two-signatures",
    )


def _two_sig_field_upper() -> CoefficientField:
    """Orthogonal-rotation twin: rows (x1^2, x1 x2)/|x| and (0, x2)."""

    def batch(xs: np.ndarray) -> np.ndarray:
        x1, x2 = xs[:, 0], xs[:, 1]
        r = np.sqrt(x1**2 + x2**2)
        safe = np.where(r > 0, r, 1.0)
        out = np.zeros((xs.shape[0], 2, 2))
        out[:, 0, 0] = np.where(r > 0, x1**2 / safe, 0.0)
        out[:, 0, 1] = np.where(r > 0, x1 * x2 / safe, 0.0)
        out[:, 1, 1] = x2
        return out

    dep = np.array([[True, False], [True, True]])
    return field_from_callable(
        2,
        2,
        batch_func=batch,
        declared_dependence=dep,
        singular_points=(np.zeros(2),),
        source="two-signatures-twin",
    )


def two_signature_pair() -> tuple[SdeSystem, SdeSystem]:
    """Two pure-diffusion systems with equal squared coefficients but
    different dependence graphs (one field is the other times a pointwise
    orthogonal rotation)."""
    driver = LevyTriplet(dim=2, alpha=np.zeros(2), cov=np.eye(2))
    x0 = InitialLaw(np.array([1.0, 1.0]))
    sys_a = SdeSystem(coeff=_two_sig_field_lower(), driver=driver, initial=x0, labels=("x1", "x2"))
    sys_b = SdeSystem(coeff=_two_sig_field_upper(), driver=driver, initial=x0, labels=("x1", "x2"))
    return sys_a, sys_b


def _two_signatures_builtin() -> Builtin:
    sys_a, sys_b = two_signature_pair()
    return Builtin(
        name="two-signatures",
        system=sys_a,
        intervention=InterventionSpec(target=1, value=1.0),
        partner=sys_b,
        description="same squared coefficients, different dependence graphs",
    )


def _ito_builtin() -> Builtin:
    system = ito_pair_system(lambda x: np.square(x), lambda x: 2.0 * x, lambda x: 2.0 + 0.0 * x)
    return Builtin(
        name="ito-counterexample",
        system=system,
        intervention=InterventionSpec(target=0, value=1.0),
        description="Wiener coordinate paired with its square via the chain rule",
    )


def load_builtin(name: str) -> Builtin:
    """Look up a built-in example by name."""
    factories = {
        "chem": _chem_builtin,
        "ou": _ou_builtin,
        "two-signatures": _two_signatures_builtin,
        "ito-counterexample": _ito_builtin,
    }
    try:
        return factories[name]()
    except KeyError:
        raise KeyError(f"unknown builtin {name!r}; known: {', '.join(BUILTIN_NAMES)}") from None
