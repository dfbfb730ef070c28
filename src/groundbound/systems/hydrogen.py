"""3D hydrogen with the one-parameter exponential trial ``S = -lam * r``.

The local energy collapses to a radial profile

    E_loc(r) = (lam - 1)/r - lam^2/2

flat at ``lam = 1`` (the exact ground state).  For ``lam != 1`` one of the two
declared limits is -inf: the origin for ``lam < 1`` (broken cusp), infinity
never (the r -> inf limit is the finite ``-lam^2/2``), but the origin limit is
+inf for ``lam > 1``.  Maximizing the lower bound over ``lam`` therefore pins
``lam = 1`` exactly; this is the reference family for the parameter search.
"""

from __future__ import annotations

import math

import numpy as np

from ..core import (
    AsymptoticLimit,
    Domain,
    Hamiltonian,
    LocalEnergyField,
    LogTrialFunction,
    SingularSet,
)
from ..search import TrialFamily

__all__ = [
    "hydrogen_trial_3d",
    "hydrogen_hamiltonian_3d",
    "hydrogen_radial_field",
    "hydrogen_exponent_family",
]

ORIGIN_TUBE = 1e-6
RADIAL_BOX = (0.0, 40.0)


def hydrogen_trial_3d(lam: float = 1.0) -> LogTrialFunction:
    """S = -lam |x| over R^3 with analytic gradient and Laplacian."""

    def r_of(qs: np.ndarray) -> np.ndarray:
        return np.linalg.norm(qs, axis=1)

    def derivs(qs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        r = r_of(qs)
        return -lam * qs / r[:, None], -2.0 * lam / r

    return LogTrialFunction(
        s=lambda qs: -lam * r_of(qs),
        derivs=derivs,
        normalizable=lam > 0,
        label=f"hydrogen exponential trial (lam={lam})",
    )


def hydrogen_hamiltonian_3d() -> Hamiltonian:
    origin = SingularSet(
        name="nucleus",
        tube=lambda qs: np.linalg.norm(qs, axis=1) <= ORIGIN_TUBE,
        limit=None,
    )
    dom = Domain(
        dimension=3,
        kind="unbounded",
        box=((-20.0, 20.0),) * 3,
        excluded_singular_sets=(origin,),
    )
    return Hamiltonian.isotropic(0.5, lambda qs: -1.0 / np.linalg.norm(qs, axis=1), dom)


def hydrogen_radial_field(lam: float = 1.0) -> LocalEnergyField:
    """The radial profile of the trial's local energy, searched over r > 0."""
    tail = -lam * lam / 2.0
    if lam > 1.0:
        origin_limit = math.inf
    elif lam < 1.0:
        origin_limit = -math.inf
    else:
        origin_limit = tail

    origin = SingularSet(
        name="nucleus",
        tube=lambda qs: qs[:, 0] <= ORIGIN_TUBE,
        limit=origin_limit,
    )

    def positive_r(qs: np.ndarray) -> np.ndarray:
        return -qs[:, 0]

    dom = Domain(
        dimension=1,
        kind="unbounded",
        constraint=positive_r,
        box=(RADIAL_BOX,),
        excluded_singular_sets=(origin,),
    )

    def evaluate(qs: np.ndarray) -> np.ndarray:
        return _radial(lam, qs[:, 0])

    return LocalEnergyField(
        domain=dom,
        evaluate=evaluate,
        asymptotic_limits=(AsymptoticLimit("r -> inf", tail),),
        label=f"hydrogen radial local energy (lam={lam})",
    )


def _radial(lam: float | np.ndarray, r: np.ndarray) -> np.ndarray:
    """The radial local energy ``(lam - 1) / r - lam^2 / 2``, for one ``lam``
    or one ``lam`` per point."""
    return (lam - 1.0) / r + (-lam * lam / 2.0)


def _radial_rows(controls: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """Member ``controls[j]`` at ``qs[j]``; the same formula as the members'
    fields, so the values match bit for bit."""
    return _radial(controls[:, 0], qs[:, 0])


def hydrogen_exponent_family(box: tuple[float, float] = (0.5, 2.0)) -> TrialFamily:
    return TrialFamily(
        control_box=(box,),
        build=lambda lam: hydrogen_radial_field(float(lam[0])),
        label="hydrogen exponential family",
        evaluate_rows=_radial_rows,
    )
