"""1D quartic oscillator ``V = r^2 q^2 (q^2 + eta d2) / 2`` with a
semiclassical-style base trial.

With ``w = q^2 + d2`` the base log-trial is

    S0 = -(r/3) w^{3/2} + (r d2 (1-eta)/2) w^{1/2} - (1/2) ln w
         - (r d2^2 / 2) w^{-1/2}

The first two terms kill the polynomial growth of ``V - S0'^2/2`` at
infinity, the log term kills its ``r w^{1/2}`` remainder against ``-S0''/2``,
and the last (inverse square-root) term shifts the resulting constant so the
asymptotic limit of the local energy is

    E_inf = (r^2 d2^2 / 2) (1 - (1 - eta)^2 / 4)

(= 0 for the double-well sign eta = -1), which beats the trivial lower bound
``min V``.  The trial decays like ``exp(-r |q|^3 / 3)``, so adding bounded
bumps never threatens normalizability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import (
    AsymptoticLimit,
    Domain,
    Hamiltonian,
    LocalEnergyField,
    LogTrialFunction,
    coordinate_1d,
    make_log_field,
)

__all__ = ["QuarticOscillator", "quartic_system", "quartic_field"]

BOX_HALF_WIDTH = 8.0


@dataclass(frozen=True)
class QuarticOscillator:
    """Potential parameters: stiffness ``r > 0``, sign ``eta``, offset ``delta2 > 0``."""

    r: float
    eta: int
    delta2: float

    def __post_init__(self) -> None:
        if self.r <= 0:
            raise ValueError("stiffness r must be positive")
        if self.eta not in (+1, -1):
            raise ValueError("eta must be +1 or -1")
        if self.delta2 <= 0:
            raise ValueError("delta2 must be positive (the log term needs w > 0)")

    def potential(self, qs: np.ndarray) -> np.ndarray:
        q = coordinate_1d(qs)
        q2 = q * q
        return self.r**2 * q2 * (q2 + self.eta * self.delta2) / 2.0

    def min_potential(self) -> float:
        """min V: 0 at the origin for eta=+1, -r^2 d2^2/8 at q^2 = d2/2 for eta=-1."""
        if self.eta == +1:
            return 0.0
        return -(self.r**2) * self.delta2**2 / 8.0

    def asymptotic_local_energy(self) -> float:
        return (self.r**2 * self.delta2**2 / 2.0) * (1.0 - (1.0 - self.eta) ** 2 / 4.0)

    def box(self) -> tuple[tuple[float, float], ...]:
        return ((-BOX_HALF_WIDTH, BOX_HALF_WIDTH),)

    def domain(self) -> Domain:
        return Domain(dimension=1, kind="unbounded", box=self.box())

    def hamiltonian(self) -> Hamiltonian:
        return Hamiltonian.isotropic(0.5, self.potential, self.domain())

    def _s_derivs(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """S0' and S0'' at the points ``q``, without building S0 itself.

        Each shared power of ``w`` is built once, and each temporary is
        dropped after its last use.
        """
        r, d2, eta = self.r, self.delta2, self.eta
        k1 = r * d2 * (1.0 - eta) / 2.0
        k2 = r * d2 * d2 / 2.0
        q2 = q * q
        w = q2 + d2
        sw = np.sqrt(w)
        w_sw = w * sw
        inv_w = 1.0 / w
        ww = w * w
        del w
        neg_r_sw = -r * sw
        # S0' = q * bracket
        s1 = q * (neg_r_sw + k1 / sw - inv_w + k2 / w_sw)
        s2 = (
            neg_r_sw
            - r * q2 / sw
            + k1 * (1.0 / sw - q2 / w_sw)
            - inv_w
            + 2.0 * q2 / ww
            + k2 * (1.0 / w_sw - 3.0 * q2 / (ww * sw))
        )
        return s1, s2

    def log_trial(self) -> LogTrialFunction:
        def derivs(qs):
            s1, s2 = self._s_derivs(coordinate_1d(qs))
            return s1[:, None], s2

        return LogTrialFunction(derivs=derivs, normalizable=True)


def quartic_system(qo: QuarticOscillator) -> tuple[Hamiltonian, LogTrialFunction]:
    """The Hamiltonian and base trial, derivatives in closed form."""
    return qo.hamiltonian(), qo.log_trial()


def quartic_field(qo: QuarticOscillator) -> LocalEnergyField:
    """Local-energy field of the base trial.

    The asymptotic limit is a property of the base trial's tail and survives
    any bounded, localized perturbation (refinement's bumps carry it over).
    """
    return make_log_field(
        qo.hamiltonian(),
        qo.log_trial(),
        asymptotic_limits=(
            AsymptoticLimit("|q| -> inf (both tails)", qo.asymptotic_local_energy()),
        ),
    )
