"""Asymmetric annular billiard: Dirichlet Laplacian between two offset circles.

The region is ``b < 0`` for the boundary polynomial
``b = [x^2 + y^2 - r^2] [(x-delta)^2 + y^2 - 1]`` (inner circle of radius ``r``
at the origin, outer unit circle centered at ``(delta, 0)``), with
``H = -Delta/2``.  The simplest trial is ``phi = -b`` (positive inside), whose
local energy has the closed form

    E_loc = -Delta(b) / (2 b),   Delta(b) = 16 [(x - delta/2)^2 + y^2 - (1+r^2)/4]

The quadric ``Delta(b) = 0`` is a circle that lies strictly inside the inner
disk whenever the annulus is nondegenerate, so ``Delta(b) > 0`` on the closure
and the local energy diverges to +inf at the boundary: the trial certifies a
lower bound only, and the reported supremum is the declared boundary limit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import Domain, Hamiltonian, LocalEnergyField, SingularSet
from ..polynomials import MultivariatePolynomial

__all__ = ["AnnularBilliard", "billiard_local_energy_field", "unit_disk_field"]

BOUNDARY_TUBE = 1e-6


@dataclass(frozen=True)
class AnnularBilliard:
    """Annulus between circles of radius ``r`` (inner) and 1, centers ``delta`` apart."""

    r: float
    delta: float

    def __post_init__(self) -> None:
        if not 0.0 < self.r < 1.0:
            raise ValueError("inner radius must lie in (0, 1)")
        if not 0.0 <= self.delta < 1.0 - self.r:
            raise ValueError("need delta + r < 1 for a nondegenerate annulus")

    def boundary_polynomial(self) -> MultivariatePolynomial:
        P = MultivariatePolynomial
        r2, d = self.r * self.r, self.delta
        inner = P(2, {(2, 0): 1.0, (0, 2): 1.0, (0, 0): -r2})
        outer = P(2, {(2, 0): 1.0, (0, 2): 1.0, (1, 0): -2.0 * d, (0, 0): d * d - 1.0})
        return inner * outer

    def b(self, qs: np.ndarray) -> np.ndarray:
        x, y = qs[:, 0], qs[:, 1]
        return (x * x + y * y - self.r**2) * ((x - self.delta) ** 2 + y * y - 1.0)

    def box(self) -> tuple[tuple[float, float], tuple[float, float]]:
        return ((self.delta - 1.0, self.delta + 1.0), (-1.0, 1.0))

    def domain(self) -> Domain:
        boundary = SingularSet(
            name="boundary",
            tube=lambda qs: np.abs(self.b(qs)) <= BOUNDARY_TUBE,
            limit=np.inf,
        )
        return Domain(
            dimension=2,
            kind="bounded",
            constraint=self.b,
            box=self.box(),
            excluded_singular_sets=(boundary,),
        )

    def hamiltonian(self) -> Hamiltonian:
        return Hamiltonian.isotropic(0.5, lambda qs: np.zeros(qs.shape[0]), self.domain())


def billiard_local_energy_field(ab: AnnularBilliard) -> LocalEnergyField:
    """The closed-form field -Delta(b)/(2b) of the trial phi = -b."""
    r2, d = ab.r * ab.r, ab.delta

    def closed_form(qs: np.ndarray) -> np.ndarray:
        x, y = qs[:, 0], qs[:, 1]
        ring = (x - d / 2.0) ** 2 + y * y - (1.0 + r2) / 4.0
        return -8.0 * ring / ab.b(qs)

    return LocalEnergyField(domain=ab.domain(), evaluate=closed_form)


def unit_disk_field(
    f_poly: MultivariatePolynomial | None = None,
    g_poly: MultivariatePolynomial | None = None,
) -> LocalEnergyField:
    """Local energy -g/(2f) of phi = f*b on the unit disk b = x^2+y^2-1.

    With ``f, g`` from the polynomial construction the field is bounded on the
    closure; with the default ``f = 1`` there is no such ``g`` and the field is
    the unbounded ratio -Delta(b)/(2b) = -2/b.
    """
    def b_eval(qs: np.ndarray) -> np.ndarray:
        return qs[:, 0] ** 2 + qs[:, 1] ** 2 - 1.0

    if f_poly is None:
        def evaluate(qs: np.ndarray) -> np.ndarray:
            return -2.0 / b_eval(qs)
        sing = (SingularSet("boundary", lambda qs: np.abs(b_eval(qs)) <= BOUNDARY_TUBE, limit=np.inf),)
    else:
        if g_poly is None:
            raise ValueError("g_poly must accompany f_poly")
        def evaluate(qs: np.ndarray) -> np.ndarray:
            return -g_poly(qs) / (2.0 * f_poly(qs))
        sing = ()

    dom = Domain(
        dimension=2,
        kind="bounded",
        constraint=b_eval,
        box=((-1.0, 1.0), (-1.0, 1.0)),
        excluded_singular_sets=sing,
    )
    return LocalEnergyField(domain=dom, evaluate=evaluate)
