"""Hydrogen atom in a uniform magnetic field (zero orbital momentum sector).

In atomic units the effective potential is ``V = B^2 rho^2 / 8 - 1/r`` over
the half-space coordinates ``q = (rho, z)``, ``z >= 0``, ``r^2 = rho^2 + z^2``
(the trial is even in ``z``).  Every shipped trial has the form
``S = -r + U(rho, z)`` with ``U`` regular, so the Coulomb pole cancels
analytically in the local energy:

    E_loc = B^2 rho^2/8 - (1 + lap U + |grad U|^2)/2 + (rho U_rho + z U_z)/r

(the Laplacian is the axisymmetric 3D one, ``U_rr + U_r/r + U_zz`` in
``(rho, z)``).  The regular parts are

    lower     U = 0                 ->  E_loc = B^2 rho^2/8 - 1/2
    upper     U = -B rho^2/4        ->  E_loc = B/2 - 1/2 - B rho^2/(2r)
    improved  U = -B rho^2/4 + rho^2 (r - z) / (rho^2 + 5 r / sqrt(B))

The improved trial uses ``r - z`` for ``r - sqrt(r^2 - rho^2)``: they are the
same quantity on ``z >= 0`` but the former has no cancellation error near
``r ~ rho``.  Its even extension has a ridge on the plane ``z = 0`` whose
distributional kinetic energy is positive, so it certifies a lower bound only;
the reported supremum is +inf by declaration.

Both cusp conditions (radial log-derivative -1 at the origin, vanishing
rho-derivative on the axis) hold for every variant and are re-checked
numerically whenever a field is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core import (
    AsymptoticLimit,
    BoundsResult,
    Domain,
    LocalEnergyField,
    LogTrialFunction,
    SingularSet,
)
from .. import search

__all__ = [
    "MagneticHydrogen",
    "VARIANTS",
    "magnetic_hydrogen_field",
    "magnetic_trial",
    "magnetic_trivial_bounds",
    "cusp_defects",
    "improved_directional_limit",
]

VARIANTS = ("lower", "upper", "improved")
ORIGIN_TUBE = 1e-6
CUSP_TOL = 1e-10
BOX_HALF_WIDTH = 10.0  # the (rho, z) search box is [0, BOX_HALF_WIDTH]^2
AXIS_RADII = (0.1, 1.0, 10.0)  # where cusp_defects checks the axis condition


@dataclass(frozen=True)
class MagneticHydrogen:
    """Field strength ``B >= 0`` in atomic units."""

    B: float

    def __post_init__(self) -> None:
        if self.B < 0:
            raise ValueError(f"field strength must be nonnegative, got B = {self.B!r}")

    def box(self) -> tuple[tuple[float, float], ...]:
        return ((0.0, BOX_HALF_WIDTH), (0.0, BOX_HALF_WIDTH))


def _improved_k(mh: MagneticHydrogen, variant: str) -> float:
    """``5 / sqrt(B)`` of the improved trial, once ``variant`` is known to be
    neither trivial one."""
    if variant != "improved":
        raise ValueError(f"unknown trial variant {variant!r}; pick one of {VARIANTS}")
    if mh.B <= 0:
        raise ValueError(f"the improved trial needs B > 0 (it contains sqrt(B)), got B = {mh.B!r}")
    return 5.0 / math.sqrt(mh.B)


def _u_value(mh: MagneticHydrogen, variant: str, rho: np.ndarray, z: np.ndarray,
             r: np.ndarray) -> np.ndarray:
    """The regular part U on z >= 0, given ``r = hypot(rho, z)``."""
    b = mh.B
    if variant == "lower":
        return np.zeros_like(rho)
    if variant == "upper":
        return -b * rho * rho / 4.0
    k = _improved_k(mh, variant)
    n = rho * rho * (r - z)
    d = rho * rho + k * r
    return -b * rho * rho / 4.0 + n / d


def _u_derivs(mh: MagneticHydrogen, variant: str, rho: np.ndarray, z: np.ndarray,
              r: np.ndarray):
    """Derivatives of the regular part U on z >= 0, given ``r = hypot(rho, z)``,
    without building U itself.

    Returns (u_rho, u_z, u_rr, u_r_over_rho, u_zz); all formulas carry
    explicit rho factors so the axis rho = 0 evaluates exactly.
    """
    b = mh.B
    zeros = np.zeros_like(rho)
    if variant == "lower":
        return (zeros,) * 5
    if variant == "upper":
        return (
            -b * rho / 2.0,
            zeros,
            np.full_like(rho, -b / 2.0),
            np.full_like(rho, -b / 2.0),
            zeros,
        )
    k = _improved_k(mh, variant)
    m = r - z
    n = rho * rho * m
    d = rho * rho + k * r
    n_r = 2.0 * rho * m + rho**3 / r
    n_z = rho * rho * (z / r - 1.0)
    n_rr = 2.0 * m + 5.0 * rho * rho / r - rho**4 / r**3
    n_zz = rho**4 / r**3
    d_r = rho * (2.0 + k / r)
    d_z = k * z / r
    d_rr = 2.0 + k * z * z / r**3
    d_zz = k * rho * rho / r**3

    t_r = n_r / d - n * d_r / d**2
    t_z = n_z / d - n * d_z / d**2
    t_rr = n_rr / d - 2.0 * n_r * d_r / d**2 - n * d_rr / d**2 + 2.0 * n * d_r**2 / d**3
    t_zz = n_zz / d - 2.0 * n_z * d_z / d**2 - n * d_zz / d**2 + 2.0 * n * d_z**2 / d**3
    t_r_over_rho = (2.0 * m + rho * rho / r) / d - rho * rho * m * (2.0 + k / r) / d**2

    return (
        -b * rho / 2.0 + t_r,
        t_z,
        -b / 2.0 + t_rr,
        -b / 2.0 + t_r_over_rho,
        t_zz,
    )


def _cancelled_local_energy(mh: MagneticHydrogen, variant: str, qs: np.ndarray) -> np.ndarray:
    rho, z = qs[:, 0], qs[:, 1]
    r = np.hypot(rho, z)
    u_r, u_z, u_rr, u_ror, u_zz = _u_derivs(mh, variant, rho, z, r)
    lap_u = u_rr + u_ror + u_zz
    grad2 = u_r * u_r + u_z * u_z
    radial = (rho * u_r + z * u_z) / r
    return mh.B**2 * rho * rho / 8.0 - 0.5 * (1.0 + lap_u + grad2) + radial


def _plain_local_energy(mh: MagneticHydrogen, variant: str, qs: np.ndarray) -> np.ndarray:
    """Non-cancelled V - (lap S + |grad S|^2)/2; alternate representation."""
    rho, z = qs[:, 0], qs[:, 1]
    r = np.hypot(rho, z)
    u_r, u_z, u_rr, u_ror, u_zz = _u_derivs(mh, variant, rho, z, r)
    s_r = -rho / r + u_r
    s_z = -z / r + u_z
    lap_s = -2.0 / r + u_rr + u_ror + u_zz
    v = mh.B**2 * rho * rho / 8.0 - 1.0 / r
    return v - 0.5 * (lap_s + s_r * s_r + s_z * s_z)


def magnetic_trial(mh: MagneticHydrogen, variant: str) -> LogTrialFunction:
    """The trial as a genuine 3D log-trial (for derivative cross-checks).

    The improved variant's even extension has a kink on the plane z = 0, so
    finite-difference consistency checks should stay away from that plane.
    """

    def split(qs: np.ndarray):
        x, y, z = qs[:, 0], qs[:, 1], qs[:, 2]
        rho = np.hypot(x, y)
        return x, y, z, rho, np.abs(z)

    def s(qs: np.ndarray) -> np.ndarray:
        x, y, z, rho, az = split(qs)
        u = _u_value(mh, variant, rho, az, np.hypot(rho, az))
        return -np.sqrt(rho * rho + z * z) + u

    def derivs(qs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x, y, z, rho, az = split(qs)
        r = np.sqrt(rho * rho + z * z)
        u_r, u_z, u_rr, u_ror, u_zz = _u_derivs(mh, variant, rho, az, np.hypot(rho, az))
        with np.errstate(invalid="ignore", divide="ignore"):
            cosphi = np.where(rho > 0, x / np.where(rho > 0, rho, 1.0), 0.0)
            sinphi = np.where(rho > 0, y / np.where(rho > 0, rho, 1.0), 0.0)
        g = np.empty((qs.shape[0], 3))
        g[:, 0] = -x / r + cosphi * u_r
        g[:, 1] = -y / r + sinphi * u_r
        g[:, 2] = -z / r + np.sign(z) * u_z
        return g, -2.0 / r + u_rr + u_ror + u_zz

    return LogTrialFunction(
        s=s,
        derivs=derivs,
        normalizable=True,
        label=f"magnetic hydrogen trial ({variant}, B={mh.B})",
    )


def cusp_defects(mh: MagneticHydrogen, variant: str) -> tuple[float, float]:
    """Numerical defects of the two Coulomb-cusp conditions.

    Radial condition: the directional derivative of S at the origin must be -1
    in every direction; evaluated from the analytic gradient at r = 1e-12
    (no finite differencing, so the defect is O(r)).  Axis condition: the
    rho-derivative of S must vanish at (0, r) for each r of ``AXIS_RADII``.
    """
    t = 1e-12
    alphas = np.linspace(0.0, math.pi / 2.0, 19)
    rho = t * np.sin(alphas)
    z = t * np.cos(alphas)
    r = np.hypot(rho, z)
    u_r, u_z, *_ = _u_derivs(mh, variant, rho, z, r)
    s_r = -rho / r + u_r
    s_z = -z / r + u_z
    radial = (rho * s_r + z * s_z) / r
    defect_radial = float(np.max(np.abs(radial + 1.0)))

    rr = np.array(AXIS_RADII)
    axis = np.zeros_like(rr)
    u_r_axis, *_ = _u_derivs(mh, variant, axis, rr, np.hypot(axis, rr))
    defect_axis = float(np.max(np.abs(u_r_axis)))  # -rho/r vanishes at rho = 0
    return defect_radial, defect_axis


def improved_directional_limit(mh: MagneticHydrogen, alpha) -> np.ndarray:
    """Large-r limit of the improved field along a fixed polar angle alpha:

        g(alpha) = (B-1)/2 - (5 sqrt(B)/2) sin^2(a) cos(a) / (1 + cos(a))^2
    """
    a = np.asarray(alpha, dtype=float)
    b = mh.B
    c, s = np.cos(a), np.sin(a)
    return (b - 1.0) / 2.0 - 2.5 * math.sqrt(b) * s * s * c / (1.0 + c) ** 2


def improved_parabolic_limit(mh: MagneticHydrogen, u) -> np.ndarray:
    """Large-r limit of the improved field in the near-axis parabolic layer
    ``rho^2 = u * (5/sqrt(B)) * r``:

        E(u) = (B-1)/2 - (5 sqrt(B)/2) u / (1 + u)^2

    Its minimum over u (at u = 1) dips below every fixed-angle limit, so this
    layer is what decides the field's behaviour at infinity.
    """
    u = np.asarray(u, dtype=float)
    return (mh.B - 1.0) / 2.0 - 2.5 * math.sqrt(mh.B) * u / (1.0 + u) ** 2


def _improved_limit_extrema(mh: MagneticHydrogen) -> tuple[float, float]:
    # inf over all escapes: parabolic layer at u = 1; sup on the axis
    b = mh.B
    gmin = (b - 1.0) / 2.0 - 5.0 * math.sqrt(b) / 8.0
    gmax = (b - 1.0) / 2.0
    return gmin, gmax


def _domain(mh: MagneticHydrogen, singular: tuple[SingularSet, ...]) -> Domain:
    pad = 1e-12

    def quarter_plane(qs: np.ndarray) -> np.ndarray:
        # rho >= 0 and z >= 0, inclusive (the min can sit on either edge)
        return np.maximum(-qs[:, 0], -qs[:, 1]) - pad

    return Domain(
        dimension=2,
        kind="unbounded",
        constraint=quarter_plane,
        box=mh.box(),
        excluded_singular_sets=singular,
    )


def magnetic_hydrogen_field(mh: MagneticHydrogen, variant: str) -> LocalEnergyField:
    """Local-energy field of one trial variant over the (rho, z) half-plane."""
    b = mh.B
    if variant not in VARIANTS:
        raise ValueError(f"unknown trial variant {variant!r}; pick one of {VARIANTS}")

    d_radial, d_axis = cusp_defects(mh, variant)
    if max(d_radial, d_axis) > CUSP_TOL:
        raise AssertionError(
            f"cusp conditions violated for variant {variant!r}: "
            f"radial defect {d_radial:.2e}, axis defect {d_axis:.2e}"
        )

    origin = SingularSet(
        name="origin",
        tube=lambda qs: np.hypot(qs[:, 0], qs[:, 1]) <= ORIGIN_TUBE,
        # the Coulomb pole cancels; the remaining limit is uniform for the
        # trivial variants and direction-dependent (but harmless) otherwise
        limit={"lower": -0.5, "upper": b / 2.0 - 0.5}.get(variant),
    )

    if variant == "lower":
        singular = (origin,)
        asym = (
            AsymptoticLimit("along the field axis", -0.5),
            AsymptoticLimit("off-axis (confining magnetic term)", math.inf),
        )
    elif variant == "upper":
        singular = (origin,)
        asym = (
            AsymptoticLimit("along the field axis", b / 2.0 - 0.5),
            AsymptoticLimit("off-axis", -math.inf),
        )
    else:
        never = lambda qs: np.zeros(qs.shape[0], dtype=bool)
        ridge = SingularSet(
            name="even-extension ridge (z=0)",
            tube=never,  # zero measure; one-sided values remain searchable
            max_limit=math.inf,
        )
        singular = (origin, ridge)
        gmin, gmax = _improved_limit_extrema(mh)
        asym = (
            AsymptoticLimit("parabolic layer rho^2 = 5r/sqrt(B), u=1", gmin),
            AsymptoticLimit("along the field axis", gmax),
        )

    return LocalEnergyField(
        domain=_domain(mh, singular),
        evaluate=lambda qs: _cancelled_local_energy(mh, variant, qs),
        alternates=(lambda qs: _plain_local_energy(mh, variant, qs),),
        asymptotic_limits=asym,
        label=f"magnetic hydrogen local energy ({variant}, B={b})",
    )


def magnetic_trivial_bounds(mh: MagneticHydrogen, cfg=None) -> BoundsResult:
    """Sandwich from the two trivial trials: lower from ``h = 0``, upper from
    ``h = -B/4`` (each certifies only its own side)."""
    # searched through the module, so a wrapper installed on
    # ``search.global_min`` / ``search.global_max`` sees these calls
    cfg = cfg or search.SearchConfig()
    lower = magnetic_hydrogen_field(mh, "lower")
    lo = search.global_min(lower, cfg=cfg)
    hi = search.global_max(magnetic_hydrogen_field(mh, "upper"), cfg=cfg)
    return search._bounds_result(lower, cfg, lo, hi)
