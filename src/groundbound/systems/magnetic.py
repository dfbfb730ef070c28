"""Hydrogen atom in a uniform magnetic field (zero orbital momentum sector).

In atomic units the effective potential is ``V = B^2 rho^2 / 8 - 1/r`` over
the half-space coordinates ``q = (rho, z)``, ``z >= 0``, ``r^2 = rho^2 + z^2``
(the trial is even in ``z``).  Every shipped trial has the form
``S = -r + U(rho, z)`` with ``U`` regular, so the Coulomb pole cancels
analytically in the local energy:

    E_loc = B^2 rho^2/8 - (1 + lap U + |grad U|^2)/2 + (rho U_rho + z U_z)/r

(the Laplacian is the axisymmetric 3D one, ``U_rr + U_r/r + U_zz`` in
``(rho, z)``).  Every variant has one regular part in two parameters,

    U = -beta rho^2 / 4  [ + rho^2 (r - z) / (rho^2 + k r) ]

with the bracketed term present only where ``k`` is given:

    variant   beta   k            E_loc
    lower     0      -            B^2 rho^2/8 - 1/2
    upper     B      -            B/2 - 1/2 - B rho^2/(2r)
    improved  B      5/sqrt(B)    (no closed form)

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
from typing import Sequence

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
    "SYSTEM_VARIANTS",
    "magnetic_hydrogen_field",
    "magnetic_trial",
    "magnetic_trivial_bounds",
    "cusp_defects",
    "improved_directional_limit",
]

VARIANTS = ("lower", "upper", "improved")
# what the magnetic-hydrogen system bounds with: one trial variant, or the
# trivial sandwich of the lower and upper trials (magnetic_trivial_bounds)
SYSTEM_VARIANTS = (*VARIANTS, "trivial")
ORIGIN_TUBE = 1e-6
CUSP_TOL = 1e-10
BOX_HALF_WIDTH = 10.0  # the (rho, z) search box is [0, BOX_HALF_WIDTH]^2
AXIS_RADII = (0.1, 1.0, 10.0)  # where cusp_defects checks the axis condition
# Improved-term scale k = 5/sqrt(B) above which (B below about 2.5e-99) the
# denominator's powers are formed scaled: unscaled, its cube overflows first,
# once rho^2 + k r passes about 5.6e102
K_SCALED = 1e50


@dataclass(frozen=True)
class MagneticHydrogen:
    """Field strength ``B >= 0`` in atomic units."""

    B: float

    def __post_init__(self) -> None:
        if self.B < 0:
            raise ValueError(f"field strength must be nonnegative, got B = {self.B!r}")

    def box(self) -> tuple[tuple[float, float], ...]:
        return ((0.0, BOX_HALF_WIDTH), (0.0, BOX_HALF_WIDTH))


def _trial_params(mh: MagneticHydrogen, variant: str) -> tuple[float, float | None]:
    """``(beta, k)`` of a trial variant's regular part; ``k`` is ``None``
    where U has no improved term."""
    if variant == "lower":
        return 0.0, None
    if variant == "upper":
        return mh.B, None
    if variant != "improved":
        raise ValueError(f"unknown trial variant {variant!r}; pick one of {VARIANTS}")
    if mh.B <= 0:
        raise ValueError(f"the improved trial needs B > 0 (it contains sqrt(B)), got B = {mh.B!r}")
    return mh.B, 5.0 / math.sqrt(mh.B)


def _u_value(beta, k, rho: np.ndarray, z: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The regular part U on z >= 0, given ``r = hypot(rho, z)``; ``beta``
    is a float or one value per point, and ``k`` a float or ``None``."""
    u = -beta * rho * rho / 4.0
    if k is None:
        return u
    return u + rho * rho * (r - z) / (rho * rho + k * r)


def _u_derivs(beta, k, rho: np.ndarray, z: np.ndarray, r: np.ndarray):
    """Derivatives of the regular part U on z >= 0, given ``r = hypot(rho, z)``,
    without building U itself; ``beta`` and ``k`` as for :func:`_u_value`.

    Returns (u_rho, u_z, u_rr, u_r_over_rho, u_zz), a float where a
    derivative is constant.
    """
    # the improved term first, so its temporaries are freed before the quadratic part is built
    t = None if k is None else _improved_derivs(k, rho, z, r)
    u_r, u_rr = -beta * rho / 2.0, -beta / 2.0
    if t is None:
        return u_r, 0.0, u_rr, u_rr, 0.0
    t_r, t_z, t_rr, t_r_over_rho, t_zz = t
    return u_r + t_r, t_z, u_rr + t_rr, u_rr + t_r_over_rho, t_zz


def _improved_derivs(k, rho: np.ndarray, z: np.ndarray, r: np.ndarray):
    """The derivatives of ``rho^2 (r - z) / (rho^2 + k r)``, in the order of
    :func:`_u_derivs`; all formulas carry explicit rho factors so the axis
    rho = 0 evaluates exactly.  ``k`` is one float.

    The quotient rule puts ``d = rho^2 + k r`` squared and cubed in the
    denominators.  Above ``K_SCALED`` (a tiny B) those powers overflow, so
    each derivative of ``d`` is divided by ``d`` before it is squared, and
    each result by ``d`` once more at the end.  Each power is built once and
    each part dropped after its last use, so few are alive at once.
    """
    m = r - z
    n = rho * rho * m
    d = rho * rho + k * r
    r3 = r**3
    rho4 = rho**4
    n_rr = 2.0 * m + 5.0 * rho * rho / r - rho4 / r3
    n_zz = rho4 / r3
    del rho4
    n_r = 2.0 * rho * m + rho**3 / r
    n_z = rho * rho * (z / r - 1.0)
    if k > K_SCALED:
        p_r = rho * (2.0 + k / r) / d  # each derivative of d over d
        p_z = k * z / r / d
        p_rr = (2.0 + k * z * z / r3) / d
        p_zz = k * rho * rho / r3 / d
        return (
            (n_r - n * p_r) / d,
            (n_z - n * p_z) / d,
            (n_rr - 2.0 * n_r * p_r - n * p_rr + 2.0 * n * p_r * p_r) / d,
            (2.0 * m + rho * rho / r - n * (2.0 + k / r) / d) / d,
            (n_zz - 2.0 * n_z * p_z - n * p_zz + 2.0 * n * p_z * p_z) / d,
        )
    d_r = rho * (2.0 + k / r)
    d_z = k * z / r
    d_rr = 2.0 + k * z * z / r3
    d_zz = k * rho * rho / r3
    del r3
    d2 = d**2
    d3 = d**3
    t_r = n_r / d - n * d_r / d2
    t_rr = n_rr / d - 2.0 * n_r * d_r / d2 - n * d_rr / d2 + 2.0 * n * d_r**2 / d3
    del n_r, n_rr, d_r, d_rr
    t_z = n_z / d - n * d_z / d2
    t_zz = n_zz / d - 2.0 * n_z * d_z / d2 - n * d_zz / d2 + 2.0 * n * d_z**2 / d3
    del n_z, n_zz, d_z, d_zz, d3
    t_r_over_rho = (2.0 * m + rho * rho / r) / d - rho * rho * m * (2.0 + k / r) / d2
    return t_r, t_z, t_rr, t_r_over_rho, t_zz


def _cancelled_local_energy(b2, beta, k, qs: np.ndarray) -> np.ndarray:
    """The cancelled local energy from ``B^2`` and U's ``(beta, k)``; ``B^2``
    and ``beta`` are each a float or one value per point, ``k`` as for
    :func:`_u_value`."""
    rho, z = qs[:, 0], qs[:, 1]
    r = np.hypot(rho, z)
    u_r, u_z, u_rr, u_ror, u_zz = _u_derivs(beta, k, rho, z, r)
    lap_u = u_rr + u_ror + u_zz
    grad2 = u_r * u_r + u_z * u_z
    radial = (rho * u_r + z * u_z) / r
    return b2 * rho * rho / 8.0 - 0.5 * (1.0 + lap_u + grad2) + radial


def _trivial_rows(members: Sequence[tuple[MagneticHydrogen, str]]):
    """Row evaluator of a stack of trivial fields: member ``m`` is the
    ``members[m][1]`` trial (``"lower"`` or ``"upper"``) at ``members[m][0]``.
    Each row passes its member's ``B^2`` and ``beta`` to the field's
    ``_cancelled_local_energy``, so its value equals that field's
    ``evaluate`` bit for bit."""
    beta = np.array([_trial_params(mh, variant)[0] for mh, variant in members])
    b2 = np.array([mh.B**2 for mh, _ in members])  # squared as the field squares it
    return lambda stacked, qs: _cancelled_local_energy(b2[stacked], beta[stacked], None, qs)


def _plain_local_energy(b2, beta, k, qs: np.ndarray) -> np.ndarray:
    """Non-cancelled V - (lap S + |grad S|^2)/2; alternate representation."""
    rho, z = qs[:, 0], qs[:, 1]
    r = np.hypot(rho, z)
    u_r, u_z, u_rr, u_ror, u_zz = _u_derivs(beta, k, rho, z, r)
    s_r = -rho / r + u_r
    s_z = -z / r + u_z
    lap_s = -2.0 / r + u_rr + u_ror + u_zz
    v = b2 * rho * rho / 8.0 - 1.0 / r
    return v - 0.5 * (lap_s + s_r * s_r + s_z * s_z)


def magnetic_trial(mh: MagneticHydrogen, variant: str) -> LogTrialFunction:
    """The trial as a genuine 3D log-trial (for derivative cross-checks).

    The improved variant's even extension has a kink on the plane z = 0, so
    finite-difference consistency checks should stay away from that plane.
    """
    beta, k = _trial_params(mh, variant)

    def split(qs: np.ndarray):
        x, y, z = qs[:, 0], qs[:, 1], qs[:, 2]
        rho = np.hypot(x, y)
        return x, y, z, rho, np.abs(z)

    def s(qs: np.ndarray) -> np.ndarray:
        x, y, z, rho, az = split(qs)
        u = _u_value(beta, k, rho, az, np.hypot(rho, az))
        return -np.sqrt(rho * rho + z * z) + u

    def derivs(qs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x, y, z, rho, az = split(qs)
        r = np.sqrt(rho * rho + z * z)
        u_r, u_z, u_rr, u_ror, u_zz = _u_derivs(beta, k, rho, az, np.hypot(rho, az))
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
    )


def cusp_defects(mh: MagneticHydrogen, variant: str) -> tuple[float, float]:
    """Numerical defects of the two Coulomb-cusp conditions.

    Radial condition: the directional derivative of S at the origin must be -1
    in every direction; evaluated from the analytic gradient at
    r = 1e-12 / max(1, B) (no finite differencing, so the defect is O(r); the
    quadratic part alone leaves ``B r sin^2(alpha) / 2``, hence the radius
    shrinks with B).  Axis condition: the rho-derivative of S must vanish at
    (0, r) for each r of ``AXIS_RADII``.
    """
    beta, k = _trial_params(mh, variant)
    t = 1e-12 / max(1.0, mh.B)
    alphas = np.linspace(0.0, math.pi / 2.0, 19)
    rho = t * np.sin(alphas)
    z = t * np.cos(alphas)
    r = np.hypot(rho, z)
    u_r, u_z, *_ = _u_derivs(beta, k, rho, z, r)
    s_r = -rho / r + u_r
    s_z = -z / r + u_z
    radial = (rho * s_r + z * s_z) / r
    defect_radial = float(np.max(np.abs(radial + 1.0)))

    rr = np.array(AXIS_RADII)
    axis = np.zeros_like(rr)
    u_r_axis, *_ = _u_derivs(beta, k, axis, rr, np.hypot(axis, rr))
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
    beta, k = _trial_params(mh, variant)
    # squared first: a B whose square overflows raises here, before the cusp
    # probe radius 1e-12/B turns subnormal and the probe loses its precision
    b2 = mh.B**2
    d_radial, d_axis = cusp_defects(mh, variant)
    if max(d_radial, d_axis) > CUSP_TOL:
        raise AssertionError(
            f"cusp conditions violated for variant {variant!r}: "
            f"radial defect {d_radial:.2e}, axis defect {d_axis:.2e}"
        )

    # the Coulomb pole cancels at the origin
    origin_tube = lambda qs: np.hypot(qs[:, 0], qs[:, 1]) <= ORIGIN_TUBE
    if k is None:
        # U = -beta rho^2/4 vanishes on the axis, leaving one limit there and at the origin
        limit = beta / 2.0 - 0.5
        singular = (SingularSet("origin", origin_tube, limit),)
        # off the axis E_loc = (B^2 - beta^2) rho^2/8 + limit - beta rho^2/(2r),
        # and B, beta >= 0, so B^2 > beta^2 exactly when B > beta
        off_axis = (AsymptoticLimit("off-axis (confining magnetic term)", math.inf) if mh.B > beta
                    else AsymptoticLimit("off-axis", -math.inf if beta > 0 else limit))
        asym = (AsymptoticLimit("along the field axis", limit), off_axis)
    else:
        never = lambda qs: np.zeros(qs.shape[0], dtype=bool)
        ridge = SingularSet(
            name="even-extension ridge (z=0)",
            tube=never,  # zero measure; one-sided values remain searchable
            max_limit=math.inf,
        )
        # the origin limit is direction-dependent (but harmless)
        singular = (SingularSet("origin", origin_tube), ridge)
        # inf over all escapes: the parabolic layer at u = 1; sup on the axis
        asym = (
            AsymptoticLimit("parabolic layer rho^2 = 5r/sqrt(B), u=1", float(improved_parabolic_limit(mh, 1.0))),
            AsymptoticLimit("along the field axis", float(improved_directional_limit(mh, 0.0))),
        )

    return LocalEnergyField(
        domain=_domain(mh, singular),
        evaluate=lambda qs: _cancelled_local_energy(b2, beta, k, qs),
        alternates=(lambda qs: _plain_local_energy(b2, beta, k, qs),),
        asymptotic_limits=asym,
    )


def magnetic_trivial_bounds(mhs: Sequence[MagneticHydrogen], cfg=None) -> list[BoundsResult]:
    """Sandwich of each entry from the two trivial trials: lower from
    ``beta = 0``, upper from ``beta = B`` (each certifies only its own side).

    Every entry's lower field (searched for its minimum only) and upper
    field (for its maximum only) form one stack, searched once with a row
    evaluator."""
    members = [(mh, variant) for mh in mhs for variant in ("lower", "upper")]
    fields = [magnetic_hydrogen_field(mh, variant) for mh, variant in members]
    pairs = [(2 * i, 2 * i + 1) for i in range(len(mhs))]
    return search._stacked_bounds(fields, cfg or search.SearchConfig(), _trivial_rows(members), pairs)
