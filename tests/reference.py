"""Reference forms for the tests: what the commands never run.

The commands need each trial's derivatives and each field's one evaluator,
nothing more.  The tests check those against what is kept here:

- trial values ``S``, which :func:`derivative_consistency` differences;
- second representations of shipped fields, which :func:`cross_check`
  compares with their ``evaluate``;
- the 3D hydrogen trial and Hamiltonian, the magnetic trial in 3D, and the
  magnetic regular part written as one joint formula;
- the refinement schedule as one loop over its centers.
"""

from __future__ import annotations

import math

import numpy as np

from groundbound.core import (
    Domain,
    Hamiltonian,
    LogTrialFunction,
    SingularSet,
    _laplacian,
    coordinate_1d,
    local_energy_log_batch,
    sample_interior,
)
from groundbound.refine import DEFAULT_AMPLITUDE_RANGE, new_refinement_state, optimize_bump_amplitude
from groundbound.search import SearchConfig
from groundbound.systems import coulomb, magnetic
from groundbound.systems.hydrogen import ORIGIN_TUBE

CROSS_CHECK_TOLERANCE = 1e-8  # relative, between analytically equal representations
FD_STEP_GRAD = 1e-5  # central-difference steps of derivative_consistency
FD_STEP_LAP = 1e-4


# ---------------------------------------------------------------------------
# the two checks


def cross_check(field, alternates, n_samples: int, seed: int) -> float:
    """The largest relative discrepancy between ``field.evaluate`` and each of
    ``alternates`` at ``n_samples`` valid points drawn with ``seed``.

    The representations are analytically equal, so the discrepancy is itself
    the oracle: it must stay at rounding level (``CROSS_CHECK_TOLERANCE``).
    """
    pts = sample_interior(field.domain, n_samples, np.random.default_rng(seed))
    primary = np.asarray(field.evaluate(pts), dtype=float)
    worst = 0.0
    for alternate in alternates:
        other = np.asarray(alternate(pts), dtype=float)
        scale = np.maximum(np.maximum(np.abs(primary), np.abs(other)), 1e-300)
        worst = max(worst, float(np.max(np.abs(primary - other) / scale)))
    return worst


def derivative_consistency(derivs, s, qs) -> tuple[float, float]:
    """Max relative error of the gradient from ``derivs`` vs central
    differences of the values ``s``, and of its Laplacian (a Hessian's trace)
    vs the finite-difference divergence of the gradient.

    The steps ``FD_STEP_GRAD`` and ``FD_STEP_LAP`` follow the usual
    central-difference optimum; the tests compare the returned pair against
    (1e-6, 1e-5).
    """
    qs = np.asarray(qs, dtype=float)
    n, dim = qs.shape
    g, second = derivs(qs)
    g = np.asarray(g, dtype=float)
    lap = _laplacian(np.asarray(second, dtype=float))

    g_fd = np.empty_like(g)
    div_fd = np.zeros(n)
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = 1.0
        g_fd[:, i] = (s(qs + FD_STEP_GRAD * e) - s(qs - FD_STEP_GRAD * e)) / (2 * FD_STEP_GRAD)
        gp = np.asarray(derivs(qs + FD_STEP_LAP * e)[0], dtype=float)[:, i]
        gm = np.asarray(derivs(qs - FD_STEP_LAP * e)[0], dtype=float)[:, i]
        div_fd += (gp - gm) / (2 * FD_STEP_LAP)

    g_scale = np.maximum(np.linalg.norm(g, axis=1, keepdims=True), 1.0)
    grad_err = float(np.max(np.abs(g - g_fd) / g_scale))
    lap_scale = np.maximum(np.abs(lap), 1.0)
    lap_err = float(np.max(np.abs(lap - div_fd) / lap_scale))
    return grad_err, lap_err


# ---------------------------------------------------------------------------
# trial values S


def quartic_s(qo, qs) -> np.ndarray:
    """The quartic base trial's ``S0`` (see :mod:`groundbound.systems.quartic`)."""
    q = coordinate_1d(qs)
    r, d2, eta = qo.r, qo.delta2, qo.eta
    w = q * q + d2
    sw = np.sqrt(w)
    return (
        -(r / 3.0) * w * sw
        + (r * d2 * (1.0 - eta) / 2.0) * sw
        - 0.5 * np.log(w)
        - (r * d2 * d2 / 2.0) / sw
    )


def bump_sum(q: np.ndarray, bumps) -> np.ndarray:
    """``sum_k s_k exp(-((q - a_k)/sigma_k)^2)`` at the points ``q`` of shape ``(n,)``."""
    out = np.zeros(q.shape[0])
    for b in bumps:
        t = (q - b.a) / b.sigma
        out += b.s * np.exp(-t * t)
    return out


def coulomb_s(cs, qs) -> np.ndarray:
    """The pair-exponential trial's ``S = -sum_{i<j} lam_ij r_ij`` over flat coordinates."""
    r = coulomb._batch_distances(coulomb._flat_to_positions(cs, qs))
    iu = np.triu_indices(cs.n_particles, k=1)
    return -np.sum(cs.cusp_coefficients[iu] * r[:, iu[0], iu[1]], axis=1)


def hydrogen_s(lam: float, qs) -> np.ndarray:
    return -lam * np.linalg.norm(qs, axis=1)


# ---------------------------------------------------------------------------
# 3D hydrogen with S = -lam |x|


def hydrogen_trial_3d(lam: float = 1.0) -> LogTrialFunction:
    """S = -lam |x| over R^3 with analytic gradient and Laplacian."""

    def derivs(qs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        r = np.linalg.norm(qs, axis=1)
        return -lam * qs / r[:, None], -2.0 * lam / r

    return LogTrialFunction(derivs=derivs, normalizable=lam > 0)


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


# ---------------------------------------------------------------------------
# second representations of shipped fields


def billiard_ratio_form(ab):
    """``H phi / phi`` of ``phi = -b``: ``0.5 Delta(b) / (-b)``, with
    ``Delta(b)`` from polynomial arithmetic; a zero ``b`` gives inf/nan."""
    lap_b = ab.boundary_polynomial().laplacian()

    def ratio_form(qs: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            return (0.5 * lap_b(qs)) / (-ab.b(qs))

    return ratio_form


def coulomb_logform(cs):
    """The generic log-form local energy of the pair-exponential trial over
    flat coordinates, contracting its Hessian against the inverse-mass form."""
    h = coulomb.coulomb_hamiltonian(cs)
    trial = coulomb.coulomb_log_trial(cs, check_normalizable=False)
    return lambda qs: local_energy_log_batch(h, trial, qs)


def helium_logform(z: float):
    """:func:`coulomb_logform` over the helium search field's shape coordinates."""
    logform = coulomb_logform(coulomb.helium_system(z))
    return lambda qs: logform(coulomb._helium_positions(qs).reshape(qs.shape[0], 6))


def helium_z_formula(z: float):
    """``-Z^2 - 1/4 + Z (cos t1 + cos t2)/2`` over the helium search field's
    shape coordinates, with the angles at the electrons from the law of cosines."""

    def z_formula(qs: np.ndarray) -> np.ndarray:
        pos = coulomb._helium_positions(qs)
        x1, x2 = pos[:, 0], pos[:, 1]
        r1 = np.linalg.norm(x1, axis=1)
        r2 = np.linalg.norm(x2, axis=1)
        r12 = np.linalg.norm(x1 - x2, axis=1)
        cos1 = coulomb._cos_angle(r1, r12, r2)  # angle at electron 1
        cos2 = coulomb._cos_angle(r2, r12, r1)  # angle at electron 2
        return -z * z - 0.25 + z * (cos1 + cos2) / 2.0

    return z_formula


# ---------------------------------------------------------------------------
# magnetic hydrogen


def magnetic_u_parts(mh, variant, rho, z):
    """U and its derivatives as one function that builds both (the form the
    package's derivative-only split replaced):
    (u, u_rho, u_z, u_rr, u_r_over_rho, u_zz)."""
    b = mh.B
    zeros = np.zeros_like(rho)
    if variant == "lower":
        return (zeros,) * 6
    if variant == "upper":
        return (-b * rho * rho / 4.0, -b * rho / 2.0, zeros,
                np.full_like(rho, -b / 2.0), np.full_like(rho, -b / 2.0), zeros)
    k = 5.0 / math.sqrt(b)
    r = np.hypot(rho, z)
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
    return (-b * rho * rho / 4.0 + n / d, -b * rho / 2.0 + t_r, t_z,
            -b / 2.0 + t_rr, -b / 2.0 + t_r_over_rho, t_zz)


def magnetic_cancelled_local_energy(mh, variant, qs):
    """The cancelled local energy from :func:`magnetic_u_parts`."""
    rho, z = qs[:, 0], qs[:, 1]
    r = np.hypot(rho, z)
    _, u_r, u_z, u_rr, u_ror, u_zz = magnetic_u_parts(mh, variant, rho, z)
    lap_u = u_rr + u_ror + u_zz
    grad2 = u_r * u_r + u_z * u_z
    radial = (rho * u_r + z * u_z) / r
    return mh.B**2 * rho * rho / 8.0 - 0.5 * (1.0 + lap_u + grad2) + radial


def _u_derivs(mh, variant, rho, z, r):
    """The derivatives of U that the variant's field is built from."""
    return magnetic._u_derivs(*magnetic._trial_params(mh, variant), rho, z, r)


def magnetic_plain_local_energy(mh, variant, qs):
    """``V - (lap S + |grad S|^2)/2`` with the Coulomb pole left in, from the
    field's own derivatives of U: the form its cancelled evaluator equals."""
    rho, z = qs[:, 0], qs[:, 1]
    r = np.hypot(rho, z)
    u_r, u_z, u_rr, u_ror, u_zz = _u_derivs(mh, variant, rho, z, r)
    s_r = -rho / r + u_r
    s_z = -z / r + u_z
    lap_s = -2.0 / r + u_rr + u_ror + u_zz
    v = mh.B**2 * rho * rho / 8.0 - 1.0 / r
    return v - 0.5 * (lap_s + s_r * s_r + s_z * s_z)


def magnetic_trial(mh, variant):
    """The trial as a genuine 3D log-trial from the field's derivatives of U,
    and its values ``S`` from :func:`magnetic_u_parts`.

    The improved variant's even extension has a kink on the plane z = 0, so
    finite-difference consistency checks should stay away from that plane.
    """

    def split(qs: np.ndarray):
        x, y, z = qs[:, 0], qs[:, 1], qs[:, 2]
        rho = np.hypot(x, y)
        return x, y, z, rho, np.abs(z)

    def s(qs: np.ndarray) -> np.ndarray:
        x, y, z, rho, az = split(qs)
        return -np.sqrt(rho * rho + z * z) + magnetic_u_parts(mh, variant, rho, az)[0]

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

    return LogTrialFunction(derivs=derivs), s


# ---------------------------------------------------------------------------
# refinement


def refine_schedule(h, base, asymptotic_limits, centers, sigma=1.0,
                    s_range=DEFAULT_AMPLITUDE_RANGE, cfg=None):
    """A fresh refinement state, then one amplitude step per center in order:
    the loop of ``groundbound refine`` without its per-step record."""
    cfg = cfg or SearchConfig()
    state = new_refinement_state(h, base, asymptotic_limits, cfg=cfg)
    for a in centers:
        _, state = optimize_bump_amplitude(state, float(a), sigma, s_range, cfg)
    return state
