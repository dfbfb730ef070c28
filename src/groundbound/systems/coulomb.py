"""N-body Coulomb systems with the pair-exponential trial.

Relative coordinates ``q = {x_k}`` (particle k against the distinguished
particle 0) give the kinetic form ``sum_k p_k^2/(2 m_{0k}) +
sum_{j != k} p_j . p_k / (2 m_0)``.  The trial ``S = -sum_{i<j} lam_ij r_ij``
with ``lam_ij = -2 m_ij e_i e_j / (D-1)`` cancels every Coulomb pole, and its
local energy collapses to a closed form in the pair energies and the triangle
angles:

    E_loc = - sum_{i<j} lam_ij^2 / (2 m_ij)
            - sum_{angles j-i-k} lam_ij lam_ik cos(angle at i) / m_i

For N = 2 the angle sum is empty and the field is exactly constant.  An
infinite mass is allowed for at most one particle and drops its ``1/m`` terms
exactly rather than through a large float.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from ..core import (
    BoundsResult,
    Domain,
    Hamiltonian,
    LocalEnergyField,
    LogTrialFunction,
    SingularSet,
    local_energy_log_batch,
)
from ..search import ExtremumReport

__all__ = [
    "CoulombSystem",
    "coulomb_local_energy_batch",
    "coulomb_log_trial",
    "coulomb_hamiltonian",
    "coulomb_field",
    "helium_system",
    "helium_bounds",
    "helium_search_field",
]

COINCIDENCE_TUBE = 1e-6
BOX_HALF_WIDTH = 3.0  # the search box of coulomb_hamiltonian, per flat coordinate
NORMALIZABLE_DIRECTIONS = 256  # random unit configurations of trial_is_normalizable
NORMALIZABLE_SEED = 7


def _reduced_mass(mi: float, mj: float) -> float:
    if math.isinf(mi) and math.isinf(mj):
        raise ValueError("at most one particle may have infinite mass")
    if math.isinf(mi):
        return mj
    if math.isinf(mj):
        return mi
    return mi * mj / (mi + mj)


@dataclass(frozen=True)
class CoulombSystem:
    """Particle count, space dimension, masses (one may be ``inf``), charges."""

    n_particles: int
    space_dim: int
    masses: np.ndarray
    charges: np.ndarray

    def __post_init__(self) -> None:
        if self.n_particles < 2:
            raise ValueError("need at least two particles")
        if self.space_dim < 2:
            raise ValueError(
                "the pair-exponential trial cancels Coulomb poles only for D >= 2"
            )
        m = np.asarray(self.masses, dtype=float)
        e = np.asarray(self.charges, dtype=float)
        if m.shape != (self.n_particles,) or e.shape != (self.n_particles,):
            raise ValueError("masses and charges must have one entry per particle")
        if np.any(m <= 0):
            raise ValueError("masses must be positive")
        if np.isinf(m).sum() > 1:
            raise ValueError("at most one particle may have infinite mass")
        object.__setattr__(self, "masses", m)
        object.__setattr__(self, "charges", e)

    @property
    def flat_dim(self) -> int:
        return self.space_dim * (self.n_particles - 1)

    @property
    def reduced_masses(self) -> np.ndarray:
        n = self.n_particles
        out = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                if i != j:
                    out[i, j] = _reduced_mass(self.masses[i], self.masses[j])
        return out

    @property
    def cusp_coefficients(self) -> np.ndarray:
        """lam_ij = -2 m_ij e_i e_j / (D - 1); symmetric, zero diagonal."""
        m = self.reduced_masses
        e = self.charges
        lam = -2.0 * m * np.outer(e, e) / (self.space_dim - 1)
        np.fill_diagonal(lam, 0.0)
        return lam

    @property
    def inverse_masses(self) -> np.ndarray:
        """1/m_i, exactly zero for the infinitely heavy particle."""
        return np.where(np.isinf(self.masses), 0.0, 1.0 / self.masses)

    def pair_energy_constant(self) -> float:
        """-sum_{i<j} lam_ij^2 / (2 m_ij), the angle-free part of the field."""
        lam = self.cusp_coefficients
        m = self.reduced_masses
        total = 0.0
        for i in range(self.n_particles):
            for j in range(i + 1, self.n_particles):
                total -= lam[i, j] ** 2 / (2.0 * m[i, j])
        return total


def _cos_angle(rij, rik, rjk):
    c = (rij**2 + rik**2 - rjk**2) / (2.0 * rij * rik)
    return np.clip(c, -1.0, 1.0)


def _batch_distances(positions: np.ndarray) -> np.ndarray:
    """(m, N-1, D) relative positions -> (m, N, N) pair distances."""
    m, nm1, d = positions.shape
    x = np.concatenate([np.zeros((m, 1, d)), positions], axis=1)
    diff = x[:, :, None, :] - x[:, None, :, :]
    return np.linalg.norm(diff, axis=-1)


def coulomb_local_energy_batch(cs: CoulombSystem, positions: np.ndarray) -> np.ndarray:
    """Closed-form local energy for a batch of configurations (m, N-1, D)."""
    positions = np.asarray(positions, dtype=float)
    if positions.ndim == 2:
        positions = positions[None, :, :]
    r = _batch_distances(positions)
    lam = cs.cusp_coefficients
    inv_m = cs.inverse_masses
    out = np.full(positions.shape[0], cs.pair_energy_constant())
    n = cs.n_particles
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(n):
            if inv_m[i] == 0.0:
                continue
            others = [p for p in range(n) if p != i]
            for j, k in itertools.combinations(others, 2):
                cos_jik = _cos_angle(r[:, i, j], r[:, i, k], r[:, j, k])
                out -= lam[i, j] * lam[i, k] * cos_jik * inv_m[i]
    return out


# ---------------------------------------------------------------------------
# trial function and Hamiltonian in flat relative coordinates


def _flat_to_positions(cs: CoulombSystem, qs: np.ndarray) -> np.ndarray:
    return qs.reshape(qs.shape[0], cs.n_particles - 1, cs.space_dim)


def trial_is_normalizable(cs: CoulombSystem) -> bool:
    """Directional decay check for exp(S): S is homogeneous of degree one in a
    global dilation, so exp(S) decays in every direction iff S < 0 on all
    unit-scale configurations.  Sampled (``NORMALIZABLE_DIRECTIONS`` seeded
    draws), with collinear adversaries included.
    """
    rng = np.random.default_rng(NORMALIZABLE_SEED)
    dirs = rng.standard_normal((NORMALIZABLE_DIRECTIONS, cs.n_particles - 1, cs.space_dim))
    # collinear adversaries: all particles along one axis, both orientations
    line = np.zeros((2 * (cs.n_particles - 1), cs.n_particles - 1, cs.space_dim))
    for k in range(cs.n_particles - 1):
        line[2 * k, :, 0] = np.arange(1, cs.n_particles)
        line[2 * k, k, 0] *= -1.0
        line[2 * k + 1, :, 0] = 1.0
        line[2 * k + 1, k, 0] = 2.0
    dirs = np.concatenate([dirs, line], axis=0)
    dirs /= np.linalg.norm(dirs.reshape(dirs.shape[0], -1), axis=1)[:, None, None]
    lam = cs.cusp_coefficients
    r = _batch_distances(dirs)
    iu = np.triu_indices(cs.n_particles, k=1)
    s = -np.sum(lam[iu] * r[:, iu[0], iu[1]], axis=1)
    return bool(np.all(s < 0))


def coulomb_log_trial(cs: CoulombSystem, check_normalizable: bool = True) -> LogTrialFunction:
    """The pair-exponential trial S = -sum_{i<j} lam_ij r_ij with analytic
    gradient and full Hessian over the flat coordinates.

    The Hessian, not just its trace, is needed because a finite nucleus mass
    couples the relative coordinates in the inverse-mass form.
    """
    lam = cs.cusp_coefficients
    n, d = cs.n_particles, cs.space_dim
    iu = np.triu_indices(n, k=1)

    def s(qs: np.ndarray) -> np.ndarray:
        r = _batch_distances(_flat_to_positions(cs, qs))
        return -np.sum(lam[iu] * r[:, iu[0], iu[1]], axis=1)

    def derivs(qs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        pos = _flat_to_positions(cs, qs)
        m = pos.shape[0]
        x = np.concatenate([np.zeros((m, 1, d)), pos], axis=1)
        r = _batch_distances(pos)
        g = np.zeros((m, n - 1, d))
        h = np.zeros((m, n - 1, d, n - 1, d))
        eye = np.eye(d)
        for k in range(1, n):
            for j in range(n):
                if j == k:
                    continue
                unit = (x[:, k] - x[:, j]) / r[:, k, j][:, None]
                g[:, k - 1] += -lam[k, j] * unit
                rr = r[:, k, j][:, None, None]
                proj = (eye[None, :, :] - unit[:, :, None] * unit[:, None, :]) / rr
                h[:, k - 1, :, k - 1, :] += -lam[k, j] * proj
                if j >= 1:
                    h[:, k - 1, :, j - 1, :] += lam[k, j] * proj
        return g.reshape(m, cs.flat_dim), h.reshape(m, cs.flat_dim, cs.flat_dim)

    normalizable = trial_is_normalizable(cs) if check_normalizable else True
    if not normalizable:
        warnings.warn(
            "pair-exponential trial is not square integrable for these "
            "masses/charges; treat its exponent as the first Taylor order "
            "near each coalescence and the bounds as formal",
            stacklevel=2,
        )
    return LogTrialFunction(
        s=s,
        derivs=derivs,
        normalizable=normalizable,
        label=f"pair-exponential trial (N={n}, D={d})",
    )


def _coincidence_tube(cs: CoulombSystem):
    iu = np.triu_indices(cs.n_particles, k=1)

    def tube(qs: np.ndarray) -> np.ndarray:
        r = _batch_distances(_flat_to_positions(cs, qs))
        return np.any(r[:, iu[0], iu[1]] <= COINCIDENCE_TUBE, axis=1)

    return tube


def coulomb_hamiltonian(cs: CoulombSystem) -> Hamiltonian:
    """Eq-form Hamiltonian on flat relative coordinates.

    The inverse-mass form has diagonal blocks I/(2 m_{0k}) and off-diagonal
    blocks I/(2 m_0); the latter vanish exactly for an infinite nucleus mass.
    """
    n, d = cs.n_particles, cs.space_dim
    inv_m = cs.inverse_masses
    blocks = np.zeros((n - 1, n - 1))
    for k in range(1, n):
        for l in range(1, n):
            if k == l:
                blocks[k - 1, l - 1] = 1.0 / (2.0 * cs.reduced_masses[0, k])
            else:
                blocks[k - 1, l - 1] = inv_m[0] / 2.0
    a = np.kron(blocks, np.eye(d))
    e = cs.charges
    iu = np.triu_indices(n, k=1)
    pair_charge = (e[:, None] * e[None, :])[iu]

    def potential(qs: np.ndarray) -> np.ndarray:
        r = _batch_distances(_flat_to_positions(cs, qs))
        return np.sum(pair_charge / r[:, iu[0], iu[1]], axis=1)

    coincide = SingularSet(
        name="coalescence",
        tube=_coincidence_tube(cs),
        limit=None,  # bounded but direction-dependent; contributes no candidate
    )
    dom = Domain(
        dimension=cs.flat_dim,
        kind="unbounded",
        box=tuple((-BOX_HALF_WIDTH, BOX_HALF_WIDTH) for _ in range(cs.flat_dim)),
        excluded_singular_sets=(coincide,),
    )
    return Hamiltonian(a, potential, dom)


def coulomb_field(cs: CoulombSystem, check_normalizable: bool = True) -> LocalEnergyField:
    """Closed-form field over flat coordinates, with the generic log-form
    evaluation of the same trial as an alternate representation."""
    h = coulomb_hamiltonian(cs)
    trial = coulomb_log_trial(cs, check_normalizable=check_normalizable)

    def closed(qs: np.ndarray) -> np.ndarray:
        return coulomb_local_energy_batch(cs, _flat_to_positions(cs, qs))

    def logform(qs: np.ndarray) -> np.ndarray:
        return local_energy_log_batch(h, trial, qs)

    return LocalEnergyField(
        domain=h.domain,
        evaluate=closed,
        alternates=(logform,),
        label=f"Coulomb local energy (N={cs.n_particles}, D={cs.space_dim})",
    )


# ---------------------------------------------------------------------------
# helium specialization


def helium_system(z: float) -> CoulombSystem:
    """Two unit-mass electrons around an infinitely heavy nucleus of charge Z."""
    return CoulombSystem(
        n_particles=3,
        space_dim=3,
        masses=np.array([math.inf, 1.0, 1.0]),
        charges=np.array([z, -1.0, -1.0]),
    )


def _analytic_report(kind: str, value: float, location, attained: str) -> ExtremumReport:
    return ExtremumReport(
        kind=kind,
        location=None if location is None else np.asarray(location, dtype=float),
        value=value,
        gradient_norm_at_location=None,
        boundary_or_asymptotic=location is None,
        attained=attained,
        history=(value,),
    )


def helium_bounds(z: float) -> BoundsResult:
    """Analytic bounds: the angle cosines at the two electrons sum to a value
    in [0, 2], so E_loc = -Z^2 - 1/4 + Z (cos t1 + cos t2)/2 ranges over
    [-Z^2 - 1/4, -(Z - 1/2)^2].  No search involved.
    """
    if z < 1.0:
        raise ValueError(f"helium-like bounds need Z >= 1, got Z = {z!r}")
    lower = -z * z - 0.25
    upper = -((z - 0.5) ** 2)
    # sup attained at diametrically opposed electrons; inf only in the
    # degenerate collinear same-side limit
    upper_loc = np.array([1.0, 0.0, 0.0, -1.0, 0.0, 0.0])
    return BoundsResult(
        lower=lower,
        upper=upper,
        lower_witness=_analytic_report("min", lower, None, "asymptotic:collinear same-side limit"),
        upper_witness=_analytic_report("max", upper, upper_loc, "analytic:diametrically opposed"),
        resolution_caveat=None,
    )


def helium_search_field(z: float) -> LocalEnergyField:
    """Two-electron field over a reduced 3-coordinate shape box.

    The field depends only on the triangle shape (it is scale and rotation
    invariant), so electron 1 is pinned to (r1, 0, 0) and electron 2 to the
    half-plane (x2, y2 >= 0, 0); both extreme shapes (collinear same-side and
    diametrically opposed) lie inside the box, which is why a bounded box
    search recovers the full range.
    """
    cs = helium_system(z)

    def to_positions(qs: np.ndarray) -> np.ndarray:
        m = qs.shape[0]
        pos = np.zeros((m, 2, 3))
        pos[:, 0, 0] = qs[:, 0]
        pos[:, 1, 0] = qs[:, 1]
        pos[:, 1, 1] = qs[:, 2]
        return pos

    def generic(qs: np.ndarray) -> np.ndarray:
        return coulomb_local_energy_batch(cs, to_positions(qs))

    def z_formula(qs: np.ndarray) -> np.ndarray:
        pos = to_positions(qs)
        x1, x2 = pos[:, 0], pos[:, 1]
        r1 = np.linalg.norm(x1, axis=1)
        r2 = np.linalg.norm(x2, axis=1)
        r12 = np.linalg.norm(x1 - x2, axis=1)
        cos1 = _cos_angle(r1, r12, r2)   # angle at electron 1
        cos2 = _cos_angle(r2, r12, r1)   # angle at electron 2
        return -z * z - 0.25 + z * (cos1 + cos2) / 2.0

    h = coulomb_hamiltonian(cs)
    trial = coulomb_log_trial(cs)

    def logform(qs: np.ndarray) -> np.ndarray:
        return local_energy_log_batch(h, trial, to_positions(qs).reshape(qs.shape[0], 6))

    coincide = _coincidence_tube(cs)

    def tube(qs: np.ndarray) -> np.ndarray:
        return coincide(to_positions(qs).reshape(qs.shape[0], 6))

    box = ((0.1, 2.0), (-2.0, 2.0), (0.0, 2.0))

    def box_constraint(qs: np.ndarray) -> np.ndarray:
        # b < 0 inside the closed shape box (edges y2 = 0 etc. are shapes too,
        # so the box is padded outward by a hair to keep them interior)
        pad = 1e-9
        excess = np.full(qs.shape[0], -np.inf)
        for axis, (lo, hi) in enumerate(box):
            excess = np.maximum(excess, (lo - pad) - qs[:, axis])
            excess = np.maximum(excess, qs[:, axis] - (hi + pad))
        return excess

    dom = Domain(
        dimension=3,
        kind="bounded",
        constraint=box_constraint,
        box=box,
        excluded_singular_sets=(SingularSet("coalescence", tube, limit=None),),
    )
    return LocalEnergyField(
        domain=dom,
        evaluate=generic,
        alternates=(z_formula, logform),
        label=f"helium-like two-electron local energy (Z={z})",
    )
