import math

import numpy as np
import pytest

from groundbound.systems import (
    CoulombSystem,
    coulomb_field,
    coulomb_local_energy_batch,
    helium_bounds,
    helium_search_field,
    helium_system,
)
from groundbound.systems.coulomb import trial_is_normalizable
from reference import (
    CROSS_CHECK_TOLERANCE,
    coulomb_hamiltonian,
    coulomb_logform,
    cross_check,
    helium_logform,
    helium_z_formula,
)


def random_system(rng, n_max=5):
    n = int(rng.integers(3, n_max + 1))
    d = int(rng.choice([2, 3]))
    masses = rng.uniform(0.5, 5.0, size=n)
    if rng.random() < 0.4:
        masses[0] = math.inf
    charges = rng.uniform(0.5, 3.0, size=n) * rng.choice([-1.0, 1.0], size=n)
    return CoulombSystem(n, d, masses, charges)


def test_validation():
    with pytest.raises(ValueError):
        CoulombSystem(3, 1, np.ones(3), np.ones(3))  # D < 2 has no cusp cancellation
    with pytest.raises(ValueError):
        CoulombSystem(3, 3, np.array([math.inf, math.inf, 1.0]), np.ones(3))
    with pytest.raises(ValueError):
        CoulombSystem(3, 3, np.array([1.0, -1.0, 1.0]), np.ones(3))


def test_field_and_hamiltonian_share_one_domain():
    # the field builds its domain without the Hamiltonian; a third of the
    # points put a particle within 1e-7 of the nucleus or of another particle
    rng = np.random.default_rng(3)
    for _ in range(10):
        cs = random_system(rng)
        pos = rng.uniform(-2.0, 2.0, size=(300, cs.n_particles - 1, cs.space_dim))
        for j in range(100):
            k = int(rng.integers(cs.n_particles - 1))
            l = int(rng.integers(-1, cs.n_particles - 1))  # -1: the particle at the origin
            near = np.zeros(cs.space_dim) if l in (-1, k) else pos[j, l]
            pos[j, k] = near + rng.uniform(-1e-7, 1e-7, size=cs.space_dim) / math.sqrt(cs.space_dim)
        qs = pos.reshape(300, cs.flat_dim)
        got = coulomb_field(cs, check_normalizable=False).domain
        want = coulomb_hamiltonian(cs).domain
        assert (got.box, got.kind) == (want.box, want.kind)
        mask = got.valid_mask(qs)
        assert np.array_equal(mask, want.valid_mask(qs))
        assert not mask[:100].any() and mask[100:].all()


def test_cusp_coefficients_symmetric():
    rng = np.random.default_rng(0)
    for _ in range(10):
        cs = random_system(rng)
        lam = cs.cusp_coefficients
        assert np.array_equal(lam, lam.T)
        assert np.all(np.diag(lam) == 0.0)


def test_hydrogen_is_exactly_constant():
    cs = CoulombSystem(2, 3, np.array([math.inf, 1.0]), np.array([1.0, -1.0]))
    rng = np.random.default_rng(1)
    vals = coulomb_local_energy_batch(cs, rng.standard_normal((1000, 1, 3)))
    assert np.all(vals == -0.5)  # lam = 1, m01 = 1: -lam^2/(2 m01) exactly


def test_two_body_flatness_for_generic_masses():
    cs = CoulombSystem(2, 3, np.array([3.7, 1.3]), np.array([2.0, -1.0]))
    lam = cs.cusp_coefficients[0, 1]
    m01 = cs.reduced_masses[0, 1]
    expected = -lam * lam / (2.0 * m01)
    rng = np.random.default_rng(2)
    vals = coulomb_local_energy_batch(cs, rng.standard_normal((1000, 1, 3)))
    assert np.all(vals == expected)
    assert np.var(vals / expected) < 1e-16


def test_helium_angle_formula_extremes():
    he = helium_system(2.0)
    diametric, same_side = coulomb_local_energy_batch(
        he, np.array([[[1.0, 0, 0], [-1.0, 0, 0]], [[1.0, 0, 0], [0.5, 0, 0]]])
    )
    assert diametric == pytest.approx(-2.25, abs=1e-12)
    assert same_side == pytest.approx(-4.25, abs=1e-12)


def test_helium_z_formula_matches_generic():
    # E = -Z^2 - 1/4 + Z (cos t1 + cos t2)/2 against the generic evaluation,
    # with the angles at the electrons from the law of cosines
    rng = np.random.default_rng(3)
    he = helium_system(2.0)
    for _ in range(50):
        x1, x2 = rng.uniform(-2, 2, size=(2, 3))
        r1, r2, r12 = np.linalg.norm(x1), np.linalg.norm(x2), np.linalg.norm(x1 - x2)
        if min(r1, r2, r12) < 1e-3:
            continue
        t1 = math.acos(np.clip((r1**2 + r12**2 - r2**2) / (2.0 * r1 * r12), -1.0, 1.0))
        t2 = math.acos(np.clip((r2**2 + r12**2 - r1**2) / (2.0 * r2 * r12), -1.0, 1.0))
        by_formula = -4.0 - 0.25 + 2.0 * (math.cos(t1) + math.cos(t2)) / 2.0
        generic = coulomb_local_energy_batch(he, np.stack([x1, x2]))
        assert generic.shape == (1,)
        assert generic[0] == pytest.approx(by_formula, rel=1e-12)


def test_closed_form_equals_log_form_for_random_systems():
    rng = np.random.default_rng(5)
    for _ in range(10):
        cs = random_system(rng)
        field = coulomb_field(cs, check_normalizable=False)
        worst = cross_check(field, [coulomb_logform(cs)], 100, seed=int(rng.integers(1 << 16)))
        assert worst <= CROSS_CHECK_TOLERANCE, (cs, worst)


def test_helium_three_representations_agree():
    worst = cross_check(helium_search_field(2.0), [helium_z_formula(2.0), helium_logform(2.0)], 200, seed=6)
    assert worst <= CROSS_CHECK_TOLERANCE, worst


def test_helium_bounds_analytic():
    b2 = helium_bounds(2.0)
    assert (b2.lower, b2.upper) == (-4.25, -2.25)
    b1 = helium_bounds(1.0)
    assert (b1.lower, b1.upper) == (-1.25, -0.25)
    for z in (1.0, 1.5, 2.0, 3.0):
        b = helium_bounds(z)
        assert b.upper - b.lower == pytest.approx(z, rel=1e-14)
        assert b.upper == pytest.approx(-((z - 0.5) ** 2), rel=1e-14)
    with pytest.raises(ValueError):
        helium_bounds(0.5)


def test_helium_field_range_over_many_configurations():
    he = helium_system(2.0)
    lower, upper = -4.25, -2.25
    rng = np.random.default_rng(7)
    worst_lo, worst_hi = math.inf, -math.inf
    for _ in range(10):  # 10 x 100k configurations, chunked for memory
        pos = rng.uniform(-2, 2, size=(100_000, 2, 3))
        vals = coulomb_local_energy_batch(he, pos)
        assert vals.min() >= lower - 1e-9
        assert vals.max() <= upper + 1e-9
        worst_lo = min(worst_lo, vals.min())
        worst_hi = max(worst_hi, vals.max())
    # adversarial collinear configurations reach both ends
    t = np.linspace(0.1, 0.9, 1001)
    same_side = np.zeros((t.size, 2, 3))
    same_side[:, 0, 0] = 1.0
    same_side[:, 1, 0] = t
    v = coulomb_local_energy_batch(he, same_side)
    assert v.min() <= lower + 1e-3
    opposed = np.zeros((1, 2, 3))
    opposed[:, 0, 0] = 1.0
    opposed[:, 1, 0] = -1.0
    assert coulomb_local_energy_batch(he, opposed)[0] >= upper - 1e-3


def test_normalizability_flag_and_warning():
    assert trial_is_normalizable(helium_system(2.0))
    # a like-charged pair repels: the pair term grows and the trial cannot decay
    bad = CoulombSystem(2, 3, np.array([1.0, 1.0]), np.array([1.0, 1.0]))
    assert not trial_is_normalizable(bad)
    with pytest.warns(UserWarning):
        coulomb_field(bad)


def test_log_trial_hessian_contracts_against_anisotropic_form():
    # finite nucleus mass turns on the off-diagonal momentum coupling; the
    # closed form absorbs it through the vertex-mass angle terms
    cs = CoulombSystem(3, 3, np.array([10.0, 1.0, 1.2]), np.array([2.0, -1.0, -1.0]))
    worst = cross_check(coulomb_field(cs, check_normalizable=False), [coulomb_logform(cs)], 200, seed=8)
    assert worst <= CROSS_CHECK_TOLERANCE, worst
