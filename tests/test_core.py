import math

import numpy as np
import pytest

import groundbound
import reference
from groundbound import core, search, systems
from groundbound.core import (
    BoundsResult,
    Domain,
    Hamiltonian,
    LocalEnergyField,
    LogTrialFunction,
    SingularSet,
    evaluate_masked,
    local_energy_log_batch,
)
from groundbound.systems import (
    CoulombSystem,
    MagneticHydrogen,
    QuarticOscillator,
    coulomb_log_trial,
    helium_system,
    quartic_system,
    unit_disk_field,
)

EXPECTED_QUARTIC_ELOC_AT_ZERO = -7.0 / 16.0


def harmonic_hamiltonian():
    dom = Domain(dimension=1, kind="unbounded", box=((-10.0, 10.0),))
    return Hamiltonian(np.array([[0.5]]), lambda qs: 0.5 * qs[:, 0] ** 2, dom)


def harmonic_trial():
    return LogTrialFunction(derivs=lambda qs: (-qs, np.full(qs.shape[0], -1.0)))


def harmonic_s(qs):
    return -0.5 * qs[:, 0] ** 2


# ---------------------------------------------------------------------------
# public surface


@pytest.mark.parametrize("module", [groundbound, core, search, systems], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert len(set(module.__all__)) == len(module.__all__)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


# ---------------------------------------------------------------------------
# domain types


def test_domain_requires_constraint_when_bounded():
    with pytest.raises(ValueError):
        Domain(dimension=2, kind="bounded")
    with pytest.raises(ValueError):
        Domain(dimension=2, kind="open")


def test_interior_is_strict():
    dom = Domain(2, "bounded", constraint=lambda qs: qs[:, 0] ** 2 + qs[:, 1] ** 2 - 1.0)
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    assert dom.interior_mask(pts).tolist() == [True, False, False]


def test_hamiltonian_validation():
    dom = Domain(dimension=2, kind="unbounded", box=((-1, 1), (-1, 1)))
    v = lambda qs: np.zeros(qs.shape[0])
    with pytest.raises(ValueError):
        Hamiltonian(np.array([[1.0, 0.5], [0.4, 1.0]]), v, dom)  # not symmetric
    with pytest.raises(ValueError):
        Hamiltonian(np.array([[1.0, 2.0], [2.0, 1.0]]), v, dom)  # not positive definite
    h = Hamiltonian.isotropic(0.5, v, dom)
    assert h.isotropic_coefficient == 0.5


def test_bounds_result_ordering():
    with pytest.raises(ValueError):
        BoundsResult(lower=1.0, upper=0.0, lower_witness=None, upper_witness=None)


# ---------------------------------------------------------------------------
# local energy, log form


def test_hydrogen_trial_is_flat():
    h = reference.hydrogen_hamiltonian_3d()
    t = reference.hydrogen_trial_3d(1.0)
    val = local_energy_log_batch(h, t, np.array([[0.3, -0.2, 0.9]]))
    assert val.shape == (1,)
    assert val[0] == pytest.approx(-0.5, abs=1e-12)


def test_hydrogen_flatness_variance():
    # an exact eigenstate has exactly flat local energy
    h = reference.hydrogen_hamiltonian_3d()
    t = reference.hydrogen_trial_3d(1.0)
    rng = np.random.default_rng(0)
    pts = rng.uniform(-3, 3, size=(1000, 3))
    pts = pts[np.linalg.norm(pts, axis=1) > 1e-3]
    vals = local_energy_log_batch(h, t, pts)
    rel_var = np.var(vals / np.mean(vals))
    assert rel_var < 1e-16


def test_harmonic_ground_state_value():
    vals = local_energy_log_batch(harmonic_hamiltonian(), harmonic_trial(), np.array([[1.3], [-2.0]]))
    assert vals == pytest.approx([0.5, 0.5], abs=1e-14)


def test_quartic_local_energy_at_origin_matches_symbolic_oracle():
    # independent symbolic oracle: differentiate a test-local transcription of
    # the trial exponent and evaluate V - (S'' + S'^2)/2 exactly at the origin
    import sympy as sp

    q = sp.Symbol("q", real=True)
    r, eta, d2 = 1 / sp.sqrt(2), -1, sp.Integer(8)
    w = q * q + d2
    s_expr = (
        -(r / 3) * w ** sp.Rational(3, 2)
        + (r * d2 * (1 - eta) / 2) * sp.sqrt(w)
        - sp.log(w) / 2
        - (r * d2**2 / 2) / sp.sqrt(w)
    )
    v_expr = r**2 * q**2 * (q**2 + eta * d2) / 2
    e_expr = v_expr - (sp.diff(s_expr, q, 2) + sp.diff(s_expr, q) ** 2) / 2
    oracle = sp.nsimplify(e_expr.subs(q, 0))
    assert oracle == sp.Rational(-7, 16)
    assert float(oracle) == EXPECTED_QUARTIC_ELOC_AT_ZERO

    qo = QuarticOscillator(r=1.0 / math.sqrt(2.0), eta=-1, delta2=8.0)
    h, trial = quartic_system(qo)
    at_zero = local_energy_log_batch(h, trial, np.array([[0.0]]))[0]
    assert at_zero == pytest.approx(EXPECTED_QUARTIC_ELOC_AT_ZERO, abs=1e-12)

    # coarse finite-difference corroboration of the same value
    def s(x):
        return float(reference.quartic_s(qo, np.array([[x]]))[0])

    hh = 1e-3
    s1 = (-s(2 * hh) + 8 * s(hh) - 8 * s(-hh) + s(-2 * hh)) / (12 * hh)
    s2 = (-s(2 * hh) + 16 * s(hh) - 30 * s(0.0) + 16 * s(-hh) - s(-2 * hh)) / (12 * hh * hh)
    assert -0.5 * (s2 + s1 * s1) == pytest.approx(EXPECTED_QUARTIC_ELOC_AT_ZERO, abs=1e-6)


def test_anisotropic_form_needs_hessian():
    dom = Domain(dimension=2, kind="unbounded", box=((-1, 1), (-1, 1)))
    a = np.array([[0.5, 0.1], [0.1, 0.5]])
    h = Hamiltonian(a, lambda qs: np.zeros(qs.shape[0]), dom)
    t = LogTrialFunction(derivs=lambda qs: (-2 * qs, np.full(qs.shape[0], -4.0)))
    with pytest.raises(ValueError):
        local_energy_log_batch(h, t, np.array([[0.3, 0.4]]))


# ---------------------------------------------------------------------------
# local energy, ratio form


def test_disk_ratio_values():
    # phi = 1 - x^2 - y^2, H phi = -lap(phi)/2 = 2, so E_loc = 2/(1 - s)
    vals = unit_disk_field().evaluate(np.array([[0.0, 0.0], [0.5, 0.0]]))
    assert vals == pytest.approx([2.0, 8.0 / 3.0], abs=1e-14)


# ---------------------------------------------------------------------------
# derivative consistency of every shipped trial


@pytest.mark.parametrize(
    "name",
    [
        "hydrogen",
        "harmonic",
        "quartic",
        "coulomb-helium",
        "coulomb-finite-mass",
        "magnetic-lower",
        "magnetic-upper",
        "magnetic-improved",
    ],
)
def test_shipped_trial_derivatives_match_finite_differences(name):
    rng = np.random.default_rng(42)
    n = 200
    if name == "hydrogen":
        trial, s = reference.hydrogen_trial_3d(1.3), lambda qs: reference.hydrogen_s(1.3, qs)
        pts = rng.uniform(0.3, 3.0, size=(n, 3)) * rng.choice([-1.0, 1.0], size=(n, 3))
    elif name == "harmonic":
        trial, s = harmonic_trial(), harmonic_s
        pts = rng.uniform(-3, 3, size=(n, 1))
    elif name == "quartic":
        qo = QuarticOscillator(r=1.0 / math.sqrt(2.0), eta=-1, delta2=8.0)
        trial, s = qo.log_trial(), lambda qs: reference.quartic_s(qo, qs)
        pts = rng.uniform(-6, 6, size=(n, 1))
    elif name.startswith("coulomb"):
        if name == "coulomb-helium":
            cs = helium_system(2.0)
        else:
            # finite nucleus mass: the log form contracts this Hessian against a
            # non-isotropic inverse-mass form
            cs = CoulombSystem(3, 3, np.array([4.0, 1.0, 1.0]), np.array([2.0, -1.0, -1.0]))
        trial, s = coulomb_log_trial(cs), lambda qs: reference.coulomb_s(cs, qs)
        pts = rng.uniform(0.4, 2.5, size=(n, 6)) * rng.choice([-1.0, 1.0], size=(n, 6))
    else:
        variant = name.split("-")[1]
        trial, s = reference.magnetic_trial(MagneticHydrogen(2.0), variant)
        pts = rng.uniform(0.3, 4.0, size=(n, 3))
        pts[:, 2] += 0.2  # stay clear of the z = 0 ridge of the even extension
    grad_err, lap_err = reference.derivative_consistency(trial.derivs, s, pts)
    assert grad_err <= 1e-6
    assert lap_err <= 1e-5


def test_evaluate_with_limits_fills_declared_values():
    tube = SingularSet("left half", lambda qs: qs[:, 0] < 0.0, limit=7.0)
    dom = Domain(1, "unbounded", box=((-1.0, 1.0),), excluded_singular_sets=(tube,))
    f = LocalEnergyField(domain=dom, evaluate=lambda qs: qs[:, 0])
    qs = np.array([[-0.5], [0.5]])
    filled = f.evaluate_with_limits(qs)
    assert filled.tolist() == [7.0, 0.5]
    as_nan = f.evaluate_with_limits(qs, singular_as_nan=True)
    assert math.isnan(as_nan[0]) and as_nan[1] == 0.5


def test_evaluate_masked_sees_only_the_valid_rows():
    seen = []

    def evaluate(members, qs):
        seen.append((members.tolist(), qs[:, 0].tolist()))
        return 10.0 * members + qs[:, 0]

    members = np.array([0, 1, 1, 2])
    qs = np.array([[0.5], [1.5], [2.5], [3.5]])
    ok = np.array([True, False, True, True])
    vals = evaluate_masked(ok, evaluate, members, qs)
    assert seen == [([0, 1, 2], [0.5, 2.5, 3.5])]
    assert math.isnan(vals[1]) and vals[[0, 2, 3]].tolist() == [0.5, 12.5, 23.5]
    seen.clear()
    assert evaluate_masked(np.ones(4, dtype=bool), evaluate, members, qs).tolist() == [0.5, 11.5, 12.5, 23.5]
    assert seen == [([0, 1, 1, 2], [0.5, 1.5, 2.5, 3.5])]
    seen.clear()
    for none in (np.zeros(4, dtype=bool), np.zeros(0, dtype=bool)):
        n = none.shape[0]
        assert np.isnan(evaluate_masked(none, evaluate, members[:n], qs[:n])).all()
    assert seen == []  # not called without a valid row


def test_each_tube_runs_once_per_batch():
    calls = []

    def tube(qs):
        calls.append(qs.shape[0])
        return qs[:, 0] < -0.5

    sing = SingularSet("left end", tube, limit=3.0)
    dom = Domain(1, "unbounded", box=((-1.0, 1.0),), excluded_singular_sets=(sing,))
    f = LocalEnergyField(domain=dom, evaluate=lambda qs: qs[:, 0])
    qs = np.linspace(-1.0, 1.0, 9)[:, None]
    assert dom.valid_mask(qs).tolist() == (qs[:, 0] >= -0.5).tolist()
    assert calls == [9]
    calls.clear()
    filled = f.evaluate_with_limits(qs)
    assert calls == [9]
    assert filled.tolist() == [3.0, 3.0] + qs[2:, 0].tolist()
