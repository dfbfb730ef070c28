import math

import numpy as np
import pytest

from groundbound.core import cross_check_field
from groundbound.search import SearchConfig, global_min
from groundbound.systems import AnnularBilliard, billiard_local_energy_field, unit_disk_field
from groundbound.polynomials import MultivariatePolynomial as P, barta_polynomial_construction


def test_geometry_validation():
    with pytest.raises(ValueError):
        AnnularBilliard(r=1.2, delta=0.0)
    with pytest.raises(ValueError):
        AnnularBilliard(r=0.75, delta=0.3)  # r + delta >= 1 degenerates
    AnnularBilliard(r=0.75, delta=0.1)


def test_closed_form_equals_polynomial_ratio_everywhere():
    ab = AnnularBilliard(r=0.75, delta=0.1)
    f = billiard_local_energy_field(ab)
    rep = cross_check_field(f, 300, seed=2)
    assert rep.passed, rep


def test_ratio_value_near_the_minimizer():
    # the alternate is H phi / phi of phi = -b, with Delta(b) from polynomial arithmetic
    (ratio_form,) = billiard_local_energy_field(AnnularBilliard(r=0.75, delta=0.1)).alternates
    val = ratio_form(np.array([[0.86, 0.0]]))
    assert val[0] == pytest.approx(28.390, abs=0.01)


def test_boundary_polynomial_matches_direct_evaluation():
    ab = AnnularBilliard(r=0.75, delta=0.1)
    poly = ab.boundary_polynomial()
    pts = np.random.default_rng(3).uniform(-1, 1.2, size=(200, 2))
    assert np.allclose(poly(pts), ab.b(pts), rtol=0, atol=1e-12)


def test_trial_is_positive_inside():
    ab = AnnularBilliard(r=0.75, delta=0.1)
    pts = np.random.default_rng(4).uniform(-1, 1.1, size=(4000, 2))
    inside = pts[ab.domain().interior_mask(pts)]
    assert np.all(-ab.b(inside) > 0)  # phi = -b


def test_concentric_case_symmetry_and_ring_degeneracy():
    ab = AnnularBilliard(r=0.75, delta=0.0)
    f = billiard_local_energy_field(ab)
    pts = np.array([[0.86, 0.05], [0.86, -0.05], [-0.86, 0.05], [0.05, 0.86]])
    v = f.evaluate(pts)
    assert v[0] == pytest.approx(v[1], rel=1e-14)  # y -> -y
    assert v[0] == pytest.approx(v[2], rel=1e-14)  # x -> -x
    assert v[0] == pytest.approx(v[3], rel=1e-12)  # in fact a full ring
    # the minimizing set is a circle: same minimum after restricting the
    # search to disjoint angular patches
    rep_right = global_min(f, cfg=SearchConfig(box=((0.76, 0.99), (-0.1, 0.1))))
    rep_top = global_min(f, cfg=SearchConfig(box=((-0.1, 0.1), (0.76, 0.99))))
    assert rep_right.value == pytest.approx(rep_top.value, abs=1e-9)
    assert np.hypot(*rep_right.location) == pytest.approx(np.hypot(*rep_top.location), abs=1e-6)


def test_unit_disk_field_with_constructed_polynomials_is_bounded():
    b = P(2, {(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0})
    f_poly, g_poly = barta_polynomial_construction(b, 2)
    field = unit_disk_field(f_poly, g_poly)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1, 1, size=(5000, 2))
    pts = pts[field.domain.interior_mask(pts)]
    vals = field.evaluate(pts)
    assert np.all(np.isfinite(vals))
    assert vals.min() >= 8.0 / 3.0 - 1e-9
    assert vals.max() <= 4.0 + 1e-9


def test_unit_disk_plain_ratio_is_unbounded_at_the_boundary():
    field = unit_disk_field()
    near = np.array([[0.999, 0.0]])
    far = np.array([[0.0, 0.0]])
    assert field.evaluate(near)[0] > field.evaluate(far)[0]
    assert field.domain.excluded_singular_sets[0].max_limit == math.inf
