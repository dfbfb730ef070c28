"""The lockstep polish against a one-start reference, and the batch invariance
of every shipped field that lets lockstep reproduce single-start trajectories."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groundbound.core import sample_interior
from groundbound.refine import GaussianBump, RefinementState, perturbed_field
from groundbound.search import POLISH_STEP_STOP, POLISH_VALUE_STOP, _fd_gradient_norm, _polish
from groundbound.systems import (
    AnnularBilliard,
    MagneticHydrogen,
    QuarticOscillator,
    billiard_local_energy_field,
    helium_search_field,
    hydrogen_radial_field,
    magnetic_hydrogen_field,
    quartic_field,
    quartic_system,
)

BOX = ((-2.0, 2.0), (-1.5, 1.5))


def reference_polish(objective, x0, box, initial_step):
    """Greedy coordinate descent from one start, one point per call.

    Returns the polished point, its value and the number of sweeps taken.
    """
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    x = np.clip(np.asarray(x0, dtype=float).copy(), lo, hi)
    fx = objective(x)
    step = np.asarray(initial_step, dtype=float).copy()
    sweeps = 0
    while np.max(step) >= POLISH_STEP_STOP:
        sweeps += 1
        start = fx
        improved = False
        for i in range(x.shape[0]):
            for s in (+step[i], -step[i]):
                cand = x.copy()
                cand[i] = min(max(cand[i] + s, lo[i]), hi[i])
                fc = objective(cand)
                if fc < fx:
                    x, fx = cand, fc
                    improved = True
        if not improved or (start - fx) < POLISH_VALUE_STOP:
            step *= 0.5
    return x, fx, sweeps


def wells(qs):
    """Three Gaussian wells on a shallow bowl; +inf on a masked disk."""
    x, y = qs[:, 0], qs[:, 1]
    v = 0.05 * (x * x + y * y)
    for cx, cy, depth, width in ((-1.0, 0.5, 1.0, 0.3), (1.2, -0.4, 0.7, 0.5), (0.1, -1.0, 0.4, 0.2)):
        v = v - depth * np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / width)
    return np.where(in_masked_disk(qs), np.inf, v)


def in_masked_disk(qs):
    return (qs[:, 0] - 1.6) ** 2 + (qs[:, 1] - 1.0) ** 2 < 0.3


def wells_nan(qs):
    """:func:`wells` as a raw field: NaN, not +inf, on the masked disk."""
    return np.where(in_masked_disk(qs), np.nan, wells(qs))


def counted(fn):
    calls = []

    def wrapper(qs):
        calls.append(qs.shape[0])
        return fn(qs)

    return wrapper, calls


def assert_matches_reference(starts, step, signs=None, fn=wells):
    """The lockstep polish of ``fn`` against one reference polish per start
    of ``sign * fn``, a non-finite value counting as +inf."""
    signs = np.ones(len(starts)) if signs is None else np.asarray(signs, dtype=float)
    objective, calls = counted(fn)
    xs, fs = _polish(objective, starts, BOX, step, signs)
    sweeps = []
    for j, x0 in enumerate(starts):

        def one(q, sign=signs[j]):
            v = sign * fn(q[None, :])[0]
            return v if math.isfinite(v) else math.inf

        x, f, n = reference_polish(one, x0, BOX, step)
        assert xs[j].tobytes() == x.tobytes()
        assert np.float64(fs[j]).tobytes() == np.float64(f).tobytes()
        sweeps.append(n)
    # one batched call for the start values, then one per probe of the longest run
    assert len(calls) == 1 + 2 * len(BOX) * max(sweeps)
    return fs, sweeps


def test_lockstep_matches_reference_with_unequal_sweeps_clipping_and_masked_starts():
    starts = np.array([
        [-1.0, 0.5],   # at a well bottom: a short run
        [0.4, 0.1],    # between wells
        [3.0, -2.5],   # outside the box: clipped to the corner
        [1.6, 1.0],    # inside the masked disk: starts at +inf
        [-2.0, 1.5],   # on the box corner
    ])
    _, sweeps = assert_matches_reference(starts, np.array([0.04, 0.03]))
    assert len(set(sweeps)) > 1
    assert wells(starts[3:4])[0] == math.inf


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    starts=st.lists(
        st.tuples(st.floats(-3.0, 3.0), st.floats(-2.5, 2.5)), min_size=1, max_size=6
    ),
    step=st.tuples(st.floats(0.02, 1.0), st.floats(0.02, 1.0)),
)
def test_lockstep_matches_reference_polish(starts, step):
    assert_matches_reference(np.array(starts), np.array(step))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    starts=st.lists(
        st.tuples(st.floats(-3.0, 3.0), st.floats(-2.5, 2.5), st.sampled_from([1.0, -1.0])),
        min_size=1,
        max_size=6,
    ),
    stuck_signs=st.lists(st.sampled_from([1.0, -1.0]), min_size=1, max_size=2),
    step=st.tuples(st.floats(0.02, 0.5), st.floats(0.02, 0.5)),
)
def test_lockstep_with_mixed_signs_matches_reference_polish(starts, stuck_signs, step):
    # rows at the masked disk's centre never leave it at these steps: they stay at +inf
    rows = starts + [(1.6, 1.0, s) for s in stuck_signs]
    points = np.array([r[:2] for r in rows])
    signs = np.array([r[2] for r in rows])
    fs, _ = assert_matches_reference(points, np.array(step), signs, wells_nan)
    assert np.all(fs[len(starts):] == math.inf)


def _bumped_quartic():
    qo = QuarticOscillator(1.0 / math.sqrt(2.0), -1, 8.0)
    h, base = quartic_system(qo)
    bumps = (GaussianBump(0.3, -2.0, 1.0), GaussianBump(-0.2, 1.5, 1.0), GaussianBump(0.1, 0.4, 1.0))
    return perturbed_field(RefinementState(h, base, quartic_field(qo).asymptotic_limits, bumps, math.nan, ()))


SHIPPED_FIELDS = {
    "billiard": lambda: billiard_local_energy_field(AnnularBilliard(0.75, 0.1)),
    "quartic": lambda: quartic_field(QuarticOscillator(1.0 / math.sqrt(2.0), -1, 8.0)),
    "magnetic-lower": lambda: magnetic_hydrogen_field(MagneticHydrogen(2.0), "lower"),
    "magnetic-upper": lambda: magnetic_hydrogen_field(MagneticHydrogen(2.0), "upper"),
    "magnetic-improved": lambda: magnetic_hydrogen_field(MagneticHydrogen(2.0), "improved"),
    "hydrogen-radial": lambda: hydrogen_radial_field(1.0),
    "helium": lambda: helium_search_field(2.0),
    "quartic-bumped": _bumped_quartic,
}


@pytest.mark.parametrize("name", sorted(SHIPPED_FIELDS))
def test_field_rows_do_not_depend_on_the_batch(name):
    field = SHIPPED_FIELDS[name]()
    qs = sample_interior(field.domain, 64, np.random.default_rng(7), extra_mask=lambda q: ~field.singular_mask(q))
    batch = field.evaluate(qs)
    rows = np.concatenate([field.evaluate(qs[j:j + 1]) for j in range(qs.shape[0])])
    assert batch.tobytes() == rows.tobytes()


def reference_gradient_norm(field, x):
    """Central differences one axis at a time, two points per call."""
    h = 1e-6
    g = np.zeros(x.shape[0])
    for i in range(x.shape[0]):
        e = np.zeros(x.shape[0])
        e[i] = h
        pair = np.stack([x + e, x - e])
        if not field.domain.valid_mask(pair).all():
            return None
        vp, vm = field.evaluate(pair)
        g[i] = (vp - vm) / (2 * h)
    return float(np.linalg.norm(g))


@pytest.mark.parametrize("name", ["billiard", "magnetic-improved", "helium", "quartic"])
def test_batched_gradient_norm_matches_pairwise_differences(name):
    field = SHIPPED_FIELDS[name]()
    qs = sample_interior(field.domain, 8, np.random.default_rng(3), extra_mask=lambda q: ~field.singular_mask(q))
    for x in qs:
        assert _fd_gradient_norm(field, x) == reference_gradient_norm(field, x)
