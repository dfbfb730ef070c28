"""Acceptance gate: every shipped claim at its stated tolerance and budget.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see them
on success).  The tolerances and runtime limits are fixed here, not tuned at
run time.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from groundbound import cli
from groundbound.cli import main
from groundbound.oracle import Grid1D, Grid2D, solve_1d_ground_state, solve_2d_dirichlet_ground_state
from groundbound.refine import GaussianBump, default_centers, new_refinement_state, perturbed_field
from groundbound.search import SearchConfig, bounds_of_field, global_max, global_min
from groundbound.systems import (
    AnnularBilliard,
    CoulombSystem,
    MagneticHydrogen,
    QuarticOscillator,
    billiard_local_energy_field,
    coulomb_local_energy_batch,
    cusp_defects,
    helium_bounds,
    helium_search_field,
    magnetic_hydrogen_field,
    quartic_field,
    quartic_system,
)
from dataclasses import replace
from reference import anisotropic_local_energy, coulomb_hamiltonian, coulomb_log_trial, refine_schedule

QUARTIC = dict(r=1.0 / math.sqrt(2.0), eta=-1, delta2=8.0)
REFINE_CFG = SearchConfig(grid_points_per_axis=401, refinement_levels=2, multistart_count=1)


@contextmanager
def criterion(number: int, description: str, budget_s: float | None = None):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL  criterion {number:2d}: {description}")
        raise
    elapsed = time.perf_counter() - started
    print(f"PASS  criterion {number:2d}: {description} ({elapsed:.1f}s)")
    if budget_s is not None:
        assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s budget ({elapsed:.1f}s)"


def test_criterion_01_billiard_lower_bound():
    with criterion(1, "annular billiard: inf E_loc = 28.390 +- 0.01 near (0.86, 0)", 10.0):
        field = billiard_local_energy_field(AnnularBilliard(r=0.75, delta=0.1))
        rep = global_min(field, cfg=SearchConfig())
        assert rep.value == pytest.approx(28.390, abs=0.01)
        assert abs(rep.location[0] - 0.86) <= 0.01
        assert abs(rep.location[1] - 0.0) <= 0.01


def test_criterion_02_billiard_oracle_and_sandwich():
    with criterion(2, "annular billiard oracle: E0 = 42.94 +- 0.5 and 28.390 <= E0", 120.0):
        field = billiard_local_energy_field(AnnularBilliard(r=0.75, delta=0.1))
        res = solve_2d_dirichlet_ground_state(field.domain, Grid2D(field.domain.box, 400))
        assert res.energy == pytest.approx(42.94, abs=0.5)
        assert 28.390 <= res.energy


def test_criterion_03_helium_bounds_and_search():
    with criterion(3, "helium: exactly (-4.25, -2.25); search recovers both ends to 1e-3", 30.0):
        analytic = helium_bounds(2.0)
        assert (analytic.lower, analytic.upper) == (-4.25, -2.25)
        f = helium_search_field(2.0)
        # both ends from one lockstep search, the same floats as global_min
        # and global_max under the same config
        found = bounds_of_field(f, SearchConfig())
        assert abs(found.lower - (-4.25)) <= 1e-3
        assert abs(found.upper - (-2.25)) <= 1e-3


def test_criterion_04_coulomb_closed_form_equivalence():
    with criterion(4, "Coulomb closed form == log form to 1e-8 (50 systems x 100 configs)", 30.0):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(50):
            n = int(rng.integers(3, 6))
            d = int(rng.choice([2, 3]))
            masses = rng.uniform(0.5, 5.0, size=n)
            if rng.random() < 0.5:
                masses[0] = math.inf
            charges = rng.uniform(0.5, 3.0, size=n) * rng.choice([-1.0, 1.0], size=n)
            cs = CoulombSystem(n, d, masses, charges)
            h = coulomb_hamiltonian(cs)
            derivs = coulomb_log_trial(cs)
            pos = rng.uniform(-2.0, 2.0, size=(100, n - 1, d))
            closed = coulomb_local_energy_batch(cs, pos)
            logform = anisotropic_local_energy(h, derivs, pos.reshape(100, cs.flat_dim))
            scale = np.maximum(np.abs(closed), np.abs(logform))
            worst = max(worst, float(np.max(np.abs(closed - logform) / scale)))
        assert worst <= 1e-8, worst


def test_criterion_05_two_body_flatness():
    with criterion(5, "N=2 flatness: relative variance < 1e-16, value exact"):
        cs = CoulombSystem(2, 3, np.array([math.inf, 1.0]), np.array([1.0, -1.0]))
        rng = np.random.default_rng(11)
        vals = coulomb_local_energy_batch(cs, rng.standard_normal((1000, 1, 3)))
        lam = cs.cusp_coefficients[0, 1]
        expected = -lam * lam / (2.0 * cs.reduced_masses[0, 1])
        assert np.all(vals == expected)
        assert float(np.var(vals / np.mean(vals))) < 1e-16


def test_criterion_06_magnetic_trivial_and_improved():
    with criterion(6, "magnetic hydrogen: (-0.5, -0.5+B/2) to 1e-6; improved B=4 beats -0.5", 60.0):
        bs = (0.5, 1.0, 2.0)
        trivial = [{"B": b, "variant": "trivial"} for b in bs]
        for b, res in zip(bs, cli._bounds(cli.SYSTEMS["magnetic-hydrogen"], trivial, SearchConfig())):
            assert abs(res.lower - (-0.5)) <= 1e-6
            assert abs(res.upper - (-0.5 + b / 2.0)) <= 1e-6
        improved = global_min(
            magnetic_hydrogen_field(MagneticHydrogen(4.0), "improved"),
            cfg=SearchConfig(grid_points_per_axis=161),
        )
        assert improved.value > -0.5


def test_criterion_07_quartic_baseline_refinement_oracle():
    with criterion(7, "quartic: inf -3.27 +- 0.01; schedule >= -2.80 monotone; oracle -2.66 +- 0.01; sandwich", 120.0):
        qo = QuarticOscillator(**QUARTIC)
        h, base = quartic_system(qo)
        field = quartic_field(qo)
        baseline = global_min(field, cfg=REFINE_CFG)
        assert baseline.value == pytest.approx(-3.27, abs=0.01)

        state = refine_schedule(
            h, base, field.asymptotic_limits, default_centers(), sigma=1.0, cfg=REFINE_CFG
        )
        lows = [v for _, v in state.bound_history]
        assert all(later >= earlier for earlier, later in zip(lows, lows[1:]))
        assert state.current_lower >= -2.80

        oracle = solve_1d_ground_state(qo.potential, Grid1D(-8.0, 8.0, 2000))
        assert oracle.energy == pytest.approx(-2.66, abs=0.01)

        slack = oracle.error_bar + 1e-3
        upper = global_max(field, cfg=REFINE_CFG).value
        assert all(low <= oracle.energy + slack for low in lows)
        assert oracle.energy - slack <= upper


def test_criterion_08_cusp_conditions():
    with criterion(8, "magnetic hydrogen cusp conditions hold to 1e-10 for every variant"):
        for b in (0.5, 1.0, 2.3, 4.0):
            for variant in ("lower", "upper", "improved"):
                radial, axis = cusp_defects(MagneticHydrogen(b), variant)
                assert radial <= 1e-10, (b, variant, radial)
                assert axis <= 1e-10, (b, variant, axis)


def test_criterion_09_locality():
    with criterion(9, "a bump >= 10 sigma from the minimizer moves the quartic bound < 1e-6"):
        qo = QuarticOscillator(**QUARTIC)
        h, base = quartic_system(qo)
        field = quartic_field(qo)
        state = new_refinement_state(h, base, field.asymptotic_limits, cfg=REFINE_CFG)
        argmin = float(global_min(perturbed_field(state), cfg=REFINE_CFG).location[0])
        for s, offset in ((0.1, -10.0), (-0.1, 12.0), (0.05, -15.0)):
            bumped = replace(state, bumps=(GaussianBump(s, argmin + offset, 1.0),))
            moved = global_min(perturbed_field(bumped), cfg=REFINE_CFG).value
            assert abs(moved - state.current_lower) < 1e-6


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "same seed implies byte-identical output documents"):
        runs = [
            ["bounds", "--system", "annular-billiard", "--seed", "7"],
            ["bounds", "--system", "magnetic-hydrogen", "--B", "2", "--seed", "1"],
            ["refine", "--system", "quartic", "--centers", "0.0,2.5,-2.5", "--seed", "4"],
            ["sweep", "--system", "magnetic-hydrogen", "--param", "B", "--values", "0.5,1"],
            ["field", "--system", "annular-billiard", "--grid-n", "64"],
            ["oracle", "--system", "harmonic"],
        ]
        for i, argv in enumerate(runs):
            a = tmp_path / f"a{i}"
            b = tmp_path / f"b{i}"
            code_a = main([*argv, "--out", str(a)])
            code_b = main([*argv, "--out", str(b)])
            assert code_a == code_b
            assert a.read_bytes() == b.read_bytes(), argv
