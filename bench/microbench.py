"""ns/point of each shipped field's ``evaluate`` at batch 1 and batch 10^4.

Batch 1 is the polish probe's shape; batch 10^4 is the grid scan and the
field dump.  Points are drawn from each field's valid interior with the
workload seed, and every timing follows a warm-up.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

from groundbound.core import sample_interior
from groundbound.refine import GaussianBump, RefinementState, perturbed_field
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

import golden

BATCH = 10_000
SINGLE_CALLS = 300  # batch-1 calls per timing block
BLOCKS = 3
QUARTIC = QuarticOscillator(1.0 / math.sqrt(2.0), -1, 8.0)  # the CLI defaults


def _bumped_quartic(wseed: int):
    """The quartic trial carrying the refine workload's committed bumps."""
    rows = golden.load("refine", wseed)["refine-quartic"]["doc"]["rows"]
    bumps = tuple(GaussianBump(s, a, 1.0) for _, a, s, _ in rows[1:] if s != 0.0)
    h, base = quartic_system(QUARTIC)
    state = RefinementState(h, base, quartic_field(QUARTIC).asymptotic_limits, bumps, math.nan, ())
    return perturbed_field(state)


def fields(wseed: int) -> dict:
    mh = MagneticHydrogen(2.0)
    return {
        "billiard": billiard_local_energy_field(AnnularBilliard(0.75, 0.1)),
        "quartic": quartic_field(QUARTIC),
        "magnetic_lower": magnetic_hydrogen_field(mh, "lower"),
        "magnetic_improved": magnetic_hydrogen_field(mh, "improved"),
        "hydrogen_radial": hydrogen_radial_field(1.0),
        "helium": helium_search_field(2.0),
        "quartic_bumped": _bumped_quartic(wseed),
    }


def ns_per_point(wseed: int) -> dict[str, float]:
    out = {}
    rng = np.random.default_rng(wseed)
    for name, field in fields(wseed).items():
        pts = sample_interior(field.domain, BATCH, rng, extra_mask=lambda q, f=field: ~f.singular_mask(q))
        evaluate = field.evaluate
        for i in range(20):
            evaluate(pts[i:i + 1])
        blocks = []
        for b in range(BLOCKS):
            chunk = pts[b * SINGLE_CALLS:(b + 1) * SINGLE_CALLS]
            started = time.perf_counter()
            for i in range(SINGLE_CALLS):
                evaluate(chunk[i:i + 1])
            blocks.append((time.perf_counter() - started) / SINGLE_CALLS)
        out[f"core.ns_per_point.{name}.b1"] = 1e9 * statistics.median(blocks)
        evaluate(pts)
        batches = []
        for _ in range(BLOCKS):
            started = time.perf_counter()
            evaluate(pts)
            batches.append(time.perf_counter() - started)
        out[f"core.ns_per_point.{name}.b1e4"] = 1e9 * statistics.median(batches) / BATCH
    return out
