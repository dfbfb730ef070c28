"""The names the benchmark harness under ``bench/`` wraps, builds or calls.

``bench/spans.py`` replaces module attributes with timing wrappers and
``bench/microbench.py`` builds fields by name, so removing or renaming one of
them breaks the benchmark without breaking any command.  The harness is
imported as it is, and nothing is written under ``bench/``.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from groundbound.core import sample_interior

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH))
    sys.dont_write_bytecode, writes = True, sys.dont_write_bytecode
    try:
        import microbench
        import spans
    finally:
        sys.dont_write_bytecode = writes
        sys.path.remove(str(BENCH))
    return spans, microbench


def test_every_wrapped_entry_point_and_field_builder_resolves(bench):
    spans, _ = bench
    pinned = [(module, attr) for module, attr, *_ in spans.ENTRY_POINTS] + list(spans.FIELD_BUILDERS)
    assert [f"{module.__name__}.{attr}" for module, attr in pinned if not callable(getattr(module, attr, None))] == []


def test_every_microbench_field_builds_and_samples(bench):
    # fields(0) builds RefinementState positionally and helium_search_field;
    # each field is sampled as ns_per_point samples it
    _, microbench = bench
    rng = np.random.default_rng(0)
    for name, field in microbench.fields(0).items():
        pts = sample_interior(field.domain, 4, rng, extra_mask=lambda q, f=field: ~f.singular_mask(q))
        assert np.isfinite(field.evaluate(pts)).all(), name
