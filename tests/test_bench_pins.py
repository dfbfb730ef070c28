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

import reference
from groundbound import oracle
from groundbound.core import sample_interior
from groundbound.oracle import Grid1D, solve_1d_ground_state

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


def test_one_sturm_span_per_bisection_step(bench, monkeypatch):
    # the traced oracle.sturm_calls counts bisection steps: one span a step
    spans, _ = bench
    matrices, lowest = [], oracle._lowest_eigenvalue_tridiag

    def recording(diag, off):
        matrices.append((diag, off))
        return lowest(diag, off)

    monkeypatch.setattr(oracle, "_lowest_eigenvalue_tridiag", recording)
    tracer = spans.Tracer()
    tracer.install()
    try:
        solve_1d_ground_state(lambda x: 0.5 * x * x, Grid1D(-10.0, 10.0, 2000))
    finally:
        tracer.uninstall()
    steps, count = [], reference.sturm_count_below
    monkeypatch.setattr(reference, "sturm_count_below", lambda *args: steps.append(args) or count(*args))
    for diag, off in matrices:
        reference.lowest_eigenvalue_tridiag(diag, off)
    assert len(matrices) == 2  # the coarse and the fine grid
    assert [rec[0] for rec in tracer.spans].count("oracle.sturm") == len(steps) > 100
