"""Documents rendered from float tables equal the cell-by-cell reference."""

import csv
import io
import json
import math
import os
import stat

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from groundbound.output import (
    _CHUNK_ROWS,
    SCHEMA_VERSION,
    envelope,
    render_csv,
    render_json,
    write_text_atomic,
)

# ---------------------------------------------------------------------------
# reference: every cell formatted on its own, through csv.writer and json.dumps


def ref_cell(v):
    if isinstance(v, float):
        if math.isinf(v):
            return "+inf" if v > 0 else "-inf"
        if math.isnan(v):
            return "nan"
        return repr(v)
    return v


def ref_csv(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([ref_cell(v) for v in row])
    return buf.getvalue()


def ref_jsonable(value):
    if isinstance(value, dict):
        return {str(k): ref_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [ref_jsonable(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return ref_cell(value)
    return value


def ref_json(command, system, config, result):
    document = {"schema_version": SCHEMA_VERSION, "command": command,
                "system": system, "config": config, "result": result}
    return json.dumps(ref_jsonable(document), indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# tables

# non-finite values, signed zeros, subnormals, and the neighbours of 1e16 and
# 1e-4, where repr switches between positional and exponent form
SPECIALS = [
    math.inf, -math.inf, math.nan, -math.nan, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
    2.225073858507201e-308, 1e16, -1e16, 9999999999999998.0, 1.0000000000000002e16,
    1e-5, 1e-4, 9.999999999999999e-05, 0.00010000000000000002, 1.7976931348623157e308,
]
CELLS = st.one_of(st.sampled_from(SPECIALS), st.floats(allow_subnormal=True))


def assert_same_text(got: str, want: str) -> None:
    """``got == want``; a mismatch reports its first offset with a short window
    of each side, since a diff of two long documents takes minutes."""
    if got == want:
        return
    at = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), min(len(got), len(want)))
    window = slice(max(0, at - 40), at + 40)
    pytest.fail(
        f"documents differ at offset {at} (lengths {len(got)} and {len(want)}): "
        f"got {got[window]!r}, want {want[window]!r}",
        pytrace=False,
    )


def assert_same_documents(table):
    header = [f"c{j}" for j in range(table.shape[1])]
    rows = table.tolist()
    assert_same_text(render_csv(header, table), ref_csv(header, rows))
    system = {"name": "test", "p": 1.5}
    config = {"box": None, "seed": 0}
    got = render_json(envelope("field", system, config, {"columns": header, "rows": table}))
    assert_same_text(got, ref_json("field", system, config, {"columns": header, "rows": rows}))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(table=arrays(np.float64, st.tuples(st.integers(0, 12), st.sampled_from([1, 2, 3])), elements=CELLS))
@example(table=np.empty((0, 3)))
@example(table=np.array([[-0.0]]))
@example(table=np.array([[math.inf, -math.inf, math.nan]]))
def test_small_tables_render_like_the_reference(table):
    assert_same_documents(table)


@settings(derandomize=True, max_examples=12, deadline=None)
@given(
    n=st.sampled_from([_CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 2 * _CHUNK_ROWS + 1]),
    k=st.sampled_from([1, 3]),
    pool=arrays(np.float64, 32, elements=CELLS),
    seed=st.integers(0, 2**32 - 1),
)
def test_tables_across_chunk_boundaries_render_like_the_reference(n, k, pool, seed):
    table = pool[np.random.default_rng(seed).integers(0, len(pool), size=(n, k))]
    assert_same_documents(table)


# NaNs of four payloads: quiet, negative quiet, quiet with a low bit, signalling
NANS = np.array([0x7FF8000000000000, -0x0008000000000000, 0x7FF8000000000001, 0x7FF0000000000001],
                dtype=np.int64).view(np.float64)


@pytest.mark.parametrize("n", [36, _CHUNK_ROWS + 3])
def test_repeated_values_keep_the_spelling_of_their_bits(n):
    # signed zeros and NaN payloads interleaved, each repeated many times
    # inside one chunk; a renderer keyed on the float value merges the zeros
    pool = np.concatenate([[0.0, -0.0, 1.5, -0.0, 0.0], NANS, [math.inf, -math.inf, 1e-7]])
    column = pool[np.arange(n) * 7 % len(pool)]
    table = np.stack([column, column[::-1], np.full(n, -0.0)], axis=1)
    assert len(np.unique(table[:, 0].view(np.int64))) == len(pool) - 2
    assert_same_documents(table)


@pytest.mark.parametrize("rows", [_CHUNK_ROWS + 1, 2 * _CHUNK_ROWS + 1])
def test_grid_tables_across_chunk_boundaries_render_like_the_reference(rows):
    # the first rows of a 91 x 91 tensor grid plus a mirror-symmetric column,
    # the shape of a 2D field dump: few distinct values per chunk column
    x, y = (g.ravel() for g in np.meshgrid(np.linspace(-1.0, 1.0, 91), np.linspace(-2.0, 2.0, 91)))
    table = np.stack([x, y, x * x - y * y], axis=1)[:rows]
    assert_same_documents(table)


def test_distinct_columns_render_in_row_order_without_a_gather(monkeypatch):
    column = np.linspace(-6.0, 6.0, 2 * _CHUNK_ROWS + 1)
    table = np.stack([column, np.sin(column), column * 1e300], axis=1)
    calls = []
    real_unique = np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **k: calls.append(1) or real_unique(*a, **k))
    assert_same_documents(table)
    assert not calls
    assert_same_documents(np.stack([column, np.floor(column)], axis=1))
    assert calls


def test_other_float_dtypes_render_like_the_reference():
    table = np.array([[1.5, -0.0], [math.nan, 0.1], [math.inf, 0.1]], dtype=np.float32)
    assert_same_documents(table)


def test_tables_nested_anywhere_render_like_the_reference():
    a = np.array([[1.0, -math.inf], [math.nan, 1e-7]])
    b = np.array([[0.5]])
    empty = np.empty((0, 2))
    doc = {"a": a, "b": {"c": {"d": b, "e": [empty, a]}}, "z": "s"}
    listed = {"a": a.tolist(), "b": {"c": {"d": b.tolist(), "e": [[], a.tolist()]}}, "z": "s"}
    assert_same_text(render_json(envelope("x", {}, {}, doc)), ref_json("x", {}, {}, listed))


def test_non_table_objects_are_still_rejected():
    with pytest.raises(TypeError):
        render_json({"a": object()})


# ---------------------------------------------------------------------------
# writing


def test_written_file_holds_the_documents_utf8_bytes(tmp_path):
    text = render_csv(["Δ", "quoted, cell"], [[1.5, "two\nlines"], [math.inf, None]])
    assert "\r\n" in text
    path = tmp_path / "doc.csv"
    write_text_atomic(str(path), text)
    assert path.read_bytes() == text.encode("utf-8")
    assert [p.name for p in tmp_path.iterdir()] == ["doc.csv"]  # no temp file left


@pytest.mark.skipif(os.name != "posix", reason="file modes are POSIX")
@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask-022", "umask-077"])
def test_write_text_atomic_gives_the_mode_of_a_plain_open(tmp_path, umask, mode):
    text = "a,b\r\n1.5,+inf\r\n"
    path = tmp_path / "doc.csv"
    old = os.umask(umask)
    try:
        write_text_atomic(str(path), text)
    finally:
        os.umask(old)
    assert stat.S_IMODE(path.stat().st_mode) == mode
    assert path.read_bytes() == text.encode("utf-8")


@pytest.mark.skipif(os.name != "posix", reason="file modes are POSIX")
@pytest.mark.parametrize("umask, mode", [(0o022, 0o600), (0o077, 0o644)], ids=["umask-022", "umask-077"])
def test_write_text_atomic_keeps_the_mode_of_an_existing_file(tmp_path, umask, mode):
    text = "a,b\r\n1.5,+inf\r\n"
    path = tmp_path / "doc.csv"
    path.write_text("old\n")
    path.chmod(mode)
    old = os.umask(umask)
    try:
        write_text_atomic(str(path), text)
    finally:
        os.umask(old)
    assert stat.S_IMODE(path.stat().st_mode) == mode
    assert path.read_bytes() == text.encode("utf-8")
    assert [p.name for p in tmp_path.iterdir()] == ["doc.csv"]
