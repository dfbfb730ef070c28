"""Golden documents from the seed commit, and the comparison against them.

A golden entry holds a case's exit code, a digest of its whole document, the
row count, and the document itself with long row tables thinned to about
``MAX_ROWS`` evenly strided rows (the field dumps are megabytes each).  The
seed echoed in ``config.seed`` is set to 0 before storing or comparing, so
seed-free workloads need one golden set.

Comparison walks both trees: strings, integers, booleans, nulls, keys and
lengths must match exactly; floats contribute their absolute difference to
the reported deviation.  Any exact mismatch raises :class:`Mismatch`.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

from cases import doc_rows, seeded

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
MAX_ROWS = 1000


class Mismatch(ValueError):
    """A string, integer or structural difference from the golden document."""


def normalized(doc):
    """``doc`` with ``config.seed`` set to 0 (a shallow copy when it has one)."""
    config = doc.get("config")
    if isinstance(config, dict) and "seed" in config:
        doc = dict(doc, config=dict(config, seed=0))
    return doc


def digest(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def thinned(doc):
    """Copy of ``doc`` whose row table keeps every k-th row, k = ceil(n / MAX_ROWS)."""
    rows = doc_rows(doc)
    if rows is None or len(rows) <= MAX_ROWS:
        return doc
    stride = math.ceil(len(rows) / MAX_ROWS)
    out = dict(doc)
    if "rows" in doc:
        out["rows"] = rows[::stride]
    else:
        out["result"] = dict(doc["result"], rows=rows[::stride])
    return out


def entry(doc, exit_code: int) -> dict:
    doc = normalized(doc)
    rows = doc_rows(doc)
    return {
        "exit": exit_code,
        "digest": digest(doc),
        "n_rows": None if rows is None else len(rows),
        "doc": thinned(doc),
    }


def max_deviation(live, gold, path: str = "$") -> float:
    """Largest absolute float difference; raises Mismatch on anything else."""
    if isinstance(gold, float) and isinstance(live, float):
        if math.isnan(gold) and math.isnan(live):
            return 0.0
        if gold == live:  # covers equal infinities
            return 0.0
        dev = abs(live - gold)
        return dev if math.isfinite(dev) else math.inf
    if type(live) is not type(gold):
        raise Mismatch(f"{path}: type {type(live).__name__} != golden {type(gold).__name__}")
    if isinstance(gold, dict):
        if live.keys() != gold.keys():
            raise Mismatch(f"{path}: keys {sorted(live)} != golden {sorted(gold)}")
        return max((max_deviation(live[k], gold[k], f"{path}.{k}") for k in gold), default=0.0)
    if isinstance(gold, list):
        if len(live) != len(gold):
            raise Mismatch(f"{path}: length {len(live)} != golden {len(gold)}")
        return max((max_deviation(a, b, f"{path}[{i}]") for i, (a, b) in enumerate(zip(live, gold))),
                   default=0.0)
    if live != gold:
        raise Mismatch(f"{path}: {live!r} != golden {gold!r}")
    return 0.0


def compare(live_doc, exit_code: int, gold: dict) -> tuple[float, bool]:
    """``(max float deviation, document changed)``; raises Mismatch."""
    live = entry(live_doc, exit_code)
    if live["exit"] != gold["exit"]:
        raise Mismatch(f"exit code {live['exit']} != golden {gold['exit']}")
    if live["n_rows"] != gold["n_rows"]:
        raise Mismatch(f"row count {live['n_rows']} != golden {gold['n_rows']}")
    dev = max_deviation(live["doc"], gold["doc"])
    return dev, live["digest"] != gold["digest"]


def golden_path(workload: str, wseed: int) -> str:
    name = f"seed-{wseed:02d}.json" if seeded(workload) else "seed-free.json"
    return os.path.join(GOLDEN_DIR, workload, name)


def load(workload: str, wseed: int) -> dict:
    with open(golden_path(workload, wseed)) as handle:
        return json.load(handle)["cases"]
