"""Acceptance checks: each case's document against the repo's stated numbers.

A check returns a list of failure messages; an empty list passes.  Field
dumps are checked against the certified lower bound of the same system, and
the refine history against the quartic oracle, both taken from the seed
commit's golden documents (workload seed 0).
"""

from __future__ import annotations

import math

from groundbound.output import from_jsonable

import golden
from cases import doc_rows

DISK_EXACT = 2.404825557695773**2 / 2.0  # j_{0,1}^2 / 2

# field case -> bounds case whose certified lower bound floors every e_loc
FIELD_LOWER = {
    "field-billiard-csv": "bounds-billiard",
    "field-billiard-json": "bounds-billiard",
    "field-magnetic-improved": "bounds-magnetic-improved",
    "field-quartic": "bounds-quartic",
    "field-hydrogen-radial": "bounds-hydrogen",
}


def _near(label: str, got: float, want: float, tol: float) -> list[str]:
    if abs(got - want) <= tol:
        return []
    return [f"{label} = {got!r}, want {want!r} +- {tol:g}"]


def _bounds(doc) -> tuple[float, float]:
    result = from_jsonable(doc["result"])
    return float(result["lower"]), float(result["upper"])


def _check_bounds(case_id: str, doc, exit_code: int) -> list[str]:
    lower, upper = _bounds(doc)
    if case_id == "bounds-billiard":
        return _near("lower", lower, 28.390, 0.01) + ([] if exit_code == 3 else [f"exit {exit_code}, want 3"])
    if case_id == "bounds-helium":
        return [] if (lower, upper) == (-4.25, -2.25) else [f"bounds ({lower}, {upper}) != (-4.25, -2.25)"]
    if case_id == "bounds-magnetic-trivial":
        return _near("lower", lower, -0.5, 1e-6) + _near("upper", upper, -0.5 + 2.0 / 2.0, 1e-6)
    if case_id == "bounds-magnetic-improved":
        # The repo claims the improved trial beats -1/2 only for large B (its
        # acceptance test uses B = 4); at B = 2 the interior minimum is about
        # -0.574, so the check is the trivial sandwich: finite, below -1/2 + B/2.
        if math.isfinite(lower) and lower <= -0.5 + 2.0 / 2.0:
            return []
        return [f"lower = {lower!r}, want finite and <= {-0.5 + 2.0 / 2.0}"]
    if case_id == "bounds-quartic":
        return _near("lower", lower, -3.27, 0.01)
    if case_id == "bounds-hydrogen":
        return _near("lower", lower, -0.5, 1e-6) + _near("upper", upper, -0.5, 1e-6)
    raise KeyError(case_id)


def _check_sweep(doc) -> list[str]:
    fails = []
    values = [row[1] for row in doc["rows"]]
    if values != [0.5, 1.0, 2.0, 4.0]:
        fails.append(f"sweep values {values}")
    for _, b, lower, upper in doc["rows"]:
        fails += _near(f"lower(B={b})", lower, -0.5, 1e-6)
        fails += _near(f"upper(B={b})", upper, -0.5 + b / 2.0, 1e-6)
    return fails


def _check_optimize(doc) -> list[str]:
    return (_near("best parameter", doc["best_params"][0], 1.0, 1e-3)
            + _near("lower", float(from_jsonable(doc["lower"])), -0.5, 1e-3))


def _check_refine(doc) -> list[str]:
    history = [row[3] for row in doc["rows"]]
    fails = []
    if any(later < earlier for earlier, later in zip(history, history[1:])):
        fails.append("bound history decreases")
    final = history[-1]
    oracle = from_jsonable(golden.load("oracle", 0)["oracle-quartic"]["doc"]["result"])
    ceiling = oracle["energy"] + oracle["error_bar"]
    if not -2.80 <= final <= ceiling:
        fails.append(f"final lower {final!r} outside [-2.80, {ceiling!r}]")
    return fails


def _check_oracle(case_id: str, doc) -> list[str]:
    result = from_jsonable(doc["result"])
    energy, err = result["energy"], result["error_bar"]
    if case_id == "oracle-billiard":
        return _near("energy", energy, 42.94, 0.5)
    if case_id == "oracle-disk":
        return _near("energy", energy, DISK_EXACT, 3.0 * err)
    if case_id == "oracle-quartic":
        return _near("energy", energy, -2.66, 0.01)
    if case_id == "oracle-hydrogen-radial":
        return _near("energy", energy, -0.5, 1e-4)
    if case_id == "oracle-harmonic":
        return _near("energy", energy, 0.5, 1e-4)
    raise KeyError(case_id)


def _check_field(case_id: str, doc) -> list[str]:
    bounds_doc = golden.load("bounds", 0)[FIELD_LOWER[case_id]]["doc"]
    floor = _bounds(bounds_doc)[0] - 1e-9
    rows = doc_rows(doc)
    e_loc = [float(from_jsonable(row[-1])) for row in rows]
    below = [v for v in e_loc if math.isfinite(v) and v < floor]
    if below:
        return [f"{len(below)} finite e_loc below the certified lower bound (min {min(below)!r} < {floor!r})"]
    if not any(math.isfinite(v) for v in e_loc):
        return ["no finite e_loc"]
    return []


def check_case(case_id: str, doc, exit_code: int) -> list[str]:
    """Failure messages for one case's document and exit code."""
    if case_id.startswith("bounds-"):
        return _check_bounds(case_id, doc, exit_code)
    if exit_code != 0:
        return [f"exit {exit_code}, want 0"]
    if case_id == "sweep-magnetic-B":
        return _check_sweep(doc)
    if case_id == "optimize-hydrogen":
        return _check_optimize(doc)
    if case_id.startswith("refine-quartic"):
        return _check_refine(doc)
    if case_id.startswith("oracle-"):
        return _check_oracle(case_id, doc)
    if case_id.startswith("field-"):
        return _check_field(case_id, doc)
    raise KeyError(case_id)
