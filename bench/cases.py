"""Workload case lists, the runner for one case, and document parsing.

Every case is a call into groundbound's public surface: a ``cli.main`` argv,
or a library function (``optimize_parameters``).  The workload seed
reaches every case through ``--seed`` or ``SearchConfig.rng_seed``; all other
parameters are fixed here.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import re
import time
from dataclasses import dataclass
from typing import Callable

from groundbound import cli, output, search
from groundbound.systems import hydrogen_exponent_family

# Golden documents exist for this many workload seeds.
SEED_SPACE = 16


@dataclass(frozen=True)
class Case:
    """One call into groundbound: a CLI argv, or a library function that
    takes the workload seed and returns the case's document."""

    id: str
    fmt: str  # format of the document the case writes: "json" | "csv"
    argv: tuple[str, ...] = ()
    library: Callable[[int], dict] | None = None


def _cli(case_id: str, fmt: str, *argv: str) -> Case:
    return Case(case_id, fmt, tuple(argv))


def optimize_hydrogen(seed: int) -> dict:
    family = hydrogen_exponent_family((0.5, 2.0))
    cfg = search.SearchConfig(multistart_count=2, rng_seed=seed)
    res = search.optimize_parameters(family, None, "maximize-lower", cfg)
    return {
        "best_params": res.best_params,
        "lower": res.bounds.lower,
        "upper": res.bounds.upper,
        "probes": [[list(k), v] for k, v in res.probes],
    }


WORKLOADS: dict[str, tuple[Case, ...]] = {
    "bounds": (
        _cli("bounds-billiard", "json", "bounds", "--system", "annular-billiard"),
        _cli("bounds-helium", "json", "bounds", "--system", "helium"),
        _cli("bounds-magnetic-trivial", "json", "bounds", "--system", "magnetic-hydrogen",
             "--B", "2", "--variant", "trivial"),
        _cli("bounds-magnetic-improved", "json", "bounds", "--system", "magnetic-hydrogen",
             "--B", "2", "--variant", "improved"),
        _cli("bounds-quartic", "json", "bounds", "--system", "quartic"),
        _cli("bounds-hydrogen", "json", "bounds", "--system", "hydrogen"),
        _cli("sweep-magnetic-B", "csv", "sweep", "--system", "magnetic-hydrogen",
             "--param", "B", "--values", "0.5,1,2,4"),
        Case("optimize-hydrogen", "json", library=optimize_hydrogen),
    ),
    "refine": (
        _cli("refine-quartic", "csv", "refine", "--system", "quartic"),
    ),
    "oracle": (
        _cli("oracle-billiard", "json", "oracle", "--system", "annular-billiard", "--grid-n", "200"),
        _cli("oracle-disk", "json", "oracle", "--system", "disk", "--grid-n", "100"),
        _cli("oracle-quartic", "json", "oracle", "--system", "quartic"),
        _cli("oracle-hydrogen-radial", "json", "oracle", "--system", "hydrogen-radial"),
        _cli("oracle-harmonic", "json", "oracle", "--system", "harmonic"),
    ),
    "field": (
        _cli("field-billiard-csv", "csv", "field", "--system", "annular-billiard", "--grid-n", "401"),
        _cli("field-billiard-json", "json", "field", "--system", "annular-billiard", "--grid-n", "401",
             "--format", "json"),
        _cli("field-magnetic-improved", "csv", "field", "--system", "magnetic-hydrogen", "--B", "2",
             "--variant", "improved", "--grid-n", "401"),
        _cli("field-quartic", "csv", "field", "--system", "quartic", "--grid-n", "100001", "--box=-6:6"),
        _cli("field-hydrogen-radial", "csv", "field", "--system", "hydrogen-radial", "--grid-n", "100001"),
    ),
}

# Workloads whose documents do not depend on the seed (beyond echoing it in
# ``config.seed``): one golden set serves every seed.
SEED_FREE = frozenset({"oracle", "field"})

# Workloads run at one seed whatever ``--seed`` says.  A refine trajectory's
# cost moves by +-20% with its seed (the seed decides which certifications
# regress and send the step through the censor), a run fits three
# trajectories, and averaging three seeds per run would leave a run-to-run
# spread near 0.2 from the seeds alone.
FIXED_SEED = {"refine": 0}


def pass_seed(workload: str, seed: int, index: int) -> int:
    """Workload seed of pass ``index`` of a run started with ``--seed seed``.

    Passes of a seeded workload walk consecutive seeds, so one run averages
    over several inputs; the other workloads repeat one seed, and their
    passes must agree byte for byte.
    """
    if workload in FIXED_SEED:
        return FIXED_SEED[workload]
    if workload in SEED_FREE:
        index = 0
    return (seed + index) % SEED_SPACE


def seeded(workload: str) -> bool:
    """Whether the workload's documents differ from seed to seed."""
    return workload not in SEED_FREE and workload not in FIXED_SEED


def golden_seeds(workload: str) -> tuple[int, ...]:
    """Seeds at which golden documents are recorded; seed-free workloads are
    recorded twice to show that their documents do not depend on the seed."""
    if workload in FIXED_SEED:
        return (FIXED_SEED[workload],)
    return tuple(range(SEED_SPACE)) if seeded(workload) else (0, 1)


def run_case(case: Case, out_path: str, seed: int) -> tuple[int, float, str]:
    """Run one case, writing its document to ``out_path``.

    Returns ``(exit_code, seconds, stderr)``.  Only the call into groundbound
    is timed; a library case's document is written after the clock stops.
    """
    if case.library is not None:
        started = time.perf_counter()
        doc = case.library(seed)
        elapsed = time.perf_counter() - started
        with open(out_path, "w") as handle:
            handle.write(json.dumps(output.to_jsonable(doc), indent=1, sort_keys=True) + "\n")
        return 0, elapsed, ""
    err = io.StringIO()
    argv = [*case.argv, "--seed", str(seed), "--out", out_path]
    with contextlib.redirect_stderr(err):
        started = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - started
    return code, elapsed, err.getvalue()


_INT = re.compile(r"-?\d+\Z")


def _cell(text: str):
    if _INT.match(text):
        return int(text)
    try:
        return float(text)
    except ValueError:
        return text


def parse_doc(path: str, fmt: str):
    """Parse a written document: JSON as is, CSV as typed header and rows."""
    with open(path, newline="") as handle:
        if fmt == "json":
            return json.load(handle)
        reader = csv.reader(handle)
        header = next(reader)
        return {"header": header, "rows": [[_cell(c) for c in row] for row in reader]}


def doc_rows(doc) -> list | None:
    """The row table of a document: CSV rows or a JSON ``result.rows``."""
    if "rows" in doc:
        return doc["rows"]
    result = doc.get("result")
    if isinstance(result, dict) and isinstance(result.get("rows"), list):
        return result["rows"]
    return None
