"""Domain types and the local-energy evaluation engine.

The central quantity is the local energy of a positive trial wavefunction
``phi`` under a Hamiltonian ``H``:

    E_loc(q) = (H phi)(q) / phi(q)

For a kinetic quadratic form ``sum_ij a_ij p_i p_j`` and ``S = ln phi`` this is

    E_loc(q) = V(q) - sum_ij a_ij (d_i d_j S + d_i S d_j S)

The engine evaluates ``a = I/2``, the one kinetic form of every system it
builds (``H = -Delta/2 + V``), where this reduces to

    E_loc(q) = V(q) - (lap S + |grad S|^2) / 2

The global infimum and supremum of this field bracket the ground-state
energy, which is what the rest of the package computes.

All evaluators are vectorized: a batch of points is an array of shape
``(n, dim)`` and scalar fields return shape ``(n,)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "SingularSet",
    "AsymptoticLimit",
    "Domain",
    "Hamiltonian",
    "LogTrialFunction",
    "LocalEnergyField",
    "BoundsResult",
    "SingularEvaluationError",
    "local_energy_log_batch",
    "make_log_field",
]

SAMPLE_ROUNDS = 200  # rejection-sampling draws before sample_interior gives up
KINETIC = 0.5  # the kinetic coefficient c of H = -c Delta + V


class SingularEvaluationError(ValueError):
    """No point outside the declared singular sets could be drawn to evaluate at."""


def as_batch(q, dim: int) -> np.ndarray:
    """Coerce a single point or a batch to shape ``(n, dim)`` float array."""
    arr = np.asarray(q, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise ValueError(f"expected points of dimension {dim}, got shape {arr.shape}")
    return arr


def coordinate_1d(qs) -> np.ndarray:
    """The coordinate of a one-dimensional batch: column 0 of an ``(n, 1)``
    array, or a flat array as given."""
    q = np.asarray(qs, dtype=float)
    return q[:, 0] if q.ndim == 2 else q


def evaluate_masked(ok: np.ndarray, evaluate: Callable[..., np.ndarray], *batches: np.ndarray) -> np.ndarray:
    """``evaluate(*batches)`` at the rows where ``ok`` holds, NaN at the others.

    ``evaluate`` sees only those rows, row-aligned across ``batches``, and is
    not called when there are none.
    """
    if ok.all() and ok.size:
        return evaluate(*batches)
    out = np.full(ok.shape[0], np.nan)
    if ok.any():
        out[ok] = evaluate(*(b[ok] for b in batches))
    return out


@dataclass(frozen=True)
class SingularSet:
    """A declared singular set with its analytically known limits.

    Singular sets are declared once, on :attr:`Domain.excluded_singular_sets`;
    fields, searches and samplers read them from there.  ``tube(qs)`` returns
    a boolean mask marking points inside the exclusion tube.  ``limit`` is the
    uniform limit of the local energy on the set when one exists;
    ``min_limit`` / ``max_limit`` are the candidates contributed to a global
    minimum / maximum search (they default to ``limit``).  ``None`` means the
    set contributes no candidate on that side.
    """

    name: str
    tube: Callable[[np.ndarray], np.ndarray]
    limit: float | None = None
    min_limit: float | None = None
    max_limit: float | None = None

    def __post_init__(self) -> None:
        if self.min_limit is None and self.limit is not None:
            object.__setattr__(self, "min_limit", self.limit)
        if self.max_limit is None and self.limit is not None:
            object.__setattr__(self, "max_limit", self.limit)


@dataclass(frozen=True)
class AsymptoticLimit:
    """Directional limit of the local energy as ``|q| -> inf``."""

    name: str
    value: float


@dataclass(frozen=True)
class Domain:
    """Configuration space, either unbounded or cut out by ``b(q) < 0``.

    ``box`` is the per-axis search window; for bounded domains it must contain
    the closure of the region, for unbounded ones it is the truncation window
    justified by the field's asymptotic limits.  ``excluded_singular_sets``
    is the one declaration of where the local energy is not evaluated
    directly: :meth:`valid_mask` excludes their tubes, and every field on the
    domain folds in their declared limits.
    """

    dimension: int
    kind: str  # "unbounded" | "bounded"
    constraint: Callable[[np.ndarray], np.ndarray] | None = None
    box: tuple[tuple[float, float], ...] | None = None
    excluded_singular_sets: tuple[SingularSet, ...] = ()

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError("dimension must be positive")
        if self.kind not in ("unbounded", "bounded"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if self.kind == "bounded" and self.constraint is None:
            raise ValueError("a bounded domain requires a constraint field")
        if self.box is not None and len(self.box) != self.dimension:
            raise ValueError("box must give (lo, hi) per axis")

    def _interior(self, qs: np.ndarray) -> np.ndarray:
        mask = np.isfinite(qs).all(axis=1)
        if self.constraint is not None:
            b = np.asarray(self.constraint(qs), dtype=float)
            mask &= b < 0.0
        return mask

    def interior_mask(self, qs: np.ndarray) -> np.ndarray:
        """Strict interior: finite coordinates and ``b(q) < 0`` if bounded."""
        return self._interior(as_batch(qs, self.dimension))

    def valid_mask(self, qs: np.ndarray) -> np.ndarray:
        """Interior points outside every declared singular tube, the points
        where a field may be evaluated directly; each tube runs once."""
        qs = as_batch(qs, self.dimension)
        mask = self._interior(qs)
        for s in self.excluded_singular_sets:
            mask &= ~np.asarray(s.tube(qs), dtype=bool)
        return mask


@dataclass(frozen=True)
class Hamiltonian:
    """``H = -Delta/2 + V``: the potential ``V`` on a domain."""

    potential: Callable[[np.ndarray], np.ndarray]
    domain: Domain


@dataclass(frozen=True)
class LogTrialFunction:
    """Trial state ``S = ln phi``, given by its analytic derivatives alone.

    The local energy needs only the gradient and the Laplacian of ``S``,
    never ``S`` itself.  ``derivs(qs)`` returns ``(grad, lap)`` for a batch
    of points: the gradient of ``S``, shape ``(n, dim)``, and its Laplacian,
    shape ``(n,)``.
    """

    derivs: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class LocalEnergyField:
    """Evaluable scalar field ``q -> E_loc(q)`` with its declared structure.

    ``evaluate`` is the field's one evaluator.  The singular sets are the
    domain's ``excluded_singular_sets``; a field declares only its
    asymptotic limits.

    ``row_form = (formula, params)``, when given, writes the field as one
    member of a family: ``formula(qs, *params)`` equals ``evaluate(qs)`` bit
    for bit, also with each param an array of one value per row of ``qs``,
    and fields that share a ``formula`` share a valid mask.  A search then
    evaluates a stack of such fields in one call (see :mod:`.search`).
    """

    domain: Domain
    evaluate: Callable[[np.ndarray], np.ndarray]
    asymptotic_limits: tuple[AsymptoticLimit, ...] = ()
    row_form: tuple[Callable[..., np.ndarray], tuple] | None = None

    def singular_mask(self, qs: np.ndarray) -> np.ndarray:
        """Points inside any of the domain's declared singular tubes."""
        qs = as_batch(qs, self.domain.dimension)
        mask = np.zeros(qs.shape[0], dtype=bool)
        for s in self.domain.excluded_singular_sets:
            mask |= np.asarray(s.tube(qs), dtype=bool)
        return mask

    def evaluate_with_limits(self, qs: np.ndarray, singular_as_nan: bool = False) -> np.ndarray:
        """Evaluate at interior points, filling singular tubes with declared limits.

        ``qs`` must lie in the domain's interior (filter with
        :meth:`Domain.interior_mask` first); the interior test is not rerun.
        Tube points get the set's uniform ``limit`` when declared, otherwise
        (or when ``singular_as_nan``) NaN; a later set's limit wins where
        tubes overlap.  Each tube runs once.
        """
        qs = as_batch(qs, self.domain.dimension)
        ok = np.ones(qs.shape[0], dtype=bool)
        fills = []
        for s in self.domain.excluded_singular_sets:
            tube = np.asarray(s.tube(qs), dtype=bool)
            ok &= ~tube
            if s.limit is not None and not singular_as_nan:
                fills.append((tube, s.limit))
        out = evaluate_masked(ok, self.evaluate, qs)
        for tube, limit in fills:
            out[tube] = limit
        return out


def declared_limits(
    domain: Domain, asymptotic_limits: tuple[AsymptoticLimit, ...], kind: str
) -> list[tuple[str, float]]:
    """The declared candidates of a ``kind`` (``"min"`` or ``"max"``) search as
    ``(attained, value)`` pairs: each singular set's limit on that side, then
    each asymptotic limit, in declaration order."""
    out = []
    for s in domain.excluded_singular_sets:
        lim = s.min_limit if kind == "min" else s.max_limit
        if lim is not None:
            out.append((f"singular:{s.name}", lim))
    return out + [(f"asymptotic:{a.name}", a.value) for a in asymptotic_limits]


@dataclass(frozen=True)
class ResolutionCaveat:
    """Record of the search resolution under which extrema were certified."""

    grid_points_per_axis: int
    refinement_levels: int
    multistart_count: int
    box: tuple[tuple[float, float], ...]
    final_grid_spacing: float


@dataclass(frozen=True)
class BoundsResult:
    """Two-sided bracket of the ground-state energy from one or two trials."""

    lower: float
    upper: float
    lower_witness: "object"  # ExtremumReport; kept loose to avoid an import cycle
    upper_witness: "object"
    resolution_caveat: ResolutionCaveat | None = None

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise ValueError(f"lower bound {self.lower} exceeds upper bound {self.upper}")


# ---------------------------------------------------------------------------
# local-energy evaluation


def local_energy_log_batch(h: Hamiltonian, trial: LogTrialFunction, qs: np.ndarray) -> np.ndarray:
    """Vectorized ``V - (lap S + |grad S|^2) / 2``; no validity checks."""
    qs = as_batch(qs, h.domain.dimension)
    v = np.asarray(h.potential(qs), dtype=float)
    g, lap = trial.derivs(qs)
    g = np.asarray(g, dtype=float)
    lap = np.asarray(lap, dtype=float)
    return v - KINETIC * (lap + (g * g).sum(axis=1))


# ---------------------------------------------------------------------------
# field construction helpers


def make_log_field(
    h: Hamiltonian,
    trial: LogTrialFunction,
    asymptotic_limits: tuple[AsymptoticLimit, ...] = (),
) -> LocalEnergyField:
    def _eval(qs: np.ndarray) -> np.ndarray:
        return local_energy_log_batch(h, trial, qs)

    return LocalEnergyField(
        domain=h.domain,
        evaluate=_eval,
        asymptotic_limits=tuple(asymptotic_limits),
    )


def sample_interior(
    domain: Domain,
    n: int,
    rng: np.random.Generator,
    extra_mask: Callable[[np.ndarray], np.ndarray] | None = None,
) -> np.ndarray:
    """Rejection-sample ``n`` strictly interior (and unmasked) points, in at
    most ``SAMPLE_ROUNDS`` draws."""
    if domain.box is None:
        raise ValueError("domain has no search box to sample from")
    lo = np.array([b[0] for b in domain.box])
    hi = np.array([b[1] for b in domain.box])
    got: list[np.ndarray] = []
    total = 0
    for _ in range(SAMPLE_ROUNDS):
        cand = rng.uniform(lo, hi, size=(max(4 * n, 64), domain.dimension))
        ok = domain.valid_mask(cand)
        if extra_mask is not None:
            ok &= np.asarray(extra_mask(cand), dtype=bool)
        pts = cand[ok]
        if pts.size:
            got.append(pts)
            total += pts.shape[0]
        if total >= n:
            return np.concatenate(got, axis=0)[:n]
    raise SingularEvaluationError(
        "failed to sample interior points; domain and singularity declarations "
        "are likely inconsistent"
    )
