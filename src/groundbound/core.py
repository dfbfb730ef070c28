"""Domain types and the local-energy evaluation engine.

The central quantity is the local energy of a positive trial wavefunction
``phi`` under a Hamiltonian ``H``:

    E_loc(q) = (H phi)(q) / phi(q)

For a kinetic quadratic form ``sum_ij a_ij p_i p_j`` and ``S = ln phi`` this is

    E_loc(q) = V(q) - sum_ij a_ij (d_i d_j S + d_i S d_j S)

which reduces to ``V - (lap S + |grad S|^2) / 2`` for ``a = I/2``.  The global
infimum and supremum of this field bracket the ground-state energy, which is
what the rest of the package computes.

All evaluators are vectorized: a batch of points is an array of shape
``(n, dim)`` and scalar fields return shape ``(n,)``.
"""

from __future__ import annotations

import functools
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
    "CrossCheckReport",
    "SingularEvaluationError",
    "local_energy_log_batch",
    "cross_check_field",
    "derivative_consistency",
    "make_log_field",
]

SAMPLE_ROUNDS = 200  # rejection-sampling draws before sample_interior gives up
CROSS_CHECK_TOLERANCE = 1e-8  # relative, between analytically equal representations
FD_STEP_GRAD = 1e-5  # central-difference steps of derivative_consistency
FD_STEP_LAP = 1e-4


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
    """Kinetic quadratic form ``sum_ij a_ij p_i p_j`` plus a potential.

    ``inverse_mass_form`` is the symmetric positive-definite matrix ``a`` in
    units of inverse mass; ``H = -Delta/2 + V`` corresponds to ``a = I/2``.
    """

    inverse_mass_form: np.ndarray
    potential: Callable[[np.ndarray], np.ndarray]
    domain: Domain

    def __post_init__(self) -> None:
        a = np.asarray(self.inverse_mass_form, dtype=float)
        if a.shape != (self.domain.dimension, self.domain.dimension):
            raise ValueError("inverse_mass_form must be dim x dim")
        if not np.array_equal(a, a.T):
            raise ValueError("inverse_mass_form must be symmetric")
        if np.linalg.eigvalsh(a).min() <= 0.0:
            raise ValueError("inverse_mass_form must be positive definite")
        object.__setattr__(self, "inverse_mass_form", a)

    @classmethod
    def isotropic(cls, coefficient: float, potential, domain: Domain) -> "Hamiltonian":
        """Hamiltonian with ``a = coefficient * I`` (``1/2`` for ``-Delta/2 + V``)."""
        return cls(coefficient * np.eye(domain.dimension), potential, domain)

    @functools.cached_property
    def isotropic_coefficient(self) -> float | None:
        """The scalar ``c`` if ``a == c*I`` exactly, else ``None`` (computed once)."""
        a = self.inverse_mass_form
        c = a[0, 0]
        return c if np.array_equal(a, c * np.eye(a.shape[0])) else None


@dataclass(frozen=True)
class LogTrialFunction:
    """Trial state stored as ``S = ln phi`` with analytic derivatives.

    ``derivs(qs)`` returns ``(grad, second)`` for a batch of points: the
    gradient of ``S``, shape ``(n, dim)``, and either its Laplacian, shape
    ``(n,)``, or its full Hessian, shape ``(n, dim, dim)``.  The Hessian is
    only needed when the Hamiltonian's inverse-mass form is not a multiple of
    the identity.
    """

    s: Callable[[np.ndarray], np.ndarray]
    derivs: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    normalizable: bool = True


@dataclass(frozen=True)
class LocalEnergyField:
    """Evaluable scalar field ``q -> E_loc(q)`` with its declared structure.

    ``evaluate`` is the primary representation; ``alternates`` hold other
    analytically equal representations (used by :func:`cross_check_field`).
    The singular sets are the domain's ``excluded_singular_sets``; a field
    declares only its asymptotic limits.
    """

    domain: Domain
    evaluate: Callable[[np.ndarray], np.ndarray]
    alternates: tuple[Callable[[np.ndarray], np.ndarray], ...] = ()
    asymptotic_limits: tuple[AsymptoticLimit, ...] = ()

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


@dataclass(frozen=True)
class CrossCheckReport:
    """Outcome of sampling two representations of the same field."""

    n_requested: int
    n_used: int
    max_rel_discrepancy: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_discrepancy <= self.tolerance


# ---------------------------------------------------------------------------
# local-energy evaluation


def _laplacian(second: np.ndarray) -> np.ndarray:
    """The Laplacian from the second output of ``derivs``, tracing a Hessian."""
    return second if second.ndim == 1 else np.trace(second, axis1=1, axis2=2)


def local_energy_log_batch(h: Hamiltonian, trial: LogTrialFunction, qs: np.ndarray) -> np.ndarray:
    """Vectorized ``V - sum_ij a_ij (d_i d_j S + d_i S d_j S)``; no validity checks."""
    qs = as_batch(qs, h.domain.dimension)
    v = np.asarray(h.potential(qs), dtype=float)
    g, second = trial.derivs(qs)
    g = np.asarray(g, dtype=float)
    second = np.asarray(second, dtype=float)
    c = h.isotropic_coefficient
    if c is not None:
        return v - c * (_laplacian(second) + (g * g).sum(axis=1))
    if second.ndim == 1:
        raise ValueError(
            "trial supplies no Hessian but the inverse-mass form is not a multiple "
            "of the identity; the Laplacian alone cannot contract against it"
        )
    a = h.inverse_mass_form
    kin = np.einsum("ij,nij->n", a, second) + np.einsum("ij,ni,nj->n", a, g, g)
    return v - kin


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


def cross_check_field(f: LocalEnergyField, n_samples: int, seed: int) -> CrossCheckReport:
    """Sample interior points and compare all representations of the field.

    The representations are analytically equal, so the maximum relative
    discrepancy over the sample is itself the oracle: the check passes iff it
    stays at rounding level (``CROSS_CHECK_TOLERANCE``).
    """
    if not f.alternates:
        raise ValueError("field has a single representation; nothing to cross-check")
    rng = np.random.default_rng(seed)
    pts = sample_interior(f.domain, n_samples, rng)
    reps = [np.asarray(f.evaluate(pts), dtype=float)]
    reps += [np.asarray(alt(pts), dtype=float) for alt in f.alternates]
    worst = 0.0
    for other in reps[1:]:
        scale = np.maximum(np.maximum(np.abs(reps[0]), np.abs(other)), 1e-300)
        worst = max(worst, float(np.max(np.abs(reps[0] - other) / scale)))
    return CrossCheckReport(
        n_requested=n_samples,
        n_used=pts.shape[0],
        max_rel_discrepancy=worst,
        tolerance=CROSS_CHECK_TOLERANCE,
    )


# ---------------------------------------------------------------------------
# finite-difference consistency of supplied derivatives


def derivative_consistency(trial: LogTrialFunction, qs: np.ndarray) -> tuple[float, float]:
    """Max relative error of the gradient from ``derivs`` vs central
    differences of ``s``, and of its Laplacian (a Hessian's trace) vs the
    finite-difference divergence of the gradient.

    The steps ``FD_STEP_GRAD`` and ``FD_STEP_LAP`` follow the usual
    central-difference optimum; the returned pair is compared against
    (1e-6, 1e-5) by the shipped-trial consistency tests.
    """
    qs = np.asarray(qs, dtype=float)
    n, dim = qs.shape
    g, second = trial.derivs(qs)
    g = np.asarray(g, dtype=float)
    lap = _laplacian(np.asarray(second, dtype=float))

    g_fd = np.empty_like(g)
    div_fd = np.zeros(n)
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = 1.0
        g_fd[:, i] = (
            trial.s(qs + FD_STEP_GRAD * e) - trial.s(qs - FD_STEP_GRAD * e)
        ) / (2 * FD_STEP_GRAD)
        gp = np.asarray(trial.derivs(qs + FD_STEP_LAP * e)[0], dtype=float)[:, i]
        gm = np.asarray(trial.derivs(qs - FD_STEP_LAP * e)[0], dtype=float)[:, i]
        div_fd += (gp - gm) / (2 * FD_STEP_LAP)

    g_scale = np.maximum(np.linalg.norm(g, axis=1, keepdims=True), 1.0)
    grad_err = float(np.max(np.abs(g - g_fd) / g_scale))
    lap_scale = np.maximum(np.abs(lap), 1.0)
    lap_err = float(np.max(np.abs(lap - div_fd) / lap_scale))
    return grad_err, lap_err
