import contextlib
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from groundbound import cli
from groundbound.core import Domain
from groundbound.oracle import (
    BoxTooSmallError,
    ConvergenceError,
    Grid1D,
    Grid2D,
    solve_1d_ground_state,
    solve_2d_dirichlet_ground_state,
    sturm_count_below,
)
from groundbound import oracle
from groundbound.oracle import _solve_1d_once
from groundbound.systems import AnnularBilliard, QuarticOscillator, billiard_local_energy_field, unit_disk_field

DISK_EIGENVALUE = 2.8915929814733926  # j_{0,1}^2 / 2


def harmonic(x):
    return 0.5 * x * x


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid1D(-1.0, 1.0, 50)
    with pytest.raises(ValueError):
        Grid1D(1.0, -1.0, 200)
    with pytest.raises(ValueError):
        Grid2D(((-1, 1), (-1, 1)), 16)


def test_grid1d_refuses_an_infinite_end():
    with pytest.raises(ValueError):
        Grid1D(0.0, math.inf, 100)


# a degenerate axis ended in a ZeroDivisionError in the V-cycle; an infinite
# end in a numpy warning and then an empty interior mask
@pytest.mark.parametrize("box", [
    ((0.0, 0.0), (-1.0, 1.0)),
    ((-1.0, 1.0), (1.0, -1.0)),
    ((-1.0, math.inf), (-1.0, 1.0)),
    ((-1.0, 1.0), (math.nan, 1.0)),
], ids=["degenerate", "reversed", "infinite", "nan"])
def test_grid2d_refuses_an_empty_or_infinite_axis(box):
    with pytest.raises(ValueError):
        Grid2D(box, 40)


def test_harmonic_oscillator():
    res = solve_1d_ground_state(harmonic, Grid1D(-10.0, 10.0, 2000))
    assert res.energy == pytest.approx(0.5, abs=1e-6)
    assert res.error_bar < 1e-5


def test_quartic_reference_energy():
    qo = QuarticOscillator(r=1.0 / math.sqrt(2.0), eta=-1, delta2=8.0)
    res = solve_1d_ground_state(qo.potential, Grid1D(-8.0, 8.0, 2000))
    assert res.energy == pytest.approx(-2.66, abs=0.01)


def test_radial_hydrogen_with_a_wall_at_the_origin():
    res = solve_1d_ground_state(
        lambda r: -1.0 / r, Grid1D(0.0, 40.0, 4000), dirichlet_edges=(True, False)
    )
    assert res.energy == pytest.approx(-0.5, abs=1e-4)


def _tridiagonal(potential, grid):
    """The matrix the 1D oracle bisects on ``grid``."""
    x = grid.points()[1:-1]
    h = grid.spacing
    return 1.0 / (h * h) + potential(x), np.full(x.shape[0] - 1, -0.5 / (h * h))


def test_no_eigenvalue_below_the_returned_one():
    g = Grid1D(-10.0, 10.0, 2000)
    e0, _ = _solve_1d_once(harmonic, g, (False, False))
    diag, off = _tridiagonal(harmonic, g)
    assert sturm_count_below(diag, off, e0 - 1e-9) == 0
    assert sturm_count_below(diag, off, e0 + 1e-9) == 1


def _sturm_count_numpy(diag, off, x):
    """Reference: the same recurrence on numpy scalars."""
    tiny = 1e-300
    count = 0
    q = diag[0] - x
    if q == 0.0:
        q = tiny
    if q < 0.0:
        count += 1
    off2 = off * off
    for i in range(1, diag.shape[0]):
        q = diag[i] - x - off2[i - 1] / q
        if q == 0.0:
            q = tiny
        if q < 0.0:
            count += 1
    return count


def _tridiag_solve_numpy(diag, off, rhs):
    """Reference: the Thomas algorithm on numpy arrays."""
    n = diag.shape[0]
    c = np.empty(n - 1)
    d = np.empty(n)
    c[0] = off[0] / diag[0]
    d[0] = rhs[0] / diag[0]
    for i in range(1, n):
        denom = diag[i] - off[i - 1] * c[i - 1]
        if i < n - 1:
            c[i] = off[i] / denom
        d[i] = (rhs[i] - off[i - 1] * d[i - 1]) / denom
    for i in range(n - 2, -1, -1):
        d[i] -= c[i] * d[i + 1]
    return d


def test_sturm_count_and_solve_match_the_numpy_scalar_loops():
    rng = np.random.default_rng(7)
    n = 300
    diag = rng.uniform(-3.0, 3.0, n)
    off = rng.uniform(-1.0, 1.0, n - 1)
    off[149] = 0.0  # decouples node 150, so x = diag[150] zeroes its pivot
    radius = np.zeros(n)
    radius[:-1] += np.abs(off)
    radius[1:] += np.abs(off)
    lo, hi = float(np.min(diag - radius)), float(np.max(diag + radius))
    shifts = list(rng.uniform(lo, hi, 40)) + [lo, hi, float(diag[0]), float(diag[150])]
    counts = [sturm_count_below(diag, off, x) for x in shifts]
    assert counts == [_sturm_count_numpy(diag, off, x) for x in shifts]
    assert counts[40:42] == [0, n]
    # dominant diagonal: the Thomas algorithm is stable, and must agree bit for bit
    dominant = np.abs(diag) + 2.5
    rhs = rng.standard_normal(n)
    got = oracle._tridiag_solve(dominant, off, rhs)
    assert np.array_equal(got, _tridiag_solve_numpy(dominant, off, rhs))


def _gershgorin(diag, off):
    radius = np.zeros_like(diag)
    radius[:-1] += np.abs(off)
    radius[1:] += np.abs(off)
    return float(np.min(diag - radius)), float(np.max(diag + radius))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    zeros=st.floats(0.0, 1.0),
    tail=st.sampled_from([0, 0, 30, 300]),
    shift=st.sampled_from(["diagonal", "edge", "eigenvalue", "uniform"]),
    ulps=st.integers(-4, 4),
    limit=st.integers(1, 6),
)
def test_a_capped_count_is_the_full_count_capped(seed, n, zeros, tail, shift, ulps, limit):
    # half-integer entries and zero off-diagonals put exact zero pivots in
    # reach; a strictly dominant tail after the drawn block lets the count
    # stop early, below the tail's Gershgorin lower edges (at least 4)
    rng = np.random.default_rng(seed)
    diag = rng.integers(-8, 9, n) / 2.0
    off = rng.integers(-4, 5, n - 1) / 2.0
    off[rng.random(n - 1) < zeros] = 0.0
    if tail:
        diag = np.concatenate([diag, rng.uniform(8.0, 20.0, tail)])
        off = np.concatenate([off, rng.uniform(-2.0, 2.0, tail)])
    lo, hi = _gershgorin(diag, off)
    if shift == "diagonal":
        x = float(diag[rng.integers(diag.size)])
    elif shift == "edge":
        x = (lo, hi)[rng.integers(2)]
    elif shift == "eigenvalue":
        matrix = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        x = float(np.linalg.eigvalsh(matrix)[rng.integers(diag.size)])
        for _ in range(abs(ulps)):
            x = float(np.nextafter(x, math.copysign(math.inf, ulps)))
    else:
        x = float(rng.uniform(lo - 1.0, hi + 1.0))
    full = _sturm_count_numpy(diag, off, x)
    assert sturm_count_below(diag, off, x) == full
    assert sturm_count_below(diag, off, x, limit=limit) == min(full, limit)


def test_the_count_stops_in_a_dominant_tail(monkeypatch):
    handed_out = []

    class Counted:
        """A memoryview that counts the rows its iterators hand out."""

        def __init__(self, view):
            self.view = view

        def __getitem__(self, key):
            return Counted(self.view[key]) if isinstance(key, slice) else self.view[key]

        def __iter__(self):
            for value in self.view:
                handed_out.append(value)
                yield value

    monkeypatch.setattr(oracle, "memoryview", lambda array: Counted(memoryview(array)), raising=False)
    rng = np.random.default_rng(11)
    diag = np.concatenate([rng.uniform(-1.0, 1.0, 20), np.full(5000, 10.0)])
    off = np.full(diag.size - 1, -1.0)
    lowest = float(np.linalg.eigvalsh(np.diag(diag[:60]) + np.diag(off[:59], 1) + np.diag(off[:59], -1))[0])
    # below the tail's lower edges (8) the tail stop ends each count; above
    # them only the limit can, at the third negative pivot, in the block
    counts = []
    for x, limit in ((lowest - 1e-6, None), (lowest + 1e-6, None), (9.0, 3)):
        handed_out.clear()
        counts.append(sturm_count_below(diag, off, x, limit=limit))
        assert counts[-1] == min(_sturm_count_numpy(diag, off, x), limit or diag.size)
        assert 0 < len(handed_out) <= 3 * 30  # three streams of the block's rows, not the tail's
    assert counts == [0, 1, 3]


def test_a_limit_below_one_is_refused():
    with pytest.raises(ValueError):
        sturm_count_below(np.ones(3), np.zeros(2), 0.5, limit=0)


def _main(argv):
    """Exit code, stdout, stderr less its timing line and every
    ``BoxTooSmallError`` message of the 1D solves of ``groundbound argv``,
    run in process."""
    messages, once = [], oracle._solve_1d_once

    def recording(*args):
        try:
            return once(*args)
        except BoxTooSmallError as exc:
            messages.append(str(exc))
            raise

    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        patch.setattr(oracle, "_solve_1d_once", recording)
        code = cli.main(argv)
    diagnostics = [line for line in err.getvalue().splitlines() if not line.startswith("wall_time_s=")]
    return code, out.getvalue(), diagnostics, messages


@contextlib.contextmanager
def _reference_1d():
    """The 1D oracle with the full-count bisection and the four-solve ground
    vector of ``reference``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_lowest_eigenvalue_tridiag", reference.lowest_eigenvalue_tridiag)
        patch.setattr(oracle, "_ground_vector", reference.ground_vector)
        yield


ONE_D_ORACLES = ("quartic", "hydrogen-radial", "harmonic")


@pytest.mark.parametrize("system", ONE_D_ORACLES)
def test_the_cli_oracles_bisect_to_the_reference_floats(system, monkeypatch):
    # compared in process: the potentials' last bits may differ between machines
    matrices, lowest = [], oracle._lowest_eigenvalue_tridiag

    def recording(diag, off):
        matrices.append((diag, off, lowest(diag, off)))
        return matrices[-1][2]

    monkeypatch.setattr(oracle, "_lowest_eigenvalue_tridiag", recording)
    assert _main(["oracle", "--system", system])[0] == 0
    assert len(matrices) == 2  # the coarse and the fine grid
    for diag, off, value in matrices:
        assert value == reference.lowest_eigenvalue_tridiag(diag, off)


@pytest.mark.parametrize("system, box", [(s, None) for s in ONE_D_ORACLES] + [
    ("quartic", "-1:1"), ("hydrogen-radial", "0:2"), ("harmonic", "-3:3"),
])
def test_the_cli_oracles_and_their_box_retries_match_the_references(system, box):
    argv = ["oracle", "--system", system] + ([] if box is None else [f"--box={box}"])
    got = _main(argv)
    with _reference_1d():
        want = _main(argv)
    assert got == want
    assert bool(got[3]) == (box is not None)  # a small box has to grow


@pytest.mark.parametrize("delta2", ["1e180", "1e200", "1e300"])
def test_a_non_finite_ground_vector_exits_4(delta2):
    # the quartic well is deeper than the box there; its ground vector
    # underflows to NaN, which the edge-decay test would let through
    code, out, diagnostics, box_messages = _main(["oracle", "--system", "quartic", "--delta2", delta2])
    assert (code, out, box_messages) == (4, "", [])
    assert len(diagnostics) == 1
    assert diagnostics[0].startswith("numerical failure: the ground vector")
    assert "not finite" in diagnostics[0]


def test_a_finite_vector_at_the_box_edge_still_asks_for_a_bigger_box():
    # a deep well whose ground vector stays finite: the edge-decay test, not
    # the finiteness test, refuses it, with the reference's message
    argv = ["oracle", "--system", "quartic", "--delta2", "1e150"]
    got = _main(argv)
    with _reference_1d():
        assert _main(argv) == got
    code, out, diagnostics, box_messages = got
    assert (code, out) == (4, "")
    assert box_messages and all(m.endswith("enlarge the box") for m in box_messages)
    assert len(diagnostics) == 1 and diagnostics[0].endswith("enlarge the box")


@settings(derandomize=True, max_examples=15, deadline=None)
@given(
    kind=st.sampled_from(["polynomial", "coulomb"]),
    a=st.floats(-3.0, 3.0),
    b=st.floats(-1.0, 1.0),
    c=st.floats(0.02, 1.0),
    half=st.floats(1.5, 8.0),
    n=st.integers(100, 400),
    edges=st.tuples(st.booleans(), st.booleans()),
)
def test_solves_match_the_reference_solves(kind, a, b, c, half, n, edges):
    if kind == "polynomial":  # single and double wells, tilted
        grid = Grid1D(-half, half, n)

        def potential(x):
            return c * x**4 + 0.5 * a * x * x + b * x
    else:  # a radial Coulomb well with a centrifugal term, walled at r = 0
        grid, edges = Grid1D(0.0, 4.0 * half, n), (True, edges[1])

        def potential(r):
            return -(1.0 + c) / r + 0.5 * abs(a) / (r * r)

    diag, off = _tridiagonal(potential, grid)
    assert oracle._lowest_eigenvalue_tridiag(diag, off) == reference.lowest_eigenvalue_tridiag(diag, off)

    def outcome():
        try:
            return solve_1d_ground_state(potential, grid, edges)
        except BoxTooSmallError as exc:
            return str(exc)

    got = outcome()
    with _reference_1d():
        assert outcome() == got


def test_richardson_self_consistency():
    # halving h changes the extrapolated value by less than the error bar
    coarse = solve_1d_ground_state(harmonic, Grid1D(-10.0, 10.0, 1000))
    fine = solve_1d_ground_state(harmonic, Grid1D(-10.0, 10.0, 2000))
    assert abs(coarse.energy - fine.energy) < max(coarse.error_bar, 1e-12)


def test_box_grows_until_the_eigenfunction_decays():
    res = solve_1d_ground_state(harmonic, Grid1D(-2.0, 2.0, 500))
    assert res.energy == pytest.approx(0.5, abs=1e-4)
    assert "box" in res.detail and "-2.0" not in res.detail  # it had to enlarge


def test_box_retries_are_bounded():
    # an extremely shallow well needs a much wider box than retries allow
    with pytest.raises(BoxTooSmallError):
        solve_1d_ground_state(lambda x: 5e-4 * x * x, Grid1D(-2.0, 2.0, 500))


def test_lobpcg_budget_error(monkeypatch):
    monkeypatch.setattr(oracle, "LOBPCG_MAX_ITER", 2)
    field = unit_disk_field()
    with pytest.raises(ConvergenceError):
        solve_2d_dirichlet_ground_state(field.domain, Grid2D(field.domain.box, 64))


def test_lobpcg_restarts_without_p_when_the_gram_matrix_is_singular(monkeypatch):
    x, w = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
    with pytest.raises(np.linalg.LinAlgError):  # [x, w, p] with p = w
        oracle._ritz(1.0, (x, w, w), (2.0 * w, 2.0 * w))

    domain = unit_disk_field().domain
    grid = Grid2D(domain.box, 64)
    reference, _ = oracle._solve_2d_once(domain, grid)
    ritz, sizes = oracle._ritz, []

    def first_three_term_step_fails(lam, basis, images):
        sizes.append(len(basis))
        if sizes == [2, 3]:
            raise np.linalg.LinAlgError("not positive definite")
        return ritz(lam, basis, images)

    monkeypatch.setattr(oracle, "_ritz", first_three_term_step_fails)
    lam, _ = oracle._solve_2d_once(domain, grid)
    assert sizes[:4] == [2, 3, 2, 3]  # the step is redone on [x, w], then p returns
    assert lam == pytest.approx(reference, rel=1e-9)


def _domain(name):
    if name == "billiard":
        return billiard_local_energy_field(AnnularBilliard(r=0.75, delta=0.1)).domain
    if name == "disk":
        return unit_disk_field().domain

    # an ellipse on a non-square box, so the two grid spacings differ
    def ellipse(qs):
        return qs[:, 0] ** 2 + (qs[:, 1] / 1.5) ** 2 - 1.0

    return Domain(2, "bounded", constraint=ellipse, box=((-1.1, 1.1), (-1.6, 1.6)))


def _corridor():
    """A one-node-wide serpentine corridor with many turns."""
    corridor = np.zeros((41, 41), dtype=bool)
    corridor[1:-1:4, 1:-1] = True  # rows 1, 5, ..., 37
    for k, row in enumerate(range(1, 37, 4)):
        col = 1 if k % 2 else 39
        corridor[row : row + 5, col] = True
    return corridor


@pytest.mark.parametrize("name", ["billiard", "disk", "ellipse"])
def test_mask_is_built_in_row_blocks_like_the_whole_grid(name):
    domain = _domain(name)
    n = 3 * oracle.MASK_BLOCK_ROWS + 5  # a short last block
    grid = Grid2D(domain.box, n)
    xs, ys = grid.axes()
    whole = domain.interior_mask(np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2))
    whole = whole.reshape(n, n)
    whole[0, :] = whole[-1, :] = whole[:, 0] = whole[:, -1] = False
    mask = oracle._mask_from_domain(domain, grid)
    assert 0 < mask.sum() < mask.size
    assert np.array_equal(mask, whole)


def _five_point_matrix(mask, hx, hy):
    """The masked 5-point matrix of H = -(1/2) Laplacian, built by scipy."""
    sparse = pytest.importorskip("scipy.sparse")

    def second_difference(m, h):
        a = 0.5 / (h * h)
        return sparse.diags([np.full(m - 1, -a), np.full(m, 2.0 * a), np.full(m - 1, -a)], [-1, 0, 1])

    n0, n1 = mask.shape
    h = sparse.kron(second_difference(n0, hx), sparse.identity(n1)) + sparse.kron(
        sparse.identity(n0), second_difference(n1, hy)
    )
    nodes = np.flatnonzero(mask)
    return h.tocsr()[nodes][:, nodes]


def _sparse_lowest_eigenvalue(mask, hx, hy):
    linalg = pytest.importorskip("scipy.sparse.linalg")
    h = _five_point_matrix(mask, hx, hy)
    return float(linalg.eigsh(h, k=1, sigma=0.0, which="LM", return_eigenvectors=False)[0])


@pytest.mark.parametrize("name", ["billiard", "disk", "ellipse", "corridor", "corridor-transposed"])
def test_stencil_matches_the_five_point_matrix(name):
    if name.startswith("corridor"):
        # one node wide: along axis 1 every rung (transposed, every long
        # row) is runs of a single node, each both a run start and a run end
        mask = _corridor() if name == "corridor" else _corridor().T.copy()
        hx, hy = 0.05, 0.08
    else:
        domain = _domain(name)
        grid = Grid2D(domain.box, 97)
        mask, (hx, hy) = oracle._mask_from_domain(domain, grid), grid.spacings
    if name == "ellipse":
        assert hx != hy
    matrix = _five_point_matrix(mask, hx, hy)
    level = oracle._Level(mask, hx, hy, finest=True)
    rng = np.random.default_rng(3)
    for _ in range(3):
        u = np.append(rng.standard_normal(level.size), 0.0)
        hu = oracle._apply_h(u, level, np.empty_like(u))
        want = matrix @ u[:-1]
        assert hu[-1] == 0.0  # the zero slot stays zero
        assert np.max(np.abs(hu[:-1] - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize(
    "name, n",
    [("billiard", 96), ("billiard", 97), ("disk", 96), ("disk", 97), ("ellipse", 90)],
)
def test_vcycle_is_symmetric_positive_definite(name, n):
    domain = _domain(name)
    grid = Grid2D(domain.box, n)
    hx, hy = grid.spacings
    if name == "ellipse":
        assert hx != hy
    mask = oracle._mask_from_domain(domain, grid)
    vcycle = oracle._VCycle(mask, hx, hy)
    assert len(vcycle.levels) >= 3  # smoothing, restriction and the exact solve all act
    rng = np.random.default_rng(n)
    for _ in range(3):
        u, v = (np.append(rng.standard_normal(vcycle.levels[0].size), 0.0) for _ in range(2))
        bu = vcycle(u, np.empty_like(u))
        bv = vcycle(v, np.empty_like(v))
        assert bu[-1] == 0.0 and bv[-1] == 0.0  # the zero slot stays zero
        vbu, ubv = np.vdot(v, bu), np.vdot(u, bv)
        assert abs(vbu - ubv) <= 1e-12 * max(abs(vbu), abs(ubv))
        assert np.vdot(u, bu) > 0.0 and np.vdot(v, bv) > 0.0


def _transfer(mask):
    coarse = mask[::2, ::2].copy()
    coarse[0, :] = coarse[-1, :] = coarse[:, 0] = coarse[:, -1] = False
    return oracle._Transfer(*(oracle._Level(m, 1.0, 1.0, finest=False) for m in (mask, coarse)))


@pytest.mark.parametrize("n", [16, 17])
def test_grid_transfers_are_bilinear_and_adjoint(n):
    m = (n + 1) // 2
    k, l = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    square = (k > 0) & (k < n - 1) & (l > 0) & (l < n - 1)
    transfer = _transfer(square)
    i, j = np.nonzero(transfer.coarse.mask)
    fine = np.zeros(transfer.fine.size + 1)
    transfer.prolong_add(np.append(3.0 * i - 2.0 * j + 1.0, 0.0), fine)
    assert fine[-1] == 0.0
    fine_k, fine_l = np.nonzero(square)
    # within the coarse lines next to the border, which are off the coarse mask
    inside = (fine_k >= 2) & (fine_k <= 2 * (m - 2)) & (fine_l >= 2) & (fine_l <= 2 * (m - 2))
    want = 1.5 * fine_k - 1.0 * fine_l + 1.0
    assert np.allclose(fine[:-1][inside], want[inside], rtol=0, atol=1e-12)

    rng = np.random.default_rng(n)
    disk = square & ((k - n / 2) ** 2 + (l - n / 2) ** 2 < (n / 2 - 2) ** 2)
    for mask in (square, disk):
        transfer = _transfer(mask)
        c = np.append(rng.standard_normal(transfer.coarse.size), 0.0)
        f = np.append(rng.standard_normal(transfer.fine.size), 0.0)
        pc, rf = np.zeros_like(f), np.zeros_like(c)
        transfer.prolong_add(c, pc)
        transfer.restrict(f, rf)
        assert rf[-1] == 0.0
        assert np.vdot(pc, f) == pytest.approx(4.0 * np.vdot(c, rf), rel=1e-12)


@pytest.mark.parametrize("name", ["billiard", "disk", "ellipse"])
def test_every_level_matches_sparse_eigsh(name, monkeypatch):
    pytest.importorskip("scipy")
    domain = _domain(name)
    levels = []
    solve_once = oracle._solve_2d_once

    def recording(dom, grid, x0=None):
        lam, vec = solve_once(dom, grid, x0=x0)
        levels.append((grid, lam))
        return lam, vec

    monkeypatch.setattr(oracle, "_solve_2d_once", recording)
    solve_2d_dirichlet_ground_state(domain, Grid2D(domain.box, 100))
    assert [grid.n for grid, _ in levels] == [100, 200]
    for grid, lam in levels:
        reference = _sparse_lowest_eigenvalue(oracle._mask_from_domain(domain, grid), *grid.spacings)
        assert lam == pytest.approx(reference, rel=1e-8)


def test_disk_ground_state():
    field = unit_disk_field()
    res = solve_2d_dirichlet_ground_state(field.domain, Grid2D(field.domain.box, 200))
    assert res.energy == pytest.approx(DISK_EIGENVALUE, abs=0.01)


def test_disconnected_mask_is_rejected():
    def two_disks(qs):
        left = (qs[:, 0] + 0.6) ** 2 + qs[:, 1] ** 2 - 0.04
        right = (qs[:, 0] - 0.6) ** 2 + qs[:, 1] ** 2 - 0.04
        return np.minimum(left, right)

    dom = Domain(2, "bounded", constraint=two_disks, box=((-1, 1), (-1, 1)))
    with pytest.raises(ValueError):
        solve_2d_dirichlet_ground_state(dom, Grid2D(((-1.0, 1.0), (-1.0, 1.0)), 64))

    # two blocks that touch only at a corner are not 4-connected
    diagonal = np.zeros((12, 12), dtype=bool)
    diagonal[2:6, 2:6] = True
    diagonal[6:10, 6:10] = True
    with pytest.raises(ValueError):
        oracle._assert_connected(diagonal)

    # a one-node-wide serpentine corridor with many turns is one region
    corridor = _corridor()
    oracle._assert_connected(corridor)
    corridor[19, 39] = False  # cut one rung: now two regions
    with pytest.raises(ValueError):
        oracle._assert_connected(corridor)


@pytest.mark.parametrize("seed", range(4))
def test_connectivity_matches_a_flood_fill(seed):
    rng = np.random.default_rng(seed)
    mask = rng.random((30, 30)) < 0.62
    mask[0, :] = mask[-1, :] = mask[:, 0] = mask[:, -1] = False
    start = tuple(np.argwhere(mask)[0])
    region = np.zeros_like(mask)
    region[start] = True
    stack = [start]
    while stack:
        i, j = stack.pop()
        for nb in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
            if mask[nb] and not region[nb]:
                region[nb] = True
                stack.append(nb)
    oracle._assert_connected(region)
    if region.sum() == mask.sum():
        oracle._assert_connected(mask)
    else:
        with pytest.raises(ValueError):
            oracle._assert_connected(mask)


def test_concentric_annulus_matches_radial_reduction():
    # independent calibration: the concentric annulus reduces to a radial
    # problem with Dirichlet walls and the centrifugal-free effective term
    radial = solve_1d_ground_state(
        lambda p: -1.0 / (8.0 * p * p), Grid1D(0.75, 1.0, 2000), dirichlet_edges=(True, True)
    )
    ab = AnnularBilliard(r=0.75, delta=0.0)
    dom = billiard_local_energy_field(ab).domain
    res2d = solve_2d_dirichlet_ground_state(dom, Grid2D(dom.box, 150))
    assert abs(res2d.energy - radial.energy) <= res2d.error_bar + radial.error_bar + 0.2
