import math
import re
import warnings

import numpy as np
import pytest

from torusdet.lattice import TruncationWindow
from torusdet.l1_algebra import (
    DimensionMismatchError,
    NonConvergenceError,
    SparseL1Matrix,
    TailModel,
    apply,
    compose,
    determinant_decision,
    finite_determinant,
    finite_trace,
    invertibility_test,
    l1_norm,
    lp_norm,
    poincare_determinant,
    poincare_trace,
    truncate,
)
from torusdet.l1_algebra import (
    _SECTION_SIZE_LIMIT,
    _LadderTails,
    _section_det,
    _section_inv,
    _section_min_singular,
    _tail_cross_term,
)


def random_sparse(rng, n=1, max_entries=30, radius=6, scale=2.0):
    count = int(rng.integers(1, max_entries + 1))
    entries = {}
    for _ in range(count):
        row = tuple(int(x) for x in rng.integers(-radius, radius + 1, size=n))
        col = tuple(int(x) for x in rng.integers(-radius, radius + 1, size=n))
        mag = scale * rng.random()
        phase = 2 * np.pi * rng.random()
        entries[(row, col)] = mag * complex(np.cos(phase), np.sin(phase))
    return SparseL1Matrix(n, entries)


def section_of(matrix, radius):
    section, _ = truncate(matrix, TailModel.exact_finite(), TruncationWindow(radius, matrix.dimension))
    return section


# --- norms and canonical form


def test_l1_norm_examples():
    assert l1_norm(SparseL1Matrix(1, {})) == 0.0
    assert SparseL1Matrix(1, {((0,), (0,)): 3 + 4j}).l1_norm == pytest.approx(5.0, abs=0)
    a = SparseL1Matrix(1, {((0,), (0,)): 1, ((1,), (-1,)): -2, ((-1,), (2,)): 1j})
    assert a.l1_norm == pytest.approx(4.0, abs=0)


def test_canonical_form_drops_zeros_and_merges_duplicates():
    a = SparseL1Matrix.from_arrays(
        1,
        np.array([[0], [0], [1], [2]]),
        np.array([[0], [0], [1], [2]]),
        np.array([1.0, -1.0, 2.0, 0.0]),
    )
    assert a.nnz == 1
    assert a.entry((1,), (1,)) == 2.0


def test_float_values_stay_float64_through_the_sort_path():
    # unsorted, (3, 1) twice, (5, 5) cancelling, one stored zero
    rows = np.array([[3], [0], [3], [5], [1], [5], [-1]])
    cols = np.array([[1], [0], [1], [5], [1], [5], [4]])
    vals = np.array([0.5, 2.0, 0.25, 1.0, 0.0, -1.0, 3.0])
    real = SparseL1Matrix.from_arrays(1, rows, cols, vals)
    cplx = SparseL1Matrix.from_arrays(1, rows, cols, vals.astype(np.complex128))
    assert real.vals.dtype == np.float64 and cplx.vals.dtype == np.complex128
    assert real.nnz == 3
    for got, ref in ((real, cplx), (real + real, cplx + cplx), (real @ real, cplx @ cplx)):
        assert got.vals.dtype == np.float64
        assert np.array_equal(got.rows, ref.rows) and np.array_equal(got.cols, ref.cols)
        assert np.array_equal(got.vals, ref.vals) and got.l1_norm == ref.l1_norm


def test_tracked_norm_recomputable():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = random_sparse(rng, n=2)
        assert a.l1_norm == pytest.approx(float(np.sum(np.abs(a.vals))), rel=1e-14)


def test_transpose_examples():
    diag = SparseL1Matrix(1, {((k,), (k,)): k + 1 for k in range(3)})
    assert diag.transpose().to_dict() == diag.to_dict()
    shift = SparseL1Matrix(1, {((0,), (1,)): 2.0})
    assert shift.transpose().to_dict() == {((1,), (0,)): 2.0}


def test_transpose_norm_exact_on_random():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a = random_sparse(rng, n=int(rng.integers(1, 3)))
        assert a.transpose().l1_norm == a.l1_norm  # exact, not approximate


def test_transpose_involution():
    rng = np.random.default_rng(2)
    a = random_sparse(rng, n=2)
    assert a.transpose().transpose().to_dict() == a.to_dict()


# --- composition


def test_compose_unit_entries():
    e_jk = SparseL1Matrix(1, {((2,), (5,)): 1.0})
    e_kl = SparseL1Matrix(1, {((5,), (-1,)): 1.0})
    prod = compose(e_jk, e_kl)
    assert prod.to_dict() == {((2,), (-1,)): 1.0}
    # mismatched middle index annihilates
    e_other = SparseL1Matrix(1, {((4,), (-1,)): 1.0})
    assert compose(e_jk, e_other).nnz == 0


def test_compose_diagonals():
    a = SparseL1Matrix(1, {((k,), (k,)): k + 1.0 for k in range(4)})
    b = SparseL1Matrix(1, {((k,), (k,)): 2.0 * k + 1 for k in range(2, 6)})
    prod = compose(a, b)
    assert prod.to_dict() == {
        ((2,), (2,)): 3.0 * 5.0,
        ((3,), (3,)): 4.0 * 7.0,
    }


def test_compose_submultiplicative_random():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(1, 3))
        a = random_sparse(rng, n=n, max_entries=50)
        b = random_sparse(rng, n=n, max_entries=50)
        ab = compose(a, b)
        limit = a.l1_norm * b.l1_norm
        assert ab.l1_norm <= limit + 1e-12 * limit


def test_compose_matches_dense():
    rng = np.random.default_rng(4)
    a = random_sparse(rng, n=1, radius=3)
    b = random_sparse(rng, n=1, radius=3)
    dense_a = section_of(a, 6).matrix
    dense_b = section_of(b, 6).matrix
    dense_prod = section_of(compose(a, b), 6).matrix
    assert np.allclose(dense_prod, dense_a @ dense_b, atol=1e-13)


def test_compose_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        compose(SparseL1Matrix(1, {}), SparseL1Matrix(2, {}))


# --- application to sequences


def test_apply_identity_section():
    ident = SparseL1Matrix.identity(1, 4)
    x = {(0,): 1.5, (3,): -2j, (-4,): 0.25}
    assert apply(ident, x) == x


def test_apply_shift():
    shift = SparseL1Matrix(1, {((1,), (0,)): 2.0})
    assert apply(shift, {(0,): 1.0}) == {(1,): 2.0}


def test_apply_schur_bound():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(1, 3))
        a = random_sparse(rng, n=n)
        support = int(rng.integers(1, 8))
        x = {}
        for _ in range(support):
            idx = tuple(int(v) for v in rng.integers(-5, 6, size=n))
            x[idx] = complex(rng.standard_normal(), rng.standard_normal())
        y = apply(a, x)
        for p in (1, 2, 4):
            assert lp_norm(y, p) <= a.l1_norm * lp_norm(x, p) * (1 + 1e-12)


# --- truncation


def test_truncate_exact_support():
    a = SparseL1Matrix(1, {((k,), (k,)): 1.0 for k in range(-3, 4)})
    section, tail_mass = truncate(a, TailModel.exact_finite(), TruncationWindow(3, 1))
    assert tail_mass == 0.0
    assert np.allclose(section.matrix, np.eye(7))


def test_truncate_discards_outside_entries():
    a = SparseL1Matrix(1, {((1,), (1,)): 5.0})
    section, tail_mass = truncate(a, TailModel.exact_finite(), TruncationWindow(0, 1))
    assert section.matrix.shape == (1, 1)
    assert np.all(section.matrix == 0)
    assert tail_mass == 5.0


def test_truncate_diagonal_family_integral_bound():
    # a_k = 1/(4 pi^2 k^2 + 1), integral comparison gives
    # sum_{|k|>N} a_k <= 2/(4 pi^2 N)
    cov = 16
    ks = np.arange(-cov, cov + 1)
    vals = 1.0 / (4 * np.pi**2 * ks.astype(float) ** 2 + 1.0)
    a = SparseL1Matrix.from_arrays(1, ks, ks, vals)
    tail = TailModel.user_bound(lambda r: 2.0 / (4 * np.pi**2 * max(r, 1)))
    _, tail_mass = truncate(a, tail, TruncationWindow(16, 1))
    assert tail_mass <= 2.0 / (4 * np.pi**2 * 16) + 1e-15
    # the bound really dominates the discarded mass of the true family
    true_tail = sum(
        2.0 / (4 * np.pi**2 * k * k + 1.0) for k in range(17, 100000)
    )
    assert true_tail <= tail_mass


# --- finite sections: trace and determinant


def test_finite_trace_examples():
    d = SparseL1Matrix(1, {((k,), (k,)): float(k + 1) for k in range(3)})
    assert finite_trace(section_of(d, 3)) == pytest.approx(6.0, abs=0)
    zero = section_of(SparseL1Matrix(1, {}), 2)
    assert finite_trace(zero) == 0.0


def test_finite_trace_commutator_and_linearity():
    rng = np.random.default_rng(6)
    for _ in range(25):
        size = int(rng.integers(2, 12))
        f = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        g = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        tr_fg = np.trace(f @ g)
        tr_gf = np.trace(g @ f)
        assert abs(tr_fg - tr_gf) <= 1e-12 * (1 + abs(tr_fg))
        assert np.trace(2.0 * f + 3j * g) == pytest.approx(
            2.0 * np.trace(f) + 3j * np.trace(g), rel=1e-12
        )


def test_finite_trace_dominated_by_entry_sum():
    rng = np.random.default_rng(7)
    for _ in range(25):
        a = random_sparse(rng, n=1, radius=4)
        section = section_of(a, 4)
        assert abs(finite_trace(section)) <= float(np.sum(np.abs(section.matrix))) + 1e-14


def test_finite_determinant_examples():
    half = SparseL1Matrix(1, {((0,), (0,)): 0.5})
    assert finite_determinant(section_of(half, 0)) == pytest.approx(1.5, abs=0)

    nilpotent = SparseL1Matrix(1, {((-1,), (0,)): 3.0, ((-1,), (1,)): -2.0, ((0,), (1,)): 4.0})
    assert finite_determinant(section_of(nilpotent, 1)) == pytest.approx(1.0, rel=1e-14)

    swapish = SparseL1Matrix(1, {((0,), (1,)): 1.0, ((1,), (0,)): 1.0})
    assert finite_determinant(section_of(swapish, 1)) == pytest.approx(0.0, abs=1e-14)


def test_finite_determinant_matches_eigenproduct():
    rng = np.random.default_rng(8)
    for _ in range(50):
        size = int(rng.integers(1, 41))
        f = 0.5 * (rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size)))
        f /= max(1.0, np.linalg.norm(f, 1) / 4)
        lu_det = np.linalg.det(np.eye(size) + f)
        eig_det = np.prod(1.0 + np.linalg.eigvals(f))
        assert abs(lu_det - eig_det) <= 1e-10 * max(abs(eig_det), 1e-30)


def test_determinant_multiplicative_properties():
    rng = np.random.default_rng(9)
    for _ in range(25):
        size = int(rng.integers(2, 15))
        f = 0.4 * (rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size)))
        g = 0.4 * (rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size)))
        eye = np.eye(size)
        lhs = np.linalg.det((eye + f) @ (eye + g))
        rhs = np.linalg.det(eye + f) * np.linalg.det(eye + g)
        scale = max(abs(lhs), abs(rhs), 1.0)
        assert abs(lhs - rhs) <= 1e-10 * scale
        ab = np.linalg.det(eye + f @ g)
        ba = np.linalg.det(eye + g @ f)
        assert abs(ab - ba) <= 1e-10 * max(abs(ab), 1.0)


def test_determinant_multiplicative_through_compose():
    # (I+A)(I+B) - I = A + B + AB assembled in the sparse algebra itself
    rng = np.random.default_rng(14)
    for _ in range(10):
        a = random_sparse(rng, n=1, radius=3, max_entries=12, scale=0.4)
        b = random_sparse(rng, n=1, radius=3, max_entries=12, scale=0.4)
        combined = a + b + compose(a, b)
        lhs = finite_determinant(section_of(combined, 6))
        rhs = finite_determinant(section_of(a, 6)) * finite_determinant(section_of(b, 6))
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1.0)


def test_determinant_magnitude_bound():
    rng = np.random.default_rng(10)
    for _ in range(25):
        a = random_sparse(rng, n=1, radius=4)
        section = section_of(a, 4)
        mass = float(np.sum(np.abs(section.matrix)))
        assert abs(finite_determinant(section)) <= math.exp(mass) * (1 + 1e-12)


# --- extended trace and determinant


def diagonal_family(coeff, coverage):
    ks = np.arange(-coverage, coverage + 1)[:, None]
    vals = coeff / (4 * np.pi**2 * ks[:, 0].astype(float) ** 2 + 1.0)
    matrix = SparseL1Matrix.from_canonical_arrays(1, ks, ks, vals)
    tail = TailModel.user_bound(
        lambda r: (coeff / math.pi) * (math.pi / 2 - math.atan(2 * math.pi * max(r, 1)))
    )
    return matrix, tail


def test_poincare_trace_zero_and_finite():
    zero = SparseL1Matrix(1, {})
    res = poincare_trace(zero, TailModel.exact_finite(), 1e-12)
    assert res.value == 0 and res.certified_error == 0.0

    finite = SparseL1Matrix(2, {((1, 0), (1, 0)): 2.5, ((0, 0), (1, 1)): 9.0})
    res = poincare_trace(finite, TailModel.exact_finite(), 1e-12)
    assert res.value == 2.5 and res.certified_error == 0.0


def test_poincare_trace_coth_family():
    matrix, tail = diagonal_family(3.0, 300_000)
    res = poincare_trace(matrix, tail, 1e-6)
    oracle = 3.0 * math.cosh(0.5) / math.sinh(0.5) / 2.0
    assert abs(res.value - oracle) <= res.certified_error
    assert abs(res.value - oracle) <= 1e-6
    assert res.certified_error <= 1e-6


def test_poincare_trace_nonconvergence_has_diagnostics():
    matrix, _ = diagonal_family(3.0, 64)
    slow = TailModel.user_bound(lambda r: 0.5)  # never reaches tol
    with pytest.raises(NonConvergenceError) as err:
        poincare_trace(matrix, slow, 1e-8, max_radius=2**20)
    assert err.value.ladder  # carries the attempted windows
    assert err.value.last_bound >= 0.5


def test_poincare_determinant_zero_and_finite():
    zero = SparseL1Matrix(1, {})
    res = poincare_determinant(zero, TailModel.exact_finite(), 1e-12)
    assert res.value == 1.0 and res.certified_error == 0.0 and res.converged

    finite = SparseL1Matrix(1, {((2,), (2,)): 1.0, ((0,), (2,)): 5.0})
    res = poincare_determinant(finite, TailModel.exact_finite(), 1e-12)
    section = section_of(finite, 2)
    assert res.value == finite_determinant(section)
    assert res.certified_error == 0.0


def test_poincare_determinant_diagonal_family():
    matrix, tail = diagonal_family(3.0, 2_000_000)
    res = poincare_determinant(matrix, tail, 1e-6, max_radius=64)
    oracle = 4.0 * (math.sinh(1.0) / (2.0 * math.sinh(0.5))) ** 2
    assert res.converged
    assert res.ladder[-1].radius <= 64
    assert abs(res.value - oracle) <= 1e-6
    assert abs(res.value - oracle) <= res.certified_error


def test_poincare_determinant_ladder_cauchy_property():
    matrix, tail = diagonal_family(3.0, 100_000)
    res = poincare_determinant(matrix, tail, 1e-4, max_radius=64)
    steps = res.ladder
    assert [s.radius for s in steps] == sorted({s.radius for s in steps})
    norm_upper = matrix.l1_norm + tail.bound_at(matrix.support_radius)
    for i in range(len(steps)):
        discarded = float(
            np.sum(np.abs(matrix.vals[matrix.entry_radii > steps[i].radius]))
        )
        tail_norm = discarded + tail.bound_at(steps[i].radius)
        spec_bound = tail_norm * math.exp(norm_upper + 1.0)
        for j in range(i + 1, len(steps)):
            assert abs(steps[j].value - steps[i].value) <= spec_bound
        # the recorded per-step bound really dominates the gap to the limit
        oracle = 4.0 * (math.sinh(1.0) / (2.0 * math.sinh(0.5))) ** 2
        assert abs(steps[i].value - oracle) <= steps[i].bound


def test_poincare_determinant_nonconvergence_carries_ladder():
    matrix, _ = diagonal_family(3.0, 4096)
    stubborn = TailModel.user_bound(lambda r: 1.0)
    with pytest.raises(NonConvergenceError) as err:
        poincare_determinant(matrix, stubborn, 1e-10, max_radius=16)
    assert [step.radius for step in err.value.ladder] == [8, 16]


def test_tail_cross_term_matches_dense():
    # Tr(G T^2) for G dense on the window and T vanishing on window x window
    rng = np.random.default_rng(7)
    for n, support, radius in [(1, 7, 3), (1, 9, 0), (2, 4, 2), (2, 3, 1)]:
        for _ in range(4):
            t = random_sparse(rng, n=n, max_entries=40 * n * n, radius=support)
            keep = t.entry_radii > radius
            rows, cols, vals = t.rows[keep], t.cols[keep], t.vals[keep]
            w = TruncationWindow(radius, n)
            g = rng.standard_normal((w.size, w.size)) + 1j * rng.standard_normal((w.size, w.size))
            got = _tail_cross_term(g, radius, n, rows, cols, vals)

            big = TruncationWindow(support, n)
            t_dense = np.zeros((big.size, big.size), dtype=complex)
            pos = lambda c: np.ravel_multi_index((c + support).T, (2 * support + 1,) * n)
            t_dense[pos(rows), pos(cols)] = vals
            inner = pos(w.coords_array())
            g_big = np.zeros_like(t_dense)
            g_big[np.ix_(inner, inner)] = g
            want = np.trace(g_big @ t_dense @ t_dense)
            scale = np.sum(np.abs(g)) * np.sum(np.abs(vals)) ** 2
            assert abs(got - want) <= 1e-14 * scale


def banded_matrix(rng, n, support, band, scale, decay):
    """All entries with |row - col|_inf <= band inside the support window,
    random complex values decaying like exp(-decay * entry radius)."""
    pts = TruncationWindow(support, n).coords_array()
    offsets = TruncationWindow(band, n).coords_array()
    cols = (pts[:, None, :] + offsets[None, :, :]).reshape(-1, n)
    rows = np.repeat(pts, len(offsets), axis=0)
    keep = np.max(np.abs(cols), axis=1) <= support
    rows, cols = rows[keep], cols[keep]
    radius = np.maximum(np.max(np.abs(rows), axis=1), np.max(np.abs(cols), axis=1))
    vals = scale * (rng.standard_normal(len(rows)) + 1j * rng.standard_normal(len(rows)))
    return SparseL1Matrix.from_arrays(n, rows, cols, vals * np.exp(-decay * radius))


@pytest.mark.parametrize(
    "n, support, max_radius, decay", [(1, 40, 16, 0.5), (2, 10, 4, 2.0)]
)
def test_ladder_far_and_straddling_tails_match_dense(monkeypatch, n, support, max_radius, decay):
    # rungs stop inside the support, so their tails hold entries beyond the
    # last rung (far) and entries with one index inside it (straddling)
    a = banded_matrix(np.random.default_rng(11), n, support, 1, 0.3, decay)
    full = TruncationWindow(support, n)
    dense_a = section_of(a, support).matrix
    pos = lambda c: np.ravel_multi_index((c + support).T, (2 * support + 1,) * n)

    seen = []
    second_order = _LadderTails.second_order

    def spy(self, g_dense, window, outside):
        tr_t2, cross = second_order(self, g_dense, window, outside)
        inner = pos(window.coords_array())
        t_dense = dense_a.copy()
        t_dense[np.ix_(inner, inner)] = 0.0
        g_big = np.zeros_like(dense_a)
        g_big[np.ix_(inner, inner)] = g_dense
        t_sq = t_dense @ t_dense
        scale = np.sum(np.abs(t_dense)) ** 2
        assert abs(tr_t2 - np.trace(t_sq)) <= 1e-13 * scale
        assert abs(cross - np.trace(g_big @ t_sq)) <= 1e-13 * scale * np.sum(np.abs(g_dense))
        _, straddle = self._far_pair_statistics()
        seen.append((self.far_off_count, 0 if straddle is None else len(straddle[2])))
        return tr_t2, cross

    monkeypatch.setattr(_LadderTails, "second_order", spy)
    res = poincare_determinant(a, TailModel.exact_finite(), 1e-4, max_radius=max_radius)
    assert seen and all(far > 0 and straddling > 0 for far, straddling in seen)
    sign, logabs = np.linalg.slogdet(np.eye(full.size) + dense_a)
    assert abs(res.value - sign * np.exp(logabs)) <= res.certified_error


# --- dense section kernels


def hidden_block_diagonal(rng, sizes, complex_values, singular=None):
    """I + F made of diagonal blocks, conjugated by a random permutation.

    ``singular`` names a block of size >= 2 that is made exactly singular:
    its last column vanishes, while its last row keeps it connected.
    """
    size = sum(sizes)
    m = np.zeros((size, size), dtype=complex if complex_values else float)
    start = 0
    for b, s in enumerate(sizes):
        block = rng.standard_normal((s, s))
        if complex_values:
            block = block + 1j * rng.standard_normal((s, s))
        block = np.eye(s) + 0.4 * block
        if b == singular:
            block[:, -1] = 0.0
        m[start : start + s, start : start + s] = block
        start += s
    perm = rng.permutation(size)
    return m[np.ix_(perm, perm)]


def rel_err(got, want):
    return np.linalg.norm(np.asarray(got) - want) / np.linalg.norm(want)


# isolated points are the 1 x 1 blocks; two sizes repeat
BLOCK_SIZES = [1, 3, 1, 4, 2, 3, 1, 6, 2]


@pytest.mark.parametrize("complex_values", [False, True])
def test_section_kernels_match_dense_linalg_on_hidden_blocks(complex_values):
    rng = np.random.default_rng(11)
    m = hidden_block_diagonal(rng, BLOCK_SIZES, complex_values)
    assert rel_err(_section_det(m), np.linalg.det(m)) <= 1e-12
    assert rel_err(_section_inv(m), np.linalg.inv(m)) <= 1e-12

    _, svals, vh = np.linalg.svd(m)
    smallest, largest, v = _section_min_singular(m)
    assert abs(smallest - svals[-1]) <= 1e-12 * svals[-1]
    assert abs(largest - svals[0]) <= 1e-12 * svals[0]
    assert v.dtype == m.dtype and abs(np.linalg.norm(v) - 1.0) <= 1e-12
    # sigma_min is simple here, so v is the dense vector up to a phase
    assert abs(abs(np.vdot(vh[-1], v)) - 1.0) <= 1e-12
    assert np.linalg.norm(m @ np.conj(v)) <= smallest * (1 + 1e-12) + 1e-14


@pytest.mark.parametrize("complex_values", [False, True])
def test_section_kernels_on_an_exactly_singular_block(complex_values):
    rng = np.random.default_rng(12)
    m = hidden_block_diagonal(rng, BLOCK_SIZES, complex_values, singular=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _section_det(m) == 0
        smallest, largest, v = _section_min_singular(m)
    with pytest.raises(np.linalg.LinAlgError):
        _section_inv(m)
    # an unsigned zero, whatever the signs of the other blocks
    assert repr(_section_det(np.diag([-2.0, 0.0, 3.0]))) == "0j"
    svals = np.linalg.svd(m, compute_uv=False)
    assert smallest <= 1e-12 * svals[0]
    assert abs(largest - svals[0]) <= 1e-12 * svals[0]
    assert np.linalg.norm(m @ np.conj(v)) <= 1e-12 * svals[0]


def test_section_kernels_on_one_component_pass_the_matrix_through():
    rng = np.random.default_rng(13)
    m = np.eye(12) + 0.3 * (rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12)))
    assert _section_det(m) == complex(np.linalg.det(m))
    assert np.array_equal(_section_inv(m), np.linalg.inv(m))
    _, svals, vh = np.linalg.svd(m)
    smallest, largest, v = _section_min_singular(m)
    assert (smallest, largest) == (svals[-1], svals[0]) and np.array_equal(v, vh[-1])


def test_section_det_product_neither_overflows_nor_underflows():
    # 600 blocks of det 1e3 and 600 of det 1e-3: the product is 1, while a
    # running product in either order leaves the float range
    values = np.concatenate([np.full(600, 1e3), np.full(600, 1e-3)])
    assert _section_det(np.diag(values)) == pytest.approx(1.0, rel=1e-12)
    assert _section_det(np.diag(values[::-1] * 1j)) == pytest.approx(1.0, rel=1e-12)


def test_section_min_singular_tie_goes_to_the_first_window_position():
    # sigma_min = 1 on positions 2 and 4 (1 x 1 blocks) and on the 2 x 2
    # block {0, 3}; the block holding position 0 comes first, although the
    # 1 x 1 blocks are solved in an earlier stacked call
    m = np.diag([0.0, 3.0, -1.0, 0.0, 1.0, 2.0])
    m[0, 3] = m[3, 0] = 1.0
    smallest, largest, v = _section_min_singular(m)
    assert (smallest, largest) == (1.0, 3.0)
    assert np.count_nonzero(v[[1, 2, 4, 5]]) == 0
    assert np.linalg.norm(m @ np.conj(v)) == pytest.approx(1.0, abs=1e-15)

    m = np.diag([4.0, 2.0, 3.0, -2.0, 2.0])
    smallest, _, v = _section_min_singular(m)
    assert smallest == 2.0
    assert np.flatnonzero(v).tolist() == [1] and abs(v[1]) == 1.0


def test_sections_are_real_exactly_when_the_values_are():
    w = TruncationWindow(2, 1)
    real = SparseL1Matrix(1, {((0,), (1,)): 0.5, ((1,), (1,)): -2.0})  # complex128 storage
    assert real.vals.dtype == np.complex128
    assert section_of(real, 2).matrix.dtype == np.float64
    stored_real = SparseL1Matrix.from_arrays(1, [[0]], [[1]], np.array([0.5]))
    assert section_of(stored_real, 2).matrix.dtype == np.float64
    cplx = SparseL1Matrix(1, {((0,), (1,)): 0.5, ((1,), (1,)): 1j})
    section, _ = truncate(cplx, TailModel.exact_finite(), w)
    assert section.matrix.dtype == np.complex128
    assert section.matrix[3, 3] == 1j


def test_exact_finite_last_rung_skips_the_inverse(monkeypatch):
    rng = np.random.default_rng(14)
    a = random_sparse(rng, n=2, max_entries=40, radius=5, scale=0.3)
    expected = finite_determinant(section_of(a, a.support_radius))
    calls = []
    original = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda x: calls.append(x.shape) or original(x))
    res = poincare_determinant(a, TailModel.exact_finite(), 1e-12)
    assert calls == []
    assert [s.radius for s in res.ladder] == [a.support_radius]
    assert res.value == expected and res.certified_error == 0.0 and res.converged

    # a tail of mass >= 0.9 cannot pass s < 0.9 either
    heavy = TailModel.user_bound(lambda r: 1.0)
    with pytest.raises(NonConvergenceError) as err:
        poincare_determinant(a, heavy, 1e-12, max_radius=a.support_radius)
    assert calls == []
    assert err.value.ladder[-1].value == expected


def five_dimensional_diagonal(radius):
    pts = TruncationWindow(1, 5).coords_array()
    corner = np.full((1, 5), radius)
    pts = np.concatenate([pts, corner]) if radius > 1 else pts
    return SparseL1Matrix.from_arrays(5, pts, pts, np.full(len(pts), 0.01))


def test_ladder_section_guard_stops_before_the_refused_rung():
    import tracemalloc

    a = five_dimensional_diagonal(1)  # ladder 1, 2, 4: 243, 3125, 59049 points
    assert TruncationWindow(4, 5).size > _SECTION_SIZE_LIMIT
    never = TailModel.user_bound(lambda r: 1e-3)
    tracemalloc.start()
    try:
        with pytest.raises(NonConvergenceError) as err:
            poincare_determinant(a, never, 1e-12, max_radius=4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 3125**2 * 8  # one 3125-point section, not a 59049-point one
    assert [s.radius for s in err.value.ladder] == [1, 2]
    assert str(_SECTION_SIZE_LIMIT) in str(err.value)
    assert err.value.last_bound == min(s.bound for s in err.value.ladder)
    assert err.value.last_value is not None


def test_ladder_section_guard_refuses_a_first_rung_over_the_limit():
    a = five_dimensional_diagonal(4)  # the first rung is already radius 4
    with pytest.raises(ValueError, match=f"limit {_SECTION_SIZE_LIMIT}") as err:
        poincare_determinant(a, TailModel.exact_finite(), 1e-12)
    assert not isinstance(err.value, NonConvergenceError)
    with pytest.raises(ValueError, match=re.escape(str(err.value))):
        truncate(a, TailModel.exact_finite(), TruncationWindow(4, 5))


# --- invertibility


def test_invertibility_zero_matrix():
    decision, result = invertibility_test(SparseL1Matrix(1, {}), TailModel.exact_finite(), 1e-10)
    assert decision == "invertible"
    assert result.value == 1.0


def test_invertibility_exact_minus_one():
    a = SparseL1Matrix(1, {((0,), (0,)): -1.0})
    decision, result = invertibility_test(a, TailModel.exact_finite(), 1e-10)
    assert decision == "singular"
    assert result.value == 0.0


def test_invertibility_undecided_band():
    # value and certified error straddle each other but exceed tol
    from torusdet.l1_algebra import DeterminantResult

    res = DeterminantResult(value=1e-3, ladder=[], certified_error=5e-3, converged=True)
    assert determinant_decision(res, 1e-8) == "undecided"


@pytest.mark.parametrize("case", ["radius cap", "section limit"])
def test_invertibility_test_returns_the_ladder_poincare_determinant_raises(case):
    if case == "radius cap":
        a = SparseL1Matrix(1, {((0,), (0,)): 0.3, ((2,), (1,)): 0.1 + 0.05j})
        tail = TailModel.user_bound(lambda r: 0.01 * float(max(r, 1)) ** -3)
        max_radius = 16
    else:
        a = five_dimensional_diagonal(1)
        tail = TailModel.user_bound(lambda r: 1e-3)
        max_radius = 4
    with pytest.raises(NonConvergenceError) as err:
        poincare_determinant(a, tail, 1e-8, max_radius=max_radius)
    decision, result = invertibility_test(a, tail, 1e-8, max_radius=max_radius)
    assert result.converged is False
    assert result.ladder == err.value.ladder
    assert result.value == err.value.last_value
    assert result.certified_error == err.value.last_bound
    assert decision == determinant_decision(result, 1e-8) == "invertible"
