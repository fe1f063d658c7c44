import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from torusdet import _dense, l1_algebra
from torusdet.hill import (
    HillProblem,
    _window_min_singular,
    build_hill_matrix,
    existence_test,
    hill_determinant,
    spectral_shift_scan,
)
from torusdet.lattice import TruncationWindow
from torusdet.l1_algebra import (
    DimensionMismatchError,
    NonConvergenceError,
    SparseL1Matrix,
    TailModel,
    TraceResult,
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
    _coverage_floor,
    _determinant_ladder,
    _ladder_radii,
    _tail_cross_term,
    _transpose_pair_sum,
)
from torusdet._dense import (
    _SLAB_CONDITION_LIMIT,
    _Slabs,
    _Stacks,
    _parity_blocks,
    _section_det,
    _section_parts,
    _slab_sweep,
)

from test_hill import (
    EVEN_2D,
    EVEN_2D_COMPLEX,
    EVEN_3D,
    EVEN_3D_COMPLEX,
    NEAR_ROOT_1D,
    SKEW_2D,
    SKEW_2D_COMPLEX,
    dense_of,
    dense_parts,
    hill_section,
    section_min_singular,
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


def test_from_arrays_on_overflowing_coordinates_matches_a_dict_reference():
    # rows and cols near +-2^40 in 2-D pack past 2^62, so the canonical order
    # comes from np.unique ranks; half the base entries are stored twice,
    # once cancelled to an exact zero and once doubled, and some are zeros
    rng = np.random.default_rng(11)
    base = 60
    rows = rng.integers(-1, 2, size=(base, 2)) * 2**40 + rng.integers(-2, 3, size=(base, 2))
    cols = rng.integers(-1, 2, size=(base, 2)) * 2**40 + rng.integers(-2, 3, size=(base, 2))
    vals = rng.integers(-4, 5, size=base) + 0.5j * rng.integers(-1, 2, size=base)
    pick = np.arange(0, base, 2)
    vals_twice = np.where(pick % 4 == 0, -vals[pick], vals[pick])
    perm = rng.permutation(base + len(pick))
    rows = np.concatenate([rows, rows[pick]])[perm]
    cols = np.concatenate([cols, cols[pick]])[perm]
    vals = np.concatenate([vals, vals_twice])[perm]
    ref = {}
    for r, c, v in zip(rows.tolist(), cols.tolist(), vals.tolist()):
        ref[(tuple(r), tuple(c))] = ref.get((tuple(r), tuple(c)), 0) + v
    want = sorted((key, v) for key, v in ref.items() if v != 0)
    assert 0 < len(want) < base  # cancellations and zeros were dropped
    a = SparseL1Matrix.from_arrays(2, rows, cols, vals)
    assert list(a.to_dict().items()) == want
    assert a.l1_norm == float(np.sum(np.abs([v for _, v in want])))


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


def test_mixed_index_dtypes_take_their_common_one_on_every_path():
    narrow, wide = np.array([[1], [0]], np.int32), np.array([[0], [1]], np.int64)
    unsorted = SparseL1Matrix.from_arrays(1, narrow, wide, [1.0, 2.0])
    canonical = SparseL1Matrix.from_arrays(1, narrow[::-1], wide[::-1], [2.0, 1.0])
    for a in (unsorted, canonical):
        assert a.rows.dtype == a.cols.dtype == np.int64
        assert a.to_dict() == {((0,), (1,)): 2.0, ((1,), (0,)): 1.0}
    # a product of an int32- and an int64-indexed matrix, in either order
    rng = np.random.default_rng(8)
    for _ in range(10):
        a, b = random_sparse(rng, radius=3), random_sparse(rng, radius=3)
        a32 = SparseL1Matrix.from_arrays(1, a.rows.astype(np.int32), a.cols.astype(np.int32), a.vals)
        for left, right in ((a32, b), (b, a32)):
            product = compose(left, right)
            assert product.rows.dtype == product.cols.dtype == np.int64
    same = compose(a32, a32)
    assert same.rows.dtype == same.cols.dtype == np.int32


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


def test_stored_tail_is_the_discarded_mass_plus_the_bound_at_coverage():
    # stored to radius 40 with a tail bound 1e-4 / r: the mass in (16, 40]
    # is stored and counted once, and the bound is read at 40, not at 16
    k = np.arange(-40, 41)[:, None]
    a = SparseL1Matrix.from_canonical_arrays(1, k, k, 1e-3 / (1.0 + k[:, 0] ** 2.0))
    tail = TailModel.user_bound(lambda r: 1e-4 / max(r, 1))
    discarded = float(np.sum(np.abs(a.vals[np.abs(k[:, 0]) > 16])))
    want = discarded + tail.bound_at(40)
    trace = poincare_trace(a, tail, 1e-4, max_radius=16)
    _, tail_mass = truncate(a, tail, TruncationWindow(16, 1))
    assert trace.certified_error == pytest.approx(want, rel=1e-12)
    assert tail_mass == pytest.approx(want, rel=1e-12)


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


def test_poincare_trace_separable_2d_family():
    # a_k = c f(k_1) f(k_2), f(k) = 1 / (4 pi^2 k^2 + 1), stored to radius
    # 160; sum f = coth(1/2) / 2 = S, and the 1-D integral bound
    # t(N) = (pi/2 - atan(2 pi N)) / pi on sum_{|k|>N} f gives the union
    # bound 2 c S t(N) on the mass outside the window of radius N
    c, coverage = 1e-3, 160
    s = 0.5 / math.tanh(0.5)
    f = lambda k: 1.0 / (4 * np.pi**2 * k.astype(float) ** 2 + 1.0)
    pts = TruncationWindow(coverage, 2).coords_array()
    a = SparseL1Matrix.from_canonical_arrays(2, pts, pts, c * f(pts[:, 0]) * f(pts[:, 1]))
    tail = TailModel.user_bound(
        lambda r: 2 * c * s * (math.pi / 2 - math.atan(2 * math.pi * r)) / math.pi
    )
    res = poincare_trace(a, tail, 1e-6)
    assert res.certified_error <= 1e-6
    # stopped inside the coverage radius, where its span holds entries
    # with |k_2| beyond the window
    assert res.certified_error > tail.bound_at(coverage)
    assert abs(res.value - c * s * s) <= res.certified_error


def test_poincare_trace_refuses_an_overflowed_sum():
    # the l1 norm of the stored entries overflows too, to inf and without a warning
    pts = np.array([[0], [1]])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        a = SparseL1Matrix.from_canonical_arrays(1, pts, pts, np.array([1e308, 1e308]))
    assert caught == [] and a.l1_norm == math.inf
    with pytest.raises(NonConvergenceError, match="overflow") as err:
        poincare_trace(a, TailModel.exact_finite(), 1e-8)
    assert err.value.ladder


def test_poincare_determinant_refuses_an_overflowed_norm(monkeypatch):
    pts = np.array([[0], [1]])
    a = SparseL1Matrix.from_canonical_arrays(1, pts, pts, np.array([1e308, 1e308]))
    # refused before any rung: no section is filled; invertibility_test
    # refuses from the same site instead of overflowing in the ladder
    monkeypatch.setattr(l1_algebra, "_section_matrix", None)
    for entry in (poincare_determinant, invertibility_test):
        with pytest.raises(NonConvergenceError, match="l1 norm of the matrix is not finite: inf"):
            entry(a, TailModel.exact_finite(), 1e-8)


def test_magnitude_sums_past_the_float_range_are_inf_without_a_warning():
    # two 1e308 entries inside the first rung (radius 8) and 1e-300 beyond it:
    # every mass that holds both is inf, and so is the mass outside a window
    # that holds them but not the last entry
    pts, far = np.array([[0], [1], [100]]), np.array([[1], [0], [100]])
    vals = np.array([1e308, 1e308, 1e-300])
    diagonal = SparseL1Matrix.from_canonical_arrays(1, pts, pts, vals)
    crossed = SparseL1Matrix.from_arrays(1, pts, far, vals)
    exact = TailModel.exact_finite()
    assert l1_norm(diagonal) == l1_norm(crossed) == math.inf
    _, tail_mass = truncate(diagonal, exact, TruncationWindow(8, 1))
    assert tail_mass == math.inf
    with pytest.raises(NonConvergenceError, match="overflow"):
        poincare_trace(diagonal, exact, 1e-8)
    res = poincare_trace(crossed, exact, 1e-8)
    assert (res.value, res.certified_error) == (1e-300, 0.0)


def test_poincare_trace_nonconvergence_has_diagnostics():
    matrix, _ = diagonal_family(3.0, 64)
    slow = TailModel.user_bound(lambda r: 0.5)  # never reaches tol
    with pytest.raises(NonConvergenceError) as err:
        poincare_trace(matrix, slow, 1e-8, max_radius=2**20)
    assert err.value.ladder  # carries the attempted windows
    assert err.value.last_bound >= 0.5


LIBRARY_TOLERANCE_CALLS = {
    "poincare_trace": lambda matrix, p, tol: poincare_trace(matrix, TailModel.exact_finite(), tol),
    "poincare_determinant": lambda matrix, p, tol: poincare_determinant(matrix, TailModel.exact_finite(), tol),
    "invertibility_test": lambda matrix, p, tol: invertibility_test(matrix, TailModel.exact_finite(), tol),
    "hill_determinant": lambda matrix, p, tol: hill_determinant(p, tol),
    "existence_test": lambda matrix, p, tol: existence_test(p, tol),
    "spectral_shift_scan": lambda matrix, p, tol: spectral_shift_scan(p, np.linspace(-60.0, 0.0, 201), tol, 16),
}


@pytest.mark.parametrize("entry", LIBRARY_TOLERANCE_CALLS)
@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
def test_library_tolerances_must_be_positive(entry, tol):
    # as on the CLI; NaN fails every comparison, so it must not pass as a
    # tolerance that no ladder rung or scan root can reach
    matrix = SparseL1Matrix(1, {((0,), (0,)): 0.5, ((1,), (0,)): 0.25})
    p = HillProblem(1, 2.0, {(0,): 1.0, (1,): 1.0, (-1,): 1.0})
    with pytest.raises(ValueError, match="tol must be positive"):
        LIBRARY_TOLERANCE_CALLS[entry](matrix, p, tol)


def test_ladders_refuse_a_negative_max_radius():
    matrix = SparseL1Matrix(1, {((0,), (0,)): 0.5, ((1,), (0,)): 0.25})
    p = HillProblem(1, 2.0, {(0,): 1.0, (1,): 1.0, (-1,): 1.0})
    for call in (lambda: poincare_trace(matrix, TailModel.exact_finite(), 1e-6, max_radius=-1),
                 lambda: poincare_determinant(matrix, TailModel.exact_finite(), 1e-6, max_radius=-1),
                 lambda: invertibility_test(matrix, TailModel.exact_finite(), 1e-6, max_radius=-1),
                 lambda: hill_determinant(p, 1e-6, max_radius=-1)):
        with pytest.raises(ValueError, match="window radius must be nonnegative"):
            call()


def test_poincare_determinant_zero_and_finite():
    zero = SparseL1Matrix(1, {})
    res = poincare_determinant(zero, TailModel.exact_finite(), 1e-12)
    assert res.value == 1.0 and res.certified_error == 0.0 and res.converged

    finite = SparseL1Matrix(1, {((2,), (2,)): 1.0, ((0,), (2,)): 5.0})
    res = poincare_determinant(finite, TailModel.exact_finite(), 1e-12)
    section = section_of(finite, 2)
    assert res.value == finite_determinant(section)
    assert res.certified_error == abs(res.value) * 5 * 5e-15  # LU roundoff, 5 points


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


@pytest.mark.parametrize(
    "top, radii",
    [
        (0, [0]),
        (5, [5]),
        (12, [8, 12]),
        (64, [8, 16, 32, 64]),
        (100, [8, 16, 32, 64, 100]),
    ],
)
def test_ladder_radii_double_from_eight_and_end_at_the_top(top, radii):
    assert _ladder_radii(top) == radii


def test_stored_ladders_end_at_the_coverage_radius():
    # past its support radius a stored matrix has no further entries and the
    # tail model is read at the support radius: the ladder ends there
    rng = np.random.default_rng(21)
    never = TailModel.user_bound(lambda r: 0.5)  # no rung reaches tol
    for n, radius in [(1, 0), (1, 3), (1, 12), (1, 40), (2, 5), (2, 11)]:
        a = random_sparse(rng, n=n, max_entries=20, radius=radius, scale=0.5)
        a = a + SparseL1Matrix(n, {((radius,) * n, (radius,) * n): 0.1})
        assert a.support_radius == radius
        for max_radius in (4, 16, 64):
            top = min(radius, max_radius)
            with pytest.raises(NonConvergenceError) as det:
                poincare_determinant(a, never, 1e-12, max_radius=max_radius)
            with pytest.raises(NonConvergenceError) as trace:
                poincare_trace(a, never, 1e-12, max_radius=max_radius)
            _, result = invertibility_test(a, never, 1e-12, max_radius=max_radius)
            assert [s.radius for s in det.value.ladder] == _ladder_radii(top)
            assert [r for r, _ in trace.value.ladder] == _ladder_radii(top)
            assert result.ladder == det.value.ladder
            floor = f"within the coverage radius {radius} of the stored entries"
            for err in (det, trace):
                assert (floor in str(err.value)) == (radius < max_radius)


def test_two_entry_power_tail_stops_at_its_coverage_radius():
    import tracemalloc

    a = SparseL1Matrix(2, {((0, 0), (1, 0)): 0.5, ((3, 1), (3, 1)): 0.25})
    tail = TailModel.user_bound(lambda r: 1e-3 * float(max(r, 1)) ** -2)
    tracemalloc.start()
    try:
        with pytest.raises(NonConvergenceError) as err:
            poincare_determinant(a, tail, 1e-8, max_radius=32)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20  # no section past the 49 points of radius 3
    assert [s.radius for s in err.value.ladder] == [3]
    assert err.value.last_bound == err.value.ladder[0].bound
    assert err.value.last_bound == pytest.approx(1.389e-4, rel=1e-3)
    floor = (
        "within the coverage radius 3 of the stored entries, where the tail "
        "model bounds the unstored mass by 1.111e-04"
    )
    assert floor in str(err.value)
    with pytest.raises(NonConvergenceError) as trace:
        poincare_trace(a, tail, 1e-8)
    assert floor in str(trace.value)
    assert trace.value.ladder == [(3, tail.bound_at(3))]


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
            got = _tail_cross_term(g, radius, rows, cols, vals)

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
    "n, support, max_radius, decay", [(1, 40, 16, 0.5), (1, 40, 16, 0.4), (2, 10, 4, 2.0)]
)
def test_ladder_far_and_straddling_tails_match_dense(monkeypatch, n, support, max_radius, decay):
    # rungs stop inside the support, so their tails hold entries beyond the
    # last rung (far) and entries with one index inside it (straddling); Tr T^2
    # leaves out the far transpose pairs and carries their bound as its error
    a = banded_matrix(np.random.default_rng(11), n, support, 1, 0.3, decay)
    full = TruncationWindow(support, n)
    dense_a = section_of(a, support).matrix
    pos = lambda c: np.ravel_multi_index((c + support).T, (2 * support + 1,) * n)
    pts = full.coords_array()

    def far_off_square_sum(last):
        """sum |T_ij|^2 over the off-diagonal entries with both indices past ``last``."""
        outer = pos(pts[np.max(np.abs(pts), axis=1) > last])
        block = dense_a[np.ix_(outer, outer)]
        np.fill_diagonal(block, 0.0)
        return np.sum(np.abs(block) ** 2)

    def tail_of(radius):
        inner = pos(TruncationWindow(radius, n).coords_array())
        t_dense = dense_a.copy()
        t_dense[np.ix_(inner, inner)] = 0.0
        return inner, t_dense, np.sum(np.abs(t_dense)) ** 2

    seen, crossed = [], []
    moments = _LadderTails.moments
    cross_term = l1_algebra._tail_cross_term

    def moments_spy(self, rung):
        first, (tr_t2, err) = moments(self, rung)
        _, t_dense, scale = tail_of(self.radii[rung])
        assert abs(tr_t2 - np.trace(t_dense @ t_dense)) <= err + 1e-13 * scale
        assert err == pytest.approx(far_off_square_sum(self.last), rel=1e-12)
        far = np.count_nonzero(self.a.entry_radii > self.last)
        seen.append((far, np.count_nonzero(self.bucket == len(self.radii)), err))
        return first, (tr_t2, err)

    def cross_spy(g, radius, rows, cols, vals):
        cross = cross_term(g, radius, rows, cols, vals)
        inner, t_dense, scale = tail_of(radius)
        g_dense = dense_of(g, len(inner))
        g_big = np.zeros_like(dense_a)
        g_big[np.ix_(inner, inner)] = g_dense
        want = np.trace(g_big @ t_dense @ t_dense)
        assert abs(cross - want) <= 1e-13 * scale * np.sum(np.abs(g_dense))
        crossed.append(radius)
        return cross

    monkeypatch.setattr(_LadderTails, "moments", moments_spy)
    monkeypatch.setattr(l1_algebra, "_tail_cross_term", cross_spy)
    res = poincare_determinant(a, TailModel.exact_finite(), 1e-4, max_radius=max_radius)
    assert seen and all(far > 0 and straddling > 0 for far, straddling, _ in seen)
    # half the error enters the log error: at least 0.1 % of the certificate
    assert 0.5 * seen[-1][2] * abs(res.value) >= 1e-3 * res.certified_error
    assert len(crossed) == len(seen)
    sign, logabs = np.linalg.slogdet(np.eye(full.size) + dense_a)
    assert abs(res.value - sign * np.exp(logabs)) <= res.certified_error


def quadratic_tridiagonal(support):
    """1-D tridiagonal matrix on the support, entries c / (1 + r^2), r the
    entry radius, with c = 0.5 on the diagonal, 0.4 above and -0.3 below it."""
    k = np.arange(-support, support + 1)
    rows = np.repeat(k, 3)
    cols = rows + np.tile([-1, 0, 1], len(k))
    keep = np.abs(cols) <= support
    rows, cols = rows[keep], cols[keep]
    r = np.maximum(np.abs(rows), np.abs(cols)).astype(float)
    vals = np.select([cols < rows, cols == rows], [-0.3, 0.5], 0.4) / (1.0 + r * r)
    return SparseL1Matrix.from_canonical_arrays(1, rows[:, None], cols[:, None], vals)


def continuant(a):
    """det(I + A) of a 1-D tridiagonal matrix by the three-term recurrence."""
    rows, cols, vals = a.rows[:, 0], a.cols[:, 0], a.vals
    lo = int(rows[0])
    d, prod = np.ones(int(rows[-1]) - lo + 1), np.zeros(int(rows[-1]) - lo + 1)
    on = rows == cols
    d[rows[on] - lo] += vals[on]
    prod[rows[cols == rows + 1] - lo] = vals[cols == rows + 1]  # A[j, j + 1]
    prod[cols[cols == rows - 1] - lo] *= vals[cols == rows - 1]  # times A[j + 1, j]
    f0, f1 = 1.0, d[0]
    for dj, pj in zip(d[1:].tolist(), prod[:-1].tolist()):
        f0, f1 = f1, dj * f1 - pj * f0
    return f1


def test_a_ladder_past_half_a_million_off_diagonal_tail_entries_corrects_to_second_order(monkeypatch):
    # 800k off-diagonal entries lie beyond the last rung, and four straddle
    # it; the second-order certificate is under 1e-2, which the first-order
    # remainder s^2 / (2(1 - s)) alone passes (4.0e-2 on this matrix)
    small = quadratic_tridiagonal(1000)
    sign, logabs = np.linalg.slogdet(np.eye(2001) + section_of(small, 1000).matrix)
    assert abs(continuant(small) - sign * np.exp(logabs)) <= 1e-12

    a = quadratic_tridiagonal(200_000)
    tails = _LadderTails(a, TailModel.exact_finite(), 64)
    straddling = {(-65, -64), (-64, -65), (64, 65), (65, 64)}
    handed = tails.bucket == len(tails.radii)
    assert set(zip(tails.rows[handed, 0].tolist(), tails.cols[handed, 0].tolist())) == straddling
    crossed = []
    cross_term = l1_algebra._tail_cross_term

    def cross_spy(g, radius, rows, cols, vals):
        crossed.append(straddling <= set(zip(rows[:, 0].tolist(), cols[:, 0].tolist())))
        return cross_term(g, radius, rows, cols, vals)

    monkeypatch.setattr(l1_algebra, "_tail_cross_term", cross_spy)
    _, result = invertibility_test(a, TailModel.exact_finite(), 1e-10, max_radius=64)
    assert crossed and all(crossed)
    assert result.value not in [step.value for step in result.ladder]  # corrected
    assert result.certified_error < 1e-2
    assert abs(result.value - continuant(a)) <= result.certified_error


def test_a_first_ladder_stays_under_the_stored_bytes_and_joins_only_the_handed_entries(monkeypatch):
    # the 800k far off-diagonal entries are reduced in one pass, with no sort
    # and no join: only the near and straddling entries meet index_keys
    import tracemalloc

    a = quadratic_tridiagonal(200_000)
    stored = a.rows.nbytes + a.cols.nbytes + a.vals.nbytes  # 27.5 MiB
    joined = []
    keys = l1_algebra.index_keys

    def keys_spy(*coord_arrays):
        joined.append(max(len(c) for c in coord_arrays))
        return keys(*coord_arrays)

    monkeypatch.setattr(l1_algebra, "index_keys", keys_spy)
    tracemalloc.start()
    try:
        _, result = invertibility_test(a, TailModel.exact_finite(), 1e-10, max_radius=64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.certified_error < 1e-2
    assert peak < stored
    handed = len(_LadderTails(a, TailModel.exact_finite(), 64).vals)
    assert joined and max(joined) <= handed


def split_matrix(rng, n, support, complex_values, singular=False):
    """Entries within runs of 1 to 4 consecutive window positions, so every
    rung's section splits into components, isolated points among them.

    Values decay with the entry radius, so the rungs inside the support are
    corrected; runs crossing a rung give it straddling tail entries.  With
    ``singular`` the points 0 and e_n form a run of their own with
    I + F = [[1, 1], [1, 1]], a singular component of every rung.
    """
    pts = TruncationWindow(support, n).coords_array()
    run = np.repeat(np.arange(len(pts)), rng.integers(1, 5, len(pts)))[: len(pts)]
    centre = len(pts) // 2
    if singular:
        run[centre : centre + 2] = -1
    rows, cols = [], []
    for r in np.unique(run[run >= 0]):
        members = np.flatnonzero(run == r)
        pairs = [(i, j) for i in members for j in members if rng.random() < 0.6]
        rows += [i for i, _ in pairs]
        cols += [j for _, j in pairs]
    rows, cols = np.array(rows, dtype=int), np.array(cols, dtype=int)
    vals = rng.standard_normal(len(rows)) + (1j * rng.standard_normal(len(rows)) if complex_values else 0)
    radius = np.maximum(np.max(np.abs(pts[rows]), axis=1), np.max(np.abs(pts[cols]), axis=1))
    vals = 0.3 * vals * np.exp(-1.2 * radius)
    if singular:
        rows = np.append(rows, [centre, centre + 1])
        cols = np.append(cols, [centre + 1, centre])
        vals = np.append(vals, [1.0, 1.0])
    return SparseL1Matrix.from_arrays(n, pts[rows], pts[cols], vals)


@pytest.mark.parametrize("complex_values", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("n, support, max_radius", [(1, 30, 16), (2, 7, 4)])
def test_split_rungs_match_a_dense_reference(monkeypatch, n, support, max_radius, complex_values):
    a = split_matrix(np.random.default_rng(50 + n), n, support, complex_values)
    full = section_of(a, support).matrix
    pos = lambda c: np.ravel_multi_index((c + support).T, (2 * support + 1,) * n)
    crossed = []
    cross_term = l1_algebra._tail_cross_term

    def cross_spy(g, radius, rows, cols, vals):
        # G = (I + F)^{-1} - I as component stacks, checked against LAPACK on I + F
        assert isinstance(g, _Stacks)
        w = TruncationWindow(radius, n)
        g_ref = np.linalg.inv(np.eye(w.size) + section_of(a, radius).matrix) - np.eye(w.size)
        a_pos, b_pos = np.divmod(np.arange(w.size * w.size), w.size)
        assert np.max(np.abs(g[a_pos, b_pos].reshape(w.size, w.size) - g_ref)) <= 1e-12 * np.max(np.abs(g_ref))
        g1 = sum(np.sum(np.abs(stack)) for stack in g.stacks)
        assert abs(g1 - np.sum(np.abs(g_ref))) <= 1e-12 * g1
        inner = pos(w.coords_array())
        t_dense = full.copy()
        t_dense[np.ix_(inner, inner)] = 0.0
        g_big = np.zeros_like(full, dtype=g_ref.dtype)
        g_big[np.ix_(inner, inner)] = g_ref
        got = cross_term(g, radius, rows, cols, vals)
        assert abs(got - np.trace(g_big @ t_dense @ t_dense)) <= 1e-12 * g1 * np.sum(np.abs(t_dense)) ** 2
        crossed.append(radius)
        return got

    monkeypatch.setattr(l1_algebra, "_tail_cross_term", cross_spy)
    result, _ = _determinant_ladder(_LadderTails(a, TailModel.exact_finite(), max_radius), 1e-300)
    assert [step.radius for step in result.ladder] == crossed == _ladder_radii(max_radius)
    for step in result.ladder:
        f = section_of(a, step.radius)
        blocks = dense_parts(np.eye(f.window.size) + f.matrix)
        assert isinstance(blocks, _Stacks) and 1 in [idx.shape[1] for idx in blocks.blocks]
        assert step.value == finite_determinant(f)  # the stacks filled from the section's nonzeros
        det = np.linalg.det(np.eye(f.window.size) + f.matrix)
        assert abs(step.value - det) <= 1e-12 * abs(det)


@pytest.mark.parametrize("n, support, max_radius", [(1, 30, 16), (2, 7, 4)])
def test_a_singular_component_gives_an_exact_zero_and_no_corrected_step(monkeypatch, n, support, max_radius):
    a = split_matrix(np.random.default_rng(60 + n), n, support, True, singular=True)

    def refused(*args):
        raise AssertionError("a rung with det 0 inverted its section")

    monkeypatch.setattr(_Stacks, "inverse", refused)
    monkeypatch.setattr(_Slabs, "inverse", refused)
    result, _ = _determinant_ladder(_LadderTails(a, TailModel.exact_finite(), max_radius), 1e-300)
    assert [repr(step.value) for step in result.ladder] == ["0j"] * len(_ladder_radii(max_radius))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_support_radius_matches_the_four_reductions(n):
    rng = np.random.default_rng(70 + n)
    four = lambda a: max(abs(int(f(c, initial=0))) for c in (a.rows, a.cols) for f in (np.min, np.max))
    for count in (0, 1, 2, 40):
        pts = rng.integers(-9, 10, size=(count, n)) * rng.integers(1, 4, size=(1, n))
        pts = np.unique(pts, axis=0).reshape(-1, n)  # canonical order
        diagonal = SparseL1Matrix.from_canonical_arrays(n, pts, pts, np.ones(len(pts)))
        crossed = SparseL1Matrix.from_arrays(n, pts, rng.permutation(pts) - 11, np.ones(len(pts)))
        assert diagonal.cols is diagonal.rows
        for a in (diagonal, crossed, crossed.transpose()):
            assert a.support_radius == four(a)
    assert SparseL1Matrix.zero(n).support_radius == 0


def test_split_ladders_and_kernel_checks_never_import_numpy_ma():
    # np.unique's first call in a process imports numpy.ma (13-16 ms)
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from torusdet.hill import HillProblem, _kernel_certified\n"
        "from torusdet.l1_algebra import SparseL1Matrix, TailModel, poincare_determinant\n"
        "k = np.arange(-40, 41)[:, None]\n"
        "a = SparseL1Matrix.from_arrays(1, k, k, 1.0 / (1.0 + k[:, 0] ** 2))\n"
        "poincare_determinant(a, TailModel.exact_finite(), 1e-10)\n"
        "assert _kernel_certified(HillProblem(2, 3.0, {(0, 0): -(2 * np.pi) ** 3}), 6)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(l1_algebra.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def decaying_diagonal():
    ks = np.arange(-300, 301)[:, None]
    vals = 0.05 * np.exp(-0.1 * np.abs(ks[:, 0]))
    return SparseL1Matrix.from_canonical_arrays(1, ks, ks, vals), TailModel.exact_finite()


# (builder, max_radius values): diagonal, banded 1-D and 2-D stored matrices;
# the last max_radius passes the coverage radius C except on the first
STORED_LADDER_CASES = {
    "diagonal, user tail": (lambda: diagonal_family(1.0, 100_000), (64, 256)),
    "diagonal, exact": (decaying_diagonal, (64, 256, 10**6)),
    "banded 1-D": (
        lambda: (banded_matrix(np.random.default_rng(3), 1, 150, 2, 0.1, 0.1), TailModel.exact_finite()),
        (64, 256),
    ),
    "2-D": (
        lambda: (banded_matrix(np.random.default_rng(3), 2, 12, 1, 0.3, 0.8), TailModel.exact_finite()),
        (4, 64),
    ),
}


def ladder_outcome(f, a, tail, tol, max_radius):
    """``f``'s return, or its NonConvergenceError's message, ladder and bounds."""
    try:
        return f(a, tail, tol, max_radius=max_radius)
    except NonConvergenceError as err:
        return "error", str(err), err.ladder, err.last_bound, err.last_value


def test_repeat_and_fresh_ladders_on_stored_matrices_match_the_first_exactly():
    # each matrix's cache fills over the sweep; a fresh matrix from the same
    # arrays starts empty; every value, bound, ladder and error must agree
    outcomes = {}
    for label, (build, max_radii) in STORED_LADDER_CASES.items():
        a, tail = build()
        for max_radius in max_radii:
            for tol in (3e-6, 1e-6, 1e-7):
                for f in (poincare_determinant, poincare_trace, invertibility_test):
                    first = ladder_outcome(f, a, tail, tol, max_radius)
                    assert ladder_outcome(f, a, tail, tol, max_radius) == first
                    assert ladder_outcome(f, build()[0], tail, tol, max_radius) == first
                    outcomes[label, max_radius, tol, f.__name__] = first
    is_error = lambda out: isinstance(out, tuple) and out[0] == "error"
    errors = {key[3] for key, out in outcomes.items() if is_error(out)}
    assert errors == {"poincare_determinant", "poincare_trace"}
    results = [out for out in outcomes.values() if not is_error(out)]
    assert any(isinstance(out, TraceResult) for out in results)
    assert any(getattr(out, "converged", False) for out in results)
    # a trace that stops at C = 150: no stored mass is discarded there
    assert outcomes["banded 1-D", 256, 1e-7, "poincare_trace"].certified_error == 0.0


def test_repeat_ladders_make_no_pass_over_the_stored_entries(monkeypatch):
    counts = {}

    def counted(name, f):
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return f(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(l1_algebra, "_mass", counted("mass", l1_algebra._mass))
    monkeypatch.setattr(l1_algebra, "_far_totals", counted("far totals", l1_algebra._far_totals))
    for label in ("diagonal, user tail", "diagonal, exact", "banded 1-D"):
        a, tail = STORED_LADDER_CASES[label][0]()
        calls = [(f, tol) for f in (poincare_determinant, invertibility_test, poincare_trace)
                 for tol in (3e-6, 1e-7)]
        counts.clear()
        first = [ladder_outcome(f, a, tail, tol, 128) for f, tol in calls]
        # one pass over the far entries, whether or not some are off the diagonal
        assert counts["mass"] and counts["far totals"] == 1
        counts.clear()
        assert [ladder_outcome(f, a, tail, tol, 128) for f, tol in calls] == first
        assert counts == {}
        # the cache holds scalars per rung and the straddlers' positions, no
        # new array as long as the stored entries
        leaves = lambda v: [y for x in v for y in leaves(x)] if isinstance(v, tuple) else [v]
        held = [x for key, v in a._cache.items() if key not in ("radii", "diag") for x in leaves(v)]
        assert all(len(x) < a.nnz for x in held if isinstance(x, np.ndarray))


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


def whole(parts):
    """Whether ``parts`` is the one-component :class:`_Stacks` that LAPACK factors whole."""
    return isinstance(parts, _Stacks) and len(parts.stacks) == len(parts.stacks[0]) == 1


# isolated points are the 1 x 1 blocks; two sizes repeat
BLOCK_SIZES = [1, 3, 1, 4, 2, 3, 1, 6, 2]


@pytest.mark.parametrize("complex_values", [False, True])
def test_section_kernels_match_dense_linalg_on_hidden_blocks(complex_values):
    rng = np.random.default_rng(11)
    m = hidden_block_diagonal(rng, BLOCK_SIZES, complex_values)
    parts = dense_parts(m)
    assert rel_err(_section_det(parts), np.linalg.det(m)) <= 1e-12
    assert rel_err(dense_of(parts.inverse()[0], len(m)), np.linalg.inv(m)) <= 1e-12

    _, svals, vh = np.linalg.svd(m)
    smallest, largest, v = section_min_singular(dense_parts(m))
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
        assert _section_det(dense_parts(m)) == 0
        smallest, largest, v = section_min_singular(dense_parts(m))
    with pytest.raises(np.linalg.LinAlgError):
        dense_parts(m).inverse()
    # an unsigned zero, whatever the signs of the other blocks, and for one
    # component whose LAPACK det underflows to -0.0
    assert repr(_section_det(dense_parts(np.diag([-2.0, 0.0, 3.0])))) == "0j"
    assert repr(_section_det(dense_parts(np.array([[-1e-200, 1e-300], [1e-300, 1e-200]])))) == "0j"
    svals = np.linalg.svd(m, compute_uv=False)
    assert smallest <= 1e-12 * svals[0]
    assert abs(largest - svals[0]) <= 1e-12 * svals[0]
    assert np.linalg.norm(m @ np.conj(v)) <= 1e-12 * svals[0]


def test_section_kernels_on_one_component_pass_the_matrix_through():
    rng = np.random.default_rng(13)
    m = np.eye(12) + 0.3 * (rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12)))
    parts = dense_parts(m)
    assert whole(parts) and _section_det(parts) == complex(np.linalg.det(m))
    assert np.array_equal(dense_of(parts.inverse()[0], len(m)), np.linalg.inv(m))
    _, svals, vh = np.linalg.svd(m)
    smallest, largest, v = section_min_singular(dense_parts(m))
    assert (smallest, largest) == (svals[-1], svals[0]) and np.array_equal(v, vh[-1])


def test_section_det_product_neither_overflows_nor_underflows():
    # 600 blocks of det 1e3 and 600 of det 1e-3: the product is 1, while a
    # running product in either order leaves the float range
    values = np.concatenate([np.full(600, 1e3), np.full(600, 1e-3)])
    assert _section_det(dense_parts(np.diag(values))) == pytest.approx(1.0, rel=1e-12)
    assert _section_det(dense_parts(np.diag(values[::-1] * 1j))) == pytest.approx(1.0, rel=1e-12)


def test_section_min_singular_tie_goes_to_the_first_window_position():
    # sigma_min = 1 on positions 2 and 4 (1 x 1 blocks) and on the 2 x 2
    # block {0, 3}; the block holding position 0 comes first, although the
    # 1 x 1 blocks are solved in an earlier stacked call
    m = np.diag([0.0, 3.0, -1.0, 0.0, 1.0, 2.0])
    m[0, 3] = m[3, 0] = 1.0
    smallest, largest, v = section_min_singular(dense_parts(m))
    assert (smallest, largest) == (1.0, 3.0)
    assert np.count_nonzero(v[[1, 2, 4, 5]]) == 0
    assert np.linalg.norm(m @ np.conj(v)) == pytest.approx(1.0, abs=1e-15)

    m = np.diag([4.0, 2.0, 3.0, -2.0, 2.0])
    smallest, _, v = section_min_singular(dense_parts(m))
    assert smallest == 2.0
    assert np.flatnonzero(v).tolist() == [1] and abs(v[1]) == 1.0


def sliced_min_singular(m):
    """``(smallest, largest, v)`` of a split m from component stacks sliced out of the dense m.

    The values-only SVD of each stack, the pick by sigma_min and then by
    first position, and the vector SVD of the picked matrix, scattered back.
    """
    blocks = _dense._component_blocks(len(m), *np.nonzero(m))
    assert blocks
    stacks = [m[idx[:, :, None], idx[:, None, :]] for idx in blocks]
    values = [np.linalg.svd(stack, compute_uv=False) for stack in stacks]
    minima = np.concatenate([s[:, -1] for s in values])
    pick = np.lexsort((np.concatenate([idx[:, 0] for idx in blocks]), minima))[0]
    block, where = [(stack[q], idx[q]) for idx, stack in zip(blocks, stacks) for q in range(len(idx))][pick]
    _, svals, vh = np.linalg.svd(block)
    v = np.zeros(len(m), m.dtype)
    v[where] = vh[-1]
    return float(svals[-1]), float(max(np.max(s[:, 0]) for s in values)), v


# 2-D sublattice potentials: 4 components of (R + 1)^2 / 4 or so points
SUBLATTICE_2D = {(0, 0): 2.0, (2, 0): 0.4, (-2, 0): 0.4, (0, 2): 0.3, (0, -2): 0.3}
SUBLATTICE_2D_COMPLEX = {(0, 0): 2.0 - 0.2j, (2, 0): 0.4 + 0.1j, (-2, 0): 0.3, (2, 2): 0.25j}
SPLIT_HILL_SECTIONS = [
    (1, {(0,): NEAR_ROOT_1D, (3,): 1.0, (-3,): 1.0}, 20),
    (1, {(0,): 3.0, (2,): 0.5 - 0.5j, (-4,): 0.2}, 20),
    (2, SUBLATTICE_2D, 8),
    (2, SUBLATTICE_2D_COMPLEX, 8),
    (3, {(0, 0, 0): 2.5, (2, 0, 0): 0.3, (0, -2, 2): 0.2j}, 3),
    (3, {(0, 0, 0): -((2.0 * math.pi) ** 4)}, 3),
]


@pytest.mark.parametrize("n, pot, radius", SPLIT_HILL_SECTIONS)
def test_split_window_singular_values_are_those_of_the_sliced_dense_section(n, pot, radius):
    # the SVD reads the component stacks the window's factors hold: the
    # same values and vector as stacks sliced from the dense section
    p = HillProblem(n, n + 1.0, pot)
    _, m, _ = hill_section(p, radius)
    want = sliced_min_singular(m)
    for got in (section_min_singular(dense_parts(m)), _window_min_singular(p, radius, lambda *_: True)[:3]):
        assert got[:2] == want[:2] and got[2].dtype == m.dtype and np.array_equal(got[2], want[2])


@pytest.mark.parametrize("complex_values", [False, True])
def test_split_singular_values_are_those_of_the_sliced_matrix(complex_values):
    rng = np.random.default_rng(50)
    for m in (hidden_block_diagonal(rng, BLOCK_SIZES, complex_values),
              hidden_block_diagonal(rng, [2] * 7, complex_values), np.diag(rng.standard_normal(9) + 2.0)):
        smallest, largest, v = section_min_singular(dense_parts(m))
        assert (smallest, largest) == sliced_min_singular(m)[:2]
        assert np.array_equal(v, sliced_min_singular(m)[2])


@pytest.mark.parametrize("complex_values", [False, True])
def test_a_section_times_a_vector_is_the_dense_product(complex_values):
    # one component and 1 x 1 components give the dense product's bits;
    # larger components sum each row in their own order
    rng = np.random.default_rng(49)

    def draw(*shape):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if complex_values else x

    one = np.eye(12) + 0.3 * draw(12, 12)
    diagonal = np.diag(draw(9))
    split = hidden_block_diagonal(rng, BLOCK_SIZES, complex_values)
    _, hill, _ = hill_section(HillProblem(2, 3.0, SUBLATTICE_2D_COMPLEX if complex_values else SUBLATTICE_2D), 6)
    for m, exact in ((one, True), (diagonal, True), (split, False), (hill, False)):
        parts = dense_parts(m)
        assert whole(parts) == (m is one)
        for b in (rng.standard_normal(len(m)), rng.standard_normal(len(m)) + 1j * rng.standard_normal(len(m))):
            got, want = parts @ b, m @ b
            assert got.dtype == want.dtype
            if exact:
                assert np.array_equal(got, want)
            else:
                assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)


def test_parity_tie_goes_to_the_even_block():
    # m = sqrt2 x (orthogonal), one component: E = [[0, r], [r, 0]] and
    # O = [r] with r = fl(sqrt2), so both blocks have sigma_min exactly r
    r = math.sqrt(2.0)
    m = np.array([[r / 2, 1.0, -r / 2], [1.0, 0.0, 1.0], [-r / 2, 1.0, r / 2]])
    even, odd = _parity_blocks(m)
    sigma = [np.linalg.svd(b, compute_uv=False)[-1] for b in (even, odd)]
    assert sigma == [r, r]
    smallest, largest, v = section_min_singular(dense_parts(m))
    assert smallest == largest == r
    assert v[1] != 0 and np.array_equal(v, v[::-1])  # even: v[::-1] = v, odd: = -v
    assert np.linalg.norm(m @ np.conj(v)) == pytest.approx(r, rel=1e-15)


def test_a_singular_parity_block_gives_an_exact_zero():
    # rows 0 and 2 agree, so O = A - C = [0] while E is invertible
    m = np.array([[1.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 1.0]])
    even, odd = _parity_blocks(m)
    assert odd.tolist() == [[0.0]] and np.linalg.det(even) != 0
    for section in (m, m * (1 - 2j)):
        assert repr(_section_det(dense_parts(section))) == "0j"
        with pytest.raises(np.linalg.LinAlgError):
            dense_parts(section).inverse()


def test_sections_that_are_not_centrosymmetric_pass_the_matrix_through():
    # one entry off the reflection, deep inside (first and last rows agree),
    # and an even order: LAPACK on m, bit for bit.  Det and inverse take
    # that path for centrosymmetric sections too, a 1-D even Hill section
    # among them: only singular values split by parity
    rng = np.random.default_rng(15)
    half = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    m = np.eye(9) + 0.2 * (half + half[::-1, ::-1])
    even_hill = {(0,): 3.0, (1,): 1.0, (-1,): 1.0, (2,): 0.8, (-2,): 0.8}
    _, hill, _ = hill_section(HillProblem(1, 2.0, even_hill), 40)
    centrosymmetric = [m.copy(), hill]
    assert all(_parity_blocks(section) is not None for section in centrosymmetric)
    m[4, 6] += 0.5
    even_order = np.eye(8) + 0.2 * (half[:8, :8] + half[:8, :8][::-1, ::-1])
    for section in centrosymmetric + [m, m.real.copy(), even_order]:
        parts = dense_parts(section)
        assert _section_det(parts) == complex(np.linalg.det(section))
        assert np.array_equal(dense_of(parts.inverse()[0], len(section)), np.linalg.inv(section))
    for section in (m, m.real.copy(), even_order):
        assert _parity_blocks(section) is None
        _, svals, vh = np.linalg.svd(section)
        smallest, largest, v = section_min_singular(dense_parts(section))
        assert (smallest, largest) == (svals[-1], svals[0]) and np.array_equal(v, vh[-1])


def slab_banded(rng, size, width, reach, complex_values):
    """I + F linking positions at most ``reach`` levels apart, level = position // width.

    On a window of stride ``width`` the levels are k_1 + R, so F has
    first-coordinate reach ``reach``; F is scaled to keep I + F well
    conditioned.
    """
    level = np.arange(size) // width
    f = rng.standard_normal((size, size))
    if complex_values:
        f = f + 1j * rng.standard_normal((size, size))
    near = np.abs(level[:, None] - level[None, :]) <= reach
    return np.eye(size) + np.where(near, 0.2 / math.sqrt((2 * reach + 1) * width), 0.0) * f


def slab_slices(m, order):
    """The stacks (A, U, L) of m's blocks in block columns i, i+1 and i-1 of each slab i, sliced from m."""
    b = list(range(0, len(m), order)) + [len(m)]
    stacks = np.zeros((3, len(b) - 1, order, order), m.dtype)
    for i, (lo, hi) in enumerate(zip(b, b[1:])):
        for k, (c0, c1) in enumerate([(lo, hi), (hi, b[min(i + 2, len(b) - 1)]), (b[max(i - 1, 0)], lo)]):
            stacks[k, i, : hi - lo, : c1 - c0] = m[lo:hi, c0:c1]
    return stacks


def sweep(m, order):
    """The :func:`_slab_sweep` of a dense section m over slabs of ``order`` positions."""
    return _slab_sweep(*slab_slices(m, order), len(m))


def assert_matches_linalg(m, blocks):
    det, inv = np.linalg.det(m), np.linalg.inv(m)
    assert abs(_section_det(blocks) - det) <= 1e-12 * abs(det)
    assert rel_err(dense_of(blocks.inverse()[0], len(m)), inv) <= 1e-12


@pytest.mark.parametrize("complex_values", [False, True])
@pytest.mark.parametrize("reach, orders", [(1, [19] * 19), (2, [38] * 9 + [19])])
def test_slab_kernels_match_unsplit_linalg_on_window_sections(complex_values, reach, orders):
    # slabs of `reach` consecutive k_1 values: 19 points each on the 19 x 19
    # window; for reach 2 the last slab holds one k_1 value only
    w = TruncationWindow(9, 2)
    m = slab_banded(np.random.default_rng(20 + reach), w.size, 19, reach, complex_values)
    slabs = dense_parts(m, w)
    assert isinstance(slabs, _Slabs) and np.diff(slabs.bounds).tolist() == orders
    assert_matches_linalg(m, slabs)
    # no window, no slabs: the LAPACK path as before
    assert whole(dense_parts(m))


@pytest.mark.parametrize("complex_values", [False, True])
def test_slab_kernels_on_a_ragged_last_slab(complex_values):
    m = slab_banded(np.random.default_rng(23), 100, 7, 1, complex_values)
    slabs = sweep(m, 7)
    assert np.diff(slabs.bounds).tolist() == [7] * 14 + [2]
    assert_matches_linalg(m, slabs)


def fallback_sections(rng, complex_values):
    """Slab sections on the radius-9 2-D window whose sweep must stop.

    S_0 exactly singular; S_0 of condition 1e9; S_1 = A_1 - L_1 S_0^{-1} U_0
    zero up to roundoff, a difference of two O(1) terms.
    """
    w = TruncationWindow(9, 2)
    base = slab_banded(rng, w.size, 19, 1, complex_values)
    zero = base.copy()
    zero[:19, :19] = 0.0
    ill = base.copy()
    u, _, vh = np.linalg.svd(base[:19, :19])
    ill[:19, :19] = (u * np.logspace(0, -9, 19)) @ vh
    cancel = base.copy()
    cancel[19:38, 19:38] = base[19:38, :19] @ np.linalg.solve(base[:19, :19], base[:19, 19:38])
    return w, [zero, ill, cancel]


@pytest.mark.parametrize("complex_values", [False, True])
def test_a_slab_sweep_that_fails_its_guard_takes_the_lapack_path(complex_values):
    w, sections = fallback_sections(np.random.default_rng(24), complex_values)
    for m in sections:
        assert sweep(m, 19) is None
        blocks = dense_parts(m, w)
        assert whole(blocks) and _parity_blocks(m) is None
        assert _section_det(blocks) == complex(np.linalg.det(m))
        assert np.array_equal(dense_of(blocks.inverse()[0], len(m)), np.linalg.inv(m))
    # the cancellation leaves S_1 of modest condition; only its scale
    # against A_1 and L_1 S_0^{-1} U_0 gives it away
    cancel = sections[2]
    s1 = cancel[19:38, 19:38] - cancel[19:38, :19] @ (np.linalg.inv(cancel[:19, :19]) @ cancel[:19, 19:38])
    assert np.linalg.cond(s1, 1) < _SLAB_CONDITION_LIMIT


@pytest.mark.parametrize("complex_values", [False, True])
def test_a_singular_last_schur_complement_gives_an_exact_zero(complex_values):
    # U = 0 above the last slab makes S_last = A_last exactly; a zero column
    # there makes it singular, while L keeps the section one component
    w = TruncationWindow(9, 2)
    m = slab_banded(np.random.default_rng(25), w.size, 19, 1, complex_values)
    m[323:342, 342:] = 0.0
    m[342:, -1] = 0.0
    slabs = dense_parts(m, w)
    assert isinstance(slabs, _Slabs) and not np.any(slabs.schur[-1][:, -1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert repr(_section_det(slabs)) == "0j"
    with pytest.raises(np.linalg.LinAlgError):
        slabs.inverse()


def full_slab_inverse(slabs):
    """The section's inverse by the full slab recursion, every block computed: the reference of the banded one.

    The recursion of :meth:`_Slabs.inverse` with each slab's two GEMMs over
    all block columns right of the slab and all block rows below it, into
    one N x N array.
    """
    b = slabs.bounds
    z = np.empty((b[-1], b[-1]), slabs.inverses.dtype)
    z[b[-2] :, b[-2] :] = np.linalg.inv(slabs.schur[-1])
    for i in range(len(slabs.schur) - 2, -1, -1):
        lo, hi, top = b[i], b[i + 1], b[i + 2]
        np.matmul(-slabs.solved[i][:, : top - hi], z[hi:top, hi:], out=z[lo:hi, hi:])
        k = slabs.lower[i + 1][: top - hi] @ slabs.inverses[i]
        np.matmul(z[lo:, hi:top], -k, out=z[lo:, lo:hi])
        z[lo:hi, lo:hi] += slabs.inverses[i]
    return z


def matmul_madds(monkeypatch):
    """The multiply-adds of every later np.matmul call, one list item per call."""
    madds, matmul = [], np.matmul

    def spy(a, b, **kwargs):
        madds.append(a.shape[0] * a.shape[1] * b.shape[1])
        return matmul(a, b, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    return madds


# reach 2 in k_1: slabs of two k_1 values, the last of one
REACH_2_2D = {(0, 0): 2.0, (1, 0): 0.3, (-1, 0): 0.3, (2, 0): 0.2, (-2, 0): 0.2, (0, 1): 0.3, (0, -1): 0.3}


@pytest.mark.parametrize(
    "n, pot, radius, madd_share",
    [
        (2, EVEN_2D, 10, 1.0),
        (2, EVEN_2D, 16, 0.4),
        (2, SKEW_2D, 10, 1.0),
        (2, SKEW_2D, 16, 0.4),
        (2, SKEW_2D_COMPLEX, 10, 1.0),
        (2, SKEW_2D_COMPLEX, 16, 0.4),
        (2, REACH_2_2D, 16, 1.0),
        (3, EVEN_3D, 4, 1.0),
    ],
)
def test_the_banded_slab_inverse_is_the_full_recursion_on_its_band(monkeypatch, n, pot, radius, madd_share):
    w, m, _ = hill_section(HillProblem(n, n + 1.0, pot), radius)
    slabs = dense_parts(m, w)
    assert isinstance(slabs, _Slabs)
    madds = matmul_madds(monkeypatch)
    full = full_slab_inverse(slabs)
    full_madds = sum(madds)
    madds.clear()
    g, dropped = slabs.inverse()
    z = dense_of(g, len(m))
    b = slabs.bounds
    zeroed = 0.0
    for r0, r1 in zip(b, b[1:]):
        for c0, c1 in zip(b, b[1:]):
            got, want = z[r0:r1, c0:c1], full[r0:r1, c0:c1]
            if np.any(got):
                # the same sums by a narrower GEMM, whose rounding BLAS may
                # pick by the operands' widths
                assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
            else:
                zeroed += float(np.sum(np.abs(want)))
    assert 0 < zeroed <= dropped <= 2.0**-60 * float(np.sum(np.abs(full)))
    assert sum(madds) <= madd_share * full_madds


def test_the_dropped_bound_is_sharp_on_slabs_of_one_position():
    # on a tridiagonal, slabs of order 1 make every norm product the
    # magnitude of the entries it bounds, so half of dropped is the mass
    # left at 0; the coupling m[60, 61] = 30 makes the blocks above row 60
    # of the columns past it the larger part of that mass
    rng = np.random.default_rng(27)
    m = np.diag(rng.uniform(1.0, 4.0, 120))
    m += np.diag(rng.uniform(-0.3, 0.3, 119), 1) + np.diag(rng.uniform(-0.3, 0.3, 119), -1)
    m[60, 61] = m[61, 60] = 30.0
    m[61, 61] = 1000.0
    slabs = sweep(m, 1)
    full = full_slab_inverse(slabs)
    g, dropped = slabs.inverse()
    z = dense_of(g, len(m))
    zeroed = float(np.sum(np.abs(full[z == 0])))
    assert np.count_nonzero(z) < 0.3 * z.size and np.array_equal(z[z != 0], full[z != 0])
    assert abs(dropped / 2 - zeroed) <= 1e-12 * zeroed


@pytest.mark.parametrize("complex_values", [False, True])
@pytest.mark.parametrize("size, width", [(361, 19), (100, 7)])
def test_a_slab_inverse_with_order_one_couplings_drops_nothing(complex_values, size, width):
    m = slab_banded(np.random.default_rng(26), size, width, 1, complex_values)
    slabs = sweep(m, width)
    assert min(np.linalg.norm(v, 1) for v in slabs.solved) > 0.1
    g, dropped = slabs.inverse()
    assert dropped == 0.0 and np.array_equal(dense_of(g, size), full_slab_inverse(slabs))


@pytest.mark.parametrize("pot", [EVEN_2D, SKEW_2D_COMPLEX])
@pytest.mark.parametrize("radius", [16, 24])
def test_two_dimensional_ladders_match_the_full_slab_inverse_bit_for_bit(monkeypatch, pot, radius):
    def ladder():
        with pytest.raises(NonConvergenceError) as err:
            hill_determinant(HillProblem(2, 3.0, pot), 1e-300, max_radius=radius, coverage_radius=4 * radius)
        return repr((err.value.ladder, err.value.last_value, err.value.last_bound))

    banded = ladder()
    orders = []

    def full(slabs):
        z = full_slab_inverse(slabs)
        orders.append(len(z))
        return _Stacks([np.arange(len(z))[None]], z.ravel()), 0.0

    monkeypatch.setattr(_Slabs, "inverse", full)
    assert ladder() == banded
    assert orders[-1] == (2 * radius + 1) ** 2


def test_the_corrected_step_charges_what_the_slab_inverse_drops(monkeypatch):
    # dropped = d joins ||G||_1 and adds 2 d t^2 to the error of Tr X^2, t
    # the tail mass: a corrected rung keeps its value while its log error
    # grows by at least d t^2, and d = 1 / t brings s = (1 + ||G||_1) t past
    # 0.9, where the step is refused
    slab_inverse, corrected_step = _Slabs.inverse, l1_algebra._corrected_step
    steps, extra = [], {}

    def step(*args):
        extra["t"] = args[5] + args[6]
        steps.append((extra["t"], *args[3:5], corrected_step(*args)))
        return steps[-1][-1]

    def inverse(slabs):
        g, dropped = slab_inverse(slabs)
        return g, dropped + extra["d"](extra["t"])

    def ladder(d):
        extra["d"] = d
        steps.clear()
        with pytest.raises(NonConvergenceError):
            hill_determinant(HillProblem(2, 3.0, EVEN_2D), 1e-300, max_radius=16, coverage_radius=64)
        return list(steps)

    monkeypatch.setattr(l1_algebra, "_corrected_step", step)
    monkeypatch.setattr(_Slabs, "inverse", inverse)
    exact, charged = ladder(lambda t: 0.0), ladder(lambda t: 1e-6)
    assert len(exact) == 2
    for (t, det_n, size, (v0, b0)), (_, _, _, (v1, b1)) in zip(exact, charged):
        slack = l1_algebra._det_slack(det_n, size)
        log_err = [math.log1p((b - slack) / abs(v0)) for b in (b0, b1)]
        assert v1 == v0 and log_err[1] - log_err[0] >= 1e-6 * t * t
    assert [result for *_, result in ladder(lambda t: 1.0 / t)] == [None, None]



SLAB_SECTIONS = [
    (2, EVEN_2D, 10),
    (2, EVEN_2D_COMPLEX, 8),
    (2, SKEW_2D, 10),
    (2, SKEW_2D_COMPLEX, 16),
    (2, REACH_2_2D, 16),
    (3, EVEN_3D, 3),
    (3, EVEN_3D_COMPLEX, 4),
]


def section_parts_spy(monkeypatch):
    """The list of every :func:`_section_parts` a ladder rung or :func:`finite_determinant` builds, in order."""
    built, section_parts = [], _section_parts
    monkeypatch.setattr(l1_algebra, "_section_parts", lambda *args: built.append(section_parts(*args)) or built[-1])
    return built


def hill_entries(n, pot, radius):
    """The problem, window, dense I + B and B as a stored matrix on the window."""
    p = HillProblem(n, n + 1.0, pot)
    w, m, weights = hill_section(p, radius)
    return p, w, m, build_hill_matrix(p, w, weights)[0]


@pytest.mark.parametrize("n, pot, radius", SLAB_SECTIONS)
def test_slab_stacks_filled_from_the_entries_are_the_dense_slices(monkeypatch, n, pot, radius):
    # the rung fills A, U and L straight from B's entries, a ragged last
    # slab (REACH_2_2D: 16 slabs of two k_1 values and one of one) in the top
    # left, and sweeps them as the dense section's own slices are swept
    _, w, m, b = hill_entries(n, pot, radius)
    sweeps, sweep = [], _dense._slab_sweep
    monkeypatch.setattr(_dense, "_slab_sweep", lambda *args: sweeps.append(args) or sweep(*args))
    rungs = section_parts_spy(monkeypatch)
    _determinant_ladder(_LadderTails(b, TailModel.exact_finite(), radius), 1e-300)
    slabs = rungs[-1]
    assert isinstance(slabs, _Slabs)
    (a, u, l, size), dense_slabs = sweeps[-1], dense_parts(m, w)
    assert size == w.size and a.dtype == m.dtype
    assert np.array_equal(np.stack([a, u, l]), slab_slices(m, slabs.bounds[1]))
    assert all(np.array_equal(x, y) for x, y in zip(slabs.schur, dense_slabs.schur))
    assert (w.size % slabs.bounds[1] != 0) == (pot is REACH_2_2D)


@pytest.mark.parametrize(
    "n, pot, radius",
    SLAB_SECTIONS + [
        pytest.param(1, {(0,): 3.0, (1,): 1.0, (-1,): 1.0, (2,): 0.4 + 0.2j}, 32, id="1-D-Hill-lapack"),
        pytest.param(3, {(0, 0, 0): 1.5 + 0.5j}, 3, id="3-D-constant-split"),
    ],
)
def test_a_truncated_slab_section_and_its_ladder_rung_give_one_determinant(monkeypatch, n, pot, radius):
    # finite_determinant builds from its section's nonzeros the factors the
    # rung builds from its entries, for every kind of factor: the slab
    # sweep, one component that LAPACK factors whole (1-D) and the
    # component stacks of a split section (a constant)
    _, w, _, b = hill_entries(n, pot, radius)
    parts = section_parts_spy(monkeypatch)
    result, _ = _determinant_ladder(_LadderTails(b, TailModel.exact_finite(), radius), 1e-300)
    f, _ = truncate(b, TailModel.exact_finite(), w)
    det = finite_determinant(f)
    rung, finite = parts[-2:]
    if n == 1:
        assert whole(rung) and whole(finite)
    elif len(pot) == 1:
        assert not whole(rung) and isinstance(rung, _Stacks) and isinstance(finite, _Stacks) and not whole(finite)
    else:
        assert isinstance(rung, _Slabs) and isinstance(finite, _Slabs)
    assert result.ladder[-1].radius == radius and repr(result.ladder[-1].value) == repr(det)


@pytest.mark.parametrize("n, pot, radius", SLAB_SECTIONS)
def test_the_band_norm_is_the_dense_norm_of_the_band(n, pot, radius):
    # each entry of the band is held once in values: the scratch copies of
    # the column strips are zeros
    _, w, m, _ = hill_entries(n, pot, radius)
    g, _ = dense_parts(m, w).inverse()
    g.values[g.diagonal] -= 1.0
    band = float(np.sum(np.abs(g.values)))
    assert abs(band - np.sum(np.abs(dense_of(g, w.size)))) <= 1e-15 * band


@pytest.mark.parametrize("complex_values", [False, True])
def test_fallback_sections_built_from_entries_take_the_lapack_path(complex_values):
    # as ladder rungs, the three sections whose sweep stops are one
    # component filled from their entries and give LAPACK's det and inverse
    # bit for bit
    w, sections = fallback_sections(np.random.default_rng(24), complex_values)
    for m in sections:
        r, c = np.nonzero(m - np.eye(w.size))
        reference = np.eye(w.size) + (m - np.eye(w.size))
        assert sweep(reference, 19) is None
        blocks = _section_parts(w.size, r, c, (m - np.eye(w.size))[r, c], 1.0, w)
        assert whole(blocks) and np.array_equal(blocks.stacks[0][0], reference)
        assert _section_det(blocks) == complex(np.linalg.det(reference))
        g, dropped = blocks.inverse()
        assert dropped == 0.0 and np.array_equal(dense_of(g, w.size), np.linalg.inv(reference))


class DenseG:
    """G as one dense array, read as the corrected step read LAPACK's G before it had one G type."""

    def __init__(self, g):
        self.values, self.diagonal = g, (np.arange(len(g)),) * 2

    def __getitem__(self, where):
        return self.values[where]


def stopped_sweep_matrix():
    """The cancelling fallback section on the radius-9 window as a stored I + F - I, plus a tail.

    The tail couples 8 window points with points at radius 10, so the
    radius-9 rung of its ladder is corrected with a cross term; it is small
    enough for ``(1 + ||G||_1) t`` to stay under 0.9 with ``||G||_1`` = 1.2e6.
    """
    w, sections = fallback_sections(np.random.default_rng(24), False)
    pts, f = w.coords_array(), sections[2] - np.eye(w.size)
    r, c = np.nonzero(f)
    rows, cols, vals = list(pts[r]), list(pts[c]), list(f[r, c])
    for k in range(8):
        inside, outside = pts[40 * k + 1], np.array([10, 2 * k - 8])
        rows += [inside, outside, outside]
        cols += [outside, inside, outside]
        vals += [1e-9, 2e-9, 1e-9]
    return SparseL1Matrix.from_arrays(2, np.array(rows), np.array(cols), np.array(vals))


@pytest.mark.parametrize("case", ["1-D Hill", "2-D stopped sweep"])
def test_a_lapack_rung_corrects_as_the_dense_branch_did(monkeypatch, case):
    # G of a rung that LAPACK inverts is a one-component _Stacks now; its
    # flat sum, diagonal and reader give the value and certificate of the
    # dense array the corrected step read before, bit for bit
    def ladder():
        if case == "1-D Hill":
            p = HillProblem(1, 2.0, {(0,): 3.0, (1,): 1.0, (-1,): 1.0, (2,): 0.4 + 0.2j})
            with pytest.raises(NonConvergenceError) as err:
                hill_determinant(p, 1e-300, max_radius=64)
            return repr((err.value.ladder, err.value.last_value, err.value.last_bound))
        result, _ = _determinant_ladder(_LadderTails(stopped_sweep_matrix(), TailModel.exact_finite(), 9), 1e-300)
        assert result.value != result.ladder[-1].value  # the radius-9 rung is corrected
        return repr((result.ladder, result.value, result.certified_error))

    stacks_inverse, lapack = _Stacks.inverse, []

    def dense(parts):
        if not whole(parts):
            return stacks_inverse(parts)
        lapack.append(len(parts.stacks[0][0]))
        return DenseG(np.linalg.inv(parts.stacks[0][0])), 0.0

    one_path = ladder()
    monkeypatch.setattr(_Stacks, "inverse", dense)
    assert ladder() == one_path
    assert lapack and (case == "1-D Hill" or lapack[-1] == 361)

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
    assert res.value == expected and res.converged
    assert res.certified_error == abs(expected) * 11**2 * 5e-15  # LU roundoff

    # a tail of mass >= 0.9 cannot pass s < 0.9 either
    heavy = TailModel.user_bound(lambda r: 1.0)
    with pytest.raises(NonConvergenceError) as err:
        poincare_determinant(a, heavy, 1e-12, max_radius=a.support_radius)
    assert calls == []
    assert err.value.ladder[-1].value == expected


def test_exact_finite_large_norm_raw_bound_is_the_lu_roundoff():
    # exp(1 + 2 ||A||_1) overflows past ||A||_1 ~ 350; an empty tail still
    # certifies the whole-operator section, instead of 0 * inf = nan, up to
    # the roundoff of its LU determinant (801.0000000000003 here)
    a = SparseL1Matrix(1, {((0,), (0,)): 800.0})
    res = poincare_determinant(a, TailModel.exact_finite(), 1e-8)
    assert res.converged
    assert abs(801.0 - res.value) <= res.certified_error <= 1e-12 * abs(res.value)
    assert [(s.radius, s.bound) for s in res.ladder] == [(0, res.certified_error)]


def five_dimensional_diagonal(radius):
    pts = TruncationWindow(1, 5).coords_array()
    corner = np.full((1, 5), radius)
    pts = np.concatenate([pts, corner]) if radius > 1 else pts
    return SparseL1Matrix.from_arrays(5, pts, pts, np.full(len(pts), 0.01))


def two_dimensional_diagonal(corner):
    """0.01 on the diagonal of the radius-1 window and in row (corner, corner).

    The corner entry sits in column 0, so a window that leaves it out has a
    tail with Tr T = Tr T^2 = Tr(G T^2) = 0: the corrected value is the raw one.
    """
    pts = TruncationWindow(1, 2).coords_array()
    rows = np.concatenate([pts, np.full((1, 2), corner)])
    cols = np.concatenate([pts, np.zeros((1, 2), dtype=pts.dtype)])
    return SparseL1Matrix.from_arrays(2, rows, cols, np.full(len(rows), 0.01))


def test_ladder_section_guard_stops_before_the_refused_rung(monkeypatch):
    import tracemalloc

    monkeypatch.setattr(l1_algebra, "_SECTION_SIZE_LIMIT", 1000)
    a = two_dimensional_diagonal(16)  # ladder 8, 16: 289, 1089 points
    assert TruncationWindow(16, 2).size > l1_algebra._SECTION_SIZE_LIMIT
    never = TailModel.user_bound(lambda r: 1e-3)
    tracemalloc.start()
    try:
        with pytest.raises(NonConvergenceError) as err:
            poincare_determinant(a, never, 1e-12, max_radius=64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * 289**2 * 8  # a few 289-point arrays, not a 1089-point section
    assert [s.radius for s in err.value.ladder] == [8]
    assert str(err.value).startswith(
        "determinant bound did not reach tol=1e-12 before the window of radius 16 "
        "(1089 points) passed the dense section limit 1000 (best certified bound "
    )
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
def test_invertibility_test_returns_the_ladder_poincare_determinant_raises(case, monkeypatch):
    if case == "radius cap":
        # the entry at 20 lies past the cap, so the ladder ends at the cap
        a = SparseL1Matrix(
            1, {((0,), (0,)): 0.3, ((2,), (1,)): 0.1 + 0.05j, ((20,), (20,)): 1e-3}
        )
        tail = TailModel.user_bound(lambda r: 0.01 * float(max(r, 1)) ** -3)
        max_radius = 16
    else:
        monkeypatch.setattr(l1_algebra, "_SECTION_SIZE_LIMIT", 1000)
        a = two_dimensional_diagonal(16)  # the rung of radius 16 is refused
        tail = TailModel.user_bound(lambda r: 1e-3)
        max_radius = 64
    with pytest.raises(NonConvergenceError) as err:
        poincare_determinant(a, tail, 1e-8, max_radius=max_radius)
    decision, result = invertibility_test(a, tail, 1e-8, max_radius=max_radius)
    assert result.converged is False
    assert result.ladder == err.value.ladder
    assert result.value == err.value.last_value
    assert result.certified_error == err.value.last_bound
    assert decision == determinant_decision(result, 1e-8) == "invertible"
    assert result.ladder[-1].radius == {"radius cap": 16, "section limit": 8}[case]


# --- ladders against a brute-force reference


class MaskTails:
    """Reference tail provider: every rung masks ``entry_radii`` over all entries.

    Hands the ladder every stored entry, bucketed by counting the rungs its
    radius exceeds, and sums each tail moment directly over the entries
    outside the rung, so it shares no span, bucket search or near/far split
    with :class:`_LadderTails`.  The stored tail mass is ``||A||_1 - ||F||_1``
    (never negative, 0 when nothing is outside), as the ladder takes it.
    ``Tr T^2`` leaves out the transpose pairs of the far off-diagonal entries
    that do not straddle, min(|row|_inf, |col|_inf) > ``radii[-1]``, and
    carries their ``sum |T_ij|^2`` as its error.
    """

    def __init__(self, a, tail, max_radius):
        self.a, self.dimension = a, a.dimension
        coverage = int(np.max(a.entry_radii)) if a.nnz else 0
        self.unstored = tail.bound_at(coverage)
        self.radii = _ladder_radii(min(coverage, max_radius))
        self.floor = _coverage_floor(coverage, self.unstored, max_radius)
        self.diag = np.all(a.rows == a.cols, axis=1)
        self.rows, self.cols, self.vals, self.abs_vals = a.rows, a.cols, a.vals, np.abs(a.vals)
        self.bucket = np.sum(a.entry_radii[:, None] > np.asarray(self.radii), axis=1)

    def outside(self, rung):
        return self.a.entry_radii > self.radii[rung]

    def l1_tail(self, rung, f_norm):
        stored = max(self.a.l1_norm - f_norm, 0.0) if np.any(self.outside(rung)) else 0.0
        return stored, self.unstored, self.a.l1_norm + self.unstored

    def moments(self, rung):
        a, out = self.a, self.outside(rung)
        d = a.vals[out & self.diag]
        sup = lambda c: np.max(np.abs(c), axis=1, initial=0)
        far = ~self.diag & (np.minimum(sup(a.rows), sup(a.cols)) > self.radii[-1])
        off = out & ~self.diag & ~far
        tr_t2 = complex(np.dot(d, d)) + _transpose_pair_sum(a.rows[off], a.cols[off], a.vals[off])
        far_sq = float(np.sum(np.abs(a.vals[far]) ** 2))
        return (complex(np.sum(d)), self.unstored), (tr_t2, far_sq)


def reference_trace(a, tail, tol, max_radius):
    """The trace ladder by masks: the value (None if not reached) and the attempts.

    Each attempt is ``(radius, bound, discarded stored mass)``; a reached
    ladder ends at the stopping rung.  The value adds the diagonal entries
    rung bucket by rung bucket, each bucket in canonical order, as the
    library does.
    """
    coverage = int(np.max(a.entry_radii)) if a.nnz else 0
    radii = _ladder_radii(min(coverage, max_radius))
    diag = np.all(a.rows == a.cols, axis=1)
    re = im = 0.0
    attempts = []
    for i, n in enumerate(radii):
        bucket = diag & (a.entry_radii <= n) & (a.entry_radii > (radii[i - 1] if i else -1))
        b_re = b_im = 0.0
        for v in a.vals[bucket]:
            b_re += float(v.real)
            b_im += float(np.imag(v))
        re, im = re + b_re, im + b_im
        discarded = float(np.sum(np.abs(a.vals[a.entry_radii > n])))
        t_n = discarded + tail.bound_at(coverage)
        attempts.append((n, t_n, discarded))
        if t_n <= tol:
            return complex(re, im), attempts
    return None, attempts


def reference_truncate(a, tail, radius):
    """Dense section by masks and index arithmetic, its tail mass and discarded stored mass."""
    n = a.dimension
    inside = a.entry_radii <= radius
    shape = (2 * radius + 1,) * n
    pos = lambda c: np.ravel_multi_index((c + radius).T, shape)
    vals = a.vals[inside]
    real = not np.any(vals.imag)
    dense = np.zeros((math.prod(shape),) * 2, dtype=float if real else complex)
    dense[pos(a.rows[inside]), pos(a.cols[inside])] = vals.real if real else vals
    coverage = int(np.max(a.entry_radii)) if a.nnz else 0
    discarded = float(np.sum(np.abs(a.vals[~inside])))
    return dense, discarded + tail.bound_at(coverage), discarded


def canonical_ladder_matrices(rng, n, support):
    """Seeded canonical matrices the row spans must get right.

    Random entries (many with the row inside a window and the column
    outside it, some with their transpose), entries whose first row
    coordinate is exactly a ladder radius +-8 or +-16 with the other
    coordinates on either side of it, empty and single-entry matrices, and
    shared-index diagonals (real and complex) built with the same array for
    rows and columns; one real diagonal holds -1 at the origin, so I + A is
    singular.
    """
    out = [SparseL1Matrix.zero(n)]
    out.append(SparseL1Matrix(n, {((3,) + (0,) * (n - 1), (-5,) + (1,) * (n - 1)): 0.4}))
    for decay in (0.1, 1.0):
        count = 40 * n
        rows = rng.integers(-support, support + 1, size=(count, n))
        cols = np.where(
            rng.random((count, 1)) < 0.5,
            rows + rng.integers(-2, 3, size=(count, n)),
            rng.integers(-support, support + 1, size=(count, n)),
        )
        edge = np.array([8, -8, 16, -16])[rng.integers(0, 4, size=12)]
        e_rows = rng.integers(-support, support + 1, size=(12, n))
        e_rows[:, 0] = edge
        e_rows[:4, 1:] = np.clip(e_rows[:4, 1:], -8, 8)  # n >= 2: rows inside the +-8 window
        e_cols = np.where(rng.random((12, 1)) < 0.5, e_rows, rng.integers(-9, 10, size=(12, n)))
        # transposes of a quarter of the entries, so that Tr T^2 has pairs
        rows, cols = (
            np.concatenate([rows, e_rows, cols[: count // 4]]),
            np.concatenate([cols, e_cols, rows[: count // 4]]),
        )
        radius = np.maximum(np.max(np.abs(rows), axis=1), np.max(np.abs(cols), axis=1))
        mags = 0.6 * rng.random(len(rows)) * np.exp(-decay * radius)
        phases = np.exp(2j * np.pi * rng.random(len(rows)))
        out.append(SparseL1Matrix.from_arrays(n, rows, cols, mags * phases))
        pts = TruncationWindow(min(support, 24 // n), n).coords_array()
        radius = np.max(np.abs(pts), axis=1)
        diag = 4.0 / len(pts) * rng.random(len(pts)) * np.exp(-decay * radius)
        if decay < 0.5:  # I + A exactly singular
            diag[len(pts) // 2] = -1.0
        out.append(SparseL1Matrix.from_canonical_arrays(n, pts, pts, diag))
        phases = np.exp(2j * np.pi * rng.random(len(pts)))
        out.append(SparseL1Matrix.from_canonical_arrays(n, pts, pts, diag * phases))
    return out


LADDER_TAILS = {
    "exact": TailModel.exact_finite(),
    "power": TailModel.user_bound(lambda r: 1e-3 * float(max(r, 1)) ** -2),
    "constant": TailModel.user_bound(lambda r: 2e-6),
}

# (tol, max_radius) per dimension; 3-D determinant sections stop at radius 4
LADDER_SETTINGS = {
    1: [(1e-10, 4), (1e-6, 16), (1e-3, 64)],
    2: [(1e-10, 4), (1e-6, 16), (1e-3, 8)],
    3: [(1e-10, 2), (1e-3, 4)],
}


def close(got, want, rel=1e-12):
    return got == want or abs(got - want) <= rel * abs(want)


def close_discarded(got, want, discarded, a):
    """Close, up to the rounding of ||A||_1 (1e-14 of it, about 45 ulps).

    The trace and truncate take the discarded stored mass as ``||A||_1``
    minus the mass inside, while the reference sums it directly; when the
    discarded mass is tiny against ``||A||_1`` the difference is that
    rounding.  With nothing discarded both must be the tail bound exactly.
    """
    if discarded == 0:
        return got == want
    return close(got, want) or abs(got - want) <= 1e-14 * a.l1_norm


def assert_same_determinant(got, want):
    """Raw rung values bit for bit, certificates and corrected values close."""
    assert [s.radius for s in got.ladder] == [s.radius for s in want.ladder]
    for g, w in zip(got.ladder, want.ladder):
        assert g.value == w.value
        assert close(g.bound, w.bound)
    assert got.converged == want.converged
    assert close(got.certified_error, want.certified_error)
    if want.value in [s.value for s in want.ladder]:  # uncorrected
        assert got.value == want.value
    else:
        assert close(got.value, want.value, rel=1e-14)


def outcome(fn, *args, **kwargs):
    """The result of a ladder call, or the ladder it raised with, comparable by ==."""
    try:
        return fn(*args, **kwargs)
    except NonConvergenceError as err:
        return (str(err), err.ladder, err.last_bound, err.last_value)


@pytest.mark.parametrize("n, support", [(1, 40), (2, 20), (3, 10)])
def test_ladders_match_a_brute_force_reference(n, support):
    rng = np.random.default_rng([17, n])
    checked = 0
    for a in canonical_ladder_matrices(rng, n, support):
        for tail in LADDER_TAILS.values():
            for tol, max_radius in LADDER_SETTINGS[n]:
                want, want_stop = _determinant_ladder(MaskTails(a, tail, max_radius), tol)
                decision, got = invertibility_test(a, tail, tol, max_radius=max_radius)
                assert_same_determinant(got, want)
                assert decision == determinant_decision(want, tol)
                assert (decision, got) == invertibility_test(a, tail, tol, max_radius=max_radius)
                det = outcome(poincare_determinant, a, tail, tol, max_radius=max_radius)
                if want_stop is None:
                    assert det == got
                else:
                    assert want_stop in det[0]
                    assert det[1:] == (got.ladder, got.certified_error, got.value)

                for top in (max_radius, 2**53):
                    value, attempts = reference_trace(a, tail, tol, top)
                    first = outcome(poincare_trace, a, tail, tol, max_radius=top)
                    assert outcome(poincare_trace, a, tail, tol, max_radius=top) == first
                    if value is None:
                        ladder = first[1]
                        assert [r for r, _ in ladder] == [r for r, _, _ in attempts]
                        bounds = [g for _, g in ladder]
                    else:
                        assert first.value == value
                        bounds, attempts = [first.certified_error], attempts[-1:]
                    for got_bound, (_, want, discarded) in zip(bounds, attempts):
                        assert close_discarded(got_bound, want, discarded, a)
                checked += 1

        for radius in (0, 1, 3, 8, 16):
            w = TruncationWindow(radius, n)
            if w.size > 1100:
                break
            for tail in LADDER_TAILS.values():
                section, tail_mass = truncate(a, tail, w)
                dense, want_mass, discarded = reference_truncate(a, tail, radius)
                assert section.matrix.dtype == dense.dtype
                assert np.array_equal(section.matrix, dense)
                assert close_discarded(tail_mass, want_mass, discarded, a)
                again = truncate(a, tail, w)
                assert np.array_equal(again[0].matrix, section.matrix)
                assert again[1] == tail_mass
    assert checked > 0


def test_ladders_read_only_the_spans_of_their_rungs():
    import tracemalloc

    # 2M stored entries a_k = 1 / (4 pi^2 k^2 + 1); the trace stops by rung 4096
    k = np.arange(-1_000_000, 1_000_000)[:, None]
    a = SparseL1Matrix.from_canonical_arrays(1, k, k, 1.0 / (4 * np.pi**2 * k[:, 0] ** 2.0 + 1.0))
    tail = TailModel.user_bound(lambda r: (np.pi / 2 - math.atan(2 * np.pi * max(r, 1))) / np.pi)
    tol = 1e-4
    tracemalloc.start()
    try:
        trace = poincare_trace(a, tail, tol)
        _, trace_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        det = poincare_determinant(a, tail, 1e-4, max_radius=64)
        _, det_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert trace_peak < 2 * 2**20  # np.abs(a.vals) alone would be 16 MB
    assert det.converged and det_peak < 2 * 2**20
    # a ladder capped at 4096 has the same rungs up to 4096, so the trace
    # stopped there or before
    assert poincare_trace(a, tail, tol, max_radius=4096) == trace


def test_a_supplied_norm_under_the_stored_sum_gives_no_negative_certificate():
    # math.fsum rounds this sum 1 ulp under numpy's pairwise sum, so
    # ||A||_1 - ||F||_1 is -4.4e-16 on the rung that holds every entry
    k = np.arange(-20, 21)[:, None]
    vals = 0.1 * np.random.default_rng(0).random(41)
    a = SparseL1Matrix.from_canonical_arrays(1, k, k, vals, norm=math.fsum(vals))
    assert a.l1_norm < float(np.sum(vals))
    exact = TailModel.exact_finite()
    result = poincare_determinant(a, exact, 1e-11)
    # the LU roundoff of the 41-point section, 1.7e-12
    assert result.certified_error == result.ladder[-1].bound == abs(result.value) * 41 * 5e-15
    assert result.value == finite_determinant(section_of(a, 20))
    assert poincare_trace(a, exact, 1e-12).certified_error == 0.0
    assert truncate(a, exact, TruncationWindow(20, 1))[1] == 0.0
