import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from torusdet import toroidal
from torusdet.io import parse_symbol_document
from torusdet.lattice import TruncationWindow, bracket_array, sup_norm_array
from torusdet.l1_algebra import SparseL1Matrix, TailModel, compose, poincare_determinant
from torusdet.toroidal import (
    AliasingError,
    CoefficientTableSymbol,
    DiagnosticWindowError,
    GridFunction,
    MultiplicationSymbol,
    MultiplierSymbol,
    NonSummableSymbolError,
    SymbolSum,
    ToroidalSymbol,
    UnsupportedRepresentationError,
    coeffs_to_grid,
    det_gamma,
    fourier_coeffs,
    fractional_laplacian_symbol,
    gamma_apply,
    l1_membership_check,
    matrix_to_symbol,
    sobolev_norm,
    strong_ellipticity_check,
    symbol_order_diagnostic,
    symbol_to_matrix,
    table_from_samples,
)

PI_COTH_PI = math.pi * math.cosh(math.pi) / math.sinh(math.pi)


def bracket_power_symbol(power):
    """sigma(x, k) = e^{2 pi i x} <k>^power as a coefficient table."""
    return CoefficientTableSymbol(
        1,
        {(1,): lambda k: (1.0 + np.sum(k.astype(float) ** 2, axis=1)) ** (power / 2.0)},
        order_m=power,
    )


# --- Fourier analysis on the grid


def test_fourier_coeffs_constant():
    f = GridFunction.from_function(lambda x: np.ones_like(x), 1, 16)
    coeffs = fourier_coeffs(f, TruncationWindow(3, 1))
    assert coeffs[(0,)] == pytest.approx(1.0, abs=1e-15)
    for k in (-3, -1, 1, 2, 3):
        assert abs(coeffs[(k,)]) <= 1e-15


def test_fourier_coeffs_pure_exponential():
    f = GridFunction.from_function(lambda x: np.exp(2j * np.pi * x), 1, 8)
    coeffs = fourier_coeffs(f, TruncationWindow(2, 1))
    assert coeffs[(1,)] == pytest.approx(1.0, abs=1e-14)
    for k in (-2, -1, 0, 2):
        assert abs(coeffs[(k,)]) <= 1e-14


def test_fourier_coeffs_cosine():
    f = GridFunction.from_function(lambda x: 2.0 * np.cos(2 * np.pi * x), 1, 16)
    coeffs = fourier_coeffs(f, TruncationWindow(2, 1))
    assert coeffs[(1,)] == pytest.approx(1.0, abs=1e-14)
    assert coeffs[(-1,)] == pytest.approx(1.0, abs=1e-14)


def test_fourier_refuses_aliasing():
    f = GridFunction.from_function(lambda x: np.ones_like(x), 1, 8)
    with pytest.raises(AliasingError):
        fourier_coeffs(f, TruncationWindow(4, 1))


def test_grid_parseval_band_limited():
    rng = np.random.default_rng(0)
    coeffs = {
        (k,): complex(rng.standard_normal(), rng.standard_normal())
        for k in range(-5, 6)
    }
    g = coeffs_to_grid(coeffs, 1, 32)
    grid_energy = float(np.mean(np.abs(g.samples) ** 2))
    coeff_energy = sum(abs(v) ** 2 for v in coeffs.values())
    assert grid_energy == pytest.approx(coeff_energy, rel=1e-12)


# --- symbol -> matrix


def test_multiplier_symbol_gives_diagonal():
    sym = fractional_laplacian_symbol(2.0, 1)
    matrix, _ = symbol_to_matrix(sym, TruncationWindow(3, 1))
    expected = {((k,), (k,)): (2 * np.pi * abs(k)) ** 2 for k in range(-3, 4) if k != 0}
    got = matrix.to_dict()
    assert set(got) == set(expected)
    for key, val in expected.items():
        assert got[key] == pytest.approx(val, rel=1e-15)


def test_multiplication_by_exponential_is_shift():
    sym = MultiplicationSymbol(1, {(1,): 1.0})
    matrix, _ = symbol_to_matrix(sym, TruncationWindow(3, 1))
    assert matrix.to_dict() == {((k + 1,), (k,)): 1.0 for k in range(-3, 3)}


def test_multiplication_by_cosine_is_band():
    sym = MultiplicationSymbol(1, {(1,): 1.0, (-1,): 1.0})  # 2 cos(2 pi x)
    matrix, _ = symbol_to_matrix(sym, TruncationWindow(2, 1))
    for (j,), (k,), v in matrix.items():
        assert abs(j - k) == 1
        assert v == 1.0
    assert matrix.nnz == 8


def test_multiplication_matrix_is_toeplitz():
    sym = MultiplicationSymbol(1, {(1,): 2.0 - 1j, (-2,): 0.25})
    matrix, _ = symbol_to_matrix(sym, TruncationWindow(4, 1))
    for (j,), (k,), v in matrix.items():
        if j - k == 1:
            assert v == 2.0 - 1j
        else:
            assert (j - k, v) == (-2, 0.25)


def test_symbol_norm_ladder_reaches_coth_limit():
    sym = bracket_power_symbol(-2.0)
    report = l1_membership_check(sym, [100_000, 1_000_000, 2_000_000, 4_000_000])
    assert report.in_l1
    assert abs(report.ladder[-1][1] - PI_COTH_PI) <= 1e-6


# --- matrix -> symbol and round trips


def test_matrix_to_symbol_diagonal():
    sym = fractional_laplacian_symbol(2.0, 1)
    matrix, _ = symbol_to_matrix(sym, TruncationWindow(4, 1))
    for x in (0.0, 0.3, 0.77):
        assert matrix_to_symbol(matrix, (x,), (2,)) == pytest.approx(
            (4 * np.pi**2) * 4, rel=1e-13
        )


def test_matrix_to_symbol_shift():
    sym = MultiplicationSymbol(1, {(1,): 1.0})
    matrix, _ = symbol_to_matrix(sym, TruncationWindow(4, 1))
    for x in (0.0, 0.25, 0.6):
        got = matrix_to_symbol(matrix, (x,), (0,))
        assert got == pytest.approx(np.exp(2j * np.pi * x), abs=1e-14)


def test_symbol_matrix_round_trip_band_limited():
    rng = np.random.default_rng(1)
    radius = 8
    table = {}
    for l in (-2, -1, 0, 1, 2):
        values = {
            (k,): complex(rng.standard_normal(), rng.standard_normal())
            for k in range(-radius, radius + 1)
        }
        table[(l,)] = (
            lambda ks, _v=values: np.asarray(
                [_v.get(tuple(int(c) for c in row), 0.0) for row in ks],
                dtype=np.complex128,
            )
        )
    sym = CoefficientTableSymbol(1, table)
    matrix, _ = symbol_to_matrix(sym, TruncationWindow(radius, 1))
    xs = np.linspace(0.0, 1.0, 64, endpoint=False)
    for k in range(-radius + 2, radius - 1):
        for x in xs:
            direct = sym.evaluate((x,), (k,))
            recovered = matrix_to_symbol(matrix, (x,), (k,))
            assert abs(direct - recovered) <= 1e-10


# --- conjugated action on grid functions


def test_gamma_apply_laplacian_eigenfunction():
    sym = fractional_laplacian_symbol(2.0, 1)
    matrix, _ = symbol_to_matrix(sym, TruncationWindow(8, 1))
    f = GridFunction.from_function(lambda x: np.exp(2j * np.pi * x), 1, 32)
    out = gamma_apply(matrix, f)
    expected = 4 * np.pi**2 * f.samples
    assert np.max(np.abs(out.samples - expected)) <= 1e-12 * 4 * np.pi**2


def test_gamma_apply_zero():
    f = GridFunction.from_function(lambda x: np.cos(2 * np.pi * 3 * x), 1, 32)
    out = gamma_apply(SparseL1Matrix(1, {}), f)
    assert np.max(np.abs(out.samples)) == 0.0


def test_gamma_apply_multiplicative():
    rng = np.random.default_rng(2)
    for _ in range(10):
        def small_random():
            entries = {}
            for _ in range(12):
                j = int(rng.integers(-4, 5))
                k = int(rng.integers(-4, 5))
                entries[((j,), (k,))] = complex(rng.standard_normal(), rng.standard_normal())
            return SparseL1Matrix(1, entries)

        a, b = small_random(), small_random()
        coeffs = {
            (k,): complex(rng.standard_normal(), rng.standard_normal())
            for k in range(-6, 7)
        }
        f = coeffs_to_grid(coeffs, 1, 64)
        combined = gamma_apply(compose(a, b), f)
        nested = gamma_apply(a, gamma_apply(b, f))
        scale = max(1.0, float(np.max(np.abs(nested.samples))))
        assert np.max(np.abs(combined.samples - nested.samples)) <= 1e-10 * scale


def test_gamma_apply_refuses_unresolved_output():
    shift = SparseL1Matrix(1, {((3,), (1,)): 1.0})
    f = GridFunction.from_function(lambda x: np.exp(2j * np.pi * x), 1, 4)
    with pytest.raises(AliasingError):
        gamma_apply(shift, f)


# --- torus-side determinant


def test_det_gamma_zero_symbol():
    sym = MultiplicationSymbol(1, {})
    res = det_gamma(sym, 1e-10)
    assert res.value == 1.0 and res.certified_error == 0.0


def test_det_gamma_rejects_constant_multiplication():
    sym = MultiplicationSymbol(1, {(0,): 3.0})
    with pytest.raises(NonSummableSymbolError):
        det_gamma(sym, 1e-6)


def test_det_gamma_rejects_non_decaying_multiplier():
    sym = MultiplierSymbol(1, lambda ks: np.ones(len(ks), dtype=complex), order_m=0.0)
    with pytest.raises(NonSummableSymbolError):
        det_gamma(sym, 1e-6)


def test_det_gamma_matches_explicit_matrix_pipeline():
    sym = bracket_power_symbol(-2.0)
    # the default window max(8 max_radius, 1024); at 2048 (max_radius 256)
    # the fitted tail bound floors the ladder at 2.6e-3
    res_sym = det_gamma(sym, 1e-3, max_radius=1024)
    matrix, tail = symbol_to_matrix(sym, TruncationWindow(8192, 1))
    res_mat = poincare_determinant(matrix, tail, 1e-3, max_radius=1024)
    assert res_sym.value == res_mat.value
    assert res_sym.certified_error == res_mat.certified_error
    assert [(s.radius, s.value, s.bound) for s in res_sym.ladder] == [
        (s.radius, s.value, s.bound) for s in res_mat.ladder
    ]
    # pure band with zero diagonal: every section determinant is exactly 1
    assert res_sym.value == pytest.approx(1.0, abs=res_sym.certified_error)


# --- multiplier, Sobolev norm


def test_fractional_laplacian_values():
    sym = fractional_laplacian_symbol(2.0, 1)
    assert sym.multiplier(np.array([[1]]))[0] == pytest.approx(4 * np.pi**2, rel=1e-15)
    assert sym.multiplier(np.array([[0]]))[0] == 0.0
    sym2 = fractional_laplacian_symbol(1.0, 2)
    assert sym2.multiplier(np.array([[3, 4]]))[0] == pytest.approx(10 * np.pi, rel=1e-15)


def test_fractional_laplacian_is_radial_and_real():
    sym = fractional_laplacian_symbol(1.5, 2)
    vals = sym.multiplier(np.array([[3, 4], [5, 0], [-5, 0], [0, -5]]))
    assert np.all(vals.imag == 0)
    assert np.all(vals.real >= 0)
    assert vals[0] == vals[1] == vals[2] == vals[3]


def test_fractional_laplacian_rejects_bad_order():
    with pytest.raises(ValueError):
        fractional_laplacian_symbol(0.0, 1)
    with pytest.raises(ValueError):
        fractional_laplacian_symbol(-1.0, 2)


def test_sobolev_norm_examples():
    assert sobolev_norm({(0,): 1.0}, 3.7) == pytest.approx(1.0, rel=1e-15)
    assert sobolev_norm({(1,): 1.0}, 1.0) == pytest.approx(math.sqrt(2.0), rel=1e-15)
    coeffs = {(2,): 0.5, (-1,): 1j, (0,): -3.0}
    l2 = math.sqrt(sum(abs(v) ** 2 for v in coeffs.values()))
    assert sobolev_norm(coeffs, 0.0) == pytest.approx(l2, rel=1e-14)


class PartSum(ToroidalSymbol):
    """A pointwise sum that adds the parts' coefficients one part at a time.

    This is the arithmetic ``SymbolSum`` must keep to the bit: a complex
    zero, then ``+=`` each part's ``coefficient`` in part order.
    """

    def __init__(self, parts):
        self.parts = list(parts)
        self.dimension = self.parts[0].dimension
        orders = [p.order_m for p in self.parts]
        self.order_m = max(orders) if all(o is not None for o in orders) else None

    def offsets(self):
        return sorted({l for p in self.parts for l in p.offsets()})

    def coefficient(self, l, k_coords):
        k_coords = np.asarray(k_coords, dtype=np.int64).reshape(-1, self.dimension)
        total = np.zeros(len(k_coords), dtype=np.complex128)
        for p in self.parts:
            total += p.coefficient(l, k_coords)
        return total


def symbol_sum_parts():
    """Part lists whose offsets overlap, in 1-D to 3-D: real rules, infs, signed zeros."""
    return [
        [fractional_laplacian_symbol(2.0, 1),
         MultiplicationSymbol(1, {(1,): -0.5, (-1,): -0.5, (0,): 0.25 + 1e-17j}),
         CoefficientTableSymbol(1, {(0,): lambda k: 1.0 / (1.0 + k[:, 0] ** 2.0),
                                    (1,): lambda k: (0.3 + 0.4j) / (1.0 + k[:, 0] ** 2.0),
                                    (-2,): 0.25j}, order_m=-2.0)],
        [fractional_laplacian_symbol(3.0, 2),
         CoefficientTableSymbol(2, {(1, 0): lambda k: np.cos(k[:, 0]) / 3.0, (0, -1): 0.3j,
                                    (0, 0): -2.0}, order_m=0.0),
         MultiplicationSymbol(2, {(1, 0): 0.1 + 0.7j, (0, 0): 1.0 / 3.0, (-1, 1): -0.2})],
        [fractional_laplacian_symbol(200, 2),
         MultiplicationSymbol(2, {(1, 0): 0.5, (-1, 0): 0.5, (0, 1): 0.25j})],
        [fractional_laplacian_symbol(2.5, 3),
         MultiplicationSymbol(3, {(1, 0, 0): 0.5 + 0.5j, (0, -1, 1): -0.25j, (0, 0, 0): 0.1}),
         MultiplierSymbol(3, lambda k: np.exp(-np.sum(k * k, axis=1) / 7.0), order_m=-4.0)],
        # signed zeros: the sum starts from +0, so -0 parts add up to +0
        [MultiplicationSymbol(1, {(0,): complex(0.5, -0.0), (1,): complex(-0.0, -2.0)}),
         CoefficientTableSymbol(1, {(1,): lambda k: np.full(len(k), -0.0)})],
    ]


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("parts", symbol_sum_parts())
def test_symbol_sum_coefficients_and_diagnostics_are_the_part_by_part_sum(parts):
    ours, ref = SymbolSum(parts), PartSum(parts)
    n = ours.dimension
    assert ours.offsets() == ref.offsets()
    assert ours.order_m == ref.order_m
    w = TruncationWindow(6 if n < 3 else 3, n)
    ks = w.coords_array()
    for l in ref.offsets() + [(3,) * n]:
        assert ours.coefficient(l, ks).dtype == np.complex128
        assert same_bits(ours.coefficient(l, ks), ref.coefficient(l, ks))
        assert same_bits(ours.coefficient_abs(l, ks), ref.coefficient_abs(l, ks))
    for got, want in zip(ours.coefficient_table(ks), ref.coefficient_table(ks)):
        assert same_bits(got, want)
    xs = np.array([[0.1] * n, [0.7] * n])
    assert same_bits(ours.evaluate_block(xs, ks), ref.evaluate_block(xs, ks))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        # reports of floats and tuples: equal reprs are equal bits
        for check in (
            lambda s: symbol_order_diagnostic(s, (1,) * n, w, x_grid=4),
            lambda s: strong_ellipticity_check(s, 2.0, w, x_grid=4),
            lambda s: l1_membership_check(s, [1, 2, 4], order_m=-3.0),
            lambda s: l1_membership_check(s, [2, 4]),
        ):
            assert repr(check(ours)) == repr(check(ref))
        got, want = symbol_to_matrix(ours, w)[0], symbol_to_matrix(ref, w)[0]
        for name in ("rows", "cols", "vals"):
            assert same_bits(getattr(got, name), getattr(want, name))


# --- diagnostics


def test_strong_ellipticity_schroedinger_like():
    q = MultiplicationSymbol(1, {(1,): -0.5, (-1,): -0.5})  # Q(x) = -cos(2 pi x)
    sym = SymbolSum([fractional_laplacian_symbol(2.0, 1), q])
    report = strong_ellipticity_check(sym, 2.0, TruncationWindow(12, 1), x_grid=16)
    assert report.passed
    assert report.n0 <= 1
    assert report.C0 > 0.0


def test_strong_ellipticity_fails_for_negative_laplacian():
    sym = MultiplierSymbol(
        1, lambda ks: -(np.sum(ks.astype(float) ** 2, axis=1)) + 0j, order_m=2.0
    )
    report = strong_ellipticity_check(sym, 2.0, TruncationWindow(8, 1), x_grid=4)
    assert not report.passed


def test_strong_ellipticity_bracket_power_is_sharp():
    sym = MultiplierSymbol(
        1,
        lambda ks: (1.0 + np.sum(ks.astype(float) ** 2, axis=1)) ** 0.75 + 0j,
        order_m=1.5,
    )
    report = strong_ellipticity_check(sym, 1.5, TruncationWindow(8, 1), x_grid=4)
    assert report.passed
    assert report.n0 == 0
    assert report.C0 == pytest.approx(1.0, rel=1e-12)


def naive_ellipticity(sigma, m, w, x_grid):
    """Reference sweep: one window point k and one offset l at a time.

    Each term c(l, k) exp(2 pi i x.l) is a numpy product over the x-grid, so
    it rounds as the block sweep does; the grids here are dyadic, so x.l is
    exact however it is summed.  Ties go to the first point in window order.
    """
    axis = np.arange(x_grid) / x_grid
    xs = np.array(list(itertools.product(axis, repeat=sigma.dimension)))
    coords = w.coords_array()
    weights = np.sqrt(1.0 + np.sum(coords.astype(float) ** 2, axis=1)) ** m
    ratios, worst_x = [], []
    for k, weight in zip(coords, weights):
        total = np.zeros(len(xs), dtype=np.complex128)
        for l in sigma.offsets():
            c = sigma.coefficient(l, k[None, :])[0]
            if c != 0:
                total += c * np.exp(2j * np.pi * (xs @ np.asarray(l, dtype=float)))
        j = int(np.argmin(total.real))
        worst_x.append(j)
        ratios.append(total.real[j] / weight)

    def report(i):
        value = float(ratios[i] * weights[i])
        return tuple(float(v) for v in xs[worst_x[i]]), tuple(int(c) for c in coords[i]), value

    norms2 = [int(np.sum(k * k)) for k in coords]
    for v in sorted(set(norms2)):
        tail = [i for i in range(len(coords)) if norms2[i] >= v]
        tail.sort(key=lambda i: norms2[i])
        best = tail[0]
        for i in tail:
            if ratios[i] < ratios[best]:
                best = i
        if ratios[best] > 0:
            n0 = next(j for j in itertools.count() if j * j >= v)
            return True, float(ratios[best]), n0, report(best)
    best = min(range(len(coords)), key=lambda i: (ratios[i], i))
    return False, 0.0, 0, report(best)


def test_strong_ellipticity_block_sweep_matches_naive_reference():
    def partly_zero(k):  # zero where k_1 < -8: whole blocks and part of one
        return np.where(k[:, 0] < -8, 0.0, (0.4 - 0.3j) / (1.0 + k[:, 1].astype(float) ** 2))

    cases = [
        (SymbolSum([fractional_laplacian_symbol(2.0, 1),
                    CoefficientTableSymbol(1, {(1,): lambda k: (0.3 + 0.4j) / (1.0 + k[:, 0] ** 2.0),
                                               (-2,): 0.25j, (0,): -0.5})]),
         2.0, TruncationWindow(12, 1), 16),
        (MultiplierSymbol(1, lambda k: -(k[:, 0] ** 2.0) + 1j * k[:, 0], order_m=2.0),
         2.0, TruncationWindow(8, 1), 4),
        (SymbolSum([fractional_laplacian_symbol(3.0, 2),
                    CoefficientTableSymbol(2, {(1, 0): partly_zero, (0, -1): 0.3j,
                                               (1, 1): lambda k: (0.2 + 0.1j) * np.cos(k[:, 0]),
                                               (0, 0): -2.0})]),
         3.0, TruncationWindow(10, 2), 16),
        (SymbolSum([fractional_laplacian_symbol(2.5, 3),
                    MultiplicationSymbol(3, {(1, 0, 0): 0.5 + 0.5j, (0, -1, 1): -0.25j})]),
         2.5, TruncationWindow(4, 3), 4),
    ]
    for sigma, m, w, x_grid in cases:
        report = strong_ellipticity_check(sigma, m, w, x_grid=x_grid)
        passed, c0, n0, worst = naive_ellipticity(sigma, m, w, x_grid)
        assert (report.passed, report.C0, report.n0, report.worst) == (passed, c0, n0, worst)
    # the 2-D case sweeps 21^2 window points x 256 torus points: many blocks
    assert TruncationWindow(10, 2).size * 16**2 > 3 * toroidal._BLOCK
    assert [strong_ellipticity_check(s, m, w, x_grid=g).passed for s, m, w, g in cases] == [
        True, False, True, True
    ]


def test_strong_ellipticity_of_a_high_order_symbol_is_finite():
    # (2 pi |k|)^200 overflows for |k| >= 6 and <k>^200 for |k| >= 35, where
    # inf / inf was nan; the ratio (2 pi)^200 (k^2 / (1 + k^2))^100 grows
    # with |k|, so C0 is its value at |k| = 1
    sigma = fractional_laplacian_symbol(200, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = strong_ellipticity_check(sigma, 200, TruncationWindow(40, 1))
    assert report.passed and report.n0 == 1
    assert report.C0 == pytest.approx((2 * math.pi) ** 200 / 2**100, rel=1e-12)
    assert report.worst[1] == (-1,)


def test_an_infinite_zero_offset_coefficient_stays_real():
    # (2 pi |k|)^200 is inf from |k| = 6: the zero offset adds it as it is,
    # where inf times the phase 1 + 0j had a nan imaginary part
    sigma = fractional_laplacian_symbol(200, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sigma.evaluate((0.0,), (6,)) == complex(math.inf, 0.0)
        values = sigma.evaluate_many(np.array([[0.0], [0.25], [0.5]]), (-7,))
        # the radius-5 box reaches |k| = 6 for the first difference
        diag = symbol_order_diagnostic(sigma, (1,), TruncationWindow(5, 1), x_grid=2)
    assert np.all(values.real == math.inf) and not np.any(values.imag)
    assert math.isfinite(diag.order_estimate)


def test_order_diagnostic_leaves_infinite_shells_out_of_the_fit():
    # (2 pi |k|)^200 is inf from |k| = 6, and its first difference is
    # inf - inf there: shells 6 to 8 count as inf, the fit uses shells 1 to 5
    sigma = fractional_laplacian_symbol(200, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        diag = symbol_order_diagnostic(sigma, (1,), TruncationWindow(8, 1))
        finite = symbol_order_diagnostic(sigma, (0,), TruncationWindow(5, 1))
    assert math.isfinite(diag.order_estimate)
    assert diag.order_estimate == finite.order_estimate
    for fit in diag.fits.values():
        assert math.isfinite(fit.exponent) and fit.constant == math.inf


def test_an_underflowing_weight_is_divided_in_log_space():
    # <k>^-400 underflows to 0 from |k| = 7 on; sigma is the same power, so
    # where both are 0 the sample constrains nothing and elsewhere the ratio is 1
    sigma = MultiplierSymbol(1, lambda k: bracket_array(k) ** -400.0 + 0j, order_m=-400.0)
    w = TruncationWindow(40, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = strong_ellipticity_check(sigma, -400.0, w)
        diag = symbol_order_diagnostic(sigma, (2,), w)
    assert report.passed and report.n0 == 0
    assert report.C0 == pytest.approx(1.0, rel=1e-12)
    assert math.isfinite(report.worst[2])
    assert diag.order_estimate == pytest.approx(-400.0, rel=1e-12)
    for fit in diag.fits.values():
        assert math.isfinite(fit.exponent) and math.isfinite(fit.constant)
    # samples where both are 0 leave no threshold with a finite C0 for the
    # zero symbol, whose resolved ratios are 0, or for -<k>^-400, whose are -1
    for values in (lambda k: np.zeros(len(k), dtype=np.complex128),
                   lambda k: -(bracket_array(k) ** -400.0) + 0j):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = strong_ellipticity_check(MultiplierSymbol(1, values, order_m=-400.0), -400.0, w)
        assert not report.passed and report.C0 == 0.0
        assert abs(report.worst[1][0]) <= 6 and report.worst[2] <= 0.0


def naive_order_fit(sigma, alpha_max, w, x_grid):
    """Reference order fit: sigma at every x sample, differenced per sample.

    Each sample's table sums sigma_hat(l, k) exp(2 pi i x.l) offset by
    offset over the box; the magnitudes are the maxima over the samples of
    |Delta^alpha| of those tables.  Returns {alpha: (exponent, constant,
    shell classes)} with each shell 0, 1 (finite, in the fit) or inf.
    """
    n = sigma.dimension
    box = [np.arange(-w.radius, w.radius + 1 + a) for a in alpha_max]
    coords = np.stack([g.ravel() for g in np.meshgrid(*box, indexing="ij")], axis=1)
    shape = tuple(len(b) for b in box)
    axis = np.arange(x_grid) / x_grid
    base = tuple(slice(0, 2 * w.radius + 1) for _ in range(n))
    base_coords = coords.reshape(shape + (n,))[base].reshape(-1, n)
    shells = sup_norm_array(base_coords)
    brackets = bracket_array(base_coords)
    out = {}
    with np.errstate(invalid="ignore", over="ignore"):
        tables = []
        for x in itertools.product(axis, repeat=n):
            total = np.zeros(len(coords), dtype=np.complex128)
            for l in sigma.offsets():
                c = sigma.coefficient(l, coords)
                total += c if not any(l) else c * np.exp(2j * np.pi * np.dot(x, l))
            tables.append(total.reshape(shape))
        for alpha in itertools.product(*(range(a + 1) for a in alpha_max)):
            mags = np.zeros(len(base_coords))
            for table in tables:
                for ax, a in enumerate(alpha):
                    table = np.diff(table, n=a, axis=ax) if a else table
                mags = np.fmax(mags, np.abs(table[base]).reshape(-1))
                mags[np.isnan(np.abs(table[base]).reshape(-1))] = math.inf
            radii = np.unique(shells)
            shell_max = np.array([mags[shells == r].max() for r in radii])
            classes = tuple(0 if v == 0 else (math.inf if v == math.inf else 1) for v in shell_max)
            fit = np.array(classes) == 1
            if np.count_nonzero(fit) < 4:
                out[alpha] = (math.nan, float(shell_max.max()), classes)
                continue
            shell_bracket = np.array([brackets[shells == r].max() for r in radii])
            slope = np.polyfit(np.log(shell_bracket[fit]), np.log(shell_max[fit]), 1)[0]
            constant = math.inf if math.inf in classes else float(np.max(mags / brackets**slope))
            out[alpha] = (float(slope), constant, classes)
    return out


def test_order_fit_matches_a_per_sample_reference():
    def partly_zero(k):  # zero where k_1 < -3, on part of every box
        return np.where(k[:, 0] < -3, 0.0, (0.4 - 0.3j) / (1.0 + k[:, 1].astype(float) ** 2))

    cases = [
        (SymbolSum([fractional_laplacian_symbol(3.0, 2),
                    CoefficientTableSymbol(2, {(1, 0): partly_zero, (0, -1): 0.3j,
                                               (1, 1): lambda k: (0.2 + 0.1j) * np.cos(k[:, 0]),
                                               (0, 0): -2.0})]),
         (2, 2), TruncationWindow(10, 2), 4),
        (SymbolSum([fractional_laplacian_symbol(2.5, 3),
                    MultiplicationSymbol(3, {(1, 0, 0): 0.5 + 0.5j, (0, -1, 1): -0.25j})]),
         (1, 2, 1), TruncationWindow(5, 3), 2),
        (SymbolSum([fractional_laplacian_symbol(200, 2),
                    MultiplicationSymbol(2, {(1, 0): 0.5, (-1, 0): 0.5, (0, 1): 0.25j})]),
         (1, 1), TruncationWindow(8, 2), 4),
    ]
    for sigma, alpha_max, w, x_grid in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            diag = symbol_order_diagnostic(sigma, alpha_max, w, x_grid=x_grid)
        want = naive_order_fit(sigma, alpha_max, w, x_grid)
        assert list(diag.fits) == list(want)
        for alpha, fit in diag.fits.items():
            exponent, constant, classes = want[alpha]
            for got, ref in ((fit.exponent, exponent), (fit.constant, constant)):
                if math.isfinite(ref):
                    assert got == pytest.approx(ref, rel=1e-9), (alpha, got, ref)
                else:
                    assert got == ref or (math.isnan(got) and math.isnan(ref)), (alpha, got, ref)
            # the fit shells are the reference's finite nonzero shells: a
            # different set would move the fitted exponent far past 1e-9
            assert (fit.constant == math.inf) == (math.inf in classes)
    # the last case's infinite zero-offset column puts its outer shells at inf
    assert math.inf in want[(0, 0)][2]


def test_order_fit_memory_does_not_grow_with_the_x_samples():
    # one table per x sample, the 27^3 box times 8^3 samples, would be a 161 MB complex
    # table; the k-dependent offset keeps differences in k_1 synthesized
    sigma = SymbolSum([fractional_laplacian_symbol(2.5, 3),
                       CoefficientTableSymbol(3, {(1, 0, 0): 0.5 + 0.5j, (-1, 0, 0): 0.5 - 0.5j,
                                                  (0, -1, 1): lambda k: 0.25j / (1.0 + k[:, 0] ** 2.0)})])
    tracemalloc.start()
    try:
        symbol_order_diagnostic(sigma, (2, 2, 2), TruncationWindow(12, 3), x_grid=8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20


def test_strong_ellipticity_memory_stays_in_row_blocks():
    # the whole 129^2 window times 16^2 samples would be a 68 MB complex table
    sigma = SymbolSum([fractional_laplacian_symbol(3.0, 2),
                       MultiplicationSymbol(2, {(1, 0): 0.3, (-1, 0): 0.3, (1, 1): 0.2j, (-1, -1): -0.2j})])
    tracemalloc.start()
    try:
        report = strong_ellipticity_check(sigma, 3.0, TruncationWindow(64, 2), x_grid=16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak <= 32 * 2**20


def test_order_diagnostic_recovers_powers():
    for m in (-2.0, 0.0, 1.5, 2.0):
        sym = MultiplierSymbol(
            1,
            lambda ks, _m=m: (1.0 + np.sum(ks.astype(float) ** 2, axis=1)) ** (_m / 2.0) + 0j,
            order_m=m,
        )
        diag = symbol_order_diagnostic(sym, (1,), TruncationWindow(64, 1), x_grid=1)
        assert abs(diag.order_estimate - m) <= 0.1


def test_order_diagnostic_first_difference_decay():
    sym = MultiplierSymbol(
        1,
        lambda ks: np.abs(ks[:, 0].astype(float)) ** 1.5 + 0j,
        order_m=1.5,
    )
    diag = symbol_order_diagnostic(sym, (1,), TruncationWindow(64, 1), x_grid=1)
    assert abs(diag.fits[(1,)].exponent - 0.5) <= 0.1


def test_order_diagnostic_constant_symbol_kills_differences():
    sym = MultiplierSymbol(1, lambda ks: np.full(len(ks), 2.5, dtype=complex))
    diag = symbol_order_diagnostic(sym, (2,), TruncationWindow(8, 1), x_grid=1)
    assert math.isnan(diag.fits[(1,)].exponent)
    assert diag.fits[(1,)].constant == 0.0
    assert diag.fits[(2,)].constant == 0.0


def test_order_diagnostic_needs_enough_shells():
    sym = fractional_laplacian_symbol(2.0, 1)
    with pytest.raises(DiagnosticWindowError):
        symbol_order_diagnostic(sym, (1,), TruncationWindow(2, 1), x_grid=1)


def test_l1_membership_boundary_and_failure():
    flat = MultiplierSymbol(1, lambda ks: np.ones(len(ks), dtype=complex), order_m=0.0)
    report = l1_membership_check(flat, [4, 8, 16])
    assert not report.in_l1

    boundary = bracket_power_symbol(-1.0)  # m = -n exactly
    report = l1_membership_check(boundary, [4, 8, 16, 32])
    assert not report.in_l1
    assert "boundary" in report.warning


def test_l1_membership_without_an_order_fits_one_or_assumes_non_summable():
    table = CoefficientTableSymbol(1, {(0,): lambda k: 1.0 / (1.0 + k[:, 0].astype(float) ** 2)})
    report = l1_membership_check(table, [4, 8, 16])
    assert report.order_used == pytest.approx(-2.0, abs=1e-9)
    assert report.warning == "order estimated from decay fit: m ~ -2.000"
    assert not report.in_l1  # the ladder is not Cauchy yet

    report = l1_membership_check(table, [1, 2])  # 3 shells: too few to fit
    assert not report.in_l1 and report.order_used == math.inf
    assert report.warning == "order unavailable; assuming non-summable"
    assert [r for r, _ in report.ladder] == [1, 2]

    class Opaque(ToroidalSymbol):
        dimension = 1

    with pytest.raises(UnsupportedRepresentationError):
        l1_membership_check(Opaque(), [4, 8])


def per_point_ladder(sym, radii):
    """The ladder summed point by point with math.fsum: every column of the
    largest window under every offset, counted from the first rung whose
    window holds both the column and its row."""
    radii = sorted(set(radii))
    cols = TruncationWindow(radii[-1], sym.dimension).coords_array()
    entries = []
    for l in sym.offsets():
        eff = np.maximum(sup_norm_array(cols), sup_norm_array(cols + np.asarray(l)))
        entries.append((eff, np.abs(sym.coefficient(l, cols))))
    return [
        (r, math.fsum(float(v) for eff, vals in entries for v in vals[eff <= r])) for r in radii
    ]


def decaying(power, phase):
    """A complex coefficient rule phase * <k>^power in any dimension."""
    return lambda k: phase * (1.0 + np.sum(k.astype(float) ** 2, axis=1)) ** (power / 2.0)


def test_l1_membership_streamed_ladder_matches_exact_sums():
    sym = CoefficientTableSymbol(
        2,
        {
            (0, 0): lambda k: 1.0 / (1.0 + np.sum(k.astype(float) ** 2, axis=1)) ** 1.5,
            (1, -1): lambda k: (0.5 - 2j) / (1.0 + k[:, 0] ** 4.0 + k[:, 1] ** 2.0),
            (0, 3): 1e-7j,
        },
        order_m=-3.0,
    )
    radii = [3, 20, 50, 90]
    assert TruncationWindow(radii[-1], 2).size > 3 * toroidal._BLOCK  # several blocks
    report = l1_membership_check(sym, radii)
    assert [r for r, _ in report.ladder] == radii
    for (_, got), (_, want) in zip(report.ladder, per_point_ladder(sym, radii)):
        assert got == pytest.approx(want, rel=1e-13, abs=0)


def coth_ladder_closed_form(radius):
    """sum_{k=-R}^{R-1} 1/(1 + k^2): pi coth pi minus both tails (Euler-Maclaurin)."""
    def beyond(r):  # sum_{k > r} 1/(1 + k^2), error ~ r^-6
        return math.atan2(1.0, r) - 0.5 / (1.0 + r * r) + r / (6.0 * (1.0 + r * r) ** 2)

    return PI_COTH_PI - 2.0 * beyond(radius) - 1.0 / (1.0 + radius * radius)


def test_l1_membership_coth_ladder_matches_closed_form():
    radii = [100_000, 1_000_000, 2_000_000, 4_000_000]
    report = l1_membership_check(bracket_power_symbol(-2.0), radii)
    for r, got in report.ladder:
        assert abs(got - coth_ladder_closed_form(r)) <= 1e-12


def test_l1_membership_memory_does_not_grow_with_the_ladder():
    sym = bracket_power_symbol(-2.0)
    tracemalloc.start()
    try:
        l1_membership_check(sym, [100_000, 1_000_000, 2_000_000, 4_000_000])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20  # one float per point of the 8M-point window is 64 MB


@pytest.mark.parametrize(
    "sym, radii",
    [
        # 1-D, unsorted radii with a rung of radius 0; the last box spans 10 blocks
        (CoefficientTableSymbol(1, {(0,): decaying(-2.0, 1 - 2j), (3,): decaying(-3.0, 0.5j),
                                    (-2,): 0.25 + 0.1j}), [7, 0, 40_000, 3]),
        # 2-D: boxes of 32761 points stream through several blocks
        (CoefficientTableSymbol(2, {(0, 0): decaying(-3.0, 1.0), (1, -1): decaying(-2.5, 0.5 - 2j),
                                    (0, 5): decaying(-2.0, 3j), (-4, 2): 1e-3 - 1e-3j}),
         [90, 0, 1, 3, 20, 50]),
        # 3-D, unsorted with radius 0; the last box (29^3 points) spans several blocks
        (CoefficientTableSymbol(3, {(0, 0, 0): decaying(-4.0, 2.0), (2, -1, 1): decaying(-3.5, -1j),
                                    (0, 0, 7): 0.5 + 0.5j}), [14, 0, 5, 9, 2]),
    ],
)
def test_l1_membership_ladder_matches_per_point_fsum(sym, radii):
    got = l1_membership_check(sym, radii).ladder
    want = per_point_ladder(sym, radii)
    assert [r for r, _ in got] == [r for r, _ in want] == sorted(radii)
    for (_, g), (_, w) in zip(got, want):
        assert g == pytest.approx(w, rel=1e-13, abs=0)


def test_l1_membership_offset_outside_the_small_rungs_adds_exact_zeros():
    # offset (0, 5) has no column whose row stays in a window of radius < 3
    sym = CoefficientTableSymbol(2, {(0, 5): decaying(-3.0, 1 + 1j)}, order_m=-3.0)
    radii = [1, 2, 3, 40]
    ladder = l1_membership_check(sym, radii).ladder
    assert ladder[0][1] == 0.0 and ladder[1][1] == 0.0
    for (_, g), (_, w) in zip(ladder, per_point_ladder(sym, radii)):
        assert g == pytest.approx(w, rel=1e-13, abs=0)


def test_l1_membership_equal_radii_are_one_rung():
    # one truncated sum is not a Cauchy ladder, however often its radius is given
    report = l1_membership_check(bracket_power_symbol(-2.0), [8, 8])
    assert not report.in_l1
    assert [r for r, _ in report.ladder] == [8]


def test_l1_membership_rejects_negative_radii():
    for radii in ([-1, 2], [3, -5, 8], [-2]):
        with pytest.raises(ValueError, match="negative"):
            l1_membership_check(bracket_power_symbol(-2.0), radii)


def test_l1_membership_to_4m_traces_under_a_megabyte():
    sym = bracket_power_symbol(-2.0)
    tracemalloc.start()
    try:
        l1_membership_check(sym, [100_000, 1_000_000, 2_000_000, 4_000_000])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def as_complex_rule(rule):
    return lambda k: np.asarray(rule(k), dtype=np.complex128)


@pytest.mark.parametrize(
    "rule",
    [
        lambda k: 1.3 / (1.0 + 2.5 * np.sum(k.astype(float) ** 2, axis=1)),  # float64
        lambda k: np.where(k[:, 0] % 2 == 0, -1.0, 0.5) / (1.0 + k[:, 0] ** 2.0),  # signed float64
        lambda k: np.where(k[:, 0] == 3, -0.0, 1.0 / (1.0 + k[:, 0] ** 4.0)),  # a -0.0
        lambda k: (k[:, 0] % 5 - 2).astype(np.int64),  # int64, widened as before
        lambda k: (1.0 / (1.0 + k[:, 0] ** 2.0)).astype(np.float32),  # float32, widened as before
    ],
)
def test_l1_membership_of_a_real_rule_equals_its_complex_form_bit_for_bit(rule):
    radii = [0, 3, 40_000, 100_000]
    real = CoefficientTableSymbol(1, {(0,): rule, (2,): rule, (-1,): 0.5}, order_m=-2.0)
    wide = CoefficientTableSymbol(1, {(0,): as_complex_rule(rule), (2,): as_complex_rule(rule),
                                      (-1,): 0.5}, order_m=-2.0)
    ks = TruncationWindow(50, 1).coords_array()
    for l in real.offsets():
        magnitudes = real.coefficient_abs(l, ks)
        assert magnitudes.dtype == np.float64
        assert magnitudes.tobytes() == np.abs(real.coefficient(l, ks)).tobytes()
    got = [v.hex() for _, v in l1_membership_check(real, radii).ladder]
    assert got == [v.hex() for _, v in l1_membership_check(wide, radii).ladder]


def test_tabulated_symbols_match_dict_lookups():
    rng = np.random.default_rng(21)
    ks = TruncationWindow(7, 2).coords_array()  # the tables reach radius 5
    table = {}
    for idx in rng.integers(-5, 6, size=(40, 2)).tolist():
        table[tuple(idx)] = complex(*rng.standard_normal(2))
    lookup = lambda values: [values.get(k, 0j) for k in map(tuple, ks.tolist())]

    entries = [{"index": list(k), "re": v.real, "im": v.imag} for k, v in table.items()]
    mult = parse_symbol_document({"dimension": 2, "kind": "multiplier", "values": entries})
    assert mult.multiplier(ks).tolist() == lookup(table)
    offsets = {(1, 0): table, (0, -2): {k: 2 * v for k, v in list(table.items())[:5]}}
    doc = {"dimension": 2, "kind": "table", "entries": [
        {"offset": list(l), "index": list(k), "re": v.real, "im": v.imag}
        for l, values in offsets.items()
        for k, v in values.items()
    ]}
    tab = parse_symbol_document(doc)
    for l in [(1, 0), (0, -2), (0, 0)]:
        assert tab.coefficient(l, ks).tolist() == lookup(offsets.get(l, {}))
    empty = parse_symbol_document({"dimension": 2, "kind": "multiplier", "values": []})
    assert empty.multiplier(ks).tolist() == [0j] * len(ks)

    def black_box(x, k):
        return np.exp(2j * np.pi * x) / (1.0 + k[0] ** 2) + 0.5 * (k[0] % 3) * np.cos(4 * np.pi * x)

    w = TruncationWindow(4, 1)
    sym = table_from_samples(black_box, 1, 16, w)
    rows = {}
    for k in map(tuple, w.coords_array().tolist()):
        f = GridFunction.from_function(lambda x: black_box(x, k), 1, 16)
        rows[k] = {l: v for l, v in fourier_coeffs(f, TruncationWindow(7, 1)).items() if abs(v) > 1e-15}
    ks = TruncationWindow(9, 1).coords_array()
    assert sym.offsets() == [(-2,), (1,), (2,)]
    for l in sym.offsets():
        column = {k: row[l] for k, row in rows.items() if l in row}
        assert sym.coefficient(l, ks).tolist() == [column.get((k,), 0j) for k in range(-9, 10)]


def test_table_from_samples_round_trip():
    def black_box(x, k):
        return np.exp(2j * np.pi * x) / (1.0 + k[0] ** 2) + 0.5 * np.cos(2 * np.pi * x)

    sym = table_from_samples(black_box, 1, 16, TruncationWindow(4, 1))
    for k in (-3, 0, 2):
        for x in (0.0, 0.3, 0.9):
            want = black_box(np.array(x), (k,))
            got = sym.evaluate((x,), (k,))
            assert abs(got - complex(want)) <= 1e-12
