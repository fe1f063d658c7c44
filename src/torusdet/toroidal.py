"""Toroidal symbols and the Fourier conjugation between T^n and Z^n.

A symbol sigma(x, k) on T^n x Z^n acts through the Fourier-series
quantization ``(T f)(x) = sum_k e^{2pi i x.k} sigma(x, k) fhat(k)``.  Writing
``sigma_hat(l, k)`` for the Fourier coefficients of ``sigma(., k)`` in the
space variable, the operator's matrix with respect to the exponential basis
is ``A[j, k] = sigma_hat(j - k, k)``, and conjugation by the torus Fourier
transform identifies the operator on L^2(T^n) with that matrix acting on
l^2(Z^n).  Determinants of I + T are therefore computed on the matrix side.

Conventions: unit-volume torus, forward transform with kernel e^{-2pi i x.k},
inverse with e^{+2pi i x.k}; uniform grids with M samples per axis resolve
coefficients up to radius N only when M > 2N (aliasing is refused, never
silently accepted).

Symbols are represented exactly where possible: a frequency multiplier, a
multiplication operator (finite Fourier table), a coefficient table with
finitely many spatial offsets and per-offset vectorized rules in k, or a sum
of such.  A grid-sampled fallback converts black-box symbols to a coefficient
table by FFT.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .lattice import (
    TruncationWindow,
    as_index,
    box_coords,
    box_size,
    bracket_array,
    euclid_norm_array,
    index_keys,
    matching_pairs,
    shell_tail,
    squared_norm_array,
    sup_norm_array,
)
from .l1_algebra import (
    SparseL1Matrix,
    TailModel,
    apply as matrix_apply,
    poincare_determinant,
)


class AliasingError(ValueError):
    """The grid is too coarse for the requested coefficient window."""


class NonSummableSymbolError(ValueError):
    """The symbol's matrix cannot have finite l1 mass."""


class UnsupportedRepresentationError(ValueError):
    """The representation cannot produce the requested coefficient rows."""


class DiagnosticWindowError(ValueError):
    """Too few |k| shells in the window to fit a decay exponent."""


# values (window points times torus points) that the diagnostics synthesize
# or stream at once; bounds their memory whatever the window size.  At 64 KB
# per float array a block's temporaries stay in cache and stay with the
# allocator, where larger ones are handed back to the OS and faulted in again
# for every block.
_BLOCK = 1 << 13


# ---------------------------------------------------------------------------
# symbol representations


class ToroidalSymbol:
    """Base class: a symbol with finitely many spatial-frequency offsets."""

    dimension: int
    order_m = None

    def offsets(self):
        """Spatial frequency support of sigma_hat(., k), as index tuples."""
        raise UnsupportedRepresentationError(
            f"{type(self).__name__} cannot enumerate coefficient rows"
        )

    def coefficient(self, l, k_coords):
        """sigma_hat(l, k) for each row of the (m, n) array ``k_coords``."""
        raise UnsupportedRepresentationError(
            f"{type(self).__name__} cannot produce coefficient rows"
        )

    def coefficient_abs(self, l, k_coords):
        """|sigma_hat(l, k)| for each row of ``k_coords``, as float64."""
        return np.abs(self.coefficient(l, k_coords))

    def evaluate(self, x, k):
        """sigma(x, k) at a single point x (floats) and index k."""
        return complex(self.evaluate_many(np.asarray([x], dtype=float), k)[0])

    def evaluate_many(self, x_points, k):
        """sigma(x, k) for an (m, n) array of torus points, fixed k."""
        k = as_index(k, self.dimension)
        return self.evaluate_block(x_points, np.asarray([k], dtype=np.int64))[0]

    def coefficient_table(self, ks):
        """sigma_hat on a (p, n) index array ks, one ``coefficient`` call per offset.

        Returns ``(zero, offsets, table)``: the zero-offset column (p,), the
        (L, n) array of the L nonzero offsets in ``offsets()`` order, and
        their (p, L) coefficient table.
        """
        ks = np.asarray(ks, dtype=np.int64).reshape(-1, self.dimension)
        origin = (0,) * self.dimension
        support = self.offsets()
        offsets = [l for l in support if l != origin]
        if origin in support:
            zero = self.coefficient(origin, ks)
        else:
            zero = np.zeros(len(ks), dtype=np.complex128)
        # each column goes straight into the table: one copy of it is alive
        table = np.empty((len(ks), len(offsets)), dtype=np.complex128)
        for j, l in enumerate(offsets):
            table[:, j] = self.coefficient(l, ks)
        return zero, np.array(offsets, dtype=np.int64).reshape(-1, self.dimension), table

    def evaluate_block(self, xs, ks):
        """sigma(x, k) for a (p, n) index array ks and a (q, n) point array xs.

        Returns shape (p, q): the coefficient table of ks times the phase
        table of xs, one complex GEMM, plus the zero-offset column added as
        it is (its phase is 1, and an infinite coefficient times 1 + 0j
        would have a nan imaginary part).  Terms are summed in BLAS order,
        not offset by offset.
        """
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        zero, offsets, table = self.coefficient_table(ks)
        return _synthesize(zero, table, _phase_table(offsets, xs))


def _phase_table(offsets, xs):
    """(L, q) table exp(2 pi i l.x) for L offsets and q torus points."""
    return np.exp(2j * np.pi * (offsets.astype(float) @ xs.T))


def _synthesize(zero, table, phases):
    """sum_l table[:, l] phases[l] + zero, shape (p, q)."""
    out = table @ phases
    out += zero[:, None]
    return out


class CoefficientTableSymbol(ToroidalSymbol):
    """sigma_hat given per spatial offset, each a constant or a rule in k."""

    def __init__(self, dimension, table, order_m=None):
        self.dimension = int(dimension)
        self._table = {as_index(l, dimension): c for l, c in table.items()}
        self.order_m = order_m

    def offsets(self):
        return sorted(self._table)

    def _rule_values(self, l, k_coords):
        """(points, values): the rule's own array at ``k_coords``, else its constant or None."""
        k_coords = np.asarray(k_coords, dtype=np.int64).reshape(-1, self.dimension)
        rule = self._table.get(as_index(l, self.dimension))
        if callable(rule):
            return len(k_coords), np.asarray(rule(k_coords))
        return len(k_coords), None if rule is None else complex(rule)

    @staticmethod
    def _as_complex(n, vals):
        if isinstance(vals, np.ndarray):
            return np.asarray(vals, dtype=np.complex128)
        return np.full(n, 0j if vals is None else vals, dtype=np.complex128)

    def coefficient(self, l, k_coords):
        return self._as_complex(*self._rule_values(l, k_coords))

    def coefficient_abs(self, l, k_coords):
        """|sigma_hat(l, k)|; a rule's float64 values are not widened to complex first.

        |x| equals |x + 0j| exactly, so the magnitudes are those of ``coefficient``.
        """
        n, vals = self._rule_values(l, k_coords)
        if not (isinstance(vals, np.ndarray) and vals.dtype == np.float64):
            vals = self._as_complex(n, vals)
        return np.abs(vals)


class MultiplierSymbol(CoefficientTableSymbol):
    """x-independent symbol sigma(x, k) = m(k); matrix side is diagonal."""

    def __init__(self, dimension, values, order_m=None):
        """``values`` maps an (m, n) int array of indices to complex values."""
        super().__init__(dimension, {(0,) * int(dimension): values}, order_m=order_m)

    def multiplier(self, k_coords):
        return self.coefficient((0,) * self.dimension, k_coords)


class MultiplicationSymbol(CoefficientTableSymbol):
    """Multiplication by Q(x) = sum_l qhat(l) e^{2pi i x.l}, finite table.

    Its matrix is Toeplitz with constant diagonals, so it is never l1 on the
    full lattice unless Q = 0; determinant use is rejected upstream.
    """

    def __init__(self, dimension, coeffs):
        super().__init__(dimension, {l: complex(v) for l, v in coeffs.items() if v != 0})

    @property
    def coeffs(self):
        return dict(self._table)


class SymbolSum(CoefficientTableSymbol):
    """Pointwise sum of symbols on the same torus, one summed rule per offset."""

    def __init__(self, parts):
        parts = list(parts)
        if not parts:
            raise ValueError("SymbolSum needs at least one part")
        dims = {p.dimension for p in parts}
        if len(dims) != 1:
            raise ValueError(f"parts live on different dimensions: {sorted(dims)}")
        orders = [p.order_m for p in parts]
        order_m = max(orders) if all(o is not None for o in orders) else None
        rules = {l: functools.partial(_part_sum, parts, l) for p in parts for l in p.offsets()}
        super().__init__(dims.pop(), rules, order_m)
        self.parts = parts


def _part_sum(parts, l, k_coords):
    """sigma_hat(l, k) of a sum: the parts' coefficients added in part order."""
    total = np.zeros(len(k_coords), dtype=np.complex128)
    for p in parts:
        total += p.coefficient(l, k_coords)
    return total


def _tabulated_rule(values, dimension):
    """Vectorized rule k -> ``values[k]`` for a table {index tuple: value}, 0 off it."""
    index = np.array(list(values), dtype=np.int64).reshape(len(values), dimension)
    table = np.fromiter(values.values(), dtype=np.complex128, count=len(values))

    def rule(k_coords):
        out = np.zeros(len(k_coords), dtype=np.complex128)
        i, j = matching_pairs(*index_keys(k_coords, index))
        out[i] = table[j]
        return out

    return rule


def fractional_laplacian_symbol(nu, dimension):
    """Multiplier (2pi)^nu |k|^nu of the fractional Laplacian, order nu.

    Values beyond the float range are inf.
    """
    if nu <= 0:
        raise ValueError(f"nu must be positive, got {nu}")

    def values(k_coords):
        norm = euclid_norm_array(k_coords)
        with np.errstate(over="ignore"):
            return ((2.0 * np.pi) * norm) ** nu + 0.0j

    return MultiplierSymbol(dimension, values, order_m=float(nu))


# ---------------------------------------------------------------------------
# grid functions and Fourier analysis


@dataclass(frozen=True)
class GridFunction:
    """Samples on the uniform grid (j_1/M, ..., j_n/M), 0 <= j_i < M."""

    dimension: int
    size: int
    samples: np.ndarray

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("grid size must be >= 1")
        expected = (self.size,) * self.dimension
        if self.samples.shape != expected:
            raise ValueError(
                f"sample array shape {self.samples.shape}, expected {expected}"
            )

    @classmethod
    def from_function(cls, fn, dimension, size):
        """Sample ``fn`` (vectorized over coordinate arrays) on the grid."""
        axes = [np.arange(size) / size] * dimension
        grids = np.meshgrid(*axes, indexing="ij")
        return cls(dimension, size, np.asarray(fn(*grids), dtype=np.complex128))

    @property
    def alias_free_radius(self):
        """Largest coefficient radius the grid resolves without aliasing."""
        return (self.size - 1) // 2


def fourier_coeffs(f: GridFunction, w: TruncationWindow):
    """Discrete torus Fourier coefficients on the window, {index: value}.

    Exact for trigonometric polynomials of degree <= N when M > 2N; coarser
    grids are refused.
    """
    if w.dimension != f.dimension:
        raise ValueError(f"dimension {f.dimension} vs window {w.dimension}")
    if f.size <= 2 * w.radius:
        raise AliasingError(
            f"grid size {f.size} cannot resolve radius {w.radius}: need M > 2N"
        )
    spectrum = np.fft.fftn(f.samples) / f.size**f.dimension
    coords = w.coords_array()
    bins = tuple((coords[:, i] % f.size) for i in range(f.dimension))
    vals = spectrum[bins]
    return {
        tuple(int(c) for c in coords[i]): complex(vals[i]) for i in range(len(coords))
    }


def coeffs_to_grid(coeffs, dimension, size):
    """Inverse transform of finitely many coefficients onto an M-grid."""
    radius = max((sup_norm_array(np.array(list(coeffs), dtype=np.int64).reshape(len(coeffs), -1))).max(), 0) if coeffs else 0
    if size <= 2 * radius:
        raise AliasingError(
            f"grid size {size} cannot hold coefficients of radius {radius}"
        )
    spectrum = np.zeros((size,) * dimension, dtype=np.complex128)
    for k, v in coeffs.items():
        k = as_index(k, dimension)
        spectrum[tuple(c % size for c in k)] += v
    samples = np.fft.ifftn(spectrum) * size**dimension
    return GridFunction(dimension, size, samples)


def gamma_apply(a: SparseL1Matrix, f: GridFunction):
    """Conjugated action F^{-1} A F on a grid function.

    Transforms f, applies the matrix to the coefficients, checks the output
    stays inside the alias-free window, and transforms back on the same grid.
    """
    if a.dimension != f.dimension:
        raise ValueError(f"dimension {a.dimension} vs grid {f.dimension}")
    n_free = f.alias_free_radius
    coeffs = fourier_coeffs(f, TruncationWindow(n_free, f.dimension))
    coeffs = {k: v for k, v in coeffs.items() if v != 0}
    out = matrix_apply(a, coeffs)
    if out:
        out_radius = max(max(abs(c) for c in k) for k in out)
        if out_radius > n_free:
            raise AliasingError(
                f"matrix action produces frequency radius {out_radius} beyond "
                f"the grid's alias-free radius {n_free}"
            )
    return coeffs_to_grid(out, f.dimension, f.size)


# ---------------------------------------------------------------------------
# symbol <-> matrix


def symbol_to_matrix(sigma: ToroidalSymbol, w: TruncationWindow):
    """Matrix A[j, k] = sigma_hat(j - k, k) on the window, plus a tail model.

    The tail model is exact when the symbol's coefficients vanish off the
    window, a decay-based estimate when the symbol carries order metadata
    m < -n (constant fitted on the window, factor-2 safety margin; an
    estimate, not a certificate), and an infinite bound otherwise.
    """
    if w.dimension != sigma.dimension:
        raise ValueError(f"dimension {sigma.dimension} vs window {w.dimension}")
    n = sigma.dimension
    cols = w.coords_array()
    rows_out, cols_out, vals_out = [], [], []
    peak_ratio = 0.0
    brackets = bracket_array(cols)
    for l in sigma.offsets():
        vals = sigma.coefficient(l, cols)
        if sigma.order_m is not None:
            with np.errstate(over="ignore"):
                ratios = np.abs(vals) / brackets**sigma.order_m
            peak_ratio = max(peak_ratio, float(np.max(ratios, initial=0.0)))
        rows = cols + np.asarray(l, dtype=np.int64)
        keep = (sup_norm_array(rows) <= w.radius) & (vals != 0)
        if np.any(keep):
            rows_out.append(rows[keep])
            cols_out.append(cols[keep])
            vals_out.append(vals[keep])
    if vals_out:
        matrix = SparseL1Matrix.from_arrays(
            n,
            np.concatenate(rows_out),
            np.concatenate(cols_out),
            np.concatenate(vals_out),
        )
    else:
        matrix = SparseL1Matrix.zero(n)

    offsets = sigma.offsets()
    if not offsets:
        tail = TailModel.exact_finite()
    elif sigma.order_m is not None and sigma.order_m < -n:
        m = float(sigma.order_m)
        shift = max(int(np.max(np.abs(np.asarray(offsets)))), 0)
        constant = 2.0 * peak_ratio * len(offsets)

        def bound(radius, _c=constant, _m=m, _n=n, _shift=shift):
            return _c * shell_tail(max(radius - _shift, 0), _n, -_m)

        tail = TailModel.user_bound(bound)
    else:
        tail = TailModel.user_bound(lambda radius: math.inf)
    return matrix, tail


def matrix_to_symbol(a: SparseL1Matrix, x, k):
    """Recover sigma(x, k) = sum_j A[j, k] e^{2pi i x.(j-k)} from column k."""
    k = as_index(k, a.dimension)
    x = np.asarray(x, dtype=float).reshape(a.dimension)
    sel = np.all(a.cols == np.asarray(k, dtype=np.int64), axis=1)
    if not np.any(sel):
        return 0.0j
    offsets = a.rows[sel] - np.asarray(k, dtype=np.int64)
    phases = np.exp(2j * np.pi * (offsets @ x))
    return complex(np.sum(a.vals[sel] * phases))


def det_gamma(sigma: ToroidalSymbol, tol, max_radius=64):
    """Determinant of I + T for the operator quantized from the symbol.

    Defined as the extended determinant of I + A for the symbol's matrix,
    materialized on the window of radius max(8 ``max_radius``, 1024);
    symbols whose matrices cannot be l1 (no coefficient decay, e.g. any
    nonzero pure multiplication) are rejected with a diagnostic.
    """
    n = sigma.dimension
    if sigma.offsets():
        if isinstance(sigma, MultiplicationSymbol):
            raise NonSummableSymbolError(
                "multiplication symbols have constant matrix diagonals with "
                "infinite l1 mass; no determinant is defined"
            )
        if sigma.order_m is None or sigma.order_m >= -n:
            raise NonSummableSymbolError(
                f"symbol order {sigma.order_m} does not satisfy m < -n = {-n}; "
                "matrix summability is not guaranteed"
            )
    window = TruncationWindow(max(8 * max_radius, 1024), n)
    matrix, tail = symbol_to_matrix(sigma, window)
    return poincare_determinant(matrix, tail, tol, max_radius=max_radius)


# ---------------------------------------------------------------------------
# norms and diagnostics


def sobolev_norm(coeffs, s):
    """H^s norm (sum <k>^{2s} |u_hat(k)|^2)^{1/2} of finite coefficients."""
    if not coeffs:
        return 0.0
    idx = np.array([as_index(k) for k in coeffs], dtype=np.int64)
    vals = np.fromiter(coeffs.values(), dtype=np.complex128, count=len(coeffs))
    weights = (1.0 + squared_norm_array(idx)) ** s
    return float(np.sqrt(np.sum(weights * np.abs(vals) ** 2)))


@dataclass(frozen=True)
class EllipticityReport:
    passed: bool
    C0: float
    n0: int
    worst: tuple  # (x, k, Re sigma) at the binding sample


def _x_grid_points(dimension, size):
    return box_coords((0,) * dimension, (size - 1,) * dimension) / size


def _run_starts(sorted_values):
    """Positions where a new run of equal values begins in a sorted array."""
    return np.flatnonzero(np.concatenate([[True], sorted_values[1:] != sorted_values[:-1]]))


def _ratios(values, brackets, power):
    """values / brackets**power, in log space where the power leaves the float range.

    Where brackets**power overflows or underflows to 0, the ratio is
    exp(log|value| - power log bracket) with the sign of the value.
    """
    with np.errstate(over="ignore", under="ignore"):
        weights = brackets**power
    out = np.empty(len(values))
    ok = (weights > 0) & (weights < math.inf)
    np.divide(values, weights, out=out, where=ok)
    far = ~ok
    with np.errstate(divide="ignore", over="ignore"):  # log 0 = -inf gives the ratio 0
        log_ratio = np.log(np.abs(values[far])) - power * np.log(brackets[far])
        out[far] = np.sign(values[far]) * np.exp(log_ratio)
    return weights, out


def strong_ellipticity_check(sigma: ToroidalSymbol, m, w: TruncationWindow, x_grid=16):
    """Sampled lower-bound check Re sigma(x, k) >= C0 <k>^m for |k| >= n0.

    Builds the window's coefficient table and the x-grid's phase table
    once, synthesizes sigma in row blocks of window points, then reports
    the smallest integer n0 and the largest finite C0 > 0 valid on the
    sample, or passed=False when no threshold works.  A failing check is a
    report, not an error.  Memory is O(window x offsets) for the
    coefficient table plus one row block.  Where <k>^m overflows or
    underflows to 0, the ratio Re sigma / <k>^m is taken in log space, with
    the sign of Re sigma.  A sample where Re sigma and <k>^m both underflow
    to 0 is not resolved in floating point and constrains nothing; a pass
    needs a resolved sample at or beyond n0, so C0 is finite.
    """
    xs = _x_grid_points(sigma.dimension, x_grid)
    coords = w.coords_array()
    norms2 = squared_norm_array(coords, np.int64)
    brackets = bracket_array(coords)

    zero, offsets, table = sigma.coefficient_table(coords)
    phases = _phase_table(offsets, xs)
    re_min = np.empty(len(coords))
    worst_x = np.empty(len(coords), dtype=np.int64)
    rows = max(1, _BLOCK // len(xs))
    for start in range(0, len(coords), rows):
        block = slice(start, start + rows)
        re_vals = _synthesize(zero[block], table[block], phases).real
        worst_x[block] = np.argmin(re_vals, axis=1)
        re_min[block] = re_vals[np.arange(len(re_vals)), worst_x[block]]
    weights, ratios = _ratios(re_min, brackets, m)
    # where both underflow to 0, 0 >= C0 * 0 holds for every C0; the
    # synthesis's sums do not keep the sign of an underflowed term, so a
    # zero of either sign counts
    ratios[(re_min == 0) & (weights == 0)] = math.inf

    def report(i):
        value = ratios[i] * weights[i] if 0 < weights[i] < math.inf else re_min[i]
        return (
            tuple(float(v) for v in xs[worst_x[i]]),
            tuple(int(c) for c in coords[i]),
            float(value),
        )

    order = np.argsort(norms2, kind="stable")
    sorted_norms2 = norms2[order]
    sorted_ratios = ratios[order]
    suffix_min = np.minimum.accumulate(sorted_ratios[::-1])[::-1]

    for start in _run_starts(sorted_norms2):
        c0 = float(suffix_min[start])
        if 0 < c0 < math.inf:
            n0 = math.isqrt(int(sorted_norms2[start]))
            if n0 * n0 < sorted_norms2[start]:
                n0 += 1
            binding = order[start:][np.argmin(sorted_ratios[start:])]
            return EllipticityReport(True, c0, int(n0), report(binding))
    return EllipticityReport(False, 0.0, 0, report(int(np.argmin(ratios))))


@dataclass(frozen=True)
class OrderFit:
    """Decay fit for one difference order alpha."""

    alpha: tuple
    exponent: float  # fitted slope of log|Delta^a sigma| vs log<k>; nan if all zero
    constant: float  # max |Delta^a sigma| / <k>^exponent over the sample


@dataclass(frozen=True)
class OrderDiagnostic:
    order_estimate: float  # fitted exponent at alpha = 0
    fits: dict  # alpha -> OrderFit


def _difference_table(values, alpha):
    out = values
    for axis, a in enumerate(alpha):
        for _ in range(a):
            out = np.diff(out, axis=axis)
    return out


def symbol_order_diagnostic(sigma, alpha_max, w: TruncationWindow, x_grid=4):
    """Fit <k>-power decay of |Delta_k^alpha sigma| for each alpha <= alpha_max.

    Least squares of log magnitude against log <k> over sup-norm shells; the
    slope estimates m - |alpha|.  A non-finite magnitude (an overflowed
    value, or inf - inf in a difference) counts as inf; shells whose
    largest magnitude is 0 or inf stay out of the fit, and the constant is
    inf when any sampled magnitude is; where <k>^slope leaves the float
    range the constant's ratios are taken in log space.  Advisory only:
    symbol classes are sup bounds, a finite sample cannot prove them.
    """
    alpha_max = as_index(alpha_max, sigma.dimension)
    n = sigma.dimension
    # the window extended by alpha_max on the high side of each axis, so
    # that every difference of order alpha <= alpha_max starts in the window
    coords = box_coords((-w.radius,) * n, tuple(w.radius + a for a in alpha_max))
    box_shape = tuple(2 * w.radius + 1 + a for a in alpha_max)

    base_slices = tuple(slice(0, 2 * w.radius + 1) for _ in range(n))
    base_coords = w.coords_array()
    shells = sup_norm_array(base_coords)
    by_shell = np.argsort(shells, kind="stable")
    shell_starts = _run_starts(shells[by_shell])
    if len(shell_starts) < 4:
        raise DiagnosticWindowError(
            f"window has {len(shell_starts)} distinct |k| shells; need >= 4 to fit"
        )
    brackets = bracket_array(base_coords)
    shell_bracket = np.maximum.reduceat(brackets[by_shell], shell_starts)

    xs = _x_grid_points(n, x_grid)
    # Delta^alpha is linear in sigma_hat: difference the box's coefficient
    # table once per alpha, then synthesize |Delta^alpha sigma| in row blocks
    zero, offsets, table = sigma.coefficient_table(coords)
    zero = zero.reshape(box_shape)
    table = table.reshape(box_shape + (len(offsets),))
    phases = _phase_table(offsets, xs)

    fits = {}
    for alpha in itertools.product(*(range(a + 1) for a in alpha_max)):
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf is nan
            d_zero = _difference_table(zero, alpha)[base_slices].reshape(-1)
            d_table = _difference_table(table, alpha)[base_slices].reshape(len(d_zero), -1)
            # an offset whose coefficient is constant in k (a multiplication
            # part) differences to 0 and adds nothing at any x; with no
            # offset left, Delta^alpha sigma is the same at every x and one
            # x sample gives its magnitude
            live = np.any(d_table != 0, axis=0)
            d_table, live_phases = d_table[:, live], phases[live]
            if not live.any():
                live_phases = live_phases[:, :1]
            rows = max(1, _BLOCK // live_phases.shape[1])
            mags = np.empty(len(d_zero))
            for start in range(0, len(mags), rows):
                block = slice(start, start + rows)
                values = _synthesize(d_zero[block], d_table[block], live_phases)
                mags[block] = np.abs(values).max(axis=1)
        mags[~np.isfinite(mags)] = math.inf
        shell_max = np.maximum.reduceat(mags[by_shell], shell_starts)
        finite = shell_max < math.inf
        fit = finite & (shell_max > 0)
        if np.count_nonzero(fit) < 4:
            fits[alpha] = OrderFit(alpha, float("nan"), float(np.max(shell_max)))
            continue
        slope, _ = np.polyfit(np.log(shell_bracket[fit]), np.log(shell_max[fit]), 1)
        constant = float(np.max(_ratios(mags, brackets, slope)[1])) if finite.all() else math.inf
        fits[alpha] = OrderFit(alpha, float(slope), constant)

    return OrderDiagnostic(order_estimate=fits[(0,) * n].exponent, fits=fits)


def _rung_pieces(l, radii):
    """Disjoint (lo, hi, rung) boxes of the columns that offset ``l`` adds per rung.

    Column k holds an entry of rung j's window when |k| and |k + l| are both
    at most r = radii[j], that is when k lies in the box
    prod_i [max(-r, -r - l_i), min(r, r - l_i)], which may be empty.  The
    boxes grow with r, so rung j adds B_j minus B_{j-1}: per axis, the slabs
    below and above B_{j-1}, inside B_{j-1} on the earlier axes.  Together
    the pieces tile the last box.
    """
    pieces = []
    inner = None
    for j, r in enumerate(radii):
        lo = [max(-r, -r - c) for c in l]
        hi = [min(r, r - c) for c in l]
        if box_size(lo, hi) == 0:
            continue  # the earlier boxes, nested in this one, are empty too
        if inner is None:
            pieces.append((lo, hi, j))
        else:
            ilo, ihi = inner
            for axis in range(len(l)):
                for a, b in ((lo[axis], ilo[axis] - 1), (ihi[axis] + 1, hi[axis])):
                    if a <= b:
                        pieces.append((ilo[:axis] + [a] + lo[axis + 1:],
                                       ihi[:axis] + [b] + hi[axis + 1:], j))
        inner = (lo, hi)
    return pieces


def _piece_blocks(pieces):
    """The pieces' points back to back, in blocks of ``_BLOCK`` points.

    Yields ``(parts, cuts, rungs)`` per block: the coordinate arrays of the
    stretches of pieces that fill it, in order, the block position where
    each stretch starts, and each stretch's rung.
    """
    parts, cuts, rungs, filled = [], [], [], 0
    for lo, hi, rung in pieces:
        size, at = box_size(lo, hi), 0
        while at < size:
            take = min(size - at, _BLOCK - filled)
            parts.append(box_coords(lo, hi, at, at + take))
            cuts.append(filled)
            rungs.append(rung)
            at, filled = at + take, filled + take
            if filled == _BLOCK:
                yield parts, cuts, rungs
                parts, cuts, rungs, filled = [], [], [], 0
    if parts:
        yield parts, cuts, rungs


@dataclass(frozen=True)
class L1MembershipReport:
    in_l1: bool
    ladder: list  # (radius, truncated l1 norm)
    order_used: float
    warning: str = ""


def l1_membership_check(sigma: ToroidalSymbol, radii, order_m=None, cauchy_tol=1e-6):
    """Truncated l1 norms over a window ladder plus the order criterion.

    ``in_l1`` requires strict order decay m < -n and a Cauchy norm ladder
    (successive differences below ``cauchy_tol``).  Boundary order m = -n is
    rejected with a warning.  Equal radii are one rung, so the ladder needs
    two distinct radii to be Cauchy; a negative radius is a ValueError.
    """
    n = sigma.dimension
    radii = sorted({int(r) for r in radii})
    if not radii:
        raise ValueError("need at least one ladder radius")
    if radii[0] < 0:
        raise ValueError(f"ladder radius {radii[0]} is negative")
    m = order_m if order_m is not None else sigma.order_m
    warning = ""
    if m is None:
        try:
            diag = symbol_order_diagnostic(
                sigma, (1,) * n, TruncationWindow(min(radii[-1], 32), n)
            )
            m = diag.order_estimate
            warning = f"order estimated from decay fit: m ~ {m:.3f}"
        except DiagnosticWindowError:
            m = math.inf
            warning = "order unavailable; assuming non-summable"

    # an entry counts toward every rung whose window holds both its row and
    # its column; per offset, those columns tile into boxes by the first such
    # rung, so each rung's new mass is a sum over its boxes, and the ladder is
    # the cumulative sum of the rungs' masses
    masses = np.zeros(len(radii))
    for l in sigma.offsets():
        for parts, cuts, rungs in _piece_blocks(_rung_pieces(l, radii)):
            cols = parts[0] if len(parts) == 1 else np.concatenate(parts)
            vals = sigma.coefficient_abs(l, cols)
            masses += np.bincount(rungs, weights=np.add.reduceat(vals, cuts), minlength=len(radii))
    ladder = [(r, float(t)) for r, t in zip(radii, np.cumsum(masses))]

    diffs = [abs(ladder[i + 1][1] - ladder[i][1]) for i in range(len(ladder) - 1)]
    cauchy = bool(diffs and diffs[-1] <= cauchy_tol)
    if m == -n:
        warning = (warning + "; " if warning else "") + (
            f"boundary order m = -n = {-n}: summability fails non-strictly"
        )
    in_l1 = (m is not None) and (m < -n) and cauchy
    return L1MembershipReport(in_l1=in_l1, ladder=ladder, order_used=float(m), warning=warning)


def table_from_samples(fn, dimension, grid_size, w: TruncationWindow, order_m=None):
    """Grid-FFT fallback: tabulate a black-box sigma(x, k) on a window.

    ``fn(x_arrays..., k)`` must evaluate vectorized over grid coordinate
    arrays at a fixed index k.  Row coefficients are exact for symbols that
    are trigonometric polynomials of degree < grid_size / 2 in x.
    """
    per_k = {}
    for row in w.coords_array():
        k = tuple(int(c) for c in row)
        f = GridFunction.from_function(lambda *xs: fn(*xs, k), dimension, grid_size)
        coeffs = fourier_coeffs(f, TruncationWindow((grid_size - 1) // 2, dimension))
        per_k[k] = {l: v for l, v in coeffs.items() if abs(v) > 1e-15}
    offsets = dict.fromkeys(l for coeffs in per_k.values() for l in coeffs)
    table = {
        l: _tabulated_rule({k: c[l] for k, c in per_k.items() if l in c}, dimension)
        for l in offsets
    }
    return CoefficientTableSymbol(dimension, table, order_m=order_m)
