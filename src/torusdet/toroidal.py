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

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .lattice import (
    TruncationWindow,
    as_index,
    bracket_array,
    index_keys,
    matching_pairs,
    shell_tail,
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


# window points (times torus points, for the ellipticity sweep) that the
# diagnostics evaluate at once; bounds their memory whatever the window size.
# At 64 KB per float array a block's temporaries stay in cache and stay with
# the allocator, where larger ones are handed back to the OS and faulted in
# again for every block.
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

    def evaluate(self, x, k):
        """sigma(x, k) at a single point x (floats) and index k."""
        return complex(self.evaluate_many(np.asarray([x], dtype=float), k)[0])

    def evaluate_many(self, x_points, k):
        """sigma(x, k) for an (m, n) array of torus points, fixed k."""
        k = as_index(k, self.dimension)
        return self.evaluate_block(x_points, np.asarray([k], dtype=np.int64))[0]

    def evaluate_block(self, xs, ks):
        """sigma(x, k) for a (p, n) index array ks and a (q, n) point array xs.

        Returns shape (p, q).  Offsets are summed in ``offsets()`` order and a
        zero coefficient adds nothing (not even 0 times a non-finite phase),
        so each row is bit-identical to summing one k at a time.  The zero
        offset adds its coefficient itself: its phase is 1, and an infinite
        coefficient times 1 + 0j would have a nan imaginary part.
        """
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        ks = np.asarray(ks, dtype=np.int64).reshape(-1, self.dimension)
        total = np.zeros((len(ks), len(xs)), dtype=np.complex128)
        for l in self.offsets():
            c = self.coefficient(l, ks)
            nonzero = c != 0
            if not nonzero.any():
                continue
            if not any(l):
                total += c[:, None]
                continue
            phase = np.exp(2j * np.pi * (xs @ np.asarray(l, dtype=float)))
            if nonzero.all():
                total += c[:, None] * phase
            else:
                total[nonzero] += c[nonzero, None] * phase
        return total


class MultiplierSymbol(ToroidalSymbol):
    """x-independent symbol sigma(x, k) = m(k); matrix side is diagonal."""

    def __init__(self, dimension, values, order_m=None):
        """``values`` maps an (m, n) int array of indices to complex values."""
        self.dimension = int(dimension)
        self._values = values
        self.order_m = order_m

    def offsets(self):
        return [(0,) * self.dimension]

    def coefficient(self, l, k_coords):
        k_coords = np.asarray(k_coords, dtype=np.int64).reshape(-1, self.dimension)
        if any(c != 0 for c in l):
            return np.zeros(len(k_coords), dtype=np.complex128)
        return np.asarray(self._values(k_coords), dtype=np.complex128)

    def multiplier(self, k_coords):
        return self.coefficient((0,) * self.dimension, k_coords)


class MultiplicationSymbol(ToroidalSymbol):
    """Multiplication by Q(x) = sum_l qhat(l) e^{2pi i x.l}, finite table.

    Its matrix is Toeplitz with constant diagonals, so it is never l1 on the
    full lattice unless Q = 0; determinant use is rejected upstream.
    """

    def __init__(self, dimension, coeffs):
        self.dimension = int(dimension)
        self._coeffs = {
            as_index(l, dimension): complex(v) for l, v in coeffs.items() if v != 0
        }

    def offsets(self):
        return sorted(self._coeffs)

    def coefficient(self, l, k_coords):
        l = as_index(l, self.dimension)
        v = self._coeffs.get(l, 0.0)
        return np.full(np.asarray(k_coords).reshape(-1, self.dimension).shape[0], v, dtype=np.complex128)

    @property
    def coeffs(self):
        return dict(self._coeffs)


class CoefficientTableSymbol(ToroidalSymbol):
    """sigma_hat given per spatial offset, each a constant or a rule in k."""

    def __init__(self, dimension, table, order_m=None):
        self.dimension = int(dimension)
        self._table = {as_index(l, dimension): c for l, c in table.items()}
        self.order_m = order_m

    def offsets(self):
        return sorted(self._table)

    def coefficient(self, l, k_coords):
        l = as_index(l, self.dimension)
        k_coords = np.asarray(k_coords, dtype=np.int64).reshape(-1, self.dimension)
        rule = self._table.get(l)
        if rule is None:
            return np.zeros(len(k_coords), dtype=np.complex128)
        if callable(rule):
            return np.asarray(rule(k_coords), dtype=np.complex128)
        return np.full(len(k_coords), complex(rule), dtype=np.complex128)


class SymbolSum(ToroidalSymbol):
    """Pointwise sum of symbols on the same torus."""

    def __init__(self, parts):
        parts = list(parts)
        if not parts:
            raise ValueError("SymbolSum needs at least one part")
        dims = {p.dimension for p in parts}
        if len(dims) != 1:
            raise ValueError(f"parts live on different dimensions: {sorted(dims)}")
        self.dimension = dims.pop()
        self.parts = parts
        orders = [p.order_m for p in parts]
        self.order_m = max(orders) if all(o is not None for o in orders) else None

    def offsets(self):
        out = set()
        for p in self.parts:
            out.update(p.offsets())
        return sorted(out)

    def coefficient(self, l, k_coords):
        k_coords = np.asarray(k_coords, dtype=np.int64).reshape(-1, self.dimension)
        total = np.zeros(len(k_coords), dtype=np.complex128)
        for p in self.parts:
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
        norm = np.sqrt(np.sum(np.asarray(k_coords, dtype=float) ** 2, axis=1))
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
    weights = (1.0 + np.sum(idx.astype(float) ** 2, axis=1)) ** s
    return float(np.sqrt(np.sum(weights * np.abs(vals) ** 2)))


@dataclass(frozen=True)
class EllipticityReport:
    passed: bool
    C0: float
    n0: int
    worst: tuple  # (x, k, Re sigma) at the binding sample


def _x_grid_points(dimension, size):
    axes = [np.arange(size) / size] * dimension
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def _run_starts(sorted_values):
    """Positions where a new run of equal values begins in a sorted array."""
    return np.flatnonzero(np.concatenate([[True], sorted_values[1:] != sorted_values[:-1]]))


def strong_ellipticity_check(sigma: ToroidalSymbol, m, w: TruncationWindow, x_grid=16):
    """Sampled lower-bound check Re sigma(x, k) >= C0 <k>^m for |k| >= n0.

    Sweeps the x-grid and the window, in blocks of window points, then
    reports the smallest integer n0 and the largest C0 > 0 valid on the
    sample, or passed=False when no threshold works.  A failing check is a
    report, not an error.  Where <k>^m overflows, the ratio Re sigma / <k>^m
    is taken in log space, with the sign of Re sigma.
    """
    xs = _x_grid_points(sigma.dimension, x_grid)
    coords = w.coords_array()
    norms2 = np.sum(coords.astype(np.int64) ** 2, axis=1)
    brackets = bracket_array(coords)
    with np.errstate(over="ignore"):
        weights = brackets**m

    re_min = np.empty(len(coords))
    worst_x = np.empty(len(coords), dtype=np.int64)
    rows = max(1, _BLOCK // len(xs))
    for start in range(0, len(coords), rows):
        block = slice(start, start + rows)
        re_vals = np.real(sigma.evaluate_block(xs, coords[block]))
        worst_x[block] = np.argmin(re_vals, axis=1)
        re_min[block] = re_vals[np.arange(len(re_vals)), worst_x[block]]
    big = ~np.isfinite(weights)
    ratios = re_min / np.where(big, 1.0, weights)
    with np.errstate(divide="ignore"):  # log 0 = -inf gives the ratio 0
        log_ratio = np.log(np.abs(re_min[big])) - m * np.log(brackets[big])
    ratios[big] = np.sign(re_min[big]) * np.exp(log_ratio)

    order = np.argsort(norms2, kind="stable")
    sorted_norms2 = norms2[order]
    sorted_ratios = ratios[order]
    suffix_min = np.minimum.accumulate(sorted_ratios[::-1])[::-1]

    for start in _run_starts(sorted_norms2):
        c0 = float(suffix_min[start])
        if c0 > 0:
            n0 = math.isqrt(int(sorted_norms2[start]))
            if n0 * n0 < sorted_norms2[start]:
                n0 += 1
            rel = order[start:][np.argmin(sorted_ratios[start:])]
            worst = (
                tuple(float(v) for v in xs[worst_x[rel]]),
                tuple(int(c) for c in coords[rel]),
                float(ratios[rel] * weights[rel]),
            )
            return EllipticityReport(True, c0, int(n0), worst)
    rel = int(np.argmin(ratios))
    worst = (
        tuple(float(v) for v in xs[worst_x[rel]]),
        tuple(int(c) for c in coords[rel]),
        float(ratios[rel] * weights[rel]),
    )
    return EllipticityReport(False, 0.0, 0, worst)


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
    inf when any sampled magnitude is.  Advisory only: symbol classes are
    sup bounds, a finite sample cannot prove them.
    """
    alpha_max = as_index(alpha_max, sigma.dimension)
    n = sigma.dimension
    ext = [range(-w.radius, w.radius + 1 + a) for a in alpha_max]
    grids = np.meshgrid(*[np.array(list(r), dtype=np.int64) for r in ext], indexing="ij")
    coords = np.stack([g.ravel() for g in grids], axis=1)
    box_shape = tuple(len(r) for r in ext)

    xs = _x_grid_points(n, x_grid)
    # sigma on the box, one table per x sample, in blocks of box points
    tables = np.empty((len(xs), len(coords)), dtype=np.complex128)
    rows = max(1, _BLOCK // len(xs))
    with np.errstate(invalid="ignore", over="ignore"):  # nan counts as inf below
        for start in range(0, len(coords), rows):
            block = slice(start, start + rows)
            tables[:, block] = sigma.evaluate_block(xs, coords[block]).T
    tables = tables.reshape((len(xs),) + box_shape)

    base_slices = tuple(slice(0, 2 * w.radius + 1) for _ in range(n))
    base_coords = coords.reshape(box_shape + (n,))[base_slices].reshape(-1, n)
    shells = sup_norm_array(base_coords)
    by_shell = np.argsort(shells, kind="stable")
    shell_starts = _run_starts(shells[by_shell])
    if len(shell_starts) < 4:
        raise DiagnosticWindowError(
            f"window has {len(shell_starts)} distinct |k| shells; need >= 4 to fit"
        )
    brackets = bracket_array(base_coords)
    shell_bracket = np.maximum.reduceat(brackets[by_shell], shell_starts)

    fits = {}
    for alpha in itertools.product(*(range(a + 1) for a in alpha_max)):
        mags = None
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf is nan
            for table in tables:
                m = np.abs(_difference_table(table, alpha)[base_slices]).reshape(-1)
                mags = m if mags is None else np.maximum(mags, m)
        mags[~np.isfinite(mags)] = math.inf
        shell_max = np.maximum.reduceat(mags[by_shell], shell_starts)
        finite = shell_max < math.inf
        fit = finite & (shell_max > 0)
        if np.count_nonzero(fit) < 4:
            fits[alpha] = OrderFit(alpha, float("nan"), float(np.max(shell_max)))
            continue
        slope, _ = np.polyfit(np.log(shell_bracket[fit]), np.log(shell_max[fit]), 1)
        constant = float(np.max(mags / brackets**slope)) if finite.all() else math.inf
        fits[alpha] = OrderFit(alpha, float(slope), constant)

    zero = (0,) * n
    return OrderDiagnostic(order_estimate=fits[zero].exponent, fits=fits)


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
    rejected with a warning.
    """
    n = sigma.dimension
    radii = sorted(int(r) for r in radii)
    if not radii:
        raise ValueError("need at least one ladder radius")
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

    # stream the largest window in blocks; an entry counts toward every rung
    # whose window holds both its row and its column, so its mass goes to the
    # bucket of the first such rung (the last bucket: no rung) and the ladder
    # is the cumulative sum of the buckets
    big = TruncationWindow(radii[-1], n)
    rungs = np.asarray(radii)
    buckets = np.zeros(len(radii) + 1)
    for start in range(0, big.size, _BLOCK):
        cols = big.coords_array(start, start + _BLOCK)
        col_radii = sup_norm_array(cols)
        for l in sigma.offsets():
            vals = np.abs(sigma.coefficient(l, cols))
            eff = np.maximum(col_radii, sup_norm_array(cols + np.asarray(l, dtype=np.int64)))
            rung = np.searchsorted(rungs, eff, side="left")
            buckets += np.bincount(rung, weights=vals, minlength=len(buckets))
    ladder = [(r, float(t)) for r, t in zip(radii, np.cumsum(buckets[:-1]))]

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
