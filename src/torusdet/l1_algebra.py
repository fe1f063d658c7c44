"""The l1(Z^n x Z^n) matrix algebra and its extended trace and determinant.

A :class:`SparseL1Matrix` holds finitely many complex entries indexed by pairs
of lattice points, with the convention ``row = output index``:
``(A x)_j = sum_k A[j, k] x_k``.  The entrywise l1 norm is submultiplicative
and dominates the operator norm on every l^p(Z^n), so finite sections of such
matrices approximate the operator in a norm under which trace and determinant
extend continuously.  :func:`poincare_trace` and :func:`poincare_determinant`
compute those extensions over a ladder of nested sup-norm windows together
with a certified error bound.

Certification uses two ingredients:

* the Lipschitz estimate ``|det(I+A) - det(I+B)| <= ||A-B||_1
  exp(1 + ||A||_1 + ||B||_1)`` (entrywise l1 dominates the trace norm, since
  every unit entry is rank one with trace norm 1), and
* for a window W with section F and tail T = A - F, the exact factorization
  ``Det(I+A) = det(I+F) * Det(I+X)`` with ``X = (I+G)T``, ``G = (I+F)^{-1} - I``.
  Because G is supported in W x W and T vanishes there, ``Tr X = Tr T`` and
  ``Tr X^2 = Tr T^2 + 2 Tr(G T^2)``, both computable from stored entries, so
  ``log Det(I+X)`` is known through second order with a remainder bounded by
  ``s^3 / (3(1-s))``, ``s = (1 + ||G||_1) ||T||_1``.  The corrected value
  ``det(I+F) exp(Tr T - Tr X^2 / 2)`` converges orders of magnitude faster
  than the raw section determinant while staying rigorously certified.

When a tail correction is active the reported value differs from the last raw
ladder entry; ``certified_error`` always bounds the distance between the
reported value and the infinite-dimensional limit.
"""

from __future__ import annotations

import bisect
import cmath
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ._dense import _section_det, _section_parts
from .lattice import (
    TruncationWindow,
    as_index,
    index_keys,
    matching_pairs,
    sup_norm_array,
    window_positions,
)

_EXP_CAP = 700.0  # exp argument beyond which bounds are reported as inf


class DimensionMismatchError(ValueError):
    """Operands live on lattices of different dimension."""


class NonConvergenceError(RuntimeError):
    """A window ladder was exhausted before reaching the tolerance.

    Carries the evaluated ladder and the last certified bound so callers can
    inspect (or reuse) the partial computation.
    """

    def __init__(self, message, ladder=None, last_bound=None, last_value=None):
        super().__init__(message)
        self.ladder = ladder or []
        self.last_bound = last_bound
        self.last_value = last_value


def _as_coord_array(coords, count, dimension):
    """Coerce to an integer (count, dimension) array, keeping narrow dtypes."""
    coords = np.asarray(coords)
    if not np.issubdtype(coords.dtype, np.integer):
        coords = coords.astype(np.int64)
    if count == 0:
        return coords.reshape(0, dimension)
    if coords.ndim == 1:
        coords = coords[:, None]
    if coords.shape != (count, dimension):
        raise ValueError(
            f"index array shape {coords.shape}, expected ({count}, {dimension})"
        )
    return coords


def _mass(vals, keep=slice(None)):
    """Sum of ``|vals|[keep]``: an l1 mass, inf when it passes the float range."""
    with np.errstate(over="ignore"):
        return float(np.sum(np.abs(vals)[keep]))


def _run_sums(keys, vals):
    """First position and value sum of each run of equal sorted ``keys``.

    Each run is summed in array order, whatever the dtype of ``vals``.
    """
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    sums = np.zeros(np.count_nonzero(first), dtype=vals.dtype)
    np.add.at(sums, np.cumsum(first) - 1, vals)
    return np.flatnonzero(first), sums


class SparseL1Matrix:
    """Finitely supported complex matrix over Z^n x Z^n with tracked l1 norm.

    Entries are stored columnar (index arrays plus a value array) in
    canonical lexicographic (row, col) order; duplicate indices are summed
    and exact zeros dropped at construction.  Instances are immutable.

    Data derived from the entries alone is computed on first use and kept
    in ``_cache``: the E-long entry radii and diagonal mask, the support
    radius, and the ladder statistics of :func:`poincare_trace` (one float
    per rung radius, one complex per stopping ladder) and
    :class:`_LadderTails` (per last rung, three scalars and the straddlers'
    positions).  So repeated ladders on one matrix read its stored entries
    once.
    """

    __slots__ = ("dimension", "rows", "cols", "vals", "l1_norm", "_cache")

    def __init__(self, dimension, entries=None):
        entries = entries or {}
        rows = np.array([as_index(j, dimension) for j, _ in entries], dtype=np.int64)
        cols = np.array([as_index(k, dimension) for _, k in entries], dtype=np.int64)
        vals = np.array([complex(v) for v in entries.values()], dtype=np.complex128)
        self._adopt(dimension, rows, cols, vals)

    def _adopt(self, dimension, rows, cols, vals, norm=None, canonical=False):
        """Store (E, n) index arrays and (E,) values as this matrix's entries.

        float64 and complex128 values and integer index dtypes are kept as
        given, except that rows and cols of different index dtypes both take
        their common one; other values become complex128.  Unless
        ``canonical`` (the caller guarantees sorted, duplicate free, zero
        free), the entries are canonicalized, in the values' dtype.  The same array for rows and cols
        marks the matrix as diagonal.  ``norm`` may supply the l1 norm.
        """
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        vals = np.asarray(vals)
        if vals.dtype not in (np.float64, np.complex128):
            vals = vals.astype(np.complex128)
        rows = _as_coord_array(rows, len(vals), dimension)
        cols = _as_coord_array(cols, len(vals), dimension)
        if rows.dtype != cols.dtype:  # one index dtype, whichever path follows
            common = np.result_type(rows, cols)
            if not np.issubdtype(common, np.integer):  # uint64 with a signed type
                common = np.int64
            rows, cols = rows.astype(common), cols.astype(common)
        if not canonical:
            rows, cols, vals = self._canonicalize(rows, cols, vals)
        if (
            rows.ctypes.data == cols.ctypes.data
            and rows.shape == cols.shape
            and rows.strides == cols.strides
            and rows.dtype == cols.dtype
        ):
            cols = rows
        for a in (rows, cols, vals):
            a.setflags(write=False)
        object.__setattr__(self, "dimension", int(dimension))
        object.__setattr__(self, "_cache", {})
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "vals", vals)
        object.__setattr__(self, "l1_norm", _mass(vals) if norm is None else float(norm))
        return self

    def __setattr__(self, name, value):
        raise AttributeError("SparseL1Matrix is immutable")

    @staticmethod
    def _canonicalize(rows, cols, vals):
        if len(vals) == 0:
            return rows, cols, vals
        combined = np.concatenate([rows, cols], axis=1)
        (keys,) = index_keys(combined)
        # fast path: input already strictly sorted, duplicate free, zero free
        if np.all(keys[1:] > keys[:-1]) and not np.any(vals == 0):
            return (
                np.ascontiguousarray(rows),
                np.ascontiguousarray(cols),
                np.ascontiguousarray(vals),
            )
        order = np.argsort(keys, kind="stable")
        firsts, summed = _run_sums(keys[order], vals[order])
        keep = summed != 0
        combined = combined[order[firsts[keep]]]
        n = rows.shape[1]
        return (
            np.ascontiguousarray(combined[:, :n]),
            np.ascontiguousarray(combined[:, n:]),
            summed[keep],
        )

    @classmethod
    def from_arrays(cls, dimension, rows, cols, vals):
        """Build from (E, n) index arrays and an (E,) value array.

        Integer index dtypes and float64 values are kept as given (complex
        values are stored as complex128); inputs already in canonical order
        are detected and adopted without a sort.
        """
        return cls.__new__(cls)._adopt(dimension, rows, cols, vals)

    @classmethod
    def from_canonical_arrays(cls, dimension, rows, cols, vals, norm=None):
        """Adopt arrays the caller guarantees are already canonical.

        Canonical means: sorted by (row, col) lexicographically, the order of
        :func:`~torusdet.lattice.index_keys` on rows and cols side by side,
        duplicate free, no exact zeros.  No verification passes are made, so
        huge structured matrices (analytic diagonals, bands) build in O(1)
        extra memory; ``norm`` may supply a precomputed l1 norm.  Passing the
        same array object for rows and cols marks the matrix as diagonal.
        The trace and determinant ladders and :func:`truncate` locate each
        window's entries by binary search on the first row coordinate, and
        :func:`apply` sums its output row by row in stored order, so arrays
        mislabelled as canonical give wrong windows and sums, not an error.
        """
        return cls.__new__(cls)._adopt(
            dimension, rows, cols, vals, norm=norm, canonical=True
        )

    @classmethod
    def zero(cls, dimension):
        return cls(dimension, {})

    @classmethod
    def identity(cls, dimension, radius):
        """Identity section on the window of the given radius."""
        pts = TruncationWindow(radius, dimension).coords_array()
        return cls.from_arrays(dimension, pts, pts, np.ones(len(pts)))

    @property
    def nnz(self):
        return len(self.vals)

    def _memo(self, key, compute):
        """``compute()``, run on the first call for ``key`` only and kept in ``_cache``.

        Arrays in the result, or in a tuple result, are made read-only.
        """
        if key not in self._cache:
            value = compute()
            for item in value if isinstance(value, tuple) else (value,):
                if isinstance(item, np.ndarray):
                    item.setflags(write=False)
            self._cache[key] = value
        return self._cache[key]

    @property
    def entry_radii(self):
        """Per-entry window radius max(|row|_inf, |col|_inf), cached."""
        return self._memo("radii", lambda: _entry_radii(self, slice(None)))

    @property
    def diag_mask(self):
        """Boolean mask of stored entries on the main diagonal, cached."""
        return self._memo("diag", lambda: (
            np.ones(self.nnz, dtype=bool) if self.cols is self.rows
            else np.all(self.rows == self.cols, axis=1)
        ))

    @property
    def support_radius(self):
        """Largest sup norm over all stored row/col indices (0 if empty), cached.

        Canonical order sorts the entries by the first row coordinate: its
        extremes are at the two ends, and only the other coordinates are reduced.
        """
        def radius():
            rest = [self.rows[:, 1:]] + ([] if self.cols is self.rows else [self.cols])
            ends = [f(c, initial=0) for c in rest for f in (np.min, np.max)]
            ends += [self.rows[0, 0], self.rows[-1, 0]] if self.nnz else []
            return max(abs(int(x)) for x in ends)

        return self._memo("support", radius)

    def items(self):
        for r, c, v in zip(self.rows, self.cols, self.vals):
            yield tuple(int(x) for x in r), tuple(int(x) for x in c), complex(v)

    def to_dict(self):
        return {(j, k): v for j, k, v in self.items()}

    def entry(self, j, k):
        j = np.asarray(as_index(j, self.dimension), dtype=np.int64)
        k = np.asarray(as_index(k, self.dimension), dtype=np.int64)
        hit = np.all(self.rows == j, axis=1) & np.all(self.cols == k, axis=1)
        idx = np.flatnonzero(hit)
        return complex(self.vals[idx[0]]) if len(idx) else 0.0j

    def transpose(self):
        """Transpose; the tracked l1 norm is carried over exactly."""
        return SparseL1Matrix.__new__(SparseL1Matrix)._adopt(
            self.dimension, self.cols, self.rows, self.vals, norm=self.l1_norm
        )

    def __matmul__(self, other):
        return compose(self, other)

    def __add__(self, other):
        if not isinstance(other, SparseL1Matrix):
            return NotImplemented
        if other.dimension != self.dimension:
            raise DimensionMismatchError(
                f"dimension {self.dimension} vs {other.dimension}"
            )
        return SparseL1Matrix.from_arrays(
            self.dimension,
            np.concatenate([self.rows, other.rows]),
            np.concatenate([self.cols, other.cols]),
            np.concatenate([self.vals, other.vals]),
        )

    def scale(self, factor):
        return SparseL1Matrix.from_arrays(
            self.dimension, self.rows, self.cols, self.vals * complex(factor)
        )

    def __repr__(self):
        return (
            f"SparseL1Matrix(n={self.dimension}, nnz={self.nnz}, "
            f"l1_norm={self.l1_norm:.6g})"
        )


def l1_norm(a: SparseL1Matrix):
    """Entrywise l1 norm, summed in canonical entry order; inf past the float range."""
    return _mass(a.vals)


def transpose(a: SparseL1Matrix):
    return a.transpose()


def compose(a: SparseL1Matrix, b: SparseL1Matrix):
    """Matrix product (AB)[j, l] = sum_i A[j, i] B[i, l].

    The entrywise norm satisfies ``||AB||_1 <= ||A||_1 ||B||_1``.
    """
    if a.dimension != b.dimension:
        raise DimensionMismatchError(f"dimension {a.dimension} vs {b.dimension}")
    i, j = matching_pairs(*index_keys(a.cols, b.rows))
    if len(i) == 0:
        return SparseL1Matrix.zero(a.dimension)
    return SparseL1Matrix.from_arrays(
        a.dimension, a.rows[i], b.cols[j], a.vals[i] * b.vals[j]
    )


def lp_norm(x, p):
    """l^p norm of a finitely supported sequence given as {index: value}."""
    if p < 1:
        raise ValueError("p must be >= 1")
    if not x:
        return 0.0
    mags = np.abs(np.fromiter(x.values(), dtype=np.complex128, count=len(x)))
    if math.isinf(p):
        return float(np.max(mags))
    return float(np.sum(mags**p) ** (1.0 / p))


def apply(a: SparseL1Matrix, x):
    """Apply the matrix to a finitely supported sequence {index: value}.

    Returns y with ``y_j = sum_k A[j, k] x_k``; the Schur test gives
    ``||y||_p <= ||A||_1 ||x||_p`` for every p >= 1.
    """
    n = a.dimension
    xk = np.array([as_index(k, n) for k in x], dtype=np.int64).reshape(len(x), n)
    xv = np.fromiter(x.values(), dtype=np.complex128, count=len(x))
    i, j = matching_pairs(*index_keys(a.cols, xk))
    rows = a.rows[i]  # sorted, as i ascends in canonical order
    firsts, sums = _run_sums(index_keys(rows)[0], a.vals[i] * xv[j])
    return {
        tuple(int(c) for c in r): complex(v)
        for r, v in zip(rows[firsts], sums)
        if v != 0
    }


@dataclass(frozen=True)
class TailModel:
    """Description of the matrix mass not stored explicitly.

    ``exact-finite`` asserts the stored entries are the whole operator.
    ``user-bound`` carries a nonincreasing function ``N -> upper bound on the
    l1 mass of the operator outside the window of radius N``; stored entries
    must be the operator's exact entries within their coverage window, of
    radius C.  So :func:`truncate` and both ladders bound the tail of the
    section F_R on the window of radius R by one rule: ``||A - F_R||_1 <=``
    the discarded stored mass plus ``bound(C)``.  A wider window than C has
    the same entries and bound, so ladders end at min(C, max_radius), and
    one ending at C short of its tolerance names C and the bound there.
    """

    kind: str
    bound: object = None

    def __post_init__(self):
        if self.kind not in ("exact-finite", "user-bound"):
            raise ValueError(f"unknown tail model kind {self.kind!r}")
        if self.kind == "user-bound" and not callable(self.bound):
            raise ValueError("user-bound tail model requires a bound function")

    @classmethod
    def exact_finite(cls):
        return cls("exact-finite")

    @classmethod
    def user_bound(cls, fn):
        return cls("user-bound", fn)

    def bound_at(self, radius):
        if self.kind == "exact-finite":
            return 0.0
        b = float(self.bound(int(radius)))
        if b < 0 or math.isnan(b):
            raise ValueError(f"tail bound at radius {radius} must be >= 0, got {b}")
        return b


@dataclass(frozen=True)
class FiniteSection:
    """Dense restriction of a matrix to a window, in enumeration order."""

    window: TruncationWindow
    matrix: np.ndarray

    def __post_init__(self):
        size = self.window.size
        if self.matrix.shape != (size, size):
            raise ValueError(
                f"section matrix shape {self.matrix.shape} does not match "
                f"window size {size}"
            )


@dataclass(frozen=True)
class LadderStep:
    """One determinant ladder rung: raw section value and its certified bound."""

    radius: int
    value: complex
    bound: float


@dataclass
class DeterminantResult:
    value: complex
    ladder: list = field(default_factory=list)
    certified_error: float = 0.0
    converged: bool = False


@dataclass
class TraceResult:
    value: complex
    certified_error: float = 0.0


_SECTION_SIZE_LIMIT = 20_000


def _check_section_size(w: TruncationWindow):
    if w.size > _SECTION_SIZE_LIMIT:
        raise ValueError(
            f"window of radius {w.radius} has {w.size} points; dense section "
            f"refused (limit {_SECTION_SIZE_LIMIT})"
        )


def _section_matrix(rows, cols, vals, window):
    """Dense section on the window of entries that all lie inside it.

    The section is float64 when every value is real and complex128
    otherwise; every dense kernel downstream keeps that dtype.
    """
    real = not np.any(vals.imag)
    dense = np.zeros((window.size, window.size), np.float64 if real else np.complex128)
    r = window_positions(rows, window.radius)
    c = window_positions(cols, window.radius)
    dense[r, c] = vals.real if real else vals
    return dense


def truncate(a: SparseL1Matrix, tail: TailModel, w: TruncationWindow):
    """Dense finite section on the window plus the certified tail mass.

    ``tail_norm`` bounds the l1 distance between the operator and the
    embedded section: the discarded stored mass plus the tail model's bound
    at the coverage radius, the rule of both ladders (see :class:`TailModel`).
    Only the entries of the window's :func:`_row_span` are read.
    """
    if w.dimension != a.dimension:
        raise DimensionMismatchError(f"dimension {a.dimension} vs {w.dimension}")
    _check_section_size(w)
    lo, hi = _row_span(a, w.radius)
    inside = lo + np.flatnonzero(_entry_radii(a, slice(lo, hi)) <= w.radius)
    vals = a.vals[inside]
    dense = _section_matrix(a.rows[inside], a.cols[inside], vals, w)
    stored_tail = _discarded_mass(a, _mass(vals), w.radius)
    return FiniteSection(w, dense), stored_tail + tail.bound_at(a.support_radius)


def finite_trace(f: FiniteSection):
    """Diagonal sum; equals the eigenvalue sum by similarity invariance."""
    return complex(np.trace(f.matrix))


def finite_determinant(f: FiniteSection):
    """det(I + F) by pivoted LU of each connected component of I + F.

    A one-component section of bounded first-coordinate reach is swept slab
    by slab instead.  The factors are built from F's nonzeros by
    :func:`~torusdet._dense._section_parts`, as a ladder rung on the same
    window builds them from its entries.
    """
    r, c = np.nonzero(f.matrix)
    return _section_det(_section_parts(f.window.size, r, c, f.matrix[r, c], 1.0, f.window))


def _safe_exp(x):
    return math.inf if x > _EXP_CAP else math.exp(x)


def _det_slack(det_n, size):
    """Roundoff bound on ``det_n``, the LU determinant of a size x size section."""
    return abs(det_n) * size * 5e-15


def _ladder_radii(top):
    """Doubling window radii min(top, 8), 16, ..., ending exactly at ``top`` >= 0."""
    if top < 0:
        raise ValueError("window radius must be nonnegative")
    radii = [min(top, 8)]
    while radii[-1] < top:
        radii.append(min(2 * radii[-1], top))
    return radii


def _section_rungs(top, dimension):
    """The :func:`_ladder_radii` of ``top`` whose windows fit the dense section
    limit, and the phrase saying where the limit cut them (None: uncut); a
    first rung over the limit raises :func:`_check_section_size`'s error.
    """
    radii = _ladder_radii(top)
    _check_section_size(TruncationWindow(radii[0], dimension))  # no rung to fall back on
    for i, n in enumerate(radii):
        size = TruncationWindow(n, dimension).size
        if size > _SECTION_SIZE_LIMIT:
            return radii[:i], (f"before the window of radius {n} ({size} points) "
                               f"passed the dense section limit {_SECTION_SIZE_LIMIT}")
    return radii, None


def _row_span(a, radius):
    """Positions [lo, hi) of the entries whose first row coordinate is in [-radius, radius].

    Canonical order sorts the entries by row first, so they are contiguous
    and two binary searches on the (strided, uncopied) first row coordinate
    find them.  Every entry inside the window of radius ``radius`` lies in
    the span; in 1-D the span of a diagonal is exactly those entries.
    """
    first = a.rows[:, 0]
    return bisect.bisect_left(first, -radius), bisect.bisect_right(first, radius)


def _entry_radii(a, part):
    """Window radius max(|row|_inf, |col|_inf) of the entries ``a[part]``."""
    r = sup_norm_array(a.rows[part])
    return r if a.cols is a.rows else np.maximum(r, sup_norm_array(a.cols[part]))


def _discarded_mass(a, inside_mass, radius):
    """Stored l1 mass outside the window of radius ``radius``, given the mass inside.

    ``||A||_1`` minus the inside mass, never negative, exactly 0 when the
    window holds every stored entry, and inf when ``||A||_1`` is inf and
    the window does not.
    """
    if radius >= a.support_radius:
        return 0.0
    return math.inf if math.isinf(a.l1_norm) else max(a.l1_norm - inside_mass, 0.0)


def _rung_buckets(entry_radii, radii):
    """Ladder bucket of each entry radius.

    Bucket ``i`` holds the entries inside rung ``i`` and outside rung
    ``i - 1``; bucket ``len(radii)`` those beyond every rung.
    """
    edges = np.asarray(radii, dtype=entry_radii.dtype)
    return np.searchsorted(edges, entry_radii, side="left")


def _coverage_floor(coverage, unstored, max_radius):
    """Why a stored ladder ends at its coverage radius (None: at max_radius)."""
    if coverage >= max_radius:
        return None
    return (
        f"within the coverage radius {coverage} of the stored entries, where "
        f"the tail model bounds the unstored mass by {unstored:.3e}"
    )


def _bucketed_diagonal_sum(a, span, buckets, rung):
    """Sum of the diagonal entries of ``a.vals[span]`` in rung buckets ``<= rung``.

    Each bucket is summed in canonical order, then the buckets in turn.
    """
    b, d = buckets, a.vals[span]
    if a.cols is not a.rows:
        b, d = b[a.diag_mask[span]], d[a.diag_mask[span]]
    total = lambda w: np.cumsum(np.bincount(b, weights=w, minlength=rung + 1))[rung]
    return complex(total(d.real) + 1j * (total(d.imag) if np.iscomplexobj(d) else 0.0))


def poincare_trace(a: SparseL1Matrix, tail: TailModel, tol, max_radius=2**53):
    """Extended trace: diagonal sums over growing windows, with certification.

    Stops at the first ladder window whose tail mass, the one of
    :func:`truncate`, is at most ``tol``; the trace tail is dominated by the
    l1 tail, so that mass certifies the error.  The ladder ends at
    min(C, ``max_radius``), C the support radius (see :class:`TailModel`);
    if it ends at C short of ``tol``, the error names C and the bound there.
    Rung i reads its whole :func:`_row_span`, so the ladder reads at most
    twice the stopping span; the stopping rung sums its diagonal rung bucket
    by rung bucket, each bucket in canonical order.  The matrix's cache
    keeps each rung radius's inside mass and each stopping sum, keyed by the
    rungs up to the stop, so a repeat call reads no stored entry.  A sum
    that overflows the float range raises ``NonConvergenceError``: no bound
    covers it.
    """
    if not tol > 0:  # NaN too
        raise ValueError("tol must be positive")
    coverage = a.support_radius
    unstored = tail.bound_at(coverage)
    radii = _ladder_radii(min(coverage, max_radius))
    attempts = []
    for i, n in enumerate(radii):
        span = slice(*_row_span(a, n))
        span_radii = functools.cache(lambda: _entry_radii(a, span))  # once per rung at most
        # from C on nothing stored is discarded, whatever the mass inside
        inside_mass = (
            a._memo(("trace mass", n), lambda: _mass(a.vals[span], span_radii() <= n))
            if n < coverage else 0.0
        )
        t_n = _discarded_mass(a, inside_mass, n) + unstored
        attempts.append((int(n), t_n))
        if t_n <= tol:
            value = a._memo(
                ("trace value", tuple(radii[: i + 1])),
                lambda: _bucketed_diagonal_sum(a, span, _rung_buckets(span_radii(), radii), i),
            )
            if not cmath.isfinite(value):
                message = f"trace sum overflowed the float range within radius {n}: {value}"
                raise NonConvergenceError(message, ladder=attempts, last_bound=t_n)
            return TraceResult(value=value, certified_error=t_n)
    stop = _coverage_floor(coverage, unstored, max_radius) or (
        f"by radius {max_radius}: ladder tail {attempts[-3:]}"
    )
    raise NonConvergenceError(
        f"trace tail mass did not reach tol={tol} {stop}",
        ladder=attempts,
        last_bound=attempts[-1][1],
    )


def _transpose_pair_sum(rows, cols, vals):
    """Sum of T[i,j] T[j,i] over off-diagonal entries whose transpose is stored."""
    fwd, rev = index_keys(
        np.concatenate([rows, cols], axis=1), np.concatenate([cols, rows], axis=1)
    )
    i, j = matching_pairs(rev, fwd)
    return complex(np.sum(vals[i] * vals[j]))


def _tail_cross_term(g, radius, rows, cols, vals):
    """Tr(G T^2) with G on the window and T supported off the window.

    Only T[b, c] with b inside and c outside meets T[c, a] with c outside and
    a inside, so ``Tr(G T^2) = sum G[a, b] T[b, c] T[c, a]`` over those
    pairs, the :func:`~torusdet.lattice.matching_pairs` of their outside
    indices.  G is read only at those pairs' window positions ``g[a, b]``,
    which read 0 across components and off a slab section's band.
    """
    row_in = sup_norm_array(rows) <= radius
    col_in = sup_norm_array(cols) <= radius
    wo = row_in & ~col_in  # T[b, c]: b in window, c outside
    ow = ~row_in & col_in  # T[c, a]: c outside, a in window
    i, j = matching_pairs(*index_keys(cols[wo], rows[ow]))
    b_pos = window_positions(rows[wo], radius)
    a_pos = window_positions(cols[ow], radius)
    return complex(np.sum(g[a_pos[j], b_pos[i]] * vals[wo][i] * vals[ow][j]))


def _far_totals(a, lo, hi, near, last):
    """Diagonal sum and square sum, off-diagonal square sum and straddlers of the far entries.

    Far entries lie beyond the last rung, of radius ``last``: the entries
    before and after its row span [lo, hi) and the span's entries off
    ``near``; each sum runs over those three pieces in turn.  A far entry
    with one index inside the last rung straddles it, and the straddlers'
    positions are returned in canonical order; ``sum |T_ij|^2`` runs over
    the other far off-diagonal entries.  Outside the span every row lies
    outside the rung, so there only the column is tested.  A diagonal has
    neither off-diagonal entries nor straddlers.
    """
    diagonal = a.cols is a.rows
    trace = trace_sq = 0j
    off_sq, straddlers = 0.0, [np.zeros(0, np.intp)]
    for part in (slice(0, lo), lo + np.flatnonzero(~near), slice(hi, a.nnz)):
        vals = a.vals[part]
        d = vals if diagonal else vals[a.diag_mask[part]]
        trace += complex(np.sum(d))
        trace_sq += complex(np.dot(d, d))
        if diagonal:
            continue
        straddles = sup_norm_array(a.cols[part]) <= last
        if isinstance(part, slice):
            straddlers.append(part.start + np.flatnonzero(straddles))
        else:
            straddles |= sup_norm_array(a.rows[part]) <= last
            straddlers.append(part[straddles])
        off = vals[~(a.diag_mask[part] | straddles)]
        off_sq += float(np.vdot(off, off).real)
    return trace, trace_sq, off_sq, np.concatenate(straddlers)


class _LadderTails:
    """The stored entries of a determinant ladder, split at the last rung.

    Entries inside the last rung ("near") are kept with their rung bucket, so
    each rung works only on them and on its dense section; they are read
    from the last rung's :func:`_row_span`.  Entries beyond the last rung
    ("far") lie in every rung's tail.  Those with one index inside the last
    rung ("straddling") can meet a section in ``Tr(G T^2)``: they are handed
    over with the near entries, in the bucket ``len(radii)`` past every
    rung.  The others are reduced by one pass, :func:`_far_totals`, to the
    totals the tail statistics need.  Their transpose pairs, the far part of
    ``Tr T^2``, are not joined but bounded: ``|sum T_ij T_ji| <= sum
    |T_ij|^2`` by AM-GM, and transpose partners share an entry radius, so a
    straddler's partner straddles too.  The matrix's cache keeps the totals
    (three scalars) and the straddlers' positions under the last rung's
    radius, so only the first ladder to that radius passes over the far
    entries.

    This is the tail provider :func:`_determinant_ladder` reads, rung ``i``
    by rung: ``radii``, ``floor``, the near entries ``rows`` (n columns wide),
    ``cols``, ``vals`` and ``abs_vals`` with their ``bucket``, and the
    methods ``l1_tail`` and ``moments``.  Everything the stored entries do
    not hold is the tail model's bound at the coverage radius
    (``unstored``), an error term of every tail quantity; ``floor`` says so
    if the rungs end there.  The rungs are the :func:`_section_rungs` of
    min(C, ``max_radius``), where near and far are split even when the
    section limit cuts them.  A non-finite l1 norm raises NonConvergenceError.
    """

    def __init__(self, a: SparseL1Matrix, tail: TailModel, max_radius):
        if not math.isfinite(a.l1_norm):
            raise NonConvergenceError(f"l1 norm of the matrix is not finite: {a.l1_norm}")
        self.a = a
        coverage = a.support_radius
        self.unstored = tail.bound_at(coverage)  # all mass beyond the stored entries
        self.norm_upper = a.l1_norm + self.unstored
        self.last = min(coverage, max_radius)
        self.radii, cut = _section_rungs(self.last, a.dimension)
        self.floor = cut or _coverage_floor(coverage, self.unstored, max_radius)
        lo, hi = _row_span(a, self.last)
        near = _entry_radii(a, slice(lo, hi)) <= self.last
        self.far_trace, self.far_trace_sq, self.far_off_sq, straddlers = a._memo(
            ("far totals", self.last), lambda: _far_totals(a, lo, hi, near, self.last)
        )
        handed = np.concatenate([lo + np.flatnonzero(near), straddlers])
        self.rows, self.cols, self.vals = a.rows[handed], a.cols[handed], a.vals[handed]
        # a straddler's radius is past every rung; a diagonal never builds a.diag_mask
        self.bucket = _rung_buckets(_entry_radii(a, handed), self.radii)
        self.diag = np.ones(len(handed), bool) if a.cols is a.rows else a.diag_mask[handed]
        self.abs_vals = np.abs(self.vals)

    def l1_tail(self, rung, f_norm):
        """Discarded stored mass, unstored mass and an upper bound on ||A||_1."""
        return _discarded_mass(self.a, f_norm, self.radii[rung]), self.unstored, self.norm_upper

    def moments(self, rung):
        """``(Tr T, error)`` and ``(Tr T^2, error)``, as ``hill._HillTails`` gives them.

        Both values are sums over the stored tail.  The unstored mass is the
        error of ``Tr T``; ``Tr T^2`` leaves out the far transpose pairs, and
        their bound ``sum |T_ij|^2`` is its error.
        """
        outside = self.bucket > rung
        d = self.vals[outside & self.diag]
        off = outside & ~self.diag
        tr_t2 = (
            self.far_trace_sq
            + complex(np.dot(d, d))
            + _transpose_pair_sum(self.rows[off], self.cols[off], self.vals[off])
        )
        return (self.far_trace + complex(np.sum(d)), self.unstored), (tr_t2, self.far_off_sq)


def poincare_determinant(a: SparseL1Matrix, tail: TailModel, tol, max_radius=64):
    """Extended determinant of I + A over a doubling window ladder.

    The ladder records the raw section determinants.  At each rung both a
    Lipschitz bound on the raw value and (when the section is invertible and
    the tail is small enough) the tail-corrected value with its remainder
    bound are computed; the computation stops as soon as either certified
    bound reaches ``tol``.  ``certified_error`` bounds ``|value - Det(I+A)|``
    for the returned value, which is the corrected one whenever its bound is
    the sharper of the two.  The first call to a last rung passes over the
    stored entries once, and the matrix's cache keeps what it takes from
    the far ones (see :class:`_LadderTails`): their transpose pairs enter
    ``Tr T^2`` by a bound, as its error.  A later call to that rung reads
    only the rung's row span.  Each call copies only the entries
    inside the last rung or straddling it; a rung's work is its dense
    section and the entries near the windows.
    The ladder ends at min(C, ``max_radius``), C the support radius: a wider
    window has rung C's section and tail bound (see :class:`TailModel`).
    A ladder that stops short of ``tol`` raises :class:`NonConvergenceError`
    carrying the ladder and the best rung's value and bound; if it ended at
    C, the message names C and the tail model's bound there.  A matrix whose
    l1 norm is not finite raises it before any rung.
    """
    return _converged(_LadderTails(a, tail, max_radius), tol)


def _converged(tails, tol):
    """The converged ladder on ``tails``, or :class:`NonConvergenceError`."""
    result, stop = _determinant_ladder(tails, tol)
    if stop is not None:
        raise NonConvergenceError(
            f"determinant bound did not reach tol={tol} {stop} "
            f"(best certified bound {result.certified_error:.3e})",
            ladder=result.ladder,
            last_bound=result.certified_error,
            last_value=result.value,
        )
    return result


def _determinant_ladder(tails, tol):
    """The ladder of :func:`poincare_determinant` and why it stopped short.

    ``tails`` provides the rungs, the entries with their rung buckets and
    every tail quantity, as :class:`_LadderTails` does for stored entries;
    rung ``i``'s section holds the entries of bucket ``<= i``.  Its tail
    moments are ``(value, error)`` pairs, and ``Tr(G T^2)`` is formed from
    the entries it hands over outside the rung.  Returns
    ``(result, stop)``: a converged result and None, or the best rung's
    value and bound with ``converged=False`` and the phrase saying where the
    ladder ended.  The rungs fit the dense section limit: they are the
    provider's :func:`_section_rungs`.
    """
    if not tol > 0:  # NaN too
        raise ValueError("tol must be positive")
    ladder = []
    best = None
    for i, n in enumerate(tails.radii):
        window = TruncationWindow(n, tails.rows.shape[1])
        inside = tails.bucket <= i
        f_norm = float(np.sum(tails.abs_vals[inside]))
        r, c = window_positions(tails.rows[inside], n), window_positions(tails.cols[inside], n)
        vals = tails.vals[inside]
        parts = _section_parts(window.size, r, c, vals if np.any(vals.imag) else vals.real, 1.0, window)
        det_n = _section_det(parts)
        stored, unstored, norm_upper = tails.l1_tail(i, f_norm)
        t_total = stored + unstored
        if t_total:
            b_raw = t_total * _safe_exp(1.0 + norm_upper + f_norm)
        else:  # the section is the operator: only LU roundoff, none for I + 0
            b_raw = _det_slack(det_n, window.size) if f_norm else 0.0

        value, bound = det_n, b_raw
        raw_value_bound = b_raw
        # with no tail there is nothing to correct
        if t_total:
            corrected = _corrected_step(tails, i, parts, det_n, window.size, stored, unstored)
            if corrected is not None:
                value_corr, b_corr = corrected
                raw_value_bound = min(b_raw, b_corr + abs(value_corr - det_n))
                if b_corr < bound:
                    value, bound = value_corr, b_corr
        ladder.append(LadderStep(n, det_n, raw_value_bound))
        if bound <= tol:
            return DeterminantResult(value, ladder, bound, converged=True), None
        if best is None or bound < best.certified_error:
            best = DeterminantResult(value, ladder, bound, converged=False)
    return best, tails.floor or f"within radius {tails.radii[-1]}"


def _corrected_step(tails, rung, parts, det_n, size, stored, unstored):
    """Tail-corrected determinant value and its certified bound, or None.

    ``parts`` are the rung's :func:`~torusdet._dense._section_parts` on its
    window of ``size`` points; ``stored`` bounds the tail mass the moments
    of ``tails`` sum over and ``unstored`` the rest.  ``G`` is formed here
    from ``parts.inverse()``, a flat buffer of values that its ``diagonal``
    (offsets or a slice) indexes, and ``log Det(I+X) = Tr X - Tr X^2 / 2``
    up to ``s^3 / (3(1 - s))``, with ``Tr X^2 = Tr T^2 + 2 Tr(G T^2)``: the
    unstored mass u moves it by at most ``(1 + ||G||_1)^2 (2 t u + u^2)``,
    t the stored mass.  A slab section's ``G`` is 0 off a band, and
    ``||G||_1`` carries the bound ``dropped`` on the mass left out there
    (see :meth:`~torusdet._dense._Slabs.inverse`); ``Tr(G T^2)`` misses at
    most ``dropped (t + u)^2`` of it, twice that in ``Tr X^2``'s error.
    """
    t_total = stored + unstored
    # s = (1 + ||G||_1) t_total >= t_total: no inverse can bring s under 0.9
    if det_n == 0 or t_total >= 0.9:
        return None
    try:
        g, dropped = parts.inverse()
    except np.linalg.LinAlgError:
        return None
    g.values[g.diagonal] -= 1.0  # G = (I + F)^{-1} - I
    g1 = float(np.sum(np.abs(g.values))) + dropped
    s = (1.0 + g1) * t_total
    if s >= 0.9:
        return None

    (c1, e1), (tr_t2, e2) = tails.moments(rung)
    outside = tails.bucket > rung
    c2 = tr_t2 + 2.0 * _tail_cross_term(
        g, tails.radii[rung], tails.rows[outside], tails.cols[outside], tails.vals[outside]
    )
    u_eff = unstored * (1.0 + g1)
    e2 += 2.0 * (1.0 + g1) * stored * u_eff + u_eff * u_eff + 2.0 * dropped * t_total * t_total
    log_err = e1 + 0.5 * e2 + s**3 / (3.0 * (1.0 - s))
    log_err += 1e-14 * (1.0 + abs(c1) + abs(c2))  # accumulation roundoff slack
    value = det_n * np.exp(c1 - 0.5 * c2)
    bound = abs(value) * math.expm1(min(log_err, _EXP_CAP)) + _det_slack(det_n, size)
    return complex(value), float(bound)


def invertibility_test(a: SparseL1Matrix, tail: TailModel, tol, max_radius=64):
    """Three-valued invertibility of I + A via the extended determinant.

    ``invertible`` when the determinant is certifiably away from zero,
    ``singular`` when it is indistinguishable from zero at tolerance ``tol``,
    ``undecided`` otherwise.  The ladder is :func:`poincare_determinant`'s,
    which ends at min(C, ``max_radius``) (see :class:`TailModel`); if it
    ends short of ``tol`` it still yields its best value and bound (with
    ``converged=False``), which decide the question whenever they can (a
    numerical zero test is one-sided; near-roots legitimately end undecided).
    A matrix whose l1 norm is not finite raises :class:`NonConvergenceError`.
    """
    result, _ = _determinant_ladder(_LadderTails(a, tail, max_radius), tol)
    return determinant_decision(result, tol), result


def determinant_decision(result: DeterminantResult, tol):
    if abs(result.value) > result.certified_error:
        return "invertible"
    if abs(result.value) + result.certified_error < tol:
        return "singular"
    return "undecided"
