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

import math
from dataclasses import dataclass, field

import numpy as np

from .lattice import TruncationWindow, as_index, sup_norm_array

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


def _canonical_order(rows, cols):
    combined = np.concatenate([rows, cols], axis=1)
    return np.lexsort(combined[:, ::-1].T), combined


class SparseL1Matrix:
    """Finitely supported complex matrix over Z^n x Z^n with tracked l1 norm.

    Entries are stored columnar (index arrays plus a value array) in
    canonical lexicographic (row, col) order; duplicate indices are summed
    and exact zeros dropped at construction.  Instances are immutable.
    """

    __slots__ = ("dimension", "rows", "cols", "vals", "l1_norm", "_cache")

    def __init__(self, dimension, entries=None, _arrays=None, _norm=None):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        object.__setattr__(self, "dimension", int(dimension))
        object.__setattr__(self, "_cache", {})
        if _arrays is not None:
            rows, cols, vals = _arrays
            vals = np.asarray(vals)
            if vals.dtype not in (np.float64, np.complex128):
                vals = vals.astype(np.complex128)
            rows = _as_coord_array(rows, len(vals), dimension)
            cols = _as_coord_array(cols, len(vals), dimension)
        else:
            entries = entries or {}
            rows = np.empty((len(entries), dimension), dtype=np.int64)
            cols = np.empty((len(entries), dimension), dtype=np.int64)
            vals = np.empty(len(entries), dtype=np.complex128)
            for i, ((j, k), v) in enumerate(entries.items()):
                rows[i] = as_index(j, dimension)
                cols[i] = as_index(k, dimension)
                vals[i] = complex(v)
        rows, cols, vals = self._canonicalize(rows, cols, vals)
        for a in (rows, cols, vals):
            a.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "vals", vals)
        norm = float(np.sum(np.abs(vals))) if _norm is None else float(_norm)
        object.__setattr__(self, "l1_norm", norm)

    def __setattr__(self, name, value):
        raise AttributeError("SparseL1Matrix is immutable")

    @staticmethod
    def _canonicalize(rows, cols, vals):
        if len(vals) == 0:
            return rows, cols, vals
        # fast path: input already strictly sorted, duplicate free, zero free
        packed = _try_pack(np.concatenate([rows, cols], axis=1))
        if (
            packed is not None
            and np.all(packed[1:] > packed[:-1])
            and not np.any(vals == 0)
        ):
            return (
                np.ascontiguousarray(rows),
                np.ascontiguousarray(cols),
                np.ascontiguousarray(vals),
            )
        order, combined = _canonical_order(rows, cols)
        combined = combined[order]
        vals = vals[order]
        new_group = np.ones(len(vals), dtype=bool)
        np.any(combined[1:] != combined[:-1], axis=1, out=new_group[1:])
        group_ids = np.cumsum(new_group) - 1
        summed = np.zeros(group_ids[-1] + 1, dtype=np.complex128)
        np.add.at(summed, group_ids, vals)
        firsts = np.flatnonzero(new_group)
        keep = summed != 0
        n = rows.shape[1]
        combined = combined[firsts][keep]
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
        return cls(dimension, _arrays=(rows, cols, np.asarray(vals)))

    @classmethod
    def from_canonical_arrays(cls, dimension, rows, cols, vals, norm=None):
        """Adopt arrays the caller guarantees are already canonical.

        Canonical means: lexicographically sorted by (row, col), duplicate
        free, no exact zeros.  No verification passes are made, so huge
        structured matrices (analytic diagonals, bands) build in O(1) extra
        memory; ``norm`` may supply a precomputed l1 norm.  Passing the same
        array object for rows and cols marks the matrix as diagonal.
        """
        obj = cls.__new__(cls)
        object.__setattr__(obj, "dimension", int(dimension))
        object.__setattr__(obj, "_cache", {})
        vals = np.asarray(vals)
        if vals.dtype not in (np.float64, np.complex128):
            vals = vals.astype(np.complex128)
        rows = _as_coord_array(rows, len(vals), dimension)
        cols = _as_coord_array(cols, len(vals), dimension)
        if (
            rows.ctypes.data == cols.ctypes.data
            and rows.shape == cols.shape
            and rows.strides == cols.strides
            and rows.dtype == cols.dtype
        ):
            cols = rows
        for a in (rows, cols, vals):
            a.setflags(write=False)
        object.__setattr__(obj, "rows", rows)
        object.__setattr__(obj, "cols", cols)
        object.__setattr__(obj, "vals", vals)
        norm = float(np.sum(np.abs(vals))) if norm is None else float(norm)
        object.__setattr__(obj, "l1_norm", norm)
        return obj

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

    @property
    def entry_radii(self):
        """Per-entry window radius max(|row|_inf, |col|_inf), cached."""
        if "radii" not in self._cache:
            row_r = sup_norm_array(self.rows)
            r = row_r if self.cols is self.rows else np.maximum(
                row_r, sup_norm_array(self.cols)
            )
            r.setflags(write=False)
            self._cache["radii"] = r
        return self._cache["radii"]

    @property
    def diag_mask(self):
        """Boolean mask of stored entries on the main diagonal, cached."""
        if "diag" not in self._cache:
            if self.cols is self.rows:
                m = np.ones(self.nnz, dtype=bool)
            elif self.nnz:
                m = np.all(self.rows == self.cols, axis=1)
            else:
                m = np.zeros(0, dtype=bool)
            m.setflags(write=False)
            self._cache["diag"] = m
        return self._cache["diag"]

    @property
    def support_radius(self):
        """Largest sup norm over all stored row/col indices (0 if empty)."""
        if self.nnz == 0:
            return 0
        return int(np.max(self.entry_radii))

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
        return SparseL1Matrix(
            self.dimension,
            _arrays=(self.cols.copy(), self.rows.copy(), self.vals.copy()),
            _norm=self.l1_norm,
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
    """Entrywise l1 norm, summed in canonical entry order."""
    return float(np.sum(np.abs(a.vals)))


def transpose(a: SparseL1Matrix):
    return a.transpose()


def _pack_rows(coords, base, offset):
    packed = np.zeros(len(coords), dtype=np.int64)
    for i in range(coords.shape[1]):
        packed = packed * base + (coords[:, i] + offset)
    return packed


def _try_pack(coords):
    """Lexicographic int64 keys for coordinate rows, or None on overflow."""
    if len(coords) == 0:
        return np.zeros(0, dtype=np.int64)
    m = int(np.max(np.abs(coords))) if coords.size else 0
    base = 2 * m + 2
    if base ** coords.shape[1] >= 2**62:
        return None
    return _pack_rows(coords, base, m)


def _pack_keys(*coord_arrays):
    """Pack multi-index arrays into comparable int64 keys (shared encoding).

    Falls back to positional factorization via ``np.unique`` when the packed
    range would overflow 64 bits.
    """
    stacked = np.concatenate([c for c in coord_arrays], axis=0)
    if len(stacked) == 0:
        return [np.zeros(0, dtype=np.int64) for _ in coord_arrays]
    packed = _try_pack(stacked)
    if packed is None:
        _, packed = np.unique(stacked, axis=0, return_inverse=True)
    out = []
    pos = 0
    for c in coord_arrays:
        out.append(packed[pos : pos + len(c)])
        pos += len(c)
    return out


def compose(a: SparseL1Matrix, b: SparseL1Matrix):
    """Matrix product (AB)[j, l] = sum_i A[j, i] B[i, l].

    The entrywise norm satisfies ``||AB||_1 <= ||A||_1 ||B||_1``.
    """
    if a.dimension != b.dimension:
        raise DimensionMismatchError(f"dimension {a.dimension} vs {b.dimension}")
    n = a.dimension
    if a.nnz == 0 or b.nnz == 0:
        return SparseL1Matrix.zero(n)
    a_mid, b_mid = _pack_keys(a.cols, b.rows)
    a_order = np.argsort(a_mid, kind="stable")
    b_order = np.argsort(b_mid, kind="stable")
    a_mid_s = a_mid[a_order]
    b_mid_s = b_mid[b_order]
    shared = np.intersect1d(a_mid_s, b_mid_s)
    out_rows, out_cols, out_vals = [], [], []
    for key in shared:
        ai = slice(*np.searchsorted(a_mid_s, [key, key + 1]))
        bi = slice(*np.searchsorted(b_mid_s, [key, key + 1]))
        ar = a.rows[a_order[ai]]
        av = a.vals[a_order[ai]]
        bc = b.cols[b_order[bi]]
        bv = b.vals[b_order[bi]]
        ca, cb = len(av), len(bv)
        out_rows.append(np.repeat(ar, cb, axis=0))
        out_cols.append(np.tile(bc, (ca, 1)))
        out_vals.append((av[:, None] * bv[None, :]).ravel())
    if not out_vals:
        return SparseL1Matrix.zero(n)
    return SparseL1Matrix.from_arrays(
        n,
        np.concatenate(out_rows),
        np.concatenate(out_cols),
        np.concatenate(out_vals),
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


def apply(a: SparseL1Matrix, x, p=2):
    """Apply the matrix to a finitely supported sequence {index: value}.

    Returns y with ``y_j = sum_k A[j, k] x_k``; the Schur test gives
    ``||y||_p <= ||A||_1 ||x||_p`` for every p >= 1.
    """
    del p  # the bound holds for every p; the action itself is p-independent
    n = a.dimension
    if not x or a.nnz == 0:
        return {}
    xk = np.array([as_index(k, n) for k in x], dtype=np.int64).reshape(len(x), n)
    xv = np.fromiter(x.values(), dtype=np.complex128, count=len(x))
    a_keys, x_keys = _pack_keys(a.cols, xk)
    x_order = np.argsort(x_keys, kind="stable")
    pos = np.searchsorted(x_keys[x_order], a_keys)
    pos = np.clip(pos, 0, len(x_keys) - 1)
    hit = x_keys[x_order][pos] == a_keys
    if not np.any(hit):
        return {}
    contrib = a.vals[hit] * xv[x_order[pos[hit]]]
    out_rows = a.rows[hit]
    urows, inv = np.unique(out_rows, axis=0, return_inverse=True)
    acc = np.zeros(len(urows), dtype=np.complex128)
    np.add.at(acc, inv, contrib)
    result = {}
    for r, v in zip(urows, acc):
        if v != 0:
            result[tuple(int(c) for c in r)] = complex(v)
    return result


@dataclass(frozen=True)
class TailModel:
    """Description of the matrix mass not stored explicitly.

    ``exact-finite`` asserts the stored entries are the whole operator.
    ``user-bound`` carries a nonincreasing function ``N -> upper bound on the
    l1 mass of the operator outside the window of radius N``; stored entries
    must be the operator's exact entries within their coverage window.
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


def _window_positions(coords, radius, dimension):
    width = 2 * radius + 1
    pos = np.zeros(len(coords), dtype=np.int64)
    for i in range(dimension):
        pos = pos * width + (coords[:, i] + radius)
    return pos


def _inside_mask(a: SparseL1Matrix, radius):
    return (sup_norm_array(a.rows) <= radius) & (sup_norm_array(a.cols) <= radius)


def truncate(a: SparseL1Matrix, tail: TailModel, w: TruncationWindow):
    """Dense finite section on the window plus the certified tail mass.

    ``tail_norm`` is the l1 mass of discarded stored entries plus the tail
    model's bound at the window radius; it dominates the l1 distance between
    the operator and the embedded section.  The model bound is evaluated no
    further out than the stored coverage radius: beyond it the stored data
    stops representing the operator, so the bound may not shrink further.
    """
    if w.dimension != a.dimension:
        raise DimensionMismatchError(f"dimension {a.dimension} vs {w.dimension}")
    if w.size > _SECTION_SIZE_LIMIT:
        raise ValueError(
            f"window of radius {w.radius} has {w.size} points; dense section "
            f"refused (limit {_SECTION_SIZE_LIMIT})"
        )
    inside = a.entry_radii <= w.radius
    dense = np.zeros((w.size, w.size), dtype=np.complex128)
    if np.any(inside):
        r = _window_positions(a.rows[inside], w.radius, a.dimension)
        c = _window_positions(a.cols[inside], w.radius, a.dimension)
        dense[r, c] = a.vals[inside]
    stored_tail = float(np.sum(np.abs(a.vals[~inside])))
    bound_radius = min(w.radius, a.support_radius)
    return FiniteSection(w, dense), stored_tail + tail.bound_at(bound_radius)


def finite_trace(f: FiniteSection):
    """Diagonal sum; equals the eigenvalue sum by similarity invariance."""
    return complex(np.trace(f.matrix))


def finite_determinant(f: FiniteSection):
    """det(I + F) by pivoted LU of the dense matrix I + F."""
    return complex(np.linalg.det(np.eye(f.matrix.shape[0]) + f.matrix))


def _safe_exp(x):
    return math.inf if x > _EXP_CAP else math.exp(x)


def _ladder_radii(coverage, max_radius, start_cap=8):
    """Doubling window radii min(coverage, 8), ..., clamped to the caps."""
    radii = []
    n = min(coverage, start_cap)
    while True:
        n = min(n, max_radius)
        radii.append(n)
        if n >= max_radius:
            break
        n = max(2 * n, 1)
        # visiting the coverage radius exactly lets exact-finite inputs finish
        if radii[-1] < coverage < n:
            n = coverage
    return radii


def poincare_trace(a: SparseL1Matrix, tail: TailModel, tol, max_radius=2**53):
    """Extended trace: diagonal sums over growing windows, with certification.

    Stops at the first ladder window whose tail mass is at most ``tol``; the
    trace tail is dominated by the l1 tail, so that mass certifies the error.
    As in :func:`truncate`, the model bound is floored at the stored coverage
    radius, so unrepresented windows cannot manufacture certificates.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    coverage = a.support_radius
    radii = _ladder_radii(coverage, max_radius)
    entry_radii = a.entry_radii
    # rungs beyond the stored coverage see the same entries as the coverage
    # rung; bucket against the covered prefix only, in the entries' dtype
    covered = [r for r in radii if r <= coverage] or radii[:1]
    edges = np.asarray(covered, dtype=entry_radii.dtype)
    buckets = np.searchsorted(edges, entry_radii, side="left")
    nb = len(covered) + 1
    mass_by_bucket = np.bincount(buckets, weights=np.abs(a.vals), minlength=nb)
    inside_mass = np.cumsum(mass_by_bucket)
    total_mass = float(inside_mass[-1]) if len(inside_mass) else 0.0

    all_diag = a.cols is a.rows or (a.nnz > 0 and bool(np.all(a.diag_mask)))
    db = buckets if all_diag else buckets[a.diag_mask]
    dvals = a.vals if all_diag else a.vals[a.diag_mask]
    diag_re = np.cumsum(np.bincount(db, weights=dvals.real, minlength=nb))
    if np.iscomplexobj(dvals):
        diag_im = np.cumsum(np.bincount(db, weights=dvals.imag, minlength=nb))
    else:
        diag_im = np.zeros(nb)

    attempts = []
    for i, n in enumerate(radii):
        j = min(i, len(covered) - 1)
        discarded = total_mass - float(inside_mass[j])
        t_n = discarded + tail.bound_at(min(int(n), coverage))
        attempts.append((int(n), t_n))
        if t_n <= tol:
            value = complex(diag_re[j] + 1j * diag_im[j])
            return TraceResult(value=value, certified_error=t_n)
    raise NonConvergenceError(
        f"trace tail mass did not reach tol={tol} by radius {max_radius}: "
        f"ladder tail {attempts[-3:]}",
        ladder=attempts,
        last_bound=attempts[-1][1] if attempts else None,
    )


def _tail_trace_t2(rows, cols, vals, diag):
    """Tr T^2 = sum over entry pairs T[i,j] T[j,i] for a sparse T."""
    if len(vals) == 0:
        return 0.0j
    total = complex(np.sum(vals[diag] ** 2))
    rows_o, cols_o, vals_o = rows[~diag], cols[~diag], vals[~diag]
    if len(vals_o):
        fwd = _pack_keys(np.concatenate([rows_o, cols_o], axis=1))[0]
        rev = _pack_keys(np.concatenate([cols_o, rows_o], axis=1))[0]
        order = np.argsort(fwd, kind="stable")
        pos = np.searchsorted(fwd[order], rev)
        pos = np.clip(pos, 0, len(fwd) - 1)
        hit = fwd[order][pos] == rev
        total += complex(np.sum(vals_o[hit] * vals_o[order[pos[hit]]]))
    return total


def _tail_cross_term(g_dense, radius, dimension, rows, cols, vals):
    """Tr(G T^2) with G dense on the window and T supported off the window."""
    row_in = sup_norm_array(rows) <= radius
    col_in = sup_norm_array(cols) <= radius
    wo = row_in & ~col_in  # T[b, c]: b in window, c outside
    ow = ~row_in & col_in  # T[c, a]: c outside, a in window
    if not (np.any(wo) and np.any(ow)):
        return 0.0j
    mid_wo, mid_ow = _pack_keys(cols[wo], rows[ow])
    order = np.argsort(mid_ow, kind="stable")
    mid_sorted = mid_ow[order]
    total = 0.0j
    b_pos = _window_positions(rows[wo], radius, dimension)
    a_pos_all = _window_positions(cols[ow], radius, dimension)
    v_wo = vals[wo]
    v_ow = vals[ow]
    for i in range(len(mid_wo)):
        lo, hi = np.searchsorted(mid_sorted, [mid_wo[i], mid_wo[i] + 1])
        if lo == hi:
            continue
        sel = order[lo:hi]
        # P[b, a] += T[b, c] T[c, a]; accumulate G[a, b] P[b, a]
        total += complex(
            np.sum(g_dense[a_pos_all[sel], b_pos[i]] * v_wo[i] * v_ow[sel])
        )
    return total


_CROSS_TERM_ENTRY_CAP = 500_000


def poincare_determinant(
    a: SparseL1Matrix,
    tail: TailModel,
    tol,
    max_radius=64,
):
    """Extended determinant of I + A over a doubling window ladder.

    The ladder records the raw section determinants.  At each rung both a
    Lipschitz bound on the raw value and (when the section is invertible and
    the tail is small enough) the tail-corrected value with its remainder
    bound are computed; the computation stops as soon as either certified
    bound reaches ``tol``.  ``certified_error`` bounds ``|value - Det(I+A)|``
    for the returned value, which is the corrected one whenever its bound is
    the sharper of the two.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    coverage = a.support_radius
    unstored = tail.bound_at(coverage)  # all mass beyond the stored entries
    norm_upper = a.l1_norm + unstored
    entry_radii = a.entry_radii
    abs_vals = np.abs(a.vals)
    diag_mask = a.diag_mask

    ladder = []
    best = None
    for n in _ladder_radii(coverage, max_radius):
        window = TruncationWindow(n, a.dimension)
        inside = entry_radii <= n
        dense = np.zeros((window.size, window.size), dtype=np.complex128)
        if np.any(inside):
            r = _window_positions(a.rows[inside], n, a.dimension)
            c = _window_positions(a.cols[inside], n, a.dimension)
            dense[r, c] = a.vals[inside]
        det_n = complex(np.linalg.det(np.eye(window.size) + dense))
        f_norm = float(np.sum(abs_vals[inside]))
        t_stored = a.l1_norm - f_norm
        t_bound = t_stored + unstored  # discarded stored plus all unstored
        b_raw = t_bound * _safe_exp(1.0 + norm_upper + f_norm)

        value, bound = det_n, b_raw
        raw_value_bound = b_raw
        if n <= coverage or coverage == 0:
            corrected = _corrected_step(
                a, dense, window, det_n, t_stored, unstored, inside, diag_mask
            )
            if corrected is not None:
                value_corr, b_corr = corrected
                raw_value_bound = min(b_raw, b_corr + abs(value_corr - det_n))
                if b_corr < bound:
                    value, bound = value_corr, b_corr
        ladder.append(LadderStep(n, det_n, raw_value_bound))
        if best is None or bound < best[0]:
            best = (bound, value)
        if bound <= tol:
            return DeterminantResult(
                value=value,
                ladder=ladder,
                certified_error=bound,
                converged=True,
            )
    raise NonConvergenceError(
        f"determinant bound did not reach tol={tol} within radius "
        f"{max_radius} (best certified bound {best[0]:.3e})",
        ladder=ladder,
        last_bound=best[0],
        last_value=best[1],
    )


def _corrected_step(a, dense, window, det_n, t_stored, unstored, inside, diag_mask):
    """Tail-corrected determinant value and its certified bound, or None."""
    if det_n == 0:
        return None
    size = dense.shape[0]
    try:
        inv = np.linalg.inv(np.eye(size) + dense)
    except np.linalg.LinAlgError:
        return None
    g_dense = inv - np.eye(size)
    g1 = float(np.sum(np.abs(g_dense)))
    t_total = t_stored + unstored
    s = (1.0 + g1) * t_total
    if s >= 0.9:
        return None

    outside = ~inside
    c1 = complex(np.sum(a.vals[outside & diag_mask]))
    off_diag_out = int(np.count_nonzero(outside & ~diag_mask))
    u_eff = unstored * (1.0 + g1)
    s_stored = (1.0 + g1) * t_stored
    if off_diag_out <= _CROSS_TERM_ENTRY_CAP:
        # second order: Tr X^2 = Tr T^2 + 2 Tr(G T^2) from stored tails
        rows, cols, vals = a.rows[outside], a.cols[outside], a.vals[outside]
        tr_t2 = _tail_trace_t2(rows, cols, vals, diag_mask[outside])
        cross = _tail_cross_term(g_dense, window.radius, a.dimension, rows, cols, vals)
        c2 = tr_t2 + 2.0 * cross
        omega = c1 - 0.5 * c2
        log_err = (
            unstored
            + 0.5 * (2.0 * s_stored * u_eff + u_eff * u_eff)
            + s**3 / (3.0 * (1.0 - s))
        )
    else:
        # first order only: |log Det(I+X) - Tr T| <= u + s^2/(2(1-s))
        c2 = 0.0
        omega = c1
        log_err = unstored + s**2 / (2.0 * (1.0 - s))
    log_err += 1e-14 * (1.0 + abs(c1) + abs(c2))  # accumulation roundoff slack
    value = det_n * np.exp(omega)
    det_slack = abs(det_n) * size * 5e-15  # LU determinant roundoff
    bound = abs(value) * math.expm1(min(log_err, _EXP_CAP)) + det_slack
    return complex(value), float(bound)


def invertibility_test(a: SparseL1Matrix, tail: TailModel, tol, max_radius=64):
    """Three-valued invertibility of I + A via the extended determinant.

    ``invertible`` when the determinant is certifiably away from zero,
    ``singular`` when it is indistinguishable from zero at tolerance ``tol``,
    ``undecided`` otherwise.  A ladder that exhausts the radius cap without
    certifying to ``tol`` still yields its best value and bound, which decide
    the question whenever they can (a numerical zero test is one-sided;
    near-roots legitimately end undecided).
    """
    try:
        result = poincare_determinant(a, tail, tol, max_radius=max_radius)
    except NonConvergenceError as err:
        result = DeterminantResult(
            value=err.last_value,
            ladder=err.ladder,
            certified_error=err.last_bound,
            converged=False,
        )
    return determinant_decision(result, tol), result


def determinant_decision(result: DeterminantResult, tol):
    if abs(result.value) > result.certified_error:
        return "invertible"
    if abs(result.value) + result.certified_error < tol:
        return "singular"
    return "undecided"
