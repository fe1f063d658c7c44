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

    def __init__(self, dimension, entries=None):
        entries = entries or {}
        rows = np.array([as_index(j, dimension) for j, _ in entries], dtype=np.int64)
        cols = np.array([as_index(k, dimension) for _, k in entries], dtype=np.int64)
        vals = np.array([complex(v) for v in entries.values()], dtype=np.complex128)
        self._adopt(dimension, rows, cols, vals)

    def _adopt(self, dimension, rows, cols, vals, norm=None, canonical=False):
        """Store (E, n) index arrays and (E,) values as this matrix's entries.

        float64 and complex128 values and integer index dtypes are kept as
        given; other values become complex128.  Unless ``canonical`` (the
        caller guarantees sorted, duplicate free, zero free), the entries are
        canonicalized, in the values' dtype.  The same array for rows and cols
        marks the matrix as diagonal.  ``norm`` may supply the l1 norm.
        """
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        vals = np.asarray(vals)
        if vals.dtype not in (np.float64, np.complex128):
            vals = vals.astype(np.complex128)
        rows = _as_coord_array(rows, len(vals), dimension)
        cols = _as_coord_array(cols, len(vals), dimension)
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
        norm = float(np.sum(np.abs(vals))) if norm is None else float(norm)
        object.__setattr__(self, "l1_norm", norm)
        return self

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
        summed = np.zeros(group_ids[-1] + 1, dtype=vals.dtype)
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
        return cls.__new__(cls)._adopt(dimension, rows, cols, vals)

    @classmethod
    def from_canonical_arrays(cls, dimension, rows, cols, vals, norm=None):
        """Adopt arrays the caller guarantees are already canonical.

        Canonical means: lexicographically sorted by (row, col), duplicate
        free, no exact zeros.  No verification passes are made, so huge
        structured matrices (analytic diagonals, bands) build in O(1) extra
        memory; ``norm`` may supply a precomputed l1 norm.  Passing the same
        array object for rows and cols marks the matrix as diagonal.
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


def _check_section_size(w: TruncationWindow):
    if w.size > _SECTION_SIZE_LIMIT:
        raise ValueError(
            f"window of radius {w.radius} has {w.size} points; dense section "
            f"refused (limit {_SECTION_SIZE_LIMIT})"
        )


def _section_matrix(rows, cols, vals, window):
    """Dense section on the window of entries that all lie inside it.

    The section is float64 when every value is real and complex128
    otherwise; every dense kernel downstream keeps that dtype.  Returns the
    section and the window positions (r, c) of the entries.
    """
    real = not np.any(vals.imag)
    dense = np.zeros((window.size, window.size), np.float64 if real else np.complex128)
    r = _window_positions(rows, window.radius, window.dimension)
    c = _window_positions(cols, window.radius, window.dimension)
    dense[r, c] = vals.real if real else vals
    return dense, (r, c)


def _add_identity(dense):
    """I + dense, in place."""
    dense.flat[:: dense.shape[0] + 1] += 1.0
    return dense


# Dense kernels on sections.  A section is the direct sum of the connected
# components of its nonzero pattern, so det, inverse and SVD are computed per
# component, with one LAPACK call per component size on the stacked blocks.


def _component_labels(size, i, j):
    """Smallest index of the connected component of each of 0..size-1.

    Components of the graph with the links (i[e], j[e]): roots are hooked
    onto the smallest neighbouring root and pointers jumped to their roots
    until no link joins two roots.
    """
    off = i != j
    i, j = i[off], j[off]
    labels = np.arange(size)
    while True:
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped
        li, lj = labels[i], labels[j]
        split = li != lj
        if not np.any(split):
            return labels
        li, lj = li[split], lj[split]
        np.minimum.at(labels, np.maximum(li, lj), np.minimum(li, lj))


def _section_blocks(m, links=None):
    """Window positions of the components of m, grouped by component size.

    Components are those of m's nonzero pattern; ``links`` may give the
    positions (i, j) of m's off-diagonal nonzeros instead of a scan of m.
    None when m is one component.  Otherwise a list of (count, s) index
    arrays, one per size s; each row holds one component's positions in
    ascending order, and rows are ordered by their first position.
    """
    i, j = np.nonzero(m) if links is None else links
    labels = _component_labels(m.shape[0], i, j)
    order = np.argsort(labels, kind="stable")
    starts = np.flatnonzero(np.diff(labels[order], prepend=-1))
    if len(starts) == 1:
        return None
    sizes = np.diff(starts, append=len(labels))
    return [
        order[starts[sizes == s][:, None] + np.arange(s)] for s in np.unique(sizes)
    ]


def _block_index(idx):
    """Index of the stacked (count, s, s) blocks on the (count, s) positions."""
    return idx[:, :, None], idx[:, None, :]


def _scaled_product(values):
    """Product of nonzero values, carried as mantissa and binary exponent.

    Every partial product is a product of at most 256 mantissas in
    [0.5, 1), so none over- or underflows before the final scaling.
    """
    _, exps = np.frexp(np.abs(values))
    mant = _ldexp(values, -exps)
    value, exponent = 1.0, int(np.sum(exps))
    for start in range(0, len(mant), 256):
        value = value * np.prod(mant[start : start + 256])
        _, e = np.frexp(np.abs(value))
        value = _ldexp(value, -e)
        exponent += int(e)
    return complex(_ldexp(value, exponent))


def _ldexp(x, e):
    """x * 2**e, exact on the real and imaginary parts separately."""
    if not np.iscomplexobj(x):
        return np.ldexp(x, e)
    out = np.empty(np.shape(x), dtype=np.complex128)
    out.real = np.ldexp(x.real, e)
    out.imag = np.ldexp(x.imag, e)
    return out


def _section_det(m, blocks=None):
    """det(m), the product of its component determinants.

    An exactly singular component gives exactly 0.  ``blocks`` may pass the
    :func:`_section_blocks` of m when the caller already has them.
    """
    blocks = _section_blocks(m) if blocks is None else blocks
    if blocks is None:
        return complex(np.linalg.det(m))
    dets = np.concatenate([np.linalg.det(m[_block_index(idx)]) for idx in blocks])
    if not np.all(dets):
        return 0j  # not the signed zero a product of mantissas may give
    return _scaled_product(dets)


def _section_inv(m, blocks=None):
    """m^{-1}, assembled from the component inverses; LinAlgError if singular."""
    blocks = _section_blocks(m) if blocks is None else blocks
    if blocks is None:
        return np.linalg.inv(m)
    inv = np.zeros_like(m)
    for idx in blocks:
        inv[_block_index(idx)] = np.linalg.inv(m[_block_index(idx)])
    return inv


def _section_min_singular(m):
    """Smallest and largest singular value of m and a vector v for the smallest.

    v is LAPACK's last right singular vector (a row of V^H) of the component
    with the smallest sigma_min, zero elsewhere; among tied components, the
    one whose first window position comes first.
    """
    blocks = _section_blocks(m)
    if blocks is None:
        _, svals, vh = np.linalg.svd(m)
        return float(svals[-1]), float(svals[0]), vh[-1]
    firsts, smallest, largest, vectors = [], [], [], []
    for idx in blocks:
        _, svals, vh = np.linalg.svd(m[_block_index(idx)])
        firsts.append(idx[:, 0])
        smallest.append(svals[:, -1])
        largest.append(svals[:, 0])
        vectors.extend(zip(idx, vh[:, -1]))
    firsts, smallest = np.concatenate(firsts), np.concatenate(smallest)
    pick = np.lexsort((firsts, smallest))[0]
    idx, row = vectors[pick]
    v = np.zeros(m.shape[0], dtype=row.dtype)
    v[idx] = row
    return float(smallest[pick]), float(np.max(np.concatenate(largest))), v


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
    _check_section_size(w)
    inside = a.entry_radii <= w.radius
    dense, _ = _section_matrix(a.rows[inside], a.cols[inside], a.vals[inside], w)
    stored_tail = float(np.sum(np.abs(a.vals[~inside])))
    bound_radius = min(w.radius, a.support_radius)
    return FiniteSection(w, dense), stored_tail + tail.bound_at(bound_radius)


def finite_trace(f: FiniteSection):
    """Diagonal sum; equals the eigenvalue sum by similarity invariance."""
    return complex(np.trace(f.matrix))


def finite_determinant(f: FiniteSection):
    """det(I + F) by pivoted LU of each connected component of I + F."""
    return _section_det(np.eye(f.matrix.shape[0]) + f.matrix)


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


def _rung_buckets(entry_radii, radii, coverage):
    """Ladder bucket of each entry radius, in one pass over the entries.

    Rungs beyond the stored coverage see the same entries as the coverage
    rung, so the radii are bucketed against the covered prefix of ``radii``
    only, in the entries' dtype.  Bucket ``i`` holds the entries inside rung
    ``i`` and outside rung ``i - 1``; bucket ``len(covered)`` those beyond
    every covered rung.  Returns ``(covered, buckets)``.
    """
    covered = [r for r in radii if r <= coverage] or radii[:1]
    edges = np.asarray(covered, dtype=entry_radii.dtype)
    return covered, np.searchsorted(edges, entry_radii, side="left")


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
    covered, buckets = _rung_buckets(a.entry_radii, radii, coverage)
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


def _transpose_pair_sum(rows, cols, vals):
    """Sum of T[i,j] T[j,i] over off-diagonal entries whose transpose is stored."""
    if len(vals) == 0:
        return 0.0j
    fwd, rev = _pack_keys(
        np.concatenate([rows, cols], axis=1), np.concatenate([cols, rows], axis=1)
    )
    order = np.argsort(fwd, kind="stable")
    pos = np.searchsorted(fwd[order], rev)
    pos = np.clip(pos, 0, len(fwd) - 1)
    hit = fwd[order][pos] == rev
    return complex(np.sum(vals[hit] * vals[order[pos[hit]]]))


def _tail_cross_term(g_dense, radius, dimension, rows, cols, vals):
    """Tr(G T^2) with G dense on the window and T supported off the window.

    Only T[b, c] with b inside and c outside meets T[c, a] with c outside and
    a inside, so ``Tr(G T^2) = sum G[a, b] T[b, c] T[c, a]`` over those
    pairs; each row-in/col-out entry is expanded against the sorted range of
    row-out/col-in entries sharing its outside index, as in :func:`compose`.
    """
    row_in = sup_norm_array(rows) <= radius
    col_in = sup_norm_array(cols) <= radius
    wo = row_in & ~col_in  # T[b, c]: b in window, c outside
    ow = ~row_in & col_in  # T[c, a]: c outside, a in window
    if not (np.any(wo) and np.any(ow)):
        return 0.0j
    mid_wo, mid_ow = _pack_keys(cols[wo], rows[ow])
    order = np.argsort(mid_ow, kind="stable")
    mid_sorted = mid_ow[order]
    lo = np.searchsorted(mid_sorted, mid_wo, side="left")
    counts = np.searchsorted(mid_sorted, mid_wo, side="right") - lo
    i = np.repeat(np.arange(len(mid_wo)), counts)
    j = order[np.arange(len(i)) + np.repeat(lo - (np.cumsum(counts) - counts), counts)]
    b_pos = _window_positions(rows[wo], radius, dimension)
    a_pos = _window_positions(cols[ow], radius, dimension)
    return complex(np.sum(g_dense[a_pos[j], b_pos[i]] * vals[wo][i] * vals[ow][j]))


_CROSS_TERM_ENTRY_CAP = 500_000


class _LadderTails:
    """The stored entries of a determinant ladder, split in one pass.

    Entries inside the last rung ("near") are kept with their rung bucket, so
    each rung works only on them and on its dense section.  Entries beyond
    the last rung ("far") lie in every rung's tail and are reduced once to
    the totals the tail statistics need: the diagonal sum and square sum and
    the off-diagonal count.  Transpose partners share an entry radius, so
    the far part of ``Tr T^2`` is a separate pair sum; and only far entries
    with one index inside the last rung ("straddling") can meet a section in
    ``Tr(G T^2)``.  Both are gathered by the first rung that needs them.
    """

    def __init__(self, a: SparseL1Matrix, radii):
        self.a = a
        self.last = radii[-1]
        entry_radii = a.entry_radii
        near = entry_radii <= self.last
        idx = np.flatnonzero(near)
        self.covered, self.bucket = _rung_buckets(
            entry_radii[idx], radii, a.support_radius
        )
        self.rows, self.cols, self.vals = a.rows[idx], a.cols[idx], a.vals[idx]
        self.abs_vals = np.abs(self.vals)
        self.diag = a.diag_mask[idx]
        far = ~near
        if a.cols is a.rows:
            far_diag, self._far_off = a.vals[far], None
        else:
            far_diag = a.vals[far & a.diag_mask]
            self._far_off = far & ~a.diag_mask
        self.far_trace = complex(np.sum(far_diag))
        self.far_trace_sq = complex(np.dot(far_diag, far_diag))
        self.far_off_count = a.nnz - len(idx) - len(far_diag)
        self._far_pairs = None

    def inside(self, rung):
        """Mask of the near entries inside the rung with the given index."""
        return self.bucket <= min(rung, len(self.covered) - 1)

    def _far_pair_statistics(self):
        """Far transpose-pair sum and the straddling entries, gathered once."""
        if self._far_pairs is None:
            pairs, straddle = 0.0j, None
            if self.far_off_count:
                idx = np.flatnonzero(self._far_off)
                rows, cols, vals = self.a.rows[idx], self.a.cols[idx], self.a.vals[idx]
                pairs = _transpose_pair_sum(rows, cols, vals)
                keep = np.minimum(sup_norm_array(rows), sup_norm_array(cols)) <= self.last
                straddle = rows[keep], cols[keep], vals[keep]
            self._far_pairs = pairs, straddle
        return self._far_pairs

    def second_order(self, g_dense, window, outside):
        """``Tr T^2`` and ``Tr(G T^2)`` for the tail of the rung on ``window``."""
        pairs, straddle = self._far_pair_statistics()
        off = outside & ~self.diag
        d = self.vals[outside & self.diag]
        rows, cols, vals = self.rows[off], self.cols[off], self.vals[off]
        tr_t2 = (
            self.far_trace_sq
            + complex(np.dot(d, d))
            + pairs
            + _transpose_pair_sum(rows, cols, vals)
        )
        if straddle is not None:
            s_rows, s_cols, s_vals = straddle
            rows = np.concatenate([rows, s_rows])
            cols = np.concatenate([cols, s_cols])
            vals = np.concatenate([vals, s_vals])
        cross = _tail_cross_term(
            g_dense, window.radius, window.dimension, rows, cols, vals
        )
        return tr_t2, cross


def poincare_determinant(a: SparseL1Matrix, tail: TailModel, tol, max_radius=64):
    """Extended determinant of I + A over a doubling window ladder.

    The ladder records the raw section determinants.  At each rung both a
    Lipschitz bound on the raw value and (when the section is invertible and
    the tail is small enough) the tail-corrected value with its remainder
    bound are computed; the computation stops as soon as either certified
    bound reaches ``tol``.  ``certified_error`` bounds ``|value - Det(I+A)|``
    for the returned value, which is the corrected one whenever its bound is
    the sharper of the two.  Each call passes over the stored entries once;
    a rung's work is its dense section and the entries near the windows.
    A ladder that stops short of ``tol`` raises :class:`NonConvergenceError`
    carrying the ladder and the best rung's value and bound.
    """
    result, stop = _determinant_ladder(a, tail, tol, max_radius)
    if stop is not None:
        raise NonConvergenceError(
            f"determinant bound did not reach tol={tol} {stop} "
            f"(best certified bound {result.certified_error:.3e})",
            ladder=result.ladder,
            last_bound=result.certified_error,
            last_value=result.value,
        )
    return result


def _determinant_ladder(a: SparseL1Matrix, tail: TailModel, tol, max_radius):
    """The ladder of :func:`poincare_determinant` and why it stopped short.

    Returns ``(result, stop)``: a converged result and None, or the best
    rung's value and bound with ``converged=False`` and the phrase saying
    where the ladder ended.  A first rung over the dense section limit
    raises :func:`truncate`'s ``ValueError``.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    coverage = a.support_radius
    unstored = tail.bound_at(coverage)  # all mass beyond the stored entries
    norm_upper = a.l1_norm + unstored
    radii = _ladder_radii(coverage, max_radius)
    tails = _LadderTails(a, radii)

    ladder = []
    best = None
    stop = f"within radius {max_radius}"
    for i, n in enumerate(radii):
        window = TruncationWindow(n, a.dimension)
        if window.size > _SECTION_SIZE_LIMIT:
            if not ladder:  # no rung to fall back on: refuse as truncate does
                _check_section_size(window)
            stop = (
                f"before the window of radius {n} ({window.size} points) "
                f"passed the dense section limit {_SECTION_SIZE_LIMIT}"
            )
            break
        inside = tails.inside(i)
        section, links = _section_matrix(
            tails.rows[inside], tails.cols[inside], tails.vals[inside], window
        )
        section = _add_identity(section)
        blocks = _section_blocks(section, links)
        det_n = _section_det(section, blocks)
        f_norm = float(np.sum(tails.abs_vals[inside]))
        t_stored = a.l1_norm - f_norm
        t_bound = t_stored + unstored  # discarded stored plus all unstored
        b_raw = t_bound * _safe_exp(1.0 + norm_upper + f_norm)

        value, bound = det_n, b_raw
        raw_value_bound = b_raw
        # a corrected bound can only matter against a nonzero raw bound
        if (n <= coverage or coverage == 0) and b_raw != 0:
            corrected = _corrected_step(
                tails, section, blocks, window, det_n, t_stored, unstored, ~inside
            )
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
    return best, stop


def _corrected_step(tails, section, blocks, window, det_n, t_stored, unstored, outside):
    """Tail-corrected determinant value and its certified bound, or None.

    ``section`` is I + F on the window, ``blocks`` its components, and
    ``outside`` masks the near entries of ``tails`` beyond the window.
    """
    t_total = t_stored + unstored
    # s = (1 + ||G||_1) t_total >= t_total: no inverse can bring s under 0.9
    if det_n == 0 or t_total >= 0.9:
        return None
    size = section.shape[0]
    try:
        g_dense = _section_inv(section, blocks)
    except np.linalg.LinAlgError:
        return None
    g_dense.flat[:: size + 1] -= 1.0  # G = (I + F)^{-1} - I
    g1 = float(np.sum(np.abs(g_dense)))
    s = (1.0 + g1) * t_total
    if s >= 0.9:
        return None

    out_diag = outside & tails.diag
    c1 = tails.far_trace + complex(np.sum(tails.vals[out_diag]))
    off_diag_out = tails.far_off_count + int(
        np.count_nonzero(outside) - np.count_nonzero(out_diag)
    )
    u_eff = unstored * (1.0 + g1)
    s_stored = (1.0 + g1) * t_stored
    if off_diag_out <= _CROSS_TERM_ENTRY_CAP:
        # second order: Tr X^2 = Tr T^2 + 2 Tr(G T^2) from stored tails
        tr_t2, cross = tails.second_order(g_dense, window, outside)
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
    certifying to ``tol`` still yields its best value and bound (with
    ``converged=False``), which decide the question whenever they can (a
    numerical zero test is one-sided; near-roots legitimately end undecided).
    """
    result, _ = _determinant_ladder(a, tail, tol, max_radius)
    return determinant_decision(result, tol), result


def determinant_decision(result: DeterminantResult, tol):
    if abs(result.value) > result.certified_error:
        return "invertible"
    if abs(result.value) + result.certified_error < tol:
        return "singular"
    return "undecided"
