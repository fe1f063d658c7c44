"""Multi-index arithmetic on the integer lattice Z^n.

Indices are plain tuples of Python ints in the public API and int64 arrays of
shape (count, n) internally.  Truncation windows are symmetric sup-norm boxes
[-N, N]^n, enumerated in lexicographic order so that every reduction over a
window is reproducible bit for bit; :func:`box_coords` enumerates any
rectangular box, and a window is its cube case.

Every match of entries by multi-index goes through one key and one join:
:func:`index_keys` encodes index rows as int64 keys that sort like the rows,
and :func:`matching_pairs` lists the equal-key pairs of two key arrays.  The
matrix canonical order, products, applications, the trace sums of the
determinant ladder and tabulated symbols are all built on them;
:func:`window_positions` places rows inside one window.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np


class InvalidOrderError(ValueError):
    """A difference order with a negative component was requested."""


def as_index(k, n=None):
    """Coerce ``k`` (int or iterable of ints) to a validated index tuple."""
    if isinstance(k, (int, np.integer)):
        k = (int(k),)
    else:
        k = tuple(int(c) for c in k)
    if len(k) == 0:
        raise ValueError("indices must have dimension >= 1")
    if n is not None and len(k) != n:
        raise ValueError(f"index {k} has dimension {len(k)}, expected {n}")
    return k


def bracket(k):
    """Japanese bracket <k> = (1 + |k|^2)^(1/2)."""
    k = as_index(k)
    return math.sqrt(1.0 + sum(c * c for c in k))


def squared_norm_array(coords, dtype=np.float64):
    """|k|^2 for each row of an (m, n) coordinate array, in ``dtype``.

    Summed column by column, which for integer coordinates (exact squares
    and sums below 2^53 in float64) equals the row sums of ``coords**2``.
    """
    coords = np.asarray(coords, dtype=dtype)
    if coords.ndim == 1:
        coords = coords[:, None]
    out = np.zeros(coords.shape[0], dtype=dtype)
    for i in range(coords.shape[1]):
        column = coords[:, i]
        out += column * column
    return out


def bracket_array(coords):
    """Vectorized bracket for an (m, n) integer coordinate array."""
    return np.sqrt(1.0 + squared_norm_array(coords))


def euclid_norm_array(coords):
    """Vectorized Euclidean norm |k| for an (m, n) coordinate array."""
    return np.sqrt(squared_norm_array(coords))


def sup_norm_array(coords):
    """Vectorized sup norm for an (m, n) coordinate array, column by column."""
    coords = np.asarray(coords)
    if coords.ndim == 1:
        coords = coords[:, None]
    if coords.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    out = np.abs(coords[:, 0])
    for i in range(1, coords.shape[1]):
        np.maximum(out, np.abs(coords[:, i]), out=out)
    return out


@dataclass(frozen=True, order=True)
class TruncationWindow:
    """The box {k in Z^n : max_i |k_i| <= radius}, totally ordered by radius."""

    radius: int
    dimension: int

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError("window radius must be nonnegative")
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")

    @property
    def size(self):
        return (2 * self.radius + 1) ** self.dimension

    def contains(self, k):
        k = as_index(k, self.dimension)
        return all(abs(c) <= self.radius for c in k)

    def coords_array(self, start=0, stop=None):
        """Window points as a (count, n) int64 array, lexicographic order.

        The cube case of :func:`box_coords`: ``coords_array(a, b)`` equals
        ``coords_array()[a:b]`` but allocates only the selected points.
        """
        return box_coords((-self.radius,) * self.dimension, (self.radius,) * self.dimension,
                          start, stop)


def box_size(lo, hi):
    """Number of points of the box prod_i [lo_i, hi_i] (0 when any lo_i > hi_i)."""
    return math.prod(max(h - l + 1, 0) for l, h in zip(lo, hi))


def box_coords(lo, hi, start=0, stop=None):
    """Points of the box prod_i [lo_i, hi_i] as a (count, n) int64 array.

    Lexicographic order; ``start`` and ``stop`` select positions with slice
    semantics, so ``box_coords(lo, hi, a, b)`` equals
    ``box_coords(lo, hi)[a:b]`` but allocates only the selected points.
    """
    start, stop, _ = slice(start, stop).indices(box_size(lo, hi))
    flat = np.arange(start, stop, dtype=np.int64)
    out = np.empty((len(flat), len(lo)), dtype=np.int64)
    for axis in range(len(lo) - 1, 0, -1):
        flat, digit = np.divmod(flat, hi[axis] - lo[axis] + 1)
        np.add(digit, lo[axis], out=out[:, axis])
    np.add(flat, lo[0], out=out[:, 0])
    return out


def shell_tail(radius, dimension, order, scale=1.0, offset=0.0):
    """Upper bound on sum_{|k|_inf > radius} 1 / ((scale |k|_inf)^order + offset).

    Requires ``order > dimension``, ``scale > 0`` and ``offset >= 0``.  Exact
    sup-norm shell counts for 1024 shells, then an integral comparison with
    count(j) <= 2 n 3^{n-1} j^{n-1} and each summand at most
    (scale j)^{-order}.  The bound also holds for sum 1/w(k) with any weight
    w(k) >= (scale |k|_inf)^order + offset, such as the damping
    (2pi |k|)^nu + 1 (scale 2pi, offset 1) or <k>^{-m} (order -m).
    """
    if not order > dimension:
        raise ValueError(f"tail diverges: order {order} <= dimension {dimension}")
    j0 = int(radius) + 1
    j1 = j0 + 1024
    js = np.arange(j0, j1, dtype=np.float64)
    counts = (2 * js + 1) ** dimension - (2 * js - 1) ** dimension
    with np.errstate(over="ignore"):  # an inf weight gives the limit 0
        head = float(np.sum(counts / ((scale * js) ** order + offset)))
    c = 2 * dimension * 3 ** (dimension - 1) * scale ** (-order)
    p = dimension - 1 - order
    return head + c * (j1 - 1) ** (p + 1) / (-(p + 1))


def enumerate_window(w: TruncationWindow):
    """All points of the window as tuples, in lexicographic order."""
    rng = range(-w.radius, w.radius + 1)
    return [pt for pt in itertools.product(rng, repeat=w.dimension)]


def window_position(w: TruncationWindow, k):
    """Position of index ``k`` in ``enumerate_window(w)`` order."""
    k = as_index(k, w.dimension)
    if not w.contains(k):
        raise ValueError(f"{k} lies outside window of radius {w.radius}")
    width = 2 * w.radius + 1
    pos = 0
    for c in k:
        pos = pos * width + (c + w.radius)
    return pos


def window_positions(coords, radius):
    """:func:`window_position` of each row of an (m, n) array inside the window."""
    pos = np.zeros(len(coords), dtype=np.int64)
    for i in range(coords.shape[1]):
        pos = pos * (2 * radius + 1) + coords[:, i] + radius
    return pos


def index_keys(*coord_arrays):
    """One int64 key array per (m_i, n) coordinate array, on a shared encoding.

    Equal rows get equal keys, and keys sort like the rows lexicographically,
    so one sort or binary search on keys orders or matches multi-indices.
    The keys are the rows' :func:`window_positions` in the window of radius
    M, the largest |coordinate|; when that window has 2^62 points or more
    they are the rows' ranks from ``np.unique`` instead.
    """
    stacked = np.concatenate(coord_arrays, axis=0)
    if len(stacked) == 0:
        return [np.zeros(0, dtype=np.int64) for _ in coord_arrays]
    m = int(np.max(np.abs(stacked)))
    if (2 * m + 1) ** stacked.shape[1] < 2**62:
        keys = window_positions(stacked, m)
    else:
        keys = np.unique(stacked, axis=0, return_inverse=True)[1].reshape(-1)
    return np.split(keys, np.cumsum([len(c) for c in coord_arrays[:-1]]))


def matching_pairs(left, right):
    """Every (i, j) with ``left[i] == right[j]``, for 1-D key arrays.

    Ordered by i, then j: each left key is expanded against the range of
    equal keys in a stable sort of ``right``.
    """
    order = np.argsort(right, kind="stable")
    ordered = right[order]
    lo = np.searchsorted(ordered, left, side="left")
    counts = np.searchsorted(ordered, left, side="right") - lo
    i = np.repeat(np.arange(len(left)), counts)
    j = order[np.arange(len(i)) + np.repeat(lo - (np.cumsum(counts) - counts), counts)]
    return i, j


def forward_difference(phi, alpha, k):
    """Forward difference Delta^alpha phi evaluated at k.

    Computed as the alternating binomial sum
    sum_{beta <= alpha} (-1)^{|alpha - beta|} C(alpha, beta) phi(k + beta),
    which agrees with iterating the one-step differences
    phi(k + e_j) - phi(k) along each axis.  Exact for integer-valued ``phi``
    (coefficients are Python ints).
    """
    alpha = as_index(alpha)
    k = as_index(k, len(alpha))
    if any(a < 0 for a in alpha):
        raise InvalidOrderError(f"difference order {alpha} has a negative entry")
    total = 0
    for beta in itertools.product(*(range(a + 1) for a in alpha)):
        coeff = 1
        for a, b in zip(alpha, beta):
            coeff *= math.comb(a, b)
        sign = -1 if (sum(alpha) - sum(beta)) % 2 else 1
        point = tuple(c + b for c, b in zip(k, beta))
        total += sign * coeff * phi(point)
    return total
