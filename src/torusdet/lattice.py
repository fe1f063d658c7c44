"""Multi-index arithmetic on the integer lattice Z^n.

Indices are plain tuples of Python ints in the public API and int64 arrays of
shape (count, n) internally.  Truncation windows are symmetric sup-norm boxes
[-N, N]^n, enumerated in lexicographic order so that every reduction over a
window is reproducible bit for bit.
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


def bracket_array(coords):
    """Vectorized bracket for an (m, n) integer coordinate array."""
    coords = np.asarray(coords, dtype=np.float64)
    if coords.ndim == 1:
        coords = coords[:, None]
    return np.sqrt(1.0 + np.sum(coords * coords, axis=1))


def euclid_norm_array(coords):
    """Vectorized Euclidean norm |k| for an (m, n) coordinate array."""
    coords = np.asarray(coords, dtype=np.float64)
    if coords.ndim == 1:
        coords = coords[:, None]
    return np.sqrt(np.sum(coords * coords, axis=1))


def sup_norm(k):
    """Sup norm max_i |k_i| of an index tuple."""
    return max(abs(c) for c in as_index(k))


def sup_norm_array(coords):
    """Vectorized sup norm for an (m, n) coordinate array."""
    coords = np.asarray(coords)
    if coords.ndim == 1:
        coords = coords[:, None]
    if coords.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    if coords.shape[1] == 1:
        return np.abs(coords[:, 0])
    return np.max(np.abs(coords), axis=1)


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

        ``start`` and ``stop`` select positions with slice semantics, so
        ``coords_array(a, b)`` equals ``coords_array()[a:b]`` but allocates
        only the selected points.
        """
        start, stop, _ = slice(start, stop).indices(self.size)
        flat = np.arange(start, stop, dtype=np.int64)
        out = np.empty((len(flat), self.dimension), dtype=np.int64)
        for axis in range(self.dimension - 1, 0, -1):
            flat, digit = np.divmod(flat, 2 * self.radius + 1)
            out[:, axis] = digit - self.radius
        out[:, 0] = flat - self.radius
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
