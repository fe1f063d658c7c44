"""Hill's determinant method for (-Delta)^{nu/2} u + Q u = 0 on the torus.

Inserting the Fourier series of Q and u into the equation gives the
coefficient system

    (2pi)^nu |k|^nu b_k + sum_m g_{k-m} b_m = 0        for every k in Z^n,

where g are the Fourier coefficients of Q.  Dividing row k by the damping
weight d(k) = (2pi)^nu |k|^nu + 1 turns this into (I + B) b = 0 with

    B[k, m] = (g_{k-m} - delta_{km}) / d(k);

the -delta_{km} keeps the two systems equivalent, since
(2pi)^nu |k|^nu = d(k) - 1.  For nu > n the damping makes B summable
(sum_k 1/d(k) < infinity), so the extended determinant of I + B is defined
and vanishes exactly when the equation has a nontrivial periodic solution.
Multiplying a null vector of I + B back by d(k) recovers a solution of the
undamped system, and conversely.

Note the equivalence is exact including the k = 0 mode: for Q = 0 the
constants solve the equation and correspondingly the k = 0 column of I + B
vanishes, so the determinant is zero.

The spectral shift scan replaces g_0 by g_0 + lambda and locates determinant
roots in lambda; a root lambda* certifies that -lambda* is an approximate
eigenvalue of (-Delta)^{nu/2} + Q.  On a fixed section the shifted
determinant is a polynomial in lambda whose roots are minus the eigenvalues
of the undamped section, so the scan solves one eigenproblem per section
(Deconinck & Kutz, J. Comput. Phys. 219, 2006).
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from ._dense import _Stacks, _section_parts, _singular_parts, _singular_summary, _singular_vector
from .lattice import (
    TruncationWindow,
    as_index,
    euclid_norm_array,
    index_keys,
    shell_tail,
    sup_norm_array,
    window_positions,
)
from .l1_algebra import (
    DeterminantResult,
    SparseL1Matrix,
    TailModel,
    _check_section_size,
    _converged,
    _determinant_ladder,
    _rung_buckets,
    _section_rungs,
    determinant_decision,
)

_HEAD_BLOCK = 1 << 16  # points per block of the head sums; factors per block of the scan
_HEAD_POINTS = 2049**2  # largest default head window: radius 1024 in 2-D


class InfeasibleOrderError(ValueError):
    """The order nu does not exceed the dimension; the damping is not l1."""


class NoNullSolutionError(RuntimeError):
    """No near-null vector below the singular value threshold."""

    def __init__(self, message, singular_value):
        super().__init__(message)
        self.singular_value = singular_value


@dataclass(frozen=True)
class HillProblem:
    """Equation data: dimension n, order nu > n, potential coefficients g.

    Everything derived from (g, nu) is computed here once: the damped
    numerators g - delta (``offsets`` in descending lexicographic order,
    ``values``, l1 ``mass``, ``g0``), ``off_mass`` = ||g||_1 - |g_0|, the
    reach and the ``pair_*`` arrays of :func:`_square_pairs`; :meth:`weights`
    is the one evaluation of the damping d(k).  ``potential`` is kept as a
    read-only mapping, so none of this can go stale.

    What Hill's method computes from the problem alone is kept on first use
    (:meth:`_memo`): the head sums of :func:`_head_sums` per head radius, the
    near entries of :class:`_HillTails` per list of rung radii, and per
    window radius the singular values of the section of I + B (each part's
    sigma_min, the pick, sigma_max) and, once a caller has wanted it, the
    vector for the smallest; :func:`_window_min_singular` alone reads and
    fills these two.  For a window of N points each is O(N) times the
    number of offsets of g at most: no section is kept, so its factors are
    built anew by every call that needs them (a null vector's residual
    does).  The store is a plain attribute, not a field, so equality and
    repr see only (n, nu, g).
    """

    dimension: int
    nu: float
    potential: Mapping

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if not self.nu > self.dimension:
            raise InfeasibleOrderError(
                f"nu must exceed the dimension: nu={self.nu}, n={self.dimension}"
            )
        clean = {}
        for k, v in self.potential.items():
            v = complex(v)
            if v != 0:
                clean[as_index(k, self.dimension)] = v
        object.__setattr__(self, "potential", MappingProxyType(clean))
        if not math.isfinite(self.potential_l1()):
            raise ValueError("the l1 mass of the potential is not finite")
        coeffs = self.damped_coeffs()
        offsets = sorted(coeffs, reverse=True)
        zero = (0,) * self.dimension
        pair_offsets, pair_weights, pair_reach = _square_pairs(coeffs, self.dimension)
        vars(self).update(
            offsets=np.asarray(offsets, dtype=np.int64).reshape(len(offsets), self.dimension),
            values=np.asarray([coeffs[l] for l in offsets]),
            mass=float(sum(abs(v) for v in coeffs.values())),
            g0=complex(coeffs.get(zero, 0.0)),
            off_mass=self.potential_l1() - abs(clean.get(zero, 0.0)),
            _reach=max((max(abs(c) for c in l) for l in clean), default=0),
            pair_offsets=pair_offsets,
            pair_weights=pair_weights,
            pair_reach=pair_reach,
            _cache={},
        )

    _memo = SparseL1Matrix._memo

    def potential_l1(self):
        return float(sum(abs(v) for v in self.potential.values()))

    def reach(self):
        """Largest sup-norm offset carrying a potential coefficient."""
        return self._reach

    def shifted(self, lam):
        """The problem for Q + lam (g_0 replaced by g_0 + lam)."""
        zero = (0,) * self.dimension
        g = dict(self.potential)
        g[zero] = g.get(zero, 0.0) + lam
        return HillProblem(self.dimension, self.nu, g)

    def damped_coeffs(self):
        """Offsets and values of g - delta_0 (the damped numerators)."""
        zero = (0,) * self.dimension
        g = dict(self.potential)
        g[zero] = g.get(zero, 0.0) - 1.0
        return {l: v for l, v in g.items() if v != 0}

    def weights(self, coords):
        """Damping weights d(k) = (2pi)^nu |k|^nu + 1 at the rows of an (m, n)
        array; weights beyond the float range are inf, whose reciprocal 0 is
        the limit."""
        with np.errstate(over="ignore"):
            return (2.0 * np.pi * euclid_norm_array(coords)) ** self.nu + 1.0

    def tail_bound(self, radius, mass=None):
        """Bound on the l1 mass of B outside the window of the given radius,
        union bound over the pairs with the row outside and those with the
        column outside (rows beyond radius - reach).  ``mass`` defaults to
        ||g - delta||_1; the scan passes those of its shifted problems."""
        mass = self.mass if mass is None else mass
        return mass * (_damping_tail(self, radius) + _damping_tail(self, radius - self._reach))


def _damping_tail(p: HillProblem, radius, power=1):
    """Upper bound on sum_{|k|_inf > radius} 1/((2 pi |k|_inf)^(power nu) + 1).

    It dominates sum 1/d(k)^power over the same k.  A negative radius takes
    in k = 0, whose term is 1.
    """
    tail = shell_tail(max(radius, 0), p.dimension, power * p.nu, 2.0 * math.pi, 1.0)
    return tail + 1.0 if radius < 0 else tail


def build_hill_matrix(p: HillProblem, w: TruncationWindow, weights=None):
    """Damped coefficient matrix B[k, m] = (g_{k-m} - delta_{km}) / d(k).

    Entries are stored for k, m in the window; the tail model bounds the
    remaining mass by ||g - delta||_1 times damped lattice tails (union bound
    over row-outside and column-outside index pairs).  With the rows in
    window order and the offsets l in descending lexicographic order the
    columns k - l ascend within each row, so the triples are emitted in
    canonical order and adopted without a sort; entries whose value
    underflows to zero are dropped.  ``weights`` may pass d(k) on the
    window's points, as :meth:`HillProblem.weights` gives them, when the
    caller has them.
    """
    if w.dimension != p.dimension:
        raise ValueError(f"dimension {p.dimension} vs window {w.dimension}")
    ks = w.coords_array()
    vals = p.values / (p.weights(ks) if weights is None else weights)[:, None]
    if not len(p.offsets):
        matrix = SparseL1Matrix.zero(p.dimension)
    elif not p.offsets.any():
        # g_0 alone: one array for rows and cols marks the matrix diagonal
        keep = vals[:, 0] != 0
        rows = ks[keep]
        matrix = SparseL1Matrix.from_canonical_arrays(p.dimension, rows, rows, vals[keep, 0])
    else:
        cols = ks[:, None, :] - p.offsets[None, :, :]
        inside = sup_norm_array(cols.reshape(-1, p.dimension)) <= w.radius
        keep = inside.reshape(vals.shape) & (vals != 0)
        matrix = SparseL1Matrix.from_canonical_arrays(
            p.dimension, ks[np.nonzero(keep)[0]], cols[keep], vals[keep]
        )
    return matrix, TailModel.user_bound(p.tail_bound)


def _inverse_damping_tail(p: HillProblem, radius):
    """Two-sided bracket (lo, hi) on S = sum_{|k|_inf > radius} 1 / d(k).

    In 1-D, f(x) = 1 / ((2 pi x)^nu + 1) is convex for x >= 1/2, so the
    trapezoid and midpoint rules give
    ``2 (int_{R+1} f + f(R+1) / 2) <= S <= 2 int_{R+1/2} f``, and
    ``1/u - 1/u^2 <= 1/(u + 1) <= 1/u`` bracket the integrals in closed form;
    the width is O(R^(-nu-1)).  In n >= 2 the bracket is [0, shell_tail].
    """
    if p.dimension > 1:
        return 0.0, _damping_tail(p, radius)
    x = radius + 1.0
    v = (2.0 * math.pi * x) ** -p.nu  # 1/u at x; underflows quietly to 0
    lo = 2.0 * (x * v / (p.nu - 1.0) - x * v * v / (2.0 * p.nu - 1.0) + 0.5 * v / (1.0 + v))
    x = radius + 0.5
    hi = 2.0 * x * (2.0 * math.pi * x) ** -p.nu / (p.nu - 1.0)
    return lo, hi


def _square_pairs(coeffs, dimension):
    """Offsets l with g_l and g_-l both set, one of each pair (l, -l).

    Returns the offsets, the weights g_l g_-l (doubled for l != 0, whose
    partner -l has the same shell sums) and the sup norms of the offsets.
    """
    offsets, weights = [], []
    for l in sorted(coeffs):
        neg = tuple(-c for c in l)
        if neg in coeffs and l >= neg:
            offsets.append(l)
            weights.append(coeffs[l] * coeffs[neg] * (1.0 if l == neg else 2.0))
    offsets = np.asarray(offsets, dtype=np.int64).reshape(len(offsets), dimension)
    return offsets, np.asarray(weights, dtype=np.complex128), sup_norm_array(offsets)


def _square_tail(p: HillProblem, radius):
    """Upper bounds on sum_{max(|k|_inf, |k - l|_inf) > radius} 1/(d(k) d(k - l)).

    One per square pair offset l of the problem: both indices lie beyond
    radius - |l|_inf, 1/(d(k) d(k-l)) <= (1/d(k)^2 + 1/d(k-l)^2) / 2 and
    d^2 >= (2 pi |k|_inf)^(2 nu) + 1.
    """
    return np.array([_damping_tail(p, radius - int(r), 2) for r in p.pair_reach])


def _head_sums(p: HillProblem, radius):
    """Exact sums over the head window of the given radius, by shell.

    ``shell[j]`` is sum_{|k|_inf = j} 1/d(k), and ``pair[i, j]`` the sum of
    1/(d(k) d(k - l)) over the k with max(|k|_inf, |k - l|_inf) = j, for
    the i-th square pair offset l; j runs to the radius.  The window is
    visited in blocks of ``_HEAD_BLOCK`` points.  d(k) and |k|_inf are
    evaluated once per point of the block's span in the window widened by
    the pair reach, where k - l lies at k's position less a fixed shift, so
    every pair term is gathered from them.
    """
    w = TruncationWindow(radius, p.dimension)
    padded = TruncationWindow(radius + int(np.max(p.pair_reach, initial=0)), p.dimension)
    strides = (2 * padded.radius + 1) ** np.arange(p.dimension - 1, -1, -1, dtype=np.int64)
    shifts = p.pair_offsets @ strides
    span = int(np.max(np.abs(shifts), initial=0))
    shell = np.zeros(radius + 1)
    pair = np.zeros((len(p.pair_offsets), radius + 1))
    for start in range(0, w.size, _HEAD_BLOCK):
        pos = window_positions(w.coords_array(start, start + _HEAD_BLOCK), padded.radius)
        lo = int(pos[0]) - span
        pts = padded.coords_array(lo, int(pos[-1]) + span + 1)
        d, sup = p.weights(pts), sup_norm_array(pts)
        pos -= lo
        inv_d = 1.0 / d[pos]
        r = sup[pos]
        shell += np.bincount(r, inv_d, radius + 1)
        for i, (l, shift) in enumerate(zip(p.pair_offsets, shifts)):
            if not l.any():
                pair[i] += np.bincount(r, inv_d * inv_d, radius + 1)
                continue
            at = pos - shift
            key = np.maximum(r, sup[at])
            keep = key <= radius
            h = inv_d[keep] / d[at[keep]]
            pair[i] += np.bincount(key[keep], h, radius + 1)
    return shell, pair


def _beyond(shells):
    """Sums over the shells past each index: out[..., j] = sum_{i > j} shells[..., i]."""
    summed = np.cumsum(shells[..., ::-1], axis=-1)[..., ::-1]
    return np.concatenate([summed[..., 1:], np.zeros(shells.shape[:-1] + (1,))], axis=-1)


class _HillTails:
    """Tail provider of :func:`l1_algebra._determinant_ladder` for I + B.

    The rungs and ``floor`` are the :func:`~torusdet.l1_algebra._section_rungs`
    of ``max_radius``.  Entries of B are materialized only on the last rung
    widened by the reach of g ("near"), each with the rung bucket of
    max(row radius, col radius): they give each rung's section, the boundary
    rows (inside the window, with columns outside it) and the tail entries
    the ladder meets with G in ``Tr(G T^2)``, which all lie there.  The rest
    of the tail T of the window of radius R comes from the potential, with
    S_R = sum_{|k|_inf > R} 1/d(k):

        ||T||_1 <= ||g - delta||_1 S_R + (boundary rows),
        Tr T = (g_0 - 1) S_R,
        Tr T^2 = sum_l g_l g_-l sum_{k or k - l outside} 1/(d(k) d(k - l)),

    with g_l standing for the damped coefficients g - delta.  Each lattice
    sum is an exact head to the head radius K plus a two-sided bracket
    beyond it; the moments are the bracket midpoints and carry half its
    width as their error.  These sums cover all of T, so no mass is unstored.
    The problem keeps the near entries per rung list and the sums beyond
    each shell per head radius (see :class:`HillProblem`).
    """

    def __init__(self, p: HillProblem, tol, max_radius, head_radius=None):
        self.problem = p
        # B = 0 when g = delta: its first rung, radius 0, is already exact
        self.radii, self.floor = _section_rungs(max_radius if len(p.offsets) else 0, p.dimension)
        self.rows, self.cols, self.vals, self.abs_vals, self.row_r, self.bucket = p._memo(
            ("near", tuple(self.radii)), self._near_entries
        )
        self.head = int(self._default_head(tol, max_radius) if head_radius is None else head_radius)
        self.shell_beyond, self.pair_beyond = p._memo(
            ("head", self.head), lambda: tuple(_beyond(sums) for sums in _head_sums(p, self.head))
        )

    def _near_entries(self):
        """rows, cols, vals, abs_vals, row_r and bucket of the near entries."""
        p = self.problem
        near, _ = build_hill_matrix(p, TruncationWindow(self.radii[-1] + p.reach(), p.dimension))
        row_r = sup_norm_array(near.rows)
        bucket = _rung_buckets(np.maximum(row_r, sup_norm_array(near.cols)), self.radii)
        return near.rows, near.cols, near.vals, np.abs(near.vals), row_r, bucket

    def _default_head(self, tol, max_radius):
        """Default head radius K, doubled from max(4 max_radius, 1024) until the
        brackets beyond K move the log of the corrected value by at most
        tol / 16, or until the head window would pass ``_HEAD_POINTS`` points.
        """
        p = self.problem
        largest = (int(_HEAD_POINTS ** (1.0 / p.dimension) + 1e-9) - 1) // 2
        g0, weights = abs(p.g0), np.abs(p.pair_weights)

        def bracket_error(k):
            lo, hi = _inverse_damping_tail(p, k)
            square = float(np.sum(weights * _square_tail(p, k)))
            return g0 * 0.5 * (hi - lo) + 0.25 * square

        k = min(max(4 * max_radius, 1024), largest)
        while bracket_error(k) > tol / 16.0 and 2 * k <= largest:
            k *= 2
        return k

    def inverse_damping_sum(self, rung):
        """(lo, hi) around S_R for the rung of radius R."""
        r = self.radii[rung]
        lo, hi = _inverse_damping_tail(self.problem, max(r, self.head))
        head = float(self.shell_beyond[r]) if r < self.head else 0.0
        return head + lo, head + hi

    def l1_tail(self, rung, f_norm):
        """Bound on ||T||_1, no unstored mass, and a bound on ||B||_1."""
        rows_in = (self.bucket > rung) & (self.row_r <= self.radii[rung])
        boundary = float(np.sum(self.abs_vals[rows_in]))
        t_total = self.problem.mass * self.inverse_damping_sum(rung)[1] + boundary
        return t_total, 0.0, f_norm + t_total

    def moments(self, rung):
        """``(Tr T, error)`` and ``(Tr T^2, error)`` for the rung's tail."""
        p, r = self.problem, self.radii[rung]
        lo, hi = self.inverse_damping_sum(rung)
        head = self.pair_beyond[:, r] if r < self.head else np.zeros(len(p.pair_weights))
        width = _square_tail(p, max(r, self.head))
        tr_t = (p.g0 * (0.5 * (lo + hi)), abs(p.g0) * 0.5 * (hi - lo))
        tr_t2 = (
            complex(np.sum(p.pair_weights * (head + 0.5 * width))),
            float(np.sum(np.abs(p.pair_weights) * (0.5 * width))),
        )
        return tr_t, tr_t2


def hill_determinant(p: HillProblem, tol, max_radius=64, coverage_radius=None):
    """Extended determinant of I + B, with its tail taken from the potential.

    Entries of B are materialized only on the last ladder rung widened by
    the reach of g; ||T||_1, Tr T and Tr T^2 of every rung's tail are
    lattice sums over the damping, exact to the head radius
    ``coverage_radius`` and bracketed beyond it, and the ladder forms
    Tr(G T^2) exactly from the materialized entries (see :class:`_HillTails`).
    The certificate is then the one of :func:`poincare_determinant`: the
    Lipschitz bound, or the second-order correction whose error is the
    bracket half-widths plus the third-order remainder s^3 / (3(1 - s)).
    The default head radius is the provider's own at ``tol``
    (:meth:`_HillTails._default_head`).
    A ladder that stops short of ``tol`` raises ``NonConvergenceError``.
    """
    return _converged(_HillTails(p, tol, max_radius, coverage_radius), tol)


@dataclass
class ExistenceResult:
    decision: str  # nontrivial-solution | only-trivial | undecided
    determinant: DeterminantResult
    kernel_certified: bool = False


def existence_test(p: HillProblem, tol=1e-8, max_radius=64, coverage_radius=None):
    """Decide existence of nontrivial periodic solutions.

    Maps the three-valued determinant test: a certified nonzero determinant means
    only the trivial solution, a certified zero means a nontrivial solution
    exists.  The determinant is the ladder of :func:`hill_determinant`, with
    the same default head radius ``coverage_radius`` of its lattice sums; a
    ladder that stops short of ``tol`` still decides with its best value and
    bound.  When the determinant alone stays undecided and the dense section
    limit left the ladder's rungs uncut up to ``max_radius``, a candidate
    null vector from the SVD of that window is checked against every row of
    the infinite matrix it touches (exact, as g has finite support); a
    vanishing residual certifies singularity.
    """
    tails = _HillTails(p, tol, max_radius, coverage_radius)
    det, _ = _determinant_ladder(tails, tol)
    decision = determinant_decision(det, tol)
    if decision == "invertible":
        return ExistenceResult("only-trivial", det)
    if decision == "singular":
        return ExistenceResult("nontrivial-solution", det)
    if tails.radii[-1] == max_radius and _kernel_certified(p, max_radius):
        return ExistenceResult("nontrivial-solution", det, kernel_certified=True)
    return ExistenceResult("undecided", det)


def _window_matrix(p: HillProblem, radius):
    """Window of the radius, B's entries on it (window positions r, c and values) and d(k) on it."""
    w = TruncationWindow(radius, p.dimension)
    _check_section_size(w)
    weights = p.weights(w.coords_array())
    b, _ = build_hill_matrix(p, w, weights)
    return w, window_positions(b.rows, radius), window_positions(b.cols, radius), b.vals, weights


def _window_min_singular(p: HillProblem, radius, wanted):
    """Smallest and largest singular value of I + B on the window, and a vector v for the smallest.

    The window's factors, :func:`~torusdet._dense._section_parts` of the
    entries of :func:`_window_matrix`, are never N x N for a window that
    splits; their SVD is :func:`~torusdet._dense._singular_summary` and,
    only if ``wanted(smallest, largest)`` holds, the vector of
    :func:`~torusdet._dense._singular_vector`.  The problem keeps both per
    window radius, and the factors are built at most once per call, only
    for what is not kept yet or for a caller that gets a vector.  Returns
    ``(smallest, largest, v, (w, parts, d(k)))``, the last two None unless
    v is wanted.
    """
    @functools.cache
    def section():
        w, r, c, vals, weights = _window_matrix(p, radius)
        return w, _section_parts(w.size, r, c, vals, 1.0), weights

    pieces = functools.cache(lambda: _singular_parts(section()[1]))
    summary = p._memo(("singular values", radius), lambda: _singular_summary(pieces()))
    if not wanted(*summary[2:]):
        return *summary[2:], None, None
    return *p._memo(("singular vector", radius), lambda: _singular_vector(pieces(), summary)), section()


@np.errstate(over="ignore")  # a residual past the float range is inf
def _full_residual(p: HillProblem, w: TruncationWindow, parts, b_vec):
    """(I + B) b over every row the window-supported b touches, undamped-free.

    Rows inside the window use ``parts``, the factors of the section of
    I + B; rows outside receive only the g-convolution term, computed
    exactly from the finite potential: the terms of all offsets are summed
    per row through the rows' lattice keys, offset by offset in the
    problem's offset order.
    An overflowed residual is inf, which no threshold accepts.
    """
    shifted = w.coords_array()[None, :, :] + p.offsets[:, None, :]
    out = np.max(np.abs(shifted), axis=2) > w.radius
    rows = shifted[out]  # offset by offset, each in window order
    terms = (p.values[:, None] * b_vec)[out] / p.weights(rows)
    _, row = np.unique(index_keys(rows)[0], return_inverse=True)
    outside = np.bincount(row, terms.real) ** 2 + np.bincount(row, terms.imag) ** 2
    inside = float(np.sum(np.abs(parts @ b_vec) ** 2))
    return math.sqrt(inside + float(np.sum(outside)))


def _kernel_certified(p: HillProblem, radius):
    """Whether a window null vector annihilates the infinite matrix."""
    _, _, v, section = _window_min_singular(
        p, radius, lambda smallest, largest: smallest <= 1e-10 * max(largest, 1.0)
    )
    if v is None:
        return False
    w, parts, _ = section
    return _full_residual(p, w, parts, np.conj(v)) <= 1e-13 * (1.0 + p.potential_l1() + 1.0)


@dataclass
class SolutionCandidate:
    """Normalized Fourier coefficients of a reconstructed null solution."""

    coefficients: dict
    residual: float  # l2 norm of the undamped coefficient equation over the window
    regularity_mass: float  # sum over the window of |k|^nu |b_k|
    regularity_bound: float  # (2pi)^{-nu} ||b||_1 ||g||_1, the a-posteriori bound
    window: TruncationWindow
    singular_value: float


def extract_null_solution(p: HillProblem, w: TruncationWindow, threshold=1e-6):
    """Reconstruct a null solution from the smallest singular vector.

    The candidate is the right singular vector of the smallest singular
    value of the section of I + B on the window, taken over the section's
    factors by :func:`_window_min_singular`
    (robust under the +-k degeneracies of even problems).  It lives on one
    connected component: on a tie, as between the +-k modes of a constant
    potential, the one holding the lexicographically first window point.
    For an even potential (g_-l = g_l) on one component it is a pure
    cos-type (b_-k = b_k) or sin-type (b_-k = -b_k) combination, cos-type
    on a tie.  The residual reports the undamped coefficient equation: each
    damped row is multiplied back by d(k).
    """
    if w.dimension != p.dimension:
        raise ValueError(f"dimension {p.dimension} vs window {w.dimension}")
    smallest, _, v, section = _window_min_singular(
        p, w.radius, lambda smallest, _: smallest <= threshold
    )
    if v is None:
        raise NoNullSolutionError(
            f"smallest singular value {smallest:.3e} exceeds threshold "
            f"{threshold:.3e}; no null solution on this window",
            singular_value=smallest,
        )
    _, parts, weights = section
    b_vec = np.conj(v)
    b_vec = b_vec / np.linalg.norm(b_vec)
    pts = w.coords_array()
    residual = float(np.linalg.norm((parts @ b_vec) * weights))
    norms = euclid_norm_array(pts)
    regularity_mass = float(np.sum(norms**p.nu * np.abs(b_vec)))
    bound = (2.0 * np.pi) ** (-p.nu) * float(np.sum(np.abs(b_vec))) * p.potential_l1()
    nonzero = np.flatnonzero(b_vec)
    return SolutionCandidate(
        coefficients=dict(zip(map(tuple, pts[nonzero].tolist()), b_vec[nonzero].astype(complex).tolist())),
        residual=residual,
        regularity_mass=regularity_mass,
        regularity_bound=bound,
        window=w,
        singular_value=smallest,
    )


@dataclass
class ScanFailure:
    lo: float
    hi: float
    reason: str


@dataclass
class SpectralScan:
    lambdas: list
    values: list  # section determinant at each grid shift
    certified: list  # raw Lipschitz bound of each section value
    brackets: list  # (lambda_lo, lambda_hi) grid cell holding each root
    roots: list  # (lambda_star, |det(lambda_star)|) accepted and merged
    multiplicities: list = field(default_factory=list)  # candidates per root
    failures: list = field(default_factory=list)  # candidates the gate rejected


def spectral_shift_scan(p: HillProblem, lambdas, tol, radius=32):
    """Locate determinant roots of the shifted family Q + lambda.

    On the section of the given radius, I + B(lambda) = diag(1/d) (M + lambda)
    with M = diag(d) (I + B(0)) the undamped section, so

        det(I + B(lambda)) = prod_i (mu_i + lambda) / prod_k d(k)

    over the eigenvalues mu_i of M (the Floquet-Fourier-Hill method): one
    general eigensolve, valid for non-self-adjoint Q, gives the whole table.
    ``certified`` holds the raw Lipschitz bound t exp(1 + ||A||_1 + ||F||_1)
    of each section value, with t the damped tail bound at the radius and
    ||A||_1 <= ||F||_1 + t.  Every -Re mu_i inside the grid range is a root
    candidate; it is accepted when |det| from an LU of the section there is
    below max(tol, 10 x certified error), and accepted candidates within
    4 tol of each other merge into one root whose multiplicity counts them.
    A root lambda* certifies -lambda* as an approximate eigenvalue of the
    operator.
    """
    if not tol > 0:  # NaN too
        raise ValueError("tol must be positive")
    grid = np.asarray(lambdas, float)
    if not grid.size:
        raise ValueError("scan grid is empty")
    if not np.all(np.diff(grid) > 0):  # NaN fails too
        raise ValueError("scan grid must be strictly increasing")
    if not np.all(np.isfinite(grid)):  # a lone NaN and the infinities pass the order check
        raise ValueError("scan grid points must be finite")
    lambdas = grid.tolist()

    w, r, c, vals, weights = _window_matrix(p, radius)
    dense = _Stacks.identity_plus([np.arange(w.size)[None]], r, c, vals, 1.0).stacks[0][0]  # I + B
    mu = np.linalg.eigvals(weights[:, None] * dense)
    # ascending eigenvalues against ascending weights keep every factor
    # (mu_i + lambda) / d_i of moderate size; a product that still overflows
    # (coefficients of 1e200, say) is inf
    mu = mu[np.argsort(mu.real)]
    scale, rows = np.sort(weights), max(1, _HEAD_BLOCK // len(mu))
    with np.errstate(over="ignore"):
        values = np.concatenate([np.prod((mu + grid[i:i + rows, None]) / scale, axis=1)
                                 for i in range(0, len(grid), rows)])
    if np.isrealobj(dense):
        values = values.real  # conjugate eigenvalue pairs leave roundoff

    # ||F||_1 of the section of B(lambda): fixed off-diagonal part plus the
    # shifted diagonal |g_0 + lambda - 1| / d(k)
    off_norm = float(np.sum(np.abs(dense)) - np.sum(np.abs(np.diag(dense))))
    inv_d_sum = float(np.sum(1.0 / weights))

    def certificate(lam):
        diag = np.abs(p.g0 + lam)
        t = p.tail_bound(radius, diag + p.off_mass)
        f_norm = off_norm + diag * inv_d_sum
        with np.errstate(over="ignore"):
            return t * np.exp(1.0 + 2.0 * f_norm + t)

    def cell(lam):
        i = int(np.searchsorted(grid, lam, side="right")) - 1
        i = min(max(i, 0), max(len(lambdas) - 2, 0))
        return lambdas[i], lambdas[min(i + 1, len(lambdas) - 1)]

    shifts = np.sort(-mu.real) + 0.0  # + 0.0 turns -0.0 into 0.0
    candidates = shifts[(shifts >= grid[0]) & (shifts <= grid[-1])]
    roots, multiplicities, failures = [], [], []
    previous = None
    for star, cert in zip(candidates, certificate(candidates)):
        star, cert = float(star), float(cert)
        # I + B(star) = I + B(0) + star diag(1/d)
        mag = float(abs(np.linalg.det(dense + np.diag(star / weights))))
        if not mag < max(tol, 10.0 * cert):
            failures.append(
                ScanFailure(
                    *cell(star),
                    f"|det| {mag:.3e} at candidate {star!r} exceeds "
                    f"max(tol, 10 x certified error {cert:.3e})",
                )
            )
            continue
        if previous is not None and star - previous <= 4.0 * tol:
            multiplicities[-1] += 1
            if mag < roots[-1][1]:
                roots[-1] = (star, mag)
        else:
            roots.append((star, mag))
            multiplicities.append(1)
        previous = star
    return SpectralScan(
        lambdas=lambdas,
        values=values.tolist(),
        certified=certificate(grid).tolist(),
        brackets=[cell(star) for star, _ in roots],
        roots=roots,
        multiplicities=multiplicities,
        failures=failures,
    )
