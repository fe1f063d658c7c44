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
from dataclasses import dataclass, field

import numpy as np

from ._dense import _section_min_singular, _section_singular_values
from .lattice import (
    TruncationWindow,
    as_index,
    euclid_norm_array,
    shell_tail,
    sup_norm_array,
)
from .l1_algebra import (
    DeterminantResult,
    SparseL1Matrix,
    TailModel,
    _add_identity,
    _check_section_size,
    _converged,
    _determinant_ladder,
    _ladder_radii,
    _rung_buckets,
    _section_matrix,
    determinant_decision,
)

_HEAD_BLOCK = 1 << 16  # lattice points per block of the head sums
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
    """Equation data: dimension n, order nu > n, potential coefficients g."""

    dimension: int
    nu: float
    potential: dict

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
        object.__setattr__(self, "potential", clean)

    def potential_l1(self):
        return float(sum(abs(v) for v in self.potential.values()))

    def reach(self):
        """Largest sup-norm offset carrying a potential coefficient."""
        return max((max(abs(c) for c in l) for l in self.potential), default=0)

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


def damping(coords, nu):
    """Damping weights d(k) = (2pi)^nu |k|^nu + 1, vectorized.

    Weights beyond the float range are inf, whose reciprocal 0 is the limit.
    """
    with np.errstate(over="ignore"):
        return (2.0 * np.pi * euclid_norm_array(coords)) ** nu + 1.0


def _damping_tail(radius, dimension, order):
    """Upper bound on sum_{|k|_inf > radius} 1/((2 pi |k|_inf)^order + 1).

    It dominates sum 1/d(k) at order nu and sum 1/d(k)^2 at order 2 nu over
    the same k.  A negative radius takes in k = 0, whose term is 1.
    """
    tail = shell_tail(max(radius, 0), dimension, order, 2.0 * math.pi, 1.0)
    return tail + 1.0 if radius < 0 else tail


def _damped_tail_bound(mass, reach, dimension, nu, radius):
    """Bound on the l1 mass of B outside the window of the given radius.

    ``mass`` is ||g - delta||_1 (a float or an array of them) and ``reach``
    the largest sup-norm offset of g; union bound over the index pairs with
    the row outside the window and those with the column outside (whose
    rows lie beyond radius - reach).
    """
    return mass * (
        _damping_tail(radius, dimension, nu)
        + _damping_tail(radius - reach, dimension, nu)
    )


def build_hill_matrix(p: HillProblem, w: TruncationWindow):
    """Damped coefficient matrix B[k, m] = (g_{k-m} - delta_{km}) / d(k).

    Entries are stored for k, m in the window; the tail model bounds the
    remaining mass by ||g - delta||_1 times damped lattice tails (union bound
    over row-outside and column-outside index pairs).  With the rows in
    window order and the offsets l in descending lexicographic order the
    columns k - l ascend within each row, so the triples are emitted in
    canonical order and adopted without a sort; entries whose value
    underflows to zero are dropped.
    """
    if w.dimension != p.dimension:
        raise ValueError(f"dimension {p.dimension} vs window {w.dimension}")
    coeffs = p.damped_coeffs()
    ks = w.coords_array()
    weights = damping(ks, p.nu)
    offsets = sorted(coeffs, reverse=True)
    vals = np.asarray([coeffs[l] for l in offsets]) / weights[:, None]
    shifts = np.asarray(offsets, dtype=np.int64).reshape(len(offsets), p.dimension)
    if not offsets:
        matrix = SparseL1Matrix.zero(p.dimension)
    elif not shifts.any():
        # g_0 alone: one array for rows and cols marks the matrix diagonal
        keep = vals[:, 0] != 0
        rows = ks[keep]
        matrix = SparseL1Matrix.from_canonical_arrays(
            p.dimension, rows, rows, vals[keep, 0]
        )
    else:
        cols = ks[:, None, :] - shifts[None, :, :]
        inside = sup_norm_array(cols.reshape(-1, p.dimension)) <= w.radius
        keep = inside.reshape(vals.shape) & (vals != 0)
        matrix = SparseL1Matrix.from_canonical_arrays(
            p.dimension, ks[np.nonzero(keep)[0]], cols[keep], vals[keep]
        )

    mass = float(sum(abs(v) for v in coeffs.values()))
    bound = functools.partial(_damped_tail_bound, mass, p.reach(), p.dimension, p.nu)
    return matrix, TailModel.user_bound(bound)


def _inverse_damping_tail(radius, dimension, nu):
    """Two-sided bracket (lo, hi) on S = sum_{|k|_inf > radius} 1 / d(k).

    In 1-D, f(x) = 1 / ((2 pi x)^nu + 1) is convex for x >= 1/2, so the
    trapezoid and midpoint rules give
    ``2 (int_{R+1} f + f(R+1) / 2) <= S <= 2 int_{R+1/2} f``, and
    ``1/u - 1/u^2 <= 1/(u + 1) <= 1/u`` bracket the integrals in closed form;
    the width is O(R^(-nu-1)).  In n >= 2 the bracket is [0, shell_tail].
    """
    if dimension > 1:
        return 0.0, _damping_tail(radius, dimension, nu)
    x = radius + 1.0
    v = (2.0 * math.pi * x) ** -nu  # 1/u at x; underflows quietly to 0
    lo = 2.0 * (x * v / (nu - 1.0) - x * v * v / (2.0 * nu - 1.0) + 0.5 * v / (1.0 + v))
    x = radius + 0.5
    hi = 2.0 * x * (2.0 * math.pi * x) ** -nu / (nu - 1.0)
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


def _square_tail(radius, reach, dimension, nu):
    """Upper bounds on sum_{max(|k|_inf, |k - l|_inf) > radius} 1/(d(k) d(k - l)).

    One per offset sup norm in ``reach``: both indices lie beyond
    radius - |l|_inf, 1/(d(k) d(k-l)) <= (1/d(k)^2 + 1/d(k-l)^2) / 2 and
    d^2 >= (2 pi |k|_inf)^(2 nu) + 1.
    """
    return np.array([_damping_tail(radius - int(r), dimension, 2.0 * nu) for r in reach])


def _head_sums(p: HillProblem, offsets, radius):
    """Exact sums over the head window of the given radius, by shell.

    ``shell[j]`` is sum_{|k|_inf = j} 1/d(k), and ``pair[i, j]`` the sum of
    1/(d(k) d(k - l)) over the k with max(|k|_inf, |k - l|_inf) = j, for
    the i-th offset l; j runs to the radius.  The window is visited in
    blocks of ``_HEAD_BLOCK`` points.
    """
    w = TruncationWindow(radius, p.dimension)
    shell = np.zeros(radius + 1)
    pair = np.zeros((len(offsets), radius + 1))
    for start in range(0, w.size, _HEAD_BLOCK):
        ks = w.coords_array(start, start + _HEAD_BLOCK)
        inv_d = 1.0 / damping(ks, p.nu)
        r = sup_norm_array(ks)
        shell += np.bincount(r, inv_d, radius + 1)
        for i, l in enumerate(offsets):
            if not l.any():
                pair[i] += np.bincount(r, inv_d * inv_d, radius + 1)
                continue
            km = ks - l
            key = np.maximum(r, sup_norm_array(km))
            keep = key <= radius
            h = inv_d[keep] / damping(km[keep], p.nu)
            pair[i] += np.bincount(key[keep], h, radius + 1)
    return shell, pair


def _beyond(shells):
    """Sums over the shells past each index: out[..., j] = sum_{i > j} shells[..., i]."""
    summed = np.cumsum(shells[..., ::-1], axis=-1)[..., ::-1]
    return np.concatenate([summed[..., 1:], np.zeros(shells.shape[:-1] + (1,))], axis=-1)


class _HillTails:
    """Tail provider of :func:`l1_algebra._determinant_ladder` for I + B.

    Entries of B are materialized only on the last rung widened by the reach
    of g ("near"), each with the rung bucket of max(row radius, col radius):
    they give each rung's section, the boundary rows (inside the window,
    with columns outside it) and the tail entries the ladder meets with G in
    ``Tr(G T^2)``, which all lie there.  The rest of the tail T of the window
    of radius R comes from the potential, with
    S_R = sum_{|k|_inf > R} 1/d(k):

        ||T||_1 <= ||g - delta||_1 S_R + (boundary rows),
        Tr T = (g_0 - 1) S_R,
        Tr T^2 = sum_l g_l g_-l sum_{k or k - l outside} 1/(d(k) d(k - l)),

    with g_l standing for the damped coefficients g - delta.  Each lattice
    sum is an exact head to the head radius K plus a two-sided bracket
    beyond it; the moments are the bracket midpoints and carry half its
    width as their error.  These sums cover all of T, so no mass is unstored.
    """

    floor = None  # the potential gives every entry: no coverage radius ends the ladder

    def __init__(self, p: HillProblem, head_radius, max_radius):
        n = p.dimension
        coeffs = p.damped_coeffs()
        self.dimension = n
        self.nu = p.nu
        # B = 0 when g = delta: its first rung, radius 0, is already exact
        self.radii = _ladder_radii(max_radius if coeffs else 0)
        window = TruncationWindow(self.radii[-1] + p.reach(), n)
        near, _ = build_hill_matrix(p, window)
        self.rows, self.cols, self.vals = near.rows, near.cols, near.vals
        self.abs_vals = np.abs(near.vals)
        self.row_r = sup_norm_array(near.rows)
        self.bucket = _rung_buckets(
            np.maximum(self.row_r, sup_norm_array(near.cols)), self.radii
        )
        self.mass = float(sum(abs(v) for v in coeffs.values()))
        self.g0 = complex(coeffs.get((0,) * n, 0.0))
        offsets, self.weights, self.reach = _square_pairs(coeffs, n)
        self.head = int(head_radius)
        shell, pair = _head_sums(p, offsets, self.head)
        self.shell_beyond, self.pair_beyond = _beyond(shell), _beyond(pair)

    def straddle(self):
        """None: every tail entry that meets a section is near."""
        return None

    def inverse_damping_sum(self, rung):
        """(lo, hi) around S_R for the rung of radius R."""
        r = self.radii[rung]
        lo, hi = _inverse_damping_tail(max(r, self.head), self.dimension, self.nu)
        head = float(self.shell_beyond[r]) if r < self.head else 0.0
        return head + lo, head + hi

    def l1_tail(self, rung, f_norm):
        """Bound on ||T||_1, no unstored mass, and a bound on ||B||_1."""
        rows_in = (self.bucket > rung) & (self.row_r <= self.radii[rung])
        boundary = float(np.sum(self.abs_vals[rows_in]))
        t_total = self.mass * self.inverse_damping_sum(rung)[1] + boundary
        return t_total, 0.0, f_norm + t_total

    def moments(self, rung):
        """``(Tr T, error)`` and ``(Tr T^2, error)`` for the rung's tail."""
        r = self.radii[rung]
        lo, hi = self.inverse_damping_sum(rung)
        head = self.pair_beyond[:, r] if r < self.head else np.zeros(len(self.weights))
        width = _square_tail(max(r, self.head), self.reach, self.dimension, self.nu)
        tr_t = (self.g0 * (0.5 * (lo + hi)), abs(self.g0) * 0.5 * (hi - lo))
        tr_t2 = (
            complex(np.sum(self.weights * (head + 0.5 * width))),
            float(np.sum(np.abs(self.weights) * (0.5 * width))),
        )
        return tr_t, tr_t2


def _largest_head(dimension):
    """Largest head radius whose window holds at most ``_HEAD_POINTS`` points."""
    return (int(_HEAD_POINTS ** (1.0 / dimension) + 1e-9) - 1) // 2


def _head_radius(p: HillProblem, tol, max_radius):
    """Default head radius K of :func:`hill_determinant` and :func:`existence_test`.

    K doubles from max(4 max_radius, 1024) until the brackets beyond K move
    the log of the corrected value by at most tol / 16, or until the head
    window would pass ``_HEAD_POINTS`` points.
    """
    n = p.dimension
    largest = _largest_head(n)
    coeffs = p.damped_coeffs()
    g0 = abs(coeffs.get((0,) * n, 0.0))
    _, weights, reach = _square_pairs(coeffs, n)
    weights = np.abs(weights)

    def bracket_error(k):
        lo, hi = _inverse_damping_tail(k, n, p.nu)
        square = float(np.sum(weights * _square_tail(k, reach, n, p.nu)))
        return g0 * 0.5 * (hi - lo) + 0.25 * square

    k = min(max(4 * max_radius, 1024), largest)
    while bracket_error(k) > tol / 16.0 and 2 * k <= largest:
        k *= 2
    return k


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
    By default the head radius is :func:`_head_radius` at ``tol``: the
    brackets must move the result by under tol / 16, with at most 2049^2
    head points.
    A ladder that stops short of ``tol`` raises ``NonConvergenceError``.
    """
    if coverage_radius is None:
        coverage_radius = _head_radius(p, tol, max_radius)
    return _converged(_HillTails(p, coverage_radius, max_radius), tol)


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
    the same default head radius ``coverage_radius`` of its lattice sums
    (:func:`_head_radius` at ``tol``); a ladder that stops short of ``tol``
    still decides with its best value and bound.  When the determinant alone
    stays undecided, a finitely supported candidate null vector from the
    window SVD is checked against every row of the infinite matrix it touches
    (exactly computable because g has finite support); a vanishing residual
    certifies singularity.
    """
    if coverage_radius is None:
        coverage_radius = _head_radius(p, tol, max_radius)
    det, _ = _determinant_ladder(_HillTails(p, coverage_radius, max_radius), tol)
    decision = determinant_decision(det, tol)
    if decision == "invertible":
        return ExistenceResult("only-trivial", det)
    if decision == "singular":
        return ExistenceResult("nontrivial-solution", det)
    if _exact_kernel_vector(p, max_radius) is not None:
        return ExistenceResult("nontrivial-solution", det, kernel_certified=True)
    return ExistenceResult("undecided", det)


def _dense_section(p: HillProblem, radius):
    """Window, dense I + B on it and the positions of the entries of B."""
    w = TruncationWindow(radius, p.dimension)
    _check_section_size(w)
    matrix, _ = build_hill_matrix(p, w)
    section, links = _section_matrix(matrix.rows, matrix.cols, matrix.vals, w)
    return w, _add_identity(section), links


def _full_residual(p: HillProblem, w: TruncationWindow, dense, b_vec):
    """(I + B) b over every row the window-supported b touches, undamped-free.

    Rows inside the window use the dense section ``dense`` of I + B; rows
    outside receive only the g-convolution term, computed exactly from the
    finite potential.
    """
    coeffs = p.damped_coeffs()
    pts = w.coords_array()
    inside = dense @ b_vec
    outside = {}
    for l, v in coeffs.items():
        rows = pts + np.asarray(l, dtype=np.int64)
        out = sup_norm_array(rows) > w.radius
        if not np.any(out):
            continue
        weights = damping(rows[out], p.nu)
        for r, d, bv in zip(rows[out], weights, b_vec[out]):
            key = tuple(int(c) for c in r)
            outside[key] = outside.get(key, 0.0) + v * bv / d
    out_sq = sum(abs(v) ** 2 for v in outside.values())
    return math.sqrt(float(np.sum(np.abs(inside) ** 2)) + out_sq)


def _exact_kernel_vector(p: HillProblem, radius):
    """Window null vector that annihilates the infinite matrix, or None."""
    w, dense, links = _dense_section(p, radius)
    values = _section_singular_values(dense, links)
    smallest, largest, _ = values
    if smallest > 1e-10 * max(largest, 1.0):
        return None
    _, _, v = _section_min_singular(dense, values)
    b_vec = np.conj(v)
    residual = _full_residual(p, w, dense, b_vec)
    if residual <= 1e-13 * (1.0 + p.potential_l1() + 1.0):
        return w, b_vec
    return None


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

    SVD of the dense section of I + B on the window, one per connected
    component; the right singular vector of the smallest singular value is
    the candidate (robust under the +-k degeneracies of even problems).  When
    several components share the smallest singular value, as the +-k modes
    of a constant potential do, the candidate lives on the component holding
    the lexicographically first window point; within one component it is
    LAPACK's last right singular vector.  A section that is one component
    and centrosymmetric (an even potential, g_-l = g_l) is solved as its even
    and odd parity blocks: the candidate is then a pure cos-type
    (b_-k = b_k) or sin-type (b_-k = -b_k) combination, from the block with
    the smaller sigma_min, and from the even block when the two tie.  The
    residual reports the undamped coefficient equation: each damped row is
    multiplied back by d(k).
    """
    if w.dimension != p.dimension:
        raise ValueError(f"dimension {p.dimension} vs window {w.dimension}")
    _, dense, links = _dense_section(p, w.radius)
    values = _section_singular_values(dense, links)
    if values[0] > threshold:
        smallest = values[0]
        del dense, links, values  # a caught error keeps this frame alive
        raise NoNullSolutionError(
            f"smallest singular value {smallest:.3e} exceeds threshold "
            f"{threshold:.3e}; no null solution on this window",
            singular_value=smallest,
        )
    smallest, _, v = _section_min_singular(dense, values)
    b_vec = np.conj(v)
    b_vec = b_vec / np.linalg.norm(b_vec)
    pts = w.coords_array()
    weights = damping(pts, p.nu)
    residual = float(np.linalg.norm((dense @ b_vec) * weights))
    norms = euclid_norm_array(pts)
    regularity_mass = float(np.sum(norms**p.nu * np.abs(b_vec)))
    g_mass = p.potential_l1()
    b_mass = float(np.sum(np.abs(b_vec)))
    bound = (2.0 * np.pi) ** (-p.nu) * b_mass * g_mass
    coeffs = {
        tuple(int(c) for c in pts[i]): complex(b_vec[i])
        for i in range(len(pts))
        if b_vec[i] != 0
    }
    return SolutionCandidate(
        coefficients=coeffs,
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
    lambdas = [float(x) for x in lambdas]
    if not lambdas:
        raise ValueError("scan grid is empty")
    if any(b <= a for a, b in zip(lambdas, lambdas[1:])):
        raise ValueError("scan grid must be strictly increasing")
    grid = np.asarray(lambdas)

    w, dense, _ = _dense_section(p, radius)
    weights = damping(w.coords_array(), p.nu)
    mu = np.linalg.eigvals(weights[:, None] * dense)
    # ascending eigenvalues against ascending weights keep every factor
    # (mu_i + lambda) / d_i of moderate size, so the product cannot overflow
    mu = mu[np.argsort(mu.real)]
    values = np.prod((mu + grid[:, None]) / np.sort(weights), axis=1)
    if np.isrealobj(dense):
        values = values.real  # conjugate eigenvalue pairs leave roundoff

    zero = (0,) * p.dimension
    g0 = p.potential.get(zero, 0.0)
    off_mass = p.potential_l1() - abs(g0)
    # ||F||_1 of the section of B(lambda): fixed off-diagonal part plus the
    # shifted diagonal |g_0 + lambda - 1| / d(k)
    off_norm = float(np.sum(np.abs(dense)) - np.sum(np.abs(np.diag(dense))))
    inv_d_sum = float(np.sum(1.0 / weights))

    def certificate(lam):
        diag = np.abs(g0 - 1.0 + lam)
        t = _damped_tail_bound(diag + off_mass, p.reach(), p.dimension, p.nu, radius)
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
