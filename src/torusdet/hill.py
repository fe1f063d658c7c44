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

from .lattice import TruncationWindow, as_index, euclid_norm_array, sup_norm_array
from .l1_algebra import (
    DeterminantResult,
    NonConvergenceError,
    SparseL1Matrix,
    TailModel,
    _add_identity,
    _section_min_singular,
    determinant_decision,
    poincare_determinant,
    truncate,
)

_ENTRY_BUDGET = 4_000_000  # cap on stored entries for auto coverage windows


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


def damped_lattice_tail(radius, dimension, nu):
    """Rigorous upper bound on sum_{|k|_inf > radius} 1/d(k).

    Exact sup-norm shell counts for 1024 shells, then integral comparison;
    each point with |k|_inf = j has 1/d(k) <= (2pi)^{-nu} j^{-nu}.
    """
    if not nu > dimension:
        raise InfeasibleOrderError(f"tail diverges for nu={nu} <= n={dimension}")
    j0 = int(radius) + 1
    j1 = j0 + 1024
    js = np.arange(j0, j1, dtype=np.float64)
    counts = (2 * js + 1) ** dimension - (2 * js - 1) ** dimension
    with np.errstate(over="ignore"):  # an inf weight gives the limit 0
        head = float(np.sum(counts / ((2.0 * np.pi * js) ** nu + 1.0)))
    c = 2 * dimension * 3 ** (dimension - 1) * (2.0 * np.pi) ** (-nu)
    p = dimension - 1 - nu
    tail = c * (j1 - 1) ** (p + 1) / (-(p + 1))
    return head + tail


def _damped_tail_bound(mass, reach, dimension, nu, radius):
    """Bound on the l1 mass of B outside the window of the given radius.

    ``mass`` is ||g - delta||_1 (a float or an array of them) and ``reach``
    the largest sup-norm offset of g; union bound over the index pairs with
    the row outside the window and those with the column outside.
    """
    return mass * (
        damped_lattice_tail(radius, dimension, nu)
        + damped_lattice_tail(max(radius - reach, 0), dimension, nu)
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


def _auto_coverage(p: HillProblem, tol, max_radius):
    """Coverage radius for which the tail bound stays well under tol."""
    coeffs = p.damped_coeffs()
    mass = float(sum(abs(v) for v in coeffs.values()))
    n, nu = p.dimension, p.nu
    offsets = max(len(coeffs), 1)
    cap = int((_ENTRY_BUDGET / offsets) ** (1.0 / n)) // 2
    if mass == 0.0:
        return max(4 * max_radius, 64)
    budget = tol / 16.0
    c = 2 * mass * 2 * n * 3 ** (n - 1) * (2.0 * np.pi) ** (-nu) / (nu - n)
    k = (c / budget) ** (1.0 / (nu - n))
    return int(min(max(k, 4 * max_radius, 64), max(cap, 4 * max_radius)))


def hill_determinant(p: HillProblem, tol, max_radius=64, coverage_radius=None):
    """Extended determinant of I + B with a tail model from the g-decay.

    The matrix is materialized on a coverage window wide enough that the
    unstored remainder does not dominate the certified error at ``tol``
    (subject to an entry budget), then handed to the window-ladder
    determinant.
    """
    if coverage_radius is None:
        coverage_radius = _auto_coverage(p, tol, max_radius)
    matrix, tail = build_hill_matrix(
        p, TruncationWindow(int(coverage_radius), p.dimension)
    )
    return poincare_determinant(matrix, tail, tol, max_radius=max_radius)


@dataclass
class ExistenceResult:
    decision: str  # nontrivial-solution | only-trivial | undecided
    determinant: DeterminantResult
    kernel_certified: bool = False


def _best_determinant(p, tol, max_radius, coverage_radius=None):
    try:
        return hill_determinant(
            p, tol, max_radius=max_radius, coverage_radius=coverage_radius
        )
    except NonConvergenceError as err:
        return DeterminantResult(
            value=err.last_value,
            ladder=err.ladder,
            certified_error=err.last_bound,
            converged=False,
        )


def existence_test(p: HillProblem, tol=1e-8, max_radius=64, coverage_radius=None):
    """Decide existence of nontrivial periodic solutions.

    Maps the three-valued determinant test: a certified nonzero determinant means
    only the trivial solution, a certified zero means a nontrivial solution
    exists.  When the determinant alone stays undecided, a finitely supported
    candidate null vector from the window SVD is checked against every row of
    the infinite matrix it touches (exactly computable because g has finite
    support); a vanishing residual certifies singularity.
    """
    if coverage_radius is None:
        coverage_radius = max(4 * max_radius, 1024)
    det = _best_determinant(p, tol, max_radius, coverage_radius=coverage_radius)
    decision = determinant_decision(det, tol)
    if decision == "invertible":
        return ExistenceResult("only-trivial", det)
    if decision == "singular":
        return ExistenceResult("nontrivial-solution", det)
    if _exact_kernel_vector(p, max_radius) is not None:
        return ExistenceResult("nontrivial-solution", det, kernel_certified=True)
    return ExistenceResult("undecided", det)


def _dense_section(p: HillProblem, radius):
    w = TruncationWindow(radius, p.dimension)
    matrix, tail = build_hill_matrix(p, w)
    section, _ = truncate(matrix, TailModel.exact_finite(), w)
    return w, _add_identity(section.matrix)


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
    w, dense = _dense_section(p, radius)
    smallest, largest, v = _section_min_singular(dense)
    if smallest > 1e-10 * max(largest, 1.0):
        return None
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
    LAPACK's last right singular vector.  The residual reports the undamped
    coefficient equation: each damped row is multiplied back by d(k).
    """
    if w.dimension != p.dimension:
        raise ValueError(f"dimension {p.dimension} vs window {w.dimension}")
    _, dense = _dense_section(p, w.radius)
    smallest, _, v = _section_min_singular(dense)
    if smallest > threshold:
        raise NoNullSolutionError(
            f"smallest singular value {smallest:.3e} exceeds threshold "
            f"{threshold:.3e}; no null solution on this window",
            singular_value=smallest,
        )
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

    w, dense = _dense_section(p, radius)
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
