"""Independent oracles for the benchmark's ops.

Each oracle computes the exact answer (or the exact finite-section value) by
a route that shares no code with torusdet: closed forms, a monodromy
integrator, dense eigenvalue problems assembled here, or shell sums.  Only
numpy and the standard library are used.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi
FOUR_PI_SQ = TWO_PI**2

# Relative allowance for the oracle's own floating-point error.  Every
# comparison below accepts |library - oracle| <= certified_error + slack.
ORACLE_SLACK = 1e-9


def slack(reference):
    return ORACLE_SLACK * max(1.0, abs(reference))


def _sinhc_sq(c):
    """[sinh(sqrt(c)/2) / (sqrt(c)/2)]^2, continued through c <= 0 as sin."""
    if c > 0:
        h = math.sqrt(c) / 2.0
        return (math.sinh(h) / h) ** 2
    if c < 0:
        h = math.sqrt(-c) / 2.0
        return (math.sin(h) / h) ** 2
    return 1.0


def constant_hill_det(c):
    """Det(I + B) for the 1-D, nu = 2 constant potential Q = c.

    prod_k (4 pi^2 k^2 + c) / (4 pi^2 k^2 + 1)
        = c [sinh(sqrt(c)/2) / (sqrt(c)/2)]^2 / (2 sinh 1/2)^2.
    """
    return c * _sinhc_sq(c) / (2.0 * math.sinh(0.5)) ** 2


def damped_diagonal_det(coeff):
    """Det(I + A) for the diagonal a_k = coeff / (4 pi^2 k^2 + 1): Q = 1 + coeff."""
    return constant_hill_det(1.0 + coeff)


def damped_diagonal_trace(coeff):
    """sum_k coeff / (4 pi^2 k^2 + 1) = (coeff / 2) coth(1/2)."""
    return 0.5 * coeff * math.cosh(0.5) / math.sinh(0.5)


def monodromy_hill_dets(potentials, steps=4096):
    """Hill discriminant oracle for 1-D, nu = 2 trigonometric potentials.

    ``potentials`` is a list of {k: g_k} dicts with Q(x) = sum g_k e^{2 pi i k x}.
    Integrates the fundamental matrix of u'' = Q u over one period with
    classical RK4 (all potentials at once) and returns
    (tr M_Q - 2) / (2 cosh 1 - 2), the damped Hill determinant
    (Whittaker & Watson 19.4; Magnus & Winkler 1966).
    """
    count = len(potentials)
    h = 1.0 / steps
    xs = np.arange(2 * steps + 1) * (h / 2.0)
    q = np.zeros((count, len(xs)), dtype=np.complex128)
    for i, pot in enumerate(potentials):
        for k, g in pot.items():
            q[i] += complex(g) * np.exp(2j * math.pi * k * xs)
    # Y = [[u1, u2], [u1', u2']] per potential, as 4 component arrays
    u1 = np.ones(count, dtype=np.complex128)
    u2 = np.zeros(count, dtype=np.complex128)
    v1 = np.zeros(count, dtype=np.complex128)
    v2 = np.ones(count, dtype=np.complex128)

    def rhs(qx, a1, a2, b1, b2):
        return b1, b2, qx * a1, qx * a2

    for j in range(steps):
        q0, qm, q1 = q[:, 2 * j], q[:, 2 * j + 1], q[:, 2 * j + 2]
        k1 = rhs(q0, u1, u2, v1, v2)
        k2 = rhs(qm, *(s + 0.5 * h * d for s, d in zip((u1, u2, v1, v2), k1)))
        k3 = rhs(qm, *(s + 0.5 * h * d for s, d in zip((u1, u2, v1, v2), k2)))
        k4 = rhs(q1, *(s + h * d for s, d in zip((u1, u2, v1, v2), k3)))
        u1, u2, v1, v2 = (
            s + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d)
            for s, a, b, c, d in zip((u1, u2, v1, v2), k1, k2, k3, k4)
        )
    trace = u1 + v2
    return [complex(t - 2.0) / (2.0 * math.cosh(1.0) - 2.0) for t in trace]


def undamped_section(potential, radius, dimension, nu):
    """Dense diag((2 pi)^nu |k|^nu) + G on the sup-norm window, lexicographic."""
    axis = np.arange(-radius, radius + 1)
    grids = np.meshgrid(*([axis] * dimension), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    norms = np.sqrt(np.sum(pts.astype(float) ** 2, axis=1))
    dense = np.diag((TWO_PI * norms) ** nu).astype(np.complex128)
    index = {tuple(int(c) for c in p): i for i, p in enumerate(pts)}
    for l, g in potential.items():
        l = l if isinstance(l, tuple) else (l,)
        for i, p in enumerate(pts):
            j = index.get(tuple(int(a) - int(b) for a, b in zip(p, l)))
            if j is not None:
                dense[i, j] += complex(g)  # row k, column m = k - l
    weights = (TWO_PI * norms) ** nu + 1.0
    return dense, weights


def section_det(potential, radius, dimension, nu):
    """det of the damped section I + B = D^{-1} (diag(d - 1) + G) on the window.

    Assembled here from the potential and evaluated by slogdet of the damped
    (near-identity, well-conditioned) matrix.
    """
    dense, weights = undamped_section(potential, radius, dimension, nu)
    sign, logdet = np.linalg.slogdet(dense / weights[:, None])
    return complex(sign * math.exp(logdet))


def section_min_singular(potential, radius, dimension, nu):
    """Smallest singular value of the damped section I + B on the window."""
    dense, weights = undamped_section(potential, radius, dimension, nu)
    return float(np.linalg.svd(dense / weights[:, None], compute_uv=False)[-1])


def scan_oracle(potential, radius, lambdas):
    """Hermitian-section eigenvalues -> roots in range and det at each shift.

    For a real (self-adjoint) potential, the section determinant at shift
    lambda is prod_i (mu_i + lambda) / prod_k d(k) with mu_i the eigenvalues
    of the undamped section; the roots are -mu_i.
    """
    dense, weights = undamped_section(potential, radius, 1, 2.0)
    mu = np.linalg.eigvalsh(dense)
    lo, hi = lambdas[0], lambdas[-1]
    roots = sorted(float(-m) for m in mu if lo <= -m <= hi)
    log_w = float(np.sum(np.log(weights)))
    lam = np.asarray(lambdas, dtype=float)[:, None]
    terms = mu[None, :] + lam
    signs = np.prod(np.sign(terms), axis=1)
    with np.errstate(divide="ignore"):
        logs = np.sum(np.log(np.abs(terms)), axis=1)
    dets = signs * np.exp(logs - log_w)
    return roots, dets


def _outside_square_integral(half_width, dimension, nu):
    """integral of |x|^{-nu} over R^2 minus the square [-a, a]^2 (n = 2 only)."""
    if dimension != 2:
        raise ValueError("shell tail integral implemented for n = 2")
    nodes, weights = np.polynomial.legendre.leggauss(64)
    theta = (nodes + 1.0) * (math.pi / 8.0)  # [0, pi/4]
    radial = (half_width / np.cos(theta)) ** (2.0 - nu) / (nu - 2.0)
    return 8.0 * float(np.sum(weights * radial)) * (math.pi / 8.0)


def shell_sum_constant_det(c, dimension=2, nu=3.0, radius=1000):
    """Det = prod_k (d(k) - 1 + c) / d(k) for a constant potential, n = 2.

    Direct log sum over |k|_inf <= radius plus the integral tail of
    (c - 1) / ((2 pi)^nu |k|^nu) outside the box (midpoint comparison);
    accurate to ~1e-10 relative for nu = 3.  Exact zeros (c = -(2 pi)^nu |k|^nu
    on the lattice) give 0.
    """
    axis = np.arange(-radius, radius + 1, dtype=np.float64)
    total = 0.0
    negatives = 0
    for x in axis:
        r = np.sqrt(x * x + axis * axis)
        num = (TWO_PI * r) ** nu + c
        if np.any(num == 0.0):
            return 0.0
        total += float(np.sum(np.log(np.abs(num) / ((TWO_PI * r) ** nu + 1.0))))
        negatives += int(np.count_nonzero(num < 0))
    tail = (c - 1.0) * TWO_PI ** (-nu) * _outside_square_integral(radius + 0.5, dimension, nu)
    return (-1.0) ** negatives * math.exp(total + tail)


def singular_2d_constant(nu=3.0):
    """The constant potential -(2 pi)^nu: zero factor on the |k| = 1 shell."""
    return -(TWO_PI**nu)


def exact_finite_det(entries):
    """det(I + A) for a finitely supported matrix via the eigenvalue product.

    ``entries`` maps ((row), (col)) -> value.  The dense matrix lives on the
    union of the indices that occur; indices outside it contribute factor 1.
    """
    points = sorted({k for pair in entries for k in pair})
    index = {p: i for i, p in enumerate(points)}
    dense = np.zeros((len(points), len(points)), dtype=np.complex128)
    for (j, k), v in entries.items():
        dense[index[j], index[k]] += complex(v)
    eig = np.linalg.eigvals(dense)
    return complex(np.prod(1.0 + eig))


def l1_membership_sum(amp, s, radius):
    """sum_{k=-R}^{R-1} |amp| / (1 + s^2 k^2): the offset-1 column sum to radius R.

    Closed form (pi/s) coth(pi/s) minus the two tails, each by Euler-Maclaurin
    (error far below 1e-12 for R >= 1e5).
    """
    total = (math.pi / s) / math.tanh(math.pi / s)

    def f(k):
        return 1.0 / (1.0 + s * s * k * k)

    def tail_beyond(r):  # sum_{k > r} f(k)
        integral = (math.pi / 2.0 - math.atan(s * r)) / s
        fprime = -2.0 * s * s * r / (1.0 + s * s * r * r) ** 2
        return integral - 0.5 * f(r) - fprime / 12.0

    return abs(amp) * (total - 2.0 * tail_beyond(radius) - f(radius))


def toeplitz_l1(coeffs, radius):
    """l1 norm of the multiplication-symbol matrix on the window: Toeplitz counts."""
    total = 0.0
    for l, v in coeffs.items():
        count = 1
        for c in l:
            count *= max(2 * radius + 1 - abs(c), 0)
        total += abs(v) * count
    return total


def gamma_apply_dense(entries, coeffs, size):
    """F^{-1} A F on a 1-D grid by explicit DFT matrices (no FFT)."""
    j = np.arange(size)
    half = (size - 1) // 2
    ks = np.arange(-half, half + 1)
    samples = np.zeros(size, dtype=np.complex128)
    for k, v in coeffs.items():
        samples += v * np.exp(2j * math.pi * k * j / size)
    forward = np.exp(-2j * math.pi * np.outer(ks, j) / size) / size
    spectrum = forward @ samples
    dense = np.zeros((len(ks), len(ks)), dtype=np.complex128)
    for (row, col), v in entries.items():
        dense[row + half, col + half] += v
    out = dense @ spectrum
    backward = np.exp(2j * math.pi * np.outer(j, ks) / size)
    return backward @ out
