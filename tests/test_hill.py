import math
import warnings

import numpy as np
import pytest

from torusdet.lattice import TruncationWindow, shell_tail
from torusdet.l1_algebra import NonConvergenceError, SparseL1Matrix, TailModel, truncate
from torusdet.hill import (
    HillProblem,
    InfeasibleOrderError,
    NoNullSolutionError,
    build_hill_matrix,
    damping,
    existence_test,
    extract_null_solution,
    hill_determinant,
    spectral_shift_scan,
)

FOUR_PI_SQ = (2.0 * math.pi) ** 2


def diagonal_oracle(g0):
    """Infinite product of (4 pi^2 k^2 + g0) / (4 pi^2 k^2 + 1) over Z.

    Via prod_{k>=1} (1 + a/k^2) = sinh(pi sqrt(a)) / (pi sqrt(a)); the k = 0
    factor contributes g0.
    """
    def half_ratio(c):
        s = complex(c) ** 0.5 / 2.0
        if s == 0:
            return 1.0
        return complex(np.sinh(s) / s)

    return g0 * (half_ratio(g0) / (2.0 * math.sinh(0.5))) ** 2


def test_problem_validation():
    with pytest.raises(InfeasibleOrderError):
        HillProblem(1, 1.0, {})
    with pytest.raises(InfeasibleOrderError):
        HillProblem(2, 2.0, {(0, 0): 1.0})
    p = HillProblem(1, 2.0, {(0,): 0.0, (1,): 2.0})
    assert p.potential == {(1,): 2.0}  # zeros dropped
    assert p.potential_l1() == 2.0


def bracket_power_sum(radius, n, m, extent):
    """Brute-force sum of <k>^m over radius < |k|_inf <= extent."""
    ks = np.arange(-extent, extent + 1)
    grids = np.meshgrid(*([ks] * n), indexing="ij")
    sup = np.max(np.abs(np.stack(grids)), axis=0)
    sq = sum(g.astype(float) ** 2 for g in grids)
    return float(np.sum((1.0 + sq[sup > radius]) ** (m / 2.0)))


def test_damped_lattice_tail_dominates_true_tail():
    for n, nu in ((1, 2.0), (1, 1.5), (2, 3.0)):
        for radius in (4, 16, 64):
            bound = shell_tail(radius, n, nu, 2.0 * np.pi, 1.0)
            if n == 1:
                true = sum(
                    2.0 / ((2 * math.pi * k) ** nu + 1.0) for k in range(radius + 1, 200_000)
                )
            else:
                ks = np.arange(-300, 301)
                kx, ky = np.meshgrid(ks, ks)
                sup = np.maximum(np.abs(kx), np.abs(ky))
                norm = np.sqrt(kx.astype(float) ** 2 + ky**2)
                sel = sup > radius
                true = float(np.sum(1.0 / ((2 * np.pi * norm[sel]) ** nu + 1.0)))
            assert bound >= true
            assert bound <= 20.0 * max(true, 1e-12)  # not wildly loose
        assert shell_tail(64, n, nu, 2.0 * np.pi, 1.0) < shell_tail(16, n, nu, 2.0 * np.pi, 1.0)
    # the bracket form: sum of <k>^m, m < -n (scale 1, offset 0, order -m)
    for n, m, extent in ((1, -2.0, 200_000), (1, -3.5, 200_000), (2, -3.0, 300), (2, -4.5, 300)):
        for radius in (0, 4, 16, 64):
            bound = shell_tail(radius, n, -m)
            true = bracket_power_sum(radius, n, m, extent)
            assert bound >= true
            assert bound <= 20.0 * true  # not wildly loose
        assert shell_tail(64, n, -m) < shell_tail(16, n, -m)
    with pytest.raises(ValueError, match="diverges"):
        shell_tail(4, 2, 2.0)


def test_build_hill_matrix_damped_entries():
    p = HillProblem(1, 2.0, {(0,): 3.0, (1,): 0.5})
    matrix, _ = build_hill_matrix(p, TruncationWindow(2, 1))
    # diagonal carries the identity adjustment: (g0 - 1) / d(k)
    assert matrix.entry((0,), (0,)) == pytest.approx(2.0, abs=0)
    assert matrix.entry((1,), (1,)) == pytest.approx(2.0 / (FOUR_PI_SQ + 1.0), rel=1e-15)
    # off-diagonal entries divide by the row damping only
    assert matrix.entry((1,), (0,)) == pytest.approx(0.5 / (FOUR_PI_SQ + 1.0), rel=1e-15)
    assert matrix.entry((0,), (-1,)) == pytest.approx(0.5, rel=1e-15)
    assert matrix.entry((2,), (1,)) == pytest.approx(0.5 / (4 * FOUR_PI_SQ + 1.0), rel=1e-15)


def test_high_order_damping_overflows_silently():
    # (2 pi |k|)^200 overflows for |k| >= 6; 1/inf = 0 is the right limit,
    # so those rows drop out and no RuntimeWarning may reach the caller
    p = HillProblem(1, 200.0, {(0,): 0.5, (1,): 0.25, (-1,): 0.25})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        matrix, tail = build_hill_matrix(p, TruncationWindow(40, 1))
        result = hill_determinant(p, 1e-8)
        tail_at_3 = tail.bound_at(3)
    expected = {}
    for k in range(-5, 6):
        d = math.pow(2 * math.pi * abs(k), 200) + 1.0
        for l, g in ((0, -0.5), (1, 0.25), (-1, 0.25)):
            expected[((k,), (k - l,))] = g / d
    got = matrix.to_dict()
    assert got.keys() == expected.keys()
    for key, v in expected.items():
        assert got[key] == pytest.approx(v, rel=1e-14)
    assert 0.0 < tail_at_3 < 1e-250
    # rows |k| >= 1 are damped by <= (2 pi)^-200, so det(I + B) = g0 exactly
    assert result.value == 0.5
    assert result.certified_error == 0.0


def test_build_hill_matrix_unit_potential_is_zero():
    # g0 = 1 cancels the identity adjustment exactly
    p = HillProblem(1, 2.0, {(0,): 1.0})
    matrix, tail = build_hill_matrix(p, TruncationWindow(8, 1))
    assert matrix.nnz == 0
    assert tail.bound_at(10) == 0.0


def test_build_hill_matrix_tail_bound_dominates():
    p = HillProblem(1, 2.0, {(0,): 3.0})
    matrix, tail = build_hill_matrix(p, TruncationWindow(4096, 1))
    for radius in (8, 32, 128):
        outside = matrix.entry_radii > radius
        stored_outside = float(np.sum(np.abs(matrix.vals[outside])))
        assert tail.bound_at(radius) >= stored_outside


def hill_triples(p, w):
    """The damped entries (k, k - l, (g_l - delta_l0) / d(k)), offset by offset."""
    ks = w.coords_array()
    weights = damping(ks, p.nu)
    rows, cols, vals = [], [], []
    for l, v in p.damped_coeffs().items():
        c = ks - np.asarray(l)
        keep = np.max(np.abs(c), axis=1) <= w.radius
        rows.append(ks[keep])
        cols.append(c[keep])
        vals.append(v / weights[keep])
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


@pytest.mark.parametrize(
    "name, problem, radius",
    [
        ("trig", HillProblem(1, 2.0, {(0,): 3.0, (1,): 1.0, (-1,): 1.0, (2,): 0.8, (-2,): 0.8}), 50),
        ("complex-2d", HillProblem(2, 3.0, {(0, 0): 2 + 1j, (1, 0): 0.5, (-1, 1): 0.3j, (0, -2): 0.2 - 0.1j}), 9),
        ("g0-only", HillProblem(1, 2.0, {(0,): 3.7}), 200),
        ("underflow", HillProblem(1, 12.0, {(0,): 2.0, (1,): 1e-300, (-1,): 1e-300}), 30),
    ],
)
def test_build_hill_matrix_matches_canonicalized_triples(name, problem, radius):
    w = TruncationWindow(radius, problem.dimension)
    rows, cols, vals = hill_triples(problem, w)
    expected = SparseL1Matrix.from_arrays(problem.dimension, rows, cols, vals)
    matrix, _ = build_hill_matrix(problem, w)
    assert matrix.rows.dtype == expected.rows.dtype
    assert matrix.cols.dtype == expected.cols.dtype
    assert np.array_equal(matrix.rows, expected.rows)
    assert np.array_equal(matrix.cols, expected.cols)
    assert np.array_equal(matrix.vals, expected.vals)
    assert matrix.l1_norm == expected.l1_norm
    assert not np.any(matrix.vals == 0)
    if name == "g0-only":
        assert matrix.cols is matrix.rows
    if name == "underflow":
        assert np.any(vals == 0) and matrix.nnz < len(vals)


def test_hill_determinant_diagonal_value():
    p = HillProblem(1, 2.0, {(0,): 3.0})
    res = hill_determinant(p, 1e-6, max_radius=64)
    assert res.converged
    assert abs(res.value - diagonal_oracle(3.0)) <= 1e-6


def test_hill_determinant_diagonal_partial_products():
    p = HillProblem(1, 2.0, {(0,): 3.0})
    res = hill_determinant(p, 1e-6, max_radius=64)
    for step in res.ladder:
        ks = np.arange(-step.radius, step.radius + 1, dtype=float)
        expected = float(np.prod((FOUR_PI_SQ * ks**2 + 3.0) / (FOUR_PI_SQ * ks**2 + 1.0)))
        assert abs(step.value - expected) <= 1e-13 * abs(expected)


def test_hill_determinant_zero_potential_vanishes():
    # constants solve the equation, so the k = 0 column of I + B vanishes
    p = HillProblem(1, 2.0, {})
    res = hill_determinant(p, 0.05, max_radius=64, coverage_radius=1024)
    assert res.value == 0.0
    assert all(step.value == 0.0 for step in res.ladder)


def test_hill_determinant_eigenfunction_root_is_exact_zero():
    p = HillProblem(1, 2.0, {(0,): -FOUR_PI_SQ})
    with pytest.raises(NonConvergenceError) as err:
        hill_determinant(p, 1e-8, max_radius=32, coverage_radius=1024)
    assert all(step.value == 0.0 for step in err.value.ladder)


def test_existence_test_returns_the_ladder_hill_determinant_raises():
    p = HillProblem(1, 2.0, {(0,): 3.0, (1,): 1.0, (-1,): 1.0})
    with pytest.raises(NonConvergenceError) as err:
        hill_determinant(p, 1e-8, max_radius=8, coverage_radius=32)
    result = existence_test(p, 1e-8, 8, coverage_radius=32)
    det = result.determinant
    assert det.converged is False
    assert det.ladder == err.value.ladder
    assert det.value == err.value.last_value
    assert det.certified_error == err.value.last_bound
    assert result.decision == "only-trivial"


def test_hill_determinant_real_for_real_even_potentials():
    p = HillProblem(1, 2.0, {(-1,): 0.75, (1,): 0.75, (0,): 2.0})
    res = hill_determinant(p, 1e-4, max_radius=64)
    assert abs(res.value.imag) <= 1e-10 * abs(res.value)


def test_existence_only_trivial_for_positive_shift():
    p = HillProblem(1, 2.0, {(0,): 3.0})
    result = existence_test(p, tol=1e-8)
    assert result.decision == "only-trivial"
    assert abs(result.determinant.value - diagonal_oracle(3.0)) <= 1e-3


def test_existence_nontrivial_at_eigenfunction_root():
    p = HillProblem(1, 2.0, {(0,): -FOUR_PI_SQ})
    result = existence_test(p, tol=1e-8)
    assert result.decision == "nontrivial-solution"
    assert result.kernel_certified


def test_existence_zero_potential_finds_constants():
    # deviation from the source construction, recorded in the notes: u = const
    # solves the equation, so the honest answer is nontrivial-solution
    p = HillProblem(1, 2.0, {})
    result = existence_test(p, tol=1e-8)
    assert result.decision == "nontrivial-solution"
    assert result.kernel_certified


def test_extract_null_solution_eigenfunction():
    p = HillProblem(1, 2.0, {(0,): -FOUR_PI_SQ})
    sol = extract_null_solution(p, TruncationWindow(8, 1))
    mass_pm1 = sum(abs(v) ** 2 for k, v in sol.coefficients.items() if k in ((1,), (-1,)))
    assert mass_pm1 >= 1.0 - 1e-8
    assert sol.residual <= 1e-12
    assert sol.singular_value <= 1e-12
    assert sol.regularity_mass <= sol.regularity_bound + 1e-8


def test_extract_null_solution_residual_shrinks_with_window():
    p = HillProblem(1, 2.0, {(0,): -FOUR_PI_SQ})
    r4 = extract_null_solution(p, TruncationWindow(4, 1)).residual
    r8 = extract_null_solution(p, TruncationWindow(8, 1)).residual
    assert r8 <= r4 + 1e-12


def test_extract_null_solution_refuses_invertible_problem():
    p = HillProblem(1, 2.0, {(0,): 3.0})
    with pytest.raises(NoNullSolutionError) as err:
        extract_null_solution(p, TruncationWindow(6, 1))
    assert err.value.singular_value > 0.5


def test_scan_diagonal_roots():
    p = HillProblem(1, 2.0, {})
    lambdas = [float(x) for x in np.linspace(-90.0, 10.0, 201)]
    scan = spectral_shift_scan(p, lambdas, 1e-8, radius=16)
    roots = [lam for lam, _ in scan.roots]
    assert len(roots) == 2
    assert abs(roots[0] + FOUR_PI_SQ) <= 1e-5
    assert roots[1] == 0.0
    assert math.copysign(1.0, roots[1]) == 1.0  # no -0 root
    # k = +-1 give the same eigenvalue, k = 0 a simple one
    assert scan.multiplicities == [2, 1]
    for (lam, _), (lo, hi) in zip(scan.roots, scan.brackets):
        assert lo <= lam <= hi and hi - lo == 0.5
    assert scan.failures == []


@pytest.mark.parametrize("q", [0.5, 3 + 1j])
def test_scan_non_self_adjoint_triangular_section(q):
    # Q = q e^{2 pi i x}: g lives only at offset +1, so every section is
    # lower triangular and its roots are exactly -(2 pi k)^2 for every q; a
    # Hermitian eigensolver would mix in the missing upper triangle
    p = HillProblem(1, 2.0, {(1,): q})
    lambdas = [float(x) for x in np.linspace(-200.0, 10.0, 211)]
    scan = spectral_shift_scan(p, lambdas, 1e-8, radius=16)
    expected = [-FOUR_PI_SQ * k * k for k in (2, 1, 0)]
    assert [lam for lam, _ in scan.roots] == pytest.approx(expected, abs=1e-9)
    assert scan.multiplicities == [2, 2, 1]
    assert scan.failures == []
    # the determinant of a triangular section is its diagonal product
    ks = np.arange(-16, 17, dtype=float)
    d = FOUR_PI_SQ * ks**2 + 1.0
    diagonal = [np.prod((d - 1.0 + lam) / d) for lam in lambdas]
    scale = max(abs(v) for v in diagonal)
    assert np.max(np.abs(np.asarray(scan.values) - diagonal)) <= 1e-12 * scale


def test_scan_gate_rejects_complex_eigenvalue():
    # Q = i shifts every eigenvalue off the real axis: the candidate -Re mu = 0
    # is no root of the real-shift family, and at radius 128 the certificate
    # there is small enough for the gate to reject it
    p = HillProblem(1, 2.0, {(0,): 1j})
    lambdas = [float(x) for x in np.linspace(-50.0, 10.0, 121)]
    scan = spectral_shift_scan(p, lambdas, 1e-8, radius=128)
    assert [lam for lam, _ in scan.roots] == pytest.approx([-FOUR_PI_SQ], abs=1e-9)
    assert len(scan.failures) == 1
    failure = scan.failures[0]
    assert (failure.lo, failure.hi) == (0.0, 0.5)
    assert "exceeds" in failure.reason


def test_scan_matches_dense_eigenvalues():
    q = 1.0
    p = HillProblem(1, 2.0, {(-1,): q, (1,): q})
    radius = 16
    lambdas = [float(x) for x in np.linspace(-100.0, 5.0, 401)]
    scan = spectral_shift_scan(p, lambdas, 1e-8, radius=radius)

    ks = np.arange(-radius, radius + 1)
    dense = np.diag(FOUR_PI_SQ * ks.astype(float) ** 2)
    for i, k in enumerate(ks):
        for j, m in enumerate(ks):
            if abs(k - m) == 1:
                dense[i, j] = q
    eigs = np.linalg.eigvalsh(dense)
    expected = sorted(-mu for mu in eigs if -100.0 <= -mu <= 5.0)
    found = sorted(lam for lam, _ in scan.roots)
    assert len(found) == len(expected)
    for lam, mu in zip(found, expected):
        assert abs(lam - mu) <= 1e-6

    # table values against LU determinants of the damped section
    weights = FOUR_PI_SQ * ks.astype(float) ** 2 + 1.0
    scale = float(np.max(np.abs(scan.values)))
    for i in (0, 57, 200, 333, 400):
        damped = (dense + lambdas[i] * np.eye(len(ks))) / weights[:, None]
        assert abs(scan.values[i] - np.linalg.det(damped)) <= 1e-10 * scale


def test_scan_small_coupling_root_near_zero():
    q = 0.01
    p = HillProblem(1, 2.0, {(-1,): q, (1,): q})
    lambdas = [float(x) for x in np.linspace(-1.0, 1.0, 81)]
    scan = spectral_shift_scan(p, lambdas, 1e-10, radius=16)
    near_zero = [lam for lam, _ in scan.roots if abs(lam) <= 0.1]
    assert near_zero
    assert min(abs(lam) for lam in near_zero) <= 1e-3


def test_scan_rejects_bad_grids():
    p = HillProblem(1, 2.0, {})
    with pytest.raises(ValueError):
        spectral_shift_scan(p, [], 1e-8)
    with pytest.raises(ValueError):
        spectral_shift_scan(p, [0.0, 0.0, 1.0], 1e-8)


def test_invertibility_at_determinant_root():
    from torusdet.l1_algebra import invertibility_test

    p = HillProblem(1, 2.0, {(0,): -FOUR_PI_SQ})
    matrix, tail = build_hill_matrix(p, TruncationWindow(512, 1))
    decision, result = invertibility_test(matrix, tail, 1e-10, max_radius=16)
    assert decision in ("singular", "undecided")
    assert result.value == 0.0


def test_extract_null_solution_zero_potential_returns_constants():
    # consequence of the identity adjustment (see notes): u = const spans the
    # kernel, so the extracted coefficients sit at k = 0
    p = HillProblem(1, 2.0, {})
    sol = extract_null_solution(p, TruncationWindow(6, 1))
    assert abs(sol.coefficients[(0,)]) == pytest.approx(1.0, abs=1e-12)
    assert sol.residual <= 1e-12
    assert sol.regularity_mass <= 1e-12


def test_extraction_at_scanned_mathieu_root():
    q = 1.0
    p = HillProblem(1, 2.0, {(-1,): q, (1,): q})
    lambdas = [float(x) for x in np.linspace(-1.0, 1.0, 41)]
    scan = spectral_shift_scan(p, lambdas, 1e-10, radius=16)
    assert scan.roots
    star = min((lam for lam, _ in scan.roots), key=abs)
    shifted = p.shifted(star)
    sol = extract_null_solution(shifted, TruncationWindow(16, 1), threshold=1e-4)
    assert sol.residual <= 1e-6
    assert sol.regularity_mass <= sol.regularity_bound + 1e-8


# --- dimension >= 2: independent oracles


def constant_potential_product(c, n, nu, radius):
    """prod_k (d(k) - 1 + c) / d(k) over Z^n, d(k) = (2 pi |k|)^nu + 1 (n = 2, 3).

    Log sum over |k|_inf <= radius, one slice of the first coordinate at a
    time, plus the tail: the sum over |k|_inf > radius of
    (c - 1) / (2 pi |k|)^nu by the integral over the cubes around those
    points, |x|_inf > a = radius + 1/2.  By scaling that integral is
    S a^(n - nu) / (nu - n), S the integral of |y|^-nu over the boundary of
    [-1, 1]^n, here by Gauss-Legendre over a quarter face.
    """
    axis = np.arange(-radius, radius + 1, dtype=float)
    rest = sum(g**2 for g in np.meshgrid(*([axis] * (n - 1)), indexing="ij"))
    total = 0.0
    for x in axis:
        w = (2.0 * math.pi * np.sqrt(x * x + rest)) ** nu
        total += float(np.sum(np.log1p((c - 1.0) / (w + 1.0))))
    nodes, weights = np.polynomial.legendre.leggauss(32)
    u, wq = (nodes + 1.0) / 2.0, weights / 2.0
    if n == 2:
        face = np.sum(wq * (1.0 + u**2) ** (-nu / 2.0))
    else:
        face = np.sum(np.outer(wq, wq) * (1.0 + u[:, None] ** 2 + u[None, :] ** 2) ** (-nu / 2.0))
    surface = 2 * n * 2 ** (n - 1) * face
    a = radius + 0.5
    tail = (c - 1.0) * (2.0 * math.pi) ** (-nu) * surface * a ** (n - nu) / (nu - n)
    return math.exp(total + tail)


@pytest.mark.parametrize(
    "n, nu, c, max_radius, coverage, oracle_radius",
    [
        (2, 3.0, 0.5, 16, 64, 400),
        (2, 4.0, 2.0, 16, 64, 400),
        (3, 5.0, 2.0, 4, 16, 60),
        (3, 6.0, 0.5, 4, 16, 60),
    ],
)
def test_constant_potential_matches_lattice_product(n, nu, c, max_radius, coverage, oracle_radius):
    p = HillProblem(n, nu, {(0,) * n: c})
    oracle = constant_potential_product(c, n, nu, oracle_radius)
    result = existence_test(p, tol=1e-8, max_radius=max_radius, coverage_radius=coverage)
    det = result.determinant
    assert result.decision == "only-trivial"
    assert det.certified_error < 1e-3
    assert abs(det.value - oracle) <= det.certified_error


def test_constant_potential_certified_in_three_dimensions():
    p = HillProblem(3, 6.0, {(0, 0, 0): 0.5})
    res = hill_determinant(p, 1e-8, max_radius=4, coverage_radius=32)
    assert res.converged
    assert abs(res.value - constant_potential_product(0.5, 3, 6.0, 60)) <= res.certified_error


def damped_section(potential, radius, n, nu):
    """Dense I + B on the sup-norm window, assembled entry by entry."""
    axis = np.arange(-radius, radius + 1)
    pts = np.stack([g.ravel() for g in np.meshgrid(*([axis] * n), indexing="ij")], axis=1)
    d = (2.0 * math.pi * np.sqrt(np.sum(pts.astype(float) ** 2, axis=1))) ** nu + 1.0
    index = {tuple(int(x) for x in k): i for i, k in enumerate(pts)}
    dense = np.eye(len(pts), dtype=complex)
    for i, k in enumerate(pts):
        for l, g in potential.items():
            j = index.get(tuple(int(a) - b for a, b in zip(k, l)))
            if j is not None:
                dense[i, j] += (g - (1.0 if not any(l) else 0.0)) / d[i]
    return dense


@pytest.mark.parametrize("second", [0.2, 0.2 + 0.1j])
def test_separable_potential_ladder_matches_dense_slogdet(second):
    # Q(x_1) alone: the section splits into one block per k_2
    pot = {(0, 0): 2.0, (1, 0): 0.7, (-1, 0): 0.7, (2, 0): second, (-2, 0): np.conj(second)}
    p = HillProblem(2, 3.0, pot)
    with pytest.raises(NonConvergenceError) as err:
        hill_determinant(p, 1e-14, max_radius=16, coverage_radius=64)
    ladder = err.value.ladder
    assert [step.radius for step in ladder] == [8, 16]
    for step in ladder:
        sign, logabs = np.linalg.slogdet(damped_section(pot, step.radius, 2, 3.0))
        reference = sign * math.exp(logabs)
        assert abs(step.value - reference) <= 1e-12 * abs(reference)


def test_extract_null_solution_degenerate_constant_in_two_dimensions():
    # Q = -(2 pi)^3 annihilates the four modes |k| = 1, each its own
    # component; the first in window order, k = (-1, 0), is returned
    p = HillProblem(2, 3.0, {(0, 0): -((2.0 * math.pi) ** 3)})
    sol = extract_null_solution(p, TruncationWindow(6, 2))
    assert sol.singular_value == 0.0
    assert list(sol.coefficients) == [(-1, 0)]
    assert abs(sol.coefficients[(-1, 0)]) == pytest.approx(1.0, abs=1e-15)
    assert sol.residual == 0.0
