import math

import numpy as np
import pytest

from torusdet.lattice import TruncationWindow
from torusdet.l1_algebra import NonConvergenceError, TailModel, truncate
from torusdet.hill import (
    HillProblem,
    InfeasibleOrderError,
    NoNullSolutionError,
    build_hill_matrix,
    damped_lattice_tail,
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


def test_damped_lattice_tail_dominates_true_tail():
    for n, nu in ((1, 2.0), (1, 1.5), (2, 3.0)):
        for radius in (4, 16, 64):
            bound = damped_lattice_tail(radius, n, nu)
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
        assert damped_lattice_tail(64, n, nu) < damped_lattice_tail(16, n, nu)


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
