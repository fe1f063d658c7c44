import math
import tracemalloc
import warnings

import numpy as np
import pytest

from torusdet import _dense, l1_algebra
from torusdet._dense import (
    _Slabs,
    _parity_blocks,
    _section_det,
    _section_parts,
    _singular_parts,
    _singular_summary,
    _singular_vector,
)
from torusdet.lattice import TruncationWindow, shell_tail, sup_norm_array
from torusdet.l1_algebra import (
    NonConvergenceError,
    SparseL1Matrix,
    TailModel,
    _tail_cross_term,
    poincare_determinant,
    truncate,
)
from torusdet.hill import (
    HillProblem,
    InfeasibleOrderError,
    NoNullSolutionError,
    _HillTails,
    _full_residual,
    _inverse_damping_tail,
    _kernel_certified,
    _square_tail,
    _window_matrix,
    _window_min_singular,
    build_hill_matrix,
    existence_test,
    extract_null_solution,
    hill_determinant,
    spectral_shift_scan,
)

FOUR_PI_SQ = (2.0 * math.pi) ** 2


def dense_of(g, size):
    """A factors' ``inverse()`` G as a size x size array, read through its [a, b] reader."""
    a, b = np.divmod(np.arange(size * size), size)
    return g[a, b].reshape(size, size)


def hill_section(p, radius):
    """Window, dense I + B on it (float64 when B is real) and d(k) on it, filled with plain numpy."""
    w, r, c, vals, weights = _window_matrix(p, radius)
    real = not np.any(vals.imag)
    m = np.eye(w.size, dtype=np.float64 if real else np.complex128)
    m[r, c] += vals.real if real else vals
    return w, m, weights


def dense_parts(m, window=None):
    """The :func:`_section_parts` of a dense section m, from its nonzeros."""
    r, c = np.nonzero(m)
    return _section_parts(len(m), r, c, m[r, c], 0.0, window)


def section_min_singular(parts, wanted=None):
    """``(smallest, largest, v)`` of the section factored as ``parts``, v None unless ``wanted(smallest, largest)``.

    The summary of its SVD parts and, once wanted, the vector, composed as
    :func:`torusdet.hill._window_min_singular` composes them, with nothing kept.
    """
    pieces = _singular_parts(parts)
    summary = _singular_summary(pieces)
    if wanted is not None and not wanted(*summary[2:]):
        return *summary[2:], None
    return _singular_vector(pieces, summary)


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
    # finite coefficients whose l1 mass overflows
    with pytest.raises(ValueError, match="l1 mass of the potential is not finite"):
        HillProblem(1, 2.0, {(l,): 1e308 for l in (-1, 0, 1)})


def test_problems_compare_by_their_equation_data():
    p = HillProblem(1, 2.0, {0: 3.0, (2,): 0.5j})
    assert p == HillProblem(1, 2.0, {(0,): 3 + 0j, (2,): 0.5j, (1,): 0.0})
    assert p != HillProblem(1, 2.5, {(0,): 3.0, (2,): 0.5j})
    assert p != HillProblem(1, 2.0, {(0,): 3.0})
    assert repr(p) == (
        "HillProblem(dimension=1, nu=2.0, potential=mappingproxy({(0,): (3+0j), (2,): 0.5j}))"
    )


def test_a_problem_refuses_writes_to_its_potential():
    # the kept offsets, sums and sections follow the potential given at construction
    p = HillProblem(1, 2.0, {0: 3, 1: 1, -1: 1})
    before = hill_determinant(p, 1e-4)
    with pytest.raises(TypeError):
        p.potential[(0,)] = 5.0
    assert dict(p.potential) == {(0,): 3 + 0j, (1,): 1 + 0j, (-1,): 1 + 0j}
    again = HillProblem(p.dimension, p.nu, p.potential)
    assert again == p and again.potential is not p.potential
    assert hill_determinant(again, 1e-4) == before == hill_determinant(p, 1e-4)
    assert p != HillProblem(1, 2.0, {0: 5, 1: 1, -1: 1})


@pytest.mark.parametrize(
    "problem, damped, l1, reach, lam, shifted",
    [
        (HillProblem(1, 2.0, {(0,): 3.0, (1,): 0.5, (-2,): 0.25j}),
         [((0,), 2 + 0j), ((1,), 0.5 + 0j), ((-2,), 0.25j)], 3.75, 2,
         1.5, {(0,): 4.5 + 0j, (1,): 0.5 + 0j, (-2,): 0.25j}),
        (HillProblem(2, 3.0, {(1, 0): 0.5, (0, -2): 0.2 - 0.1j}),
         [((1, 0), 0.5 + 0j), ((0, -2), 0.2 - 0.1j), ((0, 0), -1.0)], 0.5 + abs(0.2 - 0.1j), 2,
         -0.5, {(1, 0): 0.5 + 0j, (0, -2): 0.2 - 0.1j, (0, 0): -0.5 + 0j}),
        # g_0 = 1 cancels the identity: the damped g_0 is dropped
        (HillProblem(1, 2.0, {(0,): 1.0, (3,): 2.0}), [((3,), 2 + 0j)], 3.0, 3,
         -1.0, {(3,): 2 + 0j}),
        (HillProblem(1, 2.0, {}), [((0,), -1.0)], 0.0, 0, 2.0, {(0,): 2 + 0j}),
    ],
)
def test_problem_derived_values(problem, damped, l1, reach, lam, shifted):
    assert list(problem.damped_coeffs().items()) == damped
    assert problem.potential_l1() == l1
    assert problem.reach() == reach
    assert problem.shifted(lam) == HillProblem(problem.dimension, problem.nu, shifted)
    assert list(problem.shifted(lam).potential.items()) == list(shifted.items())


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
    assert result.certified_error == 0.5 * 17 * 5e-15  # LU roundoff, 17 points


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
    weights = p.weights(ks)
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


def test_a_caught_no_null_solution_error_holds_no_section():
    import tracemalloc

    # the 841-point section and its SVD take about 6.8 MB
    p = HillProblem(2, 3.0, {(0, 0): 2, (1, 0): 0.3, (-1, 0): 0.3, (0, 1): 0.2, (0, -1): 0.2})
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        try:
            extract_null_solution(p, TruncationWindow(14, 2))
        except NoNullSolutionError as err:
            caught = err
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert caught.singular_value > 1e-6
    assert held - before < 0.1 * 2**20


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


@pytest.mark.parametrize(
    "problem",
    [
        HillProblem(2, 3.0, {(0, 0): 2.0, (1, 0): 0.5, (-1, 0): 0.5, (0, 1): 0.3, (0, -1): 0.3}),
        HillProblem(2, 3.0, {(0, 0): 2.0, (1, 0): 0.5, (-1, 0): 0.4, (1, 1): 0.2j, (-1, -1): -0.3}),
    ],
)
def test_scan_table_in_row_blocks_is_the_one_block_table(monkeypatch, problem):
    import torusdet.hill as hill

    grid = np.linspace(-300.0, 50.0, 20000).tolist()
    tables = []
    for block in (10**9, hill._HEAD_BLOCK, 1000):  # one block, the default, 3-row blocks
        monkeypatch.setattr(hill, "_HEAD_BLOCK", block)
        scan = spectral_shift_scan(problem, grid, 1e-8, radius=8)
        tables.append(scan.values)
    assert tables[0] == tables[1] == tables[2]

    # the 289-point section: one (steps x points) complex table would be 92 MB
    monkeypatch.undo()
    tracemalloc.start()
    try:
        spectral_shift_scan(problem, grid, 1e-8, radius=8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


def test_scan_certificate_keeps_the_undamped_off_diagonal_mass():
    # ||g||_1 - |g_0| and ||g||_1 - |(g_0 - 1) + 1| differ in the last bit
    # here: the second moves the first certificate in its 17th digit
    p = HillProblem(1, 2.0, {(0,): -1.4468124409744065, (2,): 0.4833514281886899,
                             (-2,): 0.4833514281886899})
    grid = np.linspace(2.4468124409744065, 3.4468124409744065, 5).tolist()
    assert spectral_shift_scan(p, grid, 1e-8).certified == [
        0.06853012013155357, 0.1481604796646206, 0.30679575200889153,
        0.6168246065171171, 1.213849002019519,
    ]


def test_scan_rejects_bad_grids():
    # empty, repeating, falling, holding a NaN, which fails every order
    # comparison, or an infinity; a grid array comes back as a list of floats
    p = HillProblem(1, 2.0, {(0,): 1.0, (1,): 0.3, (-1,): 0.3})
    with pytest.raises(ValueError, match="scan grid is empty"):
        spectral_shift_scan(p, [], 1e-8, radius=8)
    for grid in ([0.0, 0.0, 1.0], [1.0, 0.0], [-50.0, math.nan, 1.0], np.array([-50.0, 1.0, math.nan])):
        with pytest.raises(ValueError, match="scan grid must be strictly increasing"):
            spectral_shift_scan(p, grid, 1e-8, radius=8)
    # a one-point NaN grid and infinite ends pass the order check
    for grid in ([math.nan], [-math.inf, 0.0], [-10.0, math.inf], np.array([math.inf])):
        with pytest.raises(ValueError, match="scan grid points must be finite"):
            spectral_shift_scan(p, grid, 1e-8, radius=8)
    lambdas = spectral_shift_scan(p, np.array([-50.0, 1.0]), 1e-8, radius=8).lambdas
    assert type(lambdas) is list and [type(x) for x in lambdas] == [float, float]


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


def test_null_solution_coefficients_are_the_nonzero_window_points():
    # in window order, as Python int tuples and complex numbers, zeros left
    # out: one nonzero of a split window, and all but k = 0 of a 1-D real one
    for p, w in ((HillProblem(2, 3.0, {(0, 0): -((2.0 * math.pi) ** 3)}), TruncationWindow(6, 2)),
                 (HillProblem(1, 2.0, {(0,): NEAR_ROOT_1D, (1,): 0.5, (-1,): 0.5}), TruncationWindow(12, 1))):
        sol = extract_null_solution(p, w, threshold=1.0)
        b = np.conj(_window_min_singular(p, w.radius, lambda *_: True)[2])
        b = b / np.linalg.norm(b)
        pts = w.coords_array()
        want = [(tuple(int(c) for c in pts[i]), complex(b[i])) for i in range(w.size) if b[i] != 0]
        assert list(sol.coefficients.items()) == want
        assert all(type(c) is int for k in sol.coefficients for c in k)
        assert all(type(x) is complex for x in sol.coefficients.values())
    assert len(sol.coefficients) == w.size - 1  # sin-type: b_0 = 0


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
    # the potential is even: b is a cos-type (b_-k = b_k) or sin-type combination
    b = np.array([sol.coefficients.get((k,), 0j) for k in range(-16, 17)])
    assert np.array_equal(b[::-1], b) or np.array_equal(b[::-1], -b)


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


def constant_potential_bracket(c, n, nu, radius):
    """Head and log remainder bound of prod_k (d(k) - 1 + c) / d(k) over Z^n.

    The head is the product over |k|_inf <= radius, as a log sum one slice
    of the first coordinate at a time.  The other factors move its log by at
    most ``|c - 1| S / (1 - x)``: each is 1 + z with |z| <= x =
    |c - 1| / (2 pi radius)^nu, |log(1 + z)| <= |z| / (1 - |z|), and
    S = sum_{|k|_inf > radius} 1/d(k) <= 2n 3^(n-1) (2 pi)^-nu
    radius^(n-nu) / (nu - n), since shell j holds at most 2n (3j)^(n-1)
    points, each with d(k) >= (2 pi j)^nu.
    """
    axis = np.arange(-radius, radius + 1, dtype=float)
    rest = sum(g**2 for g in np.meshgrid(*([axis] * (n - 1)), indexing="ij"))
    total = 0j
    for x in axis:
        total += np.sum(np.log1p((c - 1.0) / ((2.0 * math.pi * np.sqrt(x * x + rest)) ** nu + 1.0)))
    shells = 2 * n * 3 ** (n - 1) * (2 * math.pi) ** -nu * radius ** (n - nu) / (nu - n)
    x = abs(c - 1.0) / (2.0 * math.pi * radius) ** nu
    return complex(np.exp(total)), abs(c - 1.0) * shells / (1.0 - x)


@pytest.mark.parametrize(
    "n, nu, c, max_radius, coverage, oracle_radius",
    [
        (2, 4.0, 2.0, 16, 64, 400),
        (2, 4.0, 1.5 + 0.5j, 16, 64, 400),
        (3, 5.0, 2.0, 4, 16, 60),
        (3, 6.0, 0.5 - 0.25j, 4, 16, 60),
    ],
)
def test_constant_potential_within_the_bracketed_product(n, nu, c, max_radius, coverage, oracle_radius):
    head, log_remainder = constant_potential_bracket(c, n, nu, oracle_radius)
    assert log_remainder < 1e-6
    result = existence_test(
        HillProblem(n, nu, {(0,) * n: c}), tol=1e-8, max_radius=max_radius, coverage_radius=coverage
    )
    det = result.determinant
    assert result.decision == "only-trivial" and det.certified_error < 1e-3
    oracle_error = abs(head) * (math.expm1(log_remainder) + 1e-12)  # + log sum roundoff
    assert abs(det.value - head) <= det.certified_error + oracle_error


def test_a_split_three_dimensional_ladder_holds_no_dense_section():
    # every rung of a constant potential is 17^3 = 4913 isolated points: a
    # dense section and G would take 193 MB each
    p = HillProblem(3, 5.0, {(0, 0, 0): 2.0})
    tracemalloc.start()
    try:
        result = existence_test(p, tol=1e-8, max_radius=8, coverage_radius=16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
    head, log_remainder = constant_potential_bracket(2.0, 3, 5.0, 60)
    det = result.determinant
    assert result.decision == "only-trivial" and det.certified_error < 1e-3
    assert abs(det.value - head) <= det.certified_error + abs(head) * (math.expm1(log_remainder) + 1e-12)


@pytest.mark.parametrize("n, max_radius, coverage", [(2, 32, None), (3, 8, 16)])
def test_a_split_kernel_check_holds_no_dense_section(n, max_radius, coverage):
    # the constant -(2 pi)^(n+1) is singular at |k| = 1 and leaves the
    # determinant undecided; the kernel check's SVD and residual read the
    # window's 1 x 1 components, where a dense section of its 65^2 (17^3)
    # points would take 137 (185) MiB
    p = HillProblem(n, n + 1.0, {(0,) * n: -((2.0 * math.pi) ** (n + 1))})
    tracemalloc.start()
    try:
        result = existence_test(p, tol=1e-8, max_radius=max_radius, coverage_radius=coverage)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.decision == "nontrivial-solution" and result.kernel_certified
    assert peak < 16 * 2**20


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


# even potentials g_-l = g_l, real and complex: centrosymmetric sections
EVEN_2D = {(0, 0): 2.0, (1, 0): 0.4, (-1, 0): 0.4, (0, 1): 0.3, (0, -1): 0.3, (1, 1): 0.2, (-1, -1): 0.2}
EVEN_2D_COMPLEX = {(0, 0): 2.0, (1, 0): 0.4 + 0.3j, (-1, 0): 0.4 + 0.3j, (0, 1): 0.3, (0, -1): 0.3}
EVEN_3D = {
    (0, 0, 0): 2.0,
    (1, 0, 0): 0.4, (-1, 0, 0): 0.4,
    (0, 1, 0): 0.3, (0, -1, 0): 0.3,
    (0, 0, 1): 0.2, (0, 0, -1): 0.2,
}
EVEN_3D_COMPLEX = {
    (0, 0, 0): 2.5 - 0.5j,
    (1, 0, 0): 0.3j, (-1, 0, 0): 0.3j,
    (0, 1, 0): 0.25, (0, -1, 0): 0.25,
    (1, 1, 1): 0.2, (-1, -1, -1): 0.2,
}
# not even: g_(1,0) != g_(-1,0) and a (1,1) mode without its mirror
SKEW_2D = {(0, 0): 2.0, (1, 0): 0.5, (-1, 0): 0.2, (0, 1): 0.3, (0, -1): 0.3, (1, 1): 0.25}
SKEW_2D_COMPLEX = {(0, 0): 2.0 + 0.3j, (1, 0): 0.5, (-1, 0): 0.2 - 0.1j, (0, -1): 0.3, (1, 1): 0.25j}
NEAR_ROOT_1D = -FOUR_PI_SQ + 0.3  # g_0 near the |k| = 1 root: sigma_min is sin-type
NEAR_ROOT_2D = -((2.0 * math.pi) ** 3) + 0.5


@pytest.mark.parametrize(
    "n, pot, radius, parity",
    [
        (1, {(0,): 3.0, (1,): 1.0, (-1,): 1.0, (2,): 0.8, (-2,): 0.8}, 40, 1),
        (1, {(0,): 3.0, (1,): 1.0 + 0.5j, (-1,): 1.0 + 0.5j}, 40, 1),
        (1, {(0,): NEAR_ROOT_1D, (1,): 0.5, (-1,): 0.5}, 40, -1),
        (1, {(0,): NEAR_ROOT_1D, (1,): 0.5 + 0.2j, (-1,): 0.5 + 0.2j}, 40, -1),
        (2, EVEN_2D, 10, 1),
        (2, EVEN_2D_COMPLEX, 10, 1),
        (2, {(0, 0): NEAR_ROOT_2D, (1, 0): 0.4, (-1, 0): 0.4, (0, 1): 0.3, (0, -1): 0.3}, 8, -1),
        (3, EVEN_3D, 3, 1),
        (3, EVEN_3D_COMPLEX, 3, 1),
    ],
)
def test_parity_kernels_match_unsplit_linalg_on_even_hill_sections(n, pot, radius, parity):
    _, m, _ = hill_section(HillProblem(n, n + 1.0, pot), radius)
    real = all(complex(v).imag == 0 for v in pot.values())
    assert m.dtype == (np.float64 if real else np.complex128)
    assert _parity_blocks(m) is not None
    parts = dense_parts(m)
    assert abs(_section_det(parts) - np.linalg.det(m)) <= 1e-12 * abs(np.linalg.det(m))
    inv = np.linalg.inv(m)
    assert np.linalg.norm(dense_of(parts.inverse()[0], len(m)) - inv) <= 1e-12 * np.linalg.norm(inv)
    svals = np.linalg.svd(m, compute_uv=False)
    smallest, largest, v = section_min_singular(parts)
    assert abs(smallest - svals[-1]) <= 1e-12 * svals[-1]
    assert abs(largest - svals[0]) <= 1e-12 * svals[0]
    assert v.dtype == m.dtype and abs(np.linalg.norm(v) - 1.0) <= 1e-12
    assert np.linalg.norm(m @ np.conj(v)) <= smallest * (1 + 1e-12) + 1e-14
    # a vector of one parity block: v(-k) = v(k) (even) or -v(k) (odd)
    assert np.array_equal(v[::-1], parity * v)


@pytest.mark.parametrize(
    "n, pot, radii",
    [
        (2, EVEN_2D, [8, 16]),
        (2, EVEN_2D_COMPLEX, [8, 16]),
        (3, EVEN_3D, [4]),
        (3, EVEN_3D_COMPLEX, [4]),
        (2, SKEW_2D, [8, 16]),
        (2, SKEW_2D_COMPLEX, [8, 16]),
    ],
)
def test_even_potential_ladder_rungs_match_dense_slogdet(n, pot, radii):
    # every rung is one component swept slab by slab, centrosymmetric or not
    nu = n + 1.0
    p = HillProblem(n, nu, pot)
    even = all(pot.get(tuple(-c for c in l)) == g for l, g in pot.items())
    with pytest.raises(NonConvergenceError) as err:
        hill_determinant(p, 1e-300, max_radius=radii[-1], coverage_radius=4 * radii[-1])
    ladder = err.value.ladder
    assert [step.radius for step in ladder] == radii
    for step in ladder:
        w, m, _ = hill_section(p, step.radius)
        assert (_parity_blocks(m) is not None) == even
        assert isinstance(dense_parts(m, w), _Slabs)
        sign, logabs = np.linalg.slogdet(damped_section(pot, step.radius, n, nu))
        reference = sign * math.exp(logabs)
        assert abs(step.value - reference) <= 1e-12 * abs(reference)


def test_a_ladder_rung_splits_its_section_once(monkeypatch):
    # a rung labels its components once; det and inverse of a corrected
    # rung reuse what it found, and neither splits the centrosymmetric
    # section by parity
    calls = {"split": 0, "parity": 0}

    def count(name, f):
        def counted(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)

        return counted

    split = count("split", _dense._component_blocks)
    monkeypatch.setattr(_dense, "_component_blocks", split)
    monkeypatch.setattr(_dense, "_parity_blocks", count("parity", _dense._parity_blocks))
    p = HillProblem(1, 2.0, {(0,): 3.0, (1,): 1.0, (-1,): 1.0})
    result = hill_determinant(p, 1e-6)
    assert calls["split"] == len(result.ladder) > 1 and calls["parity"] == 0


@pytest.mark.parametrize(
    "n, pot, radius",
    [(2, EVEN_2D, 10), (2, SKEW_2D, 10), (2, SKEW_2D_COMPLEX, 8), (3, EVEN_3D, 3), (3, EVEN_3D_COMPLEX, 3)],
)
def test_slab_kernels_match_unsplit_linalg_on_hill_sections(n, pot, radius):
    w, m, _ = hill_section(HillProblem(n, n + 1.0, pot), radius)
    slabs = dense_parts(m, w)
    assert isinstance(slabs, _Slabs)
    assert set(np.diff(slabs.bounds).tolist()) == {(2 * radius + 1) ** (n - 1)}
    det, inv = np.linalg.det(m), np.linalg.inv(m)
    assert abs(_section_det(slabs) - det) <= 1e-12 * abs(det)
    assert np.linalg.norm(dense_of(slabs.inverse()[0], len(m)) - inv) <= 1e-12 * np.linalg.norm(inv)


def count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_one_dimensional_sections_never_take_the_slab_path(monkeypatch):
    sweeps = count_calls(monkeypatch, _dense, "_slab_sweep")
    for pot in (
        {(0,): 3.0, (1,): 1.0, (-1,): 1.0},
        {(0,): 3.0, (1,): 0.7, (-2,): 0.4 + 0.2j, (3,): 0.3},
    ):
        p = HillProblem(1, 2.0, pot)
        assert hill_determinant(p, 1e-6).converged
        existence_test(p, tol=1e-8, max_radius=64)
    # a stored band of reach 20 would make slabs of order 20 in n >= 2
    rng = np.random.default_rng(31)
    band = {((k,), (k + d,)): 0.01 * rng.standard_normal() for k in range(-30, 31) for d in range(-20, 21)}
    poincare_determinant(SparseL1Matrix(1, band), TailModel.exact_finite(), 1e-10)
    assert sweeps == []


def test_a_ladder_rung_sweeps_its_slabs_once(monkeypatch):
    # det and inverse of a corrected 2-D rung reuse one sweep; no LAPACK
    # call sees more than a slab
    sweeps = count_calls(monkeypatch, _dense, "_slab_sweep")
    inverses = count_calls(monkeypatch, _dense._Slabs, "inverse")
    shapes = count_calls(monkeypatch, np.linalg, "inv")
    with pytest.raises(NonConvergenceError) as err:
        hill_determinant(HillProblem(2, 3.0, SKEW_2D), 1e-300, max_radius=16, coverage_radius=64)
    radii = [step.radius for step in err.value.ladder]
    assert radii == [8, 16] and len(sweeps) == len(inverses) == 2
    assert [args[0].shape[1] for args in sweeps] == [2 * r + 1 for r in radii]
    assert max(args[0].shape[0] for args in shapes) == 33


def test_a_warm_existence_test_at_radius_32_holds_no_section_sized_array():
    # at N = 4225 one N x N array takes 143 MB: the section, G and |G| took
    # 415 MB when the slab rung held them dense
    p = HillProblem(2, 3.0, EVEN_2D)
    existence_test(p, tol=1e-8, max_radius=32)
    tracemalloc.start()
    try:
        result = existence_test(p, tol=1e-8, max_radius=32)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.decision == "only-trivial" and peak < 100e6


def test_a_slab_rung_allocates_no_array_of_its_section_size(monkeypatch):
    # every np.zeros and np.empty call of a rung (its fill, sweep, inverse
    # and corrected step) stays below N^2 entries on all three slab rungs
    p = HillProblem(2, 3.0, EVEN_2D)
    existence_test(p, tol=1e-8, max_radius=32)
    sizes, rungs = [], []

    def spy(allocate):
        def counted(shape, *args, **kwargs):
            if sizes:
                sizes[-1].append(int(np.prod(shape)))
            return allocate(shape, *args, **kwargs)

        return counted

    section_parts = l1_algebra._section_parts

    def rung(size, *args):
        sizes.append([])
        rungs.append(size)
        parts = section_parts(size, *args)
        assert isinstance(parts, _Slabs)
        return parts

    monkeypatch.setattr(l1_algebra, "_section_parts", rung)
    monkeypatch.setattr(np, "zeros", spy(np.zeros))
    monkeypatch.setattr(np, "empty", spy(np.empty))
    existence_test(p, tol=1e-8, max_radius=32)
    assert rungs == [289, 1089, 4225]
    assert all(max(found) < size**2 for found, size in zip(sizes, rungs))

def test_extract_null_solution_degenerate_constant_in_two_dimensions():
    # Q = -(2 pi)^3 annihilates the four modes |k| = 1, each its own
    # component; the first in window order, k = (-1, 0), is returned
    p = HillProblem(2, 3.0, {(0, 0): -((2.0 * math.pi) ** 3)})
    sol = extract_null_solution(p, TruncationWindow(6, 2))
    assert sol.singular_value == 0.0
    assert list(sol.coefficients) == [(-1, 0)]
    assert abs(sol.coefficients[(-1, 0)]) == pytest.approx(1.0, abs=1e-15)
    assert sol.residual == 0.0


# --- the Hill tail provider against independent sums and oracles


def monodromy_determinants(potentials, steps=4000):
    """Det(I + B) = (tr M_Q - 2) / (2 cosh 1 - 2) for 1-D, nu = 2 potentials.

    M_Q is the monodromy matrix of u'' = Q u over one period, integrated by
    classical RK4 for all potentials at once; the two columns of the state
    are the solutions with (u, u') = (1, 0) and (0, 1) at x = 0.
    """
    offsets = sorted({l for pot in potentials for l in pot})
    g = np.array([[pot.get(l, 0.0) for l in offsets] for pot in potentials], dtype=complex)
    freq = 2j * math.pi * np.array(offsets, dtype=float)

    def f(x, y):  # y[:, 0] = (u of both solutions), y[:, 1] = (u' of both)
        q = g @ np.exp(freq * x)
        return np.stack([y[:, 1], q[:, None] * y[:, 0]], axis=1)

    y = np.zeros((len(potentials), 2, 2), dtype=complex)
    y[:, 0, 0] = y[:, 1, 1] = 1.0
    h = 1.0 / steps
    for i in range(steps):
        x = i * h
        k1 = f(x, y)
        k2 = f(x + h / 2, y + h / 2 * k1)
        k3 = f(x + h / 2, y + h / 2 * k2)
        k4 = f(x + h, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return (y[:, 0, 0] + y[:, 1, 1] - 2.0) / (2.0 * math.cosh(1.0) - 2.0)


def seeded_potentials():
    """Real and complex one- and two-mode potentials {offset: g_l}."""
    rng = np.random.default_rng(20261018)
    pots = []
    for _ in range(2):
        g0, g1, g2 = rng.uniform(2.0, 4.0), rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5)
        pots.append({0: g0, 1: g1, -1: g1})
        pots.append({0: g0, 1: g1, -1: g1, 2: g2, -2: g2})  # g0 + 2g1 cos 2pi x + 2g2 cos 4pi x
        c = rng.normal(0, 0.6, 5) + 1j * rng.normal(0, 0.6, 5)
        pots.append({0: 2.5 + c[0], 1: c[1], -1: c[2]})
        pots.append({0: 2.5 + c[0], 1: c[1], -1: c[2], 2: c[3], -2: c[4]})
    return pots


def test_monodromy_oracle_matches_the_closed_form_of_constants():
    c = np.array([0.5, 3.0, 7.5])
    got = monodromy_determinants([{0: x} for x in c])
    want = np.sinh(np.sqrt(c) / 2.0) ** 2 / math.sinh(0.5) ** 2
    assert np.max(np.abs(got - want)) <= 1e-11


def test_hill_determinant_certificates_cover_the_monodromy_oracle():
    pots = seeded_potentials()
    oracles = monodromy_determinants(pots)
    for pot, oracle in zip(pots, oracles):
        p = HillProblem(1, 2.0, {(l,): v for l, v in pot.items()})
        try:
            res = hill_determinant(p, 1e-6)
            value, bound = res.value, res.certified_error
        except NonConvergenceError as err:
            value, bound = err.last_value, err.last_bound
        assert abs(value - oracle) <= bound, (pot, value, oracle, bound)
        assert bound < 1e-4
        det = existence_test(p, tol=1e-8).determinant
        assert abs(det.value - oracle) <= det.certified_error
        for step in det.ladder:
            assert abs(step.value - oracle) <= step.bound


@pytest.mark.parametrize("nu", [1.5, 2.0, 3.5, 200.0])
def test_inverse_damping_tail_brackets_the_lattice_sum(nu):
    # S_R = sum_{|k| > R} 1/d(k) summed to 2^21 and bracketed beyond by
    # [0, shell_tail]: the 1-D bracket must overlap that range and be narrow
    far = 2**21
    k = np.arange(1, far + 1, dtype=float)
    f = 1.0 / HillProblem(1, nu, {}).weights(k[:, None])
    for radius in (0, 1, 8, 64, 1000):
        head = 2.0 * float(np.sum(f[radius:][::-1]))
        lo, hi = _inverse_damping_tail(HillProblem(1, nu, {}), radius)
        assert lo <= hi
        assert lo <= head + shell_tail(far, 1, nu, 2 * math.pi, 1.0) + 1e-15 * head
        assert hi >= head * (1 - 1e-13)
        assert hi - lo <= max(nu * hi / (radius + 1), 1e-300)


@pytest.mark.parametrize("n, nu", [(1, 2.0), (2, 3.0)])
def test_square_and_union_tails_dominate_lattice_sums(n, nu):
    # sum of 1/(d(k) d(k - l)) over the k with k or k - l beyond the radius,
    # and the l1 mass of B beyond it, even for radii below the offset
    far = 2**17 if n == 1 else 200
    pts = TruncationWindow(far, n).coords_array()
    unit = HillProblem(n, nu, {})
    inv_d = 1.0 / unit.weights(pts)
    for l in [(1,), (2,), (3,)] if n == 1 else [(1, 0), (2, -1), (3, 3)]:
        shifted = pts - np.asarray(l)
        key = np.maximum(np.max(np.abs(pts), axis=1), np.max(np.abs(shifted), axis=1))
        h = inv_d / unit.weights(shifted)
        reach = max(abs(c) for c in l)
        # g = delta + g_l delta_l + g_-l delta_-l: one square pair, reach |l|_inf
        neg = tuple(-c for c in l)
        p = HillProblem(n, nu, {(0,) * n: 1.0, l: 1.0, neg: 1.0})
        assert p.pair_reach.tolist() == [reach] and p.reach() == reach
        for radius in (0, 1, 2, 8, 32):
            bound = _square_tail(p, radius)[0]
            assert float(np.sum(h[(key > radius) & (key <= far - reach)])) <= bound
            # B with g = delta_l: row k, column k - l, value 1/d(k)
            mass = float(np.sum(inv_d[(key > radius) & (key <= far - reach)]))
            assert mass <= p.tail_bound(radius, 1.0)


def dense_tail_moments(p, window_radius, radius, g_dense):
    """||T||_1, Tr T, Tr T^2 and Tr(G T^2) of the tail of the rung of the
    given radius, summed over the dense B of a larger window, and the
    remainder bound of each beyond that window (Tr(G T^2) has none)."""
    n, nu = p.dimension, p.nu
    big = TruncationWindow(window_radius, n)
    b = damped_section(p.potential, window_radius, n, nu) - np.eye(big.size)
    pts = big.coords_array()
    inner = np.flatnonzero(np.max(np.abs(pts), axis=1) <= radius)
    t = b.copy()
    t[np.ix_(inner, inner)] = 0.0
    coeffs = p.damped_coeffs()
    _, tail = build_hill_matrix(p, big)
    g0 = abs(coeffs.get((0,) * n, 0.0))
    square = sum(
        abs(v * coeffs[tuple(-c for c in l)])
        * shell_tail(window_radius - max(abs(c) for c in l), n, 2 * nu, 2 * math.pi, 1.0)
        for l, v in coeffs.items()
        if tuple(-c for c in l) in coeffs
    )
    cross = np.sum(g_dense * (t[inner, :] @ t[:, inner]).T)
    return {
        "t_total": (float(np.sum(np.abs(t))), tail.bound_at(window_radius)),
        "tr_t": (np.trace(t), g0 * shell_tail(window_radius, n, nu, 2 * math.pi, 1.0)),
        "tr_t2": (np.sum(t * t.T), square),
        "cross": (cross, 0.0),
    }


@pytest.mark.parametrize(
    "problem, max_radius, head, window_radius",
    [
        (HillProblem(1, 2.0, {(0,): 3.0, (1,): 1.0, (-1,): 1.0, (2,): 0.8, (-2,): 0.5j}), 32, 24, 600),
        (HillProblem(2, 3.0, {(0, 0): 2 + 1j, (1, 0): 0.5, (-1, 0): 0.4, (-1, 1): 0.3j,
                              (1, -1): 0.2, (0, -2): 0.2 - 0.1j}), 16, 12, 20),
    ],
)
def test_hill_tail_moments_match_dense_sums(problem, max_radius, head, window_radius):
    # rungs inside and beyond the head radius; every moment within its stated
    # error of the dense sum plus that sum's remainder beyond its window
    tails = _HillTails(problem, 1e-8, max_radius, head)
    assert tails.radii[0] < head < tails.radii[-1]
    for i, radius in enumerate(tails.radii):
        window = TruncationWindow(radius, problem.dimension)
        inside = tails.bucket <= i
        f_norm = float(np.sum(tails.abs_vals[inside]))
        section = np.eye(window.size, dtype=complex)
        pos = lambda c: np.ravel_multi_index((c + radius).T, (2 * radius + 1,) * problem.dimension)
        section[pos(tails.rows[inside]), pos(tails.cols[inside])] += tails.vals[inside]
        g_dense = np.linalg.inv(section) - np.eye(window.size)
        dense = dense_tail_moments(problem, window_radius, radius, g_dense)

        t_total, unstored, norm_upper = tails.l1_tail(i, f_norm)
        lo, hi = tails.inverse_damping_sum(i)
        brute, rest = dense["t_total"]
        assert brute <= t_total * (1 + 1e-13)
        assert t_total <= brute + rest + problem.mass * (hi - lo) + 1e-13
        assert unstored == 0.0 and norm_upper == f_norm + t_total

        (tr_t, err_t), (tr_t2, err_t2) = tails.moments(i)
        out = tails.bucket > i  # the entries the ladder meets with G
        cross = _tail_cross_term(g_dense, radius, tails.rows[out], tails.cols[out], tails.vals[out])
        scale = 1e-12 * (1 + t_total) ** 2
        for name, got, err in (("tr_t", tr_t, err_t), ("tr_t2", tr_t2, err_t2), ("cross", cross, 0.0)):
            brute, rest = dense[name]
            assert abs(got - brute) <= err + rest + scale, (name, radius, got, brute, err, rest)


@pytest.mark.parametrize(
    "problem, head",
    [
        (HillProblem(1, 2.0, {(0,): 3.0, (1,): 1.0, (-1,): 1.0, (2,): 0.8, (-2,): 0.5j}), 64),
        (HillProblem(2, 3.0, {(0, 0): 2 + 1j, (1, 0): 0.5, (-1, 0): 0.4, (-1, 1): 0.3j,
                              (1, -1): 0.2, (0, -2): 0.2 - 0.1j}), 32),
    ],
)
def test_hill_ladder_bound_is_no_worse_than_the_materialized_window(problem, head):
    # the stored-entry ladder on B materialized to the same coverage radius
    # is what hill_determinant computed before the lattice sums
    matrix, tail = build_hill_matrix(problem, TruncationWindow(head, problem.dimension))
    for max_radius in (8, 16):
        with pytest.raises(NonConvergenceError) as new:
            hill_determinant(problem, 1e-300, max_radius=max_radius, coverage_radius=head)
        with pytest.raises(NonConvergenceError) as old:
            poincare_determinant(matrix, tail, 1e-300, max_radius=max_radius)
        new, old = new.value, old.value
        assert [s.radius for s in new.ladder] == [s.radius for s in old.ladder]
        assert [s.value for s in new.ladder] == [s.value for s in old.ladder]
        assert new.last_bound <= old.last_bound
        assert abs(new.last_value - old.last_value) <= new.last_bound + old.last_bound


TRIG_1D = HillProblem(1, 2.0, {(0,): 3.0, (1,): 1.0, (-1,): 1.0, (2,): 0.8, (-2,): 0.8})
TRIG_2D = HillProblem(2, 3.0, {(0, 0): 2 + 1j, (1, 0): 0.5, (-1, 0): 0.4, (-1, 1): 0.3j,
                               (1, -1): 0.2, (0, -2): 0.2 - 0.1j})


def fresh(p):
    """A new problem equal to p, holding none of the sums p has kept."""
    return HillProblem(p.dimension, p.nu, p.potential)


def cosine_problem(dimension):
    """g0 = 2 and 0.3 at +-e1 in the given dimension, nu = 5."""
    e1 = (1,) + (0,) * (dimension - 1)
    return HillProblem(dimension, 5.0, {(0,) * dimension: 2.0, e1: 0.3,
                                        tuple(-c for c in e1): 0.3})


def test_hill_ladders_materialize_only_the_last_rung_and_the_reach(monkeypatch):
    import torusdet.hill as hill
    from torusdet import l1_algebra

    built = []
    original = hill.build_hill_matrix

    def spy(p, w):
        # refuse before allocating: a window past the section limit is never built
        assert w.size <= l1_algebra._SECTION_SIZE_LIMIT, f"built the window of radius {w.radius}"
        built.append(w.radius)
        return original(p, w)

    monkeypatch.setattr(hill, "build_hill_matrix", spy)
    trig = fresh(TRIG_1D)
    with pytest.raises(NonConvergenceError):
        hill_determinant(trig, 1e-12, max_radius=32)
    existence_test(trig, tol=1e-8, max_radius=16)
    assert built == [34, 18]
    # 17^3 points fit the section limit and 33^3 do not: rung 8 and the reach
    built.clear()
    result = existence_test(cosine_problem(3), tol=1e-8)
    assert [s.radius for s in result.determinant.ladder] == [8]
    assert built == [9]
    # 17^4 points do not fit: refused before anything is built
    built.clear()
    with pytest.raises(ValueError, match="window of radius 8 has 83521 points"):
        existence_test(cosine_problem(4), tol=1e-8)
    assert built == []


@pytest.mark.parametrize(
    "problem, tol, max_radius, head",
    [
        (TRIG_1D, 1e-6, 64, 1024),  # the start, max(4 max_radius, 1024)
        (TRIG_1D, 1e-10, 64, 2048),
        (TRIG_1D, 1e-6, 512, 2048),
        (TRIG_2D, 1e-8, 16, 1024),  # 2049^2 head points at most
        (HillProblem(1, 2.0, {(0,): 3.0}), 1e-14, 64, 32768),
        (HillProblem(3, 5.0, {(0, 0, 0): 2.0}), 1e-8, 8, 80),
    ],
)
def test_default_head_radius(monkeypatch, problem, tol, max_radius, head):
    import torusdet.hill as hill

    class Stop(Exception):
        pass

    radii = []

    def spy(p, radius):
        radii.append(radius)
        raise Stop  # the head sums themselves are not needed here

    monkeypatch.setattr(hill, "_head_sums", spy)
    problem = fresh(problem)
    for entry in (hill_determinant, existence_test):
        with pytest.raises(Stop):
            entry(problem, tol, max_radius=max_radius)
    assert radii == [head, head]


# --- what a problem keeps between calls

# (dimension, nu, potential, coverage radius): refusals and null vectors,
# converged and unconverged ladders, kernel checks that certify and refuse
HILL_REPEAT_CASES = {
    "1-D trig": (1, 2.0, {(0,): 3.0, (1,): 1.0, (-1,): 1.0, (2,): 0.8, (-2,): 0.8}, None),
    "1-D singular": (1, 2.0, {(0,): -FOUR_PI_SQ}, None),
    "1-D near root": (1, 2.0, {(0,): -40.475 + 0.5, (2,): 1.0, (-2,): 1.0}, None),
    "2-D trig": (2, 3.0, {(0, 0): 2.0, (1, 0): 0.5, (-1, 0): 0.5, (0, 1): 0.3, (0, -1): 0.3,
                          (1, 1): 0.2, (-1, -1): 0.2}, 64),
    "2-D singular": (2, 3.0, {(0, 0): -((2.0 * math.pi) ** 3)}, 64),
}


def hill_calls(n, coverage):
    """(f, args, kwargs): ladders at two tols and two last rungs, extractions
    refused and not; the last window is a ladder's last rung, as in ``hill check``."""
    max_radius = 64 if n == 1 else 16
    for tol in (1e-3, 1e-9):
        for last in (8, max_radius):
            for f in (hill_determinant, existence_test):
                yield f, (tol,), {"max_radius": last, "coverage_radius": coverage}
    for radius in (6, max_radius):
        for threshold in (1e-6, 10.0):
            yield extract_null_solution, (TruncationWindow(radius, n),), {"threshold": threshold}


def hill_outcome(f, p, *args, **kwargs):
    """``f``'s return, or its error's message and the values it carries."""
    try:
        return f(p, *args, **kwargs)
    except NonConvergenceError as err:
        return "error", str(err), err.ladder, err.last_bound, err.last_value
    except NoNullSolutionError as err:
        return "refused", str(err), err.singular_value


def test_repeat_and_fresh_hill_calls_match_the_first_exactly():
    # each problem keeps its sums over the sweep; a fresh problem from the
    # same data starts empty; every value, bound, vector and error must agree
    outcomes = []
    for label, (n, nu, pot, coverage) in HILL_REPEAT_CASES.items():
        p = HillProblem(n, nu, pot)
        for f, args, kwargs in hill_calls(n, coverage):
            first = hill_outcome(f, p, *args, **kwargs)
            assert hill_outcome(f, p, *args, **kwargs) == first, label
            assert hill_outcome(f, HillProblem(n, nu, pot), *args, **kwargs) == first, label
            outcomes.append(first)
        # the kept sums are no field: equality and repr see (n, nu, g) only
        assert p == HillProblem(n, nu, pot) and repr(p) == repr(HillProblem(n, nu, pot))
    kinds = {out[0] if isinstance(out, tuple) else type(out).__name__ for out in outcomes}
    assert kinds == {"error", "refused", "DeterminantResult", "ExistenceResult", "SolutionCandidate"}
    decisions = {(out.decision, out.kernel_certified) for out in outcomes
                 if type(out).__name__ == "ExistenceResult"}
    assert {("nontrivial-solution", True), ("undecided", False)} <= decisions


def test_repeat_hill_calls_make_no_head_sums_build_or_svd(monkeypatch):
    import torusdet.hill as hill

    counts = {}

    def counted(name, f):
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return f(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(hill, "_head_sums", counted("head sums", hill._head_sums))
    monkeypatch.setattr(hill, "build_hill_matrix", counted("build", hill.build_hill_matrix))
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kwargs: counted(
        "values svd" if kwargs.get("compute_uv", True) is False else "vector svd", svd
    )(a, *args, **kwargs))
    for label, (n, nu, pot, coverage) in HILL_REPEAT_CASES.items():
        p = HillProblem(n, nu, pot)
        calls = list(hill_calls(n, coverage))
        counts.clear()
        first = [hill_outcome(f, p, *args, **kwargs) for f, args, kwargs in calls]
        assert counts["head sums"] and counts["build"] and counts["values svd"], label
        counts.clear()
        assert [hill_outcome(f, p, *args, **kwargs) for f, args, kwargs in calls] == first
        # a returned null vector's residual reads the window's factors, which
        # every call builds anew from one build; nothing else is redone
        vectors = sum(type(out).__name__ == "SolutionCandidate" or getattr(out, "kernel_certified", False)
                      for out in first)
        assert counts == ({"build": vectors} if vectors else {}), label
        # the problem keeps no N x N array: per window, arrays of at most
        # offsets x N rows (near entries) or head radius + 1 columns (head sums)
        near = TruncationWindow(64 + p.reach(), n).size
        for key, value in p._cache.items():
            for x in value if isinstance(value, tuple) else (value,):
                if isinstance(x, np.ndarray):
                    assert not x.flags.writeable, (label, key)
                    if key[0] == "head":
                        assert x.shape[-1] == key[1] + 1 and x.size <= len(p.pair_offsets) * x.shape[-1]
                    else:
                        assert x.shape[0] <= len(p.offsets) * near and x.size <= n * x.shape[0], (label, key)


def test_null_solution_vectors_only_for_the_component_that_holds_sigma_min(monkeypatch):
    calls = []
    original = np.linalg.svd

    def spy(a, *args, **kwargs):
        calls.append((a.shape, kwargs.get("compute_uv", True)))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    # a refusal reads no singular vector, so none is computed
    trig = HillProblem(2, 3.0, {(0, 0): 2.0, (1, 0): 0.4, (-1, 0): 0.4, (0, 1): 0.3, (0, -1): 0.3})
    with pytest.raises(NoNullSolutionError):
        extract_null_solution(trig, TruncationWindow(6, 2))
    assert calls and all(uv is False for _, uv in calls)
    # 169 one-point components: vectors of the chosen one only
    calls.clear()
    singular = HillProblem(2, 3.0, {(0, 0): -((2.0 * math.pi) ** 3)})
    sol = extract_null_solution(singular, TruncationWindow(6, 2))
    assert [shape for shape, uv in calls if uv is not False] == [(1, 1)]
    assert list(sol.coefficients) == [(-1, 0)] and sol.singular_value == 0.0


def test_an_unwanted_vector_is_never_computed(monkeypatch):
    calls = []
    original = np.linalg.svd

    def spy(a, *args, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    rng = np.random.default_rng(21)
    half = rng.standard_normal((7, 7))
    several = np.diag([4.0, 2.0, 3.0, 0.5, 2.0])
    several[0, 3] = several[3, 0] = 1.0
    sections = {
        "components": several,
        "parity": np.eye(7) + 0.2 * (half + half[::-1, ::-1]),
        "whole": np.eye(7) + 0.2 * half,
    }
    for name, m in sections.items():
        for refuse in (True, False):
            calls.clear()
            seen = []
            smallest, largest, v = section_min_singular(
                dense_parts(m), wanted=lambda s, l: seen.append((s, l)) or not refuse
            )
            assert len(seen) == 1, name
            if refuse:
                # the values of the parts alone, and no vector SVD at all
                assert v is None and seen == [(smallest, largest)], name
                assert calls and not any(calls), name
            else:
                # the values of the vector SVD, within roundoff of those seen
                assert seen[0] == pytest.approx((smallest, largest), rel=1e-14), name
                assert calls.count(True) == 1, name
                want = section_min_singular(dense_parts(m))
                assert (smallest, largest) == want[:2] and np.array_equal(v, want[2]), name
    # the kernel check of an undecided problem refuses the same way
    calls.clear()
    near_root = HillProblem(1, 2.0, {(0,): -40.475 + 0.5, (2,): 1.0, (-2,): 1.0})
    assert not _kernel_certified(near_root, 16)
    assert calls and not any(calls)


def dict_loop_residual(p, w, dense, b_vec):
    """The full residual summed per outside row in a dict, one point at a time."""
    pts = w.coords_array()
    inside = dense @ b_vec
    outside = {}
    for l, v in p.damped_coeffs().items():
        rows = pts + np.asarray(l, dtype=np.int64)
        out = sup_norm_array(rows) > w.radius
        weights = p.weights(rows[out])
        for r, d, bv in zip(rows[out], weights, b_vec[out]):
            key = tuple(int(c) for c in r)
            outside[key] = outside.get(key, 0.0) + v * bv / d
    out_sq = sum(abs(v) ** 2 for v in outside.values())
    return math.sqrt(float(np.sum(np.abs(inside) ** 2)) + out_sq)


@pytest.mark.parametrize(
    "n, pot, radius",
    [
        (1, {(0,): 3.0, (1,): 1.0, (-1,): 1.0, (2,): 0.8 - 0.1j, (-3,): 0.5}, 6),
        (1, {(0,): NEAR_ROOT_1D, (1,): 0.5, (-1,): 0.5}, 4),
        (2, EVEN_2D, 3),
        (2, SKEW_2D_COMPLEX, 4),
    ],
)
def test_full_residual_matches_a_per_row_dict_reference(n, pot, radius):
    # outside rows collect terms of several offsets, (1, 1) and (1, 0) among them
    p = HillProblem(n, n + 1.0, pot)
    w, dense, _ = hill_section(p, radius)
    rng = np.random.default_rng(radius)
    for _ in range(3):
        b_vec = rng.standard_normal(w.size) + 1j * rng.standard_normal(w.size)
        for b in (b_vec, b_vec.real.copy()):
            # a zero section leaves the outside rows alone, far below the inside
            for section in (dense, np.zeros_like(dense)):
                want = dict_loop_residual(p, w, section, b)
                assert want > 0
                assert _full_residual(p, w, dense_parts(section), b) == pytest.approx(want, rel=1e-14, abs=0)
