import itertools
import math

import numpy as np
import pytest

from torusdet.lattice import (
    InvalidOrderError,
    TruncationWindow,
    box_coords,
    box_size,
    bracket,
    bracket_array,
    enumerate_window,
    euclid_norm_array,
    forward_difference,
    index_keys,
    matching_pairs,
    squared_norm_array,
    sup_norm_array,
    window_position,
    window_positions,
)


def iterated_difference(phi, alpha, k):
    """Independent oracle: apply the one-step difference axis by axis."""
    n = len(alpha)

    def one_step(f, axis):
        def shifted(point):
            moved = list(point)
            moved[axis] += 1
            return f(tuple(moved)) - f(point)

        return shifted

    f = phi
    for axis in range(n):
        for _ in range(alpha[axis]):
            f = one_step(f, axis)
    return f(k)


def test_bracket_values():
    assert bracket((0,)) == 1.0
    assert bracket((0, 0, 0)) == 1.0
    assert bracket((3, 4)) == pytest.approx(math.sqrt(26.0), rel=1e-15)
    assert bracket((1,)) == pytest.approx(math.sqrt(2.0), rel=1e-15)


def test_bracket_symmetry_and_floor():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = rng.integers(1, 4)
        k = tuple(int(x) for x in rng.integers(-20, 21, size=n))
        neg = tuple(-c for c in k)
        assert bracket(k) >= 1.0
        assert bracket(k) == bracket(neg)


def test_forward_difference_linear_sequence():
    for k in range(-5, 6):
        assert forward_difference(lambda p: p[0], (1,), (k,)) == 1


def test_forward_difference_quadratic():
    for k in range(-5, 6):
        assert forward_difference(lambda p: p[0] ** 2, (2,), (k,)) == 2


def test_forward_difference_bilinear():
    for k1 in range(-3, 4):
        for k2 in range(-3, 4):
            got = forward_difference(lambda p: p[0] * p[1], (1, 1), (k1, k2))
            assert got == 1


def test_forward_difference_matches_iterated_one_step():
    rng = np.random.default_rng(11)
    table = {}

    def phi(p):
        if p not in table:
            table[p] = complex(rng.standard_normal(), rng.standard_normal())
        return table[p]

    for alpha in itertools.product(range(4), repeat=2):
        for base in [(-2, 1), (0, 0), (3, -4)]:
            direct = forward_difference(phi, alpha, base)
            oracle = iterated_difference(phi, alpha, base)
            assert direct == pytest.approx(oracle, abs=1e-12)


def test_forward_difference_linearity():
    rng = np.random.default_rng(3)
    pts = {}

    def make(seed):
        local = np.random.default_rng(seed)
        cache = {}

        def f(p):
            if p not in cache:
                cache[p] = complex(local.standard_normal(), local.standard_normal())
            return cache[p]

        return f

    f, g = make(1), make(2)
    a, b = 1.7 - 0.3j, -0.8 + 2.1j
    for alpha in [(1,), (2,), (3,)]:
        for k in [(-1,), (0,), (4,)]:
            combo = forward_difference(lambda p: a * f(p) + b * g(p), alpha, k)
            split = a * forward_difference(f, alpha, k) + b * forward_difference(g, alpha, k)
            scale = max(1.0, abs(split))
            assert abs(combo - split) <= 1e-12 * scale


def test_forward_difference_annihilates_low_degree():
    # Delta^alpha kills integer polynomials of degree < |alpha|, exactly
    for deg in range(3):
        poly = lambda p, d=deg: (2 * p[0] + 1) ** d
        assert forward_difference(poly, (deg + 1,), (-3,)) == 0
        assert forward_difference(poly, (deg + 1,), (5,)) == 0


def test_forward_difference_rejects_negative_order():
    with pytest.raises(InvalidOrderError):
        forward_difference(lambda p: 0, (1, -1), (0, 0))


def test_enumerate_window_examples():
    assert enumerate_window(TruncationWindow(0, 2)) == [(0, 0)]
    assert enumerate_window(TruncationWindow(1, 1)) == [(-1,), (0,), (1,)]
    pts = enumerate_window(TruncationWindow(1, 2))
    assert len(pts) == 9
    assert pts[0] == (-1, -1)
    assert pts[-1] == (1, 1)
    assert pts == sorted(pts)


def test_enumerate_window_is_deterministic_and_nested():
    for n in (1, 2):
        small = set(enumerate_window(TruncationWindow(2, n)))
        large = set(enumerate_window(TruncationWindow(3, n)))
        assert small < large
        again = enumerate_window(TruncationWindow(2, n))
        assert list(small) != [] and again == enumerate_window(TruncationWindow(2, n))


def test_window_position_matches_enumeration():
    w = TruncationWindow(2, 2)
    for i, p in enumerate(enumerate_window(w)):
        assert window_position(w, p) == i
    with pytest.raises(ValueError):
        window_position(w, (3, 0))


def test_window_positions_match_window_position():
    for n, radius in ((1, 4), (2, 2), (3, 1)):
        w = TruncationWindow(radius, n)
        pts = w.coords_array()
        want = [window_position(w, tuple(p)) for p in pts.tolist()]
        assert want == list(range(w.size))
        assert window_positions(pts, radius).tolist() == want
        # narrow index dtypes give the same positions
        assert window_positions(pts[::-1].astype(np.int8), radius).tolist() == want[::-1]


def test_index_keys_sort_like_the_rows():
    rng = np.random.default_rng(5)
    near = 2**40 + rng.integers(-3, 4, size=(150, 3))
    near[::2] *= -1  # (2 M + 2)^3 passes 2^62: the keys are np.unique ranks
    cases = [rng.integers(-50, 51, size=(150, n)) for n in (1, 2, 4)] + [near]
    for rows in cases:
        keys = np.concatenate(index_keys(rows[:100], rows[100:], rows[:0]))
        assert keys.dtype == np.int64 and len(keys) == len(rows)
        tuples = [tuple(r) for r in rows.tolist()]
        want = [[(a > b) - (a < b) for b in tuples] for a in tuples]
        assert np.sign(keys[:, None] - keys[None, :]).tolist() == want
    distinct = len({tuple(r) for r in near.tolist()})
    assert sorted(set(np.concatenate(index_keys(near)).tolist())) == list(range(distinct))


def test_matching_pairs_is_the_ordered_double_loop():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3):
        for trial in range(20):
            # few distinct rows: keys repeat on both sides
            left = rng.integers(-1, 2, size=(int(rng.integers(0, 40)), n))
            right = rng.integers(-1, 2, size=(int(rng.integers(0, 40)), n))
            if trial % 2:
                left, right = left * 2**40, right * 2**40
            i, j = matching_pairs(*index_keys(left, right))
            want = [
                (a, b)
                for a, x in enumerate(left.tolist())
                for b, y in enumerate(right.tolist())
                if x == y
            ]
            assert list(zip(i.tolist(), j.tolist())) == want


def test_index_keys_and_matching_pairs_on_empty_inputs():
    none = np.zeros((0, 2), dtype=np.int64)
    some = np.array([[1, 2], [1, 2]])
    assert [len(k) for k in index_keys(none, none)] == [0, 0]
    assert [len(k) for k in index_keys(none, some)] == [0, 2]
    for left, right in ((none, none), (none, some), (some, none)):
        i, j = matching_pairs(*index_keys(left, right))
        assert i.tolist() == j.tolist() == []
    empty = np.zeros(0, dtype=np.int64)
    assert [x.tolist() for x in matching_pairs(empty, empty)] == [[], []]


def test_window_ordering_and_size():
    assert TruncationWindow(1, 2) < TruncationWindow(2, 2)
    assert TruncationWindow(3, 2).size == 49
    assert TruncationWindow(2, 3).size == 125
    coords = TruncationWindow(1, 2).coords_array()
    assert coords.shape == (9, 2)
    assert [tuple(c) for c in coords] == enumerate_window(TruncationWindow(1, 2))


def test_coords_array_slice_matches_full_window():
    for n, radius in ((1, 5), (2, 3), (3, 2)):
        w = TruncationWindow(radius, n)
        full = w.coords_array()
        assert np.array_equal(full, np.array(enumerate_window(w), dtype=np.int64))
        size = w.size
        ranges = [(0, 0), (4, 4), (size, size), (0, size), (0, None), (3, 11),
                  (size - 7, size), (size - 1, size), (1, size + 5), (9, 2), (-6, None)]
        for start, stop in ranges:
            part = w.coords_array(start, stop)
            assert part.dtype == np.int64 and part.shape[1] == n
            assert np.array_equal(part, full[start:stop])
    with pytest.raises(ValueError):
        TruncationWindow(-1, 2)


def test_box_coords_enumerates_boxes_lexicographically_and_by_slice():
    boxes = [([-2], [3]), ([1, -4], [2, -1]), ([0, 5, -1], [1, 7, 1]), ([-3, 2], [-3, 2])]
    for lo, hi in boxes:
        full = box_coords(lo, hi)
        want = list(itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))))
        assert box_size(lo, hi) == len(want)
        assert full.dtype == np.int64 and [tuple(c) for c in full] == want
        for start, stop in ((0, 0), (2, 5), (len(want) - 1, None), (-3, None), (4, 1)):
            assert np.array_equal(box_coords(lo, hi, start, stop), full[start:stop])
    for lo, hi in (([0], [-1]), ([0, 3], [4, 2]), ([2, 0, 0], [1, 5, 5])):
        assert box_size(lo, hi) == 0
        assert box_coords(lo, hi).shape == (0, len(lo))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_norm_arrays_match_the_row_reductions(n):
    # column-by-column sums of integer squares are exact, so they equal the
    # axis=1 reductions bit for bit; the empty array keeps the dtypes
    rng = np.random.default_rng(n)
    for coords in (rng.integers(-10**6, 10**6, size=(500, n)), np.zeros((0, n), dtype=np.int64)):
        floats = coords.astype(np.float64)
        pairs = [
            (sup_norm_array(coords), np.max(np.abs(coords), axis=1)),
            (squared_norm_array(coords, np.int64), np.sum(coords**2, axis=1)),
            (euclid_norm_array(coords), np.sqrt(np.sum(floats * floats, axis=1))),
            (bracket_array(coords), np.sqrt(1.0 + np.sum(floats * floats, axis=1))),
        ]
        for got, want in pairs:
            assert got.dtype == want.dtype and np.array_equal(got, want)
