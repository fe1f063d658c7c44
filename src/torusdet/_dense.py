"""Dense kernels on finite sections: determinant, inverse and singular values.

:func:`_section_parts` factors a section from its entries, with no N x N
array unless LAPACK takes the section whole.  A section is the direct sum of
the connected components of its nonzero pattern, labelled from the entries'
positions before any fill, so det and inverse are computed per component,
with one LAPACK call per component size on the stacked blocks
(:class:`_Stacks`).  Ladder rungs and :func:`l1_algebra.finite_determinant`
build the same factors, which give ``dets()``, ``inverse()`` and
``parts @ b``, and so do the Hill windows whose SVD seeks a null vector.

A one-component section in dimension n >= 2 is factored slab by slab when
the caller passes its window.  A section whose entries move k_1 by at most
w is block tridiagonal over slabs of w consecutive k_1 values,
b = w (2R + 1)^(n-1) consecutive positions each, as every Hill section of a
trigonometric potential is.  With at least 3 slabs of order b >= 16 (see
:func:`_slab_order`), it exists only as stacks of its diagonal, super-
and subdiagonal blocks, filled from its entries (:func:`_slab_blocks`).
One forward block-LU sweep (Demmel, Higham & Schreiber, Numer. Linear
Algebra Appl. 2, 1995) forms their Schur complements S_i: det m is the
product of the det S_i, and the inverse, stored as a band c slabs wide
and 0 off it up to a bound, takes O(N b^2 c) against LAPACK's O(N^3).
The sweep stops when an intermediate S_i is singular or ill conditioned on
the scale of the terms it is formed from (see :func:`_slab_sweep`).  Any
other one-component section, and one whose sweep stopped, is a
one-component :class:`_Stacks` filled straight from the entries, which
LAPACK factors whole.  A singular component or last S_i gives det 0
exactly.

Singular values never use slabs, which give none: the SVD reads the
component stacks of a :class:`_Stacks` as they are, so only a one-component
section is held N x N for it.  One that is centrosymmetric,
``m == m[::-1, ::-1]``, and of odd order N = 2h + 1, as every window is,
splits for its SVD instead.  Window positions are lexicographic, so the
reflection k -> -k reverses them, and the section of an operator that
commutes with it is centrosymmetric: a Hill section I + B is whenever the
potential is even, g_-l = g_l (every cosine potential, real or complex).
The orthogonal Q whose columns are (e_i + e_{N-1-i}) / sqrt 2 for i < h,
e_h, and (e_i - e_{N-1-i}) / sqrt 2 for i < h gives ``Q^T m Q = diag(E, O)``
(Cantoni & Butler, Linear Algebra Appl. 13, 1976), with the even block E of
order h + 1 and the odd block O of order h (see :func:`_parity_blocks`),
whose SVDs take about a quarter of the flops of the SVD of m and give a
vector of one parity.
:func:`_singular_parts` lists the stacks a section's SVD reads (the
component stacks, the parity blocks or the section itself);
:func:`_singular_summary` takes one values-only SVD per stack and
:func:`_singular_vector` one vector SVD of the matrix with the smallest
sigma_min.  All three are pure functions of the factors: what is kept
between calls, and whether a vector is wanted, is the caller's to decide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_SQRT2 = math.sqrt(2.0)
# slab sections: the smallest slab order, and the largest amplification
# (||A||_1 + ||P||_1) ||S^{-1}||_1 of an intermediate Schur complement
# S = A - P the sweep goes on with.  On 2-D and 3-D Hill sections the
# largest one stays within 10 % below the 1-norm condition number of the
# whole section (2.3 to 1.2e5), the growth pivoted LU is exposed to as well
_SLAB_MIN_ORDER = 16
_SLAB_CONDITION_LIMIT = 1e6
# the slab inverse leaves a block of G at 0 when its bound, with every
# block beyond it, is at most this fraction of its diagonal block's mass
_SLAB_NEGLIGIBLE = 2.0**-70


def _component_labels(size, i, j):
    """Smallest index of the connected component of each of 0..size-1.

    Components of the graph with the links (i[e], j[e]): roots are hooked
    onto the smallest neighbouring root and pointers jumped to their roots
    until no link joins two roots.
    """
    off = i != j
    i, j = i[off], j[off]
    labels = np.arange(size)
    while True:
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped
        li, lj = labels[i], labels[j]
        split = li != lj
        if not np.any(split):
            return labels
        li, lj = li[split], lj[split]
        np.minimum.at(labels, np.maximum(li, lj), np.minimum(li, lj))


def _component_blocks(size, i, j):
    """Components of the graph on 0..size-1 with the links (i[e], j[e]), [] if one.

    One (count, s) index array per component size s, ascending; each row is
    a component's positions, ascending, and rows go by their first position.
    """
    labels = _component_labels(size, i, j)
    order = np.argsort(labels, kind="stable")
    starts = np.flatnonzero(np.diff(labels[order], prepend=-1))
    if len(starts) == 1:
        return []
    sizes = np.diff(starts, append=size)
    present = np.flatnonzero(np.bincount(sizes))  # np.unique's first call imports numpy.ma
    return [order[starts[sizes == s][:, None] + np.arange(s)] for s in present]


def _section_parts(size, r, c, values, diagonal, window=None):
    """The factors of the section of ``size`` positions: ``values`` at (r, c) plus ``diagonal``.

    Components are labelled from the positions before any fill.  Several
    give the :class:`_Stacks` of the section on its :func:`_component_blocks`;
    one gives the :class:`_Slabs` sweep when ``window`` (the window the
    section is on) makes it a slab section and the sweep passes its guard,
    else the one-component :class:`_Stacks` that LAPACK factors, filled
    straight from the entries at ``r N + c``.  Each has ``dets()`` and
    ``inverse()``.
    """
    blocks = _component_blocks(size, r, c)
    slabs = None if blocks else _slab_blocks(window, r, c, values, diagonal)
    return slabs or _Stacks.identity_plus(blocks or [np.arange(size)[None]], r, c, values, diagonal)


def _slab_blocks(window, r, c, values, diagonal):
    """The :class:`_Slabs` sweep of the one-component section on ``window``, or [].

    The section, ``values`` at (r, c) plus ``diagonal``, fills the stacks (A,
    U, L) of each slab i's blocks in block columns i, i+1 and i-1, never N x N."""
    order = _slab_order(r, c, window)
    if not order:
        return []
    stacks = np.zeros((3, -(-window.size // order), order, order), values.dtype)
    stacks[c // order - r // order, r // order, r % order, c % order] = values  # block column i - 1 is L
    stacks[0].reshape(len(stacks[0]), -1)[:, :: order + 1].flat[: window.size] += diagonal  # A's diagonals
    return _slab_sweep(*stacks, window.size) or []


def _slab_order(i, j, window):
    """Slab order w (2R + 1)^(n-1) of a section on ``window``, or 0.

    w is the largest first-coordinate distance of the links (i, j).  0 when
    the slabs would be fewer than 3 or of order under 16, where a sweep
    saves no time over one LAPACK call, in dimension 1, whose sections keep
    their LAPACK path bit for bit, and with no window.
    """
    if window is None or window.dimension == 1:
        return 0
    stride = window.size // (2 * window.radius + 1)
    slab = stride * int(np.max(np.abs(i // stride - j // stride), initial=0))
    return 0 if slab < _SLAB_MIN_ORDER or -(-window.size // slab) < 3 else slab


@np.errstate(over="ignore", invalid="ignore")  # the sweep runs on past a slab that fails its guard
def _slab_sweep(a, u, l, size):
    """Forward block-LU sweep of a section of ``size`` positions from its :func:`_slab_blocks` stacks, or None.

    None when an intermediate Schur complement S = A - P (P = L S_prev^{-1} U, 0 for the
    first slab) is exactly singular or, checked for all slabs in one pass, ``(||A||_1 +
    ||P||_1) ||S^{-1}||_1`` exceeds :data:`_SLAB_CONDITION_LIMIT`, a bound on S's
    condition number that also catches an S that A - P forms by cancellation."""
    bounds = list(range(0, size, a.shape[1])) + [size]
    inverses, solved = np.empty((2, len(a) - 1) + a.shape[1:], a.dtype)
    solved[-1] = 0.0  # a ragged last slab's U fills the left columns only
    schur, fills = [a[0]], []
    for i, step in enumerate(np.diff(bounds[1:])):
        try:
            inverses[i] = np.linalg.inv(schur[-1])
        except np.linalg.LinAlgError:
            return None
        np.matmul(inverses[i], u[i, :, :step], out=solved[i, :, :step])
        fills.append(l[i + 1, :step] @ solved[i, :, :step])
        schur.append(a[i + 1, :step, :step] - fills[-1])
    scale = _max_abs_sums(a[:-1], 0) + np.append(0.0, _max_abs_sums(fills[:-1], 0))
    if np.all(scale * _max_abs_sums(inverses, 0) <= _SLAB_CONDITION_LIMIT):
        return _Slabs(bounds, schur, inverses, solved, l)


def _max_abs_sums(blocks, axis):
    """The 1-norm (axis 0) or inf-norm (axis 1) of each matrix of a stack."""
    return np.abs(blocks).sum(axis=axis + 1).max(axis=1)


@dataclass
class _Slabs:
    """The forward sweep of :func:`_slab_sweep` on a block-tridiagonal section.

    Slab i holds positions ``bounds[i]:bounds[i+1]``; with A_i, L_i and U_i the diagonal,
    sub- and superdiagonal blocks, ``schur`` holds S_0 = A_0 and S_i = A_i - L_i S_{i-1}^{-1}
    U_{i-1}, ``inverses`` stacks every S_i^{-1} but the last, ``solved`` every S_i^{-1} U_i,
    and ``lower`` the L_i."""

    bounds: list
    schur: list
    inverses: np.ndarray
    solved: np.ndarray
    lower: np.ndarray

    def dets(self):
        """det S_i of every slab: one LAPACK call on all but the last, one on the last."""
        return np.append(np.linalg.det(np.stack(self.schur[:-1])), np.linalg.det(self.schur[-1]))

    def inverse(self):
        """``(G, dropped)``: the inverse on a band of slabs, a :class:`_Band`, and a bound on the mass off it.

        Raises LinAlgError if the last S is singular.  With K_i = L_{i+1}
        S_i^{-1} and V_i = S_i^{-1} U_i, ``Z_ij = -V_i Z_{i+1,j}`` above the
        diagonal, ``Z_ji = -Z_{j,i+1} K_i`` below it and ``Z_ii = S_i^{-1} -
        Z_{i,i+1} K_i`` (Meurant, SIAM J. Matrix Anal. Appl. 13, 1992), from
        the last slab up, so ``sum |Z_ij| <= ||V_i||_1 ... ||V_{j-1}||_1 sum
        |Z_jj|``, below the diagonal with ``||K||_inf``.  Slab i's row
        (column) strip leaves out its trailing blocks while their bound,
        times ``1 + sum_{i' < i} ||V_i'||_1 ... ||V_{i-1}||_1`` (or K's) for
        the blocks above (left of) them, is at most :data:`_SLAB_NEGLIGIBLE` of their
        diagonal block's mass, but keeps (i, i+1) and (i+1, i); ``dropped`` is twice
        the summed bounds.  O(N b^2 c) for c kept slabs."""
        b, n, count = self.bounds, self.bounds[1], len(self.schur)
        neg_v, neg_k = -self.solved, -(self.lower[1:] @ self.inverses)
        norms = (_max_abs_sums(neg_v, 0).tolist(), _max_abs_sums(neg_k, 1).tolist())
        covers = ([1.0], [1.0])  # the factor above, of slab 0, 1, ...
        for norm, cover in zip(norms, covers):
            for x in norm[:-1]:
                cover.append(1.0 + x * cover[-1])
        # bands[0][d] bounds block (i, i+1+d), bands[1][d] block (i+1+d, i), weights[j] what
        # is dropped in multiples of Z_jj's mass; slab i's row (column) strip ends at ends[0 (1)][i]
        bands, weights, ends = ([], []), [0.0] * count, np.full((2, count), b[-1])
        for i in range(count - 2, -1, -1):
            for band, norm, cover, end in zip(bands, norms, covers, ends):
                band[:] = [norm[i] * x for x in [1.0] + band]
                while len(band) > 1 and band[-1] * cover[i] <= _SLAB_NEGLIGIBLE:
                    weights[i + len(band)] += band.pop() * cover[i]
                end[i] = b[i + 1 + len(band)]
        rows, cols = (g := _Band(b, ends, self.inverses.dtype)).rows, g.cols
        rows[-1][...] = cols[-1][n:] = np.linalg.inv(self.schur[-1])
        for i, right, below in reversed(list(zip(range(count - 1), *ends.tolist()))):
            lo, hi, top, head = b[i], b[i + 1], b[i + 2], n if i else 0
            np.matmul(neg_v[i, :, : top - hi], rows[i + 1][:, : right - hi], out=rows[i][:, n:])
            cols[i + 1][:n] = rows[i][:, n : top - lo]
            np.matmul(cols[i + 1][: below - lo], neg_k[i, : top - hi], out=cols[i][head:])
            cols[i][head : head + n] += self.inverses[i]
            rows[i][:, :n] = cols[i][head : head + n]
            cols[i + 1][: top - lo] = 0.0
        cols[0][:n] = 0.0
        dropped = sum(x * float(np.abs(z[:, : len(z)]).sum()) for x, z in zip(weights, rows) if x)
        return g, 2.0 * dropped


class _Band:
    """A slab section's G on a band of slabs (see :meth:`_Slabs.inverse`), in one flat ``values``.

    Slab s's row strip ``rows[s]`` holds blocks (s, s), (s, s+1), ... up to position
    ``ends[0, s]``, its column strip ``cols[s]`` (s-1, s), (s, s), (s+1, s), ... up to
    ``ends[1, s]``, the first two zeroed copies.  ``diagonal`` are G's diagonal offsets;
    ``G[a, c]`` reads (a, c) in a's row strip or, left of it, c's column strip, and off
    the band ``values[-1]``, a zeroed copy."""

    def __init__(self, bounds, ends, dtype):
        lo, sides, heads = np.array(bounds[:-1]), np.diff(bounds), np.array([0] + bounds[:-2])
        widths = ends[0] - lo
        starts = np.append(0, np.cumsum(sides * (widths + ends[1] - heads)))
        self.values, mids = np.empty(starts[-1], dtype), starts[:-1] + sides * widths
        self.rows = [self.values[s:e].reshape(h, -1) for s, e, h in zip(starts, mids, sides)]
        self.cols = [self.values[s:e].reshape(-1, h) for s, e, h in zip(mids, starts[1:], sides)]
        self.bases = np.stack([starts[:-1] - lo * (widths + 1), mids - heads * sides - lo])
        self.order, self.strides, self.ends = bounds[1], np.stack([widths, sides]), ends
        every = np.arange(bounds[-1])
        self.diagonal = self.bases[0, every // self.order] + every * (widths[every // self.order] + 1)

    def __getitem__(self, where):
        a, c = where
        k = (c // self.order < a // self.order).astype(np.intp)
        s = np.where(k, c, a) // self.order
        inside = np.where(k, a, c) < self.ends[k, s]
        return self.values[np.where(inside, self.bases[k, s] + a * self.strides[k, s] + c, -1)]


class _Stacks:
    """A section split into components, those of each size s in a (count, s, s) stack.

    ``stacks[k][q]`` is the section on the positions ``blocks[k][q]`` of its
    :func:`_component_blocks`.  The stacks are views of one buffer,
    ``values``, so the section is never held N x N; ``G[a, b]`` reads the
    entries at the positions (a, b), 0 across components.  One component
    holds every position in order (the section LAPACK factors whole), its
    (a, b) at ``values[a N + b]`` and its ``diagonal`` the slice ``:: N + 1``
    of ``values``: it builds no position tables.  ``parts @ b`` is the
    section times a vector b."""

    def __init__(self, blocks, values):
        self.blocks, self.values, self.stacks, self.start = blocks, values, [], None
        if len(blocks) == 1 and len(blocks[0]) == 1:
            self.order = n = blocks[0].shape[1]
            self.stacks, self.diagonal = [values.reshape(1, n, n)], slice(None, None, n + 1)
            return
        # each position's component (as its offset in values), place in it and size
        self.start, self.place, self.side = np.empty((3, sum(idx.size for idx in blocks)), np.intp)
        end = 0
        for idx in blocks:
            count, s = idx.shape
            self.stacks.append(values[end : end + count * s * s].reshape(count, s, s))
            self.start[idx] = end + s * s * np.arange(count)[:, None]
            self.place[idx], self.side[idx] = np.arange(s), s
            end += count * s * s
        every = np.arange(len(self.start))
        self.diagonal = self._at(every, every)

    def _at(self, i, j):
        """Offsets in ``values`` of the entries (i, j), each pair in one component."""
        if self.start is None:
            return i * self.order + j
        return self.start[i] + self.place[i] * self.side[i] + self.place[j]

    @classmethod
    def identity_plus(cls, blocks, r, c, values, diagonal):
        """The section on ``blocks``: ``values`` at the positions (r, c) within them, plus ``diagonal``."""
        split = cls(blocks, np.zeros(sum(idx.size * idx.shape[1] for idx in blocks), values.dtype))
        split.values[split._at(r, c)] = values
        split.values[split.diagonal] += diagonal
        return split

    def dets(self):
        return np.concatenate([np.linalg.det(stack) for stack in self.stacks])

    def inverse(self):
        """``(the component inverses, 0.0)``; LinAlgError if a component is singular."""
        inverses = [np.linalg.inv(stack).ravel() for stack in self.stacks]
        return _Stacks(self.blocks, inverses[0] if len(inverses) == 1 else np.concatenate(inverses)), 0.0

    def __matmul__(self, b):
        """The section times the vector b: one batched product per stack."""
        if self.start is None:
            return self.stacks[0][0] @ b
        out = np.empty(len(self.start), np.result_type(self.values, b))
        for idx, stack in zip(self.blocks, self.stacks):
            out[idx] = (stack @ b[idx][:, :, None])[:, :, 0]
        return out

    def __getitem__(self, where):
        a, b = where
        if self.start is None:
            return self.values[self._at(a, b)]
        out = np.zeros(len(a), self.values.dtype)
        within = self.start[a] == self.start[b]
        out[within] = self.values[self._at(a[within], b[within])]
        return out


def _parity_blocks(m):
    """The even and odd blocks ``(E, O)`` of a centrosymmetric m, or None.

    With N = 2h + 1, A = m[:h, :h] and C = m[:h, h+1:] with its columns
    reversed, ``E = [[A + C, sqrt2 m[:h, h]], [sqrt2 m[h, :h], m[h, h]]]``
    and ``O = A - C``.  None when m is not centrosymmetric or its order is
    even or 1.  A first row that differs from the reversed last row rejects
    m in O(N), before rows 0..h are compared with rows N-1..h reversed.
    """
    size = m.shape[0]
    h = size // 2
    if size % 2 == 0 or h == 0 or not np.array_equal(m[0], m[-1, ::-1]):
        return None
    if not np.array_equal(m[: h + 1], m[: h - 1 : -1, ::-1]):
        return None
    a, c = m[:h, :h], m[:h, h + 1 :][:, ::-1]
    even = np.empty((h + 1, h + 1), dtype=m.dtype)
    np.add(a, c, out=even[:h, :h])
    even[:h, h] = m[:h, h] * _SQRT2
    even[h, :h] = m[h, :h] * _SQRT2
    even[h, h] = m[h, h]
    return even, a - c


def _parity_vector(u, odd):
    """Q applied to a vector u of the even block, or of the odd block if ``odd``.

    ``(u[:h] / sqrt2, u[h], u[:h] reversed / sqrt2)`` for the even block and
    ``(u / sqrt2, 0, -u reversed / sqrt2)`` for the odd one; the norm is kept.
    """
    h = len(u) if odd else len(u) - 1
    v = np.zeros(2 * h + 1, dtype=u.dtype)
    v[:h] = u[:h] / _SQRT2
    v[h + 1 :] = -v[h - 1 :: -1] if odd else v[h - 1 :: -1]
    if not odd:
        v[h] = u[h]
    return v


def _scaled_product(values):
    """Product of nonzero values, carried as mantissa and binary exponent.

    Every partial product is a product of at most 256 mantissas in
    [0.5, 1), so none over- or underflows before the final scaling.
    """
    _, exps = np.frexp(np.abs(values))
    mant = _ldexp(values, -exps)
    value, exponent = 1.0, int(np.sum(exps))
    for start in range(0, len(mant), 256):
        value = value * np.prod(mant[start : start + 256])
        _, e = np.frexp(np.abs(value))
        value = _ldexp(value, -e)
        exponent += int(e)
    return complex(_ldexp(value, exponent))


def _ldexp(x, e):
    """x * 2**e, exact on the real and imaginary parts separately."""
    if not np.iscomplexobj(x):
        return np.ldexp(x, e)
    out = np.empty(np.shape(x), dtype=np.complex128)
    out.real = np.ldexp(x.real, e)
    out.imag = np.ldexp(x.imag, e)
    return out


@np.errstate(over="ignore")  # a determinant past the float range is inf
def _section_det(parts):
    """det of the section factored as ``parts`` (see :func:`_section_parts`).

    The product of its component (or slab Schur complement) dets; one det
    is its own product.  An exactly singular component or Schur complement
    gives exactly 0.
    """
    dets = parts.dets()
    if not np.all(dets):
        return 0j  # not the signed zero a product of mantissas may give
    return complex(dets[0]) if len(dets) == 1 else _scaled_product(dets)


def _scatter(size, where, u):
    """The vector of order ``size`` that is u on the positions ``where``, 0 off them."""
    v = np.zeros(size, dtype=u.dtype)
    v[where] = u
    return v


def _singular_parts(parts):
    """The parts of the section factored as ``parts`` for its SVD, as (stack, keys, back) triples.

    The component stacks of a split section as they are, keyed by their
    first positions, a vector zero off its component; the even and odd
    blocks of a one-component section that splits, keyed 0 and 1, a vector
    mapped by :func:`_parity_vector`; else its one matrix.  ``back(row, u)``
    maps a vector u of the stack's matrix ``row`` back to the section.
    """
    if parts.start is not None:  # several components
        size = len(parts.start)
        return [(stack, idx[:, 0], lambda row, u, idx=idx: _scatter(size, idx[row], u))
                for idx, stack in zip(parts.blocks, parts.stacks)]
    m = parts.stacks[0][0]
    parity = _parity_blocks(m)
    if parity:
        return [(b[None], [odd], lambda _, u, odd=odd: _parity_vector(u, odd)) for odd, b in enumerate(parity)]
    return [(m[None], [0], lambda _, u: u)]


def _singular_summary(pieces):
    """``(minima, pick, smallest, largest)`` of the :func:`_singular_parts` ``pieces``.

    One values-only SVD per stack gives every matrix's sigma_min
    (``minima``), the index ``pick`` of the smallest, a tie going to the
    smaller key, that smallest sigma_min and the largest sigma_max.
    """
    values = [np.linalg.svd(stack, compute_uv=False) for stack, _, _ in pieces]
    minima = np.concatenate([s[:, -1] for s in values])
    pick = np.lexsort((np.concatenate([keys for _, keys, _ in pieces]), minima))[0]
    return minima, int(pick), float(minima[pick]), float(max(np.max(s[:, 0]) for s in values))


def _singular_vector(pieces, summary):
    """``(smallest, largest, v)``: one vector SVD of the matrix the :func:`_singular_summary` picks.

    v is LAPACK's last right singular vector (a row of V^H) of that matrix,
    mapped back to the section: v[::-1] = v for the even block, -v for the
    odd one.  The values are that SVD's, but the largest is the summary's
    unless the matrix is the only part.
    """
    minima, row, _, largest = summary
    for stack, _, back in pieces:
        if row < len(stack):
            break
        row -= len(stack)
    _, svals, vh = np.linalg.svd(stack[row])
    return float(svals[-1]), (float(svals[0]) if len(minima) == 1 else largest), back(row, vh[-1])
