"""Dense kernels on finite sections: determinant, inverse and singular values.

A section is the direct sum of the connected components of its nonzero
pattern, so det, inverse and SVD are computed per component, with one LAPACK
call per component size on the stacked blocks (:class:`_Stacks`).  A ladder
rung labels its components from its entries' positions and fills the stacks
straight from the entries, so a split rung never holds an N x N array.

A one-component section in dimension n >= 2 is factored slab by slab when
the caller passes its window.  A section whose entries move k_1 by at most
w is block tridiagonal over slabs of w consecutive k_1 values,
b = w (2R + 1)^(n-1) consecutive positions each, as every Hill section of a
trigonometric potential is.  With at least 3 slabs of order b >= 16 (see
:func:`_slab_order`), one forward block-LU sweep (Demmel, Higham &
Schreiber, Numer. Linear Algebra Appl. 2, 1995) forms the Schur complements
S_i of the slabs: det m is the product of the det S_i, and the dense
inverse follows from the same sweep in O(N^2 b) against LAPACK's O(N^3)
(see :meth:`_Slabs.inverse`).  The sweep stops when an intermediate S_i is
singular or ill conditioned on the scale of the terms it is formed from
(see :func:`_slab_sweep`).  A singular last S_i gives det 0 exactly, as a
singular component does.  Any other one-component section, and one whose
sweep stopped, goes to LAPACK as it is.

Singular values never use slabs, which give none.  A one-component section
that is centrosymmetric, ``m == m[::-1, ::-1]``, and of odd order
N = 2h + 1, as every window is, splits for its SVD instead.  Window
positions are lexicographic, so the reflection k -> -k reverses them, and
the section of an operator that commutes with it is centrosymmetric: a Hill
section I + B is whenever the potential is even, g_-l = g_l (every cosine
potential, real or complex).  The orthogonal Q whose columns are
(e_i + e_{N-1-i}) / sqrt 2 for i < h, e_h, and (e_i - e_{N-1-i}) / sqrt 2
for i < h gives ``Q^T m Q = diag(E, O)`` (Cantoni & Butler, Linear Algebra
Appl. 13, 1976), with the even block E of order h + 1 and the odd block O
of order h (see :func:`_parity_blocks`), whose SVDs take about a quarter of
the flops of the SVD of m and give a vector of one parity.
:func:`_section_min_singular` takes one values-only SVD per stack of its
parts (the component stacks, the parity blocks or the section itself),
then one vector SVD of the matrix with the smallest sigma_min.
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


def _section_blocks(m, links=None, window=None):
    """The parts of m the det and inverse kernels factor: components or slabs.

    Components are those of m's nonzero pattern; ``links`` may give the
    positions (i, j) of m's off-diagonal nonzeros instead of a scan of m.
    When m has several components, the :class:`_Stacks` of m on its
    :func:`_component_blocks`.  When m is one component, the
    :class:`_Slabs` sweep of m if ``window`` (the window m is the section
    on) makes it a slab section and the sweep passes its guard; else an
    empty list, and LAPACK takes m as it is.
    """
    i, j = np.nonzero(m) if links is None else links
    blocks = _component_blocks(m.shape[0], i, j)
    if blocks:
        stacks = [m[idx[:, :, None], idx[:, None, :]].ravel() for idx in blocks]
        return _Stacks(blocks, np.concatenate(stacks))
    return _slab_blocks(m, i, j, window)


def _slab_blocks(m, i, j, window):
    """The :class:`_Slabs` sweep of a one-component m with links (i, j) on ``window``, or []."""
    slab = 0 if window is None else _slab_order(i, j, window)
    return (slab and _slab_sweep(m, slab)) or []


def _slab_order(i, j, window):
    """Slab order w (2R + 1)^(n-1) of a section on ``window``, or 0.

    w is the largest first-coordinate distance of the links (i, j).  0 when
    the slabs would be fewer than 3 or of order under 16, where a sweep
    saves no time over one LAPACK call, and in dimension 1, whose sections
    keep their LAPACK path bit for bit.
    """
    if window.dimension == 1:
        return 0
    side = 2 * window.radius + 1
    stride = window.size // side
    reach = int(np.max(np.abs(i // stride - j // stride), initial=0))
    slab = reach * stride
    if slab < _SLAB_MIN_ORDER or -(-window.size // slab) < 3:
        return 0
    return slab


def _slab_sweep(m, order):
    """Forward block-LU sweep of m over slabs of ``order`` positions, or None.

    m must be block tridiagonal over the slabs.  None when an intermediate
    Schur complement S = A - P (P = L S_prev^{-1} U, 0 for the first slab)
    is exactly singular or ``(||A||_1 + ||P||_1) ||S^{-1}||_1`` exceeds
    :data:`_SLAB_CONDITION_LIMIT`.  That factor is at least S's condition
    number ``||S||_1 ||S^{-1}||_1`` and also catches an S that A - P forms
    by cancellation.
    """
    size = m.shape[0]
    bounds = list(range(0, size, order)) + [size]
    schur, inverses, solved = [m[: bounds[1], : bounds[1]]], [], []
    scale = np.linalg.norm(schur[0], 1)
    for lo, hi, top in zip(bounds, bounds[1:], bounds[2:]):
        try:
            inv = np.linalg.inv(schur[-1])
        except np.linalg.LinAlgError:
            return None
        if not scale * np.linalg.norm(inv, 1) <= _SLAB_CONDITION_LIMIT:
            return None
        inverses.append(inv)
        solved.append(inv @ m[lo:hi, hi:top])
        diag, fill = m[hi:top, hi:top], m[hi:top, lo:hi] @ solved[-1]
        schur.append(diag - fill)
        scale = np.linalg.norm(diag, 1) + np.linalg.norm(fill, 1)
    return _Slabs(bounds, schur, inverses, solved)


@dataclass
class _Slabs:
    """The forward sweep of :func:`_slab_sweep` on a block-tridiagonal m.

    Slab i holds positions ``bounds[i]:bounds[i+1]``; with A_i, L_i and U_i
    the diagonal, sub- and superdiagonal blocks of m, ``schur`` holds
    S_0 = A_0 and S_i = A_i - L_i S_{i-1}^{-1} U_{i-1}, ``inverses`` every
    S_i^{-1} but the last, and ``solved`` every S_i^{-1} U_i.
    """

    bounds: list
    schur: list
    inverses: list
    solved: list

    def dets(self):
        """det S_i of every slab, one LAPACK call per slab order."""
        ragged = self.schur[-1].shape != self.schur[0].shape
        dets = np.linalg.det(np.stack(self.schur[:-1] if ragged else self.schur))
        return np.append(dets, np.linalg.det(self.schur[-1])) if ragged else dets

    def inverse(self, m):
        """m^{-1}, block by block from the last slab up.

        Raises LinAlgError if the last S is singular.  With
        K_{i+1} = L_{i+1} S_i^{-1} and V_i = S_i^{-1} U_i,
        ``Z_ij = -V_i Z_{i+1,j}`` above the diagonal, ``Z_ji = -Z_{j,i+1}
        K_{i+1}`` below it and ``Z_ii = S_i^{-1} - Z_{i,i+1} K_{i+1}``
        (Meurant, SIAM J. Matrix Anal. Appl. 13, 1992): two GEMMs per slab,
        O(N^2 b) in all for slabs of order b.
        """
        b = self.bounds
        z = np.empty_like(m)
        z[b[-2] :, b[-2] :] = np.linalg.inv(self.schur[-1])
        for i in range(len(self.schur) - 2, -1, -1):
            lo, hi, top = b[i], b[i + 1], b[i + 2]
            np.matmul(-self.solved[i], z[hi:top, hi:], out=z[lo:hi, hi:])
            k = m[hi:top, lo:hi] @ self.inverses[i]
            np.matmul(z[lo:, hi:top], -k, out=z[lo:, lo:hi])
            z[lo:hi, lo:hi] += self.inverses[i]
        return z


class _Stacks:
    """A section split into components, those of each size s in a (count, s, s) stack.

    ``stacks[k][q]`` is the section on the positions ``blocks[k][q]`` of its
    :func:`_component_blocks`.  The stacks are views of one buffer,
    ``values``, so the section is never held N x N; ``G[a, b]`` reads the
    entries at the positions (a, b), 0 across components.
    """

    def __init__(self, blocks, values):
        self.blocks, self.values, self.stacks = blocks, values, []
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
        return self.start[i] + self.place[i] * self.side[i] + self.place[j]

    @classmethod
    def identity_plus(cls, blocks, r, c, vals):
        """I + F on ``blocks``, F's values ``vals`` at the positions (r, c) within them."""
        split = cls(blocks, np.zeros(sum(idx.size * idx.shape[1] for idx in blocks), vals.dtype))
        split.values[split._at(r, c)] = vals
        split.values[split.diagonal] += 1.0
        return split

    def dets(self):
        return np.concatenate([np.linalg.det(stack) for stack in self.stacks])

    def inverse(self, m=None):
        """The component inverses (m, as :meth:`_Slabs.inverse` takes it, is not
        read); LinAlgError if a component is singular."""
        return _Stacks(self.blocks, np.concatenate([np.linalg.inv(t).ravel() for t in self.stacks]))

    def __getitem__(self, where):
        a, b = where
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
def _section_det(m, blocks=None):
    """det(m), the product of its component (or slab Schur complement) dets.

    An exactly singular component or Schur complement gives exactly 0.
    ``blocks`` may pass the :func:`_section_blocks` of m when the caller
    already has them; m is not read when they are :class:`_Stacks`.
    """
    blocks = _section_blocks(m) if blocks is None else blocks
    if not blocks:
        return complex(np.linalg.det(m))
    dets = blocks.dets()
    if not np.all(dets):
        return 0j  # not the signed zero a product of mantissas may give
    return _scaled_product(dets)


def _section_inv(m, blocks=None):
    """m^{-1} by the slab sweep or LAPACK, or the :class:`_Stacks` of its component inverses.

    Raises LinAlgError if m, a component or the last Schur complement is
    singular.  ``blocks`` are m's :func:`_section_blocks`; without them
    (None or []) LAPACK inverts m as it is.
    """
    return blocks.inverse(m) if blocks else np.linalg.inv(m)


def _scatter(size, where, u):
    """The vector of order ``size`` that is u on the positions ``where``, 0 off them."""
    v = np.zeros(size, dtype=u.dtype)
    v[where] = u
    return v


def _singular_parts(m, links):
    """The parts of m for its SVD, as (stack, keys, back) triples.

    See :func:`_section_min_singular`: the component stacks, the parity
    blocks or m itself; ``back(row, u)`` maps a vector u of the stack's
    matrix ``row`` back to m.
    """
    blocks = _section_blocks(m, links) or _parity_blocks(m) or []
    if isinstance(blocks, tuple):
        return [(b[None], [odd], lambda _, u, odd=odd: _parity_vector(u, odd))
                for odd, b in enumerate(blocks)]
    if blocks:
        return [(stack, idx[:, 0], lambda row, u, idx=idx: _scatter(m.shape[0], idx[row], u))
                for idx, stack in zip(blocks.blocks, blocks.stacks)]
    return [(m[None], [0], lambda _, u: u)]


def _section_min_singular(m, links=None, wanted=None, memo=None):
    """Smallest and largest singular value of m and a vector v for the smallest.

    m's parts are one list of stacks, each matrix with a key and each stack
    with its rule mapping a vector of one of its matrices back to m: the
    component stacks when m has several components (one per size, keys the
    first positions, v zero off the component); the even and odd blocks,
    keyed 0 and 1, when m is one component that splits (v mapped by
    :func:`_parity_vector`: v[::-1] = v for the even block, -v for the odd);
    else m itself.  One values-only SVD per stack gives the smallest
    sigma_min, a tie going to the smaller key, and the largest sigma_max.
    v is computed only if ``wanted(smallest, largest)`` holds (or ``wanted``
    is None), and is None otherwise: LAPACK's last right singular vector (a
    row of V^H) of the winning matrix, whose vector SVD gives the smallest
    value returned, and the largest too when m is the only part.  ``links``
    are as for :func:`_section_blocks`.

    ``memo(key, compute)``, when given, is the caller's store for this m: it
    returns ``compute()`` as kept from the first call for ``key``.  It keeps
    the values-only summary (each part's sigma_min, the pick, the smallest
    and largest values) and, once wanted, the vector with its SVD's values,
    so a repeat runs no SVD.  m may then be a function giving
    ``(m, links)``, called at most once and only for what is not kept yet.
    """
    if memo is None:
        def memo(_, compute):
            return compute()
    section = m if callable(m) else lambda: (m, links)
    found = []

    def parts():
        if not found:
            found.append(_singular_parts(*section()))
        return found[0]

    def summary():
        values = [np.linalg.svd(stack, compute_uv=False) for stack, _, _ in parts()]
        minima = np.concatenate([s[:, -1] for s in values])
        pick = np.lexsort((np.concatenate([keys for _, keys, _ in parts()]), minima))[0]
        return minima, int(pick), float(minima[pick]), float(max(np.max(s[:, 0]) for s in values))

    minima, pick, smallest, largest = memo("singular values", summary)
    if wanted is not None and not wanted(smallest, largest):
        return smallest, largest, None

    def vector():
        row = pick
        for stack, _, back in parts():
            if row < len(stack):
                break
            row -= len(stack)
        _, svals, vh = np.linalg.svd(stack[row])
        return float(svals[-1]), (float(svals[0]) if len(minima) == 1 else largest), back(row, vh[-1])

    return memo("singular vector", vector)
