"""Dense kernels on finite sections: determinant, inverse and singular values.

A section is the direct sum of the connected components of its nonzero
pattern, so det, inverse and SVD are computed per component, with one LAPACK
call per component size on the stacked blocks.

A section that is one component splits further when it is centrosymmetric,
``m == m[::-1, ::-1]``, and of odd order N = 2h + 1, as every window is.
Window positions are lexicographic, so the reflection k -> -k reverses them,
and the section of an operator that commutes with it is centrosymmetric: a
Hill section I + B is whenever the potential is even, g_-l = g_l (every
cosine potential, real or complex).  The orthogonal Q whose columns are
(e_i + e_{N-1-i}) / sqrt 2 for i < h, e_h, and (e_i - e_{N-1-i}) / sqrt 2
for i < h gives ``Q^T m Q = diag(E, O)`` (Cantoni & Butler, Linear Algebra
Appl. 13, 1976), with the even block E of order h + 1 and the odd block O
of order h (see :func:`_parity_blocks`).  Factoring the two blocks takes
about a quarter of the flops of the LU or SVD of m.  Any other section goes
to LAPACK as it is, after its first row is compared with its reversed last
row, in O(N), and, only if they agree, its top half with its bottom half.
"""

from __future__ import annotations

import math

import numpy as np

_SQRT2 = math.sqrt(2.0)


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


def _section_blocks(m, links=None):
    """The parts of m the kernels factor: its components or parity blocks.

    Components are those of m's nonzero pattern; ``links`` may give the
    positions (i, j) of m's off-diagonal nonzeros instead of a scan of m.
    When m has several components, a list of (count, s) index arrays, one
    per size s; each row holds one component's positions in ascending
    order, and rows are ordered by their first position.  When m is one
    component, its :func:`_parity_blocks` ``(E, O)`` as a tuple, or an
    empty list if it does not split.
    """
    i, j = np.nonzero(m) if links is None else links
    labels = _component_labels(m.shape[0], i, j)
    order = np.argsort(labels, kind="stable")
    starts = np.flatnonzero(np.diff(labels[order], prepend=-1))
    if len(starts) == 1:
        return _parity_blocks(m) or []
    sizes = np.diff(starts, append=len(labels))
    return [
        order[starts[sizes == s][:, None] + np.arange(s)] for s in np.unique(sizes)
    ]


def _block_index(idx):
    """Index of the stacked (count, s, s) blocks on the (count, s) positions."""
    return idx[:, :, None], idx[:, None, :]


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


def _parity_inverse(even_inv, odd_inv):
    """m^{-1} of a centrosymmetric m, from the inverses of its parity blocks.

    ``m^{-1} = Q diag(E^{-1}, O^{-1}) Q^T``: with P the leading h x h block
    of E^{-1} and R = O^{-1}, its corner blocks are (P + R) / 2 and
    (P - R) / 2 with columns reversed, and its middle row and column are
    those of E^{-1} scaled by 1/sqrt 2.  The inverse is centrosymmetric, so
    its last h rows are the first h reversed.
    """
    h = odd_inv.shape[0]
    p = even_inv[:h, :h]
    inv = np.empty((2 * h + 1, 2 * h + 1), dtype=even_inv.dtype)
    inv[:h, :h] = 0.5 * (p + odd_inv)
    inv[:h, h + 1 :] = (0.5 * (p - odd_inv))[:, ::-1]
    inv[:h, h] = even_inv[:h, h] / _SQRT2
    inv[h, :h] = even_inv[h, :h] / _SQRT2
    inv[h, h + 1 :] = inv[h, h - 1 :: -1]
    inv[h, h] = even_inv[h, h]
    inv[h + 1 :] = inv[h - 1 :: -1, ::-1]
    return inv


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


def _section_det(m, blocks=None):
    """det(m), the product of its component (or parity block) determinants.

    An exactly singular component or block gives exactly 0.  ``blocks`` may
    pass the :func:`_section_blocks` of m when the caller already has them.
    """
    blocks = _section_blocks(m) if blocks is None else blocks
    if isinstance(blocks, tuple):
        dets = np.array([np.linalg.det(b) for b in blocks])
    elif blocks:
        dets = np.concatenate([np.linalg.det(m[_block_index(idx)]) for idx in blocks])
    else:
        return complex(np.linalg.det(m))
    if not np.all(dets):
        return 0j  # not the signed zero a product of mantissas may give
    return _scaled_product(dets)


def _section_inv(m, blocks=None):
    """m^{-1}, assembled from the component (or parity block) inverses.

    Raises LinAlgError if a component or block is singular.  ``blocks`` as
    for :func:`_section_det`.
    """
    blocks = _section_blocks(m) if blocks is None else blocks
    if isinstance(blocks, tuple):
        return _parity_inverse(*(np.linalg.inv(b) for b in blocks))
    if not blocks:
        return np.linalg.inv(m)
    inv = np.zeros_like(m)
    for idx in blocks:
        inv[_block_index(idx)] = np.linalg.inv(m[_block_index(idx)])
    return inv


def _section_singular_values(m, links=None):
    """Smallest and largest singular value of m, without singular vectors.

    Returns ``(smallest, largest, where)``; ``where`` says which part of m
    holds the smallest value:

    * the ascending window positions of the component with the smallest
      sigma_min when m has several; among tied components, the one whose
      first position comes first;
    * ``(block, odd)`` when m is one component that splits into parity
      blocks: the even block, or the odd one if ``odd``.  On a tie the even
      block holds it;
    * None otherwise: m itself.

    ``links`` are passed on to :func:`_section_blocks`.
    """
    blocks = _section_blocks(m, links)
    if isinstance(blocks, tuple):
        even, odd = (np.linalg.svd(b, compute_uv=False) for b in blocks)
        odd_wins = bool(odd[-1] < even[-1])  # a tie goes to the even block
        smallest = odd[-1] if odd_wins else even[-1]
        return float(smallest), float(max(even[0], odd[0])), (blocks[odd_wins], odd_wins)
    if not blocks:
        svals = np.linalg.svd(m, compute_uv=False)
        return float(svals[-1]), float(svals[0]), None
    firsts, smallest, largest, components = [], [], [], []
    for idx in blocks:
        svals = np.linalg.svd(m[_block_index(idx)], compute_uv=False)
        firsts.append(idx[:, 0])
        smallest.append(svals[:, -1])
        largest.append(svals[:, 0])
        components.extend(idx)
    firsts, smallest = np.concatenate(firsts), np.concatenate(smallest)
    pick = np.lexsort((firsts, smallest))[0]
    largest = float(np.max(np.concatenate(largest)))
    return float(smallest[pick]), largest, components[pick]


def _section_min_singular(m, values=None):
    """Smallest and largest singular value of m and a vector v for the smallest.

    v is LAPACK's last right singular vector (a row of V^H) of the part of m
    that holds the smallest sigma_min (see :func:`_section_singular_values`
    for which part, and its tie rules): of a component, zero elsewhere, or
    of a parity block, mapped back by :func:`_parity_vector`, so that
    v[::-1] = v for the even block and -v for the odd one.  Only that part's
    vectors are computed, from the :func:`_section_singular_values` of m
    (``values``, when the caller already has them); the smallest value is
    the one of that SVD.
    """
    _, largest, where = _section_singular_values(m) if values is None else values
    if where is None:
        _, svals, vh = np.linalg.svd(m)
        return float(svals[-1]), float(svals[0]), vh[-1]
    if isinstance(where, tuple):
        block, odd = where
        _, svals, vh = np.linalg.svd(block)
        return float(svals[-1]), largest, _parity_vector(vh[-1], odd)
    _, svals, vh = np.linalg.svd(m[np.ix_(where, where)])
    v = np.zeros(m.shape[0], dtype=vh.dtype)
    v[where] = vh[-1]
    return float(svals[-1]), largest, v
