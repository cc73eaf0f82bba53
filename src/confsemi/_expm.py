"""The matrix exponential of a stack of matrices, in one batched pass.

expm(a) returns exp of every n x n slice of a real or complex (..., n, n)
array by the scaling and squaring of Higham (SIAM J. Matrix Anal. Appl. 26,
2005) with the refinements of Al-Mohy and Higham (SIAM J. Matrix Anal.
Appl. 31, 2009, Algorithm 6.1): a Pade degree m in {3, 5, 7, 9, 13} chosen
from the exact 1-norms of the powers A^4, A^6 and A^8 the evaluation forms
(||A^10|| is bounded by ||A^4|| ||A^6||), ell(A, m) guarding against
nonnormality, and for degree 13 the fewest squarings s those norms allow.
Every slice advances at once, through batched numpy operations: stacked
matrix products, one np.linalg.solve over the stack, and squarings by
level, from max(s) - 1 down to 0, where level i squares the slices with
s > i in their stack order (the whole stack while every slice does).
Each slice's degree and s depend on that slice alone, so a slice of a
stack gets the bits it would get alone, wherever it sits in the stack.
Before each squaring, entries below both 2^-511 and 2^-80 of their slice's
largest are set to zero, which keeps the products of the squarings out of
the slow subnormal range where an exponential decays away from a band.

Structure is kept as in scipy.linalg.expm: a diagonal slice is exp of its
diagonal, and a triangular slice keeps exact zeros outside its triangle,
its diagonal and first off-diagonal recomputed in closed form after the
Pade step and after each squaring (Al-Mohy and Higham 2009, Code Fragment
2.1); a lower-triangular slice is taken as its transpose.  A slice with a
non-finite entry comes back all nan unless it is diagonal.  Nothing is
warned of: a slice whose exponential leaves double range comes back
non-finite.
"""

from __future__ import annotations

import functools

import numpy as np

# coefficients b_0 ... b_m of the diagonal Pade approximant r_m
# (Higham 2005, eq. (2.3) and the degree-13 list after it)
_PADE = {
    3: (120., 60., 12., 1.),
    5: (30240., 15120., 3360., 420., 30., 1.),
    7: (17297280., 8648640., 1995840., 277200., 25200., 1512., 56., 1.),
    9: (17643225600., 8821612800., 2075673600., 302702400., 30270240.,
        2162160., 110880., 3960., 90., 1.),
    13: (64764752532480000., 32382376266240000., 7771770303897600.,
         1187353796428800., 129060195264000., 10559470521600.,
         670442572800., 33522128640., 1323241920., 40840800., 960960.,
         16380., 182., 1.),
}
_DEGREES = np.array([3, 5, 7, 9, 13])
# theta_m of Al-Mohy and Higham 2009, Table 3.1, for m = 3, 5, 7, 9, and
# the theta_13 = 4.25 to which scipy.linalg.expm (the same algorithm) scales
_THETA = np.array([1.495585217958292e-2, 2.539398330063230e-1,
                   9.504178996162932e-1, 2.097847961257068e0, 4.25])
# log2(|c_2m+1| / u), u = 2^-53 and c_2m+1 = (m!)^2 / ((2m)! (2m + 1)!):
# ell(A, m) = max(ceil(log2(|c_2m+1| || |A|^(2m+1) ||_1 / (u ||A||_1))
# / 2m), 0)
_LOG2_C = np.log2([1 / 100800., 1 / 10059033600., 1 / 4487938430976000.,
                   1 / 5914384781877411840000.,
                   1 / 113250775606021113483283660800000000.]) + 53.0
# the even powers B^2 ... B^8 of the Pade evaluation, and the powers A^4,
# A^6, A^8 and A whose 1-norms are read
_EVEN = np.array([2, 4, 6, 8])
_POWERS = np.array([4.0, 6.0, 8.0, 1.0])
# rows U and V of r_m for each degree: weights of I, B^2, B^4, B^6, B^8
# in U / B and in V; degree 13 adds B^6 times _INNER13 @ (B^2, B^4, B^6)
_COEF = np.array([[_PADE[m][1:10:2] + (0.0,) * (5 - len(_PADE[m][1:10:2])),
                   _PADE[m][0:10:2] + (0.0,) * (5 - len(_PADE[m][0:10:2]))]
                  for m in (3, 5, 7, 9)] + [[_PADE[13][1:8:2] + (0.0,),
                                             _PADE[13][0:7:2] + (0.0,)]])
_INNER13 = np.array([_PADE[13][9::2], _PADE[13][8::2]])
# elements of one power stack worked on at a time; a larger stack goes in
# chunks (a slice's bits do not depend on the chunk it lands in)
_CHUNK = 1 << 18
# up to this order the ell norms come from squarings of |A| rather than
# from a walk of 26 vector products; measured on stacks of 1, 8 and 100
# slices (one BLAS thread), the squarings took less time up to n = 24 and
# about as long at n = 32, and the walk less from n = 48 at 8 and 100
_SQUARE_NU = 32


@functools.lru_cache(maxsize=None)
def _layout(n: int) -> tuple:
    """Masks of the strict upper and lower triangles of an n x n matrix and
    the flat positions of its diagonal and first superdiagonal."""
    upper = np.triu(np.ones((n, n), bool), 1)
    flat = np.concatenate((np.arange(n) * (n + 1),
                           np.arange(n - 1) * (n + 1) + 1))
    return upper, upper.T.copy(), flat


def expm(a) -> np.ndarray:
    """exp of each n x n slice of a real or complex (..., n, n) array.

    Real input gives float64 and complex input complex128, of a's shape.
    """
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expm needs (..., n, n) input, got {a.shape}")
    shape, n = a.shape, a.shape[-1]
    a = a.reshape(-1, n, n).astype(
        complex if np.iscomplexobj(a) else float, copy=False)
    strict_upper, strict_lower, _ = _layout(n)
    nonzero = a != 0.0
    upper = ~(nonzero & strict_lower).any(axis=(1, 2))
    lower = ~(nonzero & strict_upper).any(axis=(1, 2))
    diagonal = upper & lower
    step = max(1, _CHUNK // (n * n))
    with np.errstate(all="ignore"):
        out = np.empty_like(a)
        if diagonal.any():
            out[diagonal] = 0.0
            np.einsum("kii->ki", out)[diagonal] = np.exp(
                np.diagonal(a[diagonal], axis1=1, axis2=2))
        rest = np.flatnonzero(~diagonal)
        for lo in range(0, len(rest), step):
            chunk = rest[lo:lo + step]
            out[chunk] = _scale_and_square(a[chunk], upper[chunk],
                                           lower[chunk])
    return out.reshape(shape)


def _scale_and_square(a: np.ndarray, upper: np.ndarray,
                      lower: np.ndarray) -> np.ndarray:
    """exp of each slice of a (k, n, n) stack with no diagonal slice."""
    k, n, _ = a.shape
    flip = lower.any()
    if flip:
        a = np.where(lower[:, None, None], a.swapaxes(1, 2), a)
    finite = np.isfinite(a).all(axis=(1, 2))
    all_finite = finite.all()
    if not all_finite:
        a = np.where(finite[:, None, None], a, 0.0)

    # I, A^2, A^4, A^6, A^8 and A, and the exact 1-norms of the last four
    powers = np.empty((k, 6, n, n), a.dtype)
    powers[:, 0] = np.eye(n)
    powers[:, 5] = a
    np.matmul(a, a, out=powers[:, 1])
    np.matmul(powers[:, 1], powers[:, 1], out=powers[:, 2])
    np.matmul(powers[:, 2], powers[:, 1], out=powers[:, 3])
    np.matmul(powers[:, 2], powers[:, 2], out=powers[:, 4])
    norms = np.einsum("kpij->kpj", np.abs(powers[:, 2:])).max(axis=2)
    d = norms ** (1.0 / _POWERS)
    norm = norms[:, 3]
    # eta for m = 3, 5 (d4, d6), 7, 9 (d6, d8) and 13: the smaller of that
    # and max(d8, d10), d10 bounded by ||A^4 A^6|| <= ||A^4|| ||A^6||, so
    # no A^10 is formed; no d_p exceeds ||A||_1, which stays finite where
    # a power overflows
    eta = np.maximum(d[:, [0, 0, 1, 1]], d[:, [1, 1, 2, 2]])
    d10 = (norms[:, 0] * norms[:, 1]) ** 0.1
    eta = np.column_stack((eta, np.minimum(np.minimum(
        eta[:, 3], np.maximum(d[:, 2], d10)), norm)))
    # ell(A, m) before its ceiling, and for m = 13 before 2^-s scales A
    unit = np.abs(a) / np.where(norm > 0.0, norm, 1.0)[:, None, None]
    ell = ((_LOG2_C + _log2_nu(unit)) / (2 * _DEGREES)
           + np.log2(norm)[:, None])

    # the lowest degree whose eta and ell both allow it, else 13
    ok = (eta[:, :4] <= _THETA[:4]) & (ell[:, :4] <= 0.0)
    pick = np.where(ok.any(axis=1), ok.argmax(axis=1), 4)
    high = pick == 4
    s = np.maximum(np.ceil(np.log2(eta[:, 4] / _THETA[4])), 0.0)
    s += np.maximum(np.ceil(ell[:, 4] - s), 0.0)
    s = np.where(high, s, 0.0).astype(int)

    # B = A / 2^s and its even powers, each scaled exactly by a power of 2;
    # where that would overflow or underflow they are formed from B anew
    if high.any():
        powers[:, 1:5] *= np.ldexp(1.0, -np.outer(s, _EVEN))[:, :, None, None]
        powers[:, 5] *= np.ldexp(1.0, -s)[:, None, None]
    if s.max() > 120 or not np.isfinite(norms).all():
        redo = np.flatnonzero((s > 120) | ~np.isfinite(norms).all(1))
        b = powers[redo, 5]
        powers[redo, 1] = b2 = b @ b
        powers[redo, 2] = b4 = b2 @ b2
        powers[redo, 3] = b4 @ b2
        powers[redo, 4] = b4 @ b4

    # U = B (odd part) and V (even part) of r_m, then r_m = (V - U) \ (V + U)
    uv = (_COEF[pick] @ powers[:, :5].reshape(k, 5, n * n)).reshape(
        k, 2, n, n)
    h = slice(None) if high.all() else np.flatnonzero(high)
    if high.any():
        inner = _INNER13 @ powers[h, 1:4].reshape(-1, 3, n * n)
        uv[h] += powers[h, 3:4] @ inner.reshape(-1, 2, n, n)
    u, v = powers[:, 5] @ uv[:, 0], uv[:, 1]
    x = np.linalg.solve(v - u, v + u)

    # at level i (from max(s) - 1 down to 0) the slices with s > i square,
    # in stack order: the whole stack as a view while every slice squares,
    # else those slices by index; t are the triangular slices, whose
    # diagonal and superdiagonal are rewritten wherever they squared
    t = np.flatnonzero(upper | lower)
    if len(t):
        _, strict_lower, where = _layout(n)
        x[t] = np.where(strict_lower, 0.0, x[t])
        fragment = _fragment(a[t], s.max())
        x.reshape(k, n * n)[t[:, None], where] = fragment[np.arange(len(t)),
                                                          s[t]]
    for i in range(s.max() - 1, -1, -1):
        squares = s > i
        whole = squares.all()
        # entries below 2^-511 and below 2^-80 of the slice's largest are
        # set to zero: products of the rest stay out of the subnormal range,
        # whose arithmetic is many times slower, and no slice moves by more
        # than n 2^-80 of its 1-norm, far under the squaring's own rounding
        y = x if whole else x[squares]
        mag = np.abs(y)
        np.putmask(y, mag < np.minimum(2.0 ** -511, 2.0 ** -80 * mag.max(
            axis=(1, 2)))[:, None, None], 0.0)
        if whole:
            x = y @ y
        else:
            x[squares] = y @ y
        if len(t):
            x.reshape(k, n * n)[t[squares[t], None], where] = fragment[
                squares[t], i]
    if not all_finite:
        x[~finite] = np.nan
    return np.where(lower[:, None, None], x.swapaxes(1, 2), x) if flip else x


def _log2_nu(unit: np.ndarray) -> np.ndarray:
    """log2 ||unit^p||_1 for p = 7, 11, 15, 19, 27, as a (k, 5) array, for a
    nonnegative (k, n, n) stack, from the row vectors 1^T unit^p."""
    w = np.einsum("kij->kj", unit)[:, None, :]
    if unit.shape[1] <= _SQUARE_NU:
        u2 = unit @ unit
        u4 = u2 @ u2
        u8 = u4 @ u4
        w3 = w @ u2
        w7 = w3 @ u4
        w11_15 = np.concatenate((w3, w7), axis=1) @ u8
        w19 = w11_15[:, :1] @ u8
        rows = np.concatenate((w7, w11_15, w19, w19 @ u8), axis=1)
    else:
        rows = []
        for p in range(2, 28):
            w = w @ unit
            if p in (7, 11, 15, 19, 27):
                rows.append(w)
        rows = np.concatenate(rows, axis=1)
    return np.log2(rows.max(axis=2))


def _fragment(tri: np.ndarray, top: int) -> np.ndarray:
    """The diagonals and first superdiagonals, side by side, of
    exp(2^-j T) for j = 0 ... top: a (k, top + 1, 2n - 1) array for a
    (k, n, n) stack of upper-triangular T.

    The superdiagonal entry of exp of [[l1, t], [0, l2]] is
    t (exp(l1) - exp(l2)) / (l1 - l2) (Higham, Functions of Matrices,
    (10.42)), taken as t exp(h) expm1(l - h) / (l - h), h the one of l1 and
    l2 with the larger real part and l the other: nothing cancels, and
    nothing overflows before exp(h) does.
    """
    levels = np.ldexp(1.0, -np.arange(top + 1))[:, None]
    lam = np.diagonal(tri, axis1=1, axis2=2)[:, None, :] * levels
    sup = np.diagonal(tri, 1, axis1=1, axis2=2)[:, None, :] * levels
    h = np.maximum(lam[..., :-1], lam[..., 1:])
    gap = np.minimum(lam[..., :-1], lam[..., 1:]) - h
    slope = np.where(gap == 0.0, 1.0, np.expm1(gap) / gap)
    return np.concatenate((np.exp(lam), sup * np.exp(h) * slope), axis=2)
