"""Norms of rectangular matrices and the companion-block factorization.

The central quantity is the generalized absolute determinant of a
rectangular matrix: for a tall n x m matrix A (n >= m) it equals
sqrt(det(A^T A)), which by the Cauchy-Binet identity is the square root
of the sum of the squared determinants of all maximal (m x m) minors.
For square matrices it reduces to |det A|, and for wide matrices the
transposed convention sqrt(det(A A^T)) is used.

This norm measures how the matrix scales m-dimensional volume, which is
exactly the area-distortion factor of a parametrized surface patch.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularMatrix

__all__ = [
    "generalized_norm",
    "stacked_norm",
    "companion_block",
    "verify_factorization",
]

# Reciprocal condition number below which a matrix is treated as singular.
_RCOND_THRESHOLD = 1e-12


def _as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"expected a 2-d matrix, got shape {a.shape}")
    return a


def _column_norms(v) -> np.ndarray:
    """Euclidean norms along the last axis, safe from over- and underflow.

    Where a sum of squares leaves [1e-300, 1e300], the column is divided
    by its largest absolute entry first; elsewhere, and for zero, infinite
    or NaN columns, the result is bit for bit that of ``np.linalg.norm``
    when the last axis has fewer than 8 entries.
    """
    # Summed one entry at a time, in order, as numpy sums fewer than 8
    # terms; np.add.reduce over a short last axis pays a per-row cost.
    with np.errstate(over="ignore"):
        squares = v[..., 0] * v[..., 0]
        for j in range(1, v.shape[-1]):
            squares += v[..., j] * v[..., j]
    norms = np.sqrt(squares)
    if squares.size and 1e-300 <= squares.min() and squares.max() <= 1e300:
        return norms
    redo = ~((squares >= 1e-300) & (squares <= 1e300))
    cols = v[redo]
    scale = np.abs(cols).max(axis=-1)
    with np.errstate(over="ignore", invalid="ignore"):
        rescaled = scale * np.linalg.norm(cols / scale[:, None], axis=-1)
    norms[redo] = np.where(np.isfinite(scale) & (scale > 0.0), rescaled, norms[redo])
    return norms


def stacked_norm(a) -> np.ndarray:
    """Generalized norm of every matrix in a stack of shape (N, rows, cols).

    Wide matrices are handled through their transpose.  A single column
    (or row) takes its Euclidean norm, rescaled where squaring the
    entries would over- or underflow; otherwise the absolute product of
    the diagonal of a stacked QR factor gives sqrt(det(A^T A)) without
    forming the Gram matrix, whose determinant loses accuracy as the
    square of the condition number.  That product multiplies mantissas
    and adds exponents, so it over- or underflows only if the result does.
    """
    a = np.asarray(a, dtype=float)
    if a.shape[-1] > a.shape[-2]:
        a = np.swapaxes(a, -1, -2)
    if a.shape[-1] == 1:
        return _column_norms(a[..., 0])
    r = np.linalg.qr(a, mode="r")
    # Scaling by a power of two is exact: in range, the plain product.
    mantissas, exponents = np.frexp(np.diagonal(r, axis1=-2, axis2=-1))
    return np.abs(np.ldexp(np.prod(mantissas, axis=-1), np.sum(exponents, axis=-1)))


def _stacked_abs_det(a) -> np.ndarray:
    """|det| of every matrix in an (N, n, n) stack: the closed form for
    n = 2 and 3 (there the triple product of the rows), and an LU
    factorization for larger n and wherever the closed form overflows.
    A determinant that overflows comes back as inf, without a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        if a.shape[-1] not in (2, 3):
            return np.abs(np.linalg.det(a))
        if a.shape[-1] == 2:
            dets = np.abs(a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0])
        else:
            dets = np.abs(
                a[:, 0, 0] * (a[:, 1, 1] * a[:, 2, 2] - a[:, 1, 2] * a[:, 2, 1])
                + a[:, 0, 1] * (a[:, 1, 2] * a[:, 2, 0] - a[:, 1, 0] * a[:, 2, 2])
                + a[:, 0, 2] * (a[:, 1, 0] * a[:, 2, 1] - a[:, 1, 1] * a[:, 2, 0])
            )
        overflowed = ~np.isfinite(dets)
        if overflowed.any():
            dets[overflowed] = np.abs(np.linalg.det(a[overflowed]))
    return dets


def generalized_norm(a) -> float:
    """Volume-scaling norm of a rectangular matrix.

    sqrt(det(A^T A)) for a tall or square (n, m) matrix A, equal to
    |det A| in the square case, and sqrt(det(A A^T)) for a wide one;
    computed by :func:`stacked_norm` on a stack of one.  Rank-deficient
    input yields (nearly) 0.0 rather than an error.
    """
    return float(stacked_norm(_as_matrix(a)[None])[0])


def companion_block(a, m: int) -> np.ndarray:
    """First n-m rows of the inverse of a square matrix.

    For invertible A of size n x n, the returned (n-m) x n block B
    satisfies B A = (I_{n-m} | 0).  Geometrically B annihilates the last
    m columns of A and acts as the identity on the first n-m.

    Parameters
    ----------
    a : array_like
        Square invertible matrix, shape (n, n).
    m : int
        Number of trailing columns to annihilate, 1 <= m <= n-1.

    Raises
    ------
    SingularMatrix
        If the reciprocal condition number of ``a`` is below 1e-12.
    ValueError
        If ``a`` is not square or ``m`` is out of range.
    """
    a = _as_matrix(a)
    n = a.shape[0]
    if a.shape[1] != n:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not 1 <= m <= n - 1:
        raise ValueError(f"m must satisfy 1 <= m <= n-1, got m={m} for n={n}")
    cond = np.linalg.cond(a)
    if not np.isfinite(cond) or 1.0 / cond < _RCOND_THRESHOLD:
        raise SingularMatrix(
            f"reciprocal condition number {0.0 if not np.isfinite(cond) else 1.0 / cond:.3e} "
            f"below {_RCOND_THRESHOLD:.1e}"
        )
    # Solve A^T X = E for the first n-m columns E of the identity; the
    # transpose of X is the desired row block of A^{-1}.
    rhs = np.eye(n)[:, : n - m]
    return np.linalg.solve(a.T, rhs).T


def verify_factorization(a, m: int) -> tuple[float, float]:
    """Evaluate both sides of the companion-block norm identity.

    For invertible A, the norm of its last m columns factors as the
    absolute determinant of A times the norm of the companion block:
    |A'| = |det A| * |B|.  This function returns the two sides so callers
    can compare them at whatever tolerance the context demands.

    Returns
    -------
    (lhs, rhs) : tuple of float
        lhs is the generalized norm of the last m columns of ``a``;
        rhs is generalized_norm(a) * generalized_norm(companion_block(a, m)).
    """
    a = _as_matrix(a)
    b = companion_block(a, m)
    lhs = generalized_norm(a[:, a.shape[0] - m :])
    rhs = generalized_norm(a) * generalized_norm(b)
    return lhs, rhs
