"""Dense symmetric-matrix numerics used by every other module.

All routines work on plain float ndarrays: a symmetric matrix is an (n, n)
array, an orthonormal basis is an (L, k) array whose columns are the basis
vectors.  Only this module decides the rank rule (``nonzero``: a spectrum
entry counts when it exceeds RANK_TOL times the largest), how a range basis
is factorized (``range_basis``: the thin SVD cut by that rule) and the sign
convention (``fix_signs``: first nonzero component positive).  ``sym_eig``
reports eigenvalues ascending, ``range_basis`` singular values descending,
both sign-fixed, so downstream constructions are reproducible bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# Relative rank threshold shared by every rank-revealing operation.
RANK_TOL = 1e-10

# Tolerances for the structural invariants of the two array "types".
SYMMETRY_TOL = 1e-12
ORTHO_IP_TOL = 1e-10
UNIT_NORM_TOL = 1e-12


@dataclass(frozen=True)
class EigResult:
    """Full spectrum of a symmetric matrix.

    values : (n,) eigenvalues, ascending
    vectors : (n, n) orthonormal eigenvectors, column i paired with values[i]
    """

    values: np.ndarray
    vectors: np.ndarray


def as_sym_matrix(M, name="matrix"):
    """Validate and return M as a float symmetric matrix.

    Symmetry must hold to within SYMMETRY_TOL relative to the largest entry
    magnitude.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {M.shape}")
    scale = np.max(np.abs(M)) if M.size else 0.0
    if scale > 0 and np.max(np.abs(M - M.T)) > SYMMETRY_TOL * scale:
        raise ValidationError(f"{name} is not symmetric")
    return M


def as_ortho_basis(Q, name="basis"):
    """Validate and return Q as an (L, k) array with orthonormal columns."""
    Q = np.asarray(Q, dtype=float)
    if Q.ndim == 1:
        Q = Q[:, None]
    if Q.ndim != 2:
        raise ValidationError(f"{name} must be 2-dimensional")
    if Q.shape[1] == 0:
        return Q
    gram = Q.T @ Q
    if np.abs(gram.diagonal() - 1.0).max() > UNIT_NORM_TOL * 10:
        raise ValidationError(f"{name} columns are not unit vectors")
    np.fill_diagonal(gram, 0.0)
    if np.abs(gram).max() > ORTHO_IP_TOL:
        raise ValidationError(f"{name} columns are not mutually orthogonal")
    return Q


def fix_signs(V, copy=True):
    """Flip eigenvector columns so the first nonzero component is positive.

    A component counts as nonzero above 1e-12 of its column's largest
    magnitude.  The sign convention makes every spectral factorization in
    the package deterministic.  V is one (n, k) matrix or a stack of them
    (..., n, k); the columns of each matrix are fixed on their own.
    Returns a copy, or flips V, a float array, in place with copy=False.
    """
    if copy:
        V = np.array(V, dtype=float)
    if V.size:
        # |V| with each column contiguous, so the reductions run along rows
        mag = np.abs(np.swapaxes(V, -1, -2), order="C")
        first = np.argmax(mag > 1e-12 * mag.max(axis=-1, keepdims=True),
                          axis=-1)
        lead = np.take_along_axis(V, first[..., None, :], axis=-2)
        V *= np.where(lead < 0, -1.0, 1.0)
    return V


def nonzero(values):
    """Mask of the entries above RANK_TOL times the largest: the one rank
    rule, applied along the last axis.  An all-zero (or empty) spectrum
    gives an all-False mask."""
    values = np.asarray(values, dtype=float)
    return values > RANK_TOL * values.max(axis=-1, initial=0.0, keepdims=True)


def range_basis(A):
    """Orthonormal basis of the column span of A from its thin SVD
    A = U S V^T.  Returns (U_r, s_r): the sign-fixed columns of U and the
    singular values, descending, for the r entries with nonzero(s^2).

    A may be one (L, n) matrix or a (b, L, n) stack, factorized by one
    batched LAPACK call; a stack gives a list of b (U_r, s_r) pairs, whose
    ranks r may differ.
    """
    U, s, _ = np.linalg.svd(A, full_matrices=False)
    keep = nonzero(s**2)
    fix_signs(U, copy=False)
    if U.ndim == 2:
        return U[:, keep], s[keep]
    return [(u[:, k], v[k]) for u, v, k in zip(U, s, keep)]


def sym_eig(M) -> EigResult:
    """Eigendecompose a symmetric matrix.

    Returns the full spectrum in ascending order with sign-fixed orthonormal
    eigenvectors.  Raises ValidationError for non-symmetric input.
    """
    M = as_sym_matrix(M)
    values, vectors = np.linalg.eigh(M)
    return EigResult(values=values, vectors=fix_signs(vectors, copy=False))


def gram_schmidt(vectors):
    """Rank-revealing modified Gram-Schmidt orthonormalization of a sequence
    of 1-D arrays, or of the columns of a 2-D array.  A vector whose residual
    norm after projection falls below RANK_TOL times its own norm is dropped
    as dependent.  Returns an (L, r) array with orthonormal columns spanning
    the input span."""
    if isinstance(vectors, np.ndarray) and vectors.ndim == 2:
        cols = [np.asarray(vectors[:, j], dtype=float) for j in range(vectors.shape[1])]
    else:
        cols = [np.asarray(v, dtype=float).ravel() for v in vectors]
    if not cols:
        raise ValidationError("gram_schmidt needs at least one vector")
    dim = cols[0].size
    if any(c.size != dim for c in cols):
        raise ValidationError("gram_schmidt vectors must share the ambient dimension")

    basis = []
    for v in cols:
        norm0 = np.linalg.norm(v)
        if norm0 == 0.0:
            continue
        w = v.copy()
        for _ in range(2):  # one re-orthogonalization pass for stability
            for q in basis:
                w -= (q @ w) * q
        norm = np.linalg.norm(w)
        if norm <= RANK_TOL * norm0:
            continue
        basis.append(w / norm)
    if not basis:
        raise ValidationError("gram_schmidt input has numerical rank 0")
    return np.column_stack(basis)


@dataclass(frozen=True)
class CanonicalAngles:
    """Canonical (principal) angles between two subspaces.

    cosines : min(dim U, dim V) values in [0, 1], descending
    left, right : paired canonical vectors, columns aligned with cosines;
        left[:, i] lies in U, right[:, i] in V and left[:, i].T @ right[:, i]
        equals cosines[i] (>= 0).
    """

    cosines: np.ndarray
    left: np.ndarray
    right: np.ndarray


def canonical_angles(U, V) -> CanonicalAngles:
    """Canonical angle cosines between span(U) and span(V).

    The cosines are the singular values of U.T @ V; the canonical vector
    pairs are recovered from the corresponding singular vectors.
    """
    U = as_ortho_basis(U, "U")
    V = as_ortho_basis(V, "V")
    if U.shape[0] != V.shape[0]:
        raise ValidationError(
            f"ambient dimensions differ: {U.shape[0]} vs {V.shape[0]}")
    W, s, Zt = np.linalg.svd(U.T @ V)
    k = s.size  # = min(dim U, dim V)
    W = W[:, :k]
    Z = Zt.T[:, :k]
    # Fix the joint sign of each pair deterministically; flipping both
    # members leaves the inner product (the cosine) unchanged.
    fixed = fix_signs(W)
    flips = np.sign(np.sum(W * fixed, axis=0))
    return CanonicalAngles(
        cosines=np.clip(s, 0.0, 1.0),
        left=U @ fixed,
        right=V @ (Z * flips),
    )
