"""Dense symmetric-matrix numerics used by every other module.

All routines work on plain float ndarrays: a symmetric matrix is an (n, n)
array, an orthonormal basis is an (L, k) array whose columns are the basis
vectors.  Only this module decides the rank rule (``nonzero``: a spectrum
entry counts when it exceeds RANK_TOL times the largest, or times a given
scale), how a range basis is factorized (``range_basis``: the thin SVD cut
by that rule, for the class fits; ``gram_frame``: the eigh of the
small-side Gram A^T A cut by that rule, for the union-span frame of the
pooled class bases and the centred-data frame of the FDA family, with
one CholeskyQR pass where the frame is formed; past its one guard the
thin SVD is taken instead),
how vectors are orthonormalized in order (``gram_schmidt``: one QR with a
positive diagonal, dropping a vector whose residual is at most RANK_TOL
times its norm), the sign convention (``fix_signs``: first nonzero
component positive, the one implementation, applied to every
factorization's vectors and every formed frame) and
when columns count as orthonormal (``as_ortho_basis``: one batched Q^T Q
for one basis or a stack, the one orthonormality rule).
``sym_eig`` reports eigenvalues ascending, ``range_basis`` and
``gram_frame`` singular values descending, all with sign-fixed vectors, so
downstream constructions are reproducible bit for bit.
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
    """Validate and return Q as one (L, k) array, or a (b, L, k) stack of
    them, with orthonormal columns: the one orthonormality rule.

    One batched Q^T Q checks every matrix: each diagonal entry within
    10 UNIT_NORM_TOL of 1 and every other entry within ORTHO_IP_TOL of 0,
    so a column with a non-finite entry fails.  A 1-D Q is one column.  A
    stack raises for its first failing matrix i, named f"{name}[{i}]", the
    error that matrix alone would raise.
    """
    Q = np.asarray(Q, dtype=float)
    if Q.ndim == 1:
        Q = Q[:, None]
    if Q.ndim not in (2, 3):
        raise ValidationError(f"{name} must be an (L, k) basis or a (b, L, k) "
                              f"stack, got shape {Q.shape}")
    eye = np.eye(Q.shape[-1])
    with np.errstate(invalid="ignore", over="ignore"):  # non-finite Q fails below
        gram = Q.swapaxes(-1, -2) @ Q
    ok = np.abs(gram - eye) <= np.where(eye, UNIT_NORM_TOL * 10, ORTHO_IP_TOL)
    bad = ~ok.all(axis=(-2, -1))
    if bad.any():
        i = int(np.argmax(bad))
        if Q.ndim == 3:
            Q, ok, name = Q[i], ok[i], f"{name}[{i}]"
        if not np.isfinite(Q).all():
            raise ValidationError(f"{name} has non-finite entries")
        if not ok.diagonal().all():
            raise ValidationError(f"{name} columns are not unit vectors")
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
        # a row-0 entry above 1e-12 of its whole matrix's largest magnitude
        # is above 1e-12 of its column's, so it is the first nonzero one
        # (max and -min, not max |V|: a second full-size array costs more
        # than the pass it would save)
        lead = V[..., :1, :]
        big = np.maximum(V.max(axis=(-2, -1), keepdims=True),
                         -V.min(axis=(-2, -1), keepdims=True))
        if not (np.abs(lead) > 1e-12 * big).all():
            # |V| with each column contiguous, so the reductions run along rows
            mag = np.abs(np.swapaxes(V, -1, -2), order="C")
            first = np.argmax(mag > 1e-12 * mag.max(axis=-1, keepdims=True),
                              axis=-1)
            lead = np.take_along_axis(V, first[..., None, :], axis=-2)
        V *= np.where(lead < 0, -1.0, 1.0)
    return V


def nonzero(values, scale=None):
    """Mask of the entries above RANK_TOL times scale, by default the
    largest entry: the one rank rule, applied along the last axis.  An
    all-zero (or empty) spectrum gives an all-False mask.  Give the scale
    when the spectrum's rounding is relative to a larger matrix's."""
    values = np.asarray(values, dtype=float)
    if scale is None:
        scale = values.max(axis=-1, initial=0.0, keepdims=True)
    return values > RANK_TOL * scale


def range_basis(A):
    """Orthonormal basis of the column span of A from its thin SVD
    A = U S V^T.  Returns (U_r, s_r): the sign-fixed columns of U and the
    singular values, descending, for the r entries with nonzero(s^2).  s
    descends, so those are the leading r and U_r is a view of U.

    A may also be a (b, L, n) stack, factorized by one batched LAPACK call.
    It gives (U, s, r): the sign-fixed stacked factors, uncut, and each
    matrix's rank, so matrix i's pair is U[i, :, :r[i]], s[i, :r[i]].
    An s^2 past the float range raises ValidationError.
    """
    U, s, _ = np.linalg.svd(A, full_matrices=False)
    with np.errstate(over="ignore"):
        s2 = s**2
    if not np.isfinite(s2).all():
        raise ValidationError("samples overflow: the square of their largest "
                              f"singular value {s.max():.3g} exceeds the "
                              "float range; rescale the data")
    r = nonzero(s2).sum(axis=-1)
    fix_signs(U, copy=False)
    if U.ndim == 2:
        return U[:, :r], s[:r]
    return U, s, r


def gram_frame(A, G=None):
    """Orthonormal frame Q of the column span of the (L, K) matrix A from
    one eigh of its K x K Gram G = A^T A = V diag(s^2) V^T (the caller's,
    if given): (s, Z, lift) for the r entries with nonzero(s^2), V
    sign-fixed.  s descends; Z = A^T Q = V diag(s) holds A's columns in
    Q = A V diag(1/s); lift(D) = Q[:, :k'] D maps (k', k) coordinates to
    L dimensions and lift() is Q formed whole (``_formed_frame``), its
    columns in ascending s (the order of A A^T's eigenvalues), sign-fixed
    in L dimensions.  Z, the lifted columns and the small s hold to about
    drift = eps s_max^2 / s_min^2.  The one guard, the only reason to form
    Q before lift(): past ORTHO_IP_TOL, s and Q are the thin SVD's,
    ``range_basis(A)`` (``_lifted_frame``), and Z = A^T Q and lift(D)
    follow its signs.  A Gram past the float range raises ValidationError."""
    with np.errstate(over="ignore", invalid="ignore"):
        G = A.T @ A if G is None else G
    if not np.isfinite(G).all():
        raise ValidationError("the Gram matrix of the data overflows: squared "
                              "norms exceed the float range; rescale the data")
    s2, V = np.linalg.eigh(G)
    r = int(nonzero(s2).sum())  # eigh ascends, so the kept entries trail
    s2, V = s2[s2.size - r:][::-1], V[:, V.shape[1] - r:][:, ::-1]
    drift = np.finfo(float).eps * s2[0] / s2[-1] if r else 0.0
    if drift > ORTHO_IP_TOL:
        return _lifted_frame(A)
    fix_signs(V, copy=False)
    s = np.sqrt(s2)
    W = V / s
    return s, V * s, lambda D=None: (
        _formed_frame(A, W[:, ::-1], drift > UNIT_NORM_TOL) if D is None
        else A @ (W[:, :len(D)] @ D))


def _lifted_frame(A):
    """gram_frame with (Q, s) from ``range_basis(A)``: Z = A^T Q,
    lift(D) = Q[:, :k'] D."""
    Q, s = range_basis(A)
    return s, A.T @ Q, lambda D=None: (
        Q[:, ::-1].copy() if D is None else Q[:, :len(D)] @ D)


def _formed_frame(A, W, reorthonormalize):
    """Q = A W, with reorthonormalize after one CholeskyQR pass Q R^-1
    (R^T R = Q^T Q), orthonormal to about eps cond(A W)^2, that is to
    rounding; sign-fixed in L dimensions either way."""
    Q = A @ W
    if reorthonormalize:
        Q = Q @ np.linalg.inv(np.linalg.cholesky(Q.T @ Q).T)
    return fix_signs(Q, copy=False)


def sym_eig(M) -> EigResult:
    """Eigendecompose a symmetric matrix.

    Returns the full spectrum in ascending order with sign-fixed orthonormal
    eigenvectors.  Raises ValidationError for non-symmetric input.
    """
    M = as_sym_matrix(M)
    values, vectors = np.linalg.eigh(M)
    return EigResult(values=values, vectors=fix_signs(vectors, copy=False))


def gram_schmidt(vectors):
    """Orthonormalize a sequence of 1-D arrays, or the columns of a 2-D
    array, in order: the Q of one QR with R's diagonal made positive.  A
    vector whose residual |R_jj| against the vectors kept before it is at
    most RANK_TOL times its norm is dropped, and the rest are factorized
    again.  Returns an (L, r) array with orthonormal columns spanning them."""
    if isinstance(vectors, np.ndarray) and vectors.ndim == 2:
        A = np.asarray(vectors, dtype=float)
    else:
        cols = [np.asarray(v, dtype=float).ravel() for v in vectors]
        if any(c.size != cols[0].size for c in cols):
            raise ValidationError("gram_schmidt vectors must share the ambient dimension")
        A = np.column_stack(cols) if cols else np.empty((0, 0))
    if A.shape[1] == 0:
        raise ValidationError("gram_schmidt needs at least one vector")
    norms = np.linalg.norm(A, axis=0)
    kept = np.flatnonzero(norms != 0)  # a zero vector is dependent
    while kept.size:
        Q, R = np.linalg.qr(A[:, kept])
        diag = R.diagonal()  # beyond the first L, every vector is dependent
        dependent = np.flatnonzero(np.abs(diag) <= RANK_TOL * norms[kept[:diag.size]])
        if not dependent.size:
            return Q * np.sign(diag)
        kept = np.delete(kept, dependent[0])
    raise ValidationError("gram_schmidt input has numerical rank 0")

