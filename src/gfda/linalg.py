"""Dense symmetric-matrix numerics used by every other module.

All routines work on plain float ndarrays: a symmetric matrix is an (n, n)
array, an orthonormal basis is an (L, k) array whose columns are the basis
vectors.  Only this module decides the rank rule (``nonzero``: a spectrum
entry counts when it exceeds RANK_TOL times the largest, or times a given
scale), how a range basis is factorized (``range_basis``: the thin SVD
and its rank by that rule, for the class fits past their Gram's guard or
with more rows than features; ``gram_frame``: the eigh of the small-side
Gram cut by that rule, for the union-span frame of the pooled bases
Phi = A C and the centred-data frame of the FDA family, with one
CholeskyQR pass where a formed frame's predicted drift asks for it; past
its one guard the thin SVD is taken instead), when a Gram has overflowed
(``finite_gram``, for every Gram of the data), how vectors are
orthonormalized in order (``gram_schmidt``: one QR with a positive
diagonal, dropping a vector whose residual is at most RANK_TOL times its
norm; ``cholesky_qr2``, with no threshold, for the directions gFDA-linear
and the FDA family choose in coordinates), the sign convention
(``fix_signs``: first nonzero component positive, the one implementation,
``column_signs``, applied where a vector reaches L dimensions, to
``range_basis``'s U and every formed frame or basis; coordinates keep
LAPACK's signs) and when columns count as orthonormal
(``as_ortho_basis``: one Q^T Q, the one orthonormality rule).
``sym_eig`` reports eigenvalues ascending, ``range_basis`` and
``gram_frame`` singular values descending, so downstream constructions
are reproducible bit for bit.
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
    """Validate and return Q as an (L, k) array with orthonormal columns:
    the one orthonormality rule.

    One Q^T Q checks it: each diagonal entry within 10 UNIT_NORM_TOL of 1
    and every other entry within ORTHO_IP_TOL of 0, so a column with a
    non-finite entry fails.
    """
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2:
        raise ValidationError(f"{name} must be an (L, k) basis, got shape "
                              f"{Q.shape}")
    eye = np.eye(Q.shape[1])
    with np.errstate(invalid="ignore", over="ignore"):  # non-finite Q fails below
        gram = Q.T @ Q
    ok = np.abs(gram - eye) <= np.where(eye, UNIT_NORM_TOL * 10, ORTHO_IP_TOL)
    if not ok.all():
        if not np.isfinite(Q).all():
            raise ValidationError(f"{name} has non-finite entries")
        if not ok.diagonal().all():
            raise ValidationError(f"{name} columns are not unit vectors")
        raise ValidationError(f"{name} columns are not mutually orthogonal")
    return Q


def fix_signs(V, copy=True):
    """Flip eigenvector columns so the first nonzero component is positive.

    A component counts as nonzero above 1e-12 of its column's largest
    magnitude.  Applied once to each vector, in L dimensions, it makes
    every basis and model independent of LAPACK's signs.  V is one (n, k)
    matrix or a stack of them
    (..., n, k); the columns of each matrix are fixed on their own.
    Returns a copy, or flips V, a float array, in place with copy=False.
    """
    if copy:
        V = np.array(V, dtype=float)
    V *= column_signs(V)
    return V


def column_signs(V):
    """The (..., 1, k) signs, -1.0 or 1.0, by which fix_signs multiplies the
    columns of V."""
    if not V.size:
        return np.ones(V.shape[:-2] + (1, V.shape[-1]))
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
    return np.where(lead < 0, -1.0, 1.0)


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
    """Orthonormal basis of the column span of the (L, n) matrix A, or of
    each matrix of a (b, L, n) stack, from one (batched) LAPACK thin SVD
    A = U S V^T.  Returns (U, s, r): the sign-fixed U and the singular
    values, descending, both uncut, and the rank r, the count of entries
    with nonzero(s^2), one per matrix of a stack.  s descends, so the
    basis is U[:, :r] with singular values s[:r] (U[i, :, :r[i]],
    s[i, :r[i]] for matrix i).  An s^2 past the float range raises
    ``finite_gram``'s ValidationError: s^2 is A's Gram's spectrum.
    """
    U, s, _ = np.linalg.svd(A, full_matrices=False)
    with np.errstate(over="ignore"):
        s2 = finite_gram(A, s**2)
    r = nonzero(s2).sum(axis=-1)
    fix_signs(U, copy=False)
    return U, s, r


def gram_frame(A, G=None, C=None):
    """Orthonormal frame Q of the column span of the (L, K) matrix
    Phi = A C (A itself when C is None) from one eigh of its K x K Gram
    G = Phi^T Phi = V diag(s^2) V^T (the caller's, if given, and required
    with C): (s, Z, lift) for the r entries with nonzero(s^2), V with
    eigh's signs.  s descends; Z = Phi^T Q = V diag(s) holds Phi's columns in
    Q = Phi V diag(1/s); lift(D) = Q[:, :k'] D = A (C (V diag(1/s) D)) maps
    (k', k) coordinates to L dimensions, and lift(columns=k) forms Q's k
    smallest-s columns (all r by default, ``_formed_frame``) in ascending
    s, sign-fixed in L dimensions, and returns them with Phi^T of them, in
    coordinates.  Z and the small s hold to about drift = eps s_max^2 /
    s_min^2; formed columns, through the K-dimensional products, to 100
    times that, below UNIT_NORM_TOL: 7.7e-14 to 5.2e-13 measured on GDS's
    frames (image shape and README scale, seeds 1 and 3).  The one guard,
    the only reason to form Q (or Phi) before lift(): past ORTHO_IP_TOL, s
    and Q are the thin SVD's, ``range_basis(Phi)`` (``_lifted_frame``), and
    Z = Phi^T Q and lift(D) follow its signs.  A Gram past the float range
    raises ValidationError.  On the pooled class bases it is the union-span
    frame (``fisher._pooled``)."""
    s2, V = np.linalg.eigh(finite_gram(A, G))
    r = int(nonzero(s2).sum())  # eigh ascends, so the kept entries trail
    s2, V = s2[s2.size - r:][::-1], V[:, V.shape[1] - r:][:, ::-1]
    drift = np.finfo(float).eps * s2[0] / s2[-1] if r else 0.0
    if drift > ORTHO_IP_TOL:
        return _lifted_frame(A if C is None else A @ C)
    s = np.sqrt(s2)
    W, Z = V / s, V * s

    def lift(D=None, columns=None):
        Y = W[:, :len(D)] @ D if D is not None else W[:, ::-1][:, :columns]
        Y = Y if C is None else C @ Y
        if D is not None:
            return A @ Y
        return _formed_frame(A, Y, drift > UNIT_NORM_TOL,
                             Z[:, ::-1][:, :columns])
    return s, Z, lift


def finite_gram(A, G=None):
    """The Gram A^T A (or the caller's G, or its spectrum), checked: an entry
    past the float range raises ValidationError."""
    with np.errstate(over="ignore", invalid="ignore"):
        G = A.T @ A if G is None else G
    if not np.isfinite(G).all():
        raise ValidationError("the Gram matrix of the data overflows: squared "
                              "norms exceed the float range; rescale the data")
    return G


def _lifted_frame(A):
    """gram_frame with (Q, s) ``range_basis(A)``'s rank-r cut: Z = A^T Q,
    lift(D) = Q[:, :k'] D, lift(columns=k) Q's last k columns reversed and
    Z's."""
    U, s, r = range_basis(A)
    Q, s = U[:, :r], s[:r]
    Z = A.T @ Q
    return s, Z, lambda D=None, columns=None: (
        (Q[:, ::-1][:, :columns].copy(), Z[:, ::-1][:, :columns])
        if D is None else Q[:, :len(D)] @ D)


def _formed_frame(A, W, reorthonormalize, Z=None):
    """(Q, Z T) for Q = A W T, the kept columns W formed: with
    reorthonormalize after one CholeskyQR pass T = ``upper_inverse(Q^T Q)``
    (column j needs W's first j + 1), orthonormal to eps cond(A W)^2;
    sign-fixed in L dimensions either way.  Z T, None without Z, carries
    coordinates Z of A W over to Q."""
    Q = A @ W
    if reorthonormalize:
        T = upper_inverse(Q.T @ Q)
        Q, Z = Q @ T, None if Z is None else Z @ T
    signs = column_signs(Q)
    Q *= signs
    return Q, None if Z is None else Z * signs


def upper_inverse(S):
    """R^-1 for the Cholesky factor R^T R = S, R upper triangular."""
    return np.linalg.inv(np.linalg.cholesky(S).T)


def cholesky_qr2(lift, coords, gram=None):
    """(Q, T): the directions lift(coords), in order, orthonormalized by
    CholeskyQR2 (Yamamoto, Nakatsukasa, Yanagisawa & Fukaya, ETNA 2015),
    Q = lift(coords T), T = R_1^-1 R_2^-1.  Pass 1 takes their Gram in
    coordinates (gram, by default coords^T coords, as on an orthonormal
    frame), pass 2 that of the formed lift(coords R_1^-1).  T is upper
    triangular with a positive diagonal, so Q is the Gram-Schmidt basis,
    orthonormal to O(k eps) while cond < eps^-1/2; signs are the caller's."""
    T = upper_inverse(coords.T @ coords if gram is None else gram)
    Q = lift(coords @ T)
    R2inv = upper_inverse(Q.T @ Q)
    return Q @ R2inv, T @ R2inv


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

