from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfda import linalg, reference
from gfda.errors import ValidationError


def random_orthonormal(rng, L, k):
    Q, _ = np.linalg.qr(rng.standard_normal((L, k)))
    return Q


class TestSymEig:
    def test_identity(self):
        res = linalg.sym_eig(np.eye(2))
        npt.assert_allclose(res.values, [1.0, 1.0])
        npt.assert_allclose(res.vectors, np.eye(2))

    def test_analytic_2x2(self):
        res = linalg.sym_eig([[2.0, -1.0], [-1.0, 2.0]])
        npt.assert_allclose(res.values, [1.0, 3.0], atol=1e-14)

    def test_difference_reference_matrix_spectrum(self):
        # C x C matrix with C-1 on the diagonal and -1 off-diagonal has
        # eigenvalues {0, C, ..., C}; at C=3 that is (0, 3, 3).
        M = np.array([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]])
        res = linalg.sym_eig(M)
        npt.assert_allclose(res.values, [0.0, 3.0, 3.0], atol=1e-14)

    def test_non_symmetric_rejected(self):
        with pytest.raises(ValidationError):
            linalg.sym_eig([[1.0, 2.0], [0.0, 1.0]])

    @pytest.mark.parametrize("order", [3, 20, 87, 200])
    def test_reconstruction(self, order):
        rng = np.random.default_rng(order)
        A = rng.standard_normal((order, order))
        M = (A + A.T) / 2
        res = linalg.sym_eig(M)
        recon = (res.vectors * res.values) @ res.vectors.T
        assert np.linalg.norm(recon - M) <= 1e-8 * np.linalg.norm(M)
        # per-pair residual ||M v - lambda v||
        residual = M @ res.vectors - res.vectors * res.values
        assert np.linalg.norm(residual, axis=0).max() \
            <= 1e-8 * np.linalg.norm(M)

    def test_ascending_and_sign_convention(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((12, 12))
        res = linalg.sym_eig((A + A.T) / 2)
        assert np.all(np.diff(res.values) >= 0)
        for j in range(12):
            col = res.vectors[:, j]
            nz = np.nonzero(np.abs(col) > 1e-12 * np.abs(col).max())[0]
            assert col[nz[0]] > 0


def loop_fix_signs(V):
    V = np.array(V, dtype=float)
    for j in range(V.shape[1]):
        col = V[:, j]
        big = np.abs(col).max()
        if big == 0.0:
            continue
        nz = np.nonzero(np.abs(col) > 1e-12 * big)[0]
        if nz.size and col[nz[0]] < 0:
            V[:, j] = -col
    return V


class TestFixSigns:
    def test_matches_column_loop(self):
        rng = np.random.default_rng(6)
        V = rng.standard_normal((9, 7))
        V[:3, 1] = 0.0                  # leading zeros
        V[:, 2] = 0.0                   # zero column
        V[0, 3] = -1e-14 * np.abs(V[:, 3]).max()  # below the 1e-12 cut
        V[0, 4] = -0.0
        npt.assert_array_equal(linalg.fix_signs(V), loop_fix_signs(V))

    def test_returns_copy(self):
        V = -np.eye(2)
        out = linalg.fix_signs(V)
        npt.assert_array_equal(out, np.eye(2))
        npt.assert_array_equal(V, -np.eye(2))

    def test_stack_fixes_each_matrix_on_its_own(self):
        rng = np.random.default_rng(7)
        V = rng.standard_normal((4, 9, 3))
        V[1, :, 0] = 0.0                # a zero column in one matrix
        V[2, :4, 2] = 0.0               # leading zeros in another
        # a small column: its leading entry counts against its own scale
        V[3, :, 1] = 1e-6 * np.abs(V[3, :, 1])
        V[3, 0, 1] = -1e-16
        out = linalg.fix_signs(V)
        for matrix, fixed in zip(V, out):
            npt.assert_array_equal(fixed, loop_fix_signs(matrix))

    def test_in_place_without_copy(self):
        V = -np.eye(3)[None].repeat(2, axis=0)
        assert linalg.fix_signs(V, copy=False) is V
        npt.assert_array_equal(V, np.eye(3)[None].repeat(2, axis=0))


def multipass_fix_signs(V):
    """The vectorized rule without the row-0 test: every column's first
    entry above 1e-12 of its column's largest magnitude, found in |V^T|."""
    V = np.array(V, dtype=float)
    if V.size:
        mag = np.abs(np.swapaxes(V, -1, -2), order="C")
        first = np.argmax(mag > 1e-12 * mag.max(axis=-1, keepdims=True),
                          axis=-1)
        V *= np.where(np.take_along_axis(V, first[..., None, :], axis=-2) < 0,
                      -1.0, 1.0)
    return V


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 8), st.integers(1, 5), st.integers(1, 4),
       st.integers(0, 2**32 - 1),
       st.lists(st.sampled_from(["dense", "zero", "below", "small column",
                                 "zero column", "leading zeros"]),
                min_size=1, max_size=4))
def test_fix_signs_row_zero_test_agrees_with_multipass_rule(n, k, b, seed, kinds):
    """Row 0 decides every sign when each of its entries is above 1e-12 of
    its matrix's largest magnitude; a (near-)zero row-0 entry anywhere in a
    stack sends it through the column scan.  Both give the oracles' signs."""
    rng = np.random.default_rng(seed)
    V = rng.standard_normal((b, n, k))
    for kind in kinds:
        i, j = rng.integers(b), rng.integers(k)
        big = np.abs(V[i]).max()
        if kind == "zero":
            V[i, 0, j] = rng.choice([0.0, -0.0])
        elif kind == "below":  # under the matrix cut, so under the column's
            V[i, 0, j] = -1e-14 * big
        elif kind == "small column":  # under the matrix cut, over the column's
            V[i, :, j] = 1e-6 * big * rng.standard_normal(n)
            V[i, 0, j] = -1e-16 * big
        elif kind == "zero column":
            V[i, :, j] = 0.0
        elif kind == "leading zeros":
            V[i, :rng.integers(n + 1), j] = 0.0
    expected = multipass_fix_signs(V)
    npt.assert_array_equal(linalg.fix_signs(V), expected)
    for matrix, fixed in zip(V, expected):
        npt.assert_array_equal(linalg.fix_signs(matrix), fixed)
        npt.assert_array_equal(loop_fix_signs(matrix), fixed)


class TestGramSchmidt:
    def test_two_vector_example(self):
        out = linalg.gram_schmidt([np.array([1.0, 0.0]), np.array([1.0, 1.0])])
        npt.assert_allclose(out, np.eye(2), atol=1e-14)

    def test_collinear_dropped(self):
        out = linalg.gram_schmidt([np.array([1.0, 0.0]), np.array([2.0, 0.0])])
        assert out.shape == (2, 1)
        npt.assert_allclose(out[:, 0], [1.0, 0.0])

    def test_rank_matches_svd_oracle(self):
        # 5 vectors in a 3-dimensional space: numerical rank is 3.
        rng = np.random.default_rng(11)
        vecs = [rng.standard_normal(3) for _ in range(5)]
        rank = np.linalg.matrix_rank(np.column_stack(vecs))
        out = linalg.gram_schmidt(vecs)
        assert out.shape[1] == rank == 3

    def test_output_orthonormal(self):
        rng = np.random.default_rng(12)
        out = linalg.gram_schmidt(rng.standard_normal((40, 12)))
        npt.assert_allclose(out.T @ out, np.eye(out.shape[1]), atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            linalg.gram_schmidt([])

    def test_all_zero_rejected(self):
        with pytest.raises(ValidationError):
            linalg.gram_schmidt([np.zeros(3)])


def loop_gram_schmidt(cols):
    """Oracle: modified Gram-Schmidt with one re-orthogonalization pass,
    dropping a vector whose residual is at most RANK_TOL times its norm."""
    basis = []
    for v in cols:
        norm0 = np.linalg.norm(v)
        if norm0 == 0.0:
            continue
        w = np.array(v, dtype=float)
        for _ in range(2):
            for q in basis:
                w -= (q @ w) * q
        norm = np.linalg.norm(w)
        if norm > linalg.RANK_TOL * norm0:
            basis.append(w / norm)
    return np.column_stack(basis)


GS_PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                       database=None)


class TestGramSchmidtAgainstLoop:
    @GS_PROPERTY
    @given(L=st.integers(1, 12), data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_full_rank_columns_agree(self, L, data, seed):
        k = data.draw(st.integers(1, L))
        A = np.random.default_rng(seed).standard_normal((L, k))
        out = linalg.gram_schmidt(A)
        assert out.shape == (L, k)
        npt.assert_allclose(out, loop_gram_schmidt(A.T), rtol=0, atol=1e-12)

    @GS_PROPERTY
    @given(L=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
           kinds=st.lists(st.sampled_from(["new", "zero", "copy", "scaled",
                                           "near"]),
                          min_size=1, max_size=10))
    def test_dependent_vectors_dropped_alike(self, L, seed, kinds):
        # zero vectors, exact duplicates, multiples of an earlier vector and
        # ones 1e-13 off it, at any position; past L vectors all are dependent
        rng = np.random.default_rng(seed)
        cols = []
        for kind in kinds:
            if kind == "zero":
                cols.append(np.zeros(L))
            elif kind == "new" or not cols:
                cols.append(rng.standard_normal(L))
            else:
                earlier = cols[rng.integers(len(cols))]
                if kind == "near":
                    earlier = earlier + 1e-13 * rng.standard_normal(L)
                cols.append(earlier * (1.0 if kind == "copy"
                                       else rng.choice([-3.0, 0.5, 2.5])))
        if not any(c.any() for c in cols):
            with pytest.raises(ValidationError, match="rank 0"):
                linalg.gram_schmidt(cols)
            return
        out, oracle = linalg.gram_schmidt(cols), loop_gram_schmidt(cols)
        assert out.shape == oracle.shape
        npt.assert_allclose(out.T @ out, np.eye(out.shape[1]), atol=1e-12)
        assert 1.0 - reference.canonical_angles(out, oracle).cosines.min() <= 1e-10

    def test_near_dependent_vector_leaves_later_ones(self):
        # dropping e1 + 1e-13 e2 must not take e2's direction with it
        e = np.eye(3)
        cols = [e[0], e[0] + 1e-13 * e[1], e[1]]
        npt.assert_array_equal(linalg.gram_schmidt(cols), e[:, :2])
        assert loop_gram_schmidt(cols).shape == (3, 2)


def alternating_projection_cosines(U, V, iters=4000):
    """Oracle: maximize u.T v over unit u in span(U), v in span(V) by
    alternating projections, then deflate and repeat.  Uses only raw
    numpy primitives."""
    def complement_basis(Q, w):
        # orthonormal basis of span(Q) with direction w removed
        P = Q @ Q.T
        M = P - np.outer(w, w)
        vals, vecs = np.linalg.eigh(M)
        return vecs[:, vals > 0.5]

    k = min(U.shape[1], V.shape[1])
    cosines = []
    for _ in range(k):
        u = U @ np.arange(1.0, U.shape[1] + 1)
        u /= np.linalg.norm(u)
        for _ in range(iters):
            v = V @ (V.T @ u)
            nv = np.linalg.norm(v)
            if nv == 0:
                break
            v /= nv
            u = U @ (U.T @ v)
            u /= np.linalg.norm(u)
        pv = V @ (V.T @ u)
        cos = np.linalg.norm(pv)
        cosines.append(cos)
        if cos == 0:
            break
        v = pv / cos
        U = complement_basis(U, u)
        V = complement_basis(V, v)
        if U.shape[1] == 0 or V.shape[1] == 0:
            break
    return np.array(cosines)


class TestCanonicalAngles:
    def test_plane_at_60_degrees(self):
        U = np.array([[1.0], [0.0]])
        V = np.array([[0.5], [np.sqrt(3) / 2]])
        res = reference.canonical_angles(U, V)
        npt.assert_allclose(res.cosines, [0.5], atol=1e-14)
        npt.assert_allclose(res.left[:, 0], [1.0, 0.0], atol=1e-14)
        npt.assert_allclose(res.right[:, 0], [0.5, np.sqrt(3) / 2], atol=1e-14)

    def test_identical_span_different_bases(self):
        rng = np.random.default_rng(3)
        U = random_orthonormal(rng, 8, 3)
        R, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        res = reference.canonical_angles(U, U @ R)
        npt.assert_allclose(res.cosines, np.ones(3), atol=1e-12)

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(4)
        U = random_orthonormal(rng, 10, 3)
        V = random_orthonormal(rng, 10, 3)
        npt.assert_allclose(reference.canonical_angles(U, V).cosines,
                            reference.canonical_angles(V, U).cosines, atol=1e-12)

    def test_invariant_under_basis_change(self):
        rng = np.random.default_rng(6)
        U = random_orthonormal(rng, 10, 4)
        V = random_orthonormal(rng, 10, 2)
        RU, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        npt.assert_allclose(reference.canonical_angles(U @ RU, V).cosines,
                            reference.canonical_angles(U, V).cosines, atol=1e-12)

    def test_matches_alternating_projection_oracle(self):
        rng = np.random.default_rng(7)
        U = random_orthonormal(rng, 10, 3)
        V = random_orthonormal(rng, 10, 3)
        res = reference.canonical_angles(U, V)
        oracle = alternating_projection_cosines(U, V)
        npt.assert_allclose(res.cosines, oracle, atol=1e-6)

    def test_paired_vectors_consistent(self):
        rng = np.random.default_rng(8)
        U = random_orthonormal(rng, 12, 4)
        V = random_orthonormal(rng, 12, 3)
        res = reference.canonical_angles(U, V)
        for i, cos in enumerate(res.cosines):
            assert res.left[:, i] @ res.right[:, i] >= 0
            npt.assert_allclose(res.left[:, i] @ res.right[:, i], cos,
                                atol=1e-12)

    def test_pair_signs_follow_convention(self):
        # each pair is flipped jointly so that its coordinates in U have a
        # positive leading component
        rng = np.random.default_rng(9)
        U = random_orthonormal(rng, 12, 4)
        V = random_orthonormal(rng, 12, 3)
        res = reference.canonical_angles(U, V)
        W = U.T @ res.left
        npt.assert_allclose(linalg.fix_signs(W), W, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            reference.canonical_angles(np.eye(3)[:, :1], np.eye(4)[:, :1])


class TestAsOrthoBasis:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_basis_rejected(self, bad):
        with pytest.raises(ValidationError, match="basis has non-finite entries"):
            linalg.as_ortho_basis(np.full((4, 2), bad))
        Q = np.eye(4)[:, :2]
        Q[3, 1] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            linalg.as_ortho_basis(Q)

    def test_canonical_angles_reject_nan_basis(self):
        with pytest.raises(ValidationError, match="U has non-finite entries"):
            reference.canonical_angles(np.full((4, 2), np.nan), np.eye(4)[:, :1])

    def test_canonical_angles_reject_a_stack(self):
        with pytest.raises(ValidationError, match="two .L, k. bases"):
            reference.canonical_angles(np.eye(4)[None, :, :2], np.eye(4)[:, :1])

    def test_four_dimensional_input_rejected(self):
        with pytest.raises(ValidationError, match="got shape"):
            linalg.as_ortho_basis(np.ones((1, 1, 2, 1)))

    def test_one_dimensional_input_rejected(self):
        # a unit vector is not read as one column
        with pytest.raises(ValidationError, match=r"got shape \(3,\)"):
            linalg.as_ortho_basis(np.eye(3)[0])

    def test_stack_rejected(self):
        # one basis per call: a (b, L, k) stack of orthonormal bases is a
        # shape error, not b checks
        stack = np.stack([np.eye(4)[:, :2], np.eye(4)[:, 2:]])
        with pytest.raises(ValidationError, match=r"^basis must be an \(L, k\) "
                           r"basis, got shape \(2, 4, 2\)$"):
            linalg.as_ortho_basis(stack)


class TestWhitening:
    def test_identity(self):
        npt.assert_allclose(reference.whitening(np.eye(3)), np.eye(3), atol=1e-14)

    def test_diagonal(self):
        A = reference.whitening(np.diag([4.0, 1.0]))
        # ascending eigenvalue order: the sigma=1 axis comes first
        npt.assert_allclose(np.abs(A), [[0.0, 0.5], [1.0, 0.0]], atol=1e-14)

    def test_whitens_summed_projections(self):
        from gfda import scatter_ladder, subspace_config
        ens = subspace_config(3, 2, 12, seed=2)
        S = scatter_ladder(ens, "gFDA").within
        A = reference.whitening(S)
        npt.assert_allclose(A.T @ S @ A, np.eye(A.shape[1]), atol=1e-8)

    def test_idempotent_in_effect(self):
        rng = np.random.default_rng(9)
        B = rng.standard_normal((6, 4))
        S = B @ B.T  # rank 4
        A = reference.whitening(S)
        W = A.T @ S @ A
        A2 = reference.whitening(W)
        npt.assert_allclose(A2.T @ W @ A2, np.eye(A.shape[1]), atol=1e-10)

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValidationError):
            reference.whitening(np.diag([1.0, -0.5]))


class TestNonzero:
    def test_relative_cut(self):
        mask = linalg.nonzero([4.0, 4e-9, 4e-11, 0.0, -1e-3])
        npt.assert_array_equal(mask, [True, True, False, False, False])

    def test_all_zero_spectrum_gives_empty_mask(self):
        assert not linalg.nonzero(np.zeros(4)).any()
        assert linalg.nonzero(np.zeros(0)).shape == (0,)

    def test_scale_invariant(self):
        values = np.array([3.0, 1e-10, 5e-10, 2.0])
        npt.assert_array_equal(linalg.nonzero(values),
                               linalg.nonzero(1e-30 * values))


def direct_svd_route(M, side):
    """Reference factorization, written out at the call site's own
    orientation: the thin SVD of M cut at s^2 > RANK_TOL * s_max^2, keeping
    U ("left") or V ("right")."""
    U, s, vt = np.linalg.svd(M, full_matrices=False)
    keep = s**2 > linalg.RANK_TOL * s[0] ** 2
    return (U if side == "left" else vt.T)[:, keep], s[keep]


# (rows n, columns L, rank)
SHAPES = {"tall": (40, 7, 7), "wide": (7, 40, 7), "rank-deficient": (30, 20, 5)}


def sample_matrix(shape, seed):
    n, L, r = SHAPES[shape]
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, r)) @ rng.standard_normal((r, L)) + 0.5


def assert_same_span(A, B):
    assert A.shape == B.shape
    cos = reference.canonical_angles(A, B).cosines
    assert 1.0 - cos.min() <= 1e-8


def cut_range_basis(A):
    """range_basis(A)'s basis and singular values, cut at its rank r."""
    U, s, r = linalg.range_basis(A)
    return U[:, :r], s[:r]


class TestRangeBasis:
    def test_rank_deficient_drops_exactly_the_zero_directions(self):
        A = sample_matrix("rank-deficient", 1)
        U, s = cut_range_basis(A)
        assert U.shape == (30, np.linalg.matrix_rank(A)) and s.shape == (U.shape[1],)
        npt.assert_allclose(U.T @ U, np.eye(U.shape[1]), atol=1e-12)
        assert np.linalg.norm(A - U @ (U.T @ A)) <= 1e-12 * np.linalg.norm(A)
        npt.assert_allclose(s, np.linalg.svd(A, compute_uv=False)[:U.shape[1]],
                            rtol=1e-12)

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_sign_convention_and_order(self, shape):
        U, s = cut_range_basis(sample_matrix(shape, 2))
        npt.assert_array_equal(linalg.fix_signs(U), U)
        for col in U.T:
            nz = np.nonzero(np.abs(col) > 1e-12 * np.abs(col).max())[0]
            assert col[nz[0]] > 0
        assert np.all(np.diff(s) <= 0)

    def test_zero_matrix_gives_empty_basis(self):
        U, s, r = linalg.range_basis(np.zeros((4, 3)))
        assert r == 0 and U.shape == (4, 3) and s.tolist() == [0.0] * 3
        U, s = cut_range_basis(np.zeros((4, 3)))
        assert U.shape == (4, 0) and s.shape == (0,)

    def test_stack_matches_one_call_per_matrix(self):
        # one batched factorization, bit for bit the per-matrix results;
        # the rank is decided per matrix (full, deficient, zero)
        rng = np.random.default_rng(8)
        stack = rng.standard_normal((3, 12, 4)) + 0.5
        stack[1, :, 3] = stack[1, :, 0] + stack[1, :, 1]
        stack[2] = 0.0
        U, s, r = linalg.range_basis(stack)
        assert r.tolist() == [4, 3, 0]
        for A, u, v, k in zip(stack, U, s, r):
            U1, s1 = cut_range_basis(A)
            npt.assert_array_equal(u[:, :k], U1)
            npt.assert_array_equal(v[:k], s1)

    def test_nonzero_rule_per_row(self):
        values = np.array([[4.0, 1e-12, 0.0], [1e-20, 1e-31, 0.0]])
        npt.assert_array_equal(linalg.nonzero(values),
                               [[True, False, False], [True, False, False]])

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_fit_class_matches_direct_svd(self, shape):
        from gfda import fit_class
        X = sample_matrix(shape, 3)
        model = fit_class(X)
        basis, s = direct_svd_route(X, "right")
        assert_same_span(model.basis, basis)
        npt.assert_allclose(model.eigenvalues, s**2 / X.shape[0], rtol=1e-10)

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_union_span_matches_direct_svd(self, shape):
        pooled = sample_matrix(shape, 4).T
        s, _, lift = linalg.gram_frame(pooled)
        basis, s_ref = direct_svd_route(pooled, "left")
        assert_same_span(lift()[0], basis)
        npt.assert_allclose(s**2, s_ref**2, rtol=1e-10)

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_centred_frame_matches_direct_svd(self, shape):
        # the frame stops at the rank of the centred rows; the direct SVD's
        # leading columns up to that rank span the same space
        from gfda import fisher
        X = sample_matrix(shape, 5)
        y = np.arange(X.shape[0]) % 3
        *_, s, Z, lift = fisher._centred_frame(X, y)
        Q = lift(np.eye(s.size))
        centred = X - X.mean(axis=0)
        assert Q.shape[1] == np.linalg.matrix_rank(centred)
        _, s_ref, vt = np.linalg.svd(centred, full_matrices=False)
        assert_same_span(Q, vt[:Q.shape[1]].T)
        npt.assert_allclose(s, s_ref[:Q.shape[1]], rtol=1e-10)
        npt.assert_allclose(Z, centred @ Q, rtol=0, atol=1e-10 * s[0])

    @pytest.mark.parametrize("C,N,L", [(3, 2, 6), (4, 1, 30), (5, 3, 60)])
    def test_product_form_matches_direct_svd(self, C, N, L):
        from gfda import (aligned_first_vectors, gfda_product_form,
                          subspace_config)
        ens = subspace_config(C, N, L, separation=0.5, seed=C + L)
        s, _, lift = linalg.gram_frame(np.hstack([c.basis
                                                  for c in ens.classes]))
        wmap = lift()[0].T / s[::-1, None]
        hats = aligned_first_vectors(ens) @ wmap.T
        _, sv, vt = np.linalg.svd(hats - hats.mean(axis=0),
                                  full_matrices=False)
        model = gfda_product_form(ens)
        assert_same_span(linalg.gram_schmidt(model.projector),
                         linalg.gram_schmidt(wmap.T @ vt[:C - 1].T))
        npt.assert_allclose(model.info["criterion_eigenvalues"],
                            C * sv[:C - 1] ** 2, rtol=1e-10)

    def test_uncut_factors_are_not_copied(self):
        # the factors are the SVD's own, bit for bit, and the rank cut keeps
        # leading columns, so a basis is a view of them whether cut or not
        rng = np.random.default_rng(9)
        stack = rng.standard_normal((3, 12, 4))
        stack[2, :, 3] = stack[2, :, 0]
        U, s, _ = np.linalg.svd(stack, full_matrices=False)
        linalg.fix_signs(U, copy=False)
        got_U, got_s, r = linalg.range_basis(stack)
        npt.assert_array_equal(got_U, U)
        npt.assert_array_equal(got_s, s)
        assert r.tolist() == [4, 4, 3]
        for A in stack:
            u, v = cut_range_basis(A)
            assert not u.flags.owndata and not v.flags.owndata
        npt.assert_array_equal(linalg.range_basis(stack[0])[0], U[0])
        npt.assert_array_equal(cut_range_basis(stack[2])[0], U[2][:, :3])


def sine_distance(U_ref, U):
    """||(I - U_ref U_ref^T) U||_2: resolves angles below sqrt(2 eps)."""
    return np.linalg.norm(U - U_ref @ (U_ref.T @ U), 2)


class TestGramRangeBasis:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.integers(2, 6), st.integers(1, 3),
           st.sampled_from([1.0, 0.3, 0.05, 0.01]), st.integers(0, 2**32 - 1))
    def test_union_span_matches_svd_route(self, C, N, separation, seed):
        """The Gram route's frame spans the SVD route's leading 1, C - 1 and
        K columns (ascending s^2) to 1e-8, on the eigencurves shape
        L = 4 C N.  s^2 agrees to 1e-10 relative; an entry far below the
        largest is held to the eigensolver's scale, 1e-13 s^2_max, because
        the Gram's eigh resolves s^2 only to about eps s^2_max.  GDS at
        dims = K holds the whole frame and the K eigenvalues."""
        from gfda import gds_discriminant, subspace_config
        ens = subspace_config(C, N, 4 * C * N, separation=separation, seed=seed)
        gds = gds_discriminant(ens, dims=C * N)
        U, s2 = gds.projector, np.array(gds.info["eigenvalues"])
        basis, s = direct_svd_route(np.hstack([c.basis for c in ens.classes]),
                                    "left")
        U_ref, s2_ref = basis[:, ::-1], s[::-1] ** 2
        assert U.shape == U_ref.shape == (4 * C * N, C * N)
        for k in (1, C - 1, C * N):
            assert sine_distance(U_ref[:, :k], U[:, :k]) <= 1e-8
        npt.assert_allclose(s2, s2_ref, rtol=1e-10, atol=1e-13 * s2_ref[-1])
        linalg.as_ortho_basis(U)
        npt.assert_array_equal(linalg.fix_signs(U), U)

    @pytest.mark.parametrize("separation", [0.01, 0.003, 0.001])
    def test_near_overlap_frame_is_orthonormal(self, separation):
        # s^2 spans more than 1e3 here; formed from the Gram without a
        # CholeskyQR pass, 14 of these 15 frames fail as_ortho_basis.  At
        # 0.01 (s^2_min / s^2_max from 2.2e-6 to 4.1e-6) the frame stays in
        # the Gram's coordinates until GDS forms the columns it keeps with
        # that pass, run on those columns alone; at 0.003 and 0.001 it is
        # below eps / ORTHO_IP_TOL = 2.2e-6, so Q is the thin SVD's, formed
        # at once.  GDS keeps 1, C - 1 and K = 18 columns
        from gfda import gds_discriminant, subspace_config
        lifted = separation < 0.01
        for seed in range(5):
            ens = subspace_config(6, 3, 40, separation=separation, seed=seed)
            for dims in (1, 5, 18):
                with mock.patch.object(linalg, "_lifted_frame",
                                       wraps=linalg._lifted_frame) as lift_step:
                    gds = gds_discriminant(ens, dims=dims)
                U, s2 = gds.projector, gds.info["eigenvalues"]
                assert lift_step.called == lifted
                assert U.shape == (40, dims)
                if dims == 18:
                    assert s2[0] < 1e-3 * s2[-1]
                assert np.abs(U.T @ U - np.eye(dims)).max() <= 1e-14
                linalg.as_ortho_basis(U)

    def test_lifted_frame_keeps_the_svd_spectrum(self):
        # s^2_min / s^2_max = 4.5e-8 here, so the Gram's eigh holds s^2_min
        # to about 5e-9 relative: taken from it, GDS's eigenvalues sat
        # 2.7e-9 and the product form's criterion eigenvalues 1.1e-9 off
        from gfda import gds_discriminant, gfda_product_form, subspace_config
        ens = subspace_config(6, 3, 20, separation=0.01, seed=2827025930)
        with mock.patch.object(linalg, "_lifted_frame",
                               wraps=linalg._lifted_frame) as lift_step:
            gds = gds_discriminant(ens, dims=18)
            product = gfda_product_form(ens)
        assert lift_step.called
        s = np.linalg.svd(np.hstack([c.basis for c in ens.classes]),
                          compute_uv=False)
        npt.assert_allclose(gds.info["eigenvalues"], s[::-1] ** 2, rtol=1e-12)
        npt.assert_allclose(product.info["criterion_eigenvalues"], 6.0,
                            rtol=1e-12)

    def test_zero_pooled_basis_gives_empty_frame(self):
        s, Z, lift = linalg.gram_frame(np.hstack([np.zeros((5, 2)),
                                                  np.zeros((5, 1))]))
        assert lift()[0].shape == (5, 0) and s.shape == (0,)
        assert lift(np.eye(0)).shape == (5, 0) and Z.shape == (3, 0)
        s, Z, lift = linalg.gram_frame(np.zeros((3, 4)))
        assert lift()[0].shape == (3, 0) and s.shape == (0,)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 6), st.integers(1, 3),
       st.sampled_from([1.0, 0.05, 0.01, 0.003]), st.integers(0, 2**32 - 1))
def test_frame_columns_orthonormal_to_unit_norm_tol(C, N, separation, seed):
    """Frame columns keep _formed_frame's one CholeskyQR pass on the
    predicted drift, so they are held to one bound, |Q^T Q - I| <=
    UNIT_NORM_TOL: GDS at every dims on the near-overlap configurations
    subspace_config(C, N, L = 40), and the class bases fitted to N to
    N + 2 rows of standard normal coefficients drawn in each class
    subspace.  Measured on 400 such draws: up to 8.5e-13 for GDS and
    8.6e-13 for the class bases.  GDS on the fitted ensemble, which lifts
    through the rows' coordinates, is not held to it (ROADMAP item 22)."""
    from gfda import fit_ensemble, gds_discriminant, subspace_config
    ens = subspace_config(C, N, 40, separation=separation, seed=seed)
    rng = np.random.default_rng(seed)
    sizes = rng.integers(N, N + 3, C)
    X = np.vstack([rng.standard_normal((m, N)) @ c.basis.T
                   for m, c in zip(sizes, ens.classes)])
    fitted = fit_ensemble(X, np.repeat(np.arange(C), sizes), dim=N)
    s, _, _ = linalg.gram_frame(np.hstack([c.basis for c in ens.classes]))
    outputs = [c.basis for c in fitted.classes] + [
        gds_discriminant(ens, dims=k).projector for k in range(1, s.size + 1)]
    for Q in outputs:
        k = Q.shape[1]
        assert np.abs(Q.T @ Q - np.eye(k)).max() <= linalg.UNIT_NORM_TOL
