import numpy as np
import numpy.testing as npt
import pytest

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
        res = linalg.canonical_angles(U, V)
        npt.assert_allclose(res.cosines, [0.5], atol=1e-14)
        npt.assert_allclose(res.left[:, 0], [1.0, 0.0], atol=1e-14)
        npt.assert_allclose(res.right[:, 0], [0.5, np.sqrt(3) / 2], atol=1e-14)

    def test_identical_span_different_bases(self):
        rng = np.random.default_rng(3)
        U = random_orthonormal(rng, 8, 3)
        R, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        res = linalg.canonical_angles(U, U @ R)
        npt.assert_allclose(res.cosines, np.ones(3), atol=1e-12)

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(4)
        U = random_orthonormal(rng, 10, 3)
        V = random_orthonormal(rng, 10, 3)
        npt.assert_allclose(linalg.canonical_angles(U, V).cosines,
                            linalg.canonical_angles(V, U).cosines, atol=1e-12)

    def test_invariant_under_basis_change(self):
        rng = np.random.default_rng(6)
        U = random_orthonormal(rng, 10, 4)
        V = random_orthonormal(rng, 10, 2)
        RU, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        npt.assert_allclose(linalg.canonical_angles(U @ RU, V).cosines,
                            linalg.canonical_angles(U, V).cosines, atol=1e-12)

    def test_matches_alternating_projection_oracle(self):
        rng = np.random.default_rng(7)
        U = random_orthonormal(rng, 10, 3)
        V = random_orthonormal(rng, 10, 3)
        res = linalg.canonical_angles(U, V)
        oracle = alternating_projection_cosines(U, V)
        npt.assert_allclose(res.cosines, oracle, atol=1e-6)

    def test_paired_vectors_consistent(self):
        rng = np.random.default_rng(8)
        U = random_orthonormal(rng, 12, 4)
        V = random_orthonormal(rng, 12, 3)
        res = linalg.canonical_angles(U, V)
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
        res = linalg.canonical_angles(U, V)
        W = U.T @ res.left
        npt.assert_allclose(linalg.fix_signs(W), W, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            linalg.canonical_angles(np.eye(3)[:, :1], np.eye(4)[:, :1])


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
    cos = linalg.canonical_angles(A, B).cosines
    assert 1.0 - cos.min() <= 1e-8


class TestRangeBasis:
    def test_rank_deficient_drops_exactly_the_zero_directions(self):
        A = sample_matrix("rank-deficient", 1)
        U, s = linalg.range_basis(A)
        assert U.shape == (30, np.linalg.matrix_rank(A)) and s.shape == (U.shape[1],)
        npt.assert_allclose(U.T @ U, np.eye(U.shape[1]), atol=1e-12)
        assert np.linalg.norm(A - U @ (U.T @ A)) <= 1e-12 * np.linalg.norm(A)
        npt.assert_allclose(s, np.linalg.svd(A, compute_uv=False)[:U.shape[1]],
                            rtol=1e-12)

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_sign_convention_and_order(self, shape):
        U, s = linalg.range_basis(sample_matrix(shape, 2))
        npt.assert_array_equal(linalg.fix_signs(U), U)
        for col in U.T:
            nz = np.nonzero(np.abs(col) > 1e-12 * np.abs(col).max())[0]
            assert col[nz[0]] > 0
        assert np.all(np.diff(s) <= 0)

    def test_zero_matrix_gives_empty_basis(self):
        U, s = linalg.range_basis(np.zeros((4, 3)))
        assert U.shape == (4, 0) and s.shape == (0,)

    def test_stack_matches_one_call_per_matrix(self):
        # one batched factorization, bit for bit the per-matrix results;
        # the rank is decided per matrix (full, deficient, zero)
        rng = np.random.default_rng(8)
        stack = rng.standard_normal((3, 12, 4)) + 0.5
        stack[1, :, 3] = stack[1, :, 0] + stack[1, :, 1]
        stack[2] = 0.0
        pairs = linalg.range_basis(stack)
        assert [U.shape[1] for U, _ in pairs] == [4, 3, 0]
        for A, (U, s) in zip(stack, pairs):
            U1, s1 = linalg.range_basis(A)
            npt.assert_array_equal(U, U1)
            npt.assert_array_equal(s, s1)

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
        from types import SimpleNamespace

        from gfda import union_span
        pooled = sample_matrix(shape, 4).T
        U, s2 = union_span([SimpleNamespace(basis=pooled)])
        basis, s = direct_svd_route(pooled, "left")
        assert_same_span(U, basis)
        npt.assert_allclose(s2, s[::-1] ** 2, rtol=1e-10)

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_centred_frame_matches_direct_svd(self, shape):
        # the frame stops at the rank of the centred rows; the direct SVD's
        # leading columns up to that rank span the same space
        from gfda import fisher
        X = sample_matrix(shape, 5)
        y = np.arange(X.shape[0]) % 3
        *_, s, Q = fisher._centred_frame(X, y)
        centred = X - X.mean(axis=0)
        assert Q.shape[1] == np.linalg.matrix_rank(centred)
        _, s_ref, vt = np.linalg.svd(centred, full_matrices=False)
        assert_same_span(Q, vt[:Q.shape[1]].T)
        npt.assert_allclose(s, s_ref[:Q.shape[1]], rtol=1e-10)

    @pytest.mark.parametrize("C,N,L", [(3, 2, 6), (4, 1, 30), (5, 3, 60)])
    def test_product_form_matches_direct_svd(self, C, N, L):
        from gfda import (aligned_first_vectors, gfda_product_form,
                          subspace_config, union_span)
        ens = subspace_config(C, N, L, separation=0.5, seed=C + L)
        U, s2 = union_span(ens.classes)
        wmap = U.T / np.sqrt(s2)[:, None]
        hats = aligned_first_vectors(ens) @ wmap.T
        _, sv, vt = np.linalg.svd(hats - hats.mean(axis=0),
                                  full_matrices=False)
        model = gfda_product_form(ens)
        assert_same_span(linalg.gram_schmidt(model.projector),
                         linalg.gram_schmidt(wmap.T @ vt[:C - 1].T))
        npt.assert_allclose(model.info["criterion_eigenvalues"],
                            C * sv[:C - 1] ** 2, rtol=1e-10)
