"""Property tests: the union-span frame reproduces the L x L route.

Each reference below is the algorithm as it runs on full L x L matrices:
eigendecompose the summed projection matrix G (sum_matrix), keep its
nonzero part, and work with the gFDA pair from scatter_ladder.  The
constructions under test never form an L x L matrix; they must give the
same spans (canonical angles to 1e-8), the same GDS dimension, and the same
eigenvalues (to 1e-10 of the spectrum's scale).
"""

import numpy as np
import numpy.testing as npt
from hypothesis import given, settings
from hypothesis import strategies as st

import gfda
from gfda import fisher, linalg

SPAN_TOL = 1e-8
EIG_TOL = 1e-10

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None)


@st.composite
def ensembles(draw):
    C = draw(st.integers(2, 6))
    N = draw(st.integers(1, 3))
    L = C * N + draw(st.integers(0, 3 * C * N))
    separation = draw(st.sampled_from([1.0, 0.8, 0.5, 0.3]))
    seed = draw(st.integers(0, 2**32 - 1))
    return gfda.subspace_config(C, N, L, separation=separation, seed=seed)


def same_span(A, B):
    assert A.shape == B.shape
    cos = linalg.canonical_angles(A, B).cosines
    assert 1.0 - cos.min() <= SPAN_TOL


def nonzero_spectrum_of_g(ens):
    eig = linalg.sym_eig(gfda.sum_matrix(ens))
    keep = eig.values > linalg.RANK_TOL * eig.values[-1]
    return eig.values[keep], eig.vectors[:, keep]


def loop_pairwise_difference(F):
    C, L = F.shape
    S = np.zeros((L, L))
    for i in range(C):
        for j in range(i + 1, C):
            d = F[i] - F[j]
            S += np.outer(d, d)
    return S


@PROPERTY
@given(ensembles())
def test_linear_form_matches_full_route(ens):
    C = ens.n_classes
    pair = gfda.scatter_ladder(ens, "gFDA")
    _, span = nonzero_spectrum_of_g(ens)
    ghat = pair.within - pair.between / C
    eig = linalg.sym_eig(span.T @ ghat @ span)

    model = gfda.gfda_linear_form(ens)
    same_span(model.basis, span @ eig.vectors[:, :C - 1])
    scale = max(abs(eig.values[-1]), 1.0)
    npt.assert_allclose(model.info["selected_eigenvalues"],
                        eig.values[:C - 1], rtol=0, atol=EIG_TOL * scale)


@PROPERTY
@given(ensembles())
def test_product_form_matches_full_route(ens):
    C = ens.n_classes
    pooled = np.hstack([c.basis for c in ens.classes])
    reducer = linalg.gram_schmidt(pooled)
    projected = reducer.T @ pooled
    white = linalg.whitening(projected @ projected.T)
    wmap = white.T @ reducer.T
    hats = wmap @ gfda.aligned_first_vectors(ens).T
    eig = linalg.sym_eig(loop_pairwise_difference(hats.T))
    top = eig.vectors[:, ::-1][:, :C - 1]

    model = gfda.gfda_product_form(ens)
    same_span(model.effective_basis(), linalg.gram_schmidt(wmap.T @ top))
    npt.assert_allclose(model.info["criterion_eigenvalues"],
                        eig.values[::-1][:C - 1], rtol=0, atol=EIG_TOL * C)


@PROPERTY
@given(ensembles(), st.integers(1, 12))
def test_gds_fixed_dims_matches_full_route(ens, dims):
    vals, vecs = nonzero_spectrum_of_g(ens)
    dims = min(dims, vals.size)
    model = gfda.gds(ens, dims=dims)
    assert model.selection.dims == dims
    same_span(model.basis, vecs[:, :dims])
    npt.assert_allclose(model.eigenvalues, vals[:dims], rtol=0,
                        atol=EIG_TOL * vals[-1])


@PROPERTY
@given(ensembles(), st.sampled_from([0.5, 0.7, 0.9]))
def test_gds_gamma_matches_full_route(ens, gamma):
    C = ens.n_classes
    vals, vecs = nonzero_spectrum_of_g(ens)
    powers = gfda.discriminant_power_curve(vecs,
                                           gfda.scatter_ladder(ens, "gFDA"))
    cumulative = np.cumsum(powers)
    dims = int(np.nonzero(cumulative >= C * (C - 1) * gamma - 1e-9)[0][0]) + 1

    model = gfda.gds(ens, gamma=gamma)
    assert model.selection.dims == dims
    same_span(model.basis, vecs[:, :dims])
    npt.assert_allclose(model.eigenvalues, vals[:dims], rtol=0,
                        atol=EIG_TOL * vals[-1])
    npt.assert_allclose(model.selection.achieved_power, cumulative[dims - 1],
                        rtol=0, atol=EIG_TOL * C * C)


@PROPERTY
@given(st.integers(2, 8), st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_pairwise_difference_closed_form(C, L, seed):
    F = np.random.default_rng(seed).standard_normal((C, L))
    expected = loop_pairwise_difference(F)
    npt.assert_allclose(fisher.pairwise_difference_matrix(F), expected,
                        rtol=0, atol=1e-12 * max(np.abs(expected).max(), 1.0))


@PROPERTY
@given(ensembles())
def test_gds_decomposition_closed_form(ens):
    C = ens.n_classes
    L = ens.ambient_dim
    F = gfda.aligned_first_vectors(ens)
    coef = 1.0 / (2.0 * (C - 1))
    B = np.zeros((L, L))
    W5 = np.zeros((L, L))
    for j in range(C):
        for k in range(j + 1, C):
            z, zp = F[j] - F[k], F[j] + F[k]
            B += np.outer(z, z)
            W5 += coef * np.outer(zp, zp)
    for c in ens.classes:
        W5 += c.basis[:, 1:] @ c.basis[:, 1:].T

    term_b, w5 = gfda.gds_decomposition(ens)
    npt.assert_allclose(term_b, coef * B, rtol=0, atol=1e-12 * C)
    npt.assert_allclose(w5, W5, rtol=0, atol=1e-12 * C)
