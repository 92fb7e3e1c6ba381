import numpy as np
import pytest

from zslkit import kernels
from zslkit.model import CompatModel, extend_embedding, gradient, nll, score_matrix


def make_case(rng, batch, n_classes, d, m):
    W_e = rng.normal(size=(d + 1, m + 1))
    Phi = rng.normal(size=(batch, d))
    Psi_e = np.hstack([rng.normal(size=(n_classes, m)), np.ones((n_classes, 1))])
    labels = rng.integers(0, n_classes, size=batch)
    return W_e, Phi, labels, Psi_e


def reference_nll(W_e, Phi, labels, Psi_e):
    """Log-sum-exp of each row's scores minus its true-class score, summed."""
    S = extend_embedding(Phi) @ W_e @ Psi_e.T
    shift = S.max(axis=1)
    logz = np.log(np.exp(S - shift[:, None]).sum(axis=1)) + shift
    return float(np.sum(logz - S[np.arange(S.shape[0]), labels]))


@pytest.mark.parametrize("batch,n_classes,d,m", [
    (1, 2, 1, 1), (6, 3, 5, 4), (32, 10, 16, 12), (100, 18, 64, 40)])
def test_kernel_nll_matches_reference(batch, n_classes, d, m):
    rng = np.random.default_rng(batch * 1000 + n_classes)
    W_e, Phi, labels, Psi_e = make_case(rng, batch, n_classes, d, m)
    kernel_nll, _ = kernels.nll_and_grad(W_e, Phi, labels, Psi_e)
    assert kernel_nll == pytest.approx(reference_nll(W_e, Phi, labels, Psi_e),
                                       rel=1e-12, abs=1e-10)


def test_kernel_nll_matches_model_nll():
    rng = np.random.default_rng(42)
    W_e, Phi, labels, Psi_e = make_case(rng, 12, 5, 7, 6)
    kernel_nll, _ = kernels.nll_and_grad(W_e, Phi, labels, Psi_e)
    reference = nll(CompatModel(W_e), Phi, labels, Psi_e[:, :-1])
    assert kernel_nll == pytest.approx(reference, abs=1e-10)


def test_large_scores_do_not_overflow():
    # scores 1000 and 0: an unshifted exp(1000) would overflow
    W_e = np.zeros((2, 2))
    W_e[0, 0] = 1000.0
    Phi = np.array([[1.0]])
    Psi_e = np.array([[1.0, 1.0], [0.0, 1.0]])
    with np.errstate(over="raise"):
        value, _ = kernels.nll_and_grad(W_e, Phi, np.array([1]), Psi_e)
        G = gradient(CompatModel(W_e), Phi, [1], Psi_e[:, :-1])
    assert value == pytest.approx(1000.0)
    np.testing.assert_allclose(G, [[1.0, 0.0], [1.0, 0.0]], atol=1e-12)


def full_gradient(W_e, Phi, labels, Psi_e):
    """The gradient as the full (d+1) x (m+1) product Phi_e.T @ (R @ Psi_e),
    Phi_e the rows extended by a 1 and R the posteriors minus the one-hot
    labels."""
    Phi_e = extend_embedding(Phi)
    S = Phi_e @ (W_e @ Psi_e.T)
    E = np.exp(S - S.max(axis=1, keepdims=True))
    R = E / E.sum(axis=1, keepdims=True)
    R[np.arange(len(labels)), labels] -= 1.0
    return Phi_e.T @ (R @ Psi_e)


@pytest.mark.parametrize("d,m", [(2048, 541), (512, 541), (64, 92)])
def test_factored_gradient_matches_full_product(d, m):
    rng = np.random.default_rng(d + m)
    W_e, Phi, labels, Psi_e = make_case(rng, 100, 24, d, m)
    W_e /= np.sqrt(d * m)  # scores of order one, so no posterior saturates
    _, A = kernels.nll_and_grad(W_e, Phi, labels, Psi_e)
    assert A.shape == (d + 1, 24)
    G = kernels.gradient(A, Psi_e)
    expected = full_gradient(W_e, Phi, labels, Psi_e)
    assert np.abs(G - expected).max() <= 1e-12 * np.abs(expected).max()
    model_G = gradient(CompatModel(W_e), Phi, labels, Psi_e[:, :-1])
    assert model_G.tobytes() == G.tobytes()


def kernel_softmax_nll(S, labels):
    """The summed NLL of a score matrix, by the kernel's own operations."""
    shift = S.max(axis=1, keepdims=True)
    Z = np.exp(S - shift).sum(axis=1, keepdims=True)
    rows = np.arange(S.shape[0])
    return float(np.sum(np.log(Z[:, 0]) + shift[:, 0] - S[rows, labels]))


# W_e of 4 x 5 fits one row block of the update; 256 x 161 spans two.
@pytest.mark.parametrize("d,m", [(3, 4), (255, 160)])
def test_training_and_inference_score_alike(d, m):
    # The scores the kernel's NLL is formed from are score_matrix's, bit
    # for bit, for the same W_e, plain rows and classes.
    rng = np.random.default_rng(d * m)
    W_e, Phi, labels, Psi_e = make_case(rng, 100, 24, d, m)
    W_e /= np.sqrt(d * m)
    S = score_matrix(CompatModel(W_e), Phi, Psi_e[:, :-1])
    assert kernels.scores(W_e, Phi, Psi_e).tobytes() == S.tobytes()
    kernel_nll, _ = kernels.nll_and_grad(W_e, Phi, labels, Psi_e)
    assert kernel_nll == kernel_softmax_nll(S, labels)
