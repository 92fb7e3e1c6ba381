import numpy as np
import pytest

from zslkit import kernels
from zslkit.model import CompatModel, nll


def make_case(rng, batch, n_classes, d, m):
    W_e = rng.normal(size=(d + 1, m + 1))
    Phi_e = np.hstack([rng.normal(size=(batch, d)), np.ones((batch, 1))])
    Psi_e = np.hstack([rng.normal(size=(n_classes, m)), np.ones((n_classes, 1))])
    labels = rng.integers(0, n_classes, size=batch)
    return W_e, Phi_e, labels, Psi_e


def reference_nll(W_e, Phi_e, labels, Psi_e):
    """Log-sum-exp of each row's scores minus its true-class score, summed."""
    S = Phi_e @ W_e @ Psi_e.T
    shift = S.max(axis=1)
    logz = np.log(np.exp(S - shift[:, None]).sum(axis=1)) + shift
    return float(np.sum(logz - S[np.arange(S.shape[0]), labels]))


@pytest.mark.parametrize("batch,n_classes,d,m", [
    (1, 2, 1, 1), (6, 3, 5, 4), (32, 10, 16, 12), (100, 18, 64, 40)])
def test_kernel_nll_matches_reference(batch, n_classes, d, m):
    rng = np.random.default_rng(batch * 1000 + n_classes)
    W_e, Phi_e, labels, Psi_e = make_case(rng, batch, n_classes, d, m)
    kernel_nll, _ = kernels.nll_and_grad(W_e, Phi_e, labels, Psi_e)
    assert kernel_nll == pytest.approx(reference_nll(W_e, Phi_e, labels, Psi_e),
                                       rel=1e-12, abs=1e-10)


def test_kernel_nll_matches_model_nll():
    rng = np.random.default_rng(42)
    W_e, Phi_e, labels, Psi_e = make_case(rng, 12, 5, 7, 6)
    kernel_nll, _ = kernels.nll_and_grad(W_e, Phi_e, labels, Psi_e)
    reference = nll(CompatModel(W_e), Phi_e[:, :-1], labels, Psi_e[:, :-1])
    assert kernel_nll == pytest.approx(reference, abs=1e-10)


def test_large_scores_do_not_overflow():
    # scores 1000 and 0: an unshifted exp(1000) would overflow
    W_e = np.zeros((2, 2))
    W_e[0, 0] = 1000.0
    Phi_e = np.array([[1.0, 1.0]])
    Psi_e = np.array([[1.0, 1.0], [0.0, 1.0]])
    with np.errstate(over="raise"):
        value, G = kernels.nll_and_grad(W_e, Phi_e, np.array([1]), Psi_e)
    assert value == pytest.approx(1000.0)
    np.testing.assert_allclose(G, [[1.0, 0.0], [1.0, 0.0]], atol=1e-12)
