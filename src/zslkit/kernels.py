"""Hot training-step kernel: batch scores -> shifted softmax -> summed
negative log-likelihood and its gradient in the extended parameter space."""

import numpy as np


def nll_and_grad(W_e, Phi_e, label_idx, Psi_e):
    """Summed NLL over a batch and the (d+1)x(m+1) gradient matrix.

    Phi_e:     (B, d+1) extended image embeddings
    label_idx: (B,) int64 indices into the training class ordering
    Psi_e:     (K, m+1) extended class embeddings
    """
    S = Phi_e @ (W_e @ Psi_e.T)  # (B, K)
    shift = S.max(axis=1, keepdims=True)
    E = np.exp(S - shift)
    Z = E.sum(axis=1, keepdims=True)
    rows = np.arange(S.shape[0])
    nll = float(np.sum(np.log(Z[:, 0]) + shift[:, 0] - S[rows, label_idx]))
    R = E / Z  # posteriors
    R[rows, label_idx] -= 1.0
    G = Phi_e.T @ (R @ Psi_e)
    return nll, G
