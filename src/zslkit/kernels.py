"""Hot training-step kernel: batch scores -> shifted softmax -> summed
negative log-likelihood and a factor of its gradient.

`scores`, which `model.score_matrix` also calls, scores plain (B, d) rows
as Phi @ P[:d] + P[d], P = W_e @ Psi_e.T: the rows' implicit 1 selects P[d].
The gradient G = A @ Psi_e, A = [Phi 1].T @ R with R the (B, K) posteriors
minus the one-hot labels, has rank at most K, the number of training
classes. So the kernel returns only A, and `grad_rows` forms G from it one
row block at a time: a training step never holds the full (d+1, m+1) gradient.
P and G are formed in the row blocks of W_e that `optim.block_rows` gives, by
`class_rows` and `grad_rows`: a row block of a BLAS product can differ from
the same rows of the full product in the last bits, so forming them in the
same blocks everywhere gives every caller the same values. Training forms
each block's P right after updating it, so a step reads W_e once.
"""

import numpy as np

from .optim import block_rows


def class_rows(W_e, Psi_e, start, stop, out):
    """Write rows [start, stop) of P = W_e @ Psi_e.T into `out`."""
    np.matmul(W_e[start:stop], Psi_e.T, out=out)


def _by_blocks(rows, left, Psi_e, cols):
    """The (len(left), cols) array `rows(left, Psi_e, start, stop, out)`
    fills in the row blocks of W_e, whose rows are as long as Psi_e's."""
    out = np.empty((len(left), cols))
    step = block_rows(Psi_e.shape[1])
    for start in range(0, len(out), step):
        rows(left, Psi_e, start, start + step, out[start:start + step])
    return out


def class_factor(W_e, Psi_e):
    """P = W_e @ Psi_e.T, formed by `class_rows` in the row blocks of W_e."""
    return _by_blocks(class_rows, W_e, Psi_e, len(Psi_e))


def scores(W_e, Phi, Psi_e, P=None):
    """(B, K) scores of plain rows Phi (B, d) against extended classes Psi_e,
    from their `class_factor` P, or from the P given."""
    if P is None:
        P = class_factor(W_e, Psi_e)
    S = Phi @ P[:-1]
    S += P[-1]
    return S


def nll_and_grad(W_e, Phi, label_idx, Psi_e, P=None, out=None):
    """Summed NLL over a batch and the (d+1, K) left factor A of its
    gradient G = A @ Psi_e, written into `out` if given. Given P, the
    W_e @ Psi_e.T that training's sweep formed, W_e is not read.

    Phi:       (B, d) image embeddings
    label_idx: (B,) int64 indices into the training class ordering
    Psi_e:     (K, m+1) extended class embeddings
    """
    S = scores(W_e, Phi, Psi_e, P)
    shift = S.max(axis=1, keepdims=True)
    E = np.exp(S - shift)
    Z = E.sum(axis=1, keepdims=True)
    rows = np.arange(S.shape[0])
    nll = float(np.sum(np.log(Z[:, 0]) + shift[:, 0] - S[rows, label_idx]))
    R = E / Z  # posteriors
    R[rows, label_idx] -= 1.0
    A = np.empty((Phi.shape[1] + 1, R.shape[1])) if out is None else out
    np.matmul(Phi.T, R, out=A[:-1])
    A[-1] = R.sum(axis=0)
    return nll, A


def grad_rows(A, Psi_e, start, stop, out):
    """Write rows [start, stop) of the gradient G = A @ Psi_e into `out`."""
    np.matmul(A[start:stop], Psi_e, out=out)


def gradient(A, Psi_e):
    """The full (d+1, m+1) gradient A @ Psi_e, assembled by `grad_rows` in
    the row blocks in which the in-place updates of `optim` form it."""
    return _by_blocks(grad_rows, A, Psi_e, Psi_e.shape[1])
