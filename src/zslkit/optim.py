"""Plain SGD and Adam, written out explicitly.

SGD steps params <- params - alpha * G. Adam keeps exponential moving
averages of the gradient and its elementwise square,

    M <- beta1 * M + (1 - beta1) * G
    V <- beta2 * V + (1 - beta2) * G**2

corrects their initialization bias with 1/(1 - beta^t), and scales the step
per entry:

    params <- params - alpha * M_hat / (sqrt(V_hat) + eps)

Note eps sits outside the square root. `sgd_update` and `adam_update` work
in place through one walk over row blocks; `sgd_step` and `adam_step` apply
them to copies.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError

# Elements per block of the in-place updates: four operand blocks and two
# scratch blocks of this size (6 x 256 KiB) fit a 2 MiB per-core L2 cache.
ADAM_BLOCK = 2 ** 15


@dataclass
class SgdState:
    alpha: float = 1e-3


@dataclass
class AdamState:
    alpha: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    t: int = 0
    M: np.ndarray | None = None
    V: np.ndarray | None = None

    @classmethod
    def for_shape(cls, shape, alpha=1e-3, beta1=0.9, beta2=0.999,
                  epsilon=1e-8) -> "AdamState":
        return cls(alpha=alpha, beta1=beta1, beta2=beta2, epsilon=epsilon,
                   t=0, M=np.zeros(shape), V=np.zeros(shape))


def block_rows(row_len: int) -> int:
    """Rows per block of the walk over arrays with rows of `row_len`
    elements: about ADAM_BLOCK elements a block, at least one row."""
    return max(1, ADAM_BLOCK // max(1, row_len))


def _walk_row_blocks(params, grad, update_block, *moments) -> None:
    """Update `params` and `moments` in place, `block_rows` rows at a time:
    `update_block(p, g, a, *m)` gets one block of the parameters, the
    gradient, a scratch array and the moments. g and a are reused from block
    to block, so the update may overwrite g once it has read it.

    `grad` is the gradient array, or a callable `grad(start, stop, out)`
    that writes rows [start, stop) of the gradient into `out`, a C-contiguous
    (stop - start, row length) block; it is called once per block, just
    before that block's arithmetic, so the full gradient never exists.
    """
    n_rows = params.shape[0] if params.ndim else 1
    row_len = params.size // n_rows if n_rows else 0
    fill = grad
    if not callable(grad):
        G = np.asarray(grad, dtype=np.float64)
        if G.shape != params.shape:
            raise ShapeMismatchError(
                f"gradient shape {G.shape} does not match parameters {params.shape}")
        G = G.reshape(n_rows, row_len)

        def fill(start, stop, out):
            np.copyto(out, G[start:stop])
    for a in moments:
        if a.shape != params.shape:
            raise ShapeMismatchError(
                f"moment shape {a.shape} does not match parameters {params.shape}")
    for a in (params, *moments):
        if a.dtype != np.float64 or not a.flags.c_contiguous or not a.flags.writeable:
            raise ValueError("an in-place update needs writeable C-contiguous "
                             "float64 parameters and moments")
    P, *Ms = (a.reshape(n_rows, row_len) for a in (params, *moments))
    step = block_rows(row_len)
    g_buf = np.empty((min(step, n_rows), row_len))
    a_buf = np.empty_like(g_buf)
    for start in range(0, n_rows, step):
        stop = min(start + step, n_rows)
        g, a = g_buf[:stop - start], a_buf[:stop - start]
        fill(start, stop, g)
        update_block(P[start:stop], g, a, *(M[start:stop] for M in Ms))


def sgd_update(state: SgdState, params: np.ndarray, grad) -> None:
    """One SGD update in place: overwrites `params` with the bits of
    `params - alpha * grad`. `grad` is an array or a block-filling callable,
    as for `_walk_row_blocks`."""
    alpha = state.alpha

    def update_block(p, g, a):
        np.multiply(g, alpha, out=a)
        np.subtract(p, a, out=p)

    _walk_row_blocks(params, grad, update_block)


def adam_update(state: AdamState, params: np.ndarray, grad) -> None:
    """One Adam update in place: overwrites `params`, `state.M` and `state.V`
    and advances `state.t`; allocates the moments if they are None. `grad`
    is an array or a block-filling callable, as for `_walk_row_blocks`.
    Every element goes through the operations of the module docstring in
    their order."""
    if state.M is None or state.V is None:
        state.M, state.V = np.zeros_like(params), np.zeros_like(params)
    alpha, b1, b2, eps, t = (state.alpha, state.beta1, state.beta2,
                             state.epsilon, state.t + 1)
    c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t

    def update_block(p, g, a, m, v):
        np.multiply(m, b1, out=m)            # M = b1*M + (1-b1)*g
        np.multiply(g, 1.0 - b1, out=a)
        np.add(m, a, out=m)
        np.multiply(g, 1.0 - b2, out=a)      # V = b2*V + ((1-b2)*g)*g
        np.multiply(a, g, out=a)
        np.multiply(v, b2, out=v)
        np.add(v, a, out=v)
        np.divide(m, c1, out=a)              # alpha * M_hat
        np.multiply(a, alpha, out=a)
        np.divide(v, c2, out=g)              # sqrt(V_hat) + eps, over g
        np.sqrt(g, out=g)
        np.add(g, eps, out=g)
        np.divide(a, g, out=a)
        np.subtract(p, a, out=p)

    _walk_row_blocks(params, grad, update_block, state.M, state.V)
    state.t = t


def _copy(a) -> np.ndarray | None:
    return None if a is None else np.array(a, dtype=np.float64, order="C")


def sgd_step(state: SgdState, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """One update, params - alpha * grad, as a fresh array."""
    params = _copy(params)
    sgd_update(state, params, grad)
    return params


def adam_step(state: AdamState, params: np.ndarray,
              grad: np.ndarray) -> tuple[np.ndarray, AdamState]:
    """One Adam update: `adam_update` on copies, so the input state is not
    mutated."""
    params = _copy(params)
    state = dataclasses.replace(state, M=_copy(state.M), V=_copy(state.V))
    adam_update(state, params, grad)
    return params, state
