"""Plain SGD and Adam, written out explicitly.

Adam keeps exponential moving averages of the gradient and its elementwise
square,

    M <- beta1 * M + (1 - beta1) * G
    V <- beta2 * V + (1 - beta2) * G**2

corrects their initialization bias with 1/(1 - beta^t), and scales the step
per entry:

    params <- params - alpha * M_hat / (sqrt(V_hat) + eps)

Note eps sits outside the square root.

`adam_step` is the functional form: it returns fresh arrays and leaves its
inputs alone. `adam_update` applies the same step in place, block by block,
and can form each block of the gradient just before it is used, so a
training loop allocates no full-size array per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError

# Elements per block of the in-place Adam update: four operand blocks and two
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


def _check_shapes(params: np.ndarray, grad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    params = np.asarray(params, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    if params.shape != grad.shape:
        raise ShapeMismatchError(
            f"gradient shape {grad.shape} does not match parameters {params.shape}")
    return params, grad


def sgd_step(state: SgdState, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """One update: params - alpha * grad."""
    params, grad = _check_shapes(params, grad)
    return params - state.alpha * grad


def adam_step(state: AdamState, params: np.ndarray,
              grad: np.ndarray) -> tuple[np.ndarray, AdamState]:
    """One Adam update. Returns fresh arrays; the input state is not mutated."""
    params, grad = _check_shapes(params, grad)
    if state.M is None or state.V is None:
        state = AdamState(state.alpha, state.beta1, state.beta2, state.epsilon,
                          state.t, np.zeros_like(params), np.zeros_like(params))
    if state.M.shape != params.shape:
        raise ShapeMismatchError(
            f"moment shape {state.M.shape} does not match parameters {params.shape}")
    t = state.t + 1
    M = state.beta1 * state.M + (1.0 - state.beta1) * grad
    V = state.beta2 * state.V + (1.0 - state.beta2) * grad * grad
    M_hat = M / (1.0 - state.beta1 ** t)
    V_hat = V / (1.0 - state.beta2 ** t)
    new_params = params - state.alpha * M_hat / (np.sqrt(V_hat) + state.epsilon)
    new_state = AdamState(state.alpha, state.beta1, state.beta2, state.epsilon,
                          t, M, V)
    return new_params, new_state


def block_rows(row_len: int) -> int:
    """Rows per block of `adam_update`'s walk over arrays whose rows hold
    `row_len` elements: about ADAM_BLOCK elements a block, at least one row."""
    return max(1, ADAM_BLOCK // max(1, row_len))


def adam_update(state: AdamState, params: np.ndarray, grad) -> None:
    """One Adam update in place: overwrites `params`, `state.M` and `state.V`
    and advances `state.t`.

    `grad` is the gradient array, or a callable `grad(start, stop, out)`
    that writes rows [start, stop) of the gradient into `out`, a C-contiguous
    (stop - start, row length) block; it is called once per block, just
    before that block's arithmetic, so the full gradient never exists.

    Bit-identical to `adam_step`: every element goes through the same
    operations in the same order. The arrays are walked in blocks of
    `block_rows` consecutive rows, so each block's temporaries live in two
    reused scratch buffers instead of eight full-size arrays.
    """
    fill = grad if callable(grad) else None
    if fill is None and params.shape != grad.shape:
        raise ShapeMismatchError(
            f"gradient shape {grad.shape} does not match parameters {params.shape}")
    if state.M is None or state.V is None:
        state.M, state.V = np.zeros_like(params), np.zeros_like(params)
    if state.M.shape != params.shape or state.V.shape != params.shape:
        raise ShapeMismatchError(
            f"moment shape {state.M.shape} does not match parameters {params.shape}")
    for a in (params, state.M, state.V):
        if a.dtype != np.float64 or not a.flags.c_contiguous or not a.flags.writeable:
            raise ValueError("adam_update needs writeable C-contiguous float64 "
                             "parameters and moments")
    state.t += 1
    b1, b2, t = state.beta1, state.beta2, state.t
    c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
    n_rows = params.shape[0] if params.ndim else 1
    row_len = params.size // n_rows if n_rows else 0
    P, M, V = (a.reshape(n_rows, row_len) for a in (params, state.M, state.V))
    step = block_rows(row_len)
    a_buf = np.empty((min(step, n_rows), row_len))
    b_buf = np.empty_like(a_buf)
    if fill is None:
        G = np.ascontiguousarray(grad, dtype=np.float64).reshape(n_rows, row_len)
    for start in range(0, n_rows, step):
        stop = min(start + step, n_rows)
        p, m, v = P[start:stop], M[start:stop], V[start:stop]
        a, b = a_buf[:stop - start], b_buf[:stop - start]
        if fill is None:
            g = G[start:stop]
        else:
            g = b  # a filled block is last read before b is next written
            fill(start, stop, g)
        np.multiply(m, b1, out=m)            # M = b1*M + (1-b1)*g
        np.multiply(g, 1.0 - b1, out=a)
        np.add(m, a, out=m)
        np.multiply(g, 1.0 - b2, out=a)      # V = b2*V + ((1-b2)*g)*g
        np.multiply(a, g, out=a)
        np.multiply(v, b2, out=v)
        np.add(v, a, out=v)
        np.divide(m, c1, out=a)              # alpha * M_hat
        np.multiply(a, state.alpha, out=a)
        np.divide(v, c2, out=b)              # sqrt(V_hat) + eps
        np.sqrt(b, out=b)
        np.add(b, state.epsilon, out=b)
        np.divide(a, b, out=a)
        np.subtract(p, a, out=p)
