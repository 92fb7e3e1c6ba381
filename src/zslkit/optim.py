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
so a training loop allocates nothing per step.
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


def adam_update(state: AdamState, params: np.ndarray, grad: np.ndarray) -> None:
    """One Adam update in place: overwrites `params`, `state.M` and `state.V`
    and advances `state.t`.

    Bit-identical to `adam_step`: every element goes through the same
    operations in the same order. The arrays are walked in blocks of
    ADAM_BLOCK consecutive elements, so each block's temporaries live in two
    reused scratch buffers instead of eight full-size arrays.
    """
    if params.shape != grad.shape:
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
    P, M, V = params.reshape(-1), state.M.reshape(-1), state.V.reshape(-1)
    G = np.ascontiguousarray(grad, dtype=np.float64).reshape(-1)
    a_buf = np.empty(min(ADAM_BLOCK, P.size))
    b_buf = np.empty_like(a_buf)
    for start in range(0, P.size, ADAM_BLOCK):
        stop = min(start + ADAM_BLOCK, P.size)
        p, m, v, g = P[start:stop], M[start:stop], V[start:stop], G[start:stop]
        a, b = a_buf[:stop - start], b_buf[:stop - start]
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
