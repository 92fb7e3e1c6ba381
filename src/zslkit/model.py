"""Extended bilinear compatibility model.

The score of an image embedding phi (length d) against a class embedding psi
(length m) is

    F(phi, psi) = phi' W psi + w_x' phi + w_y' psi + b

with all four parameter groups packed into one extended matrix

    W_e = [[W,   w_x],
           [w_y,   b]]     shape (d+1, m+1)

so that F equals the bilinear product of the extended vectors [phi 1] and
[psi 1]. Training therefore learns the linear terms and the bias through the
same update as W.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import EmptyClassSetError, ShapeMismatchError, UnseenLabelError


@dataclass
class CompatModel:
    """Wrapper around the extended compatibility matrix."""

    W_e: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.W_e, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] < 2 or arr.shape[1] < 2:
            raise ShapeMismatchError(
                f"W_e must be at least 2x2, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ShapeMismatchError("W_e entries must be finite")
        self.W_e = arr

    @classmethod
    def zeros(cls, d: int, m: int) -> "CompatModel":
        return cls(np.zeros((d + 1, m + 1)))

    @property
    def d(self) -> int:
        return self.W_e.shape[0] - 1

    @property
    def m(self) -> int:
        return self.W_e.shape[1] - 1

    @property
    def W(self) -> np.ndarray:
        return self.W_e[: self.d, : self.m]

    @property
    def w_x(self) -> np.ndarray:
        return self.W_e[: self.d, self.m]

    @property
    def w_y(self) -> np.ndarray:
        return self.W_e[self.d, : self.m]

    @property
    def b(self) -> float:
        return float(self.W_e[self.d, self.m])

    def copy(self) -> "CompatModel":
        return CompatModel(self.W_e.copy())


def extend_embedding(v: np.ndarray) -> np.ndarray:
    """Append a constant 1 along the last axis (works on vectors and row stacks)."""
    v = np.asarray(v, dtype=np.float64)
    pad = np.ones(v.shape[:-1] + (1,), dtype=np.float64)
    return np.concatenate([v, pad], axis=-1)


def _class_matrix(classes, m: int) -> np.ndarray:
    """Accept a ClassEmbeddingSet or a (K, m) array."""
    matrix = getattr(classes, "matrix", classes)
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim == 1:
        matrix = matrix[None, :]
    if matrix.shape[0] == 0:
        raise EmptyClassSetError("candidate class set is empty")
    if matrix.shape[1] != m:
        raise ShapeMismatchError(
            f"class embeddings have length {matrix.shape[1]}, expected {m}")
    return matrix


def score(model: CompatModel, phi: np.ndarray, psi: np.ndarray) -> float:
    """Four-term expanded form; equals the extended bilinear product."""
    phi = np.asarray(phi, dtype=np.float64)
    psi = np.asarray(psi, dtype=np.float64)
    if phi.shape != (model.d,):
        raise ShapeMismatchError(f"phi has shape {phi.shape}, expected ({model.d},)")
    if psi.shape != (model.m,):
        raise ShapeMismatchError(f"psi has shape {psi.shape}, expected ({model.m},)")
    return float(phi @ model.W @ psi + model.w_x @ phi + model.w_y @ psi + model.b)


def score_matrix(model: CompatModel, Phi: np.ndarray, classes) -> np.ndarray:
    """(B, K) score matrix for a stack of image embeddings, from
    `kernels.scores`, the function the training kernel scores through."""
    Phi = np.asarray(Phi, dtype=np.float64)
    if Phi.ndim != 2 or Phi.shape[1] != model.d:
        raise ShapeMismatchError(
            f"Phi has shape {Phi.shape}, expected (n, {model.d})")
    return kernels.scores(model.W_e, Phi,
                          extend_embedding(_class_matrix(classes, model.m)))


def _check_batch(model, Phi, labels, classes):
    """Validate a training batch; return the plain rows, the labels and the
    extended classes (Phi, labels, Psi_e) that the kernel takes."""
    Phi = np.asarray(Phi, dtype=np.float64)
    if Phi.ndim != 2 or Phi.shape[1] != model.d:
        raise ShapeMismatchError(
            f"batch features have shape {Phi.shape}, expected (n, {model.d})")
    Psi = _class_matrix(classes, model.m)
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (Phi.shape[0],):
        raise ShapeMismatchError(
            f"labels have shape {labels.shape}, expected ({Phi.shape[0]},)")
    bad = (labels < 0) | (labels >= Psi.shape[0])
    if np.any(bad):
        raise UnseenLabelError(
            f"label index(es) {labels[bad].tolist()} outside the "
            f"{Psi.shape[0]}-class training set")
    return Phi, labels, extend_embedding(Psi)


def nll(model: CompatModel, Phi: np.ndarray, labels: np.ndarray, classes) -> float:
    """Summed negative log-likelihood of a batch under the softmax posterior
    over the given training classes. Labels are indices into that ordering."""
    Phi, labels, Psi_e = _check_batch(model, Phi, labels, classes)
    return kernels.nll_and_grad(model.W_e, Phi, labels, Psi_e)[0]


def gradient(model: CompatModel, Phi: np.ndarray, labels: np.ndarray,
             classes) -> np.ndarray:
    """Gradient of the batch NLL with respect to W_e: the per-sample outer
    product of the extended image embedding with (posterior-weighted mean
    class embedding minus the true class embedding), summed over the batch."""
    Phi, labels, Psi_e = _check_batch(model, Phi, labels, classes)
    A = kernels.nll_and_grad(model.W_e, Phi, labels, Psi_e)[1]
    return kernels.gradient(A, Psi_e)


def predict(model: CompatModel, phi: np.ndarray, classes) -> int:
    """Index of the highest-scoring candidate; ties go to the lowest index."""
    phi = np.asarray(phi, dtype=np.float64)
    if phi.shape != (model.d,):
        raise ShapeMismatchError(f"phi has shape {phi.shape}, expected ({model.d},)")
    return int(np.argmax(score_matrix(model, phi[None, :], classes)))
