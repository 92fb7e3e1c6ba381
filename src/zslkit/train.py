"""Maximum-likelihood training of the compatibility model over seen classes.

Every iteration samples a batch with replacement from the (optionally
over-sampled) training indices, computes the batch NLL gradient in the
extended parameter space, and applies one optimizer step. No explicit weight
penalty is used; regularization comes from early stopping against zero-shot
accuracy on a disjoint validation class split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .embeddings import ClassEmbeddingSet
from .errors import (
    ConfigError,
    DivergenceError,
    IncompleteCoverageError,
    SplitViolationError,
    refuse,
)
from .evaluate import SplitDataset, TargetSplit, evaluate_zsl
from .model import CompatModel, extend_embedding
from .optim import AdamState, SgdState, sgd_update
# The benchmark's tracer times the optimizer step, which also forms the
# gradient blocks, at `train.adam_step`.
from .optim import adam_update as adam_step
from .rng import component_rng

INIT_SCHEMES = ("glorot_uniform", "zeros")
OPTIMIZERS = ("adam", "sgd")


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 100
    max_iterations: int = 10_000
    eval_every: int = 100
    seed: int = 0
    init_scheme: str = "glorot_uniform"
    oversample: bool = True
    optimizer: str = "adam"
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    use_wx: bool = True
    use_wy: bool = True

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be >= 1")
        if not 1 <= self.eval_every <= self.max_iterations:
            raise ConfigError("eval_every must be in [1, max_iterations]")
        if self.init_scheme not in INIT_SCHEMES:
            raise ConfigError(f"init_scheme must be one of {INIT_SCHEMES}")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"optimizer must be one of {OPTIMIZERS}")
        if not self.learning_rate > 0:
            raise ConfigError("learning_rate must be positive")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ConfigError("beta1 and beta2 must lie in [0, 1)")
        if not self.epsilon > 0:
            raise ConfigError("epsilon must be positive")


@dataclass(frozen=True)
class EvalRecord:
    iteration: int
    train_nll: float  # batch NLL at this iteration, before its update
    val_accuracy: float  # zero-shot normalized accuracy after its update


@dataclass
class TrainReport:
    records: list[EvalRecord]
    best_iteration: int
    best_accuracy: float
    model: CompatModel  # snapshot at best_iteration


def init_model(d: int, m: int, scheme: str = "glorot_uniform",
               seed: int = 0) -> CompatModel:
    """Initialize the (d+1) x (m+1) extended matrix.

    glorot_uniform draws i.i.d. uniform entries bounded by
    sqrt(6 / (fan_in + fan_out)) with the extended dimensions as fans.
    """
    if scheme == "zeros":
        return CompatModel.zeros(d, m)
    if scheme != "glorot_uniform":
        raise ConfigError(f"init_scheme must be one of {INIT_SCHEMES}, got {scheme!r}")
    bound = np.sqrt(6.0 / (d + 1 + m + 1))
    rng = component_rng(seed, "init")
    return CompatModel(rng.uniform(-bound, bound, size=(d + 1, m + 1)))


def oversample_indices(labels, seed: int = 0) -> np.ndarray:
    """Balance class counts by repeating minority-class indices.

    Every original index is kept; each class is topped up to the largest
    class's count with draws (with replacement) from its own indices.
    """
    labels = list(labels)
    if not labels:
        raise ValueError("labels must be non-empty")
    by_class: dict = {}
    for i, lab in enumerate(labels):
        by_class.setdefault(lab, []).append(i)
    target = max(len(v) for v in by_class.values())
    rng = component_rng(seed, "oversample")
    out = list(range(len(labels)))
    for lab, idx in by_class.items():  # insertion order: first appearance
        deficit = target - len(idx)
        if deficit > 0:
            out.extend(rng.choice(idx, size=deficit, replace=True).tolist())
    return np.asarray(out, dtype=np.int64)


def _zero_frozen_terms(block: np.ndarray, last: int, config: TrainConfig) -> None:
    """Zero in place, in a row block of an extended matrix, the w_x column and
    the w_y row of a linear term the config turns off; the corner bias stays
    trainable. `last` is the block-local index of the matrix's last row (the
    w_y row), which may lie past the block. Multiplying by 0.0 keeps the -0.0
    signs of a full `G *= mask` product."""
    if not config.use_wx:
        block[:last, -1] *= 0.0
    if not config.use_wy and last < len(block):
        block[last, :-1] *= 0.0


def train(dataset: SplitDataset, embeddings: ClassEmbeddingSet,
          config: TrainConfig) -> TrainReport:
    """Run the SGD/Adam loop and return the early-stopped model.

    Validation accuracy is measured every `eval_every` iterations by zero-shot
    prediction restricted to the validation classes; the returned model is the
    snapshot at the earliest iteration attaining the best accuracy.
    """
    splits, fitted = dataset.splits, ("seen", "zsl_validation")
    refuse(SplitViolationError, splits.instance_violations(dataset.present, fitted))
    refuse(IncompleteCoverageError, splits.coverage_violations(embeddings, fitted))
    validation = TargetSplit(dataset, embeddings, "zsl_validation")

    X, label_idx = dataset.subset("seen")

    d = dataset.d
    m = embeddings.m
    Psi_e = extend_embedding(embeddings.select(splits.seen))

    W_e = init_model(d, m, config.init_scheme, config.seed).W_e
    _zero_frozen_terms(W_e, d, config)

    if config.oversample:
        pool = oversample_indices(label_idx, config.seed)
    else:
        pool = np.arange(len(label_idx), dtype=np.int64)

    # Read `adam_step` per call of train, so that a tracer rebinding it counts.
    if config.optimizer == "adam":
        update = adam_step
        opt_state = AdamState.for_shape(W_e.shape, alpha=config.learning_rate,
                                        beta1=config.beta1, beta2=config.beta2,
                                        epsilon=config.epsilon)
    else:
        update, opt_state = sgd_update, SgdState(alpha=config.learning_rate)

    batch_rng = component_rng(config.seed, "batch")
    records: list[EvalRecord] = []
    best_iteration = 0
    best_accuracy = -1.0  # any accuracy beats it, so the first snapshot fills best_W_e
    best_W_e = np.empty_like(W_e)

    def fill_grad(start, stop, out):
        """Rows [start, stop) of this iteration's gradient, frozen terms
        zeroed; `A` is read from the loop below when called."""
        kernels.grad_rows(A, Psi_e, start, stop, out)
        _zero_frozen_terms(out, d - start, config)

    # Overflow is reported below as a DivergenceError naming the iteration,
    # so numpy's floating-point warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, config.max_iterations + 1):
            batch = pool[batch_rng.integers(0, len(pool), size=config.batch_size)]
            batch_nll, A = kernels.nll_and_grad(W_e, X[batch], label_idx[batch], Psi_e)
            if not math.isfinite(batch_nll):
                raise DivergenceError(
                    f"training diverged at iteration {t}: batch NLL is {batch_nll!r}")
            update(opt_state, W_e, fill_grad)

            if t % config.eval_every == 0:
                if not np.isfinite(W_e).all():
                    raise DivergenceError(
                        f"training diverged at iteration {t}: parameters are not finite")
                # Scored in place: evaluate_zsl only reads the model.
                acc = evaluate_zsl(CompatModel(W_e), dataset, embeddings,
                                   validation).normalized_accuracy
                records.append(EvalRecord(t, batch_nll, acc))
                if acc > best_accuracy:
                    best_accuracy = acc
                    best_iteration = t
                    np.copyto(best_W_e, W_e)

    return TrainReport(records, best_iteration, best_accuracy,
                       CompatModel(best_W_e))
