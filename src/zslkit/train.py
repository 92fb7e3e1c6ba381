"""Maximum-likelihood training of the compatibility model over seen classes.

Every iteration samples a batch with replacement from the (optionally
over-sampled) training indices, computes the batch NLL gradient in the
extended parameter space, and applies one optimizer step. No explicit weight
penalty is used; regularization comes from early stopping against zero-shot
accuracy on a disjoint validation class split.
"""

from __future__ import annotations

import math
import mmap
import os
from dataclasses import dataclass

import numpy as np

from . import kernels
from .embeddings import ClassEmbeddingSet
from .errors import (
    ConfigError,
    DivergenceError,
    IncompleteCoverageError,
    NonFiniteScoreError,
    SplitViolationError,
    ZslError,
    refuse,
)
from .evaluate import SplitDataset, TargetSplit, evaluate_zsl
from .forking import _forked, one_blas_thread
from .model import CompatModel, extend_embedding
from .optim import AdamState, SgdState, block_rows, sgd_update
# The benchmark's tracer times the optimizer step, which also forms the
# gradient blocks, at `train.adam_step`.
from .optim import adam_update as adam_step
from .rng import component_rng

INIT_SCHEMES = ("glorot_uniform", "zeros")
OPTIMIZERS = ("adam", "sgd")
# The fewest row blocks of W_e a process of a split sweep gets: 30-step train
# calls at m=541 (60-row blocks, 2 vCPUs, one BLAS thread) were 7-24% slower
# split over 3 blocks, and 8-13% faster over 4 (in 15 and 17 of 16-20 pairs).
_MIN_SWEEP_BLOCKS = 2
# The commands of a split sweep, one byte each from this process to a worker,
# which runs it on its rows and answers with one byte: _REFUSED when its rows
# are not finite, else _STEP.
_STEP, _INIT, _CHECK, _KEEP, _REFUSED = b"\1", b"\2", b"\3", b"\4", b"\0"


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
    W_e = np.empty((d + 1, m + 1))
    _draw_rows(W_e, 0, d + 1, seed)
    return CompatModel(W_e)


def _draw_rows(W_e: np.ndarray, start: int, stop: int, seed: int) -> None:
    """Write rows [start, stop) of the glorot_uniform draw into W_e, one
    row block at a time. Each entry takes one draw of the stream, so the
    stream skips the entries of the rows before and the bits do not depend
    on how the rows are shared out."""
    rng, cols = component_rng(seed, "init"), W_e.shape[1]
    bound, step = np.sqrt(6.0 / sum(W_e.shape)), block_rows(cols)
    rng.bit_generator.advance(start * cols)
    for first in range(start, stop, step):
        block = W_e[first:min(first + step, stop)]
        block[:] = rng.uniform(-bound, bound, size=block.shape)


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


def _shared(shape) -> np.ndarray:
    """A zeroed float64 array in anonymous shared memory, which the sweep
    workers forked after it is made read and write in place."""
    return np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape)), np.float64).reshape(shape)


def train(dataset: SplitDataset, embeddings: ClassEmbeddingSet,
          config: TrainConfig) -> TrainReport:
    """Run the SGD/Adam loop and return the early-stopped model.

    Validation accuracy is measured every `eval_every` iterations by zero-shot
    prediction restricted to the validation classes; the returned model is the
    snapshot at the earliest iteration attaining the best accuracy.

    Each step sweeps the row blocks of W_e once, forming each block's
    gradient rows, zeroing its frozen terms, updating it and forming its rows
    of the next step's P = W_e @ Psi_e.T. The blocks are shared out, one
    share per allowed CPU of _MIN_SWEEP_BLOCKS or more: this process owns the
    first and a worker forked per call owns each other. W_e, the moments, P,
    the gradient factor A, the validation classes' P and the best snapshot
    live in shared memory, and each owner alone reads and writes its rows of
    W_e and the moments: it draws them, sweeps them, checks them finite and
    forms their rows of the validation P at each snapshot, and copies them
    into the best snapshot. This process scores each snapshot from that P,
    and copies the best snapshot into private memory once the rest is
    released. The results do not depend on the share-out. BLAS runs on one
    thread throughout (`forking.one_blas_thread`).
    """
    splits, fitted = dataset.splits, ("seen", "zsl_validation")
    refuse(SplitViolationError, splits.instance_violations(dataset.present, fitted))
    refuse(IncompleteCoverageError, splits.coverage_violations(embeddings, fitted))
    validation = TargetSplit(dataset, embeddings, "zsl_validation")
    with one_blas_thread():
        records, best_iteration, best_accuracy, best = _fit(
            dataset, embeddings, config, validation)
        return TrainReport(records, best_iteration, best_accuracy, CompatModel(best.copy()))


def _fit(dataset, embeddings, config, validation):
    """The training loop of `train`: its records, best iteration and
    accuracy, and the best snapshot in shared memory. Every other shared
    array is released when this returns."""
    X, label_idx = dataset.subset("seen")

    d = dataset.d
    m = embeddings.m
    Psi_e = extend_embedding(embeddings.select(dataset.splits.seen))
    Psi_val_e = extend_embedding(validation.Psi)

    W_e, best = _shared((d + 1, m + 1)), _shared((d + 1, m + 1))
    P, A = _shared((d + 1, len(Psi_e))), _shared((d + 1, len(Psi_e)))
    P_val = _shared((d + 1, len(Psi_val_e)))

    if config.oversample:
        pool = oversample_indices(label_idx, config.seed)
    else:
        pool = np.arange(len(label_idx), dtype=np.int64)

    # Read `adam_step` per call of train, so that a tracer rebinding it counts.
    if config.optimizer == "adam":
        update = adam_step
        opt_state = AdamState(alpha=config.learning_rate, beta1=config.beta1,
                              beta2=config.beta2, epsilon=config.epsilon,
                              M=_shared(W_e.shape), V=_shared(W_e.shape))
    else:
        update, opt_state = sgd_update, SgdState(alpha=config.learning_rate)

    batch_rng = component_rng(config.seed, "batch")
    records: list[EvalRecord] = []
    best_iteration = 0
    best_accuracy = -1.0  # any accuracy beats it, so the first snapshot fills best
    step = block_rows(m + 1)
    blocks = -(-(d + 1) // step)

    def fill_grad(start, stop, out):
        """Rows [start, stop) of this step's gradient, frozen terms zeroed."""
        kernels.grad_rows(A, Psi_e, start, stop, out)
        _zero_frozen_terms(out, d - start, config)

    def factor_rows(Psi, out, start, stop):
        """Rows [start, stop) of W_e @ Psi.T into `out`, block by block."""
        for first in range(start, stop, step):
            last = min(first + step, stop)
            kernels.class_rows(W_e, Psi, first, last, out[first:last])

    def init(start, stop):
        """The owned rows of the initial W_e and of the first step's P."""
        if config.init_scheme == "glorot_uniform":
            _draw_rows(W_e, start, stop, config.seed)
        _zero_frozen_terms(W_e[start:stop], d - start, config)
        factor_rows(Psi_e, P, start, stop)

    def sweep(start, stop):
        """The owned rows of one step, from the A of this step."""
        update(opt_state, W_e, fill_grad, rows=(start, stop), done=lambda first, last:
               kernels.class_rows(W_e, Psi_e, first, last, P[first:last]))

    def check(start, stop):
        """Whether the owned rows are finite; if so, their rows of the
        validation classes' P."""
        if not np.isfinite(W_e[start:stop]).all():
            return _REFUSED
        factor_rows(Psi_val_e, P_val, start, stop)

    def keep(start, stop):
        np.copyto(best[start:stop], W_e[start:stop])

    actions = {_STEP: sweep, _INIT: init, _CHECK: check, _KEEP: keep}

    def act(command, k, n):
        """Run `command` on the rows of owner k of n; the answer, a byte."""
        start, stop = blocks * k // n * step, min(blocks * (k + 1) // n * step, d + 1)
        return actions[command](start, stop) or _STEP

    def work(pipes, k, n):
        """A worker: each byte from this process is a command on its rows."""
        fd, out = pipes
        while command := os.read(fd, 1):
            out.write(act(command, k, n))
            out.flush()

    def run(command, t):
        """Every owner runs `command` on its rows; False if one of them found
        its rows not finite."""
        for _, to in workers:
            to.write(command)
        answers = [act(command, 0, n), *(part.read(1) for part, _ in workers)]
        if not all(answers):
            raise ZslError(f"training failed at iteration {t}: a sweep worker "
                           "stopped before it updated its rows")
        return _REFUSED not in answers

    # Overflow is reported below as a DivergenceError naming the iteration,
    # so numpy's floating-point warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"), \
            _forked(blocks // _MIN_SWEEP_BLOCKS, work, duplex=True) as (n, workers):
        run(_INIT, 0)
        for t in range(1, config.max_iterations + 1):
            batch = pool[batch_rng.integers(0, len(pool), size=config.batch_size)]
            batch_nll, _ = kernels.nll_and_grad(W_e, X[batch], label_idx[batch], Psi_e, P, A)
            if not math.isfinite(batch_nll):
                raise DivergenceError(
                    f"training diverged at iteration {t}: batch NLL is {batch_nll!r}")
            run(_STEP, t)

            if t % config.eval_every == 0:
                if not run(_CHECK, t):
                    raise DivergenceError(
                        f"training diverged at iteration {t}: parameters are not finite")
                try:
                    acc = evaluate_zsl(P_val, dataset, embeddings,
                                       validation).normalized_accuracy
                except NonFiniteScoreError as error:
                    raise DivergenceError(
                        f"training diverged at iteration {t}: validation {error}") from None
                records.append(EvalRecord(t, batch_nll, acc))
                if acc > best_accuracy:
                    best_accuracy = acc
                    best_iteration = t
                    run(_KEEP, t)
    return records, best_iteration, best_accuracy, best
