"""Normalized-accuracy metric, class-split bookkeeping, zero-shot evaluation,
and the two ablation grids (embedding-source subsets and linear-term masks).

Normalized accuracy is the unweighted mean of per-class accuracy ratios, so
large classes cannot dominate the score.
"""

from __future__ import annotations

import dataclasses
import pickle
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .embeddings import (SOURCE_ORDER, ClassEmbeddingSet, EmbeddingSources,
                         build_class_embeddings)
from .errors import (
    AlignmentError,
    ConfigError,
    EmptyClassSetError,
    IncompleteCoverageError,
    SplitViolationError,
    ZslError,
    refuse,
)
from .forking import _forked, one_blas_thread
from .model import CompatModel, factor_scores, score_matrix

SPLIT_NAMES = ("seen", "zsl_validation", "zsl_test")

# Every non-empty source subset, singletons first, then pairs, then all three.
EMBEDDING_SUBSETS: tuple[tuple[str, ...], ...] = (
    ("attribute",),
    ("taxonomy",),
    ("word",),
    ("attribute", "taxonomy"),
    ("attribute", "word"),
    ("taxonomy", "word"),
    ("attribute", "taxonomy", "word"),
)

# (use_wx, use_wy): bilinear only, image term, class term, both.
LINEAR_TERM_GRID: tuple[tuple[bool, bool], ...] = (
    (False, False),
    (True, False),
    (False, True),
    (True, True),
)


@dataclass(frozen=True)
class ClassSplits:
    """Three pairwise-disjoint class sets; order within each is canonical."""

    seen: tuple[str, ...]
    zsl_validation: tuple[str, ...]
    zsl_test: tuple[str, ...]

    def __post_init__(self):
        for name in SPLIT_NAMES:
            object.__setattr__(self, name, tuple(getattr(self, name)))

    def classes(self, split: str) -> tuple[str, ...]:
        if split not in SPLIT_NAMES:
            raise ConfigError(f"split must be one of {SPLIT_NAMES}, got {split!r}")
        return getattr(self, split)

    def all_classes(self) -> tuple[str, ...]:
        return self.seen + self.zsl_validation + self.zsl_test

    def overlap_violations(self) -> list[str]:
        """One message per class appearing in two splits."""
        return [f"class {cls!r} appears in both {a!r} and {b!r}"
                for i, a in enumerate(SPLIT_NAMES) for b in SPLIT_NAMES[i + 1:]
                for cls in sorted(set(self.classes(a)) & set(self.classes(b)))]

    def label_violations(self, labels) -> list[str]:
        """One message per instance label that lies in no split."""
        return [f"label class {cls!r} is not in any split"
                for cls in sorted(set(labels).difference(self.all_classes()))]

    def instance_violations(self, present, names) -> list[str]:
        """Why the splits `names` cannot be fit or scored when only the
        classes in the set `present` have instances."""
        return [f"split {name!r} has no classes" if not self.classes(name)
                else "seen split has no training instances" if name == "seen"
                else f"split {name!r} has no instances"
                for name in names if present.isdisjoint(self.classes(name))]

    def coverage_violations(self, embeddings, names) -> list[str]:
        """One message per class of the splits `names` without an embedding."""
        return [f"class {cls!r} in split {name!r} has no embedding"
                for name in names for cls in self.classes(name) if cls not in embeddings]


def eval_split_violations(split: str) -> list[str]:
    """Why `split` cannot be the zero-shot split a model is evaluated on."""
    return ([] if split in ("zsl_validation", "zsl_test") else
            [f"eval split must be 'zsl_validation' or 'zsl_test', got {split!r}"])


@dataclass(frozen=True)
class SplitDataset:
    """Labeled instances plus the split definition they must conform to."""

    ids: tuple[str, ...]
    features: np.ndarray  # (n, d) float64
    labels: tuple[str, ...]
    splits: ClassSplits
    codes: np.ndarray = field(init=False, repr=False)  # into splits.all_classes()
    present: frozenset = field(init=False, repr=False)  # the classes of `labels`

    def __post_init__(self):
        object.__setattr__(self, "ids", tuple(self.ids))
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "features", np.asarray(self.features, dtype=np.float64))
        object.__setattr__(self, "present", frozenset(self.labels))
        if not (len(self.ids) == self.features.shape[0] == len(self.labels)):
            raise AlignmentError(
                f"ids ({len(self.ids)}), feature rows ({self.features.shape[0]}) "
                f"and labels ({len(self.labels)}) must align")
        refuse(SplitViolationError, self.splits.overlap_violations()
               + self.splits.label_violations(self.present))
        index = {c: i for i, c in enumerate(self.splits.all_classes())}
        object.__setattr__(self, "codes", np.array(
            [index[l] for l in self.labels], dtype=np.int64))

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def rows(self, split: str) -> tuple[np.ndarray | slice, np.ndarray]:
        """Which rows of `features` are the split's, in dataset order (every
        row as a slice, which indexes without a copy), and their indices into
        `splits.classes(split)`."""
        n = len(self.splits.classes(split))
        start = sum(len(self.splits.classes(s))
                    for s in SPLIT_NAMES[:SPLIT_NAMES.index(split)])
        keep = (self.codes >= start) & (self.codes < start + n)
        return slice(None) if keep.all() else np.flatnonzero(keep), self.codes[keep] - start

    def subset(self, split: str) -> tuple[np.ndarray, np.ndarray]:
        """The split's feature rows in dataset order, and their indices into
        `splits.classes(split)`. The rows are a view of `features`, not a
        copy, when every row is in the split."""
        rows, label_idx = self.rows(split)
        return self.features[rows], label_idx


@dataclass
class EvalResult:
    normalized_accuracy: float
    per_class_accuracy: dict[str, float]
    confusion: dict[tuple[str, str], int]


def normalized_accuracy(predictions: Sequence[str], labels: Sequence[str]) -> EvalResult:
    """Unweighted mean of per-class accuracy over the classes present in
    `labels`. Classes with zero instances simply do not appear."""
    if len(predictions) != len(labels):
        raise AlignmentError(
            f"{len(predictions)} predictions vs {len(labels)} labels")
    if not labels:
        raise AlignmentError("cannot score an empty evaluation set")
    # Counters keep first-appearance order, which fixes both dicts' key order.
    totals = Counter(labels)
    confusion = Counter(zip(labels, predictions))
    per_class = {c: confusion[(c, c)] / n for c, n in totals.items()}
    mean = float(np.mean(list(per_class.values())))
    return EvalResult(mean, per_class, dict(confusion))


def _target_classes(dataset: SplitDataset, embeddings: ClassEmbeddingSet,
                    target_split: str) -> tuple[str, ...]:
    """The classes of a zero-shot split with instances and with an
    embedding for each of its classes."""
    splits = dataset.splits
    refuse(ConfigError, eval_split_violations(target_split))
    classes = splits.classes(target_split)
    refuse(AlignmentError if classes else EmptyClassSetError,
           splits.instance_violations(dataset.present, (target_split,)))
    refuse(IncompleteCoverageError, splits.coverage_violations(embeddings, (target_split,)))
    return classes


class TargetSplit:
    """A zero-shot split checked once, to score many models by class index:
    the rows of `features` that hold it, each row's class index, the class
    rows scored against, and the indices of the classes with rows, in order
    of first appearance as normalized_accuracy keys them, with their row
    counts. The rows are gathered per model: a copy held from one model to
    the next would add to train's peak memory."""

    def __init__(self, dataset: SplitDataset, embeddings: ClassEmbeddingSet, name: str):
        self.Psi = embeddings.select(_target_classes(dataset, embeddings, name))
        self.features, (self.rows, self.label_idx) = dataset.features, dataset.rows(name)
        self.order = np.array(list(dict.fromkeys(self.label_idx.tolist())), dtype=np.int64)
        self.totals = np.bincount(self.label_idx)[self.order]

    def accuracy(self, model: CompatModel | np.ndarray) -> float:
        """normalized_accuracy of the predictions, counted by index, of a
        model or of the class factor P = W_e @ Psi_e.T of the split's
        classes, which train's sweep forms."""
        X = self.features[self.rows]
        S = (score_matrix(model, X, self.Psi) if isinstance(model, CompatModel)
             else factor_scores(X, model))
        hits = self.label_idx[np.argmax(S, axis=1) == self.label_idx]
        counts = np.bincount(hits, minlength=len(self.Psi))
        return float(np.mean(counts[self.order] / self.totals))


def evaluate_zsl(model: CompatModel | np.ndarray, dataset: SplitDataset,
                 embeddings: ClassEmbeddingSet, target_split: str | TargetSplit) -> EvalResult:
    """Predict every instance of the target split among that split's classes
    only, then score with normalized accuracy. `target_split` names the split,
    or is a TargetSplit of `dataset` and `embeddings` built once for many
    models, as for train's snapshots: then only the accuracy is counted, the
    result's two dicts are empty, and `model` may be the split's class factor
    (see `TargetSplit.accuracy`)."""
    if isinstance(target_split, TargetSplit):
        return EvalResult(target_split.accuracy(model), {}, {})
    classes = _target_classes(dataset, embeddings, target_split)
    X, label_idx = dataset.subset(target_split)
    S = score_matrix(model, X, embeddings.select(classes))
    return normalized_accuracy([classes[i] for i in np.argmax(S, axis=1)],
                               [classes[i] for i in label_idx])


@dataclass(frozen=True)
class AblationRow:
    sources: tuple[str, ...]
    accuracy: float
    std: float | None = None


@dataclass(frozen=True)
class LinearTermRow:
    use_wx: bool
    use_wy: bool
    accuracy: float
    std: float | None = None


def _train_and_score(dataset, models, eval_split, repeats):
    """The (mean, std) of each (embeddings, config) model's accuracy on
    `eval_split` over `repeats` shifted seeds, in order. Each (model, repeat)
    is a task: child k of _forked runs tasks k, k+n, ... and sends their
    accuracies and the ZslError that stopped it, while this process runs its
    own share. Then, in task order, the first error is raised and a task no
    result came for runs here, so results and errors are a serial run's.
    The split is checked, before the first model trains, as one TargetSplit
    per distinct embeddings, which scores each of their final models."""
    from .train import train  # deferred; train depends on this module
    import numpy.random  # each task draws: loaded here once, not in each child

    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    distinct = {id(embeddings): embeddings for embeddings, _ in models}
    targets = {key: TargetSplit(dataset, e, eval_split) for key, e in distinct.items()}
    tasks = [(embeddings, dataclasses.replace(config, seed=config.seed + r))
             for embeddings, config in models for r in range(repeats)]

    def score(embeddings, config):
        model = train(dataset, embeddings, config).model
        return evaluate_zsl(model, dataset, embeddings,
                            targets[id(embeddings)]).normalized_accuracy

    def share(k, n):
        accs = []
        try:
            accs.extend(score(*task) for task in tasks[k::n])
        except ZslError as error:
            return accs, error
        return accs, None

    with one_blas_thread():
        with _forked(len(tasks), lambda out, k, n: pickle.dump(share(k, n), out)) as (n, parts):
            shares = [share(0, n)]
            for part in parts:
                try:
                    shares.append(pickle.load(part))
                except (EOFError, pickle.UnpicklingError):  # the child sent nothing or short
                    shares.append(([], None))
        accs = []
        for i, task in enumerate(tasks):
            done, error = shares[i % n]
            if i // n == len(done) and error is not None:
                raise error
            accs.append(done[i // n] if i // n < len(done) else score(*task))
    return [(float(np.mean(accs[j:j + repeats])),
             float(np.std(accs[j:j + repeats])) if repeats > 1 else None)
            for j in range(0, len(accs), repeats)]


def ablate_embeddings(dataset: SplitDataset, inputs: EmbeddingSources, config,
                      *, sources: Sequence[str] = SOURCE_ORDER,
                      eval_split: str = "zsl_test", repeats: int = 1,
                      normalize_blocks: bool = False) -> list[AblationRow]:
    """Train and evaluate one model per non-empty subset of `sources`, in
    EMBEDDING_SUBSETS order. Rows share the config seed so they are comparable;
    repeats > 1 reports mean and standard deviation over shifted seeds."""
    all_classes = dataset.splits.all_classes()
    # Every subset builds before the first model trains.
    grid = [(subset, build_class_embeddings(all_classes, subset, inputs,
                                            normalize_blocks=normalize_blocks))
            for subset in EMBEDDING_SUBSETS if set(subset) <= set(sources)]
    results = _train_and_score(dataset, [(embeddings, config) for _, embeddings in grid],
                               eval_split, repeats)
    return [AblationRow(subset, *result) for (subset, _), result in zip(grid, results)]


def ablate_linear_terms(dataset: SplitDataset, embeddings: ClassEmbeddingSet,
                        config, *, eval_split: str = "zsl_test",
                        repeats: int = 1) -> list[LinearTermRow]:
    """Train and evaluate the four mask combinations of the two linear terms.
    The bias stays trainable throughout; it cannot affect the posterior."""
    models = [(embeddings, dataclasses.replace(config, use_wx=use_wx, use_wy=use_wy))
              for use_wx, use_wy in LINEAR_TERM_GRID]
    results = _train_and_score(dataset, models, eval_split, repeats)
    return [LinearTermRow(*terms, *result) for terms, result in zip(LINEAR_TERM_GRID, results)]
