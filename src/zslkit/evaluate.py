"""Normalized-accuracy metric, class-split bookkeeping, zero-shot evaluation,
and the two ablation grids (embedding-source subsets and linear-term masks).

Normalized accuracy is the unweighted mean of per-class accuracy ratios, so
large classes cannot dominate the score.
"""

from __future__ import annotations

import dataclasses
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
)
from .model import CompatModel, score_matrix

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
        out = []
        for i, a in enumerate(SPLIT_NAMES):
            for b in SPLIT_NAMES[i + 1:]:
                for cls in sorted(set(self.classes(a)) & set(self.classes(b))):
                    out.append(f"class {cls!r} appears in both {a!r} and {b!r}")
        return out

    def require_disjoint(self) -> None:
        violations = self.overlap_violations()
        if violations:
            raise SplitViolationError("; ".join(violations))


@dataclass(frozen=True)
class SplitDataset:
    """Labeled instances plus the split definition they must conform to."""

    ids: tuple[str, ...]
    features: np.ndarray  # (n, d) float64
    labels: tuple[str, ...]
    splits: ClassSplits
    codes: np.ndarray = field(init=False, repr=False)  # into splits.all_classes()

    def __post_init__(self):
        object.__setattr__(self, "ids", tuple(self.ids))
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "features", np.asarray(self.features, dtype=np.float64))
        if not (len(self.ids) == self.features.shape[0] == len(self.labels)):
            raise AlignmentError(
                f"ids ({len(self.ids)}), feature rows ({self.features.shape[0]}) "
                f"and labels ({len(self.labels)}) must align")
        self.splits.require_disjoint()
        index = {c: i for i, c in enumerate(self.splits.all_classes())}
        stray = sorted({l for l in self.labels if l not in index})
        if stray:
            raise SplitViolationError(
                f"instance label(s) outside every split: {stray}")
        object.__setattr__(self, "codes", np.array(
            [index[l] for l in self.labels], dtype=np.int64))

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def subset(self, split: str) -> tuple[np.ndarray, np.ndarray]:
        """The split's feature rows in dataset order, and their indices into
        `splits.classes(split)`."""
        n = len(self.splits.classes(split))
        start = sum(len(self.splits.classes(s))
                    for s in SPLIT_NAMES[:SPLIT_NAMES.index(split)])
        keep = (self.codes >= start) & (self.codes < start + n)
        return self.features[keep], self.codes[keep] - start


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


def _target_rows(dataset: SplitDataset, target_split: str):
    """The classes, feature rows and class indices of a zero-shot split."""
    if target_split not in ("zsl_validation", "zsl_test"):
        raise ConfigError(
            f"eval split must be 'zsl_validation' or 'zsl_test', got {target_split!r}")
    classes = dataset.splits.classes(target_split)
    if not classes:
        raise EmptyClassSetError(f"split {target_split!r} has no classes")
    X, label_idx = dataset.subset(target_split)
    if len(label_idx) == 0:
        raise AlignmentError(f"split {target_split!r} has no instances to score")
    return classes, X, label_idx


def evaluate_zsl(model: CompatModel, dataset: SplitDataset,
                 embeddings: ClassEmbeddingSet, target_split: str) -> EvalResult:
    """Predict every instance of the target split among that split's classes
    only, then score with normalized accuracy."""
    classes, X, label_idx = _target_rows(dataset, target_split)
    missing = [c for c in classes if c not in embeddings]
    if missing:
        raise IncompleteCoverageError(
            f"no embedding for class(es) {missing} in split {target_split!r}")
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


def _train_and_score(dataset, embeddings, config, eval_split, repeats):
    from .train import train  # deferred; train depends on this module

    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    _target_rows(dataset, eval_split)  # refuse a bad split before training
    accs = []
    for r in range(repeats):
        cfg = dataclasses.replace(config, seed=config.seed + r)
        report = train(dataset, embeddings, cfg)
        accs.append(evaluate_zsl(report.model, dataset, embeddings, eval_split)
                    .normalized_accuracy)
    mean = float(np.mean(accs))
    std = float(np.std(accs)) if repeats > 1 else None
    return mean, std


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
    rows = []
    for subset, embeddings in grid:
        mean, std = _train_and_score(dataset, embeddings, config, eval_split, repeats)
        rows.append(AblationRow(subset, mean, std))
    return rows


def ablate_linear_terms(dataset: SplitDataset, embeddings: ClassEmbeddingSet,
                        config, *, eval_split: str = "zsl_test",
                        repeats: int = 1) -> list[LinearTermRow]:
    """Train and evaluate the four mask combinations of the two linear terms.
    The bias stays trainable throughout; it cannot affect the posterior."""
    rows = []
    for use_wx, use_wy in LINEAR_TERM_GRID:
        cfg = dataclasses.replace(config, use_wx=use_wx, use_wy=use_wy)
        mean, std = _train_and_score(dataset, embeddings, cfg, eval_split, repeats)
        rows.append(LinearTermRow(use_wx, use_wy, mean, std))
    return rows
