"""Normalized-accuracy metric, class-split bookkeeping, zero-shot evaluation,
and the two ablation grids (embedding-source subsets and linear-term masks).

Normalized accuracy is the unweighted mean of per-class accuracy ratios, so
large classes cannot dominate the score.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .embeddings import ClassEmbeddingSet, EmbeddingSources, build_class_embeddings
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
            raise ValueError(f"split must be one of {SPLIT_NAMES}, got {split!r}")
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


@dataclass
class SplitDataset:
    """Labeled instances plus the split definition they must conform to."""

    ids: tuple[str, ...]
    features: np.ndarray  # (n, d) float64
    labels: tuple[str, ...]
    splits: ClassSplits

    def __post_init__(self):
        self.ids = tuple(self.ids)
        self.labels = tuple(self.labels)
        self.features = np.asarray(self.features, dtype=np.float64)
        if not (len(self.ids) == self.features.shape[0] == len(self.labels)):
            raise AlignmentError(
                f"ids ({len(self.ids)}), feature rows ({self.features.shape[0]}) "
                f"and labels ({len(self.labels)}) must align")
        self.splits.require_disjoint()
        known = set(self.splits.all_classes())
        stray = sorted({l for l in self.labels if l not in known})
        if stray:
            raise SplitViolationError(
                f"instance label(s) outside every split: {stray}")

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def subset(self, split: str) -> tuple[tuple[str, ...], np.ndarray, tuple[str, ...]]:
        """Instances whose label belongs to the given split's class set."""
        classes = set(self.splits.classes(split))
        keep = [i for i, l in enumerate(self.labels) if l in classes]
        return (tuple(self.ids[i] for i in keep),
                self.features[keep],
                tuple(self.labels[i] for i in keep))


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
    totals: Counter = Counter()
    correct: Counter = Counter()
    confusion: Counter = Counter()
    class_order: list[str] = []
    for pred, true in zip(predictions, labels):
        if true not in totals:
            class_order.append(true)
        totals[true] += 1
        if pred == true:
            correct[true] += 1
        confusion[(true, pred)] += 1
    per_class = {c: correct[c] / totals[c] for c in class_order}
    mean = float(np.mean(list(per_class.values())))
    return EvalResult(mean, per_class, dict(confusion))


def evaluate_zsl(model: CompatModel, dataset: SplitDataset,
                 embeddings: ClassEmbeddingSet, target_split: str) -> EvalResult:
    """Predict every instance of the target split among that split's classes
    only, then score with normalized accuracy."""
    if target_split not in ("zsl_validation", "zsl_test"):
        raise ValueError(
            f"target_split must be 'zsl_validation' or 'zsl_test', got {target_split!r}")
    classes = dataset.splits.classes(target_split)
    if not classes:
        raise EmptyClassSetError(f"split {target_split!r} has no classes")
    missing = [c for c in classes if c not in embeddings]
    if missing:
        raise IncompleteCoverageError(
            f"no embedding for class(es) {missing} in split {target_split!r}")
    _, X, labels = dataset.subset(target_split)
    S = score_matrix(model, X, embeddings.select(classes))
    preds = [classes[i] for i in np.argmax(S, axis=1)]
    return normalized_accuracy(preds, labels)


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
                      *, eval_split: str = "zsl_test", repeats: int = 1,
                      normalize_blocks: bool = False) -> list[AblationRow]:
    """Train and evaluate one model per non-empty subset of the three
    embedding sources. Rows share the config seed so they are comparable;
    repeats > 1 reports mean and standard deviation over shifted seeds."""
    all_classes = dataset.splits.all_classes()
    rows = []
    for subset in EMBEDDING_SUBSETS:
        embeddings = build_class_embeddings(all_classes, subset, inputs,
                                            normalize_blocks=normalize_blocks)
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
