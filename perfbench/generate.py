"""Set-up of the CLI benchmark: seeded workload generator and input writer.

Every workload is a block-signal problem over 40 classes (24 seen, 8
validation, 8 test): class embeddings concatenate an attribute block, a
taxonomy block and a word block, but only the word block explains the
features. The attribute and taxonomy blocks are arbitrary per-class codes.

All inputs are written through the public ``zslkit.io.save_*`` functions, and
each workload gets a complete config file with absolute paths. Run as a
script, this module is the set-up process of one benchmark run:

    python3 perfbench/generate.py --workload NAME --seed N --repeats K \
        --min-seconds S --workdir DIR --out SETUP.json [--trace] [--tiny]

It generates and writes the workload at least K times, and again until the
set-ups add up to S seconds (at most MAX_REPEATS times), so that a set-up
of a fraction of a second still gets a steady median. It reports the
times, the oracle accuracy for eval workloads and, with --trace, the spans
of the zslkit.io savers. Set-up runs in its own process so that the
measuring process stays small: a child's peak RSS as os.wait4 reports it
includes the peak RSS of the process that started it.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tracer
from spec import N_CLASSES, N_SEEN, N_VAL, WORKLOADS, Shape, Workload
from zslkit import io
from zslkit.embeddings import (
    AttributeAssignment,
    AttributeSchema,
    ClassEmbeddingSet,
    TaxonomyTree,
    WordVectorTable,
)
from zslkit.evaluate import ClassSplits
from zslkit.model import CompatModel

MAX_REPEATS = 25


@dataclass
class Problem:
    classes: tuple[str, ...]
    splits: ClassSplits
    ids: tuple[str, ...]
    features: np.ndarray  # (n, d), rows of unit length
    labels: tuple[str, ...]
    schema: AttributeSchema
    assignments: dict[str, AttributeAssignment]
    taxonomy: TaxonomyTree
    leaf_map: dict[str, str]
    words: WordVectorTable
    class_matrix: np.ndarray  # (N_CLASSES, m): attribute | taxonomy | word
    block_layout: tuple[tuple[str, int, int], ...]


def make_problem(seed: int, shape: Shape) -> Problem:
    rng = np.random.default_rng(seed)
    classes = tuple(f"class{i:02d}" for i in range(N_CLASSES))

    # Feature means have unit-variance entries; the noise added to each
    # row is of the same size, so zero-shot accuracy stays well below 1.
    signal = rng.normal(size=(N_CLASSES, shape.word_dim))
    W_star = rng.normal(size=(shape.d, shape.word_dim))
    means = signal @ W_star.T / math.sqrt(shape.word_dim)
    X = (np.repeat(means, shape.per_class, axis=0)
         + rng.normal(size=(N_CLASSES * shape.per_class, shape.d)))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    labels = tuple(c for c in classes for _ in range(shape.per_class))
    ids = tuple(f"i{k:02d}_{j:03d}" for k in range(N_CLASSES)
                for j in range(shape.per_class))

    attributes = tuple((f"attr{a}", tuple(f"v{a}_{v}" for v in range(3)))
                       for a in range(shape.n_attributes))
    choice = rng.integers(0, 3, size=(N_CLASSES, shape.n_attributes))
    assignments = {
        cls: AttributeAssignment(cls, {
            f"attr{a}": frozenset([f"v{a}_{choice[k, a]}"])
            for a in range(shape.n_attributes)})
        for k, cls in enumerate(classes)}
    attr_block = np.zeros((N_CLASSES, 3 * shape.n_attributes))
    attr_block[np.arange(N_CLASSES)[:, None],
               3 * np.arange(shape.n_attributes) + choice] = 1.0

    internals = [f"genus{g:02d}" for g in range(shape.n_internal)]
    genus = rng.integers(0, shape.n_internal, size=N_CLASSES)
    edges = [(g, "root") for g in internals]
    edges += [(cls, internals[genus[k]]) for k, cls in enumerate(classes)]
    # root, then the internal nodes, then the class leaves
    tax_block = np.zeros((N_CLASSES, 1 + shape.n_internal + N_CLASSES))
    tax_block[:, 0] = 1.0
    tax_block[np.arange(N_CLASSES), 1 + genus] = 1.0
    tax_block[np.arange(N_CLASSES), 1 + shape.n_internal + np.arange(N_CLASSES)] = 1.0

    blocks = (("attribute", attr_block), ("taxonomy", tax_block), ("word", signal))
    layout, offset = [], 0
    for tag, block in blocks:
        layout.append((tag, offset, block.shape[1]))
        offset += block.shape[1]

    return Problem(
        classes=classes,
        splits=ClassSplits(classes[:N_SEEN], classes[N_SEEN:N_SEEN + N_VAL],
                           classes[N_SEEN + N_VAL:]),
        ids=ids, features=X, labels=labels,
        schema=AttributeSchema(attributes), assignments=assignments,
        taxonomy=TaxonomyTree.from_edges(edges),
        leaf_map={cls: cls for cls in classes},
        words=WordVectorTable(shape.word_dim, dict(zip(classes, signal))),
        class_matrix=np.hstack([b for _, b in blocks]),
        block_layout=tuple(layout))


def fit_checkpoint(problem: Problem) -> np.ndarray:
    """Closed-form (d+1, m+1) W_e that maps word vectors to feature means.

    A minimum-norm least-squares fit of the seen-class feature means on the
    seen-class word blocks; every other entry is zero. It stands in for a
    trained model without running the optimizer.
    """
    seen = [problem.classes.index(c) for c in problem.splits.seen]
    labels = np.asarray([problem.classes.index(l) for l in problem.labels])
    d = problem.features.shape[1]
    means = np.vstack([problem.features[labels == k].mean(axis=0) for k in seen])
    _, off, ln = problem.block_layout[-1]  # the word block
    words = problem.class_matrix[seen, off:off + ln]
    B, *_ = np.linalg.lstsq(words, means, rcond=None)  # (word_dim, d)
    W_e = np.zeros((d + 1, problem.class_matrix.shape[1] + 1))
    W_e[:d, off:off + ln] = B.T
    return W_e


def write_inputs(problem: Problem, workload: Workload, workdir: Path,
                 settings: dict) -> Path:
    """Write every input file and the config; return the config's path."""
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {key: workdir / name for key, name in (
        ("features", "features.txt"), ("labels", "labels.tsv"),
        ("splits", "splits.txt"), ("attribute_schema", "attr_schema.tsv"),
        ("attribute_assignments", "attr_assignments.tsv"),
        ("taxonomy", "taxonomy.tsv"), ("leaf_map", "leaf_map.tsv"),
        ("word_vectors", "word_vectors.txt"))}
    io.save_features(paths["features"],
                     io.FeatureSet(problem.ids, problem.features, True))
    io.save_labels(paths["labels"], dict(zip(problem.ids, problem.labels)))
    io.save_splits(paths["splits"], problem.splits)
    io.save_attribute_schema(paths["attribute_schema"], problem.schema)
    io.save_attribute_assignments(paths["attribute_assignments"],
                                  problem.assignments)
    io.save_taxonomy(paths["taxonomy"], problem.taxonomy)
    io.save_leaf_map(paths["leaf_map"], problem.leaf_map)
    io.save_word_vectors(paths["word_vectors"], problem.words)
    if workload.kind == "train":
        paths["checkpoint_out"] = workdir / "model.ckpt"
        paths["report_out"] = workdir / "report.json"
    if workload.kind == "eval":
        embeddings = ClassEmbeddingSet(problem.classes, problem.class_matrix,
                                       problem.block_layout)
        paths["embeddings"] = workdir / "embeddings.txt"
        paths["checkpoint"] = workdir / "model.ckpt"
        io.save_class_embeddings(paths["embeddings"], embeddings)
        io.save_checkpoint(paths["checkpoint"],
                           CompatModel(fit_checkpoint(problem)),
                           problem.splits.seen, problem.block_layout)
    entries = {key: str(path.resolve()) for key, path in paths.items()}
    entries.update(settings)
    config = workdir / "config.txt"
    config.write_text("".join(f"{k}={v}\n" for k, v in entries.items()),
                      encoding="utf-8")
    return config


def oracle_accuracy(problem: Problem, W_e: np.ndarray, split: str) -> float:
    """Normalized accuracy by a plain numpy argmax over the split's classes."""
    classes = problem.splits.classes(split)
    rows = np.flatnonzero(np.isin(np.asarray(problem.labels), classes))
    phi = np.hstack([problem.features[rows], np.ones((len(rows), 1))])
    psi = np.hstack([problem.class_matrix[[problem.classes.index(c) for c in classes]],
                     np.ones((len(classes), 1))])
    predicted = np.argmax(phi @ W_e @ psi.T, axis=1)
    truth = np.asarray([classes.index(problem.labels[r]) for r in rows])
    return float(np.mean([np.mean(predicted[truth == k] == k)
                          for k in range(len(classes))]))


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": blas_name}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Set up one benchmark run.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--min-seconds", type=float, default=0.0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    shape = workload.tiny if args.tiny else workload.shape
    settings = workload.config(args.tiny)
    times, spans = [], []
    while len(times) < args.repeats or (sum(times) < args.min_seconds
                                        and len(times) < MAX_REPEATS):
        i = len(times)
        if args.workdir.exists():
            shutil.rmtree(args.workdir)
        probe = tracer.Tracer(f"setup-{i}")
        if args.trace:
            probe.install(tracer.io_targets(io))
        start = time.perf_counter()
        try:
            problem = make_problem(args.seed, shape)
            config = write_inputs(problem, workload, args.workdir, settings)
        finally:
            probe.uninstall()
        times.append(time.perf_counter() - start)
        spans.append(probe.spans)
    expected = None
    if workload.kind == "eval":
        W_e = io.load_checkpoint(config.parent / "model.ckpt").model.W_e
        expected = oracle_accuracy(problem, W_e, settings["eval_split"])
    report = {"config": str(config), "setup_s": times, "setup_spans": spans,
              "expected_accuracy": expected, "rows": shape.rows,
              "d": shape.d, "m": shape.m, "env": environment()}
    args.out.write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
