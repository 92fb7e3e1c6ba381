"""Synthetic problem generators shared across the test suite.

Two flavors:

  linear_problem        features generated from a ground-truth linear map of
                        random class embeddings, so a bilinear model can
                        recover the classes exactly
  block_signal_problem  three-block class embeddings where only the word
                        block drives the features; the other blocks are
                        class-specific but carry no transferable signal
"""

from pathlib import Path

import numpy as np

from zslkit.embeddings import (
    AttributeAssignment,
    AttributeSchema,
    ClassEmbeddingSet,
    EmbeddingSources,
    TaxonomyTree,
    WordVectorTable,
)
from zslkit.evaluate import ClassSplits, SplitDataset
from zslkit import io


def _dataset_from_means(rng, classes, means, per_class, noise, n_seen, n_val):
    feats, labels, ids = [], [], []
    for k, cls in enumerate(classes):
        feats.append(means[k] + noise * rng.normal(size=(per_class, means.shape[1])))
        labels += [cls] * per_class
        ids += [f"i{k:02d}_{j:03d}" for j in range(per_class)]
    X = np.vstack(feats)
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    splits = ClassSplits(classes[:n_seen],
                         classes[n_seen:n_seen + n_val],
                         classes[n_seen + n_val:])
    return SplitDataset(tuple(ids), X, tuple(labels), splits)


def linear_problem(seed=0, *, n_classes=30, m=20, d=32, per_class=100,
                   noise=0.05, n_seen=18, n_val=6):
    """Dataset + embeddings + the ground-truth map the features came from."""
    rng = np.random.default_rng(seed)
    classes = tuple(f"class{i:02d}" for i in range(n_classes))
    Psi = rng.normal(size=(n_classes, m))
    W_star = rng.normal(size=(d, m))
    dataset = _dataset_from_means(rng, classes, Psi @ W_star.T,
                                  per_class, noise, n_seen, n_val)
    embeddings = ClassEmbeddingSet(classes, Psi, (("word", 0, m),))
    return dataset, embeddings, W_star


def random_tree(rng, max_nodes=12) -> TaxonomyTree:
    """Random rooted tree; labels are shuffled so the canonical ordering is
    exercised, and every non-root node picks an earlier node as parent."""
    n = int(rng.integers(2, max_nodes + 1))
    perm = rng.permutation(n)
    labels = [f"L{perm[i]:02d}" for i in range(n)]
    return TaxonomyTree.from_edges([(labels[i], labels[int(rng.integers(0, i))])
                                    for i in range(1, n)])


def path_by_parent_following(tree: TaxonomyTree, leaf_id: str) -> np.ndarray:
    """Independent oracle: mark the leaf's ancestors by walking parent links."""
    position = {nid: i for i, nid in enumerate(tree.node_order)}
    vec = np.zeros(len(tree))
    cur = leaf_id
    while cur is not None:
        vec[position[cur]] = 1.0
        cur = tree.parent(cur)
    return vec


def block_signal_problem(seed=0, *, n_classes=16, n_seen=8, n_val=4, d=24,
                         word_dim=12, per_class=30, noise=0.03,
                         n_attributes=5, n_internal=4):
    """Only the word block explains the features; attribute and taxonomy
    blocks are arbitrary per-class codes."""
    rng = np.random.default_rng(seed)
    classes = tuple(f"class{i:02d}" for i in range(n_classes))

    signal = rng.normal(size=(n_classes, word_dim))
    W_star = rng.normal(size=(d, word_dim))
    dataset = _dataset_from_means(rng, classes, signal @ W_star.T,
                                  per_class, noise, n_seen, n_val)

    schema = AttributeSchema(tuple(
        (f"attr{a}", (f"v{a}_0", f"v{a}_1", f"v{a}_2"))
        for a in range(n_attributes)))
    assignments = {
        cls: AttributeAssignment(cls, {
            f"attr{a}": frozenset([f"v{a}_{rng.integers(0, 3)}"])
            for a in range(n_attributes)})
        for cls in classes
    }

    internals = [f"genus{g}" for g in range(n_internal)]
    edges = [(g, "root") for g in internals]
    edges += [(cls, internals[int(rng.integers(0, n_internal))]) for cls in classes]
    taxonomy = TaxonomyTree.from_edges(edges)
    leaf_map = {cls: cls for cls in classes}

    word_table = WordVectorTable(word_dim, {cls: signal[i]
                                            for i, cls in enumerate(classes)})
    sources = EmbeddingSources(schema=schema, assignments=assignments,
                               taxonomy=taxonomy, leaf_map=leaf_map,
                               word_table=word_table)
    return dataset, sources


def write_experiment_files(dirpath, dataset: SplitDataset,
                           sources: EmbeddingSources, *,
                           config_extra: dict | None = None) -> Path:
    """Write every artifact of a problem to disk plus a config naming them.
    Returns the config path."""
    dirpath = Path(dirpath)
    io.save_features(dirpath / "features.txt",
                     io.FeatureSet(dataset.ids, dataset.features, True))
    io.save_labels(dirpath / "labels.tsv",
                   dict(zip(dataset.ids, dataset.labels)))
    io.save_splits(dirpath / "splits.txt", dataset.splits)
    io.save_attribute_schema(dirpath / "attr_schema.tsv", sources.schema)
    io.save_attribute_assignments(dirpath / "attr_assignments.tsv",
                                  sources.assignments)
    io.save_taxonomy(dirpath / "taxonomy.tsv", sources.taxonomy)
    io.save_leaf_map(dirpath / "leaf_map.tsv", sources.leaf_map)
    io.save_word_vectors(dirpath / "word_vectors.txt", sources.word_table)
    entries = {
        "features": "features.txt",
        "labels": "labels.tsv",
        "splits": "splits.txt",
        "attribute_schema": "attr_schema.tsv",
        "attribute_assignments": "attr_assignments.tsv",
        "taxonomy": "taxonomy.tsv",
        "leaf_map": "leaf_map.tsv",
        "word_vectors": "word_vectors.txt",
        "embeddings_out": "embeddings.txt",
        "checkpoint_out": "model.ckpt",
        "report_out": "report.json",
        "batch_size": 50,
        "max_iterations": 400,
        "eval_every": 100,
        "seed": 3,
        "learning_rate": 0.003,
    }
    entries.update(config_extra or {})
    lines = [f"{k}={v}" for k, v in entries.items()]
    config_path = dirpath / "config.txt"
    config_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return config_path
