import contextlib
import os
import re
import sys
from io import BytesIO
from unittest import mock

import numpy as np
import pytest

from synthdata import block_signal_problem, linear_problem
from zslkit import evaluate, io
from zslkit.embeddings import ClassEmbeddingSet
from zslkit.errors import (
    AlignmentError,
    ConfigError,
    EmptyClassSetError,
    IncompleteCoverageError,
    ParseError,
)
from zslkit.evaluate import (
    EMBEDDING_SUBSETS,
    LINEAR_TERM_GRID,
    SPLIT_NAMES,
    ClassSplits,
    SplitDataset,
    TargetSplit,
    ablate_embeddings,
    ablate_linear_terms,
    evaluate_zsl,
    normalized_accuracy,
)
from zslkit.model import CompatModel, score, score_matrix
from zslkit.train import TrainConfig, train


def brute_force_metric(predictions, labels):
    """Per-class ratios with plain loops, averaged without numpy."""
    classes = []
    for l in labels:
        if l not in classes:
            classes.append(l)
    ratios = []
    for c in classes:
        idx = [i for i, l in enumerate(labels) if l == c]
        ratios.append(sum(predictions[i] == c for i in idx) / len(idx))
    return sum(ratios) / len(ratios)


class TestNormalizedAccuracy:
    def test_separates_from_plain_accuracy(self):
        labels = ["A"] * 10 + ["B"] * 5
        preds = ["A"] * 10 + ["A"] * 5  # A perfect, B all wrong
        result = normalized_accuracy(preds, labels)
        assert result.normalized_accuracy == 0.5  # not 10/15
        assert result.per_class_accuracy == {"A": 1.0, "B": 0.0}

    def test_all_correct(self):
        labels = ["A", "B", "C", "B"]
        assert normalized_accuracy(labels, labels).normalized_accuracy == 1.0

    def test_confusion_counts(self):
        labels = ["A", "A", "B"]
        preds = ["A", "B", "B"]
        result = normalized_accuracy(preds, labels)
        assert result.confusion == {("A", "A"): 1, ("A", "B"): 1, ("B", "B"): 1}

    def test_dict_keys_in_first_appearance_order(self):
        labels = ["B", "A", "B", "C", "A"]
        preds = ["A", "A", "B", "B", "C"]
        result = normalized_accuracy(preds, labels)
        assert list(result.per_class_accuracy) == ["B", "A", "C"]
        assert list(result.confusion) == [("B", "A"), ("A", "A"), ("B", "B"),
                                          ("C", "B"), ("A", "C")]
        assert result.per_class_accuracy == {"B": 0.5, "A": 0.5, "C": 0.0}

    def test_alignment_errors(self):
        with pytest.raises(AlignmentError):
            normalized_accuracy(["A"], ["A", "B"])
        with pytest.raises(AlignmentError):
            normalized_accuracy([], [])

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            k = int(rng.integers(1, 5))
            n = int(rng.integers(k, 21))
            classes = [f"c{i}" for i in range(k)]
            labels = classes + [classes[int(rng.integers(0, k))]
                                for _ in range(n - k)]
            preds = [classes[int(rng.integers(0, k))] for _ in range(n)]
            got = normalized_accuracy(preds, labels).normalized_accuracy
            assert got == brute_force_metric(preds, labels)

    def test_duplication_invariance(self):
        rng = np.random.default_rng(1)
        labels = ["A", "B", "C", "A", "B", "C", "C"]
        preds = [rng.choice(["A", "B", "C"]) for _ in labels]
        base = normalized_accuracy(preds, labels).normalized_accuracy
        for k in (2, 3, 5):
            dup_idx = [i for i, l in enumerate(labels) if l == "B"]
            labels_k = labels + [labels[i] for i in dup_idx] * (k - 1)
            preds_k = preds + [preds[i] for i in dup_idx] * (k - 1)
            assert normalized_accuracy(preds_k, labels_k).normalized_accuracy == base


def trained_problem(seed=0):
    dataset, embeddings, _ = linear_problem(
        seed=seed, n_classes=10, m=6, d=12, per_class=20, n_seen=6, n_val=2)
    cfg = TrainConfig(batch_size=32, max_iterations=300, eval_every=100,
                      seed=seed, learning_rate=3e-3)
    report = train(dataset, embeddings, cfg)
    return dataset, embeddings, report.model


class TestEvaluateZsl:
    def test_predictions_stay_inside_split(self):
        dataset, embeddings, model = trained_problem()
        test_classes = set(dataset.splits.zsl_test)
        result = evaluate_zsl(model, dataset, embeddings, "zsl_test")
        assert set(result.per_class_accuracy) <= test_classes
        predicted = {pred for _, pred in result.confusion}
        assert predicted <= test_classes

    def test_never_touches_other_splits(self):
        dataset, embeddings, model = trained_problem(seed=1)

        class TrackingDataset:
            def __init__(self, inner):
                self._inner = inner
                self.calls = []

            @property
            def splits(self):
                return self._inner.splits

            @property
            def present(self):
                return self._inner.present

            def subset(self, split):
                self.calls.append(split)
                return self._inner.subset(split)

        tracker = TrackingDataset(dataset)
        evaluate_zsl(model, tracker, embeddings, "zsl_validation")
        assert tracker.calls == ["zsl_validation"]

    def test_bias_change_leaves_result(self):
        dataset, embeddings, model = trained_problem(seed=2)
        base = evaluate_zsl(model, dataset, embeddings, "zsl_test")
        shifted = model.copy()
        shifted.W_e[-1, -1] += 123.456
        again = evaluate_zsl(shifted, dataset, embeddings, "zsl_test")
        assert again.normalized_accuracy == base.normalized_accuracy
        assert again.confusion == base.confusion

    def test_coverage_gap(self):
        dataset, embeddings, model = trained_problem(seed=3)
        from zslkit.embeddings import ClassEmbeddingSet

        partial = ClassEmbeddingSet(embeddings.class_names[:-1],
                                    embeddings.matrix[:-1],
                                    embeddings.block_layout)
        with pytest.raises(IncompleteCoverageError):
            evaluate_zsl(model, dataset, partial, "zsl_test")

    def test_bad_split_name(self):
        dataset, embeddings, model = trained_problem(seed=4)
        with pytest.raises(ValueError):
            evaluate_zsl(model, dataset, embeddings, "seen")

    def check_empty_split(self, test_classes, error, message, monkeypatch):
        rng = np.random.default_rng(5)
        splits = ClassSplits(("a",), ("b",), test_classes)
        dataset = SplitDataset(("i0", "i1"), rng.normal(size=(2, 3)),
                               ("a", "b"), splits)
        emb = ClassEmbeddingSet(("a", "b", "c"), rng.normal(size=(3, 4)),
                                (("word", 0, 4),))
        with pytest.raises(error, match=f"^{message}$"):
            evaluate_zsl(CompatModel.zeros(3, 4), dataset, emb, "zsl_test")

        def no_training(*args):
            raise AssertionError("ablation trained a model")

        # zslkit.train names the function; the module is only in sys.modules
        monkeypatch.setattr(sys.modules["zslkit.train"], "train", no_training)
        with pytest.raises(error, match=f"^{message}$"):
            ablate_linear_terms(dataset, emb, FAST, eval_split="zsl_test")

    def test_empty_split(self, monkeypatch):
        self.check_empty_split((), EmptyClassSetError,
                               "split 'zsl_test' has no classes", monkeypatch)

    def test_split_classes_without_instances(self, monkeypatch):
        self.check_empty_split(("c",), AlignmentError,
                               "split 'zsl_test' has no instances",
                               monkeypatch)


def shuffled_problem(seed, sizes=(4, 2, 3)):
    """Labels in random order over classes listed in random order, so a
    class's code, its index within its split and its label order differ."""
    rng = np.random.default_rng(seed)
    classes = [f"k{i}" for i in rng.permutation(sum(sizes))]
    a, b = sizes[0], sizes[0] + sizes[1]
    splits = ClassSplits(classes[:a], classes[a:b], classes[b:])
    draws = classes + [classes[i] for i in rng.integers(0, len(classes), size=40)]
    labels = tuple(rng.permutation(draws).tolist())
    features = rng.normal(size=(len(labels), 5))
    features[:, 0] = np.arange(len(labels))  # the row number, to find rows again
    dataset = SplitDataset(tuple(f"i{i}" for i in range(len(labels))),
                           features, labels, splits)
    embeddings = ClassEmbeddingSet(tuple(sorted(classes)),
                                   rng.normal(size=(len(classes), 4)),
                                   (("word", 0, 4),))
    return dataset, embeddings, CompatModel(rng.normal(size=(6, 5)))


@pytest.mark.parametrize("call,error,message", [
    (lambda: ClassSplits(("a",), (), ()).classes("bogus"), ConfigError,
     "split must be one of ('seen', 'zsl_validation', 'zsl_test'), got 'bogus'"),
    (lambda: SplitDataset(("i0", "i1"), np.zeros((1, 2)), ("a", "a"),
                          ClassSplits(("a",), (), ())),
     AlignmentError, "ids (2), feature rows (1) and labels (2) must align"),
    (lambda: ablate_embeddings(*block_signal_problem(n_classes=6, n_seen=3, n_val=2,
                                                     per_class=4), FAST, repeats=0),
     ConfigError, "repeats must be >= 1, got 0"),
    (lambda: ablate_linear_terms(*linear_problem(n_classes=6, m=3, d=4, per_class=4,
                                                 n_seen=3, n_val=2)[:2], FAST, repeats=0),
     ConfigError, "repeats must be >= 1, got 0")],
    ids=["unknown-split", "misaligned-dataset", "embedding-grid-repeats",
         "linear-grid-repeats"])
def test_bad_arguments_refused(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


class TestClassCodes:
    """The codes SplitDataset keeps against walks over the string labels."""

    @pytest.mark.parametrize("sizes", [(4, 2, 3), (1, 0, 8), (0, 9, 0), (3, 3, 3)])
    @pytest.mark.parametrize("seed", range(3))
    def test_subsets_partition_the_rows(self, seed, sizes):
        dataset, _, _ = shuffled_problem(seed, sizes)
        covered = []
        for split in SPLIT_NAMES:
            classes = dataset.splits.classes(split)
            X, label_idx = dataset.subset(split)
            rows = X[:, 0].astype(int).tolist()
            assert rows == [i for i, l in enumerate(dataset.labels) if l in classes]
            assert X.tobytes() == dataset.features[rows].tobytes()
            assert label_idx.tolist() == [classes.index(dataset.labels[r])
                                          for r in rows]
            covered += rows
        assert sorted(covered) == list(range(len(dataset.labels)))

    @pytest.mark.parametrize("split", SPLIT_NAMES)
    def test_subset_of_every_row_is_the_stored_matrix(self, split):
        """A split that holds every row returns `features` itself, not a copy."""
        dataset, _, _ = shuffled_problem(0)
        X, label_idx = dataset.subset(split)
        rows = X[:, 0].astype(int).tolist()
        only = SplitDataset([dataset.ids[r] for r in rows], X,
                            [dataset.labels[r] for r in rows], dataset.splits)
        X_only, idx_only = only.subset(split)
        assert np.shares_memory(X_only, only.features)
        assert X_only.tobytes() == X.tobytes() and idx_only.tolist() == label_idx.tolist()
        assert not np.shares_memory(X, dataset.features)

    @pytest.mark.parametrize("split", ["zsl_validation", "zsl_test"])
    @pytest.mark.parametrize("seed", range(3))
    def test_evaluate_zsl_matches_string_walk(self, seed, split):
        dataset, embeddings, model = shuffled_problem(seed)
        classes = dataset.splits.classes(split)
        rows = [i for i, l in enumerate(dataset.labels) if l in classes]
        S = score_matrix(model, dataset.features[rows], embeddings.select(classes))
        expected = normalized_accuracy([classes[k] for k in np.argmax(S, axis=1)],
                                       [dataset.labels[i] for i in rows])
        got = evaluate_zsl(model, dataset, embeddings, split)
        assert got == expected
        assert list(got.per_class_accuracy) == list(expected.per_class_accuracy)
        assert list(got.confusion) == list(expected.confusion)

    @pytest.mark.parametrize("split", ["zsl_validation", "zsl_test"])
    @pytest.mark.parametrize("seed", range(3))
    def test_target_split_counts_the_same_accuracy(self, seed, split):
        """A split built once and scored by class index, as train scores its
        snapshots, gives the accuracy of the string walk bit for bit."""
        dataset, embeddings, model = shuffled_problem(seed)
        target = TargetSplit(dataset, embeddings, split)
        expected = evaluate_zsl(model, dataset, embeddings, split)
        for _ in range(2):  # the split is only read
            got = evaluate_zsl(model, dataset, embeddings, target)
            assert got.normalized_accuracy == expected.normalized_accuracy
            assert (got.per_class_accuracy, got.confusion) == ({}, {})


FAST = TrainConfig(batch_size=50, max_iterations=300, eval_every=100, seed=3,
                   learning_rate=3e-3)


class TestAblations:
    def test_embedding_grid_shape(self):
        dataset, sources = block_signal_problem(seed=0, n_classes=10, n_seen=5,
                                                n_val=2, per_class=15)
        rows = ablate_embeddings(dataset, sources, FAST)
        assert len(rows) == 7
        assert tuple(r.sources for r in rows) == EMBEDDING_SUBSETS
        assert all(0.0 <= r.accuracy <= 1.0 for r in rows)
        assert all(r.std is None for r in rows)

    def test_signal_block_wins_singletons(self):
        dataset, sources = block_signal_problem(seed=1)
        rows = ablate_embeddings(dataset, sources, FAST)
        singles = {r.sources[0]: r.accuracy for r in rows if len(r.sources) == 1}
        assert singles["word"] > singles["attribute"]
        assert singles["word"] > singles["taxonomy"]

    def test_linear_grid_shape(self):
        dataset, embeddings, _ = linear_problem(
            seed=6, n_classes=10, m=6, d=12, per_class=15, n_seen=6, n_val=2)
        rows = ablate_linear_terms(dataset, embeddings, FAST)
        assert len(rows) == 4
        assert tuple((r.use_wx, r.use_wy) for r in rows) == LINEAR_TERM_GRID
        assert all(0.0 <= r.accuracy <= 1.0 for r in rows)

    def test_repeats_report_std(self):
        dataset, embeddings, _ = linear_problem(
            seed=7, n_classes=8, m=5, d=10, per_class=10, n_seen=4, n_val=2)
        cfg = TrainConfig(batch_size=20, max_iterations=100, eval_every=50, seed=0,
                          learning_rate=3e-3)
        rows = ablate_linear_terms(dataset, embeddings, cfg, repeats=2)
        assert all(r.std is not None and r.std >= 0.0 for r in rows)

    def test_full_mask_reduces_to_plain_bilinear(self):
        dataset, embeddings, _ = linear_problem(
            seed=8, n_classes=8, m=5, d=10, per_class=10, n_seen=4, n_val=2)
        import dataclasses

        cfg = dataclasses.replace(FAST, use_wx=False, use_wy=False,
                                  max_iterations=100, eval_every=50)
        report = train(dataset, embeddings, cfg)
        model = report.model
        rng = np.random.default_rng(9)
        for _ in range(10):
            phi = rng.normal(size=model.d)
            psi = rng.normal(size=model.m)
            assert score(model, phi, psi) == float(phi @ model.W @ psi) + model.b


SMALL = TrainConfig(batch_size=20, max_iterations=40, eval_every=20, seed=3,
                    learning_rate=3e-3)


def run_grid(grid, repeats=1):
    if grid == "embeddings":
        dataset, sources = block_signal_problem(seed=0, n_classes=10, n_seen=5,
                                                n_val=2, per_class=15)
        return ablate_embeddings(dataset, sources, SMALL, repeats=repeats)
    dataset, embeddings, _ = linear_problem(seed=6, n_classes=10, m=6, d=12,
                                            per_class=15, n_seen=6, n_val=2)
    return ablate_linear_terms(dataset, embeddings, SMALL, repeats=repeats)


@contextlib.contextmanager
def two_cpus():
    """The grids run as if this process may use two CPUs, whatever it may
    use; the child is not pinned. Yields the pids forked."""
    forks = []
    fork = os.fork

    def spy():
        forks.append(fork())
        return forks[-1]

    with mock.patch.object(os, "fork", spy), \
            mock.patch.object(os, "sched_getaffinity", lambda pid: {0, 1}), \
            mock.patch.object(os, "sched_setaffinity", lambda pid, cpus: None):
        yield forks


def serial(monkeypatch):
    forked = io._forked
    monkeypatch.setattr(evaluate, "_forked", lambda parts, send: forked(1, send))


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def trains_here(monkeypatch, fail_at=(), child_fails=False):
    """Patch train to raise, in any process, ParseError('task', i, 'bad') for
    each linear-grid task i in `fail_at`, and in a child, if `child_fails`,
    a RuntimeError. Returns the tasks trained in this process."""
    module = sys.modules["zslkit.train"]  # zslkit.train names the function
    original, here, parent = module.train, [], os.getpid()

    def train_(dataset, embeddings, config):
        task = LINEAR_TERM_GRID.index((config.use_wx, config.use_wy))
        if os.getpid() == parent:
            here.append(task)
        elif child_fails:
            raise RuntimeError("the child failed")
        if task in fail_at:
            raise ParseError("task", task, "bad")
        return original(dataset, embeddings, config)

    monkeypatch.setattr(module, "train", train_)
    return here


class TestForkedGrid:
    """Models trained as tasks split between this process and a forked
    child give the rows, and raise the error, of a serial run."""

    @pytest.mark.parametrize("repeats", [1, 2])
    @pytest.mark.parametrize("grid", ["embeddings", "linear"])
    def test_rows_equal_serial(self, monkeypatch, grid, repeats):
        with two_cpus() as forks:
            rows = run_grid(grid, repeats)
        assert len(forks) == 1
        no_child_left()
        serial(monkeypatch)
        assert run_grid(grid, repeats) == rows

    @pytest.mark.parametrize("fail_at, raised", [
        ((0, 1), 0), ((1, 2), 1), ((2, 3), 2), ((3,), 3), ((1, 3), 1), ((2,), 2)])
    def test_earliest_error_in_grid_order(self, monkeypatch, fail_at, raised):
        """Tasks 0 and 2 run here, 1 and 3 in the child: the error raised is
        the earliest task's, wherever it ran, with its type and attributes."""
        trains_here(monkeypatch, fail_at)
        with two_cpus() as forks, pytest.raises(ParseError) as exc:
            run_grid("linear")
        assert len(forks) == 1
        assert (str(exc.value), exc.value.line) == (f"task:{raised}: bad", raised)
        no_child_left()

    def test_fork_failure_runs_serially(self, monkeypatch):
        serial(monkeypatch)
        expected = run_grid("linear")
        monkeypatch.undo()

        def no_fork():
            raise OSError("no process to spare")

        here = trains_here(monkeypatch)
        with two_cpus(), mock.patch.object(os, "fork", no_fork):
            assert run_grid("linear") == expected
        assert here == [0, 1, 2, 3]
        no_child_left()

    @pytest.mark.parametrize("sent", [0, 9, -1, None],
                             ids=["nothing", "part", "all-but-a-byte", "child-raised"])
    def test_child_without_results_runs_its_tasks_here(self, monkeypatch, sent):
        """A child that sends nothing or short, or fails with an error that is
        not a ZslError, has its tasks run again in this process."""
        serial(monkeypatch)
        expected = run_grid("linear")
        monkeypatch.undo()
        forked = io._forked

        def short(parts, send):
            def send_short(out, k, n):
                buffer = BytesIO()
                send(buffer, k, n)
                out.write(buffer.getvalue()[:sent])

            return forked(parts, send_short)

        if sent is not None:
            monkeypatch.setattr(evaluate, "_forked", short)
        here = trains_here(monkeypatch, child_fails=sent is None)
        with two_cpus() as forks:
            assert run_grid("linear") == expected
        assert len(forks) == 1 and here == [0, 2, 1, 3]
        no_child_left()
