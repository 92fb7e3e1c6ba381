import contextlib
import dataclasses
import math
import os
import subprocess
import sys
from collections import Counter
from unittest import mock

import numpy as np
import pytest

from synthdata import linear_problem
from test_kernels import full_gradient
import zslkit
from zslkit import forking, kernels
from zslkit.embeddings import ClassEmbeddingSet
from zslkit.errors import (
    ConfigError,
    DivergenceError,
    IncompleteCoverageError,
    SplitViolationError,
    ZslError,
)
from zslkit.forking import _forked
from zslkit.evaluate import ClassSplits, SplitDataset, evaluate_zsl
from zslkit.model import extend_embedding
from zslkit.optim import AdamState, adam_step
from zslkit.rng import component_rng
from zslkit.train import TrainConfig, _draw_rows, init_model, oversample_indices, train


class TestInitModel:
    def test_zeros_scheme(self):
        model = init_model(3, 4, scheme="zeros", seed=0)
        assert model.W_e.shape == (4, 5)
        assert np.all(model.W_e == 0.0)

    def test_seed_determinism(self):
        a = init_model(6, 7, seed=123)
        b = init_model(6, 7, seed=123)
        c = init_model(6, 7, seed=124)
        np.testing.assert_array_equal(a.W_e, b.W_e)
        assert not np.array_equal(a.W_e, c.W_e)

    def test_glorot_bound(self):
        # 8 seeds x (127+1)*(99+1) entries > 1e5 samples, all within the bound
        d, m = 127, 99
        bound = math.sqrt(6.0 / (d + 1 + m + 1))
        entries = np.concatenate([init_model(d, m, seed=s).W_e.ravel()
                                  for s in range(8)])
        assert entries.size >= 100_000
        assert np.all(np.abs(entries) <= bound)
        # the draw actually fills the range instead of collapsing near zero
        assert entries.max() > 0.99 * bound
        assert entries.min() < -0.99 * bound

    def test_bad_scheme(self):
        with pytest.raises(ConfigError):
            init_model(2, 2, scheme="orthogonal")


class TestOversampleIndices:
    @pytest.mark.parametrize("labels", [[], np.empty(0, dtype=np.int64)],
                             ids=["list", "array"])
    def test_empty_labels_refused(self, labels):
        with pytest.raises(ValueError, match="^labels must be non-empty$"):
            oversample_indices(labels)

    def test_balanced_left_alone(self):
        idx = oversample_indices(["A", "A", "A", "B", "B", "B"], seed=0)
        assert sorted(idx.tolist()) == [0, 1, 2, 3, 4, 5]

    def test_minority_repeated(self):
        labels = ["A", "A", "A", "A", "B"]
        idx = oversample_indices(labels, seed=0)
        counts = Counter(labels[i] for i in idx)
        assert counts == {"A": 4, "B": 4}
        assert Counter(idx.tolist())[4] == 4  # B's single index, 4 copies

    def test_histogram_equalized(self):
        labels = ["A"] * 5 + ["B"] * 2 + ["C"] * 3
        idx = oversample_indices(labels, seed=1)
        counts = Counter(labels[i] for i in idx)
        assert counts == {"A": 5, "B": 5, "C": 5}

    def test_originals_retained(self):
        labels = ["A"] * 4 + ["B"]
        idx = oversample_indices(labels, seed=2)
        assert set(range(5)) <= set(idx.tolist())

    def test_extras_come_from_own_class(self):
        labels = ["A"] * 6 + ["B"] * 2
        idx = oversample_indices(labels, seed=3)
        extras = idx.tolist()[8:]
        assert all(labels[i] == "B" for i in extras)

    def test_deterministic(self):
        labels = ["A"] * 7 + ["B"] * 2 + ["C"] * 4
        np.testing.assert_array_equal(oversample_indices(labels, seed=9),
                                      oversample_indices(labels, seed=9))

    def test_uniform_batch_frequency(self):
        # chi^2-style bound: each class count within 3 sigma of n/K
        labels = ["A"] * 40 + ["B"] * 10 + ["C"] * 25 + ["D"] * 5
        pool = oversample_indices(labels, seed=4)
        rng = component_rng(11, "batch")
        n = 10_000
        draws = pool[rng.integers(0, len(pool), size=n)]
        counts = Counter(labels[i] for i in draws)
        p = 1 / 4
        sigma = math.sqrt(n * p * (1 - p))
        for cls in "ABCD":
            assert abs(counts[cls] - n * p) <= 3 * sigma


def tiny_problem(seed=0, n_classes=6, per_class=5, d=3, m=4):
    rng = np.random.default_rng(seed)
    classes = tuple(f"c{i}" for i in range(n_classes))
    Psi = rng.normal(size=(n_classes, m))
    X = rng.normal(size=(n_classes * per_class, d))
    labels = tuple(classes[i // per_class] for i in range(n_classes * per_class))
    ids = tuple(f"i{i}" for i in range(len(labels)))
    splits = ClassSplits(classes[:2], classes[2:4], classes[4:])
    dataset = SplitDataset(ids, X, labels, splits)
    embeddings = ClassEmbeddingSet(classes, Psi, (("word", 0, m),))
    return dataset, embeddings


def check_masked_terms_stay_zero(optimizer):
    dataset, embeddings = tiny_problem(seed=8)
    cfg = TrainConfig(batch_size=4, max_iterations=20, eval_every=20,
                      seed=4, use_wx=False, use_wy=False, optimizer=optimizer)
    report = train(dataset, embeddings, cfg)
    assert np.all(report.model.w_x == 0.0)
    assert np.all(report.model.w_y == 0.0)
    assert np.any(report.model.W != 0.0)


class TestTrainConfig:
    def test_eval_cadence_bound(self):
        with pytest.raises(ConfigError):
            TrainConfig(max_iterations=10, eval_every=20)
        with pytest.raises(ConfigError):
            TrainConfig(max_iterations=0)
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0)
        with pytest.raises(ConfigError):
            TrainConfig(optimizer="lbfgs")


class TestTrain:
    def test_single_record_bookkeeping(self):
        dataset, embeddings = tiny_problem()
        cfg = TrainConfig(batch_size=4, max_iterations=1, eval_every=1, seed=0)
        report = train(dataset, embeddings, cfg)
        assert len(report.records) == 1
        assert report.records[0].iteration == 1
        assert report.best_iteration == 1

    def test_uniform_start_nll(self):
        dataset, embeddings = tiny_problem()
        cfg = TrainConfig(batch_size=7, max_iterations=1, eval_every=1, seed=0,
                          init_scheme="zeros")
        report = train(dataset, embeddings, cfg)
        # 2 seen classes, zero weights: batch NLL is batch_size * ln 2
        assert report.records[0].train_nll == pytest.approx(7 * math.log(2),
                                                            abs=1e-9)

    def test_record_count_matches_cadence(self):
        dataset, embeddings = tiny_problem()
        cfg = TrainConfig(batch_size=4, max_iterations=50, eval_every=10, seed=0)
        report = train(dataset, embeddings, cfg)
        assert [r.iteration for r in report.records] == [10, 20, 30, 40, 50]

    def test_best_is_earliest_maximum(self):
        dataset, embeddings = tiny_problem(seed=5)
        cfg = TrainConfig(batch_size=4, max_iterations=40, eval_every=10, seed=1)
        report = train(dataset, embeddings, cfg)
        best = max(r.val_accuracy for r in report.records)
        first = next(r.iteration for r in report.records if r.val_accuracy == best)
        assert report.best_iteration == first
        assert report.best_accuracy == best

    def test_best_model_reproduces_recorded_accuracy(self):
        dataset, embeddings = tiny_problem(seed=6)
        cfg = TrainConfig(batch_size=4, max_iterations=30, eval_every=10, seed=2)
        report = train(dataset, embeddings, cfg)
        again = evaluate_zsl(report.model, dataset, embeddings, "zsl_validation")
        assert again.normalized_accuracy == report.best_accuracy

    def test_fixed_seed_full_determinism(self):
        dataset, embeddings = tiny_problem(seed=7)
        cfg = TrainConfig(batch_size=4, max_iterations=25, eval_every=5, seed=3)
        a = train(dataset, embeddings, cfg)
        b = train(dataset, embeddings, cfg)
        assert a.records == b.records
        assert a.best_iteration == b.best_iteration
        assert a.model.W_e.tobytes() == b.model.W_e.tobytes()

    def test_split_overlap_refused(self):
        rng = np.random.default_rng(0)
        splits = ClassSplits(("c0", "c1"), ("c1", "c2"), ("c3",))
        with pytest.raises(SplitViolationError) as exc:
            SplitDataset(("i0",), rng.normal(size=(1, 3)), ("c0",), splits)
        assert "c1" in str(exc.value)

    @pytest.mark.parametrize("validation,fault", [((), "classes"), (("c9",), "instances")],
                             ids=["no_classes", "classes_without_instances"])
    def test_empty_validation_refused_before_training(self, validation, fault,
                                                      monkeypatch):
        dataset, embeddings = tiny_problem()
        splits = ClassSplits(dataset.splits.seen, validation,
                             dataset.splits.zsl_validation + dataset.splits.zsl_test)
        dataset = SplitDataset(dataset.ids, dataset.features, dataset.labels, splits)

        def no_iteration(*args):
            raise AssertionError("training ran an iteration")

        monkeypatch.setattr(kernels, "nll_and_grad", no_iteration)
        cfg = TrainConfig(batch_size=4, max_iterations=10, eval_every=5)
        with pytest.raises(SplitViolationError,
                           match=f"^split 'zsl_validation' has no {fault}$"):
            train(dataset, embeddings, cfg)

    def test_embedding_coverage_gap(self):
        dataset, embeddings = tiny_problem()
        partial = ClassEmbeddingSet(embeddings.class_names[:3],
                                    embeddings.matrix[:3],
                                    embeddings.block_layout)
        cfg = TrainConfig(batch_size=4, max_iterations=1, eval_every=1)
        with pytest.raises(IncompleteCoverageError):
            train(dataset, partial, cfg)

    def test_masked_terms_stay_zero(self):
        check_masked_terms_stay_zero("adam")

    def test_masked_terms_stay_zero_under_sgd(self):
        check_masked_terms_stay_zero("sgd")

    def test_oversample_off_uses_raw_indices(self):
        dataset, embeddings = tiny_problem(seed=9)
        cfg = dataclasses.replace(
            TrainConfig(batch_size=4, max_iterations=5, eval_every=5, seed=5),
            oversample=False)
        report = train(dataset, embeddings, cfg)
        assert len(report.records) == 1

    def test_synthetic_recovery_within_2000_iterations(self):
        dataset, embeddings, _ = linear_problem(
            seed=11, n_classes=12, m=8, d=16, per_class=40, n_seen=8, n_val=2)
        cfg = TrainConfig(batch_size=64, max_iterations=2000, eval_every=100,
                          seed=0, learning_rate=3e-3)
        report = train(dataset, embeddings, cfg)
        assert report.best_accuracy > 0.9


def dense_gradient(W_e, Phi, labels, Psi_e):
    _, A = kernels.nll_and_grad(W_e, Phi, labels, Psi_e)
    return kernels.gradient(A, Psi_e)


def reference_training_run(dataset, embeddings, cfg, gradient=dense_gradient):
    """The loop of train() with a dense gradient, a full mask product and a
    fresh W_e per step: the functional adam_step, or the SGD step written
    out. Returns W_e after the last iteration."""
    classes = dataset.splits.seen
    rows = [i for i, l in enumerate(dataset.labels) if l in classes]
    X = dataset.features[rows]
    labels = [dataset.labels[i] for i in rows]
    label_idx = np.asarray([classes.index(l) for l in labels])
    Psi_e = extend_embedding(embeddings.select(classes))
    d, m = dataset.d, embeddings.m
    mask = np.ones((d + 1, m + 1))
    if not cfg.use_wx:
        mask[:d, m] = 0.0
    if not cfg.use_wy:
        mask[d, :m] = 0.0
    W_e = init_model(d, m, cfg.init_scheme, cfg.seed).W_e * mask
    pool = oversample_indices(labels, cfg.seed)
    batch_rng = component_rng(cfg.seed, "batch")
    state = AdamState.for_shape(W_e.shape, alpha=cfg.learning_rate)
    for _ in range(cfg.max_iterations):
        batch = pool[batch_rng.integers(0, len(pool), size=cfg.batch_size)]
        G = gradient(W_e, X[batch], label_idx[batch], Psi_e) * mask
        if cfg.optimizer == "sgd":
            W_e = W_e - cfg.learning_rate * G
        else:
            W_e, state = adam_step(state, W_e, G)
    return W_e


LINEAR_TERMS = pytest.mark.parametrize(
    "use_wx,use_wy", [(False, False), (True, False), (False, True), (True, True)])
# W_e of 4 x 5 fits one row block of the update; 256 x 161 spans two.
SHAPES = pytest.mark.parametrize("d,m", [(3, 4), (255, 160)])


class TestInPlaceTraining:
    @LINEAR_TERMS
    @SHAPES
    def test_matches_functional_reference(self, use_wx, use_wy, d, m):
        dataset, embeddings = tiny_problem(seed=12, d=d, m=m)
        # one record at the last iteration, so the report holds the final W_e
        cfg = TrainConfig(batch_size=4, max_iterations=15, eval_every=15,
                          seed=6, learning_rate=0.05,
                          use_wx=use_wx, use_wy=use_wy)
        report = train(dataset, embeddings, cfg)
        expected = reference_training_run(dataset, embeddings, cfg)
        assert report.model.W_e.tobytes() == expected.tobytes()

    @LINEAR_TERMS
    @SHAPES
    def test_sgd_matches_written_out_reference(self, use_wx, use_wy, d, m):
        dataset, embeddings = tiny_problem(seed=12, d=d, m=m)
        cfg = TrainConfig(batch_size=4, max_iterations=15, eval_every=15,
                          seed=6, learning_rate=0.05, optimizer="sgd",
                          use_wx=use_wx, use_wy=use_wy)
        report = train(dataset, embeddings, cfg)
        expected = reference_training_run(dataset, embeddings, cfg)
        assert report.model.W_e.tobytes() == expected.tobytes()

    def test_unbalanced_shuffled_rows_match_reference(self):
        # Seen classes of 3 and 7 rows in shuffled order, so the oversampled
        # pool depends on each row's class and on first-appearance order.
        dataset, embeddings = tiny_problem(seed=14, per_class=7)
        rows = np.random.default_rng(15).permutation(np.arange(4, 42))
        dataset = SplitDataset(tuple(dataset.ids[i] for i in rows),
                               dataset.features[rows],
                               tuple(dataset.labels[i] for i in rows), dataset.splits)
        cfg = TrainConfig(batch_size=4, max_iterations=15, eval_every=15,
                          seed=6, learning_rate=0.05)
        report = train(dataset, embeddings, cfg)
        expected = reference_training_run(dataset, embeddings, cfg)
        assert report.model.W_e.tobytes() == expected.tobytes()

    def test_close_to_full_gradient_loop(self):
        # 24 seen classes and W_e of 256 x 161 in two row blocks. The
        # factored gradient moves G by rounding only, but Adam divides by
        # sqrt(V), which amplifies that where V is near zero: max |dW_e| is
        # about 5e-9 here, and the bound leaves a factor of 200.
        dataset, embeddings, _ = linear_problem(
            seed=16, n_classes=40, m=160, d=255, per_class=5, n_seen=24, n_val=8)
        cfg = TrainConfig(batch_size=50, max_iterations=40, eval_every=40,
                          seed=7, learning_rate=0.01)
        report = train(dataset, embeddings, cfg)
        expected = reference_training_run(dataset, embeddings, cfg, full_gradient)
        np.testing.assert_allclose(report.model.W_e, expected, rtol=0, atol=1e-6)


class TestDivergence:
    def test_overflowing_learning_rate_names_iteration(self):
        # Adam moves each entry by about 1e307 per step, so the scores of
        # iteration 3 overflow and its batch NLL is not finite.
        dataset, embeddings = tiny_problem(seed=13)
        cfg = TrainConfig(batch_size=4, max_iterations=10, eval_every=10,
                          seed=0, learning_rate=1e307)
        with pytest.raises(DivergenceError,
                           match=r"^training diverged at iteration 3: batch NLL"):
            train(dataset, embeddings, cfg)

    def test_overflowing_update_caught_at_snapshot(self):
        # From zeros the first batch NLL is finite, but the first SGD step
        # overflows W_e before the snapshot of iteration 1.
        dataset, embeddings = tiny_problem(seed=13)
        cfg = TrainConfig(batch_size=4, max_iterations=10, eval_every=1,
                          seed=0, optimizer="sgd", init_scheme="zeros",
                          learning_rate=1e308)
        with pytest.raises(DivergenceError,
                           match=r"^training diverged at iteration 1: parameters"):
            train(dataset, embeddings, cfg)


TRAIN = sys.modules["zslkit.train"]  # zslkit.train names the function


@contextlib.contextmanager
def split_sweep(cpus=(0, 1)):
    """Training sweeps W_e split between this process and a worker per
    further CPU of `cpus`, each process given at least one row block;
    workers are not pinned. Yields the pids forked."""
    forks = []
    fork = os.fork

    def spy():
        forks.append(fork())
        return forks[-1]

    with mock.patch.object(TRAIN, "_MIN_SWEEP_BLOCKS", 1), \
            mock.patch.object(os, "fork", spy), \
            mock.patch.object(os, "sched_getaffinity", lambda pid: set(cpus)), \
            mock.patch.object(os, "sched_setaffinity", lambda pid, cpus: None):
        yield forks


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def sweep_case(**config):
    """W_e of 256 x 161 in two row blocks; the second, which holds the w_y
    row, is the worker's share."""
    dataset, embeddings = tiny_problem(seed=12, d=255, m=160)
    return dataset, embeddings, TrainConfig(batch_size=4, max_iterations=12, eval_every=4,
                                            seed=6, learning_rate=0.05, **config)


class TestSplitSweep:
    @LINEAR_TERMS
    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    def test_same_bits_as_one_process(self, optimizer, use_wx, use_wy):
        case = sweep_case(optimizer=optimizer, use_wx=use_wx, use_wy=use_wy)
        with split_sweep(cpus=(0,)) as forks:
            serial = train(*case)
        assert forks == []
        with split_sweep() as forks:
            split = train(*case)
        assert len(forks) == 1
        no_child_left()
        assert split.model.W_e.tobytes() == serial.model.W_e.tobytes()
        assert (split.records, split.best_iteration) == (serial.records, serial.best_iteration)

    def test_three_processes_give_the_same_bits(self):
        dataset, embeddings, cfg = sweep_case()
        serial = train(dataset, embeddings, cfg)
        with mock.patch("zslkit.optim.ADAM_BLOCK", 161 * 40), split_sweep((0, 1, 2)) as forks:
            split = train(dataset, embeddings, cfg)  # seven blocks, three shares
        assert len(forks) == 2
        no_child_left()
        np.testing.assert_array_equal(split.model.W_e, serial.model.W_e)

    def test_fork_failure_sweeps_here(self):
        case = sweep_case()
        serial = train(*case)

        def no_fork():
            raise OSError("no process to spare")

        with split_sweep(), mock.patch.object(os, "fork", no_fork):
            split = train(*case)
        assert split.model.W_e.tobytes() == serial.model.W_e.tobytes()
        no_child_left()

    def test_divergence_reaps_the_worker(self):
        dataset, embeddings = tiny_problem(seed=13, d=255, m=160)
        cfg = TrainConfig(batch_size=4, max_iterations=10, eval_every=10,
                          seed=0, learning_rate=1e307)
        with pytest.raises(DivergenceError) as serial:
            train(dataset, embeddings, cfg)
        with split_sweep() as forks, pytest.raises(DivergenceError) as split:
            train(dataset, embeddings, cfg)
        assert len(forks) == 1 and str(split.value) == str(serial.value)
        assert str(split.value).startswith("training diverged at iteration ")
        no_child_left()

    def test_worker_that_exits_stops_training(self, monkeypatch):
        """A worker gone at its second step has left its rows of W_e half
        updated: training stops with the iteration named."""
        parent, step = os.getpid(), TRAIN.adam_step

        def exits_at_step_2(state, *args, **kwargs):
            if os.getpid() != parent and state.t == 1:
                os._exit(3)
            return step(state, *args, **kwargs)

        monkeypatch.setattr(TRAIN, "adam_step", exits_at_step_2)
        with split_sweep() as forks, pytest.raises(ZslError, match=(
                r"^training failed at iteration 2: a sweep worker stopped ")):
            train(*sweep_case())
        assert len(forks) == 1
        no_child_left()

    def test_worker_loop_in_process(self, monkeypatch):
        """What a forked worker runs, run in this process: pinned to its CPU,
        it sweeps its share of W_e once per byte from the process and answers
        each with a byte, until the pipe from the process closes."""
        class Exited(Exception):
            pass

        def exit_(status):
            raise Exited(status)

        kept, pinned, shares = [], [], []
        pipe, step = os.pipe, TRAIN.adam_step

        def one_byte_pipes():
            r, w = pipe()
            if kept:  # to the worker: one step, then end of file
                os.write(w, b"\1")
                kept.append(r)
            else:  # from the worker, which closes the read end
                kept.append(os.dup(r))
            return r, w

        def spy(state, params, grad, **walk):
            shares.append(walk["rows"])
            return step(state, params, grad, **walk)

        monkeypatch.setattr(TRAIN, "adam_step", spy)
        with split_sweep(), mock.patch.object(os, "pipe", one_byte_pipes), \
                mock.patch.object(os, "fork", lambda: 0), \
                mock.patch.object(os, "_exit", exit_), \
                mock.patch.object(os, "sched_setaffinity",
                                  lambda pid, cpus: pinned.append((pid, cpus))):
            with pytest.raises(Exited) as exc:
                train(*sweep_case())
        answers, to_worker = kept
        os.close(to_worker)  # left open by the worker, which never exited
        assert exc.value.args == (0,) and pinned == [(0, {1})]
        assert shares == [(203, 256)]  # the second of two blocks of up to 203 rows
        with open(answers, "rb") as sent:
            assert sent.read() == b"\1"


class TestForked:
    def test_pins_this_process_while_children_run(self):
        """The process runs on the first CPU while its child runs, and gets
        its CPU mask back when the child is reaped."""
        calls = []
        with mock.patch.object(os, "sched_getaffinity", lambda pid: {3, 5, 7}), \
                mock.patch.object(os, "sched_setaffinity",
                                  lambda pid, cpus: calls.append((pid, cpus))):
            with _forked(2, lambda out, k, n: out.write(b"done")) as (n, parts):
                assert n == 2 and calls == [(0, {3})]
                assert parts[0].read() == b"done"
        assert calls == [(0, {3}), (0, {3, 5, 7})]
        no_child_left()

    def test_one_cpu_leaves_the_mask_alone(self):
        with mock.patch.object(os, "sched_getaffinity", lambda pid: {0}), \
                mock.patch.object(os, "sched_setaffinity", mock.Mock()) as set_mask:
            with _forked(2, None, duplex=True) as (n, parts):
                assert (n, parts) == (1, [])
        set_mask.assert_not_called()


class TestOwnedRows:
    """Each row block of W_e has one owner process, which alone draws,
    sweeps, checks and keeps its rows."""

    def test_rows_drawn_in_shares_are_one_draw(self):
        """Each entry of the glorot_uniform draw takes one draw of the
        stream, so rows drawn by their owners hold the bits of one draw."""
        d, m = 255, 160
        bound = np.sqrt(6.0 / (d + 1 + m + 1))
        whole = component_rng(9, "init").uniform(-bound, bound, size=(d + 1, m + 1))
        assert init_model(d, m, seed=9).W_e.tobytes() == whole.tobytes()
        W_e = np.empty_like(whole)
        for start, stop in ((203, 256), (0, 100), (100, 203)):
            _draw_rows(W_e, start, stop, 9)
        assert W_e.tobytes() == whole.tobytes()

    def test_divergence_in_the_workers_rows_names_the_serial_fault(self, monkeypatch):
        """Rows of the worker's share that stop being finite just before a
        snapshot are found by the worker, and training stops with the
        message of a run in one process."""
        step = TRAIN.adam_step

        def overflow_at_step_4(state, params, grad, **walk):
            step(state, params, grad, **walk)
            if state.t == 4 and walk["rows"][1] == len(params):  # the last rows' share
                params[-2, 0] = np.inf

        monkeypatch.setattr(TRAIN, "adam_step", overflow_at_step_4)
        case = sweep_case()
        with pytest.raises(DivergenceError) as serial:
            train(*case)
        with split_sweep() as forks, pytest.raises(DivergenceError) as split:
            train(*case)
        assert len(forks) == 1
        assert str(split.value) == str(serial.value) == (
            "training diverged at iteration 4: parameters are not finite")
        no_child_left()

    def test_overflowing_validation_scores_name_the_iteration(self):
        """Finite parameters whose validation scores overflow stop training
        at the first snapshot, with the iteration named."""
        dataset, embeddings = tiny_problem(seed=13)
        matrix = embeddings.matrix.copy()
        matrix[2:4] = 1e308  # the validation classes c2 and c3
        huge = ClassEmbeddingSet(embeddings.class_names, matrix, embeddings.block_layout)
        cfg = TrainConfig(batch_size=4, max_iterations=10, eval_every=5, seed=0)
        with pytest.raises(DivergenceError, match=(
                r"^training diverged at iteration 5: validation scores are not "
                r"finite \(nan or inf\)$")):
            train(dataset, huge, cfg)

    def test_parent_maps_only_its_rows(self):
        """In a fresh interpreter, training a W_e of 16 MiB split between
        two processes raises this process's peak RSS less than training it
        in one process does, by at least 1.5 times W_e: this process holds
        only its half of W_e, of the moments and of the best snapshot."""
        if not os.path.exists("/proc/self/status"):
            pytest.skip("VmHWM is read from /proc/self/status")
        code = """if True:
            import os, sys
            import numpy as np
            from zslkit.embeddings import ClassEmbeddingSet
            from zslkit.evaluate import ClassSplits, SplitDataset
            from zslkit.train import TrainConfig, train

            cpus = set(range(int(sys.argv[1])))
            os.sched_getaffinity = lambda pid: cpus
            os.sched_setaffinity = lambda pid, mask: None
            d, m = 4095, 511  # W_e of 4096 x 512 float64: 16 MiB
            rng = np.random.default_rng(0)
            classes = tuple(f"c{i}" for i in range(6))
            labels = tuple(c for c in classes for _ in range(2))
            dataset = SplitDataset(tuple(f"i{i}" for i in range(12)),
                                   rng.normal(size=(12, d)), labels,
                                   ClassSplits(classes[:2], classes[2:4], classes[4:]))
            embeddings = ClassEmbeddingSet(classes, rng.normal(size=(6, m)),
                                           (("word", 0, m),))

            def peak_kib():
                with open("/proc/self/status") as status:
                    return next(int(line.split()[1]) for line in status
                                if line.startswith("VmHWM:"))

            before = peak_kib()
            train(dataset, embeddings, TrainConfig(batch_size=4, max_iterations=2,
                                                   eval_every=1, seed=0))
            print(peak_kib() - before)
        """
        env = dict(os.environ, PYTHONPATH=str(os.path.dirname(os.path.dirname(zslkit.__file__))))
        growth = {cpus: int(subprocess.run([sys.executable, "-c", code, str(cpus)], env=env,
                                           capture_output=True, text=True, check=True).stdout)
                  for cpus in (1, 2)}
        W_e_kib = 4096 * 512 * 8 // 1024
        assert growth[1] - growth[2] >= 1.5 * W_e_kib, growth


class TestOneBlasThread:
    def test_train_sets_one_thread_and_restores_the_count(self, monkeypatch):
        counts = []
        monkeypatch.setattr(forking, "_blas_threads", lambda: (counts.append, lambda: 4))
        train(*tiny_problem(seed=1), TrainConfig(batch_size=4, max_iterations=2, eval_every=2))
        assert counts == [1, 4]

    def test_numpys_openblas_count_inside_and_after(self):
        blas = forking._blas_threads()
        if blas is None:
            pytest.skip("numpy's BLAS is not an OpenBLAS with a thread-count call")
        set_threads, get_threads = blas
        before = get_threads()
        try:
            set_threads(2)
            with forking.one_blas_thread():
                assert get_threads() == 1
            assert get_threads() == 2
        finally:
            set_threads(before)

    def test_without_the_call_nothing_changes(self, monkeypatch):
        """A BLAS that exports none of the thread-count calls is left as it
        is, and training runs."""
        monkeypatch.setattr(forking, "_BLAS_SYMBOLS", (("no_such_set", "no_such_get"),))
        forking._blas_threads.cache_clear()
        try:
            assert forking._blas_threads() is None
            report = train(*tiny_problem(seed=1),
                           TrainConfig(batch_size=4, max_iterations=2, eval_every=2))
            assert len(report.records) == 1
        finally:
            forking._blas_threads.cache_clear()
