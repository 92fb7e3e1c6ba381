import math
import re

import numpy as np
import pytest

from zslkit.errors import EmptyClassSetError, ShapeMismatchError, UnseenLabelError
from zslkit.model import (
    CompatModel,
    extend_embedding,
    gradient,
    nll,
    predict,
    score,
    score_matrix,
)


def random_instance(rng, d=5, m=4, n_classes=3, batch=6):
    model = CompatModel(rng.normal(size=(d + 1, m + 1)))
    Phi = rng.normal(size=(batch, d))
    Psi = rng.normal(size=(n_classes, m))
    labels = rng.integers(0, n_classes, size=batch)
    return model, Phi, labels, Psi


def expanded_reference(W_e, phi, psi):
    """Four-term sum computed with explicit loops, no matrix products."""
    d, m = len(phi), len(psi)
    total = float(W_e[d, m])
    for u in range(d):
        total += W_e[u, m] * phi[u]
        for v in range(m):
            total += W_e[u, v] * phi[u] * psi[v]
    for v in range(m):
        total += W_e[d, v] * psi[v]
    return total


class TestExtendEmbedding:
    def test_zero_vector(self):
        assert extend_embedding(np.zeros(2)).tolist() == [0, 0, 1]

    def test_appends_one(self):
        assert extend_embedding(np.array([3.0, -1.0, 2.0])).tolist() == [3, -1, 2, 1]

    @pytest.mark.parametrize("d", range(1, 11))
    def test_dimension_contract(self, d):
        assert extend_embedding(np.zeros(d)).shape == (d + 1,)

    def test_row_stack(self):
        out = extend_embedding(np.ones((3, 2)))
        assert out.shape == (3, 3)
        assert np.all(out[:, 2] == 1.0)


class TestScore:
    def test_orthogonal_one_hots(self):
        W_e = np.zeros((3, 3))
        W_e[:2, :2] = np.eye(2)
        assert score(CompatModel(W_e), np.array([1.0, 0.0]),
                     np.array([0.0, 1.0])) == 0.0

    def test_bias_only(self):
        W_e = np.zeros((3, 4))
        W_e[2, 3] = 5.0
        model = CompatModel(W_e)
        rng = np.random.default_rng(0)
        for _ in range(5):
            assert score(model, rng.normal(size=2), rng.normal(size=3)) == 5.0

    def test_expanded_equals_augmented(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            W_e = rng.normal(size=(4, 5))  # d=3, m=4
            phi = rng.normal(size=3)
            psi = rng.normal(size=4)
            expanded = expanded_reference(W_e, phi, psi)
            augmented = float(extend_embedding(phi) @ W_e @ extend_embedding(psi))
            got = score(CompatModel(W_e), phi, psi)
            assert abs(got - expanded) < 1e-12
            assert abs(got - augmented) < 1e-12

    def test_zero_linear_terms_reduce_to_bilinear(self):
        rng = np.random.default_rng(2)
        W_e = np.zeros((4, 5))
        W_e[:3, :4] = rng.normal(size=(3, 4))
        model = CompatModel(W_e)
        for _ in range(10):
            phi = rng.normal(size=3)
            psi = rng.normal(size=4)
            assert score(model, phi, psi) == float(phi @ model.W @ psi)

    def test_shape_errors(self):
        model = CompatModel(np.zeros((3, 3)))
        with pytest.raises(ShapeMismatchError):
            score(model, np.zeros(5), np.zeros(2))
        with pytest.raises(ShapeMismatchError):
            score(model, np.zeros(2), np.zeros(5))

    def test_rejects_non_finite(self):
        with pytest.raises(ShapeMismatchError):
            CompatModel(np.array([[1.0, np.nan], [0.0, 0.0]]))


class TestScoreAll:
    """One image against every candidate: score_matrix on a one-row stack."""

    def test_single_class(self):
        rng = np.random.default_rng(3)
        model, phi, psi = CompatModel(rng.normal(size=(3, 3))), rng.normal(size=2), rng.normal(size=2)
        out = score_matrix(model, phi[None, :], psi[None, :])
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(score(model, phi, psi), abs=1e-12)

    def test_duplicated_class(self):
        rng = np.random.default_rng(4)
        model = CompatModel(rng.normal(size=(3, 3)))
        phi = rng.normal(size=2)
        psi = rng.normal(size=2)
        out = score_matrix(model, phi[None, :], np.vstack([psi, psi]))
        assert out[0, 0] == out[0, 1]

    def test_elementwise_oracle(self):
        rng = np.random.default_rng(5)
        model = CompatModel(rng.normal(size=(4, 6)))
        phi = rng.normal(size=3)
        Psi = rng.normal(size=(4, 5))
        out = score_matrix(model, phi[None, :], Psi)[0]
        for i in range(4):
            assert out[i] == pytest.approx(score(model, phi, Psi[i]), abs=1e-12)

    def test_empty_class_set(self):
        model = CompatModel(np.zeros((3, 3)))
        with pytest.raises(EmptyClassSetError):
            score_matrix(model, np.zeros((1, 2)), np.empty((0, 2)))


class TestNll:
    def test_two_classes_equal_scores(self):
        model = CompatModel.zeros(2, 2)
        Phi = np.array([[0.4, 0.6]])
        Psi = np.eye(2)
        assert nll(model, Phi, [0], Psi) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_large_margin_goes_to_zero(self):
        W_e = np.zeros((2, 2))
        W_e[0, 0] = 50.0  # psi_true=(1), psi_other=(0), phi=(1) -> margin 50
        model = CompatModel(W_e)
        value = nll(model, np.array([[1.0]]), [0], np.array([[1.0], [0.0]]))
        assert 0.0 <= value < 1e-20

    def test_additivity(self):
        rng = np.random.default_rng(6)
        model, Phi, labels, Psi = random_instance(rng, batch=3)
        total = nll(model, Phi, labels, Psi)
        parts = sum(nll(model, Phi[i:i + 1], labels[i:i + 1], Psi) for i in range(3))
        assert total == pytest.approx(parts, abs=1e-12)

    def test_nonnegative_and_uniform_at_zero(self):
        rng = np.random.default_rng(7)
        Phi = rng.normal(size=(8, 3))
        Psi = rng.normal(size=(5, 4))
        labels = rng.integers(0, 5, size=8)
        assert nll(CompatModel.zeros(3, 4), Phi, labels, Psi) == pytest.approx(
            8 * math.log(5), abs=1e-9)
        model = CompatModel(rng.normal(size=(4, 5)))
        assert nll(model, Phi, labels, Psi) >= 0.0

    def test_unseen_label(self):
        model = CompatModel.zeros(2, 2)
        with pytest.raises(UnseenLabelError):
            nll(model, np.zeros((1, 2)), [5], np.eye(2))


class TestGradient:
    def test_symmetric_start_algebra(self):
        # zero model, two one-hot classes: bilinear block is
        # -phi (psi1 - psi2)^T / 2
        model = CompatModel.zeros(2, 2)
        phi = np.array([0.3, -0.7])
        Psi = np.eye(2)
        G = gradient(model, phi[None, :], [0], Psi)
        expected = -0.5 * np.outer(phi, Psi[0] - Psi[1])
        np.testing.assert_allclose(G[:2, :2], expected, atol=1e-12)

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            model, Phi, labels, Psi = random_instance(rng)
            G = gradient(model, Phi, labels, Psi)
            fd = np.zeros_like(G)
            eps = 1e-5
            for i in range(G.shape[0]):
                for j in range(G.shape[1]):
                    Wp = model.W_e.copy()
                    Wm = model.W_e.copy()
                    Wp[i, j] += eps
                    Wm[i, j] -= eps
                    fd[i, j] = (nll(CompatModel(Wp), Phi, labels, Psi)
                                - nll(CompatModel(Wm), Phi, labels, Psi)) / (2 * eps)
            denom = np.maximum(np.abs(fd), np.abs(G))
            rel = np.abs(fd - G) / np.where(denom > 0, denom, 1.0)
            rel[(np.abs(fd) < 1e-8) & (np.abs(G) < 1e-8)] = 0.0
            assert rel.max() < 1e-5

    def test_batch_is_sum_of_samples(self):
        rng = np.random.default_rng(9)
        model, Phi, labels, Psi = random_instance(rng)
        total = gradient(model, Phi, labels, Psi)
        parts = sum(gradient(model, Phi[i:i + 1], labels[i:i + 1], Psi)
                    for i in range(len(labels)))
        np.testing.assert_allclose(total, parts, atol=1e-12)

    def test_shape(self):
        rng = np.random.default_rng(10)
        model, Phi, labels, Psi = random_instance(rng, d=7, m=3)
        assert gradient(model, Phi, labels, Psi).shape == (8, 4)


class TestPredict:
    def test_single_candidate(self):
        model = CompatModel.zeros(2, 2)
        assert predict(model, np.zeros(2), np.ones((1, 2))) == 0

    def test_tie_breaks_to_lowest_index(self):
        # scores (2, 7, 7): W=[[1]], phi=(1), psi in {2, 7, 7}
        W_e = np.zeros((2, 2))
        W_e[0, 0] = 1.0
        model = CompatModel(W_e)
        Psi = np.array([[2.0], [7.0], [7.0]])
        assert predict(model, np.array([1.0]), Psi) == 1

    def test_bias_shift_leaves_argmax(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            model, Phi, _, Psi = random_instance(rng)
            phi = Phi[0]
            before = predict(model, phi, Psi)
            shifted = model.W_e.copy()
            shifted[-1, -1] += rng.normal() * 100
            assert predict(CompatModel(shifted), phi, Psi) == before

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(12)
        model, Phi, _, Psi = random_instance(rng)
        s = score_matrix(model, Phi[:1], Psi)[0]
        base = predict(model, Phi[0], Psi)
        for a, c in [(2.0, 0.0), (0.5, 3.0), (10.0, -7.0)]:
            assert int(np.argmax(a * s + c)) == base

    def test_empty_candidates(self):
        model = CompatModel.zeros(2, 2)
        with pytest.raises(EmptyClassSetError):
            predict(model, np.zeros(2), np.empty((0, 2)))


@pytest.mark.parametrize("call,message", [
    (lambda model: CompatModel(np.zeros((1, 3))), "W_e must be at least 2x2, got shape (1, 3)"),
    (lambda model: score_matrix(model, np.zeros((2, 3)), np.zeros(5)),
     "class embeddings have length 5, expected 4"),
    (lambda model: score_matrix(model, np.zeros((2, 3)), np.zeros((2, 5))),
     "class embeddings have length 5, expected 4"),
    (lambda model: score_matrix(model, np.zeros((2, 2)), np.zeros((1, 4))),
     "Phi has shape (2, 2), expected (n, 3)"),
    (lambda model: nll(model, np.zeros(3), [0], np.zeros((1, 4))),
     "batch features have shape (3,), expected (n, 3)"),
    (lambda model: gradient(model, np.zeros((2, 3)), [0], np.zeros((1, 4))),
     "labels have shape (1,), expected (2,)"),
    (lambda model: predict(model, np.zeros((1, 3)), np.zeros((1, 4))),
     "phi has shape (1, 3), expected (3,)")],
    ids=["below-2x2", "one-class-vector-width", "class-width", "score-rows",
         "batch-rows", "batch-labels", "predict-phi"])
def test_shape_mismatch_refused(call, message):
    with pytest.raises(ShapeMismatchError, match=f"^{re.escape(message)}$"):
        call(CompatModel.zeros(3, 4))


class TestScoreMatrix:
    def test_every_entry_matches_score(self):
        rng = np.random.default_rng(13)
        model, Phi, _, Psi = random_instance(rng, batch=4)
        S = score_matrix(model, Phi, Psi)
        for i in range(4):
            for k in range(len(Psi)):
                assert S[i, k] == pytest.approx(score(model, Phi[i], Psi[k]),
                                                abs=1e-12)
