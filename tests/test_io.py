import contextlib
import json
import os
import pickle
import tracemalloc
from io import BytesIO
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from synthdata import block_signal_problem, write_experiment_files
from zslkit import io
from zslkit.embeddings import (
    AttributeAssignment,
    AttributeSchema,
    ClassEmbeddingSet,
    TaxonomyTree,
    WordVectorTable,
)
from zslkit.errors import (
    AlignmentError,
    ConfigError,
    DegenerateFeatureError,
    ParseError,
    ZslError,
)
from zslkit.evaluate import ClassSplits
from zslkit.model import CompatModel


class TestFeatures:
    def test_three_four_five_normalization(self, tmp_path):
        p = tmp_path / "f.txt"
        p.write_text("d=2 n=1 normalized=0\nx 3.0 4.0\n")
        fs = io.load_features(p, l2_normalize=True)
        np.testing.assert_allclose(fs.matrix[0], [0.6, 0.8])
        assert fs.normalized

    def test_zero_vector_rejected_under_normalization(self, tmp_path):
        p = tmp_path / "f.txt"
        p.write_text("d=2 n=1 normalized=0\nx 0.0 0.0\n")
        with pytest.raises(DegenerateFeatureError):
            io.load_features(p, l2_normalize=True)

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        fs = io.FeatureSet(("a", "b", "c"), rng.normal(size=(3, 5)), False)
        p = tmp_path / "f.txt"
        io.save_features(p, fs)
        back = io.load_features(p)
        assert back.ids == fs.ids
        assert back.matrix.tobytes() == fs.matrix.tobytes()
        assert back.normalized == fs.normalized

    def test_integer_matrix_written_as_floats(self, tmp_path):
        p = tmp_path / "f.txt"
        io.save_features(p, io.FeatureSet(("x",), np.array([[1, -2]]), False))
        assert p.read_text() == "d=2 n=1 normalized=0\nx 1.0 -2.0\n"

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False,
                                     width=64),
                           min_size=2, max_size=6))
    def test_round_trip_arbitrary_floats(self, values, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("feat")
        fs = io.FeatureSet(("row0",), np.array([values]), False)
        io.save_features(tmp / "f.txt", fs)
        back = io.load_features(tmp / "f.txt")
        assert back.matrix.tobytes() == fs.matrix.tobytes()

    def test_parse_errors_carry_line_numbers(self, tmp_path):
        p = tmp_path / "f.txt"
        p.write_text("d=2 n=2 normalized=0\na 1.0 2.0\nb 1.0\n")
        with pytest.raises(ParseError) as exc:
            io.load_features(p)
        assert exc.value.line == 3

        p.write_text("d=2 n=2 normalized=0\na 1.0 2.0\na 3.0 4.0\n")
        with pytest.raises(ParseError, match="duplicate"):
            io.load_features(p)

        p.write_text("d=2 n=3 normalized=0\na 1.0 2.0\nb 3.0 4.0\n")
        with pytest.raises(ParseError, match="n=3"):
            io.load_features(p)

        p.write_text("dims 2\n")
        with pytest.raises(ParseError):
            io.load_features(p)

    def test_normalized_flag_is_checked(self, tmp_path):
        p = tmp_path / "f.txt"
        p.write_text("d=2 n=1 normalized=1\nx 3.0 4.0\n")
        with pytest.raises(ParseError, match="norm"):
            io.load_features(p)

    @pytest.mark.parametrize("shape", [(0, 3), (1, 5), (256, 4), (600, 37)])
    def test_chunked_row_norms_bit_identical(self, shape):
        rng = np.random.default_rng(shape[0])
        matrix = rng.normal(size=shape) * 10.0 ** rng.integers(-150, 150, size=(shape[0], 1))
        assert (io._row_norms(matrix).tobytes()
                == np.linalg.norm(matrix, axis=1).tobytes())

    def test_row_norms_over_and_underflow(self):
        """A finite nonzero row whose squares overflow or underflow gets its
        largest magnitude times the norm of the row divided by it; a zero
        row keeps 0, a non-finite row its plain norm, with no warning."""
        rows = np.array([[1e200, -1e200], [1e-200, 1e-200], [5e-324, 0.0], [3.0, 4.0],
                         [0.0, -0.0], [np.inf, 1.0], [np.nan, 1.0], [1.7e308, 1.7e308]])
        norms = io._row_norms(rows)
        assert norms.tolist()[:5] == [
            1e200 * np.sqrt(2.0), 1e-200 * np.sqrt(2.0), 5e-324, 5.0, 0.0]
        assert np.isinf(norms[[5, 7]]).all() and np.isnan(norms[6])

    @pytest.mark.parametrize("values", [(1e200, 1e200), (1e-200, -1e-200),
                                        (5e-324, 0.0), (1e308, -1e308)])
    @pytest.mark.parametrize("row_loop", [False, True], ids=["chunks", "row-loop"])
    def test_l2_normalizes_rows_whose_squares_overflow_or_underflow(
            self, tmp_path, values, row_loop):
        p = tmp_path / "f.txt"
        p.write_text(f"d=2 n=2 normalized=0\na {values[0]!r} {values[1]!r}\nb 3.0 4.0\n")
        with (mock.patch.object(io.np, "loadtxt", refuse_chunk) if row_loop
              else contextlib.nullcontext()):
            fs = io.load_features(p, l2_normalize=True)
        row, m = np.array(values), max(map(abs, values))
        assert fs.matrix.tobytes() == np.array(
            [row / (m * np.linalg.norm(row / m)), [0.6, 0.8]]).tobytes()
        assert np.allclose(np.linalg.norm(fs.matrix, axis=1), 1.0)

    @pytest.mark.parametrize("normalized, message", [
        (0, "row 'b' has a norm too large for a float"),
        (1, f"row 'b' declared normalized but has norm {np.float64(np.inf)!r}")])
    @pytest.mark.parametrize("row_loop", [False, True], ids=["chunks", "row-loop"])
    def test_norm_too_large_for_a_float_refused_at_its_line(
            self, tmp_path, normalized, message, row_loop):
        p = tmp_path / "f.txt"
        p.write_text(f"d=2 n=2 normalized={normalized}\na 0.6 0.8\nb 1.7e308 -1.7e308\n")
        with (mock.patch.object(io.np, "loadtxt", refuse_chunk) if row_loop
              else contextlib.nullcontext()), pytest.raises(ParseError) as exc:
            io.load_features(p, l2_normalize=True)
        assert exc.value.line == 3 and str(exc.value).endswith(message)

    def test_normalized_check_names_row_past_first_chunk(self, tmp_path):
        rows = np.random.default_rng(9).normal(size=(300, 4))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        rows[280] *= 2.0
        ids = tuple(f"i{k}" for k in range(300))
        p = tmp_path / "f.txt"
        io.save_features(p, io.FeatureSet(ids, rows, True))
        with pytest.raises(ParseError) as exc:
            io.load_features(p)
        assert exc.value.line == 282
        norm = np.linalg.norm(rows[280])
        assert str(exc.value).endswith(
            f"row 'i280' declared normalized but has norm {norm!r}")


def inf_in_class_embedding_set():
    """A set whose matrix gains an inf after construction, which refuses one."""
    embeddings = ClassEmbeddingSet(("A", "B"), np.array([[1.0, 2.0], [2.0, 0.0]]),
                                   (("word", 0, 2),))
    embeddings.matrix[1, 1] = -np.inf
    return embeddings


class TestNonFiniteValues:
    """nan and inf parse as floats; every numeric loader refuses them with
    the path and the line of the first offending row."""

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_features(self, tmp_path, token):
        p = tmp_path / "f.txt"
        p.write_text(f"d=2 n=3 normalized=0\na 1.0 2.0\nb 3.0 {token}\n"
                     "c nan 1.0\n")
        with pytest.raises(ParseError, match="non-finite") as exc:
            io.load_features(p)
        assert (exc.value.path, exc.value.line) == (str(p), 3)

    def test_word_vectors(self, tmp_path):
        p = tmp_path / "w.txt"
        p.write_text("oak 1.0 2.0\nfir -inf 1.0\n")
        with pytest.raises(ParseError, match="non-finite") as exc:
            io.load_word_vectors(p)
        assert (exc.value.path, exc.value.line) == (str(p), 2)

    def test_class_embeddings(self, tmp_path):
        p = tmp_path / "e.txt"
        p.write_text("m=2 n=2\nblocks=word:0:2\n\nA\t1.0 2.0\nB\t2.0 nan\n")
        with pytest.raises(ParseError, match="non-finite") as exc:
            io.load_class_embeddings(p)
        assert (exc.value.path, exc.value.line) == (str(p), 5)

    @pytest.mark.parametrize("save, value, label", [
        (io.save_features,
         io.FeatureSet(("a", "b"), np.array([[1.0, 2.0], [np.nan, 1.0]]), False), "b"),
        (io.save_word_vectors,
         WordVectorTable(2, {"oak": [1.0, 2.0], "fir": [np.inf, 1.0]}), "fir"),
        (io.save_class_embeddings, inf_in_class_embedding_set(), "B"),
    ], ids=["features", "word_vectors", "class_embeddings"])
    def test_savers_refuse_before_opening(self, tmp_path, save, value, label):
        path = tmp_path / "out.txt"
        with pytest.raises(ZslError) as exc:
            save(path, value)
        assert str(exc.value) == f"{path}: cannot write row {label!r}: nan or inf"
        assert not path.exists()


class TestLabelsAndSplits:
    def test_labels_round_trip(self, tmp_path):
        labels = {"i1": "Scarlet Oak", "i2": "Kousa Dogwood"}
        io.save_labels(tmp_path / "l.tsv", labels)
        assert io.load_labels(tmp_path / "l.tsv") == labels

    def test_labels_reject_duplicates(self, tmp_path):
        p = tmp_path / "l.tsv"
        p.write_text("i1\tA\ni1\tB\n")
        with pytest.raises(ParseError, match="duplicate"):
            io.load_labels(p)

    def test_splits_round_trip(self, tmp_path):
        splits = ClassSplits(("A", "B"), ("C",), ("D", "E"))
        io.save_splits(tmp_path / "s.txt", splits)
        assert io.load_splits(tmp_path / "s.txt") == splits

    def test_splits_parse_errors(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("[seen]\nA\n[zsl_validation]\nB\n")
        with pytest.raises(ParseError, match="missing"):
            io.load_splits(p)
        p.write_text("[seen]\nA\nA\n[zsl_validation]\nB\n[zsl_test]\nC\n")
        with pytest.raises(ParseError, match="twice"):
            io.load_splits(p)
        p.write_text("[bogus]\nA\n")
        with pytest.raises(ParseError, match="unknown section"):
            io.load_splits(p)

    def test_overlap_is_semantic_not_parse(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("[seen]\nA\n[zsl_validation]\nA\n[zsl_test]\nC\n")
        splits = io.load_splits(p)  # parses fine
        assert splits.overlap_violations()


class TestSources:
    def test_word_vectors_round_trip(self, tmp_path):
        table = WordVectorTable(3, {"oak": (1.0, 2.0, 3.0),
                                    "fir": (-0.5, 0.25, 0.125)})
        io.save_word_vectors(tmp_path / "w.txt", table)
        back = io.load_word_vectors(tmp_path / "w.txt")
        assert back.dimension == 3
        np.testing.assert_array_equal(back.vectors["fir"], table.vectors["fir"])

    def test_word_vectors_dimension_mismatch(self, tmp_path):
        p = tmp_path / "w.txt"
        p.write_text("oak 1.0 2.0\nfir 1.0\n")
        with pytest.raises(ParseError) as exc:
            io.load_word_vectors(p)
        assert exc.value.line == 2

    def test_taxonomy_round_trip(self, tmp_path):
        tree = TaxonomyTree.from_edges([("a", "r"), ("b", "r"), ("c", "a")])
        io.save_taxonomy(tmp_path / "t.tsv", tree)
        back = io.load_taxonomy(tmp_path / "t.tsv")
        assert back.node_order == tree.node_order
        assert back.leaves() == tree.leaves()

    def test_leaf_map_round_trip(self, tmp_path):
        m = {"Scarlet Oak": "Quercus coccinea"}
        io.save_leaf_map(tmp_path / "m.tsv", m)
        assert io.load_leaf_map(tmp_path / "m.tsv") == m

    def test_schema_and_assignments_round_trip(self, tmp_path):
        schema = AttributeSchema((("Crown density", ("open", "moderate", "dense")),
                                  ("Fall color", ("green", "red", "orange"))))
        io.save_attribute_schema(tmp_path / "schema.tsv", schema)
        assert io.load_attribute_schema(tmp_path / "schema.tsv") == schema

        assignments = {"Scarlet Oak": AttributeAssignment(
            "Scarlet Oak", {"Crown density": frozenset(["dense"]),
                            "Fall color": frozenset(["red", "orange"])})}
        io.save_attribute_assignments(tmp_path / "a.tsv", assignments)
        back = io.load_attribute_assignments(tmp_path / "a.tsv")
        assert back == assignments

    def test_repeated_attribute_in_assignment_refused(self, tmp_path):
        p = tmp_path / "a.tsv"
        p.write_text("B\tsize=small\nA\tsize=small\tsize=large\n")
        with pytest.raises(ParseError, match="'size'") as exc:
            io.load_attribute_assignments(p)
        assert exc.value.path == str(p) and exc.value.line == 2

    def test_repeated_attribute_in_schema_refused(self, tmp_path):
        p = tmp_path / "schema.tsv"
        p.write_text("size\tsmall,large\ncolor\tred,green\nsize\tsmall,huge\n")
        with pytest.raises(ParseError, match="'size'") as exc:
            io.load_attribute_schema(p)
        assert exc.value.path == str(p) and exc.value.line == 3


    @pytest.mark.parametrize("values,message", [
        ("small,small", "has duplicate values"),
        ("small", "must offer at least two values")])
    def test_bad_schema_values_name_the_line(self, tmp_path, values, message):
        p = tmp_path / "schema.tsv"
        p.write_text(f"color\tred,green\nsize\t{values}\n")
        with pytest.raises(ParseError, match=f"'size' {message}") as exc:
            io.load_attribute_schema(p)
        assert exc.value.path == str(p) and exc.value.line == 2


class TestClassEmbeddings:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        emb = ClassEmbeddingSet(("Green Ash", "Douglas Fir"),
                                rng.normal(size=(2, 7)),
                                (("attribute", 0, 2), ("taxonomy", 2, 3),
                                 ("word", 5, 2)))
        io.save_class_embeddings(tmp_path / "e.txt", emb)
        back = io.load_class_embeddings(tmp_path / "e.txt")
        assert back.class_names == emb.class_names
        assert back.block_layout == emb.block_layout
        assert back.matrix.tobytes() == emb.matrix.tobytes()

    def test_bad_block_header(self, tmp_path):
        p = tmp_path / "e.txt"
        p.write_text("m=2 n=1\nlayout=word:0:2\nA\t1.0 2.0\n")
        with pytest.raises(ParseError, match="blocks="):
            io.load_class_embeddings(p)


class TestCheckpoint:
    def test_round_trip_and_stable_bytes(self, tmp_path):
        rng = np.random.default_rng(2)
        model = CompatModel(rng.normal(size=(4, 6)))
        layout = (("word", 0, 5),)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        io.save_checkpoint(p1, model, ("c1", "c2"), layout)
        io.save_checkpoint(p2, model, ("c1", "c2"), layout)
        assert p1.read_bytes() == p2.read_bytes()
        back = io.load_checkpoint(p1)
        assert back.model.W_e.tobytes() == model.W_e.tobytes()
        assert back.classes == ("c1", "c2")
        assert back.block_layout == layout

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.ckpt"
        p.write_bytes(b"NOTACKPT\n{}")
        with pytest.raises(ParseError, match="magic"):
            io.load_checkpoint(p)

    def test_metadata_line_without_newline(self, tmp_path):
        p = tmp_path / "x.ckpt"
        p.write_bytes(b"ZSLCKPT1\n" + json.dumps({"d": 1, "m": 1}).encode())
        with pytest.raises(ParseError, match="bad checkpoint metadata") as exc:
            io.load_checkpoint(p)
        assert exc.value.line == 2

    def test_truncated_payload(self, tmp_path):
        rng = np.random.default_rng(3)
        model = CompatModel(rng.normal(size=(3, 3)))
        p = tmp_path / "x.ckpt"
        io.save_checkpoint(p, model, ("c",), ())
        p.write_bytes(p.read_bytes()[:-8])
        with pytest.raises(ParseError, match="bytes"):
            io.load_checkpoint(p)


class TestConfig:
    def test_parse_types(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("# comment\nseed=7\nlearning_rate=0.01\n"
                     "oversample=true\noptimizer=adam\nbatch_size=32\n")
        cfg = io.load_config(p)
        assert cfg == {"seed": 7, "learning_rate": 0.01, "oversample": True,
                       "optimizer": "adam", "batch_size": 32}

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("momentum=0.9\n")
        with pytest.raises(ParseError, match="unknown config key"):
            io.load_config(p)
        with pytest.raises(ConfigError):
            io.parse_config_entry("momentum", "0.9")

    def test_bad_value(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("seed=often\n")
        with pytest.raises(ParseError, match="seed"):
            io.load_config(p)

    def test_duplicate_key(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("seed=1\nseed=2\n")
        with pytest.raises(ParseError, match="duplicate"):
            io.load_config(p)

    def test_paths_resolved_relative_to_config(self, tmp_path):
        cfg = io.resolve_config_paths({"features": "f.txt", "seed": 3}, tmp_path)
        assert cfg["features"] == str(tmp_path / "f.txt")
        assert cfg["seed"] == 3


class TestLoadDataset:
    def test_joins_by_id(self, tmp_path):
        dataset, sources = block_signal_problem(seed=0, n_classes=6, n_seen=3,
                                                n_val=2, per_class=4)
        write_experiment_files(tmp_path, dataset, sources)
        back = io.load_dataset(tmp_path / "features.txt", tmp_path / "labels.tsv",
                               tmp_path / "splits.txt")
        assert back.ids == dataset.ids
        assert back.labels == dataset.labels
        np.testing.assert_array_equal(back.features, dataset.features)

    @pytest.mark.parametrize("keep", [("zsl_test",), ("seen", "zsl_validation"), ()])
    def test_keeps_the_rows_of_the_named_splits(self, tmp_path, keep):
        dataset, sources = block_signal_problem(seed=0, n_classes=6, n_seen=3,
                                                n_val=2, per_class=4)
        write_experiment_files(tmp_path, dataset, sources)
        paths = [tmp_path / name for name in ("features.txt", "labels.tsv", "splits.txt")]
        full = io.load_dataset(*paths)
        back = io.load_dataset(*paths, keep_splits=keep)
        classes = {c for split in keep for c in full.splits.classes(split)}
        rows = [k for k, label in enumerate(full.labels) if label in classes]
        assert back.ids == tuple(full.ids[k] for k in rows)
        assert back.labels == tuple(full.labels[k] for k in rows)
        assert back.features.tobytes() == full.features[rows].tobytes()
        for split in keep:
            assert [a.tobytes() for a in back.subset(split)] == [
                a.tobytes() for a in full.subset(split)]

    @pytest.mark.parametrize("features, labels, splits", [
        ("x 1.0\ny 2.0\nz 3.0\n", "x\tA\ny\tC\nz\tC\nw\tA\n", None),
        ("x 1.0\ny 2.0\nz 3.0\n", "y\tC\nz\tC\n", None),
        ("x 1.0\ny 2.0\nz 3.0\n", "x\tstray\ny\tC\nz\tC\n", None),
        ("x 1.0\ny x\nz 3.0\n", "x\tA\ny\tC\nz\n", None),
        ("x 1.0\ny 2.0\nz 3.0\n", "x\tA\ny\tC\nz\n", None),
        ("x 1.0\ny x\nz 3.0\n", "x\tA\ny\tC\nz\tC\n", "[seen]\n"),
        ("x 1.0\ny 2.0\nz 3.0\n", "x\tA\ny\tC\nz\tC\n", "[seen]\n"),
        ("x 1.0\ny 2.0\nz 3.0\n", "x\tA\ny\tC\nz\tC\n", None),
    ], ids=["dropped-label-without-row", "dropped-row-without-label",
            "label-in-no-split", "bad-features-and-labels", "bad-labels",
            "bad-features-and-splits", "bad-splits", "clean"])
    def test_kept_load_checks_every_row_and_label(self, tmp_path, features, labels,
                                                   splits):
        """Keeping only the test split, the load fails where the full load does,
        with the same first error, or returns the test rows."""
        (tmp_path / "f.txt").write_text("d=1 n=3 normalized=0\n" + features)
        (tmp_path / "l.tsv").write_text(labels)
        (tmp_path / "s.txt").write_text(
            splits or "[seen]\nA\n[zsl_validation]\nB\n[zsl_test]\nC\n")

        def load(**keep):
            try:
                dataset = io.load_dataset(tmp_path / "f.txt", tmp_path / "l.tsv",
                                          tmp_path / "s.txt", **keep)
            except ZslError as exc:
                return type(exc), str(exc)
            return dataset.subset("zsl_test")[0].tobytes()

        assert load(keep_splits=("zsl_test",)) == load()

    def test_missing_label_detected(self, tmp_path):
        (tmp_path / "f.txt").write_text("d=1 n=1 normalized=0\nx 1.0\n")
        (tmp_path / "l.tsv").write_text("y\tA\n")
        (tmp_path / "s.txt").write_text("[seen]\nA\n[zsl_validation]\nB\n[zsl_test]\nC\n")
        with pytest.raises(AlignmentError):
            io.load_dataset(tmp_path / "f.txt", tmp_path / "l.tsv", tmp_path / "s.txt")


# Pieces of every text format, so that arbitrary joins of them reach the
# header, row and section parsers rather than failing on the first byte.
FRAGMENTS = [
    b"d=", b"m=", b"n=", b"normalized=", b"blocks=", b"seed=", b"use_wx=",
    b"learning_rate=", b"[seen]", b"[zsl_validation]", b"[zsl_test]",
    b"nan", b"inf", b"-inf", b"1e400", b"1000000000000", b"0", b"1", b"2", b"-1",
    b"0.6", b"a", b"b", b"=", b":", b";", b",", b"#", b"\t", b"\n", b" ", b"\xff",
    b"d=1 n=1 normalized=0\n", b"m=1 n=1\nblocks=word:0:1\n", b"a 1.0\n",
    b"d=1000000000000 n=1 normalized=0\n", b"m=1000000000000 n=1\nblocks=word:0:1\n",
    b"A\t1.0\n", b"A\tB\n", b"attr=a,b",
]

TEXT_LOADERS = [
    io.load_features, io.load_labels, io.load_splits, io.load_word_vectors,
    io.load_taxonomy, io.load_leaf_map, io.load_attribute_schema,
    io.load_attribute_assignments, io.load_class_embeddings, io.load_config,
]

# json writes and reads the non-finite floats as Infinity and NaN.
SCALARS = (st.none() | st.booleans() | st.integers(-1, 3) | st.integers()
           | st.floats() | st.sampled_from([float("inf"), float("-inf"), float("nan")])
           | st.text(max_size=4))
JSON_VALUES = st.recursive(
    SCALARS, lambda inner: (st.lists(inner, max_size=3)
                            | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6)
CHECKPOINT_META = JSON_VALUES | st.fixed_dictionaries(
    {"d": SCALARS, "m": SCALARS},
    optional={"classes": JSON_VALUES, "block_layout": JSON_VALUES})


def returns_or_refuses(loader, path):
    """The loader returns, or raises a ZslError; a ParseError names the
    file and a line >= 1. Any other exception fails the test."""
    try:
        loader(path)
    except ParseError as exc:
        assert exc.path == str(path) and exc.line >= 1
    except ZslError:
        pass


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


class TestLoadersOnArbitraryInput:
    @pytest.mark.parametrize("loader", TEXT_LOADERS, ids=lambda f: f.__name__)
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.lists(st.sampled_from(FRAGMENTS), max_size=30).map(b"".join))
    def test_text_loader(self, loader, data, fuzz_dir):
        path = fuzz_dir / f"{loader.__name__}.txt"
        path.write_bytes(data)
        returns_or_refuses(loader, path)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(meta=CHECKPOINT_META, payload=st.binary(max_size=64))
    def test_checkpoint_metadata(self, meta, payload, fuzz_dir):
        path = fuzz_dir / "model.ckpt"
        path.write_bytes(b"ZSLCKPT1\n" + json.dumps(meta).encode() + b"\n" + payload)
        returns_or_refuses(io.load_checkpoint, path)


# The whole-file reader the text loaders used before they streamed, kept as
# the reference for io._text_lines.
def whole_file_lines(path):
    """io._text_lines from a file read and decoded whole before any line is
    parsed: the non-blank lines before the first byte that is not UTF-8,
    then a ParseError at that byte's line."""
    data = Path(path).read_bytes()
    try:
        text, bad_line = data.decode("utf-8"), None
    except UnicodeDecodeError as exc:
        text = data[:exc.start].decode("utf-8")
        bad_line = data.count(b"\n", 0, exc.start) + 1
    for no, raw in enumerate(text.split("\n"), start=1):
        if no == bad_line:
            raise ParseError(path, no, "not valid UTF-8 text")
        line = raw.strip()
        if line:
            yield no, line


def outcome(loader, path):
    """The pickled value the loader returns, or the type, path, line and
    message of the ZslError it raises."""
    try:
        return pickle.dumps(loader(path))
    except ZslError as exc:
        return type(exc), getattr(exc, "path", None), getattr(exc, "line", None), str(exc)


# Over 4 MiB, so cut into two parts wherever two CPUs are allowed: row `a`
# comes again three quarters in, in the second part, before a row that
# part's child refuses.
WIDE_ROW = " ".join(["0.5"] * 64)
REPEATED_LINE = 2 + 13500 + 1
REPEATED_ACROSS_PARTS = "".join(
    ["d=64 n=18003 normalized=0\n", f"a {WIDE_ROW}\n",
     *(f"r{k} {WIDE_ROW}\n" for k in range(13500)), f"a {WIDE_ROW}\n", "b x\n",
     *(f"s{k} {WIDE_ROW}\n" for k in range(4500))]).encode()


class TestStreamedLoaders:
    """Every text loader reads one line at a time and gives what it gives on
    the file decoded whole first: the same value, or the same error at the
    same line."""

    @pytest.mark.parametrize("loader", TEXT_LOADERS, ids=lambda f: f.__name__)
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.lists(st.sampled_from(FRAGMENTS + [b"\xff", b"\r", b"\r\n"]),
                         max_size=30).map(b"".join))
    # every loader refuses line 1 or 2, and reports it before the bad byte
    # on line 5
    @example(data=b"d=1 n=3 normalized=0\tA\nA\nb 1.0\n\n\xff 1.0\n")
    # numpy's reader meets the bad byte on line 3 and hands its chunk to the
    # line-by-line conversion, which reports it
    @example(data=b"d=1 n=2 normalized=0\na 1.0\n\xff 2.0\n")
    def test_same_as_whole_file_reader(self, loader, data, fuzz_dir):
        path = fuzz_dir / f"oracle_{loader.__name__}.txt"
        path.write_bytes(data)
        with mock.patch.object(io, "_text_lines", whole_file_lines):
            expected = outcome(loader, path)
        assert outcome(loader, path) == expected

    @pytest.mark.parametrize("loader, data, line, message", [
        (io.load_features, b"d=1 n=2 normalized=0\na x\n\xff 1.0\n",
         2, "non-numeric value in instance id row"),
        (io.load_labels, b"a\tc\nb\n\xff\tc\n", 2, "expected 'id<TAB>class_label'"),
        (io.load_features, b"d=1 n=5 normalized=0\na x\nb 1.0\n",
         2, "non-numeric value in instance id row"),
        (io.load_class_embeddings, b"m=1 n=3\nblocks=word:0:1\na\t1.0\na\t2.0\n",
         4, "duplicate class 'a'"),
        (io.load_features, b"d=1 n=3 normalized=0\na 1.0\n\nb 2.0\n",
         1, "header declares n=3 but file has 2 rows"),
        (io.load_features, b"d=2 n=2 normalized=0\na nan 1.0\nb 1.0\n",
         2, "non-finite value (nan or inf)"),
        (io.load_features, b"d=2 n=2 normalized=1\na 3.0 4.0\nb 1.0\n",
         2, f"row 'a' declared normalized but has norm {np.float64(5.0)!r}"),
        (io.load_features, b"d=2 n=3 normalized=0\na 1_0 1.0\nb nan 1.0\nc 1.0\n",
         3, "non-finite value (nan or inf)"),
        (io.load_features, REPEATED_ACROSS_PARTS, REPEATED_LINE, "duplicate instance id 'a'"),
    ], ids=["bad-row-before-bad-byte", "bad-pair-before-bad-byte",
            "bad-row-and-wrong-n", "repeated-class-and-wrong-n", "wrong-n-clean-body",
            "nan-before-short-row", "norm-before-short-row", "float-only-before-nan",
            "repeated-across-parts-before-bad-row"])
    def test_first_fault_in_reading_order(self, tmp_path, loader, data, line, message):
        """The earlier of two faults is reported; a header's wrong row count
        only when the rows after it parse."""
        path = tmp_path / "data.txt"
        path.write_bytes(data)
        with pytest.raises(ParseError) as exc:
            loader(path)
        assert (exc.value.line, str(exc.value)) == (line, f"{path}:{line}: {message}")


def traced_peak(load, path):
    """What `load(path)` returns, and the peak of the memory tracemalloc saw
    allocated during the call, numpy buffers included."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = load(path)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestLoadMemory:
    """A text load holds its result plus about one line of the file, not the
    file; a checkpoint load or save holds W_e and little more."""

    def test_features(self, tmp_path):
        rng = np.random.default_rng(5)
        path = tmp_path / "f.txt"
        io.save_features(path, io.FeatureSet(tuple(f"i{k}" for k in range(800)),
                                             rng.normal(size=(800, 300)), False))
        features, peak = traced_peak(io.load_features, path)
        assert peak <= features.matrix.nbytes + path.stat().st_size // 5

    def test_features_in_parts(self, tmp_path, monkeypatch):
        """Cut in two, the load still holds one matrix: the first part's rows
        grow in place and the second part's are read into them."""
        monkeypatch.setattr(io, "float", refuse_float, raising=False)
        rng = np.random.default_rng(5)
        path = tmp_path / "f.txt"
        io.save_features(path, io.FeatureSet(tuple(f"i{k}" for k in range(800)),
                                             rng.normal(size=(800, 300)), False))
        with forced_parts(2) as forks:
            features, peak = traced_peak(io.load_features, path)
        assert len(forks) == 1
        assert peak <= features.matrix.nbytes + path.stat().st_size // 5

    def test_features_with_a_token_only_float_reads(self, tmp_path):
        """A chunk numpy refuses is converted line by line in place of it:
        the load still holds one matrix and about one chunk."""
        rows = np.random.default_rng(5).normal(size=(800, 300))
        rows[700, 0] = 0.123456789
        path = tmp_path / "f.txt"
        io.save_features(path, io.FeatureSet(tuple(f"i{k}" for k in range(800)), rows, False))
        path.write_text(path.read_text().replace(" 0.123456789 ", " 0.12_3456789 ", 1))
        features, peak = traced_peak(io.load_features, path)
        assert features.matrix.tobytes() == rows.tobytes()
        assert peak <= features.matrix.nbytes + path.stat().st_size // 5

    def test_normalized_features(self, tmp_path):
        rows = np.random.default_rng(5).normal(size=(800, 300))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        path = tmp_path / "f.txt"
        io.save_features(path, io.FeatureSet(tuple(f"i{k}" for k in range(800)),
                                             rows, True))
        features, peak = traced_peak(io.load_features, path)
        assert features.normalized
        assert peak <= features.matrix.nbytes + path.stat().st_size // 5

    def test_word_vectors(self, tmp_path):
        rng = np.random.default_rng(6)
        path = tmp_path / "w.txt"
        io.save_word_vectors(path, WordVectorTable(300, {f"t{k}": rng.normal(size=300)
                                                         for k in range(1000)}))
        table, peak = traced_peak(io.load_word_vectors, path)
        assert peak <= 8 * table.dimension * len(table.vectors) + path.stat().st_size // 5

    def test_checkpoint(self, tmp_path):
        model = CompatModel(np.random.default_rng(7).normal(size=(301, 201)))
        path = tmp_path / "m.ckpt"
        io.save_checkpoint(path, model, ("c",), ())
        _, peak = traced_peak(io.load_checkpoint, path)
        assert peak < 3 * model.W_e.nbytes

    @pytest.mark.parametrize("parts", [1, 2])
    def test_kept_rows(self, tmp_path, parts):
        """Keeping 1 row in 5, the load holds the kept rows, not all of them."""
        rng = np.random.default_rng(8)
        ids = tuple(f"i{k}" for k in range(2000))
        path = tmp_path / "f.txt"
        io.save_features(path, io.FeatureSet(ids, rng.normal(size=(2000, 300)), False))
        with forced_parts(parts) if parts > 1 else contextlib.nullcontext():
            features, peak = traced_peak(
                lambda path: io.load_features(path, keep=set(ids[::5])), path)
        assert features.ids == ids[::5] and features.file_ids == ids
        assert peak <= features.matrix.nbytes + 2000 * 300 * 8 // 4

    def test_checkpoint_load_reads_into_W_e(self, tmp_path):
        model = CompatModel(np.random.default_rng(7).normal(size=(301, 201)))
        path = tmp_path / "m.ckpt"
        io.save_checkpoint(path, model, ("c",), ())
        _, peak = traced_peak(io.load_checkpoint, path)
        assert peak < 1.25 * model.W_e.nbytes

    def test_checkpoint_save_writes_W_e(self, tmp_path):
        model = CompatModel(np.random.default_rng(7).normal(size=(301, 201)))
        path = tmp_path / "m.ckpt"
        _, peak = traced_peak(lambda path: io.save_checkpoint(path, model, ("c",), ()),
                              path)
        assert peak < 0.25 * model.W_e.nbytes
        assert io.load_checkpoint(path).model.W_e.tobytes() == model.W_e.tobytes()


# Body rows of the three labelled-row formats: floats in every spelling
# float() reads, tokens that only float() reads (`1_0`, non-ASCII digits),
# junk, blank lines and the whitespace characters str.split() and the C
# reader might treat differently. Labels repeat often.
FLOAT_TEXT = st.floats(width=64).map(repr)
SPELLINGS = st.sampled_from([
    "-0.0", "0", "+.5", "5.", "1e-320", "1E+3", "1e400", "infinity", "-nan", "NaN",
    "1_0", "\u0661", "\uff11", "0x1p3", "1d0"])
JUNK = st.sampled_from(["x", "#", "1,5", '"1"', "1.0.0", "e5", "--1", "\x00", "=", "nan(1)"])
VALUE = st.one_of(FLOAT_TEXT, FLOAT_TEXT, FLOAT_TEXT, SPELLINGS, JUNK)
SPACE = st.sampled_from([" ", " ", "  ", "\t", "\x0b", "\x0c", "\r", "\x1c", "\x85",
                         "\xa0", "\u2028", "\u3000"])
ROW = st.tuples(st.sampled_from(["a", "b", "c", "d", "e"]),
                st.lists(st.tuples(SPACE, VALUE), max_size=3))
BODY = st.lists(ROW | st.lists(SPACE, max_size=2).map("".join), min_size=1, max_size=4)

# loader, label separator, header for n rows of width w
ROW_FORMATS = [
    (io.load_features, "", lambda n, w: f"d={w} n={n} normalized=0\n"),
    (io.load_word_vectors, "", lambda n, w: ""),
    (io.load_class_embeddings, "\t", lambda n, w: f"m={w} n={n}\nblocks=word:0:{w}\n"),
]


def loaded_rows(loader, path):
    """The labels and matrix bytes the loader returns and the row line
    numbers _read_rows gave it, or the path, line and message it refused
    the file with."""
    calls = []
    read_rows = io._read_rows

    def spy(*args, **kwargs):
        calls.append(read_rows(*args, **kwargs))
        return calls[-1]

    with mock.patch.object(io, "_read_rows", spy):
        try:
            result = loader(path)
        except ParseError as exc:
            return exc.path, exc.line, str(exc)
    if isinstance(result, WordVectorTable):
        labels, matrix = tuple(result.vectors), np.array(list(result.vectors.values()))
    elif isinstance(result, io.FeatureSet):
        labels, matrix = result.ids, result.matrix
    else:
        labels, matrix = result.class_names, result.matrix
    [(_, _, row_lines)] = calls
    return labels, matrix.shape, matrix.tobytes(), row_lines


class TestRowReaders:
    """A clean body goes through numpy's C text reader, and a chunk it
    refuses is converted line by line; converting every chunk line by line
    gives the same result on every input."""

    @pytest.mark.parametrize("loader, sep, header", ROW_FORMATS,
                             ids=["features", "word_vectors", "class_embeddings"])
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(body=BODY, width_shift=st.sampled_from([0, 0, 0, 1, -1]),
           crlf=st.booleans())
    def test_c_reader_matches_row_loop(self, loader, sep, header, body, width_shift,
                                       crlf, fuzz_dir):
        rows = [row if isinstance(row, str)
                else row[0] + sep + "".join(space + value for space, value in row[1])
                for row in body]
        n = sum(not isinstance(row, str) for row in body)
        width = width_shift + next((len(row[1]) for row in body
                                    if not isinstance(row, str)), 1)
        path = fuzz_dir / "rows.txt"
        path.write_text(header(n, width) + ("\r\n" if crlf else "\n").join(rows) + "\n",
                        encoding="utf-8")
        with mock.patch.object(io.np, "loadtxt", refuse_chunk):
            expected = loaded_rows(loader, path)
        assert loaded_rows(loader, path) == expected

    def test_clean_body_skips_the_row_loop(self, tmp_path, monkeypatch):
        monkeypatch.setattr(io, "float", refuse_float, raising=False)
        (tmp_path / "f.txt").write_text("d=2 n=2 normalized=0\na 1.0 -0.0\nb 1e-320 3\n")
        (tmp_path / "w.txt").write_text("oak 1.0 2.0 3.0\nfir\t-0.5  0.25\x0c0.125\n")
        (tmp_path / "e.txt").write_text("m=2 n=1\nblocks=word:0:2\nGreen Ash\t1.0 2.0\n")
        features = io.load_features(tmp_path / "f.txt")
        assert features.ids == ("a", "b")
        assert features.matrix.tobytes() == np.array([[1.0, -0.0], [1e-320, 3.0]]).tobytes()
        assert io.load_word_vectors(tmp_path / "w.txt").vectors["fir"].tolist() == [
            -0.5, 0.25, 0.125]
        assert io.load_class_embeddings(tmp_path / "e.txt").class_names == ("Green Ash",)

    @pytest.mark.parametrize("row", [0, 599], ids=["first-row", "last-row"])
    @pytest.mark.parametrize("token", ["x", "1_0"])
    def test_bad_row_is_converted_once(self, tmp_path, token, row):
        """float() converts only the chunk numpy refuses, and numpy goes on
        after it: with a bad token, or one only float() reads, in the first
        or the last of 600 rows, at most one chunk's values go through it."""
        rows = np.random.default_rng(2).normal(size=(600, 3))
        path = tmp_path / "f.txt"
        io.save_features(path, io.FeatureSet(tuple(f"i{k}" for k in range(600)), rows, False))
        lines = path.read_text().splitlines()
        lines[1 + row] = lines[1 + row].rsplit(" ", 1)[0] + f" {token}"
        path.write_text("\n".join(lines) + "\n")
        calls = []
        with mock.patch.object(io, "float", lambda v: calls.append(v) or float(v),
                               create=True):
            if token == "x":
                with pytest.raises(ParseError, match=f":{row + 2}: non-numeric value"):
                    io.load_features(path)
            else:
                assert io.load_features(path).matrix[row, -1] == 10.0
        assert 0 < len(calls) <= io._CHUNK_ROWS * 3


def refuse_chunk(*args, **kwargs):
    """np.loadtxt refusing every chunk, which is then converted line by line."""
    raise ValueError


def refuse_float(*args):
    raise AssertionError("a clean body was converted line by line")


@contextlib.contextmanager
def forced_parts(parts):
    """Every row load or save in the block cuts its file or rows into `parts`
    parts, whatever the size and the CPUs this process may use; children are
    not pinned. Yields the list of the pids of the children forked."""
    forks = []
    fork = os.fork

    def spy():
        forks.append(fork())
        return forks[-1]

    with mock.patch.object(io, "_MIN_PART_BYTES", 1), \
            mock.patch.object(io, "_MIN_PART_VALUES", 1), \
            mock.patch.object(os, "fork", spy), \
            mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(parts))), \
            mock.patch.object(os, "sched_setaffinity", lambda pid, cpus: None):
        yield forks


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# Four rows of one long value each: cut in two, the first two rows (and the
# header) fall in the first part and the last two in the second.
LONG = "0.1234567890123456"


def rows_of(*labels, values=(LONG,)):
    return [(label, [(" ", value) for value in values]) for label in labels]


# Rows of a feature file a load keeps in part: values that pass, fail a
# check or stop numpy's reader, and zero vectors; the label \udcff is written
# as a byte that is not UTF-8.
KEPT_ROW = st.tuples(
    st.sampled_from(["a", "b", "c", "d", "e", "\udcff"]),
    st.lists(st.sampled_from(["1.5", "-0.25", "3", "0", "-0.0", "1e-320", "0.6", "0.8",
                              "nan", "inf", "x", "1_0"]), min_size=1, max_size=3))


def kept_rows(path, keep, l2_normalize, select=None):
    """Every id of the file and, for each row load_features returns whose id
    `select` holds (every row if None), its id, bytes and line number; or the
    type, line and message of the error the load raises."""
    calls = []
    read_rows = io._read_rows

    def spy(*args, **kwargs):
        calls.append(read_rows(*args, **kwargs))
        return calls[-1]

    with mock.patch.object(io, "_read_rows", spy):
        try:
            features = io.load_features(path, l2_normalize=l2_normalize, keep=keep)
        except ZslError as exc:
            return type(exc), getattr(exc, "line", None), str(exc)
    [(ids, _, lines)] = calls
    line_of = dict(zip(ids, lines))
    return features.file_ids, [(i, row.tobytes(), line_of[i])
                               for i, row in zip(features.ids, features.matrix)
                               if select is None or i in select]


class TestKeptRows:
    """A load that keeps the rows of some ids gives the full load's rows of
    those ids, with the same bytes and line numbers, or raises the same
    error: every row is still checked, serially and in parts."""

    @pytest.mark.parametrize("parts", [1, 2, 3, 4])
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(rows=st.lists(KEPT_ROW, min_size=1, max_size=6),
           keep=st.sets(st.sampled_from("abcde")), normalized=st.booleans(),
           l2=st.booleans())
    # each fault in a dropped row: a bad row, a byte that is not UTF-8, a
    # nan, a zero vector under l2_normalize
    @example(rows=[("a", ["1.5", "x"]), ("b", ["0.6", "0.8"])], keep={"b"},
             normalized=False, l2=False)
    @example(rows=[("b", ["1.5"]), ("\udcff", ["1.5"]), ("c", ["3"])], keep={"b", "c"},
             normalized=False, l2=False)
    @example(rows=[("a", ["nan"]), ("b", ["1.5"])], keep={"b"}, normalized=False,
             l2=False)
    @example(rows=[("a", ["1.5", "3"]), ("b", ["0", "-0.0"]), ("c", ["0.6", "0.8"])],
             keep={"a", "c"}, normalized=False, l2=True)
    # clean files, declared normalized or divided by their norms
    @example(rows=[("a", ["0.6", "0.8"]), ("b", ["0.8", "0.6"]), ("c", ["-0.0", "1e0"])],
             keep={"b"}, normalized=True, l2=False)
    @example(rows=[("a", ["1.5", "3"]), ("b", ["-0.25", "3"]), ("c", ["0.6", "1_0"])],
             keep={"a", "c"}, normalized=False, l2=True)
    def test_same_as_full_load(self, parts, rows, keep, normalized, l2, fuzz_dir):
        path = fuzz_dir / "kept.txt"
        header = f"d={len(rows[0][1])} n={len(rows)} normalized={int(normalized)}\n"
        path.write_text(header + "".join(f"{label} {' '.join(values)}\n"
                                         for label, values in rows),
                        encoding="utf-8", errors="surrogateescape")
        expected = kept_rows(path, None, l2, select=keep)
        with forced_parts(parts) if parts > 1 else contextlib.nullcontext():
            assert kept_rows(path, keep, l2) == expected

    @pytest.mark.parametrize("normalized, l2", [(True, False), (False, True), (True, True)])
    def test_row_loop_keeps_the_same_bits(self, tmp_path, normalized, l2):
        """Rows checked and divided 256 at a time and one at a time agree."""
        rng = np.random.default_rng(4)
        rows = rng.normal(size=(600, 7)) * 10.0 ** rng.integers(-100, 100, size=(600, 1))
        if normalized:
            rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        ids = tuple(f"i{k}" for k in range(600))
        path = tmp_path / "f.txt"
        io.save_features(path, io.FeatureSet(ids, rows, normalized))
        expected = kept_rows(path, set(ids[1::3]), l2)
        with mock.patch.object(io.np, "loadtxt", refuse_chunk):
            assert kept_rows(path, set(ids[1::3]), l2) == expected
        assert len(expected[1]) == 200


class TestPartedConversion:
    """A body cut into parts converted at once, the later ones in forked
    children, gives what the serial conversion gives: the same labels,
    matrix bytes and row line numbers, or the same error."""

    @pytest.mark.parametrize("loader, sep, header", ROW_FORMATS,
                             ids=["features", "word_vectors", "class_embeddings"])
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(body=BODY, width_shift=st.sampled_from([0, 0, 0, 1, -1]),
           crlf=st.booleans(), parts=st.sampled_from([2, 3, 4]))
    # a bad row in the first part and in a later one
    @example(body=[("a", [(" ", "x")])] + rows_of("b", "c", "d"),
             width_shift=0, crlf=False, parts=2)
    @example(body=rows_of("a", "b", "c") + [("d", [(" ", "x")])],
             width_shift=0, crlf=False, parts=2)
    # a byte that is not UTF-8 in a later part
    @example(body=rows_of("a", "b", "c", "\udcff"), width_shift=0, crlf=False, parts=2)
    # a label in two parts
    @example(body=rows_of("a", "b", "c", "a"), width_shift=0, crlf=False, parts=2)
    # one value a row, then two: word vectors cut where the width changes
    @example(body=rows_of("a", "b") + rows_of("c", values=(LONG, LONG)),
             width_shift=0, crlf=False, parts=2)
    # blank lines and carriage returns where the parts meet
    @example(body=rows_of("a", "b") + ["", " \r"] + rows_of("c", "d"),
             width_shift=0, crlf=True, parts=3)
    # a row longer than a part leaves parts with no rows
    @example(body=rows_of("a", "b", values=(LONG, LONG, LONG)),
             width_shift=0, crlf=False, parts=4)
    def test_same_as_serial(self, loader, sep, header, body, width_shift, crlf, parts,
                            fuzz_dir):
        rows = [row if isinstance(row, str)
                else row[0] + sep + "".join(space + value for space, value in row[1])
                for row in body]
        n = sum(not isinstance(row, str) for row in body)
        width = width_shift + next((len(row[1]) for row in body
                                    if not isinstance(row, str)), 1)
        path = fuzz_dir / "parts.txt"
        path.write_text(header(n, width) + ("\r\n" if crlf else "\n").join(rows) + "\n",
                        encoding="utf-8", errors="surrogateescape")
        expected = loaded_rows(loader, path)
        with forced_parts(parts):
            assert loaded_rows(loader, path) == expected

    @pytest.mark.parametrize("parts", [2, 3, 4])
    def test_clean_body_skips_the_row_loop(self, tmp_path, monkeypatch, parts):
        monkeypatch.setattr(io, "float", refuse_float, raising=False)
        path = tmp_path / "w.txt"
        table = WordVectorTable(3, {f"t{k}": np.arange(3.0) * k for k in range(40)})
        io.save_word_vectors(path, table)
        with forced_parts(parts) as forks:
            loaded = io.load_word_vectors(path)
        assert len(forks) == parts - 1
        assert list(loaded.vectors) == list(table.vectors)
        assert np.array_equal(np.array(list(loaded.vectors.values())),
                              np.array(list(table.vectors.values())))

    def test_parts_with_no_rows_skip_the_row_loop(self, tmp_path, monkeypatch):
        """Rows longer than a part leave parts with no rows, which convert to
        (0, d), not to a refusal."""
        monkeypatch.setattr(io, "float", refuse_float, raising=False)
        path = tmp_path / "f.txt"
        path.write_text(f"d=3 n=2 normalized=0\na {LONG} {LONG} {LONG}\n"
                        f"b {LONG} {LONG} {LONG}\n")
        with forced_parts(4) as forks:
            features = io.load_features(path)
        assert len(forks) == 3
        assert features.ids == ("a", "b") and features.matrix.shape == (2, 3)

    @pytest.mark.parametrize("last_value, interrupt, raises", [
        (LONG, False, None), ("x", False, ParseError), (LONG, True, KeyboardInterrupt),
    ], ids=["loaded", "refused", "interrupted"])
    def test_no_child_left(self, tmp_path, monkeypatch, last_value, interrupt, raises):
        """Every child is killed and reaped, whether the load returns, is
        refused or is interrupted while the parent converts its own part."""
        read = io._Rows.read

        def parent_part_interrupted(self, start, *args):
            if start == 0:
                raise KeyboardInterrupt
            return read(self, start, *args)

        if interrupt:
            monkeypatch.setattr(io._Rows, "read", parent_part_interrupted)
        path = tmp_path / "w.txt"
        path.write_text(f"a {LONG}\nb {LONG}\nc {LONG}\nd {last_value}\n")
        with forced_parts(2), (pytest.raises(raises) if raises
                               else contextlib.nullcontext()):
            io.load_word_vectors(path)
        no_child_left()

    def test_child_dying_mid_rows_falls_back(self, tmp_path, monkeypatch):
        """A child that sends its labels but not all its rows leaves a short
        read, and this process converts the child's part itself."""
        read, parent, reads = io._Rows.read, os.getpid(), []

        def part(self, *bounds):
            reads.append(bounds)  # seen here only for this process's reads
            count = read(self, *bounds)
            if os.getpid() != parent:
                self.matrix = np.asfortranarray(self.matrix)
            return count

        monkeypatch.setattr(io._Rows, "read", part)
        path = tmp_path / "w.txt"
        table = WordVectorTable(2, {f"t{k}": np.array([k, -k / 3]) for k in range(8)})
        io.save_word_vectors(path, table)
        with forced_parts(2):
            loaded = io.load_word_vectors(path)
        assert len(reads) == 2 and reads[0][0] == 0 < reads[1][0]
        assert pickle.dumps(loaded) == pickle.dumps(table)
        no_child_left()

    ZERO = "0." + "0" * 16  # as long as LONG

    @pytest.mark.parametrize("loader, lines, converted_again", [
        (io.load_word_vectors, [f"a {LONG}", f"b {LONG}", f"c {LONG}", "d nan"], False),
        (io.load_word_vectors, [f"a {LONG}", f"b {LONG}", f"c {LONG}", "d x"], False),
        (io.load_word_vectors, [f"a {LONG}", f"b {LONG}", f"a {LONG}", "d nan"], True),
        (io.load_word_vectors, [f"a {LONG}", f"b {LONG}", "a x", "d nan"], True),
        (lambda path: io.load_features(path, l2_normalize=True),
         ["d=1 n=4 normalized=0", f"a {LONG}", f"b {LONG}", f"c {ZERO}", "d x"], True),
    ], ids=["nan", "non-numeric", "label-repeated-before", "label-repeated-at",
            "zero-row-before"])
    def test_fault_in_a_child_part_is_raised_here(self, tmp_path, loader, lines,
                                                  converted_again):
        """A child that meets a fault sends it with the labels of the rows up
        to it, and this process raises it at its line in the file, converting
        no line of the child's part; a label repeated across parts or a zero
        row, which only this process can see, has the part converted here
        again. Either way the error is the serial load's."""
        path = tmp_path / "w.txt"
        path.write_text("".join(f"{line}\n" for line in lines))
        with pytest.raises(ParseError) as serial:
            loader(path)
        text_lines, parent, read = io._text_lines, os.getpid(), []

        def counted(*args):  # the lines this process reads, to convert them
            lines = text_lines(*args)
            while True:
                try:
                    no, line = next(lines)
                except StopIteration as stop:
                    return stop.value
                if os.getpid() == parent:
                    read.append(no)
                yield no, line

        with mock.patch.object(io, "_text_lines", counted), forced_parts(2) as forks, \
                pytest.raises(ParseError) as parted:
            loader(path)
        assert len(forks) == 1
        assert (parted.value.line, str(parted.value)) == (serial.value.line, str(serial.value))
        child_part = {len(lines) - 1, len(lines)}  # the last two lines
        assert len(lines) - 2 in read
        assert bool(child_part & set(read)) == converted_again
        no_child_left()

    def test_child_side_of_a_fault_in_process(self, tmp_path):
        """What a forked reader runs when its part holds a fault, run in this
        process: it sends its rows' count and width, the ParseError at its
        line in the part and the labels up to it, then the rows."""
        class Exited(Exception):
            pass

        def exit_(status):
            raise Exited(status)

        kept, pipe = [], os.pipe

        def kept_pipe():
            r, w = pipe()
            kept.append(os.dup(r))  # the child closes its read end
            return r, w

        path = tmp_path / "w.txt"
        path.write_text(f"a {LONG}\nb {LONG}\nc {LONG}\nd x\n")
        with forced_parts(2), mock.patch.object(os, "pipe", kept_pipe), \
                mock.patch.object(os, "fork", lambda: 0), \
                mock.patch.object(os, "_exit", exit_), pytest.raises(Exited):
            io.load_word_vectors(path)
        with open(kept[0], "rb") as sent:
            shape, fault, line_of = pickle.load(sent)
            rows = sent.read()
        assert shape == (1, 1) and line_of == {"c": 1, "d": 2}
        assert (type(fault), fault.line, fault.message) == (
            ParseError, 2, "non-numeric value in token row")
        assert rows == np.array([float(LONG)]).tobytes()

    @pytest.mark.parametrize("parts, call, failing", [
        (2, "fork", 1), (3, "fork", 1), (3, "fork", 2), (3, "pipe", 2)],
        ids=["2-first-fork", "3-first-fork", "3-second-fork", "3-second-pipe"])
    def test_no_process_to_spare_runs_serially(self, tmp_path, parts, call, failing):
        """When os.fork or os.pipe raises, as fork does with EAGAIN under a
        process limit, the children already forked are killed and reaped,
        and the load or save runs here, with the serial result."""
        rng = np.random.default_rng(3)
        features = io.FeatureSet(tuple(f"i{k}" for k in range(40)), rng.normal(size=(40, 3)),
                                 False)
        table = WordVectorTable(2, {f"t{k}": rng.normal(size=2) for k in range(40)})
        io.save_features(tmp_path / "serial.txt", features)
        io.save_word_vectors(tmp_path / "w.txt", table)

        @contextlib.contextmanager
        def refused():
            with forced_parts(parts) as forks:
                made, make = [], getattr(os, call)

                def fails(*args):
                    made.append(call)
                    if len(made) == failing:
                        raise OSError(11, "Resource temporarily unavailable")
                    return make(*args)

                with mock.patch.object(os, call, fails):
                    yield
                assert len(made) == failing and len(forks) == failing - 1
            no_child_left()

        with refused():
            loaded = io.load_features(tmp_path / "serial.txt")
        assert pickle.dumps(loaded) == pickle.dumps(io.load_features(tmp_path / "serial.txt"))
        with refused():
            vectors = io.load_word_vectors(tmp_path / "w.txt")
        assert pickle.dumps(vectors) == pickle.dumps(table)
        with refused():
            io.save_features(tmp_path / "f.txt", features)
        assert (tmp_path / "f.txt").read_bytes() == (tmp_path / "serial.txt").read_bytes()

    def test_child_side_in_process(self, tmp_path):
        """What a forked child runs, run in this process: it pins itself to
        its CPU and writes its shape, line count, labels numbered from its
        part's first line and rows, then exits with status 0."""
        class Exited(Exception):
            pass

        def exit_(status):
            raise Exited(status)

        kept, pinned = [], []
        pipe = os.pipe

        def kept_pipe():
            r, w = pipe()
            kept.append(os.dup(r))  # the child closes its read end
            return r, w

        path = tmp_path / "w.txt"
        path.write_text("t0 1.5 2.5\nt1 3.5 4.5\n\nt2 5.5 6.5\nt3 7.5 8.5\n")
        with forced_parts(2), mock.patch.object(os, "pipe", kept_pipe), \
                mock.patch.object(os, "fork", lambda: 0), \
                mock.patch.object(os, "_exit", exit_), \
                mock.patch.object(os, "sched_setaffinity",
                                  lambda pid, cpus: pinned.append((pid, cpus))):
            with pytest.raises(Exited) as exc:
                io.load_word_vectors(path)
        assert exc.value.args == (0,) and pinned == [(0, {1})]
        with open(kept[0], "rb") as sent:
            shape, lines, line_of = pickle.load(sent)
            rows = sent.read()
        assert (shape, lines, line_of) == ((2, 2), 3, {"t2": 2, "t3": 3})
        assert rows == np.array([[5.5, 6.5], [7.5, 8.5]]).tobytes()


def serial_text(header, labels, rows, sep=" "):
    """The bytes of the serial writer: the lines joined by newlines, and one
    newline more."""
    return ("\n".join([*header, *(label + sep + " ".join(map(repr, row.tolist()))
                                  for label, row in zip(labels, rows))]) + "\n").encode()


# Labels in any script (no surrogates, which UTF-8 cannot encode) and float64
# values in every magnitude, the edge spellings among them.
LABEL = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=4)
FLOAT64 = st.floats(allow_nan=False, allow_infinity=False, width=64) | st.sampled_from(
    [-0.0, 5e-324, -5e-324, 1e308, -1.7976931348623157e308, 2.0 ** -1022])


@st.composite
def saved_rows(draw):
    """A saver, its argument, and the header, labels and rows it writes."""
    width = draw(st.integers(1, 4))
    labels = draw(st.lists(LABEL, max_size=9, unique=True))
    rows = np.array(draw(st.lists(st.lists(FLOAT64, min_size=width, max_size=width),
                                  min_size=len(labels), max_size=len(labels))),
                    dtype=np.float64).reshape(len(labels), width)
    kind = draw(st.sampled_from(["features", "word_vectors", "class_embeddings"]))
    if kind == "features":
        normalized = draw(st.booleans())
        return (io.save_features, io.FeatureSet(tuple(labels), rows, normalized),
                [f"d={width} n={len(labels)} normalized={int(normalized)}"], labels,
                rows, " ")
    if kind == "word_vectors":
        return (io.save_word_vectors, WordVectorTable(width, dict(zip(labels, rows))),
                [], labels, rows, " ")
    return (io.save_class_embeddings,
            ClassEmbeddingSet(labels, rows, (("word", 0, width),)),
            [f"m={width} n={len(labels)}", f"blocks=word:0:{width}"], labels, rows, "\t")


class TestPartedWriter:
    """Rows formatted in parts at once, the later ones in forked children,
    give the bytes the serial writer gives, and the file is opened only once
    every part is formatted."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(saved=saved_rows(), parts=st.sampled_from([2, 3, 4]))
    @example(saved=(io.save_word_vectors, WordVectorTable(2, {}), [], [],
                    np.empty((0, 2)), " "), parts=2)
    @example(saved=(io.save_features,
                    io.FeatureSet(("é", "١"), np.array([[-0.0, 5e-324], [1e308, 1.5]]),
                                  False),
                    ["d=2 n=2 normalized=0"], ["é", "١"],
                    np.array([[-0.0, 5e-324], [1e308, 1.5]]), " "), parts=4)
    def test_same_bytes_as_serial(self, saved, parts, fuzz_dir):
        save, value, header, labels, rows, sep = saved
        path = fuzz_dir / "written.txt"
        save(path, value)
        serial = path.read_bytes()
        with forced_parts(parts) as forks:
            save(path, value)
        assert path.read_bytes() == serial == serial_text(header, labels, rows, sep)
        assert len(forks) == min(parts, rows.size) - 1 if rows.size else not forks
        no_child_left()

    @pytest.mark.parametrize("sent", [0, 3, 8, 20])
    def test_part_sent_short_is_formatted_here(self, tmp_path, monkeypatch, sent):
        """A child that sends none, part or all of its length, or its length
        and part of its text, still leaves the file the serial writer
        writes, and is reaped."""
        forked = io._forked

        def short(parts, send):
            def send_short(out, k, n):
                buffer = BytesIO()
                send(buffer, k, n)
                out.write(buffer.getvalue()[:sent])

            return forked(parts, send_short)

        table = WordVectorTable(2, {f"t{k}": np.array([k, -k / 3]) for k in range(8)})
        io.save_word_vectors(tmp_path / "serial.txt", table)
        monkeypatch.setattr(io, "_forked", short)
        with forced_parts(3) as forks:
            io.save_word_vectors(tmp_path / "w.txt", table)
        assert len(forks) == 2
        assert (tmp_path / "w.txt").read_bytes() == (tmp_path / "serial.txt").read_bytes()
        no_child_left()

    @pytest.mark.parametrize("parts", [1, 2])
    @pytest.mark.parametrize("bad", [0, 3], ids=["parent-part", "child-part"])
    def test_raise_leaves_the_file_unchanged(self, tmp_path, parts, bad):
        """A label UTF-8 cannot encode raises where its part is formatted: in
        this process, or in a child, which then sends nothing, and again here
        when this process formats the part itself. The file keeps its bytes."""
        path = tmp_path / "w.txt"
        path.write_bytes(b"old\n")
        labels = [f"t{k}" for k in range(4)]
        labels[bad] = "\udcff"
        table = WordVectorTable(1, {label: np.array([1.0]) for label in labels})
        with forced_parts(parts) if parts > 1 else contextlib.nullcontext(), \
                pytest.raises(UnicodeEncodeError):
            io.save_word_vectors(path, table)
        assert path.read_bytes() == b"old\n"
        no_child_left()

    def test_child_side_in_process(self, tmp_path):
        """What a forked child runs, run in this process: it pins itself to
        its CPU, writes its part's length and text, then exits with status
        0, and never opens the file."""
        class Exited(Exception):
            pass

        def exit_(status):
            raise Exited(status)

        kept, pinned = [], []
        pipe = os.pipe

        def kept_pipe():
            r, w = pipe()
            kept.append(os.dup(r))  # the child closes its read end
            return r, w

        path = tmp_path / "w.txt"
        table = WordVectorTable(2, {"t0": np.array([1.5, 2.5]), "t1": np.array([3.5, -0.0])})
        with forced_parts(2), mock.patch.object(os, "pipe", kept_pipe), \
                mock.patch.object(os, "fork", lambda: 0), \
                mock.patch.object(os, "_exit", exit_), \
                mock.patch.object(os, "sched_setaffinity",
                                  lambda pid, cpus: pinned.append((pid, cpus))):
            with pytest.raises(Exited) as exc:
                io.save_word_vectors(path, table)
        assert exc.value.args == (0,) and pinned == [(0, {1})]
        text = b"t1 3.5 -0.0\n"
        with open(kept[0], "rb") as sent:
            assert sent.read() == len(text).to_bytes(8, "little") + text
        assert not path.exists()
