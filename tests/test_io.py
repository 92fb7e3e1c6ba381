import json
import pickle
import tracemalloc
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
    # the numeric reader meets the bad byte on line 3 and hands the body to
    # the row loop, which reports it
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
    ], ids=["bad-row-before-bad-byte", "bad-pair-before-bad-byte",
            "bad-row-and-wrong-n", "repeated-class-and-wrong-n", "wrong-n-clean-body"])
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
    file; a checkpoint load holds its payload twice, as bytes and as W_e."""

    def test_features(self, tmp_path):
        rng = np.random.default_rng(5)
        path = tmp_path / "f.txt"
        io.save_features(path, io.FeatureSet(tuple(f"i{k}" for k in range(800)),
                                             rng.normal(size=(800, 300)), False))
        features, peak = traced_peak(io.load_features, path)
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
    """A clean body goes through numpy's C text reader, any other through
    the row loop; the two give the same result on every input."""

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
        with mock.patch.object(io, "_convert_body", lambda *args: None):
            expected = loaded_rows(loader, path)
        assert loaded_rows(loader, path) == expected

    def test_clean_body_skips_the_row_loop(self, tmp_path, monkeypatch):
        def row_loop(*args):
            raise AssertionError("the row loop ran on a clean body")

        monkeypatch.setattr(io, "_read_rows_loop", row_loop)
        (tmp_path / "f.txt").write_text("d=2 n=2 normalized=0\na 1.0 -0.0\nb 1e-320 3\n")
        (tmp_path / "w.txt").write_text("oak 1.0 2.0 3.0\nfir\t-0.5  0.25\x0c0.125\n")
        (tmp_path / "e.txt").write_text("m=2 n=1\nblocks=word:0:2\nGreen Ash\t1.0 2.0\n")
        features = io.load_features(tmp_path / "f.txt")
        assert features.ids == ("a", "b")
        assert features.matrix.tobytes() == np.array([[1.0, -0.0], [1e-320, 3.0]]).tobytes()
        assert io.load_word_vectors(tmp_path / "w.txt").vectors["fir"].tolist() == [
            -0.5, 0.25, 0.125]
        assert io.load_class_embeddings(tmp_path / "e.txt").class_names == ("Green Ash",)
