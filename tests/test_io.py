import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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

    @settings(max_examples=25, deadline=None)
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


class TestValidateExperiment:
    def golden_config(self, tmp_path):
        dataset, sources = block_signal_problem(seed=0, n_classes=6, n_seen=3,
                                                n_val=2, per_class=4)
        config_path = write_experiment_files(tmp_path, dataset, sources)
        cfg = io.resolve_config_paths(io.load_config(config_path), tmp_path)
        return cfg

    def test_golden_fixture_is_clean(self, tmp_path):
        report = io.validate_experiment(self.golden_config(tmp_path))
        assert report.ok
        assert str(report) == "OK"

    def test_overlap_names_class_and_splits(self, tmp_path):
        cfg = self.golden_config(tmp_path)
        splits = io.load_splits(cfg["splits"])
        bad = ClassSplits(splits.seen, splits.zsl_validation,
                          splits.zsl_test + (splits.seen[0],))
        io.save_splits(cfg["splits"], bad)
        report = io.validate_experiment(cfg)
        assert not report.ok
        joined = "\n".join(report.violations)
        assert splits.seen[0] in joined and "seen" in joined and "zsl_test" in joined

    def test_dimension_mismatch_flagged(self, tmp_path):
        cfg = self.golden_config(tmp_path)
        rng = np.random.default_rng(4)
        emb = ClassEmbeddingSet(io.load_splits(cfg["splits"]).all_classes(),
                                rng.normal(size=(6, 5)), (("word", 0, 5),))
        io.save_class_embeddings(tmp_path / "emb.txt", emb)
        io.save_checkpoint(tmp_path / "m.ckpt", CompatModel.zeros(3, 9),
                           emb.class_names, emb.block_layout)
        cfg["embeddings"] = str(tmp_path / "emb.txt")
        cfg["checkpoint"] = str(tmp_path / "m.ckpt")
        report = io.validate_experiment(cfg)
        assert any("m=5" in v and "m=9" in v for v in report.violations)
        assert any("d=" in v for v in report.violations)

    def test_missing_file_is_violation_not_exception(self, tmp_path):
        cfg = {"features": str(tmp_path / "nope.txt")}
        report = io.validate_experiment(cfg)
        assert not report.ok
        assert "features" in report.violations[0]
