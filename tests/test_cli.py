import json
import struct
import sys

import numpy as np
import pytest

from synthdata import block_signal_problem, write_experiment_files
from zslkit import io
from zslkit.cli import main, validate_experiment
from zslkit.embeddings import ClassEmbeddingSet
from zslkit.evaluate import ClassSplits
from zslkit.model import CompatModel


@pytest.fixture()
def experiment(tmp_path):
    dataset, sources = block_signal_problem(seed=0, n_classes=10, n_seen=5,
                                            n_val=3, per_class=12)
    config = write_experiment_files(
        tmp_path, dataset, sources,
        config_extra={"max_iterations": 200, "eval_every": 100, "batch_size": 40})
    return tmp_path, config


def grid_rows(stdout: str, header: str) -> list[str]:
    lines = stdout.splitlines()
    start = lines.index(header) + 2  # skip marker + column header
    rows = []
    for line in lines[start:]:
        if line.startswith("#"):
            break
        rows.append(line)
    return rows


class TestValidateCommand:
    def test_golden_fixture_exits_zero(self, experiment, capsys):
        _, config = experiment
        assert main(["validate", "--config", str(config)]) == 0
        assert capsys.readouterr().out.strip() == "OK"

    def test_overlap_exits_one(self, experiment, capsys):
        tmp, config = experiment
        splits = io.load_splits(tmp / "splits.txt")
        io.save_splits(tmp / "splits.txt",
                       ClassSplits(splits.seen, splits.zsl_validation,
                                   splits.zsl_test + (splits.seen[0],)))
        assert main(["validate", "--config", str(config)]) == 1
        out = capsys.readouterr().out
        assert splits.seen[0] in out

    def test_relative_set_path_resolves_against_config_dir(
            self, experiment, capsys, monkeypatch, tmp_path_factory):
        tmp, config = experiment
        (tmp / "labels.tsv").rename(tmp / "renamed.tsv")
        monkeypatch.chdir(tmp_path_factory.mktemp("elsewhere"))
        assert main(["validate", "--config", str(config),
                     "--set", "labels=renamed.tsv"]) == 0
        assert capsys.readouterr().out.strip() == "OK"


class TestValidateExperiment:
    def golden_config(self, tmp_path):
        dataset, sources = block_signal_problem(seed=0, n_classes=6, n_seen=3,
                                                n_val=2, per_class=4)
        config_path = write_experiment_files(tmp_path, dataset, sources)
        cfg = io.resolve_config_paths(io.load_config(config_path), tmp_path)
        return cfg

    def test_golden_fixture_is_clean(self, tmp_path):
        report = validate_experiment(self.golden_config(tmp_path))
        assert report.ok
        assert str(report) == "OK"

    def test_overlap_names_class_and_splits(self, tmp_path):
        cfg = self.golden_config(tmp_path)
        splits = io.load_splits(cfg["splits"])
        bad = ClassSplits(splits.seen, splits.zsl_validation,
                          splits.zsl_test + (splits.seen[0],))
        io.save_splits(cfg["splits"], bad)
        report = validate_experiment(cfg)
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
        report = validate_experiment(cfg)
        assert any("m=5" in v and "m=9" in v for v in report.violations)
        assert any("d=" in v for v in report.violations)

    def test_missing_file_is_violation_not_exception(self, tmp_path):
        cfg = {"features": str(tmp_path / "nope.txt")}
        report = validate_experiment(cfg)
        assert not report.ok
        assert "features" in report.violations[0]


class TestEmbedTrainEvalFlow:
    def test_full_flow(self, experiment, capsys):
        tmp, config = experiment
        assert main(["embed", "--config", str(config)]) == 0
        assert (tmp / "embeddings.txt").exists()

        assert main(["train", "--config", str(config),
                     "--set", "embeddings=" + str(tmp / "embeddings.txt")]) == 0
        assert (tmp / "model.ckpt").exists()
        assert (tmp / "report.json").exists()

        assert main(["eval", "--config", str(config),
                     "--set", "embeddings=" + str(tmp / "embeddings.txt"),
                     "--set", "checkpoint=" + str(tmp / "model.ckpt")]) == 0
        out = capsys.readouterr().out
        assert "normalized_accuracy\t" in out

    def test_train_builds_embeddings_from_sources(self, experiment):
        tmp, config = experiment
        assert main(["train", "--config", str(config)]) == 0
        assert (tmp / "model.ckpt").exists()

    def test_train_rejects_overlapping_splits(self, experiment, capsys):
        tmp, config = experiment
        splits = io.load_splits(tmp / "splits.txt")
        io.save_splits(tmp / "splits.txt",
                       ClassSplits(splits.seen,
                                   splits.zsl_validation + (splits.seen[0],),
                                   splits.zsl_test))
        assert main(["train", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert "error" in err and splits.seen[0] in err

    def test_missing_config_key(self, experiment, capsys):
        tmp, config = experiment
        base = config.read_text()
        config.write_text(base.replace("checkpoint_out=model.ckpt\n", ""))
        assert main(["train", "--config", str(config)]) == 1
        assert "checkpoint_out" in capsys.readouterr().err


class TestDeterminism:
    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    def test_byte_identical_outputs(self, experiment, optimizer):
        tmp, config = experiment
        paths = {}
        for tag in ("one", "two"):
            assert main(["train", "--config", str(config),
                         "--set", f"optimizer={optimizer}",
                         "--set", f"checkpoint_out={tmp}/m_{tag}.ckpt",
                         "--set", f"report_out={tmp}/r_{tag}.json"]) == 0
            paths[tag] = ((tmp / f"m_{tag}.ckpt").read_bytes(),
                          (tmp / f"r_{tag}.json").read_bytes())
        assert paths["one"] == paths["two"]

    def test_seed_flag_changes_model(self, experiment):
        tmp, config = experiment
        for tag, seed in (("a", 1), ("b", 2)):
            assert main(["train", "--config", str(config), "--seed", str(seed),
                         "--set", f"checkpoint_out={tmp}/m_{tag}.ckpt"]) == 0
        assert ((tmp / "m_a.ckpt").read_bytes()
                != (tmp / "m_b.ckpt").read_bytes())


class TestPredictCommand:
    def test_predictions_restricted_to_split(self, experiment, capsys):
        tmp, config = experiment
        assert main(["train", "--config", str(config)]) == 0
        capsys.readouterr()
        assert main(["predict", "--config", str(config),
                     "--set", "checkpoint=" + str(tmp / "model.ckpt")]) == 0
        out = capsys.readouterr().out
        splits = io.load_splits(tmp / "splits.txt")
        test_classes = set(splits.zsl_test)
        lines = [l for l in out.splitlines() if "\t" in l]
        assert lines
        assert all(l.split("\t")[1] in test_classes for l in lines)

    def test_without_splits_scores_every_embedding_class(self, experiment, capsys):
        tmp, config = experiment
        assert main(["embed", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config)]) == 0
        config.write_text("".join(line for line in config.read_text().splitlines(True)
                                  if not line.startswith("splits=")))
        capsys.readouterr()
        assert main(["predict", "--config", str(config),
                     "--set", "checkpoint=" + str(tmp / "model.ckpt"),
                     "--set", "embeddings=" + str(tmp / "embeddings.txt")]) == 0
        rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
        classes = io.load_class_embeddings(tmp / "embeddings.txt").class_names
        assert [i for i, _ in rows] == list(io.load_features(tmp / "features.txt").ids)
        assert all(c in classes for _, c in rows)
        assert {c for _, c in rows} - set(io.load_splits(tmp / "splits.txt").zsl_test)

    def test_predictions_written_to_file(self, experiment):
        tmp, config = experiment
        assert main(["train", "--config", str(config)]) == 0
        assert main(["predict", "--config", str(config),
                     "--set", "checkpoint=" + str(tmp / "model.ckpt"),
                     "--set", f"predictions_out={tmp}/preds.tsv"]) == 0
        assert (tmp / "preds.tsv").read_text().count("\n") == 120


class TestAblateCommand:
    def test_embeddings_grid_has_seven_rows(self, experiment, capsys):
        _, config = experiment
        assert main(["ablate", "--config", str(config),
                     "--grid", "embeddings"]) == 0
        rows = grid_rows(capsys.readouterr().out, "# embedding-subset grid")
        assert len(rows) == 7

    def test_linear_grid_has_four_rows(self, experiment, capsys):
        _, config = experiment
        assert main(["ablate", "--config", str(config), "--grid", "linear"]) == 0
        rows = grid_rows(capsys.readouterr().out, "# linear-term grid")
        assert len(rows) == 4

    def test_embeddings_grid_loads_only_the_configured_sources(self, experiment, capsys):
        tmp, config = experiment
        cyclic_taxonomy(tmp)
        argv = ["--config", str(config), "--set", "sources=word"]
        assert main(["validate", *argv]) == 0
        assert main(["ablate", *argv, "--grid", "embeddings"]) == 0
        rows = grid_rows(capsys.readouterr().out, "# embedding-subset grid")
        assert len(rows) == 1 and rows[0].startswith("0\t0\t1\t")

    def test_all_emits_both_tables(self, experiment, capsys):
        _, config = experiment
        assert main(["ablate", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        assert len(grid_rows(out, "# embedding-subset grid")) == 7
        assert len(grid_rows(out, "# linear-term grid")) == 4


class TestUsageErrors:
    def test_missing_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_missing_config_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_unreadable_config_exits_one(self, tmp_path, capsys):
        assert main(["train", "--config", str(tmp_path / "nope.txt")]) == 1
        assert "error" in capsys.readouterr().err


def eval_args(tmp, config):
    """Embeddings on disk plus a zero checkpoint for them; returns eval argv."""
    assert main(["embed", "--config", str(config)]) == 0
    embeddings = io.load_class_embeddings(tmp / "embeddings.txt")
    splits = io.load_splits(tmp / "splits.txt")
    d = io.load_features(tmp / "features.txt").d
    io.save_checkpoint(tmp / "model.ckpt", CompatModel.zeros(d, embeddings.m),
                       splits.seen, embeddings.block_layout)
    return ["eval", "--config", str(config),
            "--set", "embeddings=" + str(tmp / "embeddings.txt"),
            "--set", "checkpoint=" + str(tmp / "model.ckpt")]


def replace_first_line(path, line):
    rest = path.read_text().split("\n", 1)[1]
    path.write_text(line + "\n" + rest)


def corrupt_labels_encoding(tmp):
    lines = (tmp / "labels.tsv").read_bytes().split(b"\n")
    lines[2] = b"\xff\xfe" + lines[2]
    (tmp / "labels.tsv").write_bytes(b"\n".join(lines))
    return "labels.tsv:3:"


def negative_feature_dimension(tmp):
    replace_first_line(tmp / "features.txt", "d=-1 n=120 normalized=1")
    return "features.txt:1:"


def negative_embedding_dimension(tmp):
    replace_first_line(tmp / "embeddings.txt", "m=-1 n=10")
    return "embeddings.txt:1:"


def huge_feature_dimension(tmp):
    # refused at the first row, before a matrix of that width is allocated
    replace_first_line(tmp / "features.txt", "d=1000000000000 n=120 normalized=1")
    return "features.txt:2:"


def huge_embedding_dimension(tmp):
    replace_first_line(tmp / "embeddings.txt", "m=1000000000000 n=10")
    return "embeddings.txt:3:"


def huge_feature_row_count(tmp):
    # rows are counted as they are read; n is never an allocation size
    d = (tmp / "features.txt").read_text().split(" ", 1)[0]
    replace_first_line(tmp / "features.txt", f"{d} n=1000000000000 normalized=1")
    return "features.txt:1: header declares n=1000000000000 but file has"


def huge_embedding_row_count(tmp):
    m = (tmp / "embeddings.txt").read_text().split(" ", 1)[0]
    replace_first_line(tmp / "embeddings.txt", f"{m} n=1000000000000")
    return "embeddings.txt:1: header declares n=1000000000000 but file has"


def normalized_flag_two(tmp):
    header = (tmp / "features.txt").read_text().split("\n", 1)[0]
    replace_first_line(tmp / "features.txt", header.rsplit("=", 1)[0] + "=2")
    return "features.txt:1:"


def repeated_class_row(tmp):
    lines = (tmp / "embeddings.txt").read_text().split("\n")
    lines[3] = lines[2]
    (tmp / "embeddings.txt").write_text("\n".join(lines))
    return "embeddings.txt:4:"


def nan_feature_value(tmp):
    lines = (tmp / "features.txt").read_text().split("\n")
    row = lines[4].split(" ")
    lines[4] = " ".join(row[:2] + ["nan"] + row[3:])
    (tmp / "features.txt").write_text("\n".join(lines))
    return "features.txt:5:"


def form_feed_inside_a_row(tmp):
    # \x0c separates two values; only \n ends a line
    (tmp / "features.txt").write_text("d=2 n=2 normalized=0\na 1.0\x0c2.0\nb 1.0 x\n")
    return "features.txt:3: non-numeric value in instance id row"


def rewrite_checkpoint_meta(tmp, edit, payload_bytes=None):
    magic, meta, raw = (tmp / "model.ckpt").read_bytes().split(b"\n", 2)
    meta = json.dumps(edit(json.loads(meta))).encode()
    (tmp / "model.ckpt").write_bytes(magic + b"\n" + meta + b"\n" + raw[:payload_bytes])
    return "model.ckpt:2:"


def checkpoint_meta_not_object(tmp):
    return rewrite_checkpoint_meta(tmp, lambda meta: [meta["d"], meta["m"]])


def checkpoint_meta_bad_layout(tmp):
    return rewrite_checkpoint_meta(tmp, lambda meta: {**meta, "block_layout": 7})


def checkpoint_meta_negative_shape(tmp):
    # (d+1)(m+1) = 4 float64 values, so the payload length alone looks right
    return rewrite_checkpoint_meta(tmp, lambda meta: {**meta, "d": -3, "m": -3},
                                   payload_bytes=32)


def checkpoint_meta_infinite_dimension(tmp):
    # JSON's 1e400 parses as float("inf"), which int() cannot convert
    return rewrite_checkpoint_meta(tmp, lambda meta: {**meta, "d": float("inf")})


def nan_checkpoint_entry(tmp):
    blob = (tmp / "model.ckpt").read_bytes()
    (tmp / "model.ckpt").write_bytes(blob[:-8] + struct.pack("<d", float("nan")))
    return "model.ckpt:2: checkpoint payload has a non-finite value"


def set_schema_values(tmp, values):
    schema = tmp / "attr_schema.tsv"
    lines = schema.read_text().splitlines()
    lines[1] = lines[1].split("\t")[0] + "\t" + values
    schema.write_text("\n".join(lines) + "\n")
    return "attr_schema.tsv:2:"


def repeated_schema_value(tmp):
    return set_schema_values(tmp, "small,small")


def single_schema_value(tmp):
    return set_schema_values(tmp, "small")


def cyclic_taxonomy(tmp):
    (tmp / "taxonomy.tsv").write_text("a\tr\nr\ta\nb\n")
    return "taxonomy.tsv:3:"


def non_numeric_word_vector(tmp):
    lines = (tmp / "word_vectors.txt").read_text().split("\n")
    lines[1] = " ".join(["b"] + ["x"] * (len(lines[1].split()) - 1))
    (tmp / "word_vectors.txt").write_text("\n".join(lines))
    return "word_vectors.txt:2:"


def missing_word_vectors(tmp):
    (tmp / "word_vectors.txt").unlink()
    return "word_vectors.txt"


def missing_word_vectors_and_bogus_source(tmp):
    missing_word_vectors(tmp)
    return "'bogus'"


def class_without_assignment(tmp):
    first, rest = (tmp / "attr_assignments.tsv").read_text().split("\n", 1)
    (tmp / "attr_assignments.tsv").write_text(rest)
    return repr(first.split("\t")[0])


def config_without_source_keys(tmp):
    sources = ("attribute_", "taxonomy=", "leaf_map=", "word_vectors=")
    config = tmp / "config.txt"
    config.write_text("".join(line for line in config.read_text().splitlines(True)
                              if not line.startswith(sources)))
    return "attribute source needs config key(s): attribute_schema, attribute_assignments"


def repeated_seen_section(tmp):
    lines = (tmp / "splits.txt").read_text().splitlines() + ["[seen]"]
    (tmp / "splits.txt").write_text("\n".join(lines) + "\n")
    return f"splits.txt:{len(lines)}: duplicate section 'seen'"


def empty_seen_section(tmp):
    splits = io.load_splits(tmp / "splits.txt")
    io.save_splits(tmp / "splits.txt",
                   ClassSplits((), splits.zsl_validation, splits.zsl_test + splits.seen))
    return "splits.txt:1: the [seen] section must be non-empty"


def tokenless_class_name(tmp):
    splits = io.load_splits(tmp / "splits.txt")
    io.save_splits(tmp / "splits.txt",
                   ClassSplits(splits.seen, splits.zsl_validation, splits.zsl_test + ("/",)))
    return "name '/' has no tokens"


def label_without_feature_row(tmp):
    with open(tmp / "labels.tsv", "a", encoding="utf-8") as f:
        f.write("orphan\tclass00\n")
    return "'orphan'"


def label_outside_every_split(tmp):
    lines = (tmp / "labels.tsv").read_text().split("\n")
    lines[0] = lines[0].split("\t")[0] + "\tstray"
    (tmp / "labels.tsv").write_text("\n".join(lines))
    return "'stray'"


def repeated_assignment_line(tmp):
    lines = (tmp / "attr_assignments.tsv").read_text().splitlines()
    (tmp / "attr_assignments.tsv").write_text("\n".join(lines + lines[:1]) + "\n")
    return f"attr_assignments.tsv:{len(lines) + 1}: duplicate class"


def word_table_without_last_class(tmp):
    lines = (tmp / "word_vectors.txt").read_text().splitlines()
    (tmp / "word_vectors.txt").write_text("\n".join(lines[:-1]) + "\n")
    return repr(lines[-1].split()[0])


def short_block_spec(tmp):
    lines = (tmp / "embeddings.txt").read_text().split("\n")
    lines[1] = "blocks=word:0"
    (tmp / "embeddings.txt").write_text("\n".join(lines))
    return "embeddings.txt:2: bad block spec 'word:0'"


def checkpoint_of_other_d(tmp):
    checkpoint = io.load_checkpoint(tmp / "model.ckpt")
    io.save_checkpoint(tmp / "model.ckpt", CompatModel.zeros(3, checkpoint.model.m),
                       checkpoint.classes, checkpoint.block_layout)
    return "expected (n, 3)"


def zero_unnormalized_feature_row(tmp):
    lines = (tmp / "features.txt").read_text().split("\n")
    lines[0] = lines[0].replace("normalized=1", "normalized=0")
    row_id, *values = lines[1].split(" ")
    lines[1] = " ".join([row_id] + ["0.0"] * len(values))
    (tmp / "features.txt").write_text("\n".join(lines))
    return f"zero feature vector ({row_id})"


class TestMalformedInputs:
    """Each malformed input ends the command with exit 1 and one error line,
    never a traceback; for a malformed file, the line names the file and line."""

    @pytest.mark.parametrize("corrupt", [
        corrupt_labels_encoding, negative_feature_dimension,
        negative_embedding_dimension, nan_feature_value, checkpoint_meta_not_object,
        checkpoint_meta_bad_layout, checkpoint_meta_negative_shape,
        huge_feature_dimension, huge_embedding_dimension, huge_feature_row_count,
        huge_embedding_row_count, normalized_flag_two,
        repeated_class_row, checkpoint_meta_infinite_dimension, form_feed_inside_a_row,
        nan_checkpoint_entry, checkpoint_of_other_d])
    def test_single_error_line(self, experiment, capsys, corrupt):
        tmp, config = experiment
        argv = eval_args(tmp, config)
        where = corrupt(tmp)
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert where in err[0]

    @pytest.mark.parametrize("values", ["small,small", "small"])
    def test_bad_attribute_schema_line(self, experiment, capsys, values):
        tmp, config = experiment
        set_schema_values(tmp, values)
        schema = tmp / "attr_schema.tsv"
        assert main(["embed", "--config", str(config)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {schema}:2: ")

    def test_train_divergence_names_iteration(self, experiment, capsys):
        _, config = experiment
        assert main(["train", "--config", str(config),
                     "--set", "learning_rate=1e307"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: training diverged at iteration ")

    def test_ablate_rejects_zero_repeats(self, experiment, capsys):
        _, config = experiment
        assert main(["ablate", "--config", str(config), "--grid", "linear",
                     "--set", "repeats=0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: repeats must be >= 1, got 0"]

    def test_train_refuses_seen_classes_without_instances(self, experiment, capsys):
        # `validate` does not count instances, so this is no TestValidateAgreement row
        tmp, config = experiment
        seen = set(io.load_splits(tmp / "splits.txt").seen)
        labels = io.load_labels(tmp / "labels.tsv")
        features = io.load_features(tmp / "features.txt")
        keep = [k for k, i in enumerate(features.ids) if labels[i] not in seen]
        ids = tuple(features.ids[k] for k in keep)
        io.save_features(tmp / "features.txt",
                         io.FeatureSet(ids, features.matrix[keep], True))
        io.save_labels(tmp / "labels.tsv", {i: labels[i] for i in ids})
        assert main(["train", "--config", str(config)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: seen split has no training instances"]

    @pytest.mark.parametrize("grid,corrupt,settings", [
        ("embeddings", word_table_without_last_class, []),
        ("all", negative_embedding_dimension, ["--set", "embeddings=embeddings.txt"])],
        ids=["embeddings-word_table_without_last_class", "all-negative_embedding_dimension"])
    def test_ablate_refuses_before_training(self, experiment, capsys, monkeypatch,
                                            grid, corrupt, settings):
        tmp, config = experiment
        eval_args(tmp, config)  # embeddings.txt on disk
        where = corrupt(tmp)
        module = sys.modules["zslkit.train"]  # zslkit.train names the function
        original, calls = module.train, []
        monkeypatch.setattr(module, "train",
                            lambda *args: calls.append(args) or original(*args))
        capsys.readouterr()
        assert main(["ablate", "--config", str(config), "--grid", grid, *settings]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and where in err[0]
        assert len(calls) == 0


class TestBadSettings:
    @pytest.mark.parametrize("command,setting", [
        ("eval", "eval_split=bogus"), ("eval", "eval_split=seen"),
        ("predict", "eval_split=bogus"), ("ablate", "eval_split=bogus"),
        ("train", "word_policy=bogus"), ("embed", "word_policy=bogus"),
        ("ablate", "word_policy=bogus"), ("embed", "sources=bogus"),
        ("train", "sources=bogus"), ("train", "foo")])
    def test_single_error_line(self, experiment, capsys, monkeypatch,
                               command, setting):
        tmp, config = experiment
        argv = eval_args(tmp, config)
        argv[0] = command
        if command in ("train", "embed"):
            argv = argv[:3]  # build the embeddings, so the word policy is read

        def no_training(*args):
            raise AssertionError("ablate trained a model")

        # zslkit.train names the function; the module is only in sys.modules
        monkeypatch.setattr(sys.modules["zslkit.train"], "train", no_training)
        capsys.readouterr()
        assert main(argv + ["--set", setting]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert repr(setting.split("=")[-1]) in err[0]

    def test_sources_refused_before_source_files_load(self, experiment, capsys):
        tmp, config = experiment
        (tmp / "word_vectors.txt").unlink()
        assert main(["embed", "--config", str(config),
                     "--set", "sources=word,bogus"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: unknown sources: ['bogus']"]


class TestLayoutMismatch:
    """A checkpoint trained on one block layout must not score embeddings of
    another layout with the same total length."""

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_refused_naming_both_layouts(self, experiment, capsys, command):
        tmp, config = experiment
        argv = eval_args(tmp, config)
        argv[0] = command
        checkpoint = io.load_checkpoint(tmp / "model.ckpt")
        m = checkpoint.model.m
        io.save_checkpoint(tmp / "model.ckpt", checkpoint.model, checkpoint.classes,
                           (("word", 0, m),))
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert f"word:0:{m}" in err[0]
        assert "attribute:0:" in err[0]

    def test_validate_reports_it(self, experiment, capsys):
        tmp, config = experiment
        argv = eval_args(tmp, config)
        argv[0] = "validate"
        checkpoint = io.load_checkpoint(tmp / "model.ckpt")
        m = checkpoint.model.m
        io.save_checkpoint(tmp / "model.ckpt", checkpoint.model, checkpoint.classes,
                           (("word", 0, m),))
        capsys.readouterr()
        assert main(argv) == 1
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 1
        assert f"word:0:{m}" in out[0] and "attribute:0:" in out[0]


def case(command, corrupt, *settings):
    """`corrupt(tmp)` edits the inputs and returns the text both errors must
    contain; a string is that text, for a case set by --set alone."""
    names = [] if isinstance(corrupt, str) else [corrupt.__name__]
    return pytest.param(command, corrupt, settings,
                        id="-".join([command, *names, *settings]))


EMBEDDINGS = "embeddings=embeddings.txt"
CHECKPOINT = "checkpoint=model.ckpt"


class TestValidateAgreement:
    """Whenever a command refuses an input or setting, `validate` on the same
    config and --set flags exits 1 with one violation that names the same
    file or bad value."""

    @pytest.mark.parametrize("command,corrupt,settings", [
        case("embed", cyclic_taxonomy),
        case("embed", non_numeric_word_vector),
        case("embed", class_without_assignment),
        case("embed", "'bogus'", "sources=bogus"),
        case("train", "'bogus'", "sources=bogus"),
        case("embed", "'bogus'", "word_policy=bogus"),
        case("train", "'bogus'", "word_policy=bogus"),
        case("train", zero_unnormalized_feature_row, "l2_normalize=1"),
        case("train", "batch_size", "batch_size=0"),
        case("train", "optimizer", "optimizer=bogus"),
        case("train", "eval_every", "eval_every=999999"),
        case("ablate", "repeats must be >= 1, got 0", "repeats=0"),
        case("ablate", "'bogus'", "grid=bogus"),
        case("eval", "'bogus'", EMBEDDINGS, CHECKPOINT, "eval_split=bogus"),
        case("predict", "'bogus'", EMBEDDINGS, CHECKPOINT, "eval_split=bogus"),
        case("ablate", "'bogus'", "eval_split=bogus"),
        case("embed", repeated_schema_value),
        case("embed", single_schema_value),
        case("embed", missing_word_vectors),
        case("embed", missing_word_vectors_and_bogus_source, "sources=word,bogus"),
        case("train", config_without_source_keys),
        case("ablate", "'bogus'", EMBEDDINGS, "sources=bogus"),
        case("ablate", "'bogus'", EMBEDDINGS, "word_policy=bogus"),
        *(case("train", message, setting) for message, setting in (
            ("init_scheme must be one of", "init_scheme=bogus"),
            ("learning_rate must be positive", "learning_rate=0"),
            ("beta1 and beta2 must lie in [0, 1)", "beta1=1"),
            ("epsilon must be positive", "epsilon=0"))),
        case("train", nan_feature_value, "l2_normalize=no"),
        case("embed", tokenless_class_name, "sources=word"),
        case("embed", repeated_assignment_line),
        *(case("train", corrupt) for corrupt in (
            corrupt_labels_encoding, negative_feature_dimension, nan_feature_value,
            huge_feature_dimension, huge_feature_row_count, normalized_flag_two,
            form_feed_inside_a_row, repeated_seen_section, empty_seen_section,
            label_without_feature_row, label_outside_every_split)),
        *(case("train", corrupt, EMBEDDINGS) for corrupt in (
            negative_embedding_dimension, huge_embedding_dimension,
            huge_embedding_row_count, repeated_class_row, short_block_spec)),
        *(case("eval", corrupt, EMBEDDINGS, CHECKPOINT) for corrupt in (
            checkpoint_meta_not_object, checkpoint_meta_bad_layout,
            checkpoint_meta_negative_shape, checkpoint_meta_infinite_dimension,
            nan_checkpoint_entry)),
    ])
    def test_validate_fails_where_command_fails(self, experiment, capsys,
                                                command, corrupt, settings):
        tmp, config = experiment
        eval_args(tmp, config)  # embeddings.txt and model.ckpt on disk
        where = corrupt if isinstance(corrupt, str) else corrupt(tmp)
        argv = ["--config", str(config)]
        for setting in settings:
            argv += ["--set", setting]
        capsys.readouterr()
        assert main([command, *argv]) == 1
        assert where in capsys.readouterr().err
        assert main(["validate", *argv]) == 1
        violations = capsys.readouterr().out.splitlines()
        assert len(violations) == 1 and where in violations[0]
