import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import zslkit
from synthdata import block_signal_problem, write_experiment_files
from zslkit import io
from zslkit.cli import main, validate_experiment
from zslkit.embeddings import ClassEmbeddingSet
from zslkit.evaluate import ClassSplits
from zslkit.model import CompatModel


def class_embedding_overflows(tmp):
    """Rename class08 to `class08 big`, whose word vector, the mean of two
    vectors of 1e308, is inf."""
    for name in ("splits.txt", "labels.tsv"):
        (tmp / name).write_text((tmp / name).read_text().replace("class08", "class08 big"))
    words = (tmp / "word_vectors.txt").read_text().splitlines()
    huge = " ".join(["1e308"] * (len(words[0].split()) - 1))
    words = [f"class08 {huge}" if w.startswith("class08 ") else w for w in words]
    (tmp / "word_vectors.txt").write_text("\n".join([*words, f"big {huge}"]) + "\n")


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

    @pytest.mark.parametrize("command", [["train"], ["ablate", "--grid", "linear"],
                                         ["validate"], ["eval"], ["predict"]],
                             ids=lambda c: c[0])
    def test_splits_load_once(self, experiment, monkeypatch, capsys, command):
        """The class embeddings are built for the splits the command loaded."""
        tmp, config = experiment
        if command[0] in ("eval", "predict"):
            assert main(["train", "--config", str(config)]) == 0
            command = [*command, "--set", f"checkpoint={tmp / 'model.ckpt'}"]
        calls = []
        load_splits = io.load_splits
        monkeypatch.setattr(io, "load_splits",
                            lambda path: calls.append(path) or load_splits(path))
        assert main([*command, "--config", str(config)]) == 0
        capsys.readouterr()
        assert len(calls) == 1

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

    def test_sweep_worker_that_exits_is_one_error_line(self, experiment, monkeypatch,
                                                      capsys):
        """A sweep worker gone at its second step fails `train` with one
        error line, writes no checkpoint and leaves no process behind."""
        tmp, config = experiment
        module = sys.modules["zslkit.train"]  # zslkit.train names the function
        parent, step = os.getpid(), module.adam_step

        def exits_at_step_2(state, *args, **kwargs):
            if os.getpid() != parent and state.t == 1:
                os._exit(3)
            return step(state, *args, **kwargs)

        monkeypatch.setattr(module, "adam_step", exits_at_step_2)
        monkeypatch.setattr(module, "_MIN_SWEEP_BLOCKS", 1)
        monkeypatch.setattr("zslkit.optim.ADAM_BLOCK", 1)  # a block per row of W_e
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: None)
        assert main(["train", "--config", str(config)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: training failed at iteration 2: a sweep worker stopped "
            "before it updated its rows"]
        assert not (tmp / "model.ckpt").exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

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

    def test_all_loads_each_source_file_once(self, experiment, capsys, monkeypatch):
        _, config = experiment
        keys = ("attribute_schema", "attribute_assignments", "taxonomy", "leaf_map",
                "word_vectors")
        calls = []

        def counted(key, load):
            return lambda path: calls.append(key) or load(path)

        for key in keys:
            monkeypatch.setattr(io, f"load_{key}", counted(key, getattr(io, f"load_{key}")))
        assert main(["ablate", "--config", str(config), "--grid", "all",
                     "--set", "max_iterations=100"]) == 0
        assert sorted(calls) == sorted(keys)

    def test_output_to_a_file_holds_each_row_once(self, experiment, capsys):
        """A child forked to train models inherits the rows printed but not
        yet flushed to a file, and exits without writing them."""
        tmp, config = experiment
        argv = ["ablate", "--config", str(config), "--set", "max_iterations=100"]
        assert main(argv) == 0
        expected = capsys.readouterr().out
        code = ("import os, sys; os.sched_getaffinity = lambda pid: {0, 1}; "
                "os.sched_setaffinity = lambda pid, cpus: None; "
                "from zslkit.cli import main; sys.exit(main(sys.argv[1:]))")
        env = {key: value for key, value in os.environ.items()
               if key != "PYTHONUNBUFFERED"}  # stdout to a file is block-buffered
        env["PYTHONPATH"] = str(Path(zslkit.__file__).parents[1])
        with open(tmp / "ablate.txt", "w") as out:
            subprocess.run([sys.executable, "-c", code, *argv], stdout=out, env=env, check=True)
        assert (tmp / "ablate.txt").read_text() == expected
        assert expected.count("# linear-term grid\n") == 1


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
    return (f"checkpoint {tmp / 'model.ckpt'} was trained on features of d=3 "
            f"but {tmp / 'features.txt'} has d={checkpoint.model.d}")


def drop_split_rows(tmp, split):
    """Remove the feature rows and labels of every instance of the split."""
    classes = set(io.load_splits(tmp / "splits.txt").classes(split))
    labels = io.load_labels(tmp / "labels.tsv")
    features = io.load_features(tmp / "features.txt")
    keep = [k for k, i in enumerate(features.ids) if labels[i] not in classes]
    ids = tuple(features.ids[k] for k in keep)
    io.save_features(tmp / "features.txt",
                     io.FeatureSet(ids, features.matrix[keep], True))
    io.save_labels(tmp / "labels.tsv", {i: labels[i] for i in ids})


def seen_rows_removed(tmp):
    drop_split_rows(tmp, "seen")
    return "seen split has no training instances"


def validation_rows_removed(tmp):
    drop_split_rows(tmp, "zsl_validation")
    return "split 'zsl_validation' has no instances"


def zsl_test_rows_removed(tmp):
    drop_split_rows(tmp, "zsl_test")


def empty_test_section(tmp):
    """The [zsl_test] section emptied, its classes moved to [zsl_validation]."""
    splits = io.load_splits(tmp / "splits.txt")
    io.save_splits(tmp / "splits.txt",
                   ClassSplits(splits.seen, splits.zsl_validation + splits.zsl_test, ()))


def shared_seen_class(tmp):
    splits = io.load_splits(tmp / "splits.txt")
    io.save_splits(tmp / "splits.txt",
                   ClassSplits(splits.seen, splits.zsl_validation,
                               splits.zsl_test + splits.seen[:1]))


def embeddings_without(tmp, cls):
    embeddings = io.load_class_embeddings(tmp / "embeddings.txt")
    keep = [c for c in embeddings.class_names if c != cls]
    io.save_class_embeddings(tmp / "embeddings.txt", ClassEmbeddingSet(
        keep, embeddings.select(keep), embeddings.block_layout))


def embeddings_without_validation_class(tmp):
    embeddings_without(tmp, "class05")


def embeddings_without_test_class(tmp):
    embeddings_without(tmp, "class09")
    return "'class09'"


def feature_id_without_label(tmp):
    lines = (tmp / "labels.tsv").read_text().split("\n")
    (tmp / "labels.tsv").write_text("\n".join(lines[1:]))


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

    def test_embed_refuses_a_class_embedding_that_overflows(self, experiment, capsys):
        """Two finite word vectors of 1e308 average to inf: embed exits 1 with
        one error line naming the class, and writes no file."""
        tmp, config = experiment
        splits = (tmp / "splits.txt").read_text()
        (tmp / "splits.txt").write_text(splits.replace("class00", "class00 big"))
        words = (tmp / "word_vectors.txt").read_text().splitlines()
        huge = " ".join(["1e308"] * (len(words[0].split()) - 1))
        words = [f"class00 {huge}" if w.startswith("class00 ") else w for w in words]
        (tmp / "word_vectors.txt").write_text("\n".join([*words, f"big {huge}"]) + "\n")
        assert main(["embed", "--config", str(config), "--set", "sources=word"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: class 'class00 big' has a non-finite embedding (nan or inf)"]
        assert not (tmp / "embeddings.txt").exists()

    @pytest.mark.parametrize("command", ["train", "eval", "validate"])
    def test_class_embedding_that_overflows_is_refused(self, experiment, capsys, command):
        """The inf that two word vectors of 1e308 average to is refused where
        the class embeddings are built, also for a test class train never
        scores: each command exits 1 with one line naming the class."""
        tmp, config = experiment
        eval_args(tmp, config)  # model.ckpt on disk
        class_embedding_overflows(tmp)
        capsys.readouterr()
        assert main([command, "--config", str(config), "--set", "sources=word",
                     "--set", CHECKPOINT]) == 1
        captured = capsys.readouterr()
        message = "class 'class08 big' has a non-finite embedding (nan or inf)"
        if command == "validate":
            assert (captured.out, captured.err) == (f"embeddings: {message}\n", "")
        else:
            assert (captured.out, captured.err) == ("", f"error: {message}\n")

    def test_inf_class_embedding_stays_inf_under_normalize_blocks(self, experiment, capsys):
        """Scaling each block row to unit length leaves an inf row as it is,
        so train refuses it with the one line it prints without scaling."""
        tmp, config = experiment
        class_embedding_overflows(tmp)
        capsys.readouterr()
        assert main(["train", "--config", str(config), "--set", "sources=word",
                     "--set", "normalize_blocks=1"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: class 'class08 big' has a non-finite embedding (nan or inf)"]

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
        tmp, config = experiment
        seen_rows_removed(tmp)
        assert main(["train", "--config", str(config)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: seen split has no training instances"]

    @pytest.mark.parametrize("grid,corrupt,settings", [
        ("embeddings", word_table_without_last_class, []),
        ("all", negative_embedding_dimension, ["--set", "embeddings=embeddings.txt"]),
        ("linear", embeddings_without_test_class, ["--set", "embeddings=embeddings.txt"])],
        ids=["embeddings-word_table_without_last_class", "all-negative_embedding_dimension",
             "linear-embeddings_without_test_class"])
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


def agree(command, corrupt, message, *settings):
    """`corrupt(tmp)`, if not None, edits the inputs; `message` is the text
    the command prints after `error: ` and `validate` prints alone."""
    names = [corrupt.__name__] if corrupt else [settings[-1]]
    return pytest.param(command, corrupt, message, settings,
                        id="-".join([command, *names]))


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
            label_without_feature_row, label_outside_every_split,
            seen_rows_removed, validation_rows_removed)),
        *(case("train", corrupt, EMBEDDINGS) for corrupt in (
            negative_embedding_dimension, huge_embedding_dimension,
            huge_embedding_row_count, repeated_class_row, short_block_spec)),
        *(case("eval", corrupt, EMBEDDINGS, CHECKPOINT) for corrupt in (
            checkpoint_meta_not_object, checkpoint_meta_bad_layout,
            checkpoint_meta_negative_shape, checkpoint_meta_infinite_dimension,
            nan_checkpoint_entry, checkpoint_of_other_d)),
        case("predict", checkpoint_of_other_d, EMBEDDINGS, CHECKPOINT),
        case("eval", negative_embedding_dimension, EMBEDDINGS, CHECKPOINT),
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

    @pytest.mark.parametrize("command,corrupt,message,settings", [
        agree("train", shared_seen_class,
              "class 'class00' appears in both 'seen' and 'zsl_test'", EMBEDDINGS),
        agree("train", label_outside_every_split, "label class 'stray' is not in any split"),
        *(agree(command, seen_rows_removed, "seen split has no training instances")
          for command in ("train", "ablate")),
        *(agree(command, validation_rows_removed, "split 'zsl_validation' has no instances")
          for command in ("train", "ablate")),
        agree("eval", zsl_test_rows_removed, "split 'zsl_test' has no instances",
              EMBEDDINGS, CHECKPOINT),
        agree("ablate", zsl_test_rows_removed, "split 'zsl_test' has no instances"),
        agree("eval", empty_test_section, "split 'zsl_test' has no classes",
              EMBEDDINGS, CHECKPOINT),
        agree("train", embeddings_without_validation_class,
              "class 'class05' in split 'zsl_validation' has no embedding", EMBEDDINGS),
        agree("eval", embeddings_without_test_class,
              "class 'class09' in split 'zsl_test' has no embedding", EMBEDDINGS, CHECKPOINT),
        agree("train", feature_id_without_label, "feature id 'i00_000' has no label"),
        agree("train", label_without_feature_row, "label id 'orphan' has no feature row"),
        agree("eval", None, "eval split must be 'zsl_validation' or 'zsl_test', got 'seen'",
              EMBEDDINGS, CHECKPOINT, "eval_split=seen"),
        agree("ablate", None, "eval split must be 'zsl_validation' or 'zsl_test', got 'seen'",
              "eval_split=seen"),
        # The overlap again, with the class embeddings built from the sources.
        pytest.param("train", shared_seen_class,
                     "class 'class00' appears in both 'seen' and 'zsl_test'", (),
                     id="train-shared_seen_class-built_embeddings"),
    ])
    def test_validate_prints_the_command_error(self, experiment, capsys,
                                               command, corrupt, message, settings):
        """Each cross-file rule forms its message once: the command prints it
        after `error: `, and `validate` prints it alone."""
        tmp, config = experiment
        eval_args(tmp, config)  # embeddings.txt and model.ckpt on disk
        if corrupt is not None:
            corrupt(tmp)
        argv = ["--config", str(config)]
        for setting in settings:
            argv += ["--set", setting]
        capsys.readouterr()
        assert main([command, *argv]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert main(["validate", *argv]) == 1
        assert capsys.readouterr().out == f"{message}\n"
