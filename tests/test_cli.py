import json
import struct
import sys

import pytest

from synthdata import block_signal_problem, write_experiment_files
from zslkit import io
from zslkit.cli import main
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
    def test_byte_identical_outputs(self, experiment):
        tmp, config = experiment
        paths = {}
        for tag in ("one", "two"):
            assert main(["train", "--config", str(config),
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


class TestMalformedInputs:
    """Each malformed file ends the command with exit 1 and one error line
    naming the file and line, never a traceback."""

    @pytest.mark.parametrize("corrupt", [
        corrupt_labels_encoding, negative_feature_dimension,
        negative_embedding_dimension, nan_feature_value, checkpoint_meta_not_object,
        checkpoint_meta_bad_layout, checkpoint_meta_negative_shape,
        huge_feature_dimension, huge_embedding_dimension, normalized_flag_two,
        repeated_class_row, checkpoint_meta_infinite_dimension, form_feed_inside_a_row,
        nan_checkpoint_entry])
    def test_single_error_line(self, experiment, capsys, corrupt):
        tmp, config = experiment
        argv = eval_args(tmp, config)
        where = corrupt(tmp)
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert where in err[0]

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


class TestBadSettings:
    @pytest.mark.parametrize("command,setting", [
        ("eval", "eval_split=bogus"), ("eval", "eval_split=seen"),
        ("predict", "eval_split=bogus"), ("ablate", "eval_split=bogus"),
        ("train", "word_policy=bogus"), ("embed", "word_policy=bogus")])
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
        assert repr(setting.split("=")[1]) in err[0]


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
