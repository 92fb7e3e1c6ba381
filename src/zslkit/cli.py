"""Command-line interface.

Subcommands: embed, train, eval, ablate, predict, validate. Every command
reads a key=value config file; individual entries can be overridden with
repeated --set KEY=VALUE flags, and --seed overrides the seed. All outputs
are deterministic functions of (config, input files, seed).

Commands load their inputs through `_load_dataset`, `_load_embeddings` and
`_train_config`; `validate` loads through the same functions and reports each
failure as one violation. Each rule that spans several files (split overlaps,
stray labels, splits without classes or instances, classes without an
embedding, the id join, a zero-shot `eval_split`, the checkpoint, the
checkpoint's training classes in the split `eval` scores) forms its messages
in one function, so a violation is what a command prints after `error:`.

Exit codes: 0 success, 1 validation or data failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import io
from .embeddings import (SOURCE_ORDER, EmbeddingSources, build_class_embeddings,
                         ordered_sources)
from .errors import (AlignmentError, ConfigError, NonFiniteScoreError, SplitViolationError,
                     ZslError, refuse)
from .evaluate import (SPLIT_NAMES, ablate_embeddings, ablate_linear_terms,
                       eval_split_violations, evaluate_zsl)
from .model import score_matrix
from .train import TrainConfig, train


def _load_cfg(args) -> dict:
    """The config file with --set and --seed applied; relative paths, from
    the file or from --set, resolve against the config file's directory."""
    cfg = io.load_config(args.config)
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, raw = item.split("=", 1)
        cfg[key.strip()] = io.parse_config_entry(key.strip(), raw.strip())
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = args.seed
    return io.resolve_config_paths(cfg, Path(args.config).parent)


def _require(cfg: dict, keys, command: str) -> None:
    missing = [k for k in keys if k not in cfg]
    if missing:
        raise ConfigError(f"{command} needs config key(s): {', '.join(missing)}")


def _train_config(cfg: dict) -> TrainConfig:
    return TrainConfig(**{f.name: cfg[f.name]
                          for f in dataclasses.fields(TrainConfig) if f.name in cfg})


# Default, legal values and rule of the eval, predict and ablate settings, all
# checked by `validate`. `eval` and `ablate` further need a zero-shot split.
_SETTINGS = {
    "eval_split": ("zsl_test", SPLIT_NAMES, "one of " + ", ".join(SPLIT_NAMES)),
    "grid": ("all", ("embeddings", "linear", "all"), "one of embeddings, linear, all"),
    "repeats": (1, range(1, sys.maxsize), ">= 1"),
}


def _setting(cfg: dict, key: str, flag=None):
    default, legal, rule = _SETTINGS[key]
    value = flag or cfg.get(key, default)
    if value not in legal:
        raise ConfigError(f"{key} must be {rule}, got {value!r}")
    return value


# Each source's EmbeddingSources fields and their config keys, in load order.
# Key k's file loads with io.load_<k>, looked up per call for perfbench's tracer.
_SOURCE_FILES = {
    "attribute": (("schema", "attribute_schema"),
                  ("assignments", "attribute_assignments")),
    "taxonomy": (("taxonomy", "taxonomy"), ("leaf_map", "leaf_map")),
    "word": (("word_table", "word_vectors"),),
}


def _source_settings(cfg: dict) -> tuple[tuple[str, ...], EmbeddingSources]:
    """The configured sources, in layout order, and inputs holding only the
    word policy; both settings are checked, also for `validate`."""
    raw = cfg.get("sources", ",".join(SOURCE_ORDER))
    sources = ordered_sources(s.strip() for s in raw.split(",") if s.strip())
    return sources, EmbeddingSources(word_policy=cfg.get("word_policy", "strict"))


def _embedding_sources(cfg: dict) -> tuple[tuple[str, ...], EmbeddingSources]:
    """The configured sources, in layout order, and their loaded inputs."""
    sources, inputs = _source_settings(cfg)
    for source, files in _SOURCE_FILES.items():
        if source in sources:
            _require(cfg, [key for _, key in files], f"{source} source")
            for field, key in files:
                setattr(inputs, field, getattr(io, f"load_{key}")(cfg[key]))
    return sources, inputs


def _load_dataset(cfg: dict, keep_splits):
    """The dataset with the rows of the splits `keep_splits` names."""
    _require(cfg, ("features", "labels", "splits"), "this command")
    return io.load_dataset(cfg["features"], cfg["labels"], cfg["splits"],
                           l2_normalize=cfg.get("l2_normalize", False),
                           keep_splits=keep_splits)


def _build_embeddings(cfg: dict, splits=None, sourced=None):
    """Every split's class embeddings, for `splits` or the splits file, from
    `sourced` (the result of `_embedding_sources`) or the source files it loads."""
    if splits is None:
        _require(cfg, ("splits",), "embedding construction")
        splits = io.load_splits(cfg["splits"])
    sources, inputs = sourced or _embedding_sources(cfg)
    return build_class_embeddings(splits.all_classes(), sources, inputs,
                                  normalize_blocks=cfg.get("normalize_blocks", False))


def _load_embeddings(cfg: dict, splits=None, sourced=None):
    if "embeddings" in cfg:
        return io.load_class_embeddings(cfg["embeddings"])
    return _build_embeddings(cfg, splits, sourced)


def _checkpoint_mismatches(cfg: dict, checkpoint, d, embeddings) -> list[str]:
    """Why the checkpoint must not score features of dimension `d` against
    these embeddings; a check whose input is None is skipped."""
    path, model = cfg["checkpoint"], checkpoint.model
    out = []
    if d is not None and d != model.d:
        out.append(f"checkpoint {path} was trained on features of d={model.d} "
                   f"but {cfg['features']} has d={d}")
    if embeddings is None:
        return out
    if embeddings.m != model.m:
        out.append(f"checkpoint {path} was trained on class embeddings of "
                   f"m={model.m} but the class embeddings have m={embeddings.m}")
    elif checkpoint.block_layout != embeddings.block_layout:
        out.append(f"checkpoint {path} was trained on embedding layout "
                   f"{io._fmt_layout(checkpoint.block_layout)!r} but the class "
                   f"embeddings have layout {io._fmt_layout(embeddings.block_layout)!r}")
    return out


def _trained_class_violations(cfg: dict, checkpoint, splits, split: str) -> list[str]:
    """One message per class of the zero-shot `split` that the checkpoint
    was trained on; a checkpoint that names no classes passes."""
    trained = set(checkpoint.classes)
    return [f"class {cls!r} in split {split!r} is a training class of "
            f"checkpoint {cfg['checkpoint']}"
            for cls in splits.classes(split) if cls in trained]


def _score_fault(cfg: dict, split: str, error: NonFiniteScoreError) -> str:
    """What `eval` and `validate` print when the checkpoint's class factor or
    scores on `split` are not finite."""
    return f"checkpoint {cfg['checkpoint']} on split {split!r}: {error}"


def _factor_violations(cfg: dict, model, classes, split: str) -> list[str]:
    """The refusal `eval` meets first if the model's class factor on the
    classes of `split` is not finite, found by scoring no rows."""
    try:
        score_matrix(model, np.empty((0, model.d)), classes)
    except NonFiniteScoreError as error:
        return [_score_fault(cfg, split, error)]
    return []


def _checkpoint(cfg: dict, d: int, embeddings):
    """The checkpoint, refused unless it was trained on features of
    dimension `d` and on embeddings with the same block layout as the ones
    it is about to score."""
    checkpoint = io.load_checkpoint(cfg["checkpoint"])
    refuse(AlignmentError, _checkpoint_mismatches(cfg, checkpoint, d, embeddings))
    return checkpoint


def cmd_embed(args) -> int:
    cfg = _load_cfg(args)
    _require(cfg, ("splits", "embeddings_out"), "embed")
    embeddings = _build_embeddings(cfg)
    io.save_class_embeddings(cfg["embeddings_out"], embeddings)
    print(f"wrote {len(embeddings)} class embeddings (m={embeddings.m}) "
          f"to {cfg['embeddings_out']}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_cfg(args)
    _require(cfg, ("checkpoint_out",), "train")
    dataset = _load_dataset(cfg, ("seen", "zsl_validation"))
    embeddings = _load_embeddings(cfg, dataset.splits)
    report = train(dataset, embeddings, _train_config(cfg))
    io.save_checkpoint(cfg["checkpoint_out"], report.model,
                       dataset.splits.seen, embeddings.block_layout)
    if "report_out" in cfg:
        payload = {
            "best_iteration": report.best_iteration,
            "best_accuracy": report.best_accuracy,
            "records": [{"iteration": r.iteration,
                         "train_nll": r.train_nll,
                         "val_accuracy": r.val_accuracy}
                        for r in report.records],
        }
        Path(cfg["report_out"]).write_text(
            json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    print(f"best_iteration\t{report.best_iteration}")
    print(f"best_val_accuracy\t{io._fmt(report.best_accuracy)}")
    return 0


def cmd_eval(args) -> int:
    cfg = _load_cfg(args)
    _require(cfg, ("checkpoint",), "eval")
    split = _setting(cfg, "eval_split")
    refuse(ConfigError, eval_split_violations(split))  # `seen` would leak first
    dataset = _load_dataset(cfg, (split,))
    embeddings = _load_embeddings(cfg, dataset.splits)
    checkpoint = _checkpoint(cfg, dataset.d, embeddings)
    refuse(SplitViolationError,
           _trained_class_violations(cfg, checkpoint, dataset.splits, split))
    try:
        result = evaluate_zsl(checkpoint.model, dataset, embeddings, split)
    except NonFiniteScoreError as error:
        raise NonFiniteScoreError(_score_fault(cfg, split, error)) from None
    print(f"normalized_accuracy\t{io._fmt(result.normalized_accuracy)}")
    for cls, acc in result.per_class_accuracy.items():
        print(f"{cls}\t{io._fmt(acc)}")
    if "eval_report_out" in cfg:
        confusion: dict[str, dict[str, int]] = {}
        for (true, pred), count in sorted(result.confusion.items()):
            confusion.setdefault(true, {})[pred] = count
        payload = {
            "split": split,
            "normalized_accuracy": result.normalized_accuracy,
            "per_class_accuracy": result.per_class_accuracy,
            "confusion": confusion,
        }
        Path(cfg["eval_report_out"]).write_text(
            json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return 0


def cmd_predict(args) -> int:
    cfg = _load_cfg(args)
    _require(cfg, ("checkpoint", "features"), "predict")
    split = _setting(cfg, "eval_split")
    features = io.load_features(cfg["features"],
                                l2_normalize=cfg.get("l2_normalize", False))
    splits = io.load_splits(cfg["splits"]) if "splits" in cfg else None
    embeddings = _load_embeddings(cfg, splits)
    model = _checkpoint(cfg, features.d, embeddings).model
    candidates = splits.classes(split) if splits is not None else embeddings.class_names
    S = score_matrix(model, features.matrix,
                     embeddings.select(candidates))
    lines = [f"{i}\t{candidates[k]}"
             for i, k in zip(features.ids, np.argmax(S, axis=1))]
    text = "\n".join(lines) + "\n"
    if "predictions_out" in cfg:
        Path(cfg["predictions_out"]).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def cmd_ablate(args) -> int:
    cfg = _load_cfg(args)
    grid = _setting(cfg, "grid", args.grid)
    repeats = _setting(cfg, "repeats")
    eval_split = _setting(cfg, "eval_split")
    dataset = _load_dataset(cfg, ("seen", "zsl_validation", eval_split))
    config = _train_config(cfg)
    # Every input loads before the first model trains, each source file once.
    sourced = (_embedding_sources(cfg)
               if grid != "linear" or "embeddings" not in cfg else None)
    embeddings = (_load_embeddings(cfg, dataset.splits, sourced)
                  if grid != "embeddings" else None)
    std_col = "\tstd" if repeats > 1 else ""

    if grid in ("embeddings", "all"):
        sources, inputs = sourced
        rows = ablate_embeddings(dataset, inputs, config,
                                 sources=sources, eval_split=eval_split, repeats=repeats,
                                 normalize_blocks=cfg.get("normalize_blocks", False))
        print("# embedding-subset grid")
        print("attribute\ttaxonomy\tword\tnormalized_accuracy" + std_col)
        for row in rows:
            flags = "\t".join("1" if s in row.sources else "0"
                              for s in SOURCE_ORDER)
            extra = f"\t{io._fmt(row.std)}" if repeats > 1 else ""
            print(f"{flags}\t{io._fmt(row.accuracy)}{extra}")
    if grid in ("linear", "all"):
        rows = ablate_linear_terms(dataset, embeddings, config,
                                   eval_split=eval_split, repeats=repeats)
        print("# linear-term grid")
        print("use_wx\tuse_wy\tnormalized_accuracy" + std_col)
        for row in rows:
            extra = f"\t{io._fmt(row.std)}" if repeats > 1 else ""
            print(f"{int(row.use_wx)}\t{int(row.use_wy)}\t{io._fmt(row.accuracy)}{extra}")
    return 0


@dataclasses.dataclass
class ValidationReport:
    violations: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        return "OK" if self.ok else "\n".join(self.violations)


def validate_experiment(cfg: dict) -> ValidationReport:
    """Load each input the config names as the commands do, and cross-check
    them. A failure is one violation, never an exception, and skips the checks
    that need that input. With no `embeddings` file, the built set needs
    splits in which no class appears twice."""
    violations: list[str] = []

    def attempt(what, load):
        try:
            return load()
        except (ZslError, OSError) as exc:
            violations.append(f"{what}: {exc}")
            return None

    def load_file(key, loader, **options):
        if key not in cfg:
            return None
        return attempt(key, lambda: loader(cfg[key], **options))

    features = load_file("features", io.load_features,
                         l2_normalize=cfg.get("l2_normalize", False), keep=())
    labels = load_file("labels", io.load_labels)
    splits = load_file("splits", io.load_splits)
    settings = attempt("settings", lambda: _source_settings(cfg))
    buildable = splits and settings and not splits.overlap_violations()
    embeddings = (attempt("embeddings", lambda: _load_embeddings(cfg, splits))
                  if "embeddings" in cfg or buildable else None)
    checkpoint = load_file("checkpoint", io.load_checkpoint)
    attempt("training settings", lambda: _train_config(cfg))
    eval_split = {key: attempt("settings", lambda: _setting(cfg, key))
                  for key in _SETTINGS}["eval_split"]

    # The rules the commands apply: train fits the seen and validation
    # splits, and eval and ablate score the eval split, eval with a checkpoint
    # trained on none of its classes.
    zero_shot_faults = [] if eval_split is None else eval_split_violations(eval_split)
    violations.extend(zero_shot_faults)
    if splits is not None:
        used = [s for s in SPLIT_NAMES if s in ("seen", "zsl_validation", eval_split)]
        violations.extend(splits.overlap_violations())
        if labels is not None:
            present = set(labels.values())
            violations.extend(splits.label_violations(present))
            violations.extend(splits.instance_violations(present, used))
        if embeddings is not None:
            violations.extend(splits.coverage_violations(embeddings, used))
    if features is not None and labels is not None:
        violations.extend(io.join_violations(features.file_ids, labels))
    if checkpoint is not None:
        mismatches = _checkpoint_mismatches(
            cfg, checkpoint, None if features is None else features.d, embeddings)
        violations.extend(mismatches)
        if splits is not None and eval_split is not None and not zero_shot_faults:
            violations.extend(
                _trained_class_violations(cfg, checkpoint, splits, eval_split))
            classes = splits.classes(eval_split)
            if (embeddings is not None and classes and not mismatches
                    and not splits.coverage_violations(embeddings, (eval_split,))):
                violations.extend(_factor_violations(
                    cfg, checkpoint.model, embeddings.select(classes), eval_split))
    return ValidationReport(violations)


def cmd_validate(args) -> int:
    cfg = _load_cfg(args)
    report = validate_experiment(cfg)
    print(report)
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zslkit",
        description="Zero-shot classification with an extended bilinear "
                    "compatibility model.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "embed": (cmd_embed, "build and save class embeddings"),
        "train": (cmd_train, "train the compatibility model"),
        "eval": (cmd_eval, "evaluate a checkpoint on a zero-shot split"),
        "ablate": (cmd_ablate, "run the embedding-subset / linear-term grids"),
        "predict": (cmd_predict, "predict classes for a feature file"),
        "validate": (cmd_validate, "cross-check experiment artifacts"),
    }
    for name, (func, help_text) in commands.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="key=value config file")
        sp.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override one config entry")
        sp.add_argument("--seed", type=int, help="override the config seed")
        if name == "ablate":
            sp.add_argument("--grid", choices=("embeddings", "linear", "all"),
                            help="which ablation grid to run")
        sp.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ZslError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
