"""Command-line interface.

Subcommands: embed, train, eval, ablate, predict, validate. Every command
reads a key=value config file; individual entries can be overridden with
repeated --set KEY=VALUE flags, and --seed overrides the seed. All outputs
are deterministic functions of (config, input files, seed).

Commands load their inputs through `_load_dataset`, `_load_embeddings` and
`_train_config`; `validate` loads through the same functions and reports each
failure, and each failed cross-check, as one violation.

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
from .errors import AlignmentError, ConfigError, ZslError
from .evaluate import SPLIT_NAMES, ablate_embeddings, ablate_linear_terms, evaluate_zsl
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


def _load_dataset(cfg: dict):
    _require(cfg, ("features", "labels", "splits"), "this command")
    return io.load_dataset(cfg["features"], cfg["labels"], cfg["splits"],
                           l2_normalize=cfg.get("l2_normalize", False))


def _build_embeddings(cfg: dict):
    _require(cfg, ("splits",), "embedding construction")
    splits = io.load_splits(cfg["splits"])
    sources, inputs = _embedding_sources(cfg)
    return build_class_embeddings(splits.all_classes(), sources, inputs,
                                  normalize_blocks=cfg.get("normalize_blocks", False))


def _load_embeddings(cfg: dict):
    if "embeddings" in cfg:
        return io.load_class_embeddings(cfg["embeddings"])
    return _build_embeddings(cfg)


def _checkpoint_model(cfg: dict, embeddings):
    """The checkpoint's model, refused unless it was trained on embeddings
    with the same block layout as the ones it is about to score."""
    checkpoint = io.load_checkpoint(cfg["checkpoint"])
    mismatch = io.layout_mismatch(cfg["checkpoint"], checkpoint, embeddings)
    if mismatch:
        raise AlignmentError(mismatch)
    return checkpoint.model


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
    dataset = _load_dataset(cfg)
    embeddings = _load_embeddings(cfg)
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
    dataset = _load_dataset(cfg)
    embeddings = _load_embeddings(cfg)
    model = _checkpoint_model(cfg, embeddings)
    result = evaluate_zsl(model, dataset, embeddings, split)
    print(f"normalized_accuracy\t{io._fmt(result.normalized_accuracy)}")
    for cls, acc in result.per_class_accuracy.items():
        print(f"{cls}\t{io._fmt(acc)}")
    if "report_out" in cfg:
        confusion: dict[str, dict[str, int]] = {}
        for (true, pred), count in sorted(result.confusion.items()):
            confusion.setdefault(true, {})[pred] = count
        payload = {
            "split": split,
            "normalized_accuracy": result.normalized_accuracy,
            "per_class_accuracy": result.per_class_accuracy,
            "confusion": confusion,
        }
        Path(cfg["report_out"]).write_text(
            json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return 0


def cmd_predict(args) -> int:
    cfg = _load_cfg(args)
    _require(cfg, ("checkpoint", "features"), "predict")
    split = _setting(cfg, "eval_split")
    features = io.load_features(cfg["features"],
                                l2_normalize=cfg.get("l2_normalize", False))
    embeddings = _load_embeddings(cfg)
    model = _checkpoint_model(cfg, embeddings)
    if "splits" in cfg:
        splits = io.load_splits(cfg["splits"])
        candidates = splits.classes(split)
    else:
        candidates = embeddings.class_names
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
    dataset = _load_dataset(cfg)
    config = _train_config(cfg)
    # The linear grid's embeddings load before the embedding grid trains.
    embeddings = _load_embeddings(cfg) if grid in ("linear", "all") else None
    std_col = "\tstd" if repeats > 1 else ""

    if grid in ("embeddings", "all"):
        sources, inputs = _embedding_sources(cfg)
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
    that need that input. With no `embeddings` file, the built set needs splits."""
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
                         l2_normalize=cfg.get("l2_normalize", False))
    labels = load_file("labels", io.load_labels)
    splits = load_file("splits", io.load_splits)
    settings = attempt("settings", lambda: _source_settings(cfg))
    embeddings = (attempt("embeddings", lambda: _load_embeddings(cfg))
                  if "embeddings" in cfg or (splits and settings) else None)
    checkpoint = load_file("checkpoint", io.load_checkpoint)
    attempt("training settings", lambda: _train_config(cfg))
    for key in _SETTINGS:
        attempt("settings", lambda: _setting(cfg, key))

    if splits is not None:
        violations.extend(splits.overlap_violations())
        split_classes = set(splits.all_classes())
        if labels is not None:
            stray = sorted({c for c in labels.values() if c not in split_classes})
            violations.extend(f"label class {cls!r} is not in any split" for cls in stray)
        if embeddings is not None:
            violations.extend(f"class {cls!r} in split {name!r} has no embedding"
                              for name in SPLIT_NAMES for cls in splits.classes(name)
                              if cls not in embeddings)
    if features is not None and labels is not None:
        missing, extra = io._id_join(features.ids, labels)
        violations.extend(f"feature id {i!r} has no label" for i in missing)
        violations.extend(f"label id {i!r} has no feature row" for i in extra)
    if checkpoint is not None:
        if features is not None and features.d != checkpoint.model.d:
            violations.append(
                f"feature dimension d={features.d} != checkpoint d={checkpoint.model.d}")
        if embeddings is not None and embeddings.m != checkpoint.model.m:
            violations.append(
                f"embedding dimension m={embeddings.m} != checkpoint m={checkpoint.model.m}")
        elif embeddings is not None:
            mismatch = io.layout_mismatch(cfg["checkpoint"], checkpoint, embeddings)
            if mismatch:
                violations.append(mismatch)
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
