"""Command-line interface.

Subcommands: embed, train, eval, ablate, predict, validate. Every command
reads a key=value config file; individual entries can be overridden with
repeated --set KEY=VALUE flags, and --seed overrides the seed. All outputs
are deterministic functions of (config, input files, seed).

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
from .evaluate import ablate_embeddings, ablate_linear_terms, evaluate_zsl
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


def _embedding_sources(cfg: dict, sources) -> EmbeddingSources:
    inputs = EmbeddingSources(word_policy=cfg.get("word_policy", "strict"))
    if "attribute" in sources:
        _require(cfg, ("attribute_schema", "attribute_assignments"), "attribute source")
        inputs.schema = io.load_attribute_schema(cfg["attribute_schema"])
        inputs.assignments = io.load_attribute_assignments(cfg["attribute_assignments"])
    if "taxonomy" in sources:
        _require(cfg, ("taxonomy", "leaf_map"), "taxonomy source")
        inputs.taxonomy = io.load_taxonomy(cfg["taxonomy"])
        inputs.leaf_map = io.load_leaf_map(cfg["leaf_map"])
    if "word" in sources:
        _require(cfg, ("word_vectors",), "word source")
        inputs.word_table = io.load_word_vectors(cfg["word_vectors"])
    return inputs


def _load_dataset(cfg: dict):
    _require(cfg, ("features", "labels", "splits"), "this command")
    return io.load_dataset(cfg["features"], cfg["labels"], cfg["splits"],
                           l2_normalize=cfg.get("l2_normalize", False))


def _build_embeddings(cfg: dict):
    _require(cfg, ("splits",), "embedding construction")
    raw = cfg.get("sources", ",".join(SOURCE_ORDER))
    sources = ordered_sources(s.strip() for s in raw.split(",") if s.strip())
    splits = io.load_splits(cfg["splits"])
    inputs = _embedding_sources(cfg, sources)
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
    dataset = _load_dataset(cfg)
    embeddings = _load_embeddings(cfg)
    model = _checkpoint_model(cfg, embeddings)
    split = cfg.get("eval_split", "zsl_test")
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
    features = io.load_features(cfg["features"],
                                l2_normalize=cfg.get("l2_normalize", False))
    embeddings = _load_embeddings(cfg)
    model = _checkpoint_model(cfg, embeddings)
    if "splits" in cfg:
        splits = io.load_splits(cfg["splits"])
        candidates = splits.classes(cfg.get("eval_split", "zsl_test"))
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
    grid = args.grid or cfg.get("grid", "all")
    if grid not in ("embeddings", "linear", "all"):
        raise ConfigError(f"grid must be embeddings, linear or all, got {grid!r}")
    dataset = _load_dataset(cfg)
    config = _train_config(cfg)
    repeats = cfg.get("repeats", 1)
    eval_split = cfg.get("eval_split", "zsl_test")
    std_col = "\tstd" if repeats > 1 else ""

    if grid in ("embeddings", "all"):
        inputs = _embedding_sources(cfg, SOURCE_ORDER)
        rows = ablate_embeddings(dataset, inputs, config,
                                 eval_split=eval_split, repeats=repeats,
                                 normalize_blocks=cfg.get("normalize_blocks", False))
        print("# embedding-subset grid")
        print("attribute\ttaxonomy\tword\tnormalized_accuracy" + std_col)
        for row in rows:
            flags = "\t".join("1" if s in row.sources else "0"
                              for s in SOURCE_ORDER)
            extra = f"\t{io._fmt(row.std)}" if repeats > 1 else ""
            print(f"{flags}\t{io._fmt(row.accuracy)}{extra}")
    if grid in ("linear", "all"):
        embeddings = _load_embeddings(cfg)
        rows = ablate_linear_terms(dataset, embeddings, config,
                                   eval_split=eval_split, repeats=repeats)
        print("# linear-term grid")
        print("use_wx\tuse_wy\tnormalized_accuracy" + std_col)
        for row in rows:
            extra = f"\t{io._fmt(row.std)}" if repeats > 1 else ""
            print(f"{int(row.use_wx)}\t{int(row.use_wy)}\t{io._fmt(row.accuracy)}{extra}")
    return 0


def cmd_validate(args) -> int:
    cfg = _load_cfg(args)
    report = io.validate_experiment(cfg)
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
