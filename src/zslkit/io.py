"""File formats and config parsing; `cli` loads and checks experiments.

All data files are line-oriented UTF-8 text with explicit headers so they
diff cleanly; only model checkpoints use a compact binary layout. Only the
newline character ends a line, and a carriage return before it is stripped;
other line-break characters are whitespace within a line. Text files are read
one line at a time, and a load reports the first fault in reading order. Formats:

  features     header `d=<int> n=<int> normalized=<0|1>`, then `id v1 ... vd`
  labels       `id<TAB>class_label`
  splits       sections `[seen]`, `[zsl_validation]`, `[zsl_test]`, one class per line
  word vectors `token v1 ... vD`
  taxonomy     edge list `child_label<TAB>parent_label`
  leaf map     `class<TAB>leaf_label`
  attr schema  `attribute<TAB>value1,value2,...`
  assignments  `class<TAB>attr=v1,v2<TAB>attr2=v3...`
  embeddings   header `m=<int> n=<int>` and `blocks=tag:off:len;...`, then
               `class<TAB>v1 v2 ... vm`
  checkpoint   magic line, JSON metadata line, raw little-endian float64 W_e
  config       flat `key=value`, `#` comments; unknown keys rejected

Floats are written with repr() and therefore round-trip bit-exactly.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .embeddings import (
    AttributeAssignment,
    AttributeSchema,
    ClassEmbeddingSet,
    TaxonomyTree,
    WordVectorTable,
)
from .errors import (
    AlignmentError,
    ConfigError,
    DegenerateFeatureError,
    ParseError,
    ZslError,
)
from .evaluate import SPLIT_NAMES, ClassSplits, SplitDataset
from .model import CompatModel
from .train import TrainConfig

_CHECKPOINT_MAGIC = b"ZSLCKPT1\n"


def _fmt(x) -> str:
    return repr(float(x))


def _fmt_layout(layout) -> str:
    return ";".join(f"{tag}:{off}:{ln}" for tag, off, ln in layout)


def _text_lines(path):
    """Yield (1-based line number, stripped line) for each non-blank line of
    a UTF-8 text file, read one line at a time: a load holds one line, not the
    file. Lines end at b"\\n", which no multibyte UTF-8 sequence contains. A
    byte that is not UTF-8 raises ParseError when its line is reached."""
    with open(path, "rb") as f:
        for no, raw in enumerate(f, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError:
                raise ParseError(path, no, "not valid UTF-8 text") from None
            if line:
                yield no, line


def _write_lines(path, lines) -> None:
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _tab_pairs(path, usage: str):
    """Yield (line number, key, value) for the `key<TAB>value` lines of a file."""
    for no, line in _text_lines(path):
        parts = line.split("\t")
        if len(parts) != 2:
            raise ParseError(path, no, f"expected '{usage}'")
        yield no, parts[0], parts[1]


def _read_pairs(path, usage: str, key_kind: str, parse=None) -> dict:
    """Parse `key<TAB>value` lines into a dict, refusing repeated keys.
    `parse(key, value)`, if given, converts each value; a `ZslError` it
    raises becomes a `ParseError` at that line."""
    out: dict = {}
    for no, key, value in _tab_pairs(path, usage):
        if key in out:
            raise ParseError(path, no, f"duplicate {key_kind} {key!r}")
        try:
            out[key] = value if parse is None else parse(key, value)
        except ZslError as exc:
            raise ParseError(path, no, str(exc)) from None
    return out


def _write_pairs(path, pairs: Mapping[str, str]) -> None:
    _write_lines(path, (f"{k}\t{v}" for k, v in pairs.items()))


def _header(path, line, usage: str) -> dict[str, int]:
    """The integer fields of a `d=<int> n=<int> normalized=<0|1>` or
    `m=<int> n=<int>` header line, whose keys `usage` spells. The first key
    is the row width and must be >= 1; `_read_rows` checks `n`."""
    no, text = line
    keys = [tok.split("=", 1)[0] for tok in usage.split()]
    fields = dict(tok.split("=", 1) for tok in text.split() if "=" in tok)
    try:
        out = {key: int(fields[key]) for key in keys}
    except (KeyError, ValueError):
        raise ParseError(path, no, f"header must be '{usage}'") from None
    width = keys[0]
    if out[width] < 1:
        raise ParseError(path, no, f"header needs {width} >= 1, got {width}={out[width]}")
    if out.get("normalized", 0) not in (0, 1):
        raise ParseError(path, no, f"header needs normalized=0 or 1, got {out['normalized']}")
    return out


def _convert_body(lines, width: int | None, sep: str | None):
    """numpy's C text reader over the rows' value texts, fed one line at a
    time: (line_of, matrix) when it converts every line left in `lines` to a
    row of the expected width, else None. Its float conversion gives the bits
    float() gives, and it splits values on the whitespace str.split() splits
    on; tokens only float() reads, such as `1_0`, make it raise. Each value
    text is one row (the reader refuses an embedded carriage return). The
    reader grows the matrix as it goes: a header's row count is not an
    allocation size."""
    line_of: dict[str, int] = {}  # label -> line number, in file order

    def value_texts():
        # A line with no value text (with a tab sep: not exactly one tab) or
        # a repeated label stops the reader; the row loop then reports it.
        for no, line in lines:
            parts = line.split(sep) if sep else line.split(None, 1)
            if len(parts) != 2 or parts[0] in line_of:
                raise ValueError
            line_of[parts[0]] = no
            yield parts[1]

    try:
        with warnings.catch_warnings():
            # loadtxt warns when the body is empty
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            matrix = np.loadtxt(value_texts(), dtype=np.float64, comments=None,
                                ndmin=2)
    except ValueError:
        return None
    if matrix.shape != (len(line_of), width or matrix.shape[1]):
        return None
    return line_of, matrix


def _read_rows_loop(path, skip: int, width: int | None, kind: str, sep: str | None):
    """Row by row, the same conversion as _convert_body over the lines after
    the first `skip`, read again from the file, raising ParseError at the
    first line that breaks the format. Each row's width is checked before its
    values are kept, so a header cannot ask for more memory than the file
    holds."""
    line_of: dict[str, int] = {}  # label -> line number, in file order
    rows: list[list[float]] = []
    for no, line in itertools.islice(_text_lines(path), skip, None):
        if sep is None:
            label, *values = line.split()
        else:
            parts = line.split(sep)
            if len(parts) != 2:
                raise ParseError(path, no, f"expected '{kind}<TAB>v1 v2 ...'")
            label, values = parts[0], parts[1].split()
        if width is None:
            width = len(values) or 1  # a label alone is a short row
        if len(values) != width:
            raise ParseError(path, no, f"expected {kind} plus {width} value(s), "
                                       f"got {len(values)}")
        if label in line_of:
            raise ParseError(path, no, f"duplicate {kind} {label!r}")
        line_of[label] = no
        try:
            rows.append([float(v) for v in values])
        except ValueError:
            raise ParseError(path, no, f"non-numeric value in {kind} row") from None
    return line_of, np.array(rows, dtype=np.float64).reshape(len(rows), width or 0)


def _read_rows(path, lines, skip: int, width: int | None, kind: str,
               sep: str | None = None, declared: tuple[int, int] | None = None):
    """Parse the `label<sep>v1 ... vN` lines left in `lines`, the file's lines
    after the first `skip`, into the labels, an (n, N) float64 matrix and each
    row's line number. N is `width`, or the first row's length when `width` is
    None. A clean body is converted by numpy's text reader as it is read; any
    other body is read again by the row loop, which names the first bad line.
    Labels must be unique and values finite; then the (line, n) of a header,
    if `declared`, must count the rows."""
    line_of, matrix = (_convert_body(lines, width, sep)
                       or _read_rows_loop(path, skip, width, kind, sep))
    row_lines = list(line_of.values())
    finite_rows = np.isfinite(matrix).all(axis=1)
    if not finite_rows.all():
        raise ParseError(path, row_lines[int(np.argmin(finite_rows))],
                         "non-finite value (nan or inf)")
    if declared is not None and declared[1] != len(row_lines):
        raise ParseError(path, declared[0], f"header declares n={declared[1]} but "
                                            f"file has {len(row_lines)} rows")
    return tuple(line_of), matrix, row_lines


def _write_rows(path, header, labels, rows, sep: str = " ") -> None:
    """Write header lines, then one `label<sep>v1 ... vN` line per row. The
    rows are float64, so repr() of their elements writes what _fmt writes."""
    _write_lines(path, [*header, *(label + sep + " ".join(map(repr, row.tolist()))
                                   for label, row in zip(labels, rows))])


def _id_join(feature_ids, labels) -> tuple[list[str], list[str]]:
    """Feature ids without a label, and label ids without a feature row."""
    feature_set = set(feature_ids)
    return ([i for i in feature_ids if i not in labels],
            [i for i in labels if i not in feature_set])


# ---------------------------------------------------------------------------
# feature matrices
# ---------------------------------------------------------------------------

@dataclass
class FeatureSet:
    ids: tuple[str, ...]
    matrix: np.ndarray  # (n, d) float64
    normalized: bool

    @property
    def d(self) -> int:
        return self.matrix.shape[1]


def _row_norms(matrix: np.ndarray) -> np.ndarray:
    """`np.linalg.norm(matrix, axis=1)`, taken 256 rows at a time so that the
    squared entries never fill a temporary as large as the matrix. Each row's
    norm is reduced on its own, so the values are the same bits."""
    norms = np.empty(len(matrix))
    for start in range(0, len(matrix), 256):
        norms[start:start + 256] = np.linalg.norm(matrix[start:start + 256], axis=1)
    return norms


def l2_normalize_rows(matrix: np.ndarray, ids) -> np.ndarray:
    norms = _row_norms(matrix)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise DegenerateFeatureError(
            f"cannot length-normalize zero feature vector ({ids[zero[0]]})")
    return matrix / norms[:, None]


def load_features(path, l2_normalize: bool = False) -> FeatureSet:
    lines = _text_lines(path)
    first = next(lines, None)
    if first is None:
        raise ParseError(path, 1, "empty feature file")
    header = _header(path, first, "d=<int> n=<int> normalized=<0|1>")
    ids, rows, row_lines = _read_rows(path, lines, 1, header["d"], "instance id",
                                      declared=(first[0], header["n"]))
    normalized = header["normalized"] == 1
    if normalized:
        norms = _row_norms(rows)
        off = np.flatnonzero(np.abs(norms - 1.0) > 1e-9)
        if off.size:
            raise ParseError(path, row_lines[off[0]],
                             f"row {ids[off[0]]!r} declared normalized but has "
                             f"norm {norms[off[0]]!r}")
    if l2_normalize:
        rows = l2_normalize_rows(rows, ids)
        normalized = True
    return FeatureSet(ids, rows, normalized)


def save_features(path, features: FeatureSet) -> None:
    _write_rows(path, [f"d={features.d} n={len(features.ids)} "
                       f"normalized={1 if features.normalized else 0}"],
                features.ids, np.asarray(features.matrix, dtype=np.float64))


# ---------------------------------------------------------------------------
# labels and splits
# ---------------------------------------------------------------------------

def load_labels(path) -> dict[str, str]:
    return _read_pairs(path, "id<TAB>class_label", "instance id")


def save_labels(path, labels: Mapping[str, str]) -> None:
    _write_pairs(path, labels)


def load_splits(path) -> ClassSplits:
    """Parse the three sections. Structural problems raise ParseError;
    cross-section overlap is semantic and left to ClassSplits checks."""
    sections: dict[str, list[str]] = {}
    current: str | None = None
    for no, line in _text_lines(path):
        if line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1]
            if name not in SPLIT_NAMES:
                raise ParseError(path, no, f"unknown section {name!r}")
            if name in sections:
                raise ParseError(path, no, f"duplicate section {name!r}")
            sections[name] = []
            current = name
        elif current is None:
            raise ParseError(path, no, "class name before any section header")
        elif line in sections[current]:
            raise ParseError(path, no, f"class {line!r} listed twice in [{current}]")
        else:
            sections[current].append(line)
    missing = [s for s in SPLIT_NAMES if s not in sections]
    if missing:
        raise ParseError(path, 1, f"missing section(s) {missing}")
    if not sections["seen"]:
        raise ParseError(path, 1, "the [seen] section must be non-empty")
    return ClassSplits(tuple(sections["seen"]),
                       tuple(sections["zsl_validation"]),
                       tuple(sections["zsl_test"]))


def save_splits(path, splits: ClassSplits) -> None:
    out = []
    for name in SPLIT_NAMES:
        out.append(f"[{name}]")
        out.extend(splits.classes(name))
    _write_lines(path, out)


def load_dataset(features_path, labels_path, splits_path,
                 l2_normalize: bool = False) -> SplitDataset:
    """Join the three files by instance id, in feature-file order."""
    features = load_features(features_path, l2_normalize=l2_normalize)
    labels = load_labels(labels_path)
    splits = load_splits(splits_path)
    missing, extra = _id_join(features.ids, labels)
    if missing:
        raise AlignmentError(f"feature id(s) without a label: {missing[:5]}")
    if extra:
        raise AlignmentError(f"label id(s) without features: {extra[:5]}")
    return SplitDataset(features.ids, features.matrix,
                        tuple(labels[i] for i in features.ids), splits)


# ---------------------------------------------------------------------------
# auxiliary-information sources
# ---------------------------------------------------------------------------

def load_word_vectors(path) -> WordVectorTable:
    tokens, matrix, _ = _read_rows(path, _text_lines(path), 0, None, "token")
    if not tokens:
        raise ParseError(path, 1, "empty word-vector file")
    return WordVectorTable(matrix.shape[1], dict(zip(tokens, matrix)))


def save_word_vectors(path, table: WordVectorTable) -> None:
    _write_rows(path, [], table.vectors.keys(), table.vectors.values())


def load_taxonomy(path) -> TaxonomyTree:
    edges = [(child, parent) for _, child, parent
             in _tab_pairs(path, "child_label<TAB>parent_label")]
    if not edges:
        raise ParseError(path, 1, "empty taxonomy file")
    return TaxonomyTree.from_edges(edges)


def save_taxonomy(path, tree: TaxonomyTree) -> None:
    _write_lines(path, (f"{node}\t{tree.parent(node)}"
                        for node in tree.node_order if tree.parent(node) is not None))


def load_leaf_map(path) -> dict[str, str]:
    return _read_pairs(path, "class<TAB>leaf_label", "class")


def save_leaf_map(path, leaf_map: Mapping[str, str]) -> None:
    _write_pairs(path, leaf_map)


def _schema_values(name: str, text: str) -> tuple[str, ...]:
    """One schema line's values, checked as a one-attribute schema."""
    values = tuple(v.strip() for v in text.split(",") if v.strip())
    return AttributeSchema(((name, values),)).attributes[0][1]


def load_attribute_schema(path) -> AttributeSchema:
    attrs = _read_pairs(path, "attribute<TAB>v1,v2,...", "attribute", _schema_values)
    if not attrs:
        raise ParseError(path, 1, "empty attribute schema file")
    return AttributeSchema(tuple(attrs.items()))


def save_attribute_schema(path, schema: AttributeSchema) -> None:
    _write_lines(path, (f"{name}\t{','.join(values)}"
                        for name, values in schema.attributes))


def load_attribute_assignments(path) -> dict[str, AttributeAssignment]:
    out: dict[str, AttributeAssignment] = {}
    for no, line in _text_lines(path):
        parts = line.split("\t")
        if len(parts) < 2:
            raise ParseError(path, no, "expected 'class<TAB>attr=v1,v2<TAB>...'")
        name = parts[0]
        if name in out:
            raise ParseError(path, no, f"duplicate class {name!r}")
        chosen: dict[str, frozenset[str]] = {}
        for field in parts[1:]:
            if "=" not in field:
                raise ParseError(path, no, f"field {field!r} lacks '='")
            attr, values = field.split("=", 1)
            if attr in chosen:
                raise ParseError(path, no, f"class {name!r}: attribute {attr!r} repeated")
            chosen[attr] = frozenset(v.strip() for v in values.split(",") if v.strip())
        out[name] = AttributeAssignment(name, chosen)
    return out


def save_attribute_assignments(path, assignments: Mapping[str, AttributeAssignment]) -> None:
    out = []
    for name, a in assignments.items():
        fields = [f"{attr}={','.join(sorted(values))}"
                  for attr, values in a.chosen.items()]
        out.append("\t".join([name] + fields))
    _write_lines(path, out)


# ---------------------------------------------------------------------------
# class-embedding matrices
# ---------------------------------------------------------------------------

def load_class_embeddings(path) -> ClassEmbeddingSet:
    lines = _text_lines(path)
    first, second = next(lines, None), next(lines, None)
    if second is None:
        raise ParseError(path, 1, "embedding file needs two header lines")
    header = _header(path, first, "m=<int> n=<int>")
    h2_no, h2 = second
    if not h2.startswith("blocks="):
        raise ParseError(path, h2_no, "second header line must be 'blocks=...'")
    layout = []
    for item in h2[len("blocks="):].split(";"):
        try:
            tag, off, ln = item.split(":")
            layout.append((tag, int(off), int(ln)))
        except ValueError:
            raise ParseError(path, h2_no, f"bad block spec {item!r}") from None
    names, matrix, _ = _read_rows(path, lines, 2, header["m"], "class", sep="\t",
                                  declared=(first[0], header["n"]))
    return ClassEmbeddingSet(names, matrix, tuple(layout))


def save_class_embeddings(path, embeddings: ClassEmbeddingSet) -> None:
    _write_rows(path, [f"m={embeddings.m} n={len(embeddings)}",
                       "blocks=" + _fmt_layout(embeddings.block_layout)],
                embeddings.class_names, embeddings.matrix, sep="\t")


# ---------------------------------------------------------------------------
# model checkpoints
# ---------------------------------------------------------------------------

@dataclass
class Checkpoint:
    model: CompatModel
    classes: tuple[str, ...]  # training class ordering
    block_layout: tuple[tuple[str, int, int], ...]


def save_checkpoint(path, model: CompatModel, classes, block_layout) -> None:
    meta = {
        "d": model.d,
        "m": model.m,
        "classes": list(classes),
        "block_layout": [[tag, off, ln] for tag, off, ln in block_layout],
    }
    blob = (_CHECKPOINT_MAGIC
            + json.dumps(meta, sort_keys=True).encode("utf-8") + b"\n"
            + np.ascontiguousarray(model.W_e, dtype="<f8").tobytes())
    Path(path).write_bytes(blob)


def layout_mismatch(checkpoint_path, checkpoint: Checkpoint,
                    embeddings: ClassEmbeddingSet) -> str | None:
    """Why the checkpoint must not score these embeddings, or None when it
    was trained on the same embedding block layout."""
    if checkpoint.block_layout == embeddings.block_layout:
        return None
    return (f"checkpoint {checkpoint_path} was trained on embedding layout "
            f"{_fmt_layout(checkpoint.block_layout)!r} but the class "
            f"embeddings have layout {_fmt_layout(embeddings.block_layout)!r}")


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as f:
        if f.read(len(_CHECKPOINT_MAGIC)) != _CHECKPOINT_MAGIC:
            raise ParseError(path, 1, "not a checkpoint file (bad magic)")
        meta_line = f.readline()
        raw = f.read()
    try:
        if not meta_line.endswith(b"\n"):
            raise ValueError
        meta = json.loads(meta_line.decode("utf-8"))
        d, m = int(meta["d"]), int(meta["m"])
        if d < 1 or m < 1:
            raise ValueError
        classes = tuple(meta.get("classes", []))
        layout = tuple((tag, int(off), int(ln))
                       for tag, off, ln in meta.get("block_layout", []))
    except (ValueError, KeyError, TypeError, OverflowError):
        raise ParseError(path, 2, "bad checkpoint metadata") from None
    expected = (d + 1) * (m + 1) * 8
    if len(raw) != expected:
        raise ParseError(path, 2,
                         f"checkpoint payload is {len(raw)} bytes, expected {expected}")
    W_e = np.frombuffer(raw, dtype="<f8").reshape(d + 1, m + 1).copy()
    if not np.isfinite(W_e).all():
        raise ParseError(path, 2, "checkpoint payload has a non-finite value (nan or inf)")
    return Checkpoint(CompatModel(W_e), classes, layout)


# ---------------------------------------------------------------------------
# experiment configs
# ---------------------------------------------------------------------------

_PATH_KEYS = (
    "features", "labels", "splits",
    "attribute_schema", "attribute_assignments",
    "taxonomy", "leaf_map", "word_vectors",
    "embeddings", "embeddings_out",
    "checkpoint", "checkpoint_out",
    "report_out", "predictions_out",
)

def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("1", "true", "yes"):
        return True
    if low in ("0", "false", "no"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


CONFIG_SCHEMA: dict[str, type | object] = {
    **{k: str for k in _PATH_KEYS},
    # Training keys parse as the type of their TrainConfig default.
    **{f.name: _parse_bool if isinstance(f.default, bool) else type(f.default)
       for f in dataclasses.fields(TrainConfig)},
    "sources": str,          # comma-separated subset of attribute,taxonomy,word
    "word_policy": str,
    "normalize_blocks": _parse_bool,
    "l2_normalize": _parse_bool,
    "eval_split": str,
    "repeats": int,
    "grid": str,
}


def parse_config_entry(key: str, raw: str):
    if key not in CONFIG_SCHEMA:
        raise ConfigError(f"unknown config key {key!r}")
    try:
        return CONFIG_SCHEMA[key](raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}") from None


def load_config(path) -> dict:
    out: dict = {}
    for no, line in _text_lines(path):
        if line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(path, no, "expected 'key=value'")
        key, raw = line.split("=", 1)
        key, raw = key.strip(), raw.strip()
        if key in out:
            raise ParseError(path, no, f"duplicate config key {key!r}")
        try:
            out[key] = parse_config_entry(key, raw)
        except ConfigError as exc:
            raise ParseError(path, no, str(exc)) from None
    return out


def resolve_config_paths(config: dict, base_dir) -> dict:
    """Return a copy with path values resolved relative to the config file."""
    base = Path(base_dir)
    out = dict(config)
    for key in _PATH_KEYS:
        if key in out:
            out[key] = str(base / out[key])
    return out
