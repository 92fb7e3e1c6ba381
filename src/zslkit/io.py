"""File formats and config parsing; `cli` loads and checks experiments.

All data files are line-oriented UTF-8 text with explicit headers so they
diff cleanly; only model checkpoints use a compact binary layout. Only the
newline character ends a line, and a carriage return before it is stripped;
other line-break characters are whitespace within a line. Text files are read
one line at a time, and a load reports the first fault in reading order. A
numeric body is converted and checked 256 lines at a time by numpy's C text
reader; a chunk it refuses is read again by a second reader that only moves
forward, and converted line by line with float(), so a process reads no
byte more than twice. A load may keep only the rows of some labels, though it
reads and checks every row. A large body is read, or written, in parts, one
per CPU, with the same result. Formats:

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
import os
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Container, Mapping

import numpy as np

from .embeddings import (
    AttributeAssignment,
    AttributeSchema,
    ClassEmbeddingSet,
    TaxonomyTree,
    WordVectorTable,
    rescaled_norm,
)
from .errors import (
    AlignmentError,
    ConfigError,
    DegenerateFeatureError,
    ParseError,
    ZslError,
    refuse,
)
from .evaluate import SPLIT_NAMES, ClassSplits, SplitDataset
from .forking import _forked
from .model import CompatModel
from .train import TrainConfig

_CHECKPOINT_MAGIC = b"ZSLCKPT1\n"
# The smallest part worth a forked child, which costs about 15 ms of CPU: cut
# in two, a 3.2 MB file gained no wall time, a 3.8 MB one 22 ms (2 vCPUs).
_MIN_PART_BYTES = 2 << 20
# The fewest values a written part holds: cut in two, 50k lost 5 ms, 100k won 36 ms.
_MIN_PART_VALUES = 50_000
# Rows converted, checked and kept at a time, and norms taken at a time.
_CHUNK_ROWS = 256


def _fmt(x) -> str:
    return repr(float(x))


def _fmt_layout(layout) -> str:
    return ";".join(f"{tag}:{off}:{ln}" for tag, off, ln in layout)


def _text_lines(path, start: int = 0, stop: float = float("inf"), no: int = 0):
    """Yield (1-based line number, stripped line) for each non-blank line of
    a UTF-8 text file, read one line at a time: a load holds one line, not the
    file. Lines end at b"\\n", which no multibyte UTF-8 sequence contains. A
    byte that is not UTF-8 raises ParseError when its line is reached. Reads
    bytes [start, stop), whose ends are line starts, numbering the lines
    there after `no`, and returns the number of the last line read."""
    with open(path, "rb") as f:
        f.seek(start)
        for no, raw in enumerate(f, start=no + 1):
            start += len(raw)
            if start > stop:
                return no - 1
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError:
                raise ParseError(path, no, "not valid UTF-8 text") from None
            if line:
                yield no, line
    return no


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


@dataclass
class _Rows:
    """A numeric body as it is converted and checked, _CHUNK_ROWS lines at a
    time: every label's line number, in file order; the kept rows, in a matrix
    grown in place, so that neither a header's row count nor the rows dropped
    are ever an allocation size; and under `l2` the labels of zero rows."""

    path: str | os.PathLike
    skip: int  # header lines still to pass
    width: int | None  # None: the first row's
    kind: str
    sep: str | None = None  # None: whitespace
    ids: Container[str] | None = None  # labels of the rows kept; None keeps all
    unit: bool = False  # each row's norm must lie within 1e-9 of 1
    l2: bool = False  # each row's norm must be finite; kept rows are divided by it

    def __post_init__(self):
        self.line_of, self.zero = {}, []
        self.matrix = np.empty((0, self.width or 0))

    def read(self, *bounds):
        """Convert the lines _text_lines(path, *bounds) reads and return the
        number of the last. A chunk numpy refuses is read again, by a second
        reader that only moves forward, so no byte is read more than twice,
        and converted line by line."""
        counted = []

        def numbered():
            counted.append((yield from _text_lines(self.path, *bounds)))

        lines, again = numbered(), _text_lines(self.path, *bounds)
        behind = sum(1 for _ in itertools.islice(lines, self.skip))  # lines `again` must pass
        self.skip -= behind
        for first in lines:
            chunk = itertools.chain([first], itertools.islice(lines, _CHUNK_ROWS - 1))
            if self._convert(chunk):
                behind += _CHUNK_ROWS
                continue
            self._convert_lines(itertools.islice(again, behind, behind + _CHUNK_ROWS))
            behind = 0
            for _ in chunk:  # the lines numpy left
                pass
        return counted[0]

    def _convert(self, chunk) -> bool:
        """numpy's C text reader over the value texts of `chunk`; False if it
        refuses one, a row is not of the width or a label repeats. It gives
        the bits float() gives and splits values on the whitespace str.split()
        splits on; tokens only float() reads, such as `1_0`, make it raise.
        Each value text is one row (it refuses an embedded carriage return)."""
        labels, nos = [], []

        def value_texts():  # a line with no value text stops the reader
            for no, line in chunk:
                parts = line.split(self.sep) if self.sep else line.split(None, 1)
                if len(parts) != 2:
                    raise ValueError
                labels.append(parts[0])
                nos.append(no)
                yield parts[1]

        try:  # a byte that is not UTF-8 raises ParseError, but a line before
            # it in the chunk may hold the first fault
            rows = np.loadtxt(value_texts(), dtype=np.float64, comments=None, ndmin=2)
        except (ValueError, ParseError):
            return False
        width = self.width or rows.shape[1]
        if (rows.shape != (len(labels), width) or len(set(labels)) < len(labels)
                or not self.line_of.keys().isdisjoint(labels)):
            return False
        self.width = width
        self._add(labels, nos, rows)
        return True

    def _convert_lines(self, lines) -> None:
        """float() over the values of each line, raising ParseError at the
        first line that breaks the format or whose row fails a check. A row's
        width is checked before its values are held, so a header cannot ask
        for more memory than the file holds."""
        for no, line in lines:
            parts = line.split(self.sep) if self.sep else line.split(None, 1)
            label, values = parts[0], "".join(parts[1:]).split()
            if self.sep and len(parts) != 2:
                raise ParseError(self.path, no, f"expected '{self.kind}<TAB>v1 v2 ...'")
            self.width = self.width or len(values) or 1  # a label alone is a short row
            if len(values) != self.width:
                raise ParseError(self.path, no, f"expected {self.kind} plus "
                                                f"{self.width} value(s), got {len(values)}")
            if label in self.line_of:
                raise ParseError(self.path, no, f"duplicate {self.kind} {label!r}")
            self.line_of[label] = no  # noted before its values are, as in _add
            try:
                row = np.array([[float(v) for v in values]])
            except ValueError:
                raise ParseError(self.path, no,
                                 f"non-numeric value in {self.kind} row") from None
            self._add([label], [no], row)

    def _add(self, labels, nos, rows) -> None:
        """Note every label's line, then check the rows converted from the
        lines `nos`: every value finite, and each norm within 1e-9 of 1 under
        `unit` and finite under `l2`. Raise ParseError at the first row that
        fails, else note zero rows and append the rows of `ids`, divided by
        their norms under `l2`. A child sends the labels noted with its fault,
        so that this process sees a label repeated before it."""
        self.line_of.update(zip(labels, nos))
        norms = _row_norms(rows) if self.unit or self.l2 else np.ones(len(rows))
        finite = np.isfinite(rows).all(axis=1)
        if not (ok := finite & (np.abs(norms - 1.0) <= 1e-9 if self.unit
                                else norms < np.inf)).all():
            i = ok.argmin()
            raise ParseError(self.path, nos[i], (
                "non-finite value (nan or inf)" if not finite[i]
                else f"row {labels[i]!r} declared normalized but has norm {norms[i]!r}"
                if self.unit else f"row {labels[i]!r} has a norm too large for a float"))
        self.zero += [labels[i] for i in np.flatnonzero(norms == 0.0)]  # under l2 only
        kept = (norms > 0.0) & [self.ids is None or label in self.ids for label in labels]
        if not kept.all():
            rows, norms = rows[kept], norms[kept]
        start = len(self.matrix)
        self.matrix.resize((start + len(rows), self.width), refcheck=False)
        self.matrix[start:] = rows / norms[:, None] if self.l2 else rows

    def receive(self, part, base: int):
        """Take in the rows a child sent, their line numbers counted after
        `base`, and return the count of lines of its part, or raise the
        ParseError the child met after them, at its line in the file; None if
        the child sent nothing or short, its part holds header lines, or its
        rows repeat a label or differ in width: faults that only this process
        can see, and that may come before the child's."""
        try:
            (rows, cols), end, line_of = pickle.load(part)
        except (EOFError, pickle.UnpicklingError):  # the child sent nothing
            return None
        start, self.width = len(self.matrix), self.width or cols
        if (self.skip  # header lines still to pass lie in the child's part
                or cols not in (None, self.width)
                or not self.line_of.keys().isdisjoint(line_of)):
            return None
        # grown in place and read into: never a second full-size matrix
        self.matrix.resize((start + rows, self.width or 0), refcheck=False)
        if part.readinto(self.matrix[start:]) < self.matrix[start:].nbytes:
            self.matrix.resize((start, self.width), refcheck=False)
            return None
        self.line_of.update((label, base + no) for label, no in line_of.items())
        if isinstance(end, ParseError):
            raise ParseError(self.path, base + end.line, end.message)
        return end


def _read_rows(path, skip: int, width: int | None, kind: str,
               sep: str | None = None, declared: tuple[int, int] | None = None, **keep):
    """Parse the `label<sep>v1 ... vN` lines of a file after the first `skip`
    into every label, an (n, N) float64 matrix of the rows kept under `keep`
    (the `ids`, `unit` and `l2` of _Rows) and every label's line number, raising ParseError at the first fault in
    reading order. N is `width`, or the first row's length when `width` is
    None. Then the (line, n) of a header, if `declared`, must count the rows,
    and under `l2` no row may be zero. A child converts each _forked part of
    _MIN_PART_BYTES after the first and sends the kept rows' count and width,
    its line count or the ParseError it met, every label and the rows, or
    nothing if it met a zero row. Unless `receive` takes them in, this process
    converts the rest of the file itself, from that part on. Each process
    reads no byte of its parts more than twice."""
    body, size = _Rows(path, skip, width, kind, sep, **keep), os.path.getsize(path)

    def start(k, n):  # the first line start at or after byte k * size // n, k >= 1
        with open(path, "rb") as f:
            return f.seek(k * size // n - 1) + len(f.readline())

    def send(out, k, n):  # forked before this process reads: `body` is empty
        body.skip = 0  # a header line in a later part is a fault there
        try:
            end = body.read(start(k, n), start(k + 1, n))
        except ParseError as error:  # sent with the rows before its line
            end = error
        if not body.zero:
            pickle.dump(((len(body.matrix), body.width), end, body.line_of), out)
            out.write(body.matrix)

    with _forked(size // _MIN_PART_BYTES, send) as (n, parts):
        offset = body.read(*((0, start(1, n)) if n > 1 else ()))
        for k, part in enumerate(parts, start=1):
            if (count := body.receive(part, offset)) is None:
                body.read(start(k, n), size, offset)
                break
            offset += count
    if declared is not None and declared[1] != len(body.line_of):
        raise ParseError(path, declared[0], f"header declares n={declared[1]} but "
                                            f"file has {len(body.line_of)} rows")
    if body.zero:
        raise DegenerateFeatureError(
            f"cannot length-normalize zero feature vector ({body.zero[0]})")
    return tuple(body.line_of), body.matrix, list(body.line_of.values())


def _write_rows(path, header, labels, rows, sep: str = " ") -> None:
    """Write header lines, then a `label<sep>v1 ... vN` line in repr() (as _fmt)
    per row of the finite float64 `rows`, once all _forked parts of
    _MIN_PART_VALUES are formatted: by a child, which sends the text's length
    and the text, or here if sent short."""
    labels, finite = list(labels), np.isfinite(rows).all(axis=1)
    if not finite.all():
        raise ZslError(f"{path}: cannot write row {labels[finite.argmin()]!r}: nan or inf")

    def text(k, n):
        part = slice(k * len(rows) // n, (k + 1) * len(rows) // n)
        return "".join(f"{label}{sep}{' '.join(map(repr, row.tolist()))}\n"
                       for label, row in zip(labels[part], rows[part])).encode()

    def send(out, k, n):
        out.writelines((len(body := text(k, n)).to_bytes(8, "little"), body))

    with _forked(rows.size // _MIN_PART_VALUES, send) as (n, parts):
        bodies = [text(0, n)]
        for k, part in enumerate(parts, start=1):
            body = part.read(size := int.from_bytes(head := part.read(8), "little"))
            bodies.append(body if len(head) == 8 and len(body) == size else text(k, n))
    head = "".join(f"{line}\n" for line in header)
    with open(path, "wb") as f:
        f.writelines([(head if head or labels else "\n").encode(), *bodies])


def join_violations(feature_ids, labels) -> list[str]:
    """One message per feature id without a label, then per label id without a row."""
    feature_set = set(feature_ids)
    return ([f"feature id {i!r} has no label" for i in feature_ids if i not in labels]
            + [f"label id {i!r} has no feature row" for i in labels if i not in feature_set])


# ---------------------------------------------------------------------------
# feature matrices
# ---------------------------------------------------------------------------

@dataclass
class FeatureSet:
    ids: tuple[str, ...]
    matrix: np.ndarray  # (n, d) float64
    normalized: bool
    file_ids: tuple[str, ...] | None = None  # every id in the file; None: `ids`

    def __post_init__(self):
        self.file_ids = self.ids if self.file_ids is None else self.file_ids

    @property
    def d(self) -> int:
        return self.matrix.shape[1]


def _row_norms(matrix: np.ndarray) -> np.ndarray:
    """`np.linalg.norm(matrix, axis=1)` of a chunk of rows, whose squared
    entries fill a temporary no larger than it; a norm that over- or
    underflows is rescaled by `rescaled_norm`."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(matrix, axis=1)
        for i in np.flatnonzero(np.isinf(norms) | (norms == 0.0)):
            norms[i] = rescaled_norm(matrix[i], norms[i])
    return norms


def load_features(path, l2_normalize: bool = False,
                  keep: Container[str] | None = None) -> FeatureSet:
    """The rows of the ids in `keep`, or of every id if None, with `file_ids`
    listing every id. Every row is read and checked; a row declared
    normalized must have norm 1, and under `l2_normalize` every row must be
    nonzero and the kept rows are divided by their norms."""
    first = next(_text_lines(path), None)
    if first is None:
        raise ParseError(path, 1, "empty feature file")
    header = _header(path, first, "d=<int> n=<int> normalized=<0|1>")
    normalized = header["normalized"] == 1
    ids, rows, _ = _read_rows(path, 1, header["d"], "instance id",
                              declared=(first[0], header["n"]), ids=keep,
                              unit=normalized, l2=l2_normalize)
    return FeatureSet(ids if keep is None else tuple(i for i in ids if i in keep),
                      rows, normalized or l2_normalize, ids)


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
                 l2_normalize: bool = False, keep_splits=SPLIT_NAMES) -> SplitDataset:
    """Join the three files by instance id, in feature-file order, keeping
    the rows of the splits `keep_splits` names, and of labels in no split
    for SplitDataset to refuse. Every row is still read and checked and every
    id joined, and a fault in the features file is reported first."""
    try:
        labels, splits = load_labels(labels_path), load_splits(splits_path)
    except (ZslError, OSError):
        load_features(features_path, l2_normalize=l2_normalize)
        raise
    dropped = {c for s in SPLIT_NAMES if s not in keep_splits for c in splits.classes(s)}
    features = load_features(features_path, l2_normalize=l2_normalize,
                             keep={i for i, c in labels.items() if c not in dropped})
    refuse(AlignmentError, join_violations(features.file_ids, labels))
    return SplitDataset(features.ids, features.matrix,
                        tuple(labels[i] for i in features.ids), splits)


# ---------------------------------------------------------------------------
# auxiliary-information sources
# ---------------------------------------------------------------------------

def load_word_vectors(path) -> WordVectorTable:
    tokens, matrix, _ = _read_rows(path, 0, None, "token")
    if not tokens:
        raise ParseError(path, 1, "empty word-vector file")
    return WordVectorTable(matrix.shape[1], dict(zip(tokens, matrix)))


def save_word_vectors(path, table: WordVectorTable) -> None:
    _write_rows(path, [], table.vectors, np.array(list(table.vectors.values()))
                .reshape(len(table.vectors), table.dimension))


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
    names, matrix, _ = _read_rows(path, 2, header["m"], "class", sep="\t",
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
    """Write the magic and metadata lines, then W_e itself: no copy of it."""
    meta = {
        "d": model.d,
        "m": model.m,
        "classes": list(classes),
        "block_layout": [[tag, off, ln] for tag, off, ln in block_layout],
    }
    with open(path, "wb") as f:
        f.write(_CHECKPOINT_MAGIC + json.dumps(meta, sort_keys=True).encode("utf-8")
                + b"\n")
        f.write(np.ascontiguousarray(model.W_e, dtype="<f8"))


def load_checkpoint(path) -> Checkpoint:
    """Read the payload straight into W_e, once its length is checked."""
    with open(path, "rb") as f:
        if f.read(len(_CHECKPOINT_MAGIC)) != _CHECKPOINT_MAGIC:
            raise ParseError(path, 1, "not a checkpoint file (bad magic)")
        meta_line = f.readline()
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
        size = os.fstat(f.fileno()).st_size - f.tell()
        if size == expected:
            W_e = np.empty((d + 1, m + 1), dtype="<f8")
            size = f.readinto(W_e)
    if size != expected:
        raise ParseError(path, 2,
                         f"checkpoint payload is {size} bytes, expected {expected}")
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
