"""Class-embedding construction.

A class is described by up to three vector blocks, concatenated in a fixed
order:

  attribute  multi-hot over the (attribute, value) pairs of a schema
  taxonomy   binary root-to-leaf path indicator over a classification tree
  word       mean of word vectors for the tokens of the class name

All encoders are pure functions over immutable inputs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    ConfigError,
    IncompleteAssignmentError,
    IncompleteCoverageError,
    MissingNodeError,
    NonLeafError,
    OutOfVocabularyError,
    SchemaMismatchError,
)

SOURCE_ORDER = ("attribute", "taxonomy", "word")
WORD_POLICIES = ("strict", "skip-missing")

_TOKEN_SPLIT = re.compile(r"[\s/]+")


def tokenize_name(name: str) -> list[str]:
    """Lowercase and split on whitespace and '/' (names like 'Apple/Crabapple')."""
    return [t for t in _TOKEN_SPLIT.split(name.lower()) if t]


@dataclass(frozen=True)
class AttributeSchema:
    """Ordered catalogue of attributes, each with an ordered list of legal values."""

    attributes: tuple[tuple[str, tuple[str, ...]], ...]

    def __post_init__(self):
        norm = tuple((str(name), tuple(str(v) for v in values))
                     for name, values in self.attributes)
        object.__setattr__(self, "attributes", norm)
        if not norm:
            raise SchemaMismatchError("schema must declare at least one attribute")
        names = [name for name, _ in norm]
        if len(set(names)) != len(names):
            raise SchemaMismatchError("attribute names must be unique")
        for name, values in norm:
            if len(values) < 2:
                raise SchemaMismatchError(
                    f"attribute {name!r} must offer at least two values")
            if len(set(values)) != len(values):
                raise SchemaMismatchError(
                    f"attribute {name!r} has duplicate values")

    @property
    def n_pairs(self) -> int:
        return sum(len(values) for _, values in self.attributes)


@dataclass(frozen=True)
class AttributeAssignment:
    """Chosen value set per attribute for one class. Multi-valued choices are
    legal (a tree may have two fall colors)."""

    class_name: str
    chosen: Mapping[str, frozenset[str]]

    def __post_init__(self):
        norm = {str(a): frozenset(str(v) for v in vs) for a, vs in self.chosen.items()}
        object.__setattr__(self, "chosen", norm)


def encode_attributes(schema: AttributeSchema, assignment: AttributeAssignment) -> np.ndarray:
    """Multi-hot vector over the schema's (attribute, value) pairs in schema order."""
    legal = dict(schema.attributes)
    for attr, values in assignment.chosen.items():
        if attr not in legal:
            raise SchemaMismatchError(
                f"class {assignment.class_name!r}: unknown attribute {attr!r}")
        illegal = values - set(legal[attr])
        if illegal:
            raise SchemaMismatchError(
                f"class {assignment.class_name!r}: illegal value(s) "
                f"{sorted(illegal)} for attribute {attr!r}")
    out = np.zeros(schema.n_pairs, dtype=np.float64)
    pos = 0
    for name, values in schema.attributes:
        chosen = assignment.chosen.get(name)
        if not chosen:
            raise IncompleteAssignmentError(
                f"class {assignment.class_name!r}: no value chosen for "
                f"attribute {name!r}")
        for v in values:
            if v in chosen:
                out[pos] = 1.0
            pos += 1
    return out


class TaxonomyTree:
    """Rooted tree over taxonomy labels with a canonical node ordering.

    Built from (child_label, parent_label) edges; an edge may repeat. The
    ordering is a pre-order traversal with children visited in lexicographic
    label order, so encodings do not depend on the order of the edges.
    Root-to-node paths are precomputed during the traversal.
    """

    def __init__(self, edges: Iterable[tuple[str, str]]):
        self._parent: dict[str, str | None] = {}
        children: dict[str, set[str]] = {}
        for child, parent in edges:
            if self._parent.setdefault(child, parent) != parent:
                raise MissingNodeError(f"node {child!r} has two parents: "
                                       f"{self._parent[child]!r} and {parent!r}")
            children.setdefault(parent, set()).add(child)
            children.setdefault(child, set())
        roots = sorted(set(children) - set(self._parent))
        if len(roots) != 1:
            raise MissingNodeError(
                f"edge list must yield exactly one root, found {roots}")
        self.root = roots[0]
        self._parent[self.root] = None
        self._children = {node: sorted(ids) for node, ids in children.items()}

        # Pre-order walk carrying the ancestor stack; doubles as the
        # connectivity check (nodes unreachable from the root lie on a cycle).
        order: list[str] = []
        paths: dict[str, tuple[int, ...]] = {}
        stack: list[tuple[str, tuple[int, ...]]] = [(self.root, ())]
        while stack:
            node_id, ancestors = stack.pop()
            paths[node_id] = path = ancestors + (len(order),)
            order.append(node_id)
            stack.extend((child, path) for child in reversed(self._children[node_id]))
        if len(order) != len(self._parent):
            unreachable = sorted(set(self._parent) - set(order))
            raise MissingNodeError(
                f"nodes unreachable from root (cycle): {unreachable}")
        self.node_order: tuple[str, ...] = tuple(order)
        self._paths = paths

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[str, str]]) -> "TaxonomyTree":
        """The tree of (child_label, parent_label) pairs; same as the constructor."""
        return cls(edges)

    def __len__(self) -> int:
        return len(self._parent)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._parent

    def parent(self, node_id: str) -> str | None:
        return self._parent[node_id]

    def is_leaf(self, node_id: str) -> bool:
        return not self._children[node_id]

    def leaves(self) -> list[str]:
        return [i for i in self.node_order if self.is_leaf(i)]

    def path_indices(self, node_id: str) -> tuple[int, ...]:
        """Canonical-order indices of the root-to-node path, both ends included."""
        return self._paths[node_id]


def encode_taxonomy(tree: TaxonomyTree, leaf_id: str) -> np.ndarray:
    """Binary indicator over the canonical node ordering, 1 on the
    root-to-leaf path. The root column is constant across classes but is
    retained for fidelity to the path-encoding scheme."""
    if leaf_id not in tree:
        raise MissingNodeError(f"unknown node {leaf_id!r}")
    if not tree.is_leaf(leaf_id):
        raise NonLeafError(f"node {leaf_id!r} is not a leaf")
    out = np.zeros(len(tree), dtype=np.float64)
    out[list(tree.path_indices(leaf_id))] = 1.0
    return out


@dataclass(frozen=True)
class WordVectorTable:
    """Token -> vector map with a single declared dimension."""

    dimension: int
    vectors: Mapping[str, np.ndarray]

    def __post_init__(self):
        norm = {}
        for token, vec in self.vectors.items():
            arr = np.asarray(vec, dtype=np.float64)
            if arr.shape != (self.dimension,):
                raise SchemaMismatchError(
                    f"vector for {token!r} has length {arr.shape}, "
                    f"expected ({self.dimension},)")
            norm[str(token)] = arr
        object.__setattr__(self, "vectors", norm)

    def __contains__(self, token: str) -> bool:
        return token in self.vectors


def _check_word_policy(policy: str) -> None:
    if policy not in WORD_POLICIES:
        raise ConfigError(f"policy must be one of {WORD_POLICIES}, got {policy!r}")


def encode_words(table: WordVectorTable, common_name: str,
                 policy: str = "strict") -> np.ndarray:
    """Arithmetic mean of per-token vectors for the tokens of a common name.

    policy='strict' requires every token in the table; 'skip-missing' averages
    over the tokens that are present and fails only when none are.
    """
    _check_word_policy(policy)
    tokens = tokenize_name(common_name)
    if not tokens:
        raise OutOfVocabularyError(
            f"name {common_name!r} has no tokens after tokenization")
    missing = [t for t in tokens if t not in table]
    found = [t for t in tokens if t in table]
    if policy == "strict" and missing:
        raise OutOfVocabularyError(
            f"name {common_name!r}: tokens not in table: {missing}", missing)
    if not found:
        raise OutOfVocabularyError(
            f"name {common_name!r}: no token found in table, missing {missing}",
            missing)
    return np.mean([table.vectors[t] for t in found], axis=0)


@dataclass(frozen=True)
class ClassEmbeddingSet:
    """Embeddings for an ordered class set sharing one block layout.

    The row order of `matrix` defines the canonical class ordering used for
    argmax tie-breaking.
    """

    class_names: tuple[str, ...]
    matrix: np.ndarray  # (n_classes, m) float64
    block_layout: tuple[tuple[str, int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "class_names", tuple(self.class_names))
        object.__setattr__(self, "matrix",
                           np.asarray(self.matrix, dtype=np.float64))
        layout = tuple((str(tag), int(off), int(ln))
                       for tag, off, ln in self.block_layout)
        object.__setattr__(self, "block_layout", layout)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != len(self.class_names):
            raise IncompleteCoverageError(
                "embedding matrix rows must match class names")
        if sum(ln for _, _, ln in layout) != self.matrix.shape[1]:
            raise IncompleteCoverageError(
                "block layout lengths must sum to the embedding dimension")
        index = {name: i for i, name in enumerate(self.class_names)}
        if len(index) != len(self.class_names):
            raise IncompleteCoverageError("class names must be unique")
        object.__setattr__(self, "_index", index)

    @property
    def m(self) -> int:
        return self.matrix.shape[1]

    def __len__(self) -> int:
        return len(self.class_names)

    def __contains__(self, class_name: str) -> bool:
        return class_name in self._index

    def index(self, class_name: str) -> int:
        try:
            return self._index[class_name]
        except KeyError:
            raise IncompleteCoverageError(
                f"class {class_name!r} has no embedding") from None

    def vector(self, class_name: str) -> np.ndarray:
        return self.matrix[self.index(class_name)]

    def select(self, class_names: Sequence[str]) -> np.ndarray:
        """Rows for the given classes, in the given order."""
        return self.matrix[[self.index(c) for c in class_names]]


@dataclass
class EmbeddingSources:
    """Bundle of raw auxiliary-information inputs the builder draws from."""

    schema: AttributeSchema | None = None
    assignments: Mapping[str, AttributeAssignment] | None = None
    taxonomy: TaxonomyTree | None = None
    leaf_map: Mapping[str, str] | None = None
    word_table: WordVectorTable | None = None
    word_policy: str = "strict"

    def __post_init__(self):
        _check_word_policy(self.word_policy)


def ordered_sources(sources: Iterable[str]) -> tuple[str, ...]:
    """The requested sources in the fixed layout order attribute, taxonomy,
    word; refuses an unknown source and an empty request."""
    requested = set(sources)
    unknown = requested - set(SOURCE_ORDER)
    if unknown:
        raise ConfigError(f"unknown sources: {sorted(unknown)}")
    if not requested:
        raise ConfigError("sources must name at least one of "
                          + ", ".join(SOURCE_ORDER))
    return tuple(s for s in SOURCE_ORDER if s in requested)


def _covered(mapping: Mapping[str, object], name: str, source: str):
    if name not in mapping:
        raise IncompleteCoverageError(f"class {name!r} missing from source {source!r}")
    return mapping[name]


def _attribute_block(classes: Sequence[str], inputs: EmbeddingSources) -> np.ndarray:
    if inputs.schema is None or inputs.assignments is None:
        raise ConfigError("attribute source needs schema and assignments")
    return np.vstack([encode_attributes(inputs.schema,
                                        _covered(inputs.assignments, name, "attribute"))
                      for name in classes])


def _taxonomy_block(classes: Sequence[str], inputs: EmbeddingSources) -> np.ndarray:
    if inputs.taxonomy is None or inputs.leaf_map is None:
        raise ConfigError("taxonomy source needs a tree and a leaf map")
    return np.vstack([encode_taxonomy(inputs.taxonomy,
                                      _covered(inputs.leaf_map, name, "taxonomy"))
                      for name in classes])


def _word_block(classes: Sequence[str], inputs: EmbeddingSources) -> np.ndarray:
    if inputs.word_table is None:
        raise ConfigError("word source needs a word-vector table")
    rows = []
    for name in classes:
        try:
            rows.append(encode_words(inputs.word_table, name, inputs.word_policy))
        except OutOfVocabularyError as exc:
            raise IncompleteCoverageError(
                f"class {name!r} missing from source 'word': {exc}") from exc
    return np.vstack(rows)


_SOURCE_BLOCKS = {"attribute": _attribute_block, "taxonomy": _taxonomy_block,
                  "word": _word_block}


def build_class_embeddings(classes: Sequence[str], sources: Sequence[str],
                           inputs: EmbeddingSources, *,
                           normalize_blocks: bool = False) -> ClassEmbeddingSet:
    """Concatenate the requested source blocks for every class.

    Sources are always laid out in the fixed order attribute, taxonomy, word,
    regardless of the order requested; the word block encodes the class
    name. `normalize_blocks` rescales each block of each class to unit length
    (off by default; the relative scaling of binary vs word blocks is
    otherwise left as-is).
    """
    layout, blocks, offset = [], [], 0
    for source in ordered_sources(sources):
        block = _SOURCE_BLOCKS[source](classes, inputs)
        if normalize_blocks:
            for row in block:
                norm = float(np.linalg.norm(row))
                if norm > 0.0:
                    row /= norm
        layout.append((source, offset, block.shape[1]))
        blocks.append(block)
        offset += block.shape[1]
    return ClassEmbeddingSet(tuple(classes), np.hstack(blocks), tuple(layout))
