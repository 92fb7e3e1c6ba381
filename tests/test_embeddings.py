import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from synthdata import block_signal_problem, path_by_parent_following, random_tree
from zslkit.embeddings import (
    SOURCE_ORDER,
    AttributeAssignment,
    AttributeSchema,
    ClassEmbeddingSet,
    EmbeddingSources,
    TaxonomyTree,
    WordVectorTable,
    build_class_embeddings,
    encode_attributes,
    encode_taxonomy,
    encode_words,
    tokenize_name,
)
from zslkit.errors import (
    ConfigError,
    IncompleteAssignmentError,
    IncompleteCoverageError,
    MissingNodeError,
    NonLeafError,
    OutOfVocabularyError,
    SchemaMismatchError,
    ZslError,
)
from zslkit.evaluate import EMBEDDING_SUBSETS


def assignment(name, **chosen):
    return AttributeAssignment(name, {a: frozenset(v) for a, v in chosen.items()})


class TestEncodeAttributes:
    def test_single_choice_one_hot(self):
        schema = AttributeSchema((("Crown density", ("open", "moderate", "dense")),))
        vec = encode_attributes(schema, assignment("x", **{"Crown density": {"dense"}}))
        assert vec.tolist() == [0, 0, 1]

    def test_multi_hot_fall_color(self):
        schema = AttributeSchema(
            (("Fall color", ("green", "yellow", "purple", "red", "orange")),))
        vec = encode_attributes(schema,
                                assignment("x", **{"Fall color": {"red", "orange"}}))
        assert vec.tolist() == [0, 0, 0, 1, 1]

    def test_illegal_value(self):
        schema = AttributeSchema((("Leaf color", ("green", "purple")),))
        with pytest.raises(SchemaMismatchError):
            encode_attributes(schema, assignment("x", **{"Leaf color": {"blue"}}))

    def test_unknown_attribute(self):
        schema = AttributeSchema((("Leaf color", ("green", "purple")),))
        with pytest.raises(SchemaMismatchError):
            encode_attributes(schema, assignment("x", **{"Bark": {"smooth"}}))

    def test_missing_attribute(self):
        schema = AttributeSchema((("Leaf color", ("green", "purple")),
                                  ("Texture", ("coarse", "fine"))))
        with pytest.raises(IncompleteAssignmentError):
            encode_attributes(schema, assignment("x", **{"Leaf color": {"green"}}))

    def test_ones_count(self):
        # single-valued choice per attribute: exactly one 1 per attribute
        rng = np.random.default_rng(0)
        for _ in range(20):
            n_attr = int(rng.integers(1, 6))
            attrs = tuple((f"a{i}", tuple(f"v{i}_{j}" for j in range(rng.integers(2, 5))))
                          for i in range(n_attr))
            schema = AttributeSchema(attrs)
            chosen = {name: frozenset([values[int(rng.integers(0, len(values)))]])
                      for name, values in attrs}
            vec = encode_attributes(schema, AttributeAssignment("x", chosen))
            assert vec.sum() == n_attr
            # multi-valued: ones equal total chosen values
            chosen_multi = {name: frozenset(values[: int(rng.integers(1, len(values) + 1))])
                            for name, values in attrs}
            vec = encode_attributes(schema, AttributeAssignment("x", chosen_multi))
            assert vec.sum() == sum(len(v) for v in chosen_multi.values())

    def test_schema_invariants(self):
        with pytest.raises(SchemaMismatchError):
            AttributeSchema(())
        with pytest.raises(SchemaMismatchError):
            AttributeSchema((("a", ("only",)),))
        with pytest.raises(SchemaMismatchError):
            AttributeSchema((("a", ("x", "y")), ("a", ("p", "q"))))


class TestEncodeTaxonomy:
    def test_two_level(self):
        tree = TaxonomyTree.from_edges([("a", "r"), ("b", "r")])
        assert tree.node_order == ("r", "a", "b")
        assert encode_taxonomy(tree, "a").tolist() == [1, 1, 0]

    def test_chain_covers_all(self):
        tree = TaxonomyTree.from_edges([("c", "r"), ("leaf", "c")])
        assert encode_taxonomy(tree, "leaf").tolist() == [1, 1, 1]

    def test_eight_level_taxonomy(self):
        # superdivision > division > class > subclass > order > family > genus > species
        lineage = ["Spermatophyta", "Magnoliophyta", "Magnoliopsida", "Rosidae",
                   "Rosales", "Rosaceae", "Prunus", "Prunus cerasifera"]
        edges = [(lineage[i + 1], lineage[i]) for i in range(len(lineage) - 1)]
        # second genus with two species keeps the tree non-degenerate
        edges += [("Malus", "Rosaceae"), ("Malus fusca", "Malus"),
                  ("Malus pumila", "Malus")]
        tree = TaxonomyTree.from_edges(edges)
        vec = encode_taxonomy(tree, "Prunus cerasifera")
        assert vec.sum() == len(lineage) == 8
        assert encode_taxonomy(tree, "Malus fusca").sum() == 8

    def test_unknown_and_non_leaf(self):
        tree = TaxonomyTree.from_edges([("a", "r"), ("b", "a")])
        with pytest.raises(MissingNodeError):
            encode_taxonomy(tree, "zzz")
        with pytest.raises(NonLeafError):
            encode_taxonomy(tree, "a")

    def test_tree_invariants(self):
        with pytest.raises(MissingNodeError):  # two roots
            TaxonomyTree.from_edges([("a", "r1"), ("b", "r2")])
        with pytest.raises(MissingNodeError):  # two parents
            TaxonomyTree.from_edges([("a", "r"), ("b", "r"), ("b", "a")])
        with pytest.raises(MissingNodeError):  # cycle, unreachable from root
            TaxonomyTree.from_edges([("a", "r"), ("b", "c"), ("c", "b")])

    def test_order_ignores_edge_order_and_repeats(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            tree = random_tree(rng, max_nodes=10)
            edges = [(n, tree.parent(n)) for n in tree.node_order if n != tree.root]
            edges += [edges[i] for i in rng.integers(0, len(edges), size=3)]
            shuffled = TaxonomyTree.from_edges(
                [edges[i] for i in rng.permutation(len(edges))])
            assert shuffled.node_order == tree.node_order
            for leaf in tree.leaves():
                np.testing.assert_array_equal(encode_taxonomy(shuffled, leaf),
                                              encode_taxonomy(tree, leaf))

    def test_parent_following_oracle_small_trees(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            tree = random_tree(rng, max_nodes=6)
            for leaf in tree.leaves():
                expected = path_by_parent_following(tree, leaf)
                np.testing.assert_array_equal(encode_taxonomy(tree, leaf), expected)

    def test_lca_dot_product(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            tree = random_tree(rng, max_nodes=10)
            leaves = tree.leaves()
            def chain(x):
                # root-to-node ancestor list via parent links, not the
                # implementation's precomputed paths
                out = []
                while x is not None:
                    out.append(x)
                    x = tree.parent(x)
                return out[::-1]

            for la in leaves:
                for lb in leaves:
                    # oracle: length of the common root-to-LCA prefix
                    ca, cb = chain(la), chain(lb)
                    common = 0
                    for x, y in zip(ca, cb):
                        if x != y:
                            break
                        common += 1
                    dot = float(encode_taxonomy(tree, la) @ encode_taxonomy(tree, lb))
                    assert dot == common  # (LCA depth) + 1


class TestEncodeWords:
    def test_single_word(self):
        table = WordVectorTable(2, {"oak": (1.0, 2.0)})
        assert encode_words(table, "oak").tolist() == [1.0, 2.0]

    def test_mean_of_two(self):
        table = WordVectorTable(2, {"scarlet": (0.0, 2.0), "oak": (2.0, 0.0)})
        assert encode_words(table, "scarlet oak").tolist() == [1.0, 1.0]

    def test_missing_token_policies(self):
        table = WordVectorTable(2, {"dogwood": (3.0, 4.0)})
        with pytest.raises(OutOfVocabularyError) as exc:
            encode_words(table, "kousa dogwood", policy="strict")
        assert "kousa" in str(exc.value)
        vec = encode_words(table, "kousa dogwood", policy="skip-missing")
        assert vec.tolist() == [3.0, 4.0]
        with pytest.raises(OutOfVocabularyError):
            encode_words(table, "kousa", policy="skip-missing")

    def test_tokenization_splits_on_slash(self):
        assert tokenize_name("Apple/Crabapple") == ["apple", "crabapple"]
        table = WordVectorTable(1, {"apple": (2.0,), "crabapple": (4.0,)})
        assert encode_words(table, "Apple/Crabapple").tolist() == [3.0]

    def test_bad_policy(self):
        table = WordVectorTable(1, {"oak": (1.0,)})
        with pytest.raises(ValueError):
            encode_words(table, "oak", policy="ignore")

    @settings(deadline=None, derandomize=True)
    @given(st.permutations(["red", "oak", "tall", "tree"]))
    def test_permutation_invariance(self, tokens):
        table = WordVectorTable(3, {
            "red": (1.0, 0.0, 0.0), "oak": (0.0, 1.0, 0.0),
            "tall": (0.0, 0.0, 1.0), "tree": (1.0, 1.0, 1.0)})
        base = encode_words(table, "red oak tall tree")
        np.testing.assert_allclose(encode_words(table, " ".join(tokens)), base)

    @settings(deadline=None, derandomize=True)
    @given(st.floats(min_value=-100, max_value=100, allow_nan=False))
    def test_scale_equivariance(self, c):
        vectors = {"scarlet": np.array([0.5, -2.0]), "oak": np.array([1.5, 3.0])}
        scaled = WordVectorTable(2, {t: c * v for t, v in vectors.items()})
        base = encode_words(WordVectorTable(2, vectors), "scarlet oak")
        np.testing.assert_allclose(encode_words(scaled, "scarlet oak"), c * base,
                                   atol=1e-9)


def tiny_sources():
    schema = AttributeSchema((("size", ("small", "large")),))
    assignments = {
        "ClassA": AttributeAssignment("ClassA", {"size": frozenset(["small"])}),
        "ClassB": AttributeAssignment("ClassB", {"size": frozenset(["large"])}),
    }
    tree = TaxonomyTree.from_edges([("ClassA", "r"), ("ClassB", "r")])
    leaf_map = {"ClassA": "ClassA", "ClassB": "ClassB"}
    table = WordVectorTable(2, {"classa": (0.5, 0.5), "classb": (1.0, 0.0)})
    return EmbeddingSources(schema=schema, assignments=assignments,
                            taxonomy=tree, leaf_map=leaf_map, word_table=table)


class TestBuildClassEmbeddings:
    def test_concatenation_layout(self):
        emb = build_class_embeddings(("ClassA",), ("attribute", "taxonomy", "word"),
                                     tiny_sources())
        assert emb.block_layout == (("attribute", 0, 2), ("taxonomy", 2, 3),
                                    ("word", 5, 2))
        assert emb.m == 7
        # attribute [1,0], path over (r, ClassA, ClassB) = [1,1,0], word (.5,.5)
        assert emb.vector("ClassA").tolist() == [1, 0, 1, 1, 0, 0.5, 0.5]

    def test_single_source_identity(self):
        src = tiny_sources()
        emb = build_class_embeddings(("ClassA", "ClassB"), ("word",), src)
        np.testing.assert_array_equal(emb.vector("ClassB"),
                                      encode_words(src.word_table, "classb"))
        assert emb.block_layout == (("word", 0, 2),)

    def test_source_order_is_fixed(self):
        src = tiny_sources()
        a = build_class_embeddings(("ClassA",), ("word", "attribute"), src)
        b = build_class_embeddings(("ClassA",), ("attribute", "word"), src)
        assert a.block_layout == b.block_layout
        assert a.block_layout[0][0] == "attribute"

    def test_seven_subsets_distinct_layouts(self):
        src = tiny_sources()
        subsets = [("attribute",), ("taxonomy",), ("word",),
                   ("attribute", "taxonomy"), ("attribute", "word"),
                   ("taxonomy", "word"), ("attribute", "taxonomy", "word")]
        layouts = {build_class_embeddings(("ClassA",), s, src).block_layout
                   for s in subsets}
        assert len(layouts) == 7

    def test_missing_class_names_class_and_source(self):
        src = tiny_sources()
        del src.leaf_map["ClassB"]
        with pytest.raises(IncompleteCoverageError) as exc:
            build_class_embeddings(("ClassA", "ClassB"), ("taxonomy",), src)
        assert "ClassB" in str(exc.value) and "taxonomy" in str(exc.value)

    def test_word_oov_reported_as_coverage_gap(self):
        src = tiny_sources()
        with pytest.raises(IncompleteCoverageError) as exc:
            build_class_embeddings(("ClassC",), ("word",), src)
        assert "ClassC" in str(exc.value) and "word" in str(exc.value)

    def test_normalize_blocks(self):
        src = tiny_sources()
        emb = build_class_embeddings(("ClassA",), ("taxonomy", "word"), src,
                                     normalize_blocks=True)
        taxo = emb.vector("ClassA")[:3]
        word = emb.vector("ClassA")[3:]
        assert np.linalg.norm(taxo) == pytest.approx(1.0)
        assert np.linalg.norm(word) == pytest.approx(1.0)

    def test_normalize_blocks_leaves_a_zero_row(self):
        src = tiny_sources()
        src.word_table = WordVectorTable(2, {"classa": (0.0, 0.0), "classb": (3.0, 4.0)})
        emb = build_class_embeddings(("ClassA", "ClassB"), ("word",), src,
                                     normalize_blocks=True)
        assert emb.matrix.tolist() == [[0.0, 0.0], [0.6, 0.8]]

    def test_normalize_blocks_rescales_a_norm_that_over_or_underflows(self):
        # The squares of 1e200 overflow and those of 1e-200 underflow, so the
        # plain norms read inf and 0; both rows are finite and nonzero.
        src = tiny_sources()
        src.word_table = WordVectorTable(2, {"classa": (1e200, 1e200),
                                             "classb": (1e-200, -1e-200)})
        emb = build_class_embeddings(("ClassA", "ClassB"), ("word",), src,
                                     normalize_blocks=True)
        half = np.sqrt(0.5)
        np.testing.assert_allclose(emb.matrix, [[half, half], [half, -half]],
                                   rtol=1e-15)

    def test_rejects_bad_sources(self):
        with pytest.raises(ValueError):
            build_class_embeddings(("ClassA",), (), tiny_sources())
        with pytest.raises(ValueError):
            build_class_embeddings(("ClassA",), ("bogus",), tiny_sources())

    @pytest.mark.parametrize("sources,inputs", [
        ((), tiny_sources()), (("bogus",), tiny_sources()),
        (("attribute",), EmbeddingSources()), (("taxonomy",), EmbeddingSources()),
        (("word",), EmbeddingSources())],
        ids=["none", "unknown", "no-attribute-inputs", "no-taxonomy-inputs",
             "no-word-inputs"])
    def test_bad_request_is_config_error(self, sources, inputs):
        with pytest.raises(ZslError) as exc:
            build_class_embeddings(("ClassA",), sources, inputs)
        assert isinstance(exc.value, ConfigError)


ONE_CLASS = ClassEmbeddingSet(("a",), np.zeros((1, 2)), (("word", 0, 2),))


@pytest.mark.parametrize("make,error,message", [
    (lambda: WordVectorTable(2, {"oak": (1.0, 2.0, 3.0)}), SchemaMismatchError,
     "vector for 'oak' has length (3,), expected (2,)"),
    (lambda: ClassEmbeddingSet(("a", "b"), np.zeros((3, 2)), (("word", 0, 2),)),
     IncompleteCoverageError, "embedding matrix rows must match class names"),
    (lambda: ClassEmbeddingSet(("a",), np.zeros((1, 2)), (("word", 0, 3),)),
     IncompleteCoverageError, "block layout lengths must sum to the embedding dimension"),
    (lambda: ONE_CLASS.index("b"), IncompleteCoverageError, "class 'b' has no embedding"),
    (lambda: ClassEmbeddingSet(("a", "b"), [[0.0], [np.nan]], (("word", 0, 1),)),
     ZslError, "class 'b' has a non-finite embedding (nan or inf)"),
    # the mean of two finite vectors overflows to inf, with no RuntimeWarning
    (lambda: build_class_embeddings(("x y",), ("word",), EmbeddingSources(
        word_table=WordVectorTable(1, {"x": (1e308,), "y": (1e308,)}))),
     ZslError, "class 'x y' has a non-finite embedding (nan or inf)"),
    (lambda: ClassEmbeddingSet(("a", "a"), np.zeros((2, 1)), (("word", 0, 1),)),
     IncompleteCoverageError, "class names must be unique")],
    ids=["word-vector-length", "embedding-rows", "embedding-layout", "missing-class",
         "non-finite-embedding", "word-mean-overflows", "repeated-class-name"])
def test_malformed_tables_refused(make, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        make()


def reference_matrix(classes, sources, inputs, normalize_blocks):
    """The per-class algorithm: one block per class and source, each
    normalized on its own, then concatenate and vstack."""
    def block(name, source):
        if source == "attribute":
            vec = encode_attributes(inputs.schema, inputs.assignments[name])
        elif source == "taxonomy":
            vec = encode_taxonomy(inputs.taxonomy, inputs.leaf_map[name])
        else:
            vec = encode_words(inputs.word_table, name, inputs.word_policy)
        if normalize_blocks:
            norm = float(np.linalg.norm(vec))
            if norm > 0.0:
                vec = vec / norm
        return vec

    ordered = [s for s in SOURCE_ORDER if s in sources]
    return np.vstack([np.concatenate([block(name, s) for s in ordered])
                      for name in classes])


@pytest.mark.parametrize("normalize_blocks", [False, True])
@pytest.mark.parametrize("subset", EMBEDDING_SUBSETS)
def test_blocks_match_per_class_reference_bit_for_bit(subset, normalize_blocks):
    dataset, inputs = block_signal_problem(seed=4)
    classes = dataset.splits.all_classes()
    emb = build_class_embeddings(classes, subset, inputs,
                                 normalize_blocks=normalize_blocks)
    expected = reference_matrix(classes, subset, inputs, normalize_blocks)
    assert emb.matrix.tobytes() == expected.tobytes()
