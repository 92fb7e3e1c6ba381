"""zslkit: zero-shot classification with an extended bilinear compatibility
model learned by maximum likelihood over composite class embeddings."""

from .embeddings import (
    SOURCE_ORDER,
    AttributeAssignment,
    AttributeSchema,
    ClassEmbedding,
    ClassEmbeddingSet,
    EmbeddingSources,
    TaxonomyNode,
    TaxonomyTree,
    WordVectorTable,
    build_class_embeddings,
    encode_attributes,
    encode_taxonomy,
    encode_words,
    tokenize_name,
)
from .evaluate import (
    EMBEDDING_SUBSETS,
    LINEAR_TERM_GRID,
    SPLIT_NAMES,
    AblationRow,
    ClassSplits,
    EvalResult,
    LinearTermRow,
    SplitDataset,
    ablate_embeddings,
    ablate_linear_terms,
    evaluate_zsl,
    normalized_accuracy,
)
from .model import (
    CompatModel,
    extend_embedding,
    gradient,
    nll,
    predict,
    score,
    score_matrix,
)
from .optim import AdamState, SgdState, adam_step, adam_update, sgd_step
from .train import (
    EvalRecord,
    TrainConfig,
    TrainReport,
    init_model,
    oversample_indices,
    train,
)

__version__ = "0.1.0"
