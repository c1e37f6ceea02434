"""Sparse vector-based NN methods: set-similarity joins over token sets."""

from .base import SparseNNFilter, batch_similarities
from .epsilon_join import EpsilonJoin
from .kernels import QueryTokens, query_tokens
from .knn_join import (
    DefaultKNNJoin,
    KNNJoin,
    default_knn_join,
    distinct_similarity_ranks,
)
from .prefix_joins import AllPairsJoin, PPJoin, TokenOrder
from .scancount import (
    DynamicPostings,
    IncrementalScanCountFilter,
    ScanCountIndex,
)
from .similarity import (
    SIMILARITY_MEASURES,
    cosine,
    cosine_array,
    dice,
    dice_array,
    jaccard,
    jaccard_array,
    set_similarity,
    similarity_function,
    vector_similarity_function,
)
from .topk_join import TopKJoin

__all__ = [
    "SIMILARITY_MEASURES",
    "AllPairsJoin",
    "DefaultKNNJoin",
    "DynamicPostings",
    "EpsilonJoin",
    "IncrementalScanCountFilter",
    "KNNJoin",
    "PPJoin",
    "QueryTokens",
    "ScanCountIndex",
    "TokenOrder",
    "SparseNNFilter",
    "TopKJoin",
    "batch_similarities",
    "cosine",
    "cosine_array",
    "default_knn_join",
    "dice",
    "dice_array",
    "distinct_similarity_ranks",
    "jaccard",
    "jaccard_array",
    "query_tokens",
    "set_similarity",
    "similarity_function",
    "vector_similarity_function",
]
