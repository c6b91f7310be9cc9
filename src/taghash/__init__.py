"""Streaming weakly-supervised hashing for tagged image features.

Chunks of feature vectors with noisy user tags arrive in rounds; the engine
learns binary codes and a hash function online via alternating closed-form
solves plus discrete bit-wise code descent, and serves Hamming-space
retrieval with a MAP evaluation harness.
"""
from .codes import CodeBlock, hamming_distances, unpack_codes
from .engine import StreamTrainer
from .evaluation import (EvalJudgments, average_precision,
                         mean_average_precision, map_per_round,
                         precision_at_k)
from .kernel import AnchorSet, build_anchor_set, rbf_map
from .model import AccumStats, Hyperparams, ModelState, RoundData
from .optimizer import run_round
from .retrieval import hamming_rank, hash_queries, snapshot_index
from .semantics import EmbeddingTable, SemanticChunk, pool_semantics

__version__ = "0.1.0"

__all__ = [
    "AccumStats", "AnchorSet", "CodeBlock", "EmbeddingTable",
    "EvalJudgments", "Hyperparams", "ModelState", "RoundData",
    "SemanticChunk", "StreamTrainer", "average_precision",
    "build_anchor_set", "hamming_distances", "hamming_rank", "hash_queries",
    "map_per_round", "mean_average_precision", "pool_semantics",
    "precision_at_k", "rbf_map", "run_round", "snapshot_index",
    "unpack_codes",
]
