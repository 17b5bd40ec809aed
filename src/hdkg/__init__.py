"""Hyperdimensional knowledge graph completion with an accelerator cost model.

The library maps low-dimensional entity and relation embeddings into a
high-dimensional space, memorizes each vertex's neighborhood as a single
hypervector, and scores link-prediction queries by distance between a bound
query vector and the candidate memory.  Only the embeddings train; the
projection is a fixed random matrix regenerated from the seed.

Subpackage :mod:`hdkg.sim` models the batch scheduler, on-chip hypervector
cache, and stage-level timing of a streaming hardware implementation.
"""

from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig, build_config, config_hash
from .errors import (CheckpointFormatError, ConfigError, DatasetFormatError,
                     HdkgError, NumericError, ShapeError, StalenessError,
                     TripleParseError, UndefinedSimilarityError)
from .hdc import BaseMatrix, bind, bundle, encode, similarity
from .kg import (KnowledgeGraph, add_reciprocal, dataset_stats, load_cache,
                 load_dataset, save_cache, tail_index)
from .model import (Gradients, ModelState, OptimizerConfig, Optimizer,
                    ScoreSignals, TrainConfig, Trainer, backward,
                    chunked_backward, loss_and_delta, memorize_edge_list,
                    score_batch)
from .ranking import (ScoringView, metrics, rank_queries, reconstruct_neighbors)
from .robustness import (FixedPointSpec, dimension_entropy, drop_dims,
                         quantize_fixed, quantized_view)
from .rng import GENERATOR_TAG, STREAMS, stream

__version__ = "0.1.0"

__all__ = [
    "BaseMatrix", "CheckpointFormatError", "ConfigError", "DatasetFormatError",
    "FixedPointSpec", "GENERATOR_TAG", "Gradients", "HdkgError",
    "KnowledgeGraph", "ModelState", "NumericError", "Optimizer",
    "OptimizerConfig", "RunConfig", "STREAMS", "ScoreSignals", "ScoringView",
    "ShapeError", "StalenessError", "TrainConfig", "Trainer",
    "TripleParseError", "UndefinedSimilarityError", "add_reciprocal",
    "backward", "bind", "build_config", "bundle", "chunked_backward",
    "config_hash", "dataset_stats", "dimension_entropy", "drop_dims", "encode",
    "load_cache", "load_checkpoint", "load_dataset", "loss_and_delta",
    "memorize_edge_list", "metrics", "quantize_fixed", "quantized_view",
    "rank_queries", "reconstruct_neighbors", "save_cache", "save_checkpoint",
    "score_batch", "similarity", "stream", "tail_index", "__version__",
]
