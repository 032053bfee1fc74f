"""Retrieval-based speculative decoding guided by last-logit speculation
of the next-next token, with exact reference models and a benchmark
harness."""

__version__ = "0.1.0"

from .drafting import DraftConfig, build_draft, prune_budget, speculate_next_next
from .engine import DecodeConfig, DecodeResult, decode
from .models import (
    MarkovTableModel,
    Model,
    ModelState,
    ScriptedModel,
    VocabSpec,
    sample,
)
from .ngram_index import NGramIndex
from .tree import DraftTree, prepare_attention_inputs
from .verify import acceptance_prob, residual, verify_greedy, verify_stochastic

__all__ = [
    "__version__",
    "DraftConfig",
    "build_draft",
    "prune_budget",
    "speculate_next_next",
    "DecodeConfig",
    "DecodeResult",
    "decode",
    "MarkovTableModel",
    "Model",
    "ModelState",
    "ScriptedModel",
    "VocabSpec",
    "sample",
    "NGramIndex",
    "DraftTree",
    "prepare_attention_inputs",
    "acceptance_prob",
    "residual",
    "verify_greedy",
    "verify_stochastic",
]
