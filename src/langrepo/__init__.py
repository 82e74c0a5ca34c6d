"""langrepo: an iterative, multi-scale, all-textual repository over
captioned video chunks, with similarity-based pruning and zero-shot
multiple-choice question answering.

The names below are the ones README's "Library use" section documents;
everything else is reached through its submodule, e.g.
langrepo.evalharness.evaluate.
"""

# The submodules the package loads, each resolvable as langrepo.<module>;
# config, cli and transport load on first import of their own.
from . import embed, errors, evalharness, grouping, ingest, llm, prompts, repository, vqa  # noqa: F401
from .embed import Embedder, EmbeddingProviderConfig
from .ingest import load_captions
from .llm import LlmClient, MockBackend
from .repository import BuildConfig, build, load, read_from_repo, save
from .vqa import QaItem, answer_loglik

__version__ = "0.1.0"

__all__ = [
    "BuildConfig",
    "Embedder",
    "EmbeddingProviderConfig",
    "LlmClient",
    "MockBackend",
    "QaItem",
    "answer_loglik",
    "build",
    "load",
    "load_captions",
    "read_from_repo",
    "save",
]
