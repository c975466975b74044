"""Context-utilisation measurement for retrieval-augmented claim verification.

The package measures how much a language model's verdict on a claim moves
toward (or away from) the stance of provided evidence, and profiles which
properties of the evidence correlate with that movement.

Layout:

- ``model``: claims, evidence, stances, probabilities, JSON Lines IO.
- ``ingest``: corpus loading, verdict mapping, triplet recasting.
- ``retrieval``: search, chunking, claim-repeat filtering, reranking,
  evidence assembly.
- ``characteristics``: per-sample context-property detectors and corpus
  profiles.
- ``lm``: prompt templates, verdict-probability extraction, perplexity,
  record/replay.
- ``metrics``: rescaled probability deltas, desirability, ACU, conflict
  detection.
- ``analysis``: correlations, agreement, stratified aggregates, shift
  tables, balanced MAE.
- ``cli``: the ``contextmeter`` command.
"""

from ._version import __version__
from .errors import ContextMeterError

__all__ = ["__version__", "ContextMeterError"]
