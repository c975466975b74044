"""Exception types shared across the package.

Every error raised by this package derives from ContextMeterError so callers
can catch at a single root.
"""

from __future__ import annotations


class ContextMeterError(Exception):
    """Root of the package exception hierarchy."""


# -- data model ---------------------------------------------------------------

class InvariantViolation(ContextMeterError):
    """A record violates a type invariant; names the failing field."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class ParseError(ContextMeterError):
    """A line of an input file failed to parse; carries the line number."""

    def __init__(self, path: str, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


# -- ingest / recast ----------------------------------------------------------

class MalformedTriplet(ContextMeterError):
    """A triplet record is missing fields or degenerate."""


# -- retrieval ----------------------------------------------------------------

class SearchBackendError(ContextMeterError):
    """Search backend failure after exhausting retries."""


class RerankBackendError(ContextMeterError):
    """Rerank backend failure after exhausting retries."""


# -- characteristics ----------------------------------------------------------

class DegenerateText(ContextMeterError):
    """Text is empty or has no countable words."""


class DegenerateClaim(ContextMeterError):
    """The claim's word set is empty; overlap is undefined."""


class ProviderError(ContextMeterError):
    """A model/tagger provider failed."""


class UnparseableJudgement(ContextMeterError):
    """Provider reply is neither Yes nor No after trimming."""


class MalformedUrl(ContextMeterError):
    """URL cannot be reduced to a host for domain lookup."""


# -- lm interface -------------------------------------------------------------

class MissingSlotValue(ContextMeterError):
    """A prompt slot has no value to substitute."""


class ReplayMiss(ContextMeterError):
    """Replay store has no record for the requested prompt/provider."""


class ZeroMass(ContextMeterError):
    """All surface labels received probability 0; cannot renormalize."""


class StoreCorruption(ContextMeterError):
    """Replay store failed integrity checks on load."""


# -- analysis -----------------------------------------------------------------

class DegenerateInput(ContextMeterError):
    """A statistic is undefined for the given input (e.g. constant sequence)."""


class NoPairableValues(ContextMeterError):
    """No unit carries two or more labels; agreement is undefined."""


class LengthMismatch(ContextMeterError):
    """Parallel sequences have different lengths."""


class EmptyInput(ContextMeterError):
    """An operation received no data."""


# -- cli ----------------------------------------------------------------------

class ConfigError(ContextMeterError):
    """Run configuration is missing, malformed, or inconsistent."""
