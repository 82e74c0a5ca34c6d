"""Exception types shared across the pipeline."""


class LangRepoError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(LangRepoError):
    """Bad arguments, input or configuration; the CLI exits 2."""


class ConfigError(UsageError):
    """Invalid configuration (bad schedule, ratio out of range, unknown kind)."""


def require_min(name: str, value: float, minimum: float) -> None:
    """ConfigError naming the field unless value >= minimum."""
    if value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value!r}")


def require_timing(section: str, timeout_s: float, backoff_s: float) -> None:
    """ConfigError naming the field unless an HTTP client's timeout_s > 0 and backoff_s >= 0."""
    if timeout_s <= 0:
        raise ConfigError(f"{section}.timeout_s must be > 0, got {timeout_s!r}")
    require_min(f"{section}.backoff_s", backoff_s, 0)


class MalformedFile(UsageError):
    """Input file does not match the expected schema or cannot be parsed."""


class EmptyInput(UsageError):
    """A file parsed fine but contains no usable records."""


class VersionMismatch(UsageError):
    """Serialized repository carries an unsupported schema version."""


class UnsupportedFactor(LangRepoError):
    """Rate transform factor outside the supported set {0.5, 1.0, 2.0}."""


class ProviderUnavailable(LangRepoError):
    """Embedding provider kept failing after the configured retries."""


class MissingEmbedding(LangRepoError):
    """Precomputed embedding file has no vector for a requested text."""


class DimensionMismatch(LangRepoError):
    """Embedding vectors disagree with the configured dimension."""


class ShapeMismatch(LangRepoError):
    """Similarity matrix shape does not match the src/dst split."""


class BackendUnavailable(LangRepoError):
    """LLM backend kept failing after the configured retries."""


class ContextOverflow(LangRepoError):
    """Backend reported the prompt exceeds its context window."""


class ScoringUnsupported(LangRepoError):
    """Backend cannot compute continuation log-probabilities."""


class CountMismatch(LangRepoError):
    """Rephrase reply is a well-formed list with the wrong item count."""


class FormatError(LangRepoError):
    """A reply is not in the form its prompt asks for: a plain numbered
    list for a rephrase, a standalone letter for a generative answer."""


class OptionCountError(UsageError):
    """Question has an option count the chosen classifier cannot handle."""


class MissingCaptions(UsageError):
    """Evaluation item references a video with no caption set."""
