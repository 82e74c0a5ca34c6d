"""Exception types shared across the pipeline."""


class LangRepoError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(LangRepoError):
    """Invalid configuration (bad schedule, ratio out of range, unknown kind)."""


def require_int(name: str, value, minimum: int) -> None:
    """ConfigError naming the field unless value is an int >= minimum; a bool
    (an int subclass) and a float (int() rounds it down) are refused."""
    if type(value) is not int or value < minimum:
        raise ConfigError(f"{name} must be an integer >= {minimum}, got {value!r}")


class MalformedFile(LangRepoError):
    """Input file does not match the expected schema or cannot be parsed."""


class EmptyInput(LangRepoError):
    """A file parsed fine but contains no usable records."""


class VersionMismatch(LangRepoError):
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
    """Rephrase reply is not a plain numbered list."""


class OptionCountError(LangRepoError):
    """Question has an option count the chosen classifier cannot handle."""


class MissingCaptions(LangRepoError):
    """Evaluation item references a video with no caption set."""
