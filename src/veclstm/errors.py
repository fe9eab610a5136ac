"""Exception hierarchy shared across the toolkit."""


class VecLstmError(Exception):
    """Base class for all toolkit errors."""


# --- parsing / ingest ---

class MalformedLine(VecLstmError):
    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class TruncatedHeader(VecLstmError):
    """Input file ends before the fixed-size header is complete."""


class InvertedSpan(VecLstmError):
    """A label span whose end precedes its start."""


class EmptyDataset(VecLstmError):
    """Dataset assembly produced no rows."""


class UndecodableName(VecLstmError):
    """A file or directory name that is not UTF-8."""


class ConfigError(VecLstmError, ValueError):
    """A config value out of range, or a config file that is not valid."""


# --- numeric / shape ---

class EmptyInput(VecLstmError):
    """An operation that requires at least one element got none."""


class LengthMismatch(VecLstmError):
    """Paired sequences have different lengths."""


class ShapeMismatch(VecLstmError):
    """Array shapes are inconsistent with the declared layer sizes."""


class NonFiniteError(VecLstmError):
    """A NaN or Inf appeared where only finite values are allowed."""


class InputTooShort(VecLstmError):
    """Convolution input shorter than the kernel."""


class StaleCacheError(VecLstmError):
    """A forward cache was reused after its backward pass consumed it."""


class OutOfRange(VecLstmError):
    """A label code or index outside its valid range."""


# --- training ---

class TooFewSamples(VecLstmError):
    """Not enough samples to split."""


class EmptyClassSet(VecLstmError):
    """Oversampling called with no samples at all."""


class DegenerateClass(VecLstmError):
    """ROC requested for a class with no positives or no negatives."""


# --- storage ---

class StorageError(VecLstmError):
    """Generic persistence failure."""


class ConnectionFailed(StorageError):
    """Backend location unreachable or unopenable."""


class SchemaMismatch(StorageError):
    """Existing store has an incompatible schema or format version."""


class ValidationError(StorageError):
    """Record rejected before write (e.g. wrong vector length)."""
