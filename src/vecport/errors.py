"""Exception types shared across the pipeline."""


class VecportError(Exception):
    """Base class for all vecport errors."""


class CorpusError(VecportError):
    """A corpus directory or case manifest is malformed."""


class ParseError(VecportError):
    """The C front end rejected the input."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)


class AnalysisError(VecportError):
    """A liveness solution is not a fixpoint of the dataflow equations."""


class NoCodeError(VecportError):
    """No code block could be extracted from an LLM response."""


class LlmError(VecportError):
    """A remote LLM call failed after retries."""


class ReplayExhaustedError(LlmError):
    """The replay script ran out of responses."""


class ConfigurationError(VecportError):
    """A required external tool or setting is missing; distinct from a failed task."""


class PerfError(VecportError):
    """Performance measurement produced no usable cost."""


class UsageError(VecportError):
    """Bad command-line or config-file input."""
