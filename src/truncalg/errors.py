"""Error taxonomy shared by all modules.

Exit-code mapping used by the CLI:
  0 completed, 2 hypothesis gate unmet, 3 precision-limited,
  4 internal inconsistency (a checked theorem failed to hold), or any
    other exception, reported as an internal error.
Input/schema problems exit 1 with a JSON-pointer location, nearly all while
the input is parsed; `cw.skeletal_verification` refuses a disconnected complex.
"""


class TruncalgError(Exception):
    exit_code = 1


class SchemaError(TruncalgError):
    """Malformed or non-canonical input; carries a JSON-pointer location (a
    ring's own refusals point into its JSON, `/p`, below the ring's pointer)."""

    exit_code = 1

    def __init__(self, message, location=""):
        super().__init__(f"{location}: {message}" if location else message)
        self.message, self.location = message, location


class UnsupportedRingError(TruncalgError):
    exit_code = 2


class HypothesisUnmetError(TruncalgError):
    """An operation's mathematical hypothesis is not established."""

    exit_code = 2


class NotWellDefinedError(TruncalgError):
    """A claimed module map does not respect the source relations."""

    exit_code = 2


class NotElementaryError(TruncalgError):
    """A module required to be a sum of cyclic p-power pieces is not."""

    exit_code = 2


class PrecisionError(TruncalgError):
    """The answer would depend on data beyond the working truncation."""

    exit_code = 3


class InternalInconsistencyError(TruncalgError):
    """A verified theorem came out false: a bug or precision artifact, loud."""

    exit_code = 4
