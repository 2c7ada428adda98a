"""Exception hierarchy shared across the library and the CLI.

Each class carries, or inherits, its CLI exit code and the label of its stderr
line (`error: <label>: <message>`); the CLI reads both off the class it catches.
"""


class OkvError(Exception):
    """Base class for all library errors; an unclassified one is a bug."""

    exit_code = 3
    label = "internal"


class ValidationError(OkvError, ValueError):
    """Bad input: malformed syntax, violated precondition, schema mismatch."""

    exit_code = 1
    label = "validation"


class ResourceCapError(OkvError):
    """A configured resource cap was exceeded; the result was not computed.
    Never raised silently: callers get a complete exact answer or this error."""

    exit_code = 2
    label = "resource-cap"


class InvariantError(OkvError):
    """An internal consistency check failed; a bug, so OkvError's exit code."""

    label = "internal-invariant"
