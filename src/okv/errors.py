"""Exception hierarchy shared across the library and the CLI.

Each class carries, or inherits, its CLI exit code and the label of its stderr
line (`error: <label>: <message>`); the CLI reads both off the class it catches.
The resource caps' defaults and their one rule, `check_cap`, live here too.
"""

DEFAULT_MONOMIAL_CAP = 2_000_000
DEFAULT_MATRIX_CAP = 500_000


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


def check_cap(used, cap, what: str, *args) -> None:
    """The one cap rule, checked before the work `used` measures: ResourceCapError
    "<what % args>: <used> > <cap>" if `used` (a count, or a (rows, cols) shape of
    rows*cols cells shown as RxC) exceeds `cap`, which None leaves unbounded."""
    shape = isinstance(used, tuple)
    if cap is not None and (used[0] * used[1] if shape else used) > cap:
        shown = "%dx%d" % used if shape else used
        raise ResourceCapError(f"{what % args}: {shown} > {cap}")


class InvariantError(OkvError):
    """An internal consistency check failed; a bug, so OkvError's exit code."""

    label = "internal-invariant"
