"""Shared exception types, and the type checks of the JSON readers.

Everything derives from SpwebsError so callers can catch broadly; the CLI
maps SpwebsError to exit code 2 and IdentityViolated to exit code 1.
"""


class SpwebsError(Exception):
    pass


class DimensionMismatch(SpwebsError):
    pass


class NotSymplectic(SpwebsError):
    pass


class NotUnitary(SpwebsError):
    pass


class NonCommuting(SpwebsError):
    pass


class NotSkew(SpwebsError):
    pass


class UnknownVariable(SpwebsError):
    pass


class NonGenericPosition(SpwebsError):
    pass


class DegenerateGeometry(SpwebsError):
    pass


class NonPlanarEmbedding(SpwebsError):
    pass


class NotSimpleLoop(SpwebsError):
    pass


class HorizontalStep(SpwebsError):
    pass


class WrongRank(SpwebsError):
    pass


class MalformedWeb(SpwebsError):
    pass


class NotBipartite(SpwebsError):
    pass


class InvalidCut(SpwebsError):
    pass


class IdentityViolated(SpwebsError):
    pass


class OutOfRange(SpwebsError, Warning):
    """Doubles as a warning category: reported, caller decides."""


class BadFaceLength(SpwebsError, Warning):
    pass


class DivByZero(SpwebsError):
    pass


class IllConditioned(SpwebsError):
    pass


class MixedRing(SpwebsError):
    """Float and Poly entries in one computation: no ring holds both."""


class SelfCheckFailed(SpwebsError):
    """A computed result failed the check that it satisfies by
    construction: a defect in the library, not in the input."""


class MalformedInput(SpwebsError):
    """A JSON input has the wrong shape or a value of the wrong type."""


def json_check(value, kind, what):
    """A parsed JSON value checked to be an instance of kind.  No input
    field takes a bool, so true and false are rejected as ints."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise MalformedInput("%s has the wrong type: %s"
                             % (what, type(value).__name__))
    return value


def json_field(obj, key, kind=object):
    """obj[key] of a parsed JSON object, checked with json_check."""
    if not isinstance(obj, dict) or key not in obj:
        raise MalformedInput("expected an object with key %r" % key)
    return json_check(obj[key], kind, key)
