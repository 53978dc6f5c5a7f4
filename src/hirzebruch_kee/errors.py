"""Exception types shared by every module in the package."""


class KeeError(Exception):
    """Base class for all package errors."""


class DomainError(KeeError, ValueError):
    """An input lies outside the documented mathematical domain."""


class RangeError(KeeError, ValueError):
    """A query falls outside what a tau <-> s map covers.

    That is the open interval (1, alpha2) in tau, where s is finite, and the
    arclength hull |s| <= s_hull + 2 the map was built for.
    """


class QuadratureError(KeeError, RuntimeError):
    """A numerical integration failed to meet its target tolerance."""


class PositivityError(KeeError, RuntimeError):
    """A metric evaluation produced a non positive-definite form.

    Positivity holds identically on the open surface, so hitting this
    signals a bug (or a deliberately inconsistent profile), never a
    legitimate input condition.
    """


class UsageError(KeeError, ValueError):
    """Command-line arguments could not be interpreted."""
