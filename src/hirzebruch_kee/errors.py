"""Exception types shared by every module in the package."""


class KeeError(Exception):
    """Base class for all package errors."""


class DomainError(KeeError, ValueError):
    """An input lies outside the documented mathematical domain."""


class RangeError(KeeError, ValueError):
    """A query falls outside what a tau <-> s map covers.

    The map covers the open interval (1, alpha2) in tau and every finite s;
    a tau at either end, or an infinite or NaN s, raises this.
    """


class QuadratureError(KeeError, RuntimeError):
    """A volume integral failed its check: a non-finite value, two step
    sizes that disagree, or an integrand that does not decay."""


class PositivityError(KeeError, RuntimeError):
    """A metric evaluation produced a non positive-definite form, or a
    form with an entry outside the double range.

    Positivity holds identically on the open surface, so hitting this
    signals a bug, a deliberately inconsistent profile, or a point so deep
    in a tail that phi or an entry of the form leaves the double range.
    phi is formed from the map's stretched coordinate q and is refused once
    it falls below the normal doubles, where it keeps too few digits to be
    trusted: at (n, beta1) = (1, 1.0) and z = 0, for s below about -709.
    The metric and the finite-difference Ricci form are both refused when
    an entry overflows in the w chart (at (1, 0.01), z = 0, w = 1e-170,
    g_ww = phi/|w|^2 is inf); only the metric is also tested for
    positivity.
    """


class UsageError(KeeError, ValueError):
    """Command-line arguments could not be interpreted."""
