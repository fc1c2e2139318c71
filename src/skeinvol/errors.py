"""Exceptions shared across the package."""


class SkeinError(Exception):
    """Base class for all errors raised by skeinvol."""


class Inadmissible(SkeinError):
    """A color triple violates the admissibility conditions.

    Raised where a value is undefined on an inadmissible triple: the
    weights theta_weight and vertex_weight, the exact oracle's thetas,
    and the fan transfer loop of scans' wheel sums for an inadmissible
    rim triple.  Nothing in the package catches it: the sums over
    colorings only form admissible triples, and the command line
    reports it, like every SkeinError, as invalid input (exit 2).
    """


class BudgetExceeded(SkeinError):
    """A sum over colorings (or an exact-arithmetic job) is larger than the
    configured work budget."""


class NotTrivalent(SkeinError):
    """A vertex was required to have degree 3 and does not."""


class NotPlanar(SkeinError):
    """The rotation system fails the Euler check V - E + F = 2."""


class NotTriangle(SkeinError):
    """A face was required to have exactly 3 sides and does not."""


class LowValence(SkeinError):
    """Desingularization was asked to process a vertex of valence < 3."""


class IllConditioned(SkeinError):
    """A least-squares design matrix is (numerically) degenerate."""
