"""Exception types shared across the package."""


class SobranchError(Exception):
    """Base class for all package-specific errors."""


class DomainError(SobranchError, ValueError):
    """An argument lies outside an operation's domain (bad rank, family,
    dominance failure, or an unsupported generator configuration)."""


class PreconditionError(SobranchError):
    """A method's mathematical applicability condition fails.

    Callers offering several computation routes may catch this and fall back
    to a route without the precondition; it is not a usage error.
    """


class InterlacingError(PreconditionError):
    """mu does not simply interlace lam.  Raised as InterlacingError(lam, mu,
    family); the message is formatted only when read, since the routes that
    fall back on it never read it."""

    def __str__(self) -> str:
        lam, mu, family = self.args
        return f"mu={mu} does not simply interlace lam={lam} (family {family})"


class CoincidencePatternError(PreconditionError):
    """The highest-weight coincidence pattern required by the partial
    (prescribed-end) decompositions does not hold.  Raised as
    CoincidencePatternError(lam, mu, family), formatted when read."""

    def __str__(self) -> str:
        lam, mu, family = self.args
        return f"lam={lam}, mu={mu} do not match the family {family} ending pattern"


class MalformedSeriesError(SobranchError):
    """A generating series violates its structural contract; indicates a bug
    upstream of the extraction step."""


class InternalInconsistencyError(SobranchError):
    """An exact internal cross-check failed; always indicates a bug, never a
    data condition."""
