"""Exception types shared across the package.

An error's family sets the CLI's exit code: a `UsageError` exits 2, a
`DataGap` 3, any other `LowerKError` 1.  A new refusal raises a subclass
of one of the two families.
"""


class LowerKError(Exception):
    """Base class for all errors raised by this package; the CLI exits 1."""


class UsageError(LowerKError):
    """Input refused as given (a group name, flag, prime or spec); the CLI exits 2."""


class DataGap(LowerKError):
    """Data the input needs is missing or ruled out; the CLI exits 3."""


class UnknownSpec(UsageError):
    """A group-name string does not match the supported grammar."""


class OrderLimitExceeded(UsageError):
    """A requested construction or search exceeds the supported order cap."""


class PresentationCollapse(LowerKError):
    """Coset enumeration closed with an unexpected order (internal bug guard)."""


class NotNormal(LowerKError):
    """Quotient requested by a non-normal subgroup."""


class NotInjective(LowerKError):
    """An embedding required to be injective is not."""


class NotHomomorphism(LowerKError):
    """A generator-image assignment does not extend to a homomorphism."""


class LimitExceeded(LowerKError):
    """Coset enumeration did not close within the coset limit.

    A normal outcome for infinite groups; carries the limit that was hit
    and how many cosets were live (not merged away) when it was.
    """

    def __init__(self, limit: int, live: int):
        self.limit = limit
        self.live = live
        super().__init__(f"coset enumeration exceeded limit {limit} ({live} cosets live)")


class UnknownSymbol(LowerKError):
    """A word uses a symbol with no assigned meaning in the target."""


class NotPrime(UsageError):
    """A fusion or singular-class computation was given a non-prime."""


class UnknownSchurData(DataGap):
    """No bundled Schur-index data for the requested group."""


class MissingDegree(UsageError):
    """An assembly spec lacks a required degree."""


class IllFormedMap(DataGap):
    """A matrix does not define a map between the given presented groups."""


class AssemblySpecError(UsageError):
    """An assembly spec file violates the documented schema."""
