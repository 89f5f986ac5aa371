"""Exception types shared across the package."""


class LowerKError(Exception):
    """Base class for all errors raised by this package."""


class UnknownSpec(LowerKError):
    """A group-name string does not match the supported grammar."""


class OrderLimitExceeded(LowerKError):
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


class NotPrime(LowerKError):
    """A fusion or singular-class computation was given a non-prime."""


class UnknownSchurData(LowerKError):
    """No bundled Schur-index data for the requested group."""


class MissingDegree(LowerKError):
    """An assembly spec lacks a required degree."""


class IllFormedMap(LowerKError):
    """A matrix does not define a map between the given presented groups."""


class EdgeInversion(LowerKError):
    """A group element maps an oriented edge to its own reversal."""


class NotAnAction(LowerKError):
    """Generator permutations do not extend to a group action."""


class AssemblySpecError(LowerKError):
    """An assembly spec file violates the documented schema."""
