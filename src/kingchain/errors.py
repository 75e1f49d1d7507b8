"""Exception hierarchy for tournament and cycle-chain operations."""


class TournamentError(Exception):
    """Base class for all domain errors raised by this package."""


class SelfLoopError(TournamentError):
    """An edge joins a vertex to itself."""


class DuplicatePairError(TournamentError):
    """The same unordered pair was oriented more than once."""


class MissingPairError(TournamentError):
    """Some unordered pair was never oriented."""


class VertexOutOfRangeError(TournamentError):
    """A vertex index is outside [0, n)."""


class OrderTwoImpossibleError(TournamentError):
    """No strong tournament on exactly two vertices exists."""


class ExhaustedTriesError(TournamentError):
    """Rejection sampling gave up before finding a strong tournament."""


class OrderTooLargeError(TournamentError):
    """Requested order exceeds the exhaustive enumeration ceiling."""


class OrderTooSmallError(TournamentError):
    """Requested order is below the minimum the operation supports."""


class OrderOutOfRangeError(TournamentError):
    """Requested order is outside the range the harness supports."""


class EmptySubsetError(TournamentError):
    """A vertex subset argument is empty."""


class NotStrongError(TournamentError):
    """The tournament is not strongly connected."""


class NotStrongSubsetError(TournamentError):
    """The induced subtournament is not strongly connected."""


class OrderTwoSubsetError(NotStrongSubsetError):
    """A two-vertex subset can never induce a strong subtournament."""


class NotAKingError(TournamentError):
    """The designated vertex is not a king."""


class TargetNotInSubsetError(TournamentError):
    """The requested path endpoint is not a member of the subset."""


class KingNotInSubsetError(TournamentError):
    """The king must belong to the subset it is checked against."""


class CycleAlreadySpanningError(TournamentError):
    """The cycle already visits every vertex; nothing is left to insert."""


class MalformedCertificateError(TournamentError):
    """A certificate's lengths or indices are structurally inconsistent."""


class InternalContradictionError(TournamentError):
    """A step that is impossible under the preconditions happened anyway.

    Raised as a tripwire: seeing this means a caller violated a precondition
    or the implementation is wrong, never that the input was merely unlucky.
    """
