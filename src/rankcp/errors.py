"""Exception types shared across the package.

A usage error is an :class:`InvalidInput`, and the CLI exits with code 2 on
one; :class:`InvalidDelta` and :class:`RankOutOfRange` are kinds of it.
"""


class RankCPError(Exception):
    """Base class for all library errors.

    ``at`` holds the flat positions of the refused element in the array the
    rule was given, or two positions for a repeat (earlier first); it is
    empty where no one element is refused.  A reader of a file maps them to
    the lines of its rows.
    """

    def __init__(self, *args, at: tuple[int, ...] = ()):
        super().__init__(*args)
        self.at = tuple(map(int, at))


class InvalidInput(RankCPError, ValueError):
    """An argument violates a documented contract (usage/type error)."""


class InvalidDelta(InvalidInput):
    """Confidence parameter outside its admissible interval."""


class InvalidData(RankCPError, ValueError):
    """A data file is malformed or internally inconsistent."""


class TiesDetected(RankCPError, ValueError):
    """Exact duplicate values where a strict total order is required."""


class RankOutOfRange(InvalidInput, IndexError):
    """A rank or an index lies outside [1, size]: a usage error, so an :class:`InvalidInput`.

    The one range rule, ``ranks.as_ranks(..., top=size)``, raises it.
    """


class InsufficientSample(RankCPError, ValueError):
    """Monte-Carlo sample too small for the requested confidence."""


class SampleTooLarge(RankCPError, MemoryError):
    """A Monte-Carlo sample would not fit in this machine's memory."""


class DimensionMismatch(RankCPError, ValueError):
    """Array sizes or identifiers do not line up."""


class InfeasibleLevel(RankCPError, ValueError):
    """(alpha, delta, n) admit no calibration index k <= n."""


class MissingTruth(RankCPError, ValueError):
    """Operation requires ground-truth values that were not provided."""


class EmptyPredictionSet(RankCPError, ValueError):
    """A prediction set would be empty; integer intervals cannot be."""
