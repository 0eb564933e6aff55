"""Exception types shared across the package.

Everything raised on purpose derives from SpinNetError so callers can
catch domain failures without also swallowing programming mistakes.
"""

from __future__ import annotations


class SpinNetError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidNetwork(SpinNetError):
    """A network failed structural or admissibility validation."""

    def __init__(self, violations=None, message: str = "invalid network"):
        self.violations = list(violations or [])
        if self.violations:
            detail = "; ".join(str(v) for v in self.violations)
            message = f"{message}: {detail}"
        super().__init__(message)


class InadmissibleTriple(SpinNetError):
    """Three labels cannot meet at a vertex (triangle or parity failure)."""

    def __init__(self, a: int, b: int, c: int):
        self.triple = (a, b, c)
        super().__init__(f"labels {a}, {b}, {c} cannot meet at a vertex")


class NotAFreeEnd(SpinNetError):
    """An operation expected an unattached edge end."""


class InadmissibleJoin(SpinNetError):
    """The requested joint label is not admissible for the two ends."""


class InadmissibleSplit(SpinNetError):
    """A split was requested with a part larger than the whole."""


class HasFreeEnds(SpinNetError):
    """A closed-network operation received a network with free ends."""


class TooLarge(SpinNetError):
    """An exhaustive computation would exceed its configured bound."""


class TooFewEnds(SpinNetError):
    """An operation needs more distinct free ends than were supplied."""


class ExhaustedEnd(SpinNetError):
    """A repeated measurement consumed the probed end down to nothing."""


class OutOfRange(SpinNetError):
    """A numeric argument lies outside its documented domain."""


class NullState(SpinNetError):
    """The network's invariant state vanishes; no outcome distribution exists."""


class UnsupportedNetwork(SpinNetError):
    """A valid network the package cannot yet answer for exactly."""


class ZeroProbability(SpinNetError):
    """A postselection was requested on an outcome of probability zero."""


class BadIndices(SpinNetError):
    """Qubit indices are out of range or not distinct."""


class BudgetExceeded(SpinNetError):
    """A search exhausted its node budget before finishing."""


class InvalidPartition(SpinNetError):
    """System/ancilla qubit counts do not add up to the register size."""


class MalformedArguments(SpinNetError):
    """Command-line arguments parsed but fail a semantic requirement."""
