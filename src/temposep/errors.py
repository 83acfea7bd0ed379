"""Exception hierarchy for temposep.

Every error carries enough context in its message to identify the offending
vertex, label, triple, or file location.  ContractError is the family of
violated problem or backend contracts (a time-edge between the terminals, an
ordering or decomposition that does not fit the instance); the CLI maps it to
exit code 3 and every other TempoSepError to exit code 2.
"""

from __future__ import annotations


class TempoSepError(Exception):
    """Base class for all temposep errors."""


class ContractError(TempoSepError):
    """Input that is well-formed but violates a problem or backend contract."""


class SelfLoop(TempoSepError):
    """A time-edge with identical endpoints."""


class VertexOutOfRange(TempoSepError):
    """A vertex index outside [0, n)."""


class LabelOutOfRange(TempoSepError):
    """A time label outside [1, tau]."""


class TerminalInSeparator(ContractError):
    """A candidate separator containing s or z."""


class TerminalEdgePresent(ContractError):
    """A time-edge between the two terminals, which instances forbid."""


class TerminalsAdjacent(ContractError):
    """Static vertex cut requested between adjacent terminals."""


class NotAPath(TempoSepError):
    """A vertex sequence that is not a path in the underlying graph."""


class NotAPermutation(TempoSepError):
    """An ordering that is not a permutation of the vertex set."""


class IncompatibleOrdering(ContractError):
    """A vertex ordering not compatible with every layer."""


class InvalidDecomposition(TempoSepError):
    """A tree decomposition violating one of its defining properties."""


class DecompositionMismatch(ContractError):
    """A tree decomposition that does not fit the instance it is used on."""


class LayersNotEqual(ContractError):
    """A transformation requiring all layers to be equal."""


class DegreeTooSmall(ContractError):
    """A transformation requiring underlying minimum degree >= 2."""


class InvalidSpec(TempoSepError):
    """Invalid generator parameters."""


class OracleScaleError(TempoSepError):
    """Exhaustive enumeration requested beyond the configured size guard."""


class FormatError(TempoSepError):
    """Malformed input file; message names the file and line."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f"{path}:"
            if line is not None:
                where += f"{line}:"
            where += " "
        super().__init__(f"{where}{message}")
