"""Exception taxonomy shared by all edgex modules.

Internal invariant errors are the "must never fire" class: they signal a bug
in this library (or a violated theorem), never bad user input, and map to a
dedicated CLI exit code.
"""

from collections.abc import Callable, Mapping


class EdgexError(Exception):
    """Base class for all edgex errors."""


class SelfLoopError(EdgexError):
    """An edge (i, i) was supplied."""


class DuplicateEdgeError(EdgexError):
    """The same unordered pair was supplied twice."""


class VertexIndexError(EdgexError):
    """A vertex index is outside 0..n-1."""


class UnknownEdgeError(EdgexError):
    """An edge does not exist in the host graph."""


class NotBipartiteError(EdgexError):
    """Raised with an odd cycle witness when a bipartition is impossible."""

    def __init__(self, odd_cycle):
        self.odd_cycle = list(odd_cycle)
        super().__init__(f"graph is not bipartite; odd cycle {self.odd_cycle}")


class BadParameterError(EdgexError):
    """A parameter is not an int or is out of range."""


class OddOrderError(EdgexError):
    """A 1-factorization was requested for an odd-order complete graph."""


class DemandViolationError(EdgexError):
    """A color list is shorter than its edge's demand."""


class MissingEdgeError(EdgexError):
    """A coloring does not assign every edge of the graph."""


class InvalidPrecoloringError(EdgexError):
    """A precoloring fails validation; carries the full violation report, or
    the message of a palette mismatch."""

    def __init__(self, report):
        self.report = report
        super().__init__(str(report))


class InapplicableError(EdgexError):
    """The adversarial construction's hypothesis fails for an input graph."""


class BudgetExceededError(EdgexError):
    """An exact search hit its node budget; the outcome is inconclusive."""

    def __init__(self, nodes):
        self.nodes = nodes
        super().__init__(f"search budget exhausted after {nodes} nodes")


class InternalInvariantError(EdgexError):
    """A guaranteed-by-proof invariant failed: an edgex bug, not user error."""


class NoKernelError(InternalInvariantError):
    """An uncolored edge survived a round undominated by the stable matching."""


class ProofInvariantError(InternalInvariantError):
    """A reduction or fiber-assembly invariant failed on validated input."""


def _shown(value: object, text: Callable[[object], str] = repr) -> str:
    """text(value) for a message: its repr, or its str where the message
    formats it plainly. CPython refuses to turn an int of more digits than
    sys.get_int_max_str_digits() into text, so such an int, alone or in a
    tuple or list, is shown by its size instead, as <int of B bits> (with a
    leading - when negative), and any other value whose text fails by its
    type's name."""
    try:
        return text(value)
    except ValueError:
        if isinstance(value, int):
            return f"{'-' * (value < 0)}<int of {value.bit_length()} bits>"
        if isinstance(value, (tuple, list)):
            items = ", ".join(map(_shown, value))
            return f"[{items}]" if isinstance(value, list) else f"({items}{',' * (len(value) == 1)})"
        return f"<{type(value).__name__}>"


def _require_ints(error: type[Exception] = BadParameterError, **params: object) -> None:
    """Raise `error` naming the first parameter that is not an int (a bool is not)."""
    for name, value in params.items():
        if type(value) is not int:
            raise error(f"{name} must be an int, got {_shown(value)}")


def _require_at_least(low: int, **params: object) -> None:
    """_require_ints, then BadParameterError naming the first parameter
    below `low`: the one range check of every integer argument."""
    _require_ints(**params)
    for name, value in params.items():
        if value < low:
            raise BadParameterError(f"{name} must be >= {_shown(low)}, got {_shown(value)}")


def _require_instance(cls: type, **params: object) -> None:
    """BadParameterError naming the first parameter that is not a `cls`."""
    article = "an" if cls.__name__[0] in "AEIOU" else "a"
    for name, value in params.items():
        if not isinstance(value, cls):
            raise BadParameterError(f"{name} must be {article} {cls.__name__}, got {type(value).__name__}")


def _require_mapping(error: type[Exception], **params: object) -> None:
    """Raise `error` naming the first parameter that is not a mapping."""
    for name, value in params.items():
        if type(value) is not dict and not isinstance(value, Mapping):
            raise error(f"{name} must be a mapping, got {type(value).__name__}")
