"""Exception types shared across the package."""


class NullDecompError(Exception):
    """Base class for every package-specific error."""


class ParseError(NullDecompError):
    """Base class for input-format errors (edge lists and graph6)."""


class MalformedLine(ParseError):
    """An input line that is neither a header, a comment, nor a valid edge."""


class SelfLoop(ParseError):
    """An edge joining a vertex to itself."""


class DuplicateEdge(ParseError):
    """The same unordered edge given twice."""


class BadChecksumChar(ParseError):
    """A graph6 byte outside the printable range 63..126."""


class TruncatedPayload(ParseError):
    """A graph6 string shorter than its declared vertex count requires."""


class EmptyGraph(NullDecompError):
    """An operation that needs at least one vertex got none."""


class UnknownVertex(NullDecompError):
    """A vertex id outside the graph."""


class NotUnicyclic(NullDecompError):
    """Expected a connected graph with exactly one cycle."""


class NotAForest(NullDecompError):
    """Expected an acyclic graph."""


class TooLarge(NullDecompError):
    """Instance exceeds the brute-force size guard (see NULLDECOMP_MAX_N)."""


class BadSizeGuard(NullDecompError, ValueError):
    """NULLDECOMP_MAX_N is set to something other than an integer."""
