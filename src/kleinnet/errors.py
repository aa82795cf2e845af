"""Exception hierarchy. Every domain error the package raises derives from
KleinnetError so callers (and the CLI exit-code mapping) can catch one type."""


class KleinnetError(Exception):
    """Base class for all kleinnet domain errors."""


class WordError(KleinnetError):
    """Malformed word data: bad letters, bad text syntax, index out of range."""


class GraphError(KleinnetError):
    """Malformed network data or an invalid walk."""


class RepresentationError(KleinnetError):
    """Matrix or representation data violating its contract."""


class NotUnimodularError(RepresentationError):
    """A matrix used as a group element is not unimodular."""


class DegenerationError(KleinnetError):
    """Invalid sweep input or a length vector with no scale."""


class LimitSetError(KleinnetError):
    """Invalid limit-set input, window, or cloud."""


class ElementaryGroupError(LimitSetError):
    """The group spec is elementary; the limit set has at most two points."""


class DessinError(KleinnetError):
    """Malformed subgroup/permutation data."""


class InfiniteIndexError(DessinError):
    """The subgroup graph is incomplete, so the subgroup has infinite index."""


class QnetError(KleinnetError):
    """Invalid state, gate, or circuit data."""
