"""Exception and warning types shared across the package."""


class GraphScatError(Exception):
    """Base class for all graphscat errors."""


class NonSymmetricInput(GraphScatError):
    """An undirected edge was supplied with conflicting weights."""


class DuplicateEdge(NonSymmetricInput):
    """The same undirected edge was supplied more than once."""


class SelfLoopError(GraphScatError):
    """Self-loops are not stored in the adjacency; they only arise via the renormalized operator."""


class IsolatedNodeError(GraphScatError):
    """An operator needing inverse degrees was applied to a graph with a degree-zero node."""


class IsolatedNodeWarning(UserWarning):
    """Emitted at build time when some node has weighted degree zero."""


class DimensionMismatch(GraphScatError):
    """Array shapes are inconsistent with the graph or with each other."""


class ScaleOutOfRange(GraphScatError):
    """A wavelet scale is negative."""


class NotSymmetric(GraphScatError):
    """A dense matrix expected to be symmetric is not, beyond tolerance."""


class TooLargeForDense(GraphScatError):
    """The graph exceeds the configured dense-matrix limit."""


class EmptyMask(GraphScatError):
    """A node mask required to be nonempty was empty."""


class NonFiniteLoss(GraphScatError):
    """The training loss evaluated to NaN or infinity."""


class TapeConsumed(GraphScatError):
    """backward() was called twice on the same tape."""


class PartialMap(GraphScatError):
    """A node map is undefined on a node it is required to cover."""


class HypothesisViolated(GraphScatError):
    """A theorem-verification precondition failed; the message names the hypothesis."""


class MissingFile(GraphScatError):
    """A dataset directory lacks a required file."""


class RowCountMismatch(GraphScatError):
    """Dataset files disagree on the number of nodes."""


class BadClassIds(GraphScatError):
    """Labels are not dense integer class ids starting at 0."""


class BadSplitIndex(GraphScatError):
    """splits.json is not an object of train/val/test lists of JSON integers."""


class SplitIndexOutOfRange(GraphScatError):
    """A split index is negative or not smaller than the node count."""


class InfeasibleSpec(GraphScatError):
    """Rejection sampling could not satisfy the generator spec."""


class FieldRangeError(GraphScatError, ValueError):
    """A spec field holds a value outside its range; .fields names the field(s)."""

    def __init__(self, message, *fields):
        self.fields = fields
        super().__init__(message)


class ConfigError(GraphScatError):
    """A config file failed to parse; carries the offending line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
