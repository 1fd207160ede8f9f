"""Domain error types with stable machine-readable codes.

The CLI maps every ``MpcError`` to a structured ``{"error": {"code", "message"}}``
payload and exit status 1, so each subclass pins the ``code`` string it reports.
``InternalError`` marks a failed internal invariant rather than bad input and
gets exit status 3.
"""


class MpcError(ValueError):
    """Base class for domain errors."""

    code = "error"


class DimensionError(MpcError):
    code = "dimension-mismatch"


class DistributionError(MpcError):
    code = "invalid-distribution"


class RowSumError(MpcError):
    code = "row-sum"


class EntryRangeError(MpcError):
    code = "entry-range"

    def __init__(self, message, row=None, column=None):
        super().__init__(message)
        self.row = row
        self.column = column


class WeightIdentityError(MpcError):
    code = "weight-identity"

    def __init__(self, message, column):
        super().__init__(message)
        self.column = column


class BarycenterIdentityError(MpcError):
    code = "barycenter-identity"

    def __init__(self, message, column):
        super().__init__(message)
        self.column = column


class NullVectorError(MpcError):
    code = "not-a-null-vector"


class NoSplitError(MpcError):
    code = "no-split"


class RankError(MpcError):
    code = "rank-deficient"


class DomainError(MpcError):
    code = "domain"


class CdfError(MpcError):
    code = "not-a-cdf"


class CandidateError(MpcError):
    code = "bad-candidates"


class InternalError(MpcError):
    code = "internal"
