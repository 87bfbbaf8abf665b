"""Exception types shared across the package."""


class McrankError(Exception):
    """Base class for all mcrank errors."""


class DimensionError(McrankError, ValueError):
    """Criteria vectors disagree in length, or an index is out of range."""


class DomainError(McrankError, ValueError):
    """A parameter is outside its permitted domain (e.g. relaxation factor)."""


class TrainingError(McrankError, ValueError):
    """Predictor training cannot proceed (e.g. empty training data)."""


class SplitError(McrankError, ValueError):
    """Cross-validation split cannot be formed."""


class EvaluationError(McrankError, ValueError):
    """A metric was asked about an item missing from the ground truth."""


class ParseError(McrankError, ValueError):
    """A data or config file is malformed; message names the location."""


class DatasetValidationError(McrankError, ValueError):
    """A loaded dataset violates its invariants.

    Carries the full list of violations so callers can report all
    problems at once; a loader's ``message`` locates them in its file.
    """

    def __init__(self, violations, message: str | None = None):
        self.violations = list(violations)
        super().__init__(message or "dataset failed validation: "
                         + "; ".join(str(v) for v in self.violations))
