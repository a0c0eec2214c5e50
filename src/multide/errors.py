"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Invalid bounds, parameters, or mismatched dimensions."""


class EvaluationError(RuntimeError):
    """An objective evaluation produced a non-finite value.

    Attributes:
        point: coordinates that produced the offending value.
        value: the offending objective value.
        partial_record: when raised from inside an engine, the run record
            after the last complete generation (``None`` otherwise).
    """

    def __init__(self, message, point=None, value=None):
        super().__init__(message)
        self.point = point
        self.value = value
        self.partial_record = None
