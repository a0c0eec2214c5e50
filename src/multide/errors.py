"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Invalid bounds, parameters, or mismatched dimensions."""


class EvaluationError(RuntimeError):
    """An objective evaluation produced a non-finite value.

    Attributes:
        point: coordinates that produced the offending value.
        value: the offending objective value.
        values: all values of the evaluated batch, when it raised the error.
        partial_record: when raised from inside an engine, the run record
            accumulated up to the failure (``None`` otherwise).
    """

    def __init__(self, message, point=None, value=None, values=None):
        super().__init__(message)
        self.point = point
        self.value = value
        self.values = values
        self.partial_record = None
