"""Exception taxonomy shared across the package.

Analysis operations raise AnalysisError subclasses with descriptive names so
pipeline code can collect them per stage.  File ingestion raises DatasetError
subclasses that locate the fault: by line number in a text file, by record
in a JSON file.
"""

from __future__ import annotations

__all__ = [
    "AnalysisError",
    "InsufficientDataError",
    "DegenerateDataError",
    "NoDTWindowError",
    "NoFNWindowError",
    "NoRootError",
    "NoBreakdownError",
    "NoKneeError",
    "DatasetError",
    "DatasetFormatError",
    "DatasetSchemaError",
    "DatasetUnitError",
    "UnderflowWarning",
]


class AnalysisError(Exception):
    """Base class for extraction and fitting failures."""


class InsufficientDataError(AnalysisError):
    """Too few points, cells, or distinct geometries for the operation."""


class DegenerateDataError(AnalysisError):
    """Input is formally valid but carries no usable signal."""


class NoDTWindowError(AnalysisError):
    """No low-voltage ohmic run found in the I-V curve."""


class NoFNWindowError(AnalysisError):
    """No high-voltage field-emission window found in the I-V curve."""


class NoRootError(AnalysisError):
    """Measured conductance is outside the range the tunneling model can produce."""


class NoBreakdownError(AnalysisError):
    """Ramp trace ends without a detectable current jump."""


class NoKneeError(AnalysisError):
    """Failure distribution shows no two-population transition."""


class DatasetError(Exception):
    """Base class for dataset file problems.

    line is the 1-based line number in a text file, else None; a JSON fault
    names its record in the message instead (e.g. "ramp record 3: ...").
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        self.bare_message = message
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DatasetFormatError(DatasetError):
    """Malformed container (bad header, unparseable line)."""


class DatasetSchemaError(DatasetError):
    """Well-formed container with missing or invalid fields."""


class DatasetUnitError(DatasetError):
    """Units are undeclared or not the canonical ones."""


class UnderflowWarning(UserWarning):
    """A model evaluation underflowed to exact zero by design."""
