"""Shared exception types.

Plain precondition violations (bad arguments, impossible shapes) raise
ValueError at the call site.  The classes here exist for failures a caller
may want to catch and handle specifically: malformed input files, estimation
breakdowns, and stage failures inside the pipeline driver.
"""

from __future__ import annotations


class ChaincastError(Exception):
    """Base class for package-specific failures."""


class DataFormatError(ChaincastError):
    """A CSV file or config file could not be parsed.

    Messages name the offending file and, where possible, the line number.
    """


class FitError(ChaincastError):
    """An estimation routine failed to produce a usable model."""


class RankDeficiencyError(FitError):
    """A regression design matrix is not full rank.

    ``columns`` lists the names of the columns that were found dependent;
    they are linear combinations of columns kept before them.
    """

    def __init__(self, message: str, columns: tuple[str, ...] = ()):
        super().__init__(message)
        self.columns = tuple(columns)


class StageError(ChaincastError):
    """A pipeline stage failed; ``stage`` names it, ``__cause__`` has why."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage '{stage}': {message}")
        self.stage = stage
