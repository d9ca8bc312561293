"""Exception hierarchy for jpdkit.

Every error raised deliberately by this package derives from
:class:`JpdkitError`.  The command line interface maps the three broad
categories onto distinct exit codes, which :data:`EXIT_CODES` defines:

* configuration problems (bad scene files, invalid parameter values,
  inputs the available memory cannot hold) exit 2,
* file format problems (corrupt or truncated stacks or arrays, unreadable
  paths: an ``OSError`` too) exit 3,
* processing problems (shape mismatches, empty filters, degenerate planes,
  stacks too long to accumulate exactly) exit 4.
"""

from __future__ import annotations


class JpdkitError(Exception):
    """Base class for all jpdkit errors."""


class ConfigurationError(JpdkitError):
    """A scene file, override or parameter value is invalid."""


class FileFormatError(JpdkitError):
    """A binary artifact is corrupt, truncated or has the wrong magic."""


class ProcessingError(JpdkitError):
    """Base class for errors raised while transforming data."""


class FrameShapeError(ProcessingError):
    """Frame stacks disagree in shape or have unusable dimensions."""


class InsufficientDataError(ProcessingError):
    """Fewer frames than a computation needs (the estimator: two)."""


class PrecisionError(ProcessingError):
    """Integer frame sums could leave the range float64 holds exactly."""


class StateError(ProcessingError):
    """An operation was called on an object in the wrong state."""


class InterpolationError(ProcessingError):
    """An invalid entry has no valid neighbouring plane to borrow from."""


class EmptyFilterError(ProcessingError):
    """A plane filter removed every active plane."""


class DegeneratePlaneError(ProcessingError):
    """A plane mean is non-finite or non-positive during normalization."""


class DegenerateDensityError(ProcessingError):
    """A scene density is empty, negative or not normalizable."""


# the command line's exit code for an error of each category
EXIT_CODES = {ConfigurationError: 2, FileFormatError: 3, OSError: 3,
              ProcessingError: 4}
