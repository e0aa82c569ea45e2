"""Exception hierarchy shared across the toolkit."""


class CqedError(Exception):
    """Base class for toolkit errors."""


class ConfigError(CqedError):
    """Invalid run configuration (schema violation, bad field value)."""


class PeakWindowError(ConfigError, ValueError):
    """Correlation window too short for the requested pulsed peak areas."""


class DurationError(ConfigError, ValueError):
    """Run duration shorter than one pulse period, or holding more pulses
    or excitations than a run samples."""


class MalformedFileError(ConfigError, ValueError):
    """Input file that does not parse as its format."""


class ConvergenceError(CqedError):
    """A numerical routine failed to converge to its stated tolerance."""


class CutoffError(ConvergenceError):
    """Fock-space cutoff too small for the requested evolution."""


class WeakCouplingError(CqedError):
    """Operation requires strong coupling but the parameters are weakly coupled."""


class DegenerateBranchesError(CqedError):
    """Branches cannot be told apart (zero detuning in strong coupling)."""


class InsufficientStatisticsError(CqedError):
    """Not enough counts/data for the requested estimate."""


class NoSignalError(InsufficientStatisticsError):
    """Input contains no usable signal (flat spectrum, empty stream)."""


class AnticrossingError(InsufficientStatisticsError, ValueError):
    """Fitted series that gives no anticrossing: too few usable fits, or
    the resonance not inside the series."""


class MiscalibrationError(CqedError):
    """Background subtraction inconsistent with the data beyond tolerance."""
