"""Exception hierarchy shared by all quonstat modules."""


class QuonError(Exception):
    """Base class for all quonstat errors."""


class ContractViolation(QuonError):
    """An argument violates a documented precondition."""


class CapExceeded(ContractViolation):
    """A factorial/exponential enumeration budget was refused."""


class UnsupportedError(QuonError):
    """Input is well-formed but outside the supported range."""


class TheoremViolation(QuonError):
    """An internal exact identity failed.  Must never trigger; it is the
    trip-wire guarding the composite-statistics computation."""


class ParseError(QuonError):
    """Malformed textual input (polynomials, matrices, data files)."""


class LimitsFormatError(ParseError):
    """Aggregated per-line diagnostics from a limits-dataset file."""

    def __init__(self, path, diagnostics):
        self.path = str(path)
        self.diagnostics = list(diagnostics)
        lines = "; ".join(f"line {no}: {msg}" for no, msg in self.diagnostics)
        super().__init__(f"{self.path}: {lines}")


def read_text(path) -> str:
    """Contents of a UTF-8 text file.  A file that cannot be opened or
    decoded is malformed input: ParseError with a one-line reason."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ParseError(f"{path}: cannot read: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text (byte {exc.start})") from None
