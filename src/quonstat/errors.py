"""Exception hierarchy shared by all quonstat modules, the caps that
refuse exponential work (one per kind of work, all kept here),
``refuse_above_cap``, the one place that refuses work past a cap, and
``read_rows``, the one reader of input files: rep, matrix and limits
files are all UTF-8 lines of tab-separated fields."""

import codecs

DEFAULT_ENUM_CAP = 8  # work over S_k: enumerations, tables, PSD blocks, oracle, overlap
Q_PERMANENT_CAP = 16  # 2^16 subset states; also the longest scalar_product and gram word
GRAM_CAP = 720  # words a Gram matrix may have: the permutation basis of 6 labels


class QuonError(Exception):
    """Base class for all quonstat errors."""


class ContractViolation(QuonError):
    """An argument violates a documented precondition."""


class CapExceeded(ContractViolation):
    """Work past DEFAULT_ENUM_CAP, Q_PERMANENT_CAP or GRAM_CAP was refused
    before any of it was done; raised only by ``refuse_above_cap``."""


def refuse_above_cap(
    size: int, cap: int = DEFAULT_ENUM_CAP, what: str = "work over S_{0} ({0}! elements)"
) -> None:
    """Refuse work of ``size`` past ``cap`` with CapExceeded
    ``refusing <what>; cap is <cap>``, where ``what`` names the work with
    ``{0}`` for its size.  By default the work is over S_size and the cap
    is DEFAULT_ENUM_CAP."""
    if size > cap:
        try:
            what = what.format(size)
        except ValueError:
            # the interpreter refuses int-to-decimal conversions past its digit
            # limit; only k of S_k is a typed count rather than a length
            what = "work over S_k for a k with too many digits to print"
        raise CapExceeded(f"refusing {what}; cap is {cap}")


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


def read_rows(path) -> list[tuple[int, list[str]]]:
    """The data lines of a UTF-8 text file: (line number, tab-separated
    fields) of each line less its trailing whitespace, skipping lines
    that are blank or start with '#' once stripped.  A leading tab gives
    an empty first field.  One leading byte-order mark is dropped.  A file
    that cannot be opened or decoded is malformed input: ParseError with a
    one-line reason, whose byte offset counts from the start of the file."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise ParseError(f"{path}: cannot read: {exc.strerror or exc}") from None
    start = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
    try:
        text = data[start:].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text (byte {start + exc.start})") from None
    lines = enumerate(map(str.rstrip, text.splitlines()), start=1)
    return [(no, line.split("\t")) for no, line in lines if line.lstrip()[:1] not in ("", "#")]
