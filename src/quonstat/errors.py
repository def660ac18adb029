"""Exception hierarchy shared by all quonstat modules, the caps that
refuse exponential work (one per kind of work, all kept here) and
``read_rows``, the one reader of input files: rep, matrix and limits
files are all UTF-8 lines of tab-separated fields."""

import codecs

DEFAULT_ENUM_CAP = 8  # work over S_k: enumerations, tables, PSD blocks, oracle, overlap
Q_PERMANENT_CAP = 16  # 2^16 subset states; also the longest scalar_product word
GRAM_CAP = 720  # words a Gram matrix may have: the permutation basis of 6 labels


class QuonError(Exception):
    """Base class for all quonstat errors."""


class ContractViolation(QuonError):
    """An argument violates a documented precondition."""


class CapExceeded(ContractViolation):
    """Work past DEFAULT_ENUM_CAP, Q_PERMANENT_CAP or GRAM_CAP was refused
    before any of it was done."""


def refuse_above_cap(k: int) -> None:
    """Refuse any work over S_k, k! elements, above DEFAULT_ENUM_CAP."""
    if k > DEFAULT_ENUM_CAP:
        raise CapExceeded(
            f"refusing work over S_{k} ({k}! elements); cap is {DEFAULT_ENUM_CAP}"
        )


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
    fields) of each line once stripped, skipping blank lines and lines
    starting with '#'.  One leading byte-order mark is dropped.  A file
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
    lines = enumerate(map(str.strip, text.splitlines()), start=1)
    return [(no, line.split("\t")) for no, line in lines if line and not line.startswith("#")]
