"""Propagation of statistics-violation limits to constituents.

A composite of n constituents with deviation epsilon = 1-|q| from exact
Bose/Fermi statistics constrains each constituent to a deviation smaller
by a factor of n^2 at first order, or exactly through
1 - epsilon_composite = (1 - epsilon_constituent)^(n^2).  Defining
epsilon as 1-|q| lets one propagation law cover near-Bose and near-Fermi
records alike.
"""

import math
import os
import sys
import warnings
from collections.abc import Iterable, Sequence

from .errors import ContractViolation, LimitsFormatError, read_rows
from .record import Record

PROXIMITIES = ("near_bose", "near_fermi")

FIRST_ORDER_HONEST_RANGE = 0.1

BUNDLED_DATASET = "statistics_limits.tsv"


def _check_epsilon(epsilon: float) -> None:
    """Refuse an epsilon outside (0, 2], where the parameter 1 - epsilon
    lies in [-1, 1); nan and +-inf are refused too.  Records and both
    propagation rules share this one range."""
    if not 0 < epsilon <= 2:
        raise ContractViolation("epsilon must satisfy 0 < epsilon <= 2")


class BoundRecord(Record):
    """One experimental limit: species, what it is composed of, and the
    measured deviation from exact statistics."""

    __slots__ = (
        "species", "composite_of", "n_constituents", "epsilon",
        "proximity", "source", "model_dependent",
    )

    def __init__(
        self,
        species: str,
        composite_of: str,
        n_constituents: int,
        epsilon: float,
        proximity: str,
        source: str,
        model_dependent: bool = False,
    ):
        if n_constituents < 1:
            raise ContractViolation("n_constituents must be >= 1")
        _check_epsilon(epsilon)
        if proximity not in PROXIMITIES:
            raise ContractViolation(f"proximity must be one of {PROXIMITIES}")
        self._set(
            species, composite_of, n_constituents, epsilon, proximity, source, model_dependent
        )


def _squared(n: int) -> int:
    """n^2 for a constituent count n >= 1 whose square a float can hold."""
    if n < 1:
        raise ContractViolation("n must be >= 1")
    n_sq = n * n
    if n_sq > sys.float_info.max:
        raise ContractViolation("n is too large: n^2 does not fit a float")
    return n_sq


def _nonzero(epsilon: float, epsilon_composite: float, n_sq: int) -> float:
    """``epsilon`` propagated from a positive ``epsilon_composite``, refused
    if it underflowed to zero: zero would read as exact statistics."""
    if epsilon == 0.0:
        raise ContractViolation(
            f"epsilon {epsilon_composite:g} over n^2 = {n_sq:.3e} underflows a float to zero"
        )
    return epsilon


def propagate_first_order(epsilon_composite: float, n: int) -> float:
    """Constituent deviation at first order: epsilon / n^2.  Like a
    ``BoundRecord``, epsilon must lie in (0, 2]; a result that underflows to
    zero is refused."""
    n_sq = _squared(n)
    _check_epsilon(epsilon_composite)
    if epsilon_composite > FIRST_ORDER_HONEST_RANGE:
        warnings.warn(
            f"epsilon={epsilon_composite} is large; first-order propagation is "
            "only honest for small deviations",
            stacklevel=2,
        )
    return _nonzero(epsilon_composite / n_sq, epsilon_composite, n_sq)


def propagate_exact(epsilon_composite: float, n: int) -> float:
    """Exact inversion of 1 - eps_composite = (1 - eps_constituent)^(n^2).

    Agrees with the first-order rule to O(eps^2).  Like a ``BoundRecord``,
    eps must lie in (0, 2].  For eps > 1 the composite parameter is
    negative, which has a real constituent root only when n is odd; so
    eps = 2, a composite parameter of -1, gives 2 for odd n and is
    refused for even n.  A result that underflows to zero is refused.
    """
    n_sq = _squared(n)
    _check_epsilon(epsilon_composite)
    if epsilon_composite == 1:
        return 1.0
    if epsilon_composite < 1:
        # 1 - (1-eps)^(1/n^2), formulated to keep full relative precision
        return _nonzero(
            -math.expm1(math.log1p(-epsilon_composite) / n_sq), epsilon_composite, n_sq
        )
    if n % 2 == 0:
        raise ContractViolation(
            "epsilon > 1 means a negative composite parameter, which has no "
            "real constituent root for even n"
        )
    return 1.0 + (epsilon_composite - 1.0) ** (1.0 / n_sq)


def _parse_line(parts: list[str]) -> BoundRecord:
    if len(parts) not in (6, 7):
        raise ValueError(f"expected 6 or 7 tab-separated columns, got {len(parts)}")
    species, composite_of, n_raw, eps_raw, proximity, source = parts[:6]
    if not species.strip():
        raise ValueError("species is empty")
    comment = parts[6] if len(parts) == 7 else ""
    try:
        n = int(n_raw)
    except ValueError:
        raise ValueError(f"n_constituents {n_raw!r} is not an integer") from None
    try:
        epsilon = float(eps_raw)
    except ValueError:
        raise ValueError(f"epsilon {eps_raw!r} is not a number") from None
    try:
        return BoundRecord(
            species=species.strip(),
            composite_of=composite_of.strip(),
            n_constituents=n,
            epsilon=epsilon,
            proximity=proximity.strip(),
            source=source.strip(),
            model_dependent="model_dependent" in comment,
        )
    except ContractViolation as exc:
        raise ValueError(str(exc)) from None


def ingest_limits(path) -> list[BoundRecord]:
    """Read a limits file of tab-separated rows (see ``errors.read_rows``).
    Every malformed or invariant-violating line is reported with its
    number."""
    records = []
    diagnostics = []
    for lineno, parts in read_rows(path):
        try:
            records.append(_parse_line(parts))
        except ValueError as exc:
            diagnostics.append((lineno, str(exc)))
    if diagnostics:
        raise LimitsFormatError(path, diagnostics)
    return records


def bundled_limits_path() -> str:
    """Location of the dataset shipped with the package."""
    return os.path.join(os.path.dirname(__file__), "data", BUNDLED_DATASET)


def load_bundled_limits() -> list[BoundRecord]:
    return ingest_limits(bundled_limits_path())


class ChainRow(Record):
    """One level of a constituent chain: the species, its n (constituents
    per composite of the level above), the parity of n ("even" or "odd"),
    the first-order and exact epsilon, and the proximity."""

    __slots__ = ("species", "n", "parity", "epsilon_first_order", "epsilon_exact", "proximity")


def derive_chain(
    records: Iterable[BoundRecord], chain: Sequence[tuple[str, int]]
) -> list[ChainRow]:
    """Walk a constituent chain starting from a measured species.

    ``chain`` lists (species, n) pairs: the first entry names the species
    whose limit seeds the walk (n must be 1); each later entry says the
    previous species is a bound state of n of this one.  Model-dependent
    records never seed a chain.  One row per entry: the root row carries
    the record's epsilon in both columns and the record's proximity; each
    later row divides the first-order epsilon by n^2, inverts
    (1 - epsilon)^(n^2) exactly and is reported near_fermi, as derived
    constituents of matter are.  Every row gives the parity of its n.
    """
    if not chain:
        raise ContractViolation("chain must not be empty")
    root_species, root_n = chain[0]
    if root_n != 1:
        raise ContractViolation("the first chain entry must carry n=1")
    record = next(
        (
            r
            for r in records
            if r.species == root_species and not r.model_dependent
        ),
        None,
    )
    if record is None:
        raise ContractViolation(
            f"species {root_species!r} does not resolve to a usable record"
        )
    first_order = exact = record.epsilon
    proximity = record.proximity
    rows = []
    for species, n in chain:
        if rows:
            if n < 1:
                raise ContractViolation(f"chain entry {species!r} has n < 1")
            first_order = propagate_first_order(first_order, n)
            exact = propagate_exact(exact, n)
            proximity = "near_fermi"
        rows.append(ChainRow(
            species=species, n=n, parity="even" if n % 2 == 0 else "odd",
            epsilon_first_order=first_order, epsilon_exact=exact, proximity=proximity,
        ))
    return rows
