"""Permutations of S_n in one-line notation, representation coefficients,
and bundled character tables for n <= 4.

A permutation is a tuple of the images of 1..n, e.g. ``(2, 1, 3)`` swaps
the first two places.  Throughout the package permutations act as *place*
permutations: they reorder operator slots, never quantum-number labels,
so they stay meaningful when labels repeat.

>>> inversion_number((3, 2, 1))
3
>>> sign((2, 1))
-1
"""

import functools
import math
import random
from fractions import Fraction
from itertools import permutations as _itertools_permutations
from pathlib import Path
from typing import Iterator, Mapping, NamedTuple

from .errors import CapExceeded, ContractViolation, ParseError, UnsupportedError, read_text
from .record import Record

Permutation = tuple[int, ...]

DEFAULT_ENUM_CAP = 8


def check_permutation(p: Permutation) -> Permutation:
    """Validate one-line notation: images are a bijection on 1..n."""
    p = tuple(p)
    if sorted(p) != list(range(1, len(p) + 1)):
        raise ContractViolation(f"{p!r} is not a permutation of 1..{len(p)}")
    return p


def identity(n: int) -> Permutation:
    return tuple(range(1, n + 1))


def inversion_number(p: Permutation) -> int:
    """Number of pairs i<j with p[i] > p[j]; equals the minimum crossing
    count of the contraction diagram of p."""
    count = 0
    n = len(p)
    for i in range(n):
        pi = p[i]
        for j in range(i + 1, n):
            if pi > p[j]:
                count += 1
    return count


def sign(p: Permutation) -> int:
    return -1 if inversion_number(p) % 2 else 1


def compose(p: Permutation, s: Permutation) -> Permutation:
    """(p o s)(i) = p(s(i))."""
    return tuple(p[x - 1] for x in s)


def inverse(p: Permutation) -> Permutation:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x - 1] = i + 1
    return tuple(out)


def cycle_type(p: Permutation) -> tuple[int, ...]:
    """Cycle lengths in descending order."""
    seen = [False] * len(p)
    lengths = []
    for start in range(len(p)):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = p[i] - 1
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def all_permutations(n: int) -> Iterator[Permutation]:
    """All n! permutations of 1..n in lexicographic order.

    Refuses n above DEFAULT_ENUM_CAP (8) so a typo cannot trigger a
    factorial blowup.
    """
    if n < 1:
        raise ContractViolation("n must be >= 1")
    if n > DEFAULT_ENUM_CAP:
        raise CapExceeded(
            f"refusing to enumerate S_{n} ({math.factorial(n)} elements); "
            f"cap is {DEFAULT_ENUM_CAP}"
        )
    return _itertools_permutations(range(1, n + 1))


class RepCoefficients(Record):
    """Coefficients c(P) selecting a symmetric-group representation
    combination; kept unnormalized, the state normalization absorbs scale."""

    __slots__ = ("n", "coeffs", "label")

    def __init__(self, n: int, coeffs: Mapping[Permutation, Fraction], label: str = ""):
        if n < 1:
            raise ContractViolation("RepCoefficients.n must be >= 1")
        cleaned = {}
        for p, c in coeffs.items():
            p = check_permutation(p)
            if len(p) != n:
                raise ContractViolation(
                    f"permutation {p!r} has wrong arity for n={n}"
                )
            c = Fraction(c)
            if c:
                cleaned[p] = c
        if not cleaned:
            raise ContractViolation("RepCoefficients needs at least one nonzero entry")
        self._set(n, cleaned, label)

    def coefficient(self, p: Permutation) -> Fraction:
        return self.coeffs.get(tuple(p), Fraction(0))


def preset_rep(n: int, kind: str) -> RepCoefficients:
    """The two presets used throughout: 'symmetric' (c(P) = 1) and
    'antisymmetric' (c(P) = (-1)^{i(P)})."""
    if kind not in ("symmetric", "antisymmetric"):
        raise ContractViolation(f"unknown preset {kind!r}")
    coeffs = {}
    for p in all_permutations(n):
        coeffs[p] = Fraction(1 if kind == "symmetric" else sign(p))
    return RepCoefficients(n=n, coeffs=coeffs, label=kind)


def random_rep(n: int, rng: random.Random, coeff_bound: int = 3) -> RepCoefficients:
    """Random integer coefficient vector over S_n (at least one nonzero).
    Used to probe representation independence of composite statistics."""
    while True:
        coeffs = {}
        for p in all_permutations(n):
            c = rng.randint(-coeff_bound, coeff_bound)
            if c:
                coeffs[p] = Fraction(c)
        if coeffs:
            return RepCoefficients(n=n, coeffs=coeffs, label="random")


class CharacterTable(NamedTuple):
    n: int
    # (cycle type, class size) per conjugacy class
    classes: tuple[tuple[tuple[int, ...], int], ...]
    # (label, dimension, character value per class) per irrep
    irreps: tuple[tuple[str, int, tuple[int, ...]], ...]

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _, _ in self.irreps)

    def dimension(self, label: str) -> int:
        for lab, dim, _ in self.irreps:
            if lab == label:
                return dim
        raise ContractViolation(f"unknown irrep {label!r}")

    def character(self, label: str, p: Permutation) -> int:
        shape = cycle_type(p)
        ci = next((i for i, (ct, _) in enumerate(self.classes) if ct == shape), None)
        if ci is None:
            raise ContractViolation(f"{p!r} is not an element of S_{self.n}")
        for lab, _, chars in self.irreps:
            if lab == label:
                return chars[ci]
        raise ContractViolation(f"unknown irrep {label!r}")


def _validate_table(table: CharacterTable) -> None:
    n_fact = math.factorial(table.n)
    sizes = [size for _, size in table.classes]
    if sum(sizes) != n_fact:
        raise ParseError(f"S_{table.n}: class sizes sum to {sum(sizes)}, not {n_fact}")
    if sum(dim * dim for _, dim, _ in table.irreps) != n_fact:
        raise ParseError(f"S_{table.n}: sum of squared dimensions is not {n_fact}")
    # row orthogonality: sum_c |c| chi_l(c) chi_m(c) = n! delta_lm
    for li, (_, _, chl) in enumerate(table.irreps):
        for mi, (_, _, chm) in enumerate(table.irreps):
            acc = sum(s * a * b for s, a, b in zip(sizes, chl, chm))
            expect = n_fact if li == mi else 0
            if acc != expect:
                raise ParseError(
                    f"S_{table.n}: row orthogonality fails for irreps {li},{mi}"
                )
    # column orthogonality: sum_l chi_l(c) chi_l(c') = delta_cc' n!/|c|
    for ci in range(len(table.classes)):
        for cj in range(len(table.classes)):
            acc = sum(chars[ci] * chars[cj] for _, _, chars in table.irreps)
            expect = n_fact // sizes[ci] if ci == cj else 0
            if acc != expect:
                raise ParseError(
                    f"S_{table.n}: column orthogonality fails for classes {ci},{cj}"
                )


def _parse_tables(text: str) -> dict[int, CharacterTable]:
    tables: dict[int, CharacterTable] = {}
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    i = 0
    while i < len(lines):
        head = lines[i].split()
        if len(head) != 2 or head[0] != "n":
            raise ParseError(f"expected 'n <N>' header, got {lines[i]!r}")
        n = int(head[1])
        cols = lines[i + 1].split("\t")
        if cols[:2] != ["cycle_type", "size"]:
            raise ParseError(f"bad column header for n={n}")
        irrep_heads = []
        for col in cols[2:]:
            label, _, dim = col.partition(":")
            irrep_heads.append((label, int(dim)))
        classes = []
        chars_by_irrep: list[list[int]] = [[] for _ in irrep_heads]
        i += 2
        while i < len(lines) and lines[i].split()[0] != "n":
            fields = lines[i].split("\t")
            ct = tuple(int(part) for part in fields[0].split("+"))
            classes.append((ct, int(fields[1])))
            for k, value in enumerate(fields[2:]):
                chars_by_irrep[k].append(int(value))
            i += 1
        irreps = tuple(
            (label, dim, tuple(chars))
            for (label, dim), chars in zip(irrep_heads, chars_by_irrep)
        )
        table = CharacterTable(n=n, classes=tuple(classes), irreps=irreps)
        _validate_table(table)
        tables[n] = table
    return tables


@functools.lru_cache(maxsize=1)
def _bundled_tables() -> dict[int, CharacterTable]:
    return _parse_tables(read_text(Path(__file__).parent / "data" / "character_tables.txt"))


def character_table(n: int) -> CharacterTable:
    """Bundled character table of S_n, 2 <= n <= 4, orthogonality-checked
    at load."""
    if not 2 <= n <= 4:
        raise UnsupportedError(f"character tables are bundled for n in 2..4, not n={n}")
    return _bundled_tables()[n]
