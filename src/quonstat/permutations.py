"""Permutations of S_n in one-line notation, representation coefficients,
the character tables of S_n, computed by the Murnaghan-Nakayama rule, and
Young's seminormal form of each irrep, with exact rational entries.

A permutation is a tuple of the images of 1..n, e.g. ``(2, 1, 3)`` swaps
the first two places.  Throughout the package permutations act as *place*
permutations: they reorder operator slots, never quantum-number labels,
so they stay meaningful when labels repeat.

>>> inversion_number((3, 2, 1))
3
>>> sign((2, 1))
-1
"""

import bisect
import functools
import math
from fractions import Fraction
from itertools import permutations as _itertools_permutations
from typing import TYPE_CHECKING, Iterator, Mapping, NamedTuple, Sequence

from .errors import ContractViolation, refuse_above_cap
from .qpoly import Coefficient, _exact
from .record import Record

if TYPE_CHECKING:
    import random

Permutation = tuple[int, ...]


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
    count of the contraction diagram of p.  Each image, read from the
    right, is inserted into the sorted images after it, and its place
    there counts the smaller ones."""
    count = 0
    later: list[int] = []
    for x in reversed(p):
        place = bisect.bisect_left(later, x)
        count += place
        later.insert(place, x)
    return count


def sign(p: Permutation) -> int:
    """(-1)^(n - number of cycles), which equals (-1)^inversion_number(p)."""
    return -1 if (len(p) - len(cycle_type(p))) % 2 else 1


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
    refuse_above_cap(n)
    return _itertools_permutations(range(1, n + 1))


class RepCoefficients(Record):
    """Coefficients c(P) selecting a symmetric-group representation
    combination; kept unnormalized, the state normalization absorbs scale.

    Each coefficient is exact and stored by ``qpoly._exact``: an int when it is
    integral, as in the presets, and a Fraction otherwise."""

    __slots__ = ("n", "coeffs", "label")

    def __init__(self, n: int, coeffs: Mapping[Permutation, Coefficient], label: str = ""):
        if n < 1:
            raise ContractViolation("RepCoefficients.n must be >= 1")
        cleaned = {}
        for p, c in coeffs.items():
            p = check_permutation(p)
            if len(p) != n:
                raise ContractViolation(
                    f"permutation {p!r} has wrong arity for n={n}"
                )
            c = _exact(c)
            if c:
                cleaned[p] = c
        if not cleaned:
            raise ContractViolation("RepCoefficients needs at least one nonzero entry")
        self._set(n, cleaned, label)

    def coefficient(self, p: Permutation) -> Coefficient:
        return self.coeffs.get(tuple(p), 0)


def preset_rep(n: int, kind: str) -> RepCoefficients:
    """The two presets used throughout: 'symmetric' (c(P) = 1) and
    'antisymmetric' (c(P) = (-1)^{i(P)}, taken from the cycle count by
    ``sign``), with int coefficients."""
    if kind not in ("symmetric", "antisymmetric"):
        raise ContractViolation(f"unknown preset {kind!r}")
    coeffs = {p: 1 if kind == "symmetric" else sign(p) for p in all_permutations(n)}
    return RepCoefficients(n=n, coeffs=coeffs, label=kind)


def random_rep(n: int, rng: "random.Random") -> RepCoefficients:
    """Random integer coefficient vector over S_n, each coefficient drawn
    from -3..3 (at least one nonzero).  Used to probe representation
    independence of composite statistics."""
    while True:
        coeffs = {}
        for p in all_permutations(n):
            c = rng.randint(-3, 3)
            if c:
                coeffs[p] = c
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
        shape = cycle_type(check_permutation(p))
        ci = next((i for i, (ct, _) in enumerate(self.classes) if ct == shape), None)
        if ci is None:
            raise ContractViolation(f"{p!r} is not an element of S_{self.n}")
        for lab, _, chars in self.irreps:
            if lab == label:
                return chars[ci]
        raise ContractViolation(f"unknown irrep {label!r}")


# the irreps of S_3 and S_4 other than trivial and sign, by their
# textbook names (the ones ``weights`` prints)
_NAMES = {(2, 1): "standard", (3, 1): "standard", (2, 2): "two_dim", (2, 1, 1): "standard_sign"}


def partitions(n: int) -> Iterator[tuple[int, ...]]:
    """Partitions of n in descending (reverse-lex) order, (n) first."""
    return _partitions(n, n)


def dominates(shape: tuple[int, ...], mu: Sequence[int]) -> bool:
    """Dominance order: every partial sum of ``shape`` is at least the
    corresponding partial sum of ``mu``."""
    return all(sum(shape[:k]) >= sum(mu[:k]) for k in range(1, len(mu) + 1))


def irrep_name(shape: tuple[int, ...]) -> str:
    """The name ``character_table`` and ``weights`` give the irrep of a
    partition: (n) is trivial and (1^n) sign; the other irreps of S_3 and
    S_4 are standard, two_dim and standard_sign, and those of larger n are
    named by their parts, e.g. ``3+1+1``."""
    if len(shape) == 1:
        return "trivial"
    if max(shape) == 1:
        return "sign"
    return _NAMES.get(shape, "+".join(map(str, shape)))


def _partitions(n: int, largest: int) -> Iterator[tuple[int, ...]]:
    """Partitions of n with parts <= largest, in descending (reverse-lex)
    order."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first, *rest)


@functools.lru_cache(maxsize=None)
def _mn_character(beta: frozenset, mu: tuple[int, ...]) -> int:
    """Character of the irrep with beta-numbers ``beta`` on cycle type
    ``mu``, by the Murnaghan-Nakayama rule: removing a rim hook of length
    r moves one bead from b to the free place b - r, with the sign
    (-1)^(beads jumped over)."""
    if not mu:
        return 1
    r, rest = mu[0], mu[1:]
    total = 0
    for b in beta:
        if b >= r and b - r not in beta:
            jumped = sum(b - r < c < b for c in beta)
            total += (-1) ** jumped * _mn_character(beta - {b} | {b - r}, rest)
    return total


def character_table(n: int) -> CharacterTable:
    """Character table of S_n, 1 <= n <= DEFAULT_ENUM_CAP (8), by the
    Murnaghan-Nakayama rule.

    Irreps are listed by partition in descending (reverse-lex) order and
    conjugacy classes by cycle type in the reverse order, so the identity
    class comes first and holds the dimensions.  Irreps are named by
    ``irrep_name``.
    """
    if n < 1:
        raise ContractViolation("n must be >= 1")
    refuse_above_cap(n)
    shapes = list(partitions(n))
    classes = []
    for mu in reversed(shapes):
        z = 1
        for part in set(mu):
            z *= part ** mu.count(part) * math.factorial(mu.count(part))
        classes.append((mu, math.factorial(n) // z))
    irreps = []
    for shape in shapes:
        beta = frozenset(part + len(shape) - 1 - i for i, part in enumerate(shape))
        chars = tuple(_mn_character(beta, mu) for mu, _ in classes)
        irreps.append((irrep_name(shape), chars[0], chars))
    return CharacterTable(n=n, classes=tuple(classes), irreps=tuple(irreps))


# One generator s_i of Young's seminormal form: per basis tableau T, the
# diagonal entry, the index of s_i T (T itself when s_i T is not standard)
# and the entry that couples them, each an int or a Fraction.
Generator = tuple[tuple[Coefficient, ...], tuple[int, ...], tuple[Coefficient, ...]]


class SeminormalForm(NamedTuple):
    dimension: int
    generators: tuple[Generator, ...]  # s_1 .. s_{n-1}


@functools.lru_cache(maxsize=None)
def seminormal_form(shape: tuple[int, ...]) -> SeminormalForm:
    """Young's seminormal form of the irrep of ``shape``: the matrices of
    the adjacent transpositions s_1 .. s_{n-1}, one `Generator` each, on
    the basis of standard tableaux (Okounkov and Vershik, Selecta Math. 2
    (1996) 581).

    With c(k) = column - row of the box holding k and r = c(i+1) - c(i),
    rho(s_i) e_T = (1/r) e_T + a e_{s_i T}, where a is 1 when i sits in a
    higher row of T than i+1 and 1 - 1/r^2 otherwise, so the couplings of
    T and s_i T multiply to 1 - 1/r^2 > 0; when s_i T is not standard, i
    and i+1 share a row (r = 1) or a column (r = -1) and a = 0.  Every
    entry is exact, in ``qpoly._exact`` form.  The matrices are a positive
    diagonal conjugate of Young's orthogonal form, whose entries
    sqrt(1 - 1/r^2) this form avoids.
    """
    n = sum(shape)
    if n < 1 or list(shape) != sorted(shape, reverse=True) or min(shape) < 1:
        raise ContractViolation(f"{shape!r} is not a partition")
    refuse_above_cap(n)
    # a standard tableau as the row of each entry 1..n, in lexicographic
    # order, with the content of each entry
    tableaux = []

    def fill(rows: tuple[int, ...], contents: tuple[int, ...], lengths: list[int]) -> None:
        if len(rows) == n:
            tableaux.append((rows, contents))
            return
        for r, part in enumerate(shape):
            if lengths[r] < part and (r == 0 or lengths[r - 1] > lengths[r]):
                lengths[r] += 1
                fill(rows + (r,), contents + (lengths[r] - 1 - r,), lengths)
                lengths[r] -= 1

    fill((), (), [0] * len(shape))
    index = {rows: a for a, (rows, _) in enumerate(tableaux)}
    # 1/r and 1 - 1/r^2 for every content difference 0 < |r| < n, built once
    table = {r: (_exact(Fraction(1, r)), Fraction(r * r - 1, r * r)) for r in range(1 - n, n) if r}
    generators = []
    for i in range(n - 1):
        diagonal, partner, coupling = [], [], []
        for a, (rows, contents) in enumerate(tableaux):
            inverse_r, coupled = table[contents[i + 1] - contents[i]]
            swapped = index.get(rows[:i] + (rows[i + 1], rows[i]) + rows[i + 2 :], a)
            diagonal.append(inverse_r)
            partner.append(swapped)
            higher = rows[i] < rows[i + 1]
            coupling.append(0 if swapped == a else 1 if higher else coupled)
        generators.append((tuple(diagonal), tuple(partner), tuple(coupling)))
    return SeminormalForm(len(tableaux), tuple(generators))
