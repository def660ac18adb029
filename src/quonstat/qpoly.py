"""Exact univariate polynomials in the deformation parameter q.

Coefficients are exact rationals in one canonical form, decided here by
``_exact``: an int where integral, a `fractions.Fraction` otherwise.  So
every contraction amplitude in the package is an exact object and equality
of amplitudes is structural equality.  The canonical form stores ascending
powers with the trailing (highest-power) coefficient nonzero; the zero
polynomial is the empty coefficient tuple.

The heavy computations hold each polynomial as one integer with a
fixed-width signed field per power of q (Kronecker substitution), and
this module owns that codec: ``_clear_denominators`` scales rationals to
integers over one common denominator, ``_field_width`` sizes a field for
a magnitude bound, ``_pack`` encodes and ``_unpack`` decodes back to the
canonical form.  So a shift by q^j is one ``<<``, a merge one ``+`` and
a product of polynomials one integer product.  The contraction engine
and the subset DP of ``wick``, the dense norm of ``fock`` and
``QPolynomial`` multiplication are its clients.

>>> p = QPolynomial([1, 1])          # 1 + q
>>> str(p * p)
'1 + 2*q + q^2'
>>> p.evaluate(Fraction(1, 2))
Fraction(3, 2)
"""

import math
import re
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import ContractViolation, ParseError
from .record import Record

Coefficient = Union[int, Fraction]

# compiled by ``re``'s own cache on the first ``parse``, not at import
_TERM_PATTERN = r"^(?:(?P<coef>\d+(?:/\d+)?)\*?)?(?P<var>q(?:\^(?P<exp>\d+))?)?$"


def _exact(value) -> Coefficient:
    """``value`` as an exact coefficient in canonical form: an int when it
    is integral, a Fraction otherwise.  The two compare and hash alike, so
    either form works as a key or in an equality test.  An infinity or a
    NaN has no exact value and is refused."""
    if type(value) is int:
        return value
    try:
        value = Fraction(value)
    except (OverflowError, ValueError):
        raise ContractViolation(f"coefficient {value} is not a finite rational") from None
    return value.numerator if value.denominator == 1 else value


def _trim(coeffs: Iterable) -> tuple:
    coeffs = list(map(_exact, coeffs))
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def _clear_denominators(values: Iterable) -> tuple[list[int], int]:
    """Integers proportional to ``values`` and the common denominator
    they were multiplied by; integers are returned as they are."""
    values = list(values)
    if all(type(v) is int for v in values):
        return values, 1
    values = list(map(_exact, values))
    scale = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


def _field_width(bound: int) -> int:
    """Bits of a signed field that holds every integer of magnitude <= bound."""
    return bound.bit_length() + 1


def _pack(ints: Sequence[int], width: int) -> int:
    """Encode integers as one: field k of ``width`` signed bits holds the
    k-th integer, each of magnitude below 2^(width - 1)."""
    value = 0
    for c in reversed(ints):
        value = (value << width) + c
    return value


def _unpack(value: int, width: int, denominator: int) -> "QPolynomial":
    """Decode a packed polynomial: field k of ``width`` signed bits holds
    the coefficient of q^k times ``denominator``.  At ``denominator`` 1
    the fields are the coefficients, as ints; else each is divided and
    put in the canonical form of ``_exact``."""
    mask = (1 << width) - 1
    half = 1 << (width - 1)
    coeffs = []
    while value:
        field = value & mask
        if field >= half:
            field -= 1 << width
        coeffs.append(field)
        value = (value - field) >> width
    if denominator != 1:
        coeffs = [_exact(Fraction(c, denominator)) for c in coeffs]
    return QPolynomial._from_trimmed(tuple(coeffs))


class QPolynomial(Record):
    """Polynomial in q with exact rational coefficients, index = power."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Iterable[Coefficient] = ()):
        self._set(_trim(coefficients))

    @classmethod
    def _from_trimmed(cls, coeffs: tuple) -> "QPolynomial":
        # trusted constructor: caller guarantees the canonical form of ``_trim``
        p = cls.__new__(cls)
        object.__setattr__(p, "coefficients", coeffs)
        return p

    @classmethod
    def zero(cls) -> "QPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "QPolynomial":
        return cls((1,))

    @classmethod
    def q(cls) -> "QPolynomial":
        return cls((0, 1))

    @classmethod
    def monomial(cls, power: int) -> "QPolynomial":
        return cls.one().shift(power)

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coefficients) - 1

    def is_zero(self) -> bool:
        return not self.coefficients

    def coefficient(self, power: int) -> Coefficient:
        if 0 <= power < len(self.coefficients):
            return self.coefficients[power]
        return 0

    def shift(self, k: int) -> "QPolynomial":
        """q^k times this polynomial: k zero coefficients put in front."""
        if k < 0:
            raise ContractViolation("monomial power must be >= 0")
        if not self.coefficients:
            return self
        return QPolynomial._from_trimmed((0,) * k + self.coefficients)

    def __bool__(self) -> bool:
        return bool(self.coefficients)

    def __eq__(self, other) -> bool:
        if isinstance(other, QPolynomial):
            return self.coefficients == other.coefficients
        if isinstance(other, (int, Fraction)):
            return self == QPolynomial((other,))
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coefficients)

    def __add__(self, other) -> "QPolynomial":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPolynomial._from_trimmed(_trim(out))

    __radd__ = __add__

    def __neg__(self) -> "QPolynomial":
        return QPolynomial._from_trimmed(tuple(-c for c in self.coefficients))

    def __sub__(self, other) -> "QPolynomial":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "QPolynomial":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "QPolynomial":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if not self.coefficients or not other.coefficients:
            return QPolynomial.zero()
        a, a_scale = _clear_denominators(self.coefficients)
        b, b_scale = _clear_denominators(other.coefficients)
        # a coefficient of the product sums at most min(len) products
        width = _field_width(min(len(a), len(b)) * max(map(abs, a)) * max(map(abs, b)))
        return _unpack(_pack(a, width) * _pack(b, width), width, a_scale * b_scale)

    __rmul__ = __mul__

    def evaluate(self, q_value):
        """Horner evaluation.  Exact (Fraction) for int/Fraction input,
        float for float input."""
        if isinstance(q_value, float):
            # float(c) is what float + Fraction computes, without the
            # Fraction operator dispatch
            acc = 0.0
            for c in reversed(self.coefficients):
                acc = acc * q_value + float(c)
            return acc
        q_value = Fraction(q_value)
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * q_value + c
        return acc

    def substitute_power(self, m: int) -> "QPolynomial":
        """Substitute q -> q^m: the coefficient of q^k moves to q^(m*k)."""
        if m < 1:
            raise ContractViolation("substitution power must be >= 1")
        if m == 1 or not self.coefficients:
            return self
        out = [0] * ((len(self.coefficients) - 1) * m + 1)
        for k, c in enumerate(self.coefficients):
            out[m * k] = c
        return QPolynomial._from_trimmed(tuple(out))

    def __str__(self) -> str:
        if not self.coefficients:
            return "0"
        parts = []
        for power, c in enumerate(self.coefficients):
            if not c:
                continue
            parts.append((power, c))
        pieces = []
        for i, (power, c) in enumerate(parts):
            if i == 0:
                sign = "-" if c < 0 else ""
            else:
                sign = " - " if c < 0 else " + "
            pieces.append(sign + _term_str(power, abs(c)))
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"QPolynomial({str(self)!r})"


def _coerce(value) -> "QPolynomial | None":
    if isinstance(value, QPolynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return QPolynomial((value,))
    return None


def _term_str(power: int, c: Coefficient) -> str:
    try:
        coef = str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
    except ValueError:
        # the interpreter refuses int-to-decimal conversions past its digit limit
        raise ContractViolation(
            f"the coefficient of q^{power} has too many digits to print"
        ) from None
    if power == 0:
        return coef
    var = "q" if power == 1 else f"q^{power}"
    return var if c == 1 else f"{coef}*{var}"


def parse(text: str) -> QPolynomial:
    """Parse the rendering produced by ``str``: ascending powers, terms
    joined by ' + ' / ' - ', rationals as 'p/q', e.g. '1 + 2*q + q^3'."""
    s = text.strip()
    if not s:
        raise ParseError("empty polynomial text")
    # split into signed terms at top level
    chunks = re.split(r"(?=[+-])", s.replace(" ", ""))
    coeffs: dict[int, Coefficient] = {}
    for chunk in chunks:
        if not chunk:
            continue
        sign = 1
        body = chunk
        if body[0] in "+-":
            sign = -1 if body[0] == "-" else 1
            body = body[1:]
        m = re.match(_TERM_PATTERN, body)
        if not m or (m.group("coef") is None and m.group("var") is None):
            raise ParseError(f"bad polynomial term {chunk!r} in {text!r}")
        try:
            coef = _exact(m.group("coef")) if m.group("coef") else 1
        except ZeroDivisionError:
            raise ParseError(f"zero denominator in term {chunk!r} of {text!r}") from None
        if m.group("var") is None:
            power = 0
        elif m.group("exp") is None:
            power = 1
        else:
            power = int(m.group("exp"))
        coeffs[power] = coeffs.get(power, 0) + sign * coef
    return QPolynomial(coeffs.get(k, 0) for k in range(max(coeffs) + 1))
