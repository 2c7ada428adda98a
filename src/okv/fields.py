"""Exact coefficient fields: arbitrary-precision rationals and prime fields.

Field elements are plain values supporting +, -, *, /, ==, bool and hash:
`fractions.Fraction` over the rationals, `FpElement` over a prime field.
A field object turns integers and integer pairs into elements.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ValidationError


class RationalField:
    """The rationals; elements are Fraction values in lowest terms."""

    def __call__(self, numerator, denominator=1):
        if isinstance(numerator, Fraction) and denominator == 1:
            return numerator
        return Fraction(numerator, denominator)

    @property
    def one(self) -> Fraction:
        return Fraction(1)

    def __repr__(self) -> str:
        return "QQ"

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalField)

    def __hash__(self) -> int:
        return hash("okv.QQ")


QQ = RationalField()


class FpElement:
    """A residue modulo a prime, reduced to the range [0, p)."""

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        object.__setattr__(self, "value", value % p)
        object.__setattr__(self, "p", p)

    def __setattr__(self, *args):
        raise AttributeError("FpElement is immutable")

    def _check(self, other: "FpElement") -> None:
        if self.p != other.p:
            raise ValidationError(f"mixed prime fields F_{self.p} and F_{other.p}")

    def __add__(self, other):
        self._check(other)
        return FpElement(self.value + other.value, self.p)

    def __sub__(self, other):
        self._check(other)
        return FpElement(self.value - other.value, self.p)

    def __mul__(self, other):
        self._check(other)
        return FpElement(self.value * other.value, self.p)

    def __truediv__(self, other):
        self._check(other)
        if other.value == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return FpElement(self.value * pow(other.value, -1, self.p), self.p)

    def __pow__(self, n: int):
        if n < 0:
            return FpElement(1, self.p) / self ** (-n)
        return FpElement(pow(self.value, n, self.p), self.p)

    def __neg__(self):
        return FpElement(-self.value, self.p)

    def __bool__(self) -> bool:
        return self.value != 0

    def __eq__(self, other) -> bool:
        if isinstance(other, FpElement):
            return self.p == other.p and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.p
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.value, self.p))

    def __repr__(self) -> str:
        return f"{self.value}"


# The first twelve primes: as Miller-Rabin bases they decide primality for
# every n < 3.18e23 (Sorenson and Webster 2015), so for every modulus below
# MODULUS_BOUND.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MODULUS_BOUND = 2**64


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test, exact for n < 3.18e23."""
    if n < 2:
        return False
    for q in _WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The field of integers modulo a prime p."""

    def __init__(self, p: int):
        if isinstance(p, int) and p >= MODULUS_BOUND:
            raise ValidationError(f"modulus must be below 2**64, got {p}")
        if not isinstance(p, int) or not _is_prime(p):
            raise ValidationError(f"modulus must be a prime integer, got {p!r}")
        self.p = p

    def __call__(self, numerator, denominator=1):
        if isinstance(numerator, FpElement):
            if numerator.p != self.p:
                raise ValidationError("element from a different prime field")
            numerator = numerator.value
        if isinstance(numerator, Fraction):
            denominator = denominator * numerator.denominator
            numerator = numerator.numerator
        num = FpElement(numerator, self.p)
        if denominator == 1:
            return num
        if denominator % self.p == 0:
            raise ValidationError(f"denominator {denominator} is zero in F_{self.p}")
        return num / FpElement(denominator, self.p)

    @property
    def one(self) -> FpElement:
        return FpElement(1, self.p)

    def __repr__(self) -> str:
        return f"GF({self.p})"

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("okv.Fp", self.p))


def field_of(scalar) -> RationalField | PrimeField:
    """Return the field object a scalar value belongs to."""
    if isinstance(scalar, (Fraction, int)):
        return QQ
    if isinstance(scalar, FpElement):
        return PrimeField(scalar.p)
    raise ValidationError(f"not a field element: {scalar!r}")
