"""Exact multivariate polynomials with a fixed, ordered variable list.

The variable order is significant: it encodes the coordinate flag, and the
term order used everywhere is lex-min with the first variable compared
first.  Terms are stored sorted by exponent vector, so equal polynomials
compare and hash equal.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import add, attrgetter
from typing import Iterable, Mapping

from .errors import ValidationError, check_cap
from .fields import QQ, field_of

Exponent = tuple  # tuple[int, ...], one entry per variable


class Record:
    """An immutable __slots__ record with equality, hash and repr over its
    `_fields`, and `_asdict`/`_replace` as on a named tuple.  A subclass sets
    its fields in `__init__` with `object.__setattr__`."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._values = attrgetter(*cls._fields)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def _asdict(self) -> dict:
        return dict(zip(self._fields, self._values(self)))

    def _replace(self, **changes):
        for name in self._fields:
            changes.setdefault(name, getattr(self, name))
        return type(self)(**changes)


class Polynomial(Record):
    """A polynomial as a sorted tuple of (exponent vector, nonzero coefficient)."""

    _fields = __slots__ = ("variables", "terms")

    def __init__(self, variables: tuple[str, ...], terms: tuple[tuple[Exponent, object], ...]):
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", terms)

    @staticmethod
    def from_dict(variables: Iterable[str], coeffs: Mapping[Exponent, object]) -> "Polynomial":
        variables = tuple(variables)
        nvars = len(variables)
        items = []
        for exp, c in coeffs.items():
            if not c:
                continue
            exp = tuple(exp)
            if len(exp) != nvars or any(e < 0 or not isinstance(e, int) for e in exp):
                raise ValidationError(f"bad exponent vector {exp} for {nvars} variables")
            items.append((exp, c))
        items.sort(key=lambda t: t[0])
        return Polynomial(variables, tuple(items))

    @staticmethod
    def zero(variables: Iterable[str]) -> "Polynomial":
        return Polynomial(tuple(variables), ())

    @staticmethod
    def constant(variables: Iterable[str], value) -> "Polynomial":
        variables = tuple(variables)
        if not value:
            return Polynomial(variables, ())
        return Polynomial(variables, (((0,) * len(variables), value),))

    @staticmethod
    def monomial(variables: Iterable[str], exponent: Exponent, coeff) -> "Polynomial":
        return Polynomial.from_dict(variables, {tuple(exponent): coeff})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def leading_exponent(self) -> Exponent:
        """Lex-min exponent vector, first coordinate compared first."""
        if not self.terms:
            raise ValidationError("zero polynomial has no leading exponent")
        return self.terms[0][0]

    def _require_same_variables(self, other: "Polynomial") -> None:
        if self.variables != other.variables:
            raise ValidationError(
                f"variable lists differ: {self.variables} vs {other.variables}"
            )

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._require_same_variables(other)
        acc = dict(self.terms)
        _add_terms(acc, other.terms)
        return Polynomial.from_dict(self.variables, acc)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.variables, tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._require_same_variables(other)
        acc: dict = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                exp = tuple(map(add, e1, e2))
                prod = c1 * c2
                s = acc.get(exp)
                s = prod if s is None else s + prod
                if s:
                    acc[exp] = s
                else:
                    acc.pop(exp, None)
        return Polynomial(self.variables, tuple(sorted(acc.items(), key=lambda t: t[0])))

    def power(self, n: int, cap_monomials: int | None = None) -> "Polynomial":
        """self ** n by repeated squaring, or (e*n, c**n) directly for one term
        (e, c); with a cap, ResourceCapError before any product whose candidate
        terms exceed cap_monomials is formed."""
        if n < 0:
            raise ValidationError("negative polynomial power")
        if n and len(self.terms) == 1:
            check_cap(1, cap_monomials, "monomial cap exceeded %s", "expanding a power")
            (e, c), = self.terms
            return Polynomial(self.variables, ((tuple(a * n for a in e), c ** n),))
        result = Polynomial.constant(self.variables, _one_like(self))
        base = self
        while n:
            if n & 1:
                result = _product(result, base, cap_monomials, "expanding a power")
            if n > 1:
                base = _product(base, base, cap_monomials, "expanding a power")
            n >>= 1
        return result

    def substitute(self, values: Mapping[str, "Polynomial"], variables: Iterable[str],
                   cap_monomials: int | None = None) -> "Polynomial":
        """Evaluate with each variable replaced by a polynomial in `variables`.

        Variables missing from `values` are kept, and must then be present in
        the target variable list.  With a cap, ResourceCapError before a
        product inside a power of an image, or of such powers, is formed when
        its candidate terms exceed cap_monomials.
        """
        target = tuple(variables)
        images = {}
        for i, v in enumerate(self.variables):
            if v in values:
                img = values[v]
                if img.variables != target:
                    raise ValidationError(f"substitution image for {v} has wrong variables")
                images[i] = img
            else:
                if v not in target:
                    raise ValidationError(f"variable {v} has no image and is not kept")
                exp = tuple(1 if w == v else 0 for w in target)
                images[i] = Polynomial.monomial(target, exp, _one_like(self))
        total = Polynomial.zero(target)
        for exp, c in self.terms:
            term = Polynomial.constant(target, c)
            for i, e in enumerate(exp):
                if e:
                    power = images[i].power(e, cap_monomials)
                    term = _product(term, power, cap_monomials, "substituting coordinates")
            total = total + term
        return total

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for exp, c in self.terms:
            mono = "*".join(
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(self.variables, exp)
                if e
            )
            neg, mag = _sign_split(c)
            if mono:
                body = mono if mag is None else f"{mag}*{mono}"
            else:
                body = mag if mag is not None else "1"
            if not chunks:
                chunks.append(f"-{body}" if neg else body)
            else:
                chunks.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(chunks)


def _sign_split(c):
    """Return (is_negative, magnitude string or None when magnitude is 1)."""
    if isinstance(c, (Fraction, int)):
        neg = c < 0
        mag = -c if neg else c
        return neg, None if mag == 1 else str(mag)
    return False, None if c == 1 else str(c)


def _add_terms(acc: dict, terms) -> None:
    """acc += terms, in place, dropping the exponents that cancel; the
    coefficients of new exponents are kept, not copied."""
    for exp, c in terms:
        s = acc.get(exp)
        s = c if s is None else s + c
        if s:
            acc[exp] = s
        else:
            del acc[exp]


def _product(a: Polynomial, b: Polynomial, cap: int | None, doing: str) -> Polynomial:
    """a * b; with a cap, ResourceCapError before it is formed when its
    candidate terms, one per pair of terms, exceed the cap."""
    check_cap(len(a.terms) * len(b.terms), cap, "monomial cap exceeded %s", doing)
    return a * b


def _one_like(p: Polynomial):
    """The one of p's coefficients' kind: 1, Fraction(1) or the F_p one."""
    if p.terms:
        return p.terms[0][1] ** 0
    return Fraction(1)


_TOKEN = re.compile(
    r"\s*(?:(?P<number>\d+(?:/\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ValidationError(f"malformed polynomial near {rest[:20]!r}")
        if m.lastgroup is not None:
            tokens.append((m.lastgroup, m.group(m.lastgroup)))
        pos = m.end()
    tokens.append(("end", ""))
    return tokens


# Deepest nesting of parentheses and unary signs; a level costs up to five frames.
MAX_NESTING = 100


class _Parser:
    """Recursive descent over +, -, *, ^, parentheses and rational literals."""

    def __init__(self, tokens, variables, field, cap_monomials):
        self.tokens = tokens
        self.i = 0
        self.depth = 0
        self.variables = tuple(variables)
        self.field = field
        self.cap_monomials = cap_monomials

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expr(self) -> Polynomial:
        """A sum of terms, accumulated in one dict: linear in its length."""
        total, sign = {}, "+"
        while True:
            term = self.term()
            _add_terms(total, (-term if sign == "-" else term).terms)
            kind, sign = self.peek()
            if not (kind == "op" and sign in "+-"):
                return Polynomial.from_dict(self.variables, total)
            self.take()

    def term(self) -> Polynomial:
        total = self.factor()
        while True:
            kind, val = self.peek()
            if kind == "op" and val == "*":
                self.take()
                total = _product(total, self.factor(), self.cap_monomials, "multiplying")
            else:
                return total

    def factor(self) -> Polynomial:
        """A signed factor or a power of an atom: -x^2 is -(x^2) wherever it stands."""
        kind, val = self.peek()
        if kind == "op" and val in "+-":
            self.take()
            signed = self.nested(self.factor)
            return -signed if val == "-" else signed
        base = self.atom()
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.take()
            kind, val = self.take()
            if kind == "op" and val == "-":
                raise ValidationError("negative exponent in polynomial")
            if kind != "number" or "/" in val:
                raise ValidationError("exponent must be a non-negative integer")
            exponent = int(val)
            if not exponent:  # the field's one: a zero base has no coefficient to copy
                return Polynomial.constant(self.variables, self.field.one)
            return base.power(exponent, self.cap_monomials)
        return base

    def atom(self) -> Polynomial:
        kind, val = self.take()
        if kind == "number":
            if "/" in val:
                num, den = val.split("/")
                if int(den) == 0:
                    raise ValidationError("zero denominator in literal")
                scalar = self.field(int(num), int(den))
            else:
                scalar = self.field(int(val))
            return Polynomial.constant(self.variables, scalar)
        if kind == "name":
            if val not in self.variables:
                raise ValidationError(f"undeclared variable {val!r}")
            exp = tuple(1 if w == val else 0 for w in self.variables)
            return Polynomial.monomial(self.variables, exp, self.field.one)
        if kind == "op" and val == "(":
            inner = self.nested(self.expr)
            kind, val = self.take()
            if not (kind == "op" and val == ")"):
                raise ValidationError("unbalanced parentheses")
            return inner
        raise ValidationError(f"malformed polynomial at {val!r}")

    def nested(self, parse) -> Polynomial:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ValidationError(f"polynomial nested more than {MAX_NESTING} levels deep")
        result = parse()
        self.depth -= 1
        return result


def parse_polynomial(
    text: str, variables: Iterable[str], field=QQ, cap_monomials: int | None = None
) -> Polynomial:
    """Parse an expression in +, -, *, ^, rational literals and declared names.

    Returns the expanded normal form; printing and re-parsing a normal form
    is the identity.  With a monomial cap, ResourceCapError stops a `*`, or a
    multiplication inside a `^`, before a product whose candidate terms
    exceed the cap is formed.
    """
    variables = tuple(variables)
    if len(set(variables)) != len(variables) or not variables:
        raise ValidationError("variable names must be nonempty and distinct")
    parser = _Parser(_tokenize(text), variables, field, cap_monomials)
    result = parser.expr()
    kind, val = parser.take()
    if kind != "end":
        raise ValidationError(f"unexpected trailing input at {val!r}")
    return result


def polynomial_field(p: Polynomial):
    """Field of the coefficients; rationals for the zero polynomial."""
    if p.terms:
        return field_of(p.terms[0][1])
    return QQ
