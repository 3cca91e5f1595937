"""Sparse multivariate polynomial arithmetic over the Gaussian rationals.

A polynomial in n variables is a map from exponent vectors (length-n
tuples of non-negative ints) to nonzero `Scalar` coefficients.  Zero
coefficients are never stored, and the zero polynomial has total degree
-1 by convention.

Term order is graded lexicographic with x1 > x2 > ... > xn, fixed
globally so that formatted output, monomial bases and echelonized
certificates are deterministic.

Text grammar (bit-exact round trip)::

    expr   := term { ("+" | "-") term }
    term   := signed { "*" signed }
    signed := { "+" | "-" } power
    power  := atom [ "^" integer ]
    atom   := rational | "i" | variable | "(" expr ")"

where variables are ``x1 .. x<n>``, rationals are ``p`` or ``p/q`` with
an optional directly attached imaginary unit (``2i``, ``1/2i``), and
whitespace is insignificant.  Example: ``3*x1^2*x2 - (1/2+2i)*x3``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import ArityMismatch, ParseError, PreconditionError
from .scalars import Scalar

__all__ = [
    "Poly",
    "MonomialBasis",
    "grlex_key",
    "parse_poly",
    "parse_scalar",
    "format_poly",
    "format_scalar",
    "MAX_BASIS_SIZE",
]

# Largest monomial basis MonomialBasis enumerates.  Every certificate in the
# tests, the benchmark pools and the README uses at most 165 exponents; the
# bound turns an oversized degree into a usage error instead of an unbounded
# allocation.
MAX_BASIS_SIZE = 100_000


def grlex_key(exponents: tuple[int, ...]):
    """Sort key realizing graded lexicographic order (x1 largest)."""
    return (sum(exponents), exponents)


class Poly:
    """Immutable sparse polynomial; see the module docstring for conventions."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], Scalar] | None = None):
        if nvars < 0:
            raise ValueError("nvars must be non-negative")
        cleaned: dict[tuple[int, ...], Scalar] = {}
        if terms:
            for exp, coeff in terms.items():
                if len(exp) != nvars:
                    raise ArityMismatch(
                        f"exponent vector {exp} has length {len(exp)}, expected {nvars}"
                    )
                if any(e < 0 for e in exp):
                    raise ValueError(f"negative exponent in {exp}")
                if coeff.is_zero():
                    continue
                cleaned[tuple(exp)] = coeff
        self.nvars = nvars
        self.terms = cleaned

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, value) -> "Poly":
        if not isinstance(value, Scalar):
            value = Scalar.exact(value)
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Poly":
        if not 0 <= index < nvars:
            raise ArityMismatch(f"variable index {index} out of range for {nvars} variables")
        exp = [0] * nvars
        exp[index] = 1
        return cls(nvars, {tuple(exp): Scalar.exact(1)})

    @classmethod
    def monomial(cls, nvars: int, exponents: Sequence[int], coeff: Scalar) -> "Poly":
        return cls(nvars, {tuple(exponents): coeff})

    # -- basic structure ----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(exp) for exp in self.terms)

    def leading_monomial(self) -> tuple[int, ...]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=grlex_key)

    def coefficient(self, exponents: Sequence[int]) -> Scalar:
        return self.terms.get(tuple(exponents), Scalar.exact(0))

    def constant_term(self) -> Scalar:
        return self.coefficient((0,) * self.nvars)

    def _check_arity(self, other: "Poly") -> None:
        if self.nvars != other.nvars:
            raise ArityMismatch(f"operands use {self.nvars} and {other.nvars} variables")

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_arity(other)
        out = dict(self.terms)
        for exp, coeff in other.terms.items():
            cur = out.get(exp)
            s = coeff if cur is None else cur + coeff
            if s.is_zero():
                out.pop(exp, None)
            else:
                out[exp] = s
        return _trusted_poly(self.nvars, out)

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "Poly":
        return _trusted_poly(self.nvars, {exp: -coeff for exp, coeff in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_arity(other)
        out: dict[tuple[int, ...], Scalar] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                prod = c1 * c2
                cur = out.get(exp)
                s = prod if cur is None else cur + prod
                if s.is_zero():
                    out.pop(exp, None)
                else:
                    out[exp] = s
        return _trusted_poly(self.nvars, out)

    def scale(self, factor: Scalar) -> "Poly":
        if factor.is_zero():
            return Poly.zero(self.nvars)
        return _trusted_poly(
            self.nvars, {exp: coeff * factor for exp, coeff in self.terms.items()}
        )

    def __pow__(self, exponent: int) -> "Poly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers take non-negative integer exponents")
        out = Poly.constant(self.nvars, 1)
        for _ in range(exponent):
            out = out * self
        return out

    # -- calculus and evaluation --------------------------------------

    def partial(self, index: int) -> "Poly":
        """Partial derivative with respect to variable `index` (0-based)."""
        if not 0 <= index < self.nvars:
            raise ArityMismatch(f"variable index {index} out of range for {self.nvars} variables")
        out: dict[tuple[int, ...], Scalar] = {}
        for exp, coeff in self.terms.items():
            e = exp[index]
            if e == 0:
                continue
            new_exp = list(exp)
            new_exp[index] = e - 1
            out[tuple(new_exp)] = coeff * e
        return _trusted_poly(self.nvars, out)

    def evaluate(self, point: Sequence[Scalar]) -> Scalar:
        if len(point) != self.nvars:
            raise ArityMismatch(f"point has {len(point)} coordinates, expected {self.nvars}")
        total = Scalar.exact(0)
        for exp, coeff in self.terms.items():
            term = coeff
            for value, e in zip(point, exp):
                if e:
                    term = term * value**e
            total = total + term
        return total

    def eval_complex(self, point: Sequence[complex]) -> complex:
        """Numeric evaluation; exact coefficients are converted on the fly.

        `point` may also be an (nvars, k) numpy array of k points: the loop
        runs over its rows, so the value is an array of k values.  A
        constant polynomial (zero included) never touches the rows and
        returns one complex scalar instead, which broadcasts against them.
        """
        if len(point) != self.nvars:
            raise ArityMismatch(f"point has {len(point)} coordinates, expected {self.nvars}")
        total = 0j
        for exp, coeff in self.terms.items():
            term = coeff.to_complex()
            for value, e in zip(point, exp):
                if e:
                    term *= value**e
            total += term
        return total

    def substitute(self, components: Sequence["Poly"]) -> "Poly":
        """Compose with a polynomial map: returns self(components[0], ...)."""
        if len(components) != self.nvars:
            raise ArityMismatch(
                f"substitution map has {len(components)} components, expected {self.nvars}"
            )
        if not components:
            raise ArityMismatch("substitution needs at least one component")
        target_nvars = components[0].nvars
        for comp in components:
            if comp.nvars != target_nvars:
                raise ArityMismatch("substitution components disagree on variable count")
        powers: list[dict[int, Poly]] = [
            {0: Poly.constant(target_nvars, 1)} for _ in range(self.nvars)
        ]

        def power(i: int, e: int) -> Poly:
            cache = powers[i]
            if e not in cache:
                cache[e] = power(i, e - 1) * components[i]
            return cache[e]

        total = Poly.zero(target_nvars)
        for exp, coeff in self.terms.items():
            term = Poly.constant(target_nvars, 1).scale(coeff)
            for i, e in enumerate(exp):
                if e:
                    term = term * power(i, e)
            total = total + term
        return total

    def key(self):
        """Hashable canonical form, usable for dedup sets."""
        items = sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]))
        return (self.nvars, tuple((exp, c.re, c.im) for exp, c in items))

    # -- comparisons and text -----------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    __hash__ = None  # mutable dict inside; identity semantics are not wanted

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Poly({self.nvars}, {format_poly(self)!r})"


def _trusted_poly(nvars: int, terms: dict[tuple[int, ...], Scalar]) -> Poly:
    """A Poly holding `terms` itself, without `Poly.__init__`'s checks or copy.

    The caller hands `terms` over and guarantees what those checks would:
    exponent tuples of length `nvars`, no negative exponent, no zero coefficient.
    """
    result = Poly.__new__(Poly)
    result.nvars = nvars
    result.terms = terms
    return result


class MonomialBasis:
    """Graded-lexicographically ordered exponent vectors up to a degree bound."""

    __slots__ = ("nvars", "degree", "exponents", "_index")

    def __init__(self, nvars: int, degree: int):
        if nvars < 1:
            raise ValueError("MonomialBasis needs at least one variable")
        if degree < 0:
            raise ValueError("degree bound must be non-negative")
        size = math.comb(nvars + degree, nvars)
        if size > MAX_BASIS_SIZE:
            raise PreconditionError(
                f"degree bound {degree} in {nvars} variables needs more than "
                f"{MAX_BASIS_SIZE} monomials"
            )
        self.nvars = nvars
        self.degree = degree
        self.exponents = tuple(sorted(_exponents_up_to(nvars, degree), key=grlex_key))
        self._index = {exp: i for i, exp in enumerate(self.exponents)}
        assert len(self.exponents) == size

    def __len__(self) -> int:
        return len(self.exponents)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.exponents)

    def index_of(self, exponents: Sequence[int]) -> int:
        return self._index[tuple(exponents)]

    def coords(self, poly: Poly) -> dict[int, Scalar]:
        """Sparse coordinates of a polynomial: basis index -> coefficient."""
        return {self._index[exp]: coeff for exp, coeff in poly.terms.items()}

    def __contains__(self, exponents) -> bool:
        return tuple(exponents) in self._index


def _exponents_up_to(nvars: int, degree: int) -> Iterable[tuple[int, ...]]:
    if nvars == 1:
        for e in range(degree + 1):
            yield (e,)
        return
    for head in range(degree + 1):
        for tail in _exponents_up_to(nvars - 1, degree - head):
            yield (head,) + tail


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_TOKEN_NUM = "num"
_TOKEN_VAR = "var"
_TOKEN_IMAG = "imag"
_TOKEN_OP = "op"
_TOKEN_END = "end"


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens: list[tuple[str, object, int]] = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in "+-*^()/":
            tokens.append((_TOKEN_OP, ch, pos))
            pos += 1
            continue
        if ch.isdigit():
            start = pos
            while pos < n and text[pos].isdigit():
                pos += 1
            numerator = int(text[start:pos])
            value = Fraction(numerator)
            # a directly attached "/q" is part of the rational literal
            if pos < n and text[pos] == "/" and pos + 1 < n and text[pos + 1].isdigit():
                pos += 1
                dstart = pos
                while pos < n and text[pos].isdigit():
                    pos += 1
                denominator = int(text[dstart:pos])
                if denominator == 0:
                    raise ParseError("zero denominator", dstart)
                value = Fraction(numerator, denominator)
            imaginary = False
            if pos < n and text[pos] == "i":
                imaginary = True
                pos += 1
            tokens.append((_TOKEN_NUM, (value, imaginary), start))
            continue
        if ch == "i":
            tokens.append((_TOKEN_IMAG, None, pos))
            pos += 1
            continue
        if ch == "x":
            start = pos
            pos += 1
            dstart = pos
            while pos < n and text[pos].isdigit():
                pos += 1
            if dstart == pos:
                raise ParseError("variable name needs an index, like x1", start)
            tokens.append((_TOKEN_VAR, int(text[dstart:pos]), start))
            continue
        raise ParseError(f"unexpected character {ch!r}", pos)
    tokens.append((_TOKEN_END, None, n))
    return tokens


class _Parser:
    def __init__(self, text: str, nvars: int):
        self.tokens = _tokenize(text)
        self.nvars = nvars
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, value, pos = self.peek()
        if kind != _TOKEN_OP or value != op:
            raise ParseError(f"expected {op!r}", pos)
        self.advance()

    def parse(self) -> Poly:
        result = self.expr()
        kind, _, pos = self.peek()
        if kind != _TOKEN_END:
            raise ParseError("trailing input after expression", pos)
        return result

    def expr(self) -> Poly:
        total = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == _TOKEN_OP and value in "+-":
                self.advance()
                rhs = self.term()
                total = total + rhs if value == "+" else total - rhs
            else:
                return total

    def term(self) -> Poly:
        product = self.signed()
        while True:
            kind, value, _ = self.peek()
            if kind == _TOKEN_OP and value == "*":
                self.advance()
                product = product * self.signed()
            else:
                return product

    def signed(self) -> Poly:
        negate = False
        while True:
            kind, value, _ = self.peek()
            if kind == _TOKEN_OP and value in "+-":
                self.advance()
                if value == "-":
                    negate = not negate
            else:
                break
        result = self.power()
        return -result if negate else result

    def power(self) -> Poly:
        base = self.atom()
        kind, value, _ = self.peek()
        if kind == _TOKEN_OP and value == "^":
            self.advance()
            kind, value, pos = self.advance()
            if kind != _TOKEN_NUM or value[1] or value[0].denominator != 1:
                raise ParseError("exponent must be a non-negative integer", pos)
            base = base ** int(value[0])
        return base

    def atom(self) -> Poly:
        kind, value, pos = self.advance()
        if kind == _TOKEN_NUM:
            rational, imaginary = value
            # allow a spaced "p / q" rational as well
            nkind, nvalue, npos = self.peek()
            if not imaginary and nkind == _TOKEN_OP and nvalue == "/":
                self.advance()
                dkind, dvalue, dpos = self.advance()
                if dkind != _TOKEN_NUM or dvalue[1] or dvalue[0].denominator != 1:
                    raise ParseError("denominator must be an integer", dpos)
                if dvalue[0] == 0:
                    raise ParseError("zero denominator", dpos)
                rational = rational / dvalue[0]
            coeff = Scalar.exact(0, rational) if imaginary else Scalar.exact(rational)
            return Poly.constant(self.nvars, coeff)
        if kind == _TOKEN_IMAG:
            return Poly.constant(self.nvars, Scalar.exact(0, 1))
        if kind == _TOKEN_VAR:
            if not 1 <= value <= self.nvars:
                raise ParseError(
                    f"variable x{value} out of range for {self.nvars} variables", pos
                )
            return Poly.variable(self.nvars, value - 1)
        if kind == _TOKEN_OP and value == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ParseError("expected a number, variable, i or parenthesis", pos)


def parse_poly(text: str, nvars: int) -> Poly:
    """Parse the polynomial grammar into an exact polynomial."""
    return _Parser(text, nvars).parse()


def parse_scalar(text: str) -> Scalar:
    """Parse a constant expression, e.g. ``1/2``, ``2i`` or ``(1+2i)``."""
    poly = _Parser(text, 1).parse()
    if poly.degree > 0:
        raise ParseError("expected a constant expression", 0)
    return poly.constant_term()


# ---------------------------------------------------------------------------
# Formatting
# ---------------------------------------------------------------------------


def _format_rational(value: Fraction) -> str:
    return str(value)


def format_scalar(value: Scalar) -> str:
    """Standalone text form of a scalar in the polynomial grammar."""
    sign, body = _scalar_sign_body(value)
    return "-" + body if sign < 0 else body


def _scalar_sign_body(value: Scalar) -> tuple[int, str]:
    """Split a coefficient into a display sign and an unsigned body string."""
    re, im = value.re, value.im
    if im == 0:
        sign = -1 if re < 0 else 1
        return sign, _format_rational(abs(re))
    if re == 0:
        sign = -1 if im < 0 else 1
        mag = abs(im)
        return sign, "i" if mag == 1 else f"{_format_rational(mag)}i"
    sign = -1 if re < 0 else 1
    re, im = re * sign, im * sign
    im_part = "i" if abs(im) == 1 else f"{_format_rational(abs(im))}i"
    connector = "+" if im > 0 else "-"
    return sign, f"({_format_rational(re)}{connector}{im_part})"


def _format_monomial(exponents: tuple[int, ...]) -> str:
    parts = []
    for i, e in enumerate(exponents):
        if e == 1:
            parts.append(f"x{i + 1}")
        elif e > 1:
            parts.append(f"x{i + 1}^{e}")
    return "*".join(parts)


def format_poly(poly: Poly) -> str:
    """Canonical text form: descending graded-lex terms, grammar-compatible."""
    if poly.is_zero():
        return "0"
    pieces = []
    for exp in sorted(poly.terms, key=grlex_key, reverse=True):
        coeff = poly.terms[exp]
        sign, body = _scalar_sign_body(coeff)
        mono = _format_monomial(exp)
        if mono:
            if body == "1":
                text = mono
            else:
                text = f"{body}*{mono}"
        else:
            text = body
        pieces.append((sign, text))
    first_sign, first_text = pieces[0]
    out = ("-" if first_sign < 0 else "") + first_text
    for sign, text in pieces[1:]:
        out += (" - " if sign < 0 else " + ") + text
    return out
