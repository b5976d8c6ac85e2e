"""Ordinal arithmetic in Cantor normal form, restricted to ordinals below epsilon_0.

An ordinal is stored as a sum of terms w^e * c with strictly decreasing
exponents e (themselves ordinals) and integer coefficients c >= 1.  The empty
sum is 0.  This representation is unique, so equality is structural, and the
ordinal order coincides with lexicographic comparison of the term lists.

Besides sum and product, the module provides the decomposition a = w*b + n,
the order-type bound function ``zeta`` built on it, cofinalities, and the
usual fundamental sequences for limits (unwind the last term).  Text parsing
and formatting use a small grammar::

    ord  := "0" | term ("+" term)*
    term := "w" ["^" atom] ["*" nat] | nat
    atom := nat | "w" | "(" ord ")"

with terms in strictly decreasing exponent order and ``nat`` a decimal >= 1.
Canonical output omits ``^1`` and ``*1``.  Exponents may nest at most
``MAX_EXPONENT_DEPTH`` deep (``w^(w^w)`` nests two deep); deeper text is
rejected with ``OrdinalParseError``, because parsing and formatting recurse
once per level.
"""

from __future__ import annotations

from typing import Iterable

MAX_EXPONENT_DEPTH = 100


class OrdinalParseError(ValueError):
    """Raised on malformed ordinal text; ``position`` is a 0-based index."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Ordinal:
    """An ordinal below epsilon_0 in Cantor normal form.

    >>> Ordinal.parse("w^2*3+w+4")
    Ordinal("w^2*3+w+4")
    >>> Ordinal.parse("w*2+3") + Ordinal.parse("w+1")
    Ordinal("w*3+1")
    """

    __slots__ = ("terms", "_key")

    def __init__(self, terms: Iterable[tuple["Ordinal", int]] = ()):
        terms = tuple(terms)
        prev = None
        for exponent, coeff in terms:
            if not isinstance(exponent, Ordinal):
                raise TypeError(f"exponent must be an Ordinal, got {exponent!r}")
            if not isinstance(coeff, int) or coeff < 1:
                raise ValueError(f"coefficient must be an integer >= 1, got {coeff!r}")
            if prev is not None and not prev._key > exponent._key:
                raise ValueError("exponents must be strictly decreasing")
            prev = exponent
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_key", tuple((e._key, c) for e, c in terms))

    def __setattr__(self, name, value):
        raise AttributeError("Ordinal is immutable")

    @classmethod
    def _raw(cls, terms: tuple[tuple["Ordinal", int], ...]) -> "Ordinal":
        # Trusted constructor: terms already in normal form.
        self = object.__new__(cls)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_key", tuple((e._key, c) for e, c in terms))
        return self

    @classmethod
    def from_int(cls, n: int) -> "Ordinal":
        if n < 0:
            raise ValueError("ordinals are non-negative")
        if n == 0:
            return ZERO
        return cls._raw(((ZERO, n),))

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_finite(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and self.terms[0][0].is_zero)

    @property
    def is_successor(self) -> bool:
        return bool(self.terms) and self.terms[-1][0].is_zero

    @property
    def is_limit(self) -> bool:
        return bool(self.terms) and not self.terms[-1][0].is_zero

    def to_int(self) -> int:
        if not self.is_finite:
            raise ValueError(f"{self} is infinite")
        return self.terms[0][1] if self.terms else 0

    # -- comparison --------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Ordinal):
            return NotImplemented
        return self._key == other._key

    def __lt__(self, other: "Ordinal") -> bool:
        if not isinstance(other, Ordinal):
            return NotImplemented
        return self._key < other._key

    def __le__(self, other: "Ordinal") -> bool:
        if not isinstance(other, Ordinal):
            return NotImplemented
        return self._key <= other._key

    # No __gt__ or __ge__: Python reflects a > b to b < a and a >= b to
    # b <= a, and a non-Ordinal operand still ends in TypeError.

    def __hash__(self) -> int:
        return hash(self._key)

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Ordinal") -> "Ordinal":
        """Ordinal sum: terms of the left operand below the right operand's
        leading exponent are absorbed."""
        if not isinstance(other, Ordinal):
            return NotImplemented
        if not other.terms:
            return self
        if not self.terms:
            return other
        lead = other.terms[0][0]
        kept = []
        for e, c in self.terms:
            if e > lead:
                kept.append((e, c))
            elif e == lead:
                kept.append((lead, c + other.terms[0][1]))
                return Ordinal._raw(tuple(kept) + other.terms[1:])
            else:
                break
        return Ordinal._raw(tuple(kept) + other.terms)

    def __mul__(self, other: "Ordinal") -> "Ordinal":
        """Ordinal product, distributing over the right operand's terms.

        For an infinite term w^f*d of the right operand the whole left operand
        collapses onto its leading exponent (a * w^f = w^(e0+f)); the finite
        part multiplies the leading coefficient and keeps the tail.
        """
        if not isinstance(other, Ordinal):
            return NotImplemented
        if not self.terms or not other.terms:
            return ZERO
        e0, c0 = self.terms[0]
        result = ZERO
        for f, d in other.terms:
            if f.is_zero:
                piece = Ordinal._raw(((e0, c0 * d),) + self.terms[1:])
            else:
                piece = Ordinal._raw(((e0 + f, d),))
            result = result + piece
        return result

    # -- text --------------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.terms:
            if e.is_zero:
                parts.append(str(c))
                continue
            if e == ONE:
                s = "w"
            elif e.is_finite:
                s = f"w^{e.to_int()}"
            elif e == OMEGA:
                s = "w^w"
            else:
                s = f"w^({e})"
            if c != 1:
                s += f"*{c}"
            parts.append(s)
        return "+".join(parts)

    def __repr__(self) -> str:
        return f'Ordinal("{self}")'

    @classmethod
    def parse(cls, text: str) -> "Ordinal":
        return _Parser(text.strip()).parse()


ZERO = Ordinal()
ONE = Ordinal.from_int(1)
OMEGA = Ordinal._raw(((ONE, 1),))


def omega_power(a: Ordinal) -> Ordinal:
    """w raised to the ordinal a."""
    if a.is_zero:
        return ONE
    return Ordinal._raw(((a, 1),))


def omega_quot_rem(a: Ordinal) -> tuple[Ordinal, int]:
    """The unique decomposition a = w*b + n with n finite.

    The finite remainder is the exponent-0 coefficient; the quotient shifts
    every other exponent down by one on the left (1 + f = e, so f = e - 1 for
    finite e and f = e for infinite e).
    """
    n = 0
    high = a.terms
    if a.terms and a.terms[-1][0].is_zero:
        n = a.terms[-1][1]
        high = a.terms[:-1]
    quot_terms = []
    for e, c in high:
        if e.is_finite:
            quot_terms.append((Ordinal.from_int(e.to_int() - 1), c))
        else:
            quot_terms.append((e, c))
    return Ordinal._raw(tuple(quot_terms)), n


def zeta(a: Ordinal) -> Ordinal:
    """Largest order type a search traversal can reach from input order type a.

    Finite ordinals are fixed; for infinite a = w*b + n the value is
    w^b * (n+1).

    >>> zeta(Ordinal.parse("w+1"))
    Ordinal("w*2")
    """
    if a.is_finite:
        return a
    beta, n = omega_quot_rem(a)
    return omega_power(beta) * Ordinal.from_int(n + 1)


def cofinality(a: Ordinal) -> Ordinal:
    """0 for 0, 1 for successors, w for limits (all limits here have
    countable cofinality)."""
    if a.is_zero:
        return ZERO
    if a.is_successor:
        return ONE
    return OMEGA


def fundamental_sequence(a: Ordinal, i: int) -> Ordinal:
    """The i-th member of the canonical strictly increasing sequence with
    supremum a, for limit a.  Unwinds the last term of the normal form:
    the last w^(f+1) becomes w^f * i, and a last limit exponent recurses.
    """
    if not a.is_limit:
        raise ValueError(f"{a} is not a limit ordinal")
    if i < 0:
        raise ValueError("index must be >= 0")
    head = a.terms[:-1]
    e, c = a.terms[-1]
    if c > 1:
        head = head + ((e, c - 1),)
    if e.is_successor:
        f_terms = e.terms[:-1]
        last_e, last_c = e.terms[-1]
        if last_c > 1:
            f_terms = f_terms + ((last_e, last_c - 1),)
        f = Ordinal._raw(f_terms)
        tail = ((f, i),) if i > 0 else ()
    else:
        tail = ((fundamental_sequence(e, i), 1),)
    return Ordinal._raw(head + tail)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0  # exponents open around the current position

    def error(self, message: str) -> OrdinalParseError:
        return OrdinalParseError(message, self.pos)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def parse(self) -> Ordinal:
        value = self.parse_ord()
        if self.pos != len(self.text):
            raise self.error("trailing input")
        return value

    def parse_ord(self) -> Ordinal:
        if self.peek() == "0":
            self.pos += 1
            return ZERO
        terms = [self.parse_term()]
        while self.peek() == "+":
            self.pos += 1
            start = self.pos
            term = self.parse_term()
            if not term[0] < terms[-1][0]:
                self.pos = start
                raise self.error("terms must have strictly decreasing exponents")
            terms.append(term)
        return Ordinal._raw(tuple(terms))

    def parse_term(self) -> tuple[Ordinal, int]:
        if self.peek() == "w":
            self.pos += 1
            exponent = ONE
            if self.peek() == "^":
                self.pos += 1
                if self.depth == MAX_EXPONENT_DEPTH:
                    raise self.error(f"exponents nested deeper than {MAX_EXPONENT_DEPTH}")
                self.depth += 1
                exponent = self.parse_atom()
                self.depth -= 1
            coeff = 1
            if self.peek() == "*":
                self.pos += 1
                coeff = self.parse_nat()
            return exponent, coeff
        if self.peek().isdecimal():
            return ZERO, self.parse_nat()
        raise self.error("expected a term")

    def parse_atom(self) -> Ordinal:
        ch = self.peek()
        if ch == "w":
            self.pos += 1
            return OMEGA
        if ch == "(":
            self.pos += 1
            value = self.parse_ord()
            self.take(")")
            return value
        if ch.isdecimal():
            return Ordinal.from_int(self.parse_nat())
        raise self.error("expected an exponent")

    def parse_nat(self) -> int:
        start = self.pos
        while self.peek().isdecimal():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a number")
        try:
            value = int(self.text[start:self.pos])
        except ValueError as exc:  # a literal beyond Python's digit limit
            self.pos = start
            raise self.error(f"unreadable number: {exc}") from None
        if value < 1:
            self.pos = start
            raise self.error("number must be >= 1")
        return value
