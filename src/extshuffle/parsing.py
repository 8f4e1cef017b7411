"""Parsers for the text formats: compositions, linear combinations, Chen
symbols and fractions, and point assignments.

Grammar sketch:

    composition  :=  '1' | '[' int (',' int)* ']'
    lincomb      :=  term (('+' | '-') term)*
    term         :=  '-'? (rational composition? | composition)
    symbol       :=  '1' | '<' '[' ints ']' ';' '[' ints ']' '>'
    fraction     :=  '1' | 'f' '(' '[' ints ']' ';' '[' ints ']' ')'
    assignment   :=  digits '=' rational
    int          :=  [+-]? digits

Whitespace is allowed between any two tokens, but a sign must touch its
digits (``[- 1]`` is an error; a lincomb's ``-`` is a token of its own).
Digits are Unicode decimal digits, as ``int()`` reads them; a number over
the interpreter's digit limit is a ``ParseError``.  Errors carry the
offending position; the message echoes the input only within 30 characters
of it.  A bare rational is that multiple of the unit ``1``.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .algebra import Composition, LinComb
from .chenfrac import ChenFraction
from .symbols import ChenSymbol

_SPACE = re.compile(r"\s*")
_INTEGER = re.compile(r"[+-]?\d+")
_DIGITS = re.compile(r"\d+")
_END = re.compile(r"\Z")
_ECHO = 30  # characters of the input a message shows on each side of the position


class ParseError(ValueError):
    def __init__(self, message: str, text: str, pos: int):
        # .text keeps the whole input; "..." outside the quotes marks a cut end
        start, end = max(pos - _ECHO, 0), pos + _ECHO
        shown = f"{'...' * (start > 0)}{text[start:end]!r}{'...' * (end < len(text))}"
        super().__init__(f"{message} at position {pos} in {shown}")
        self.text = text
        self.pos = pos


class _Cursor:
    """Reads tokens left to right; each read skips the whitespace before it."""

    __slots__ = ("text", "pos")

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.text, self.pos)

    def at(self, token):
        """Skip whitespace, then peek: does the next token start with ``token``
        (a string), or what does ``token`` (a compiled pattern) match there?"""
        self.pos = _SPACE.match(self.text, self.pos).end()
        if isinstance(token, str):
            return self.text.startswith(token, self.pos)
        return token.match(self.text, self.pos)

    def take(self, token: str) -> bool:
        found = self.at(token)
        if found:
            self.pos += len(token)
        return found

    def expect(self, token: str):
        if not self.take(token):
            raise self.error(f"expected {token!r}")

    def expect_end(self):
        if not self.at(_END):
            raise self.error("unexpected trailing input")

    def integer(self, pattern=_INTEGER, expected: str = "integer") -> int:
        match = self.at(pattern)
        if not match:
            raise self.error(f"expected {expected}")
        try:
            value = int(match.group())
        except ValueError:  # more digits than the interpreter converts
            raise self.error(f"integer over {sys.get_int_max_str_digits()} digits") from None
        self.pos = match.end()
        return value

    def rational(self) -> Fraction:
        num = self.integer()
        if not self.take("/"):
            return Fraction(num)
        den = self.integer()
        if den == 0:
            raise self.error("zero denominator")
        return Fraction(num, den)

    def int_list(self) -> tuple:
        self.expect("[")
        entries = [self.integer()]
        while self.take(","):
            entries.append(self.integer())
        self.expect("]")
        return tuple(entries)


def parse_composition(text: str) -> Composition:
    cur = _Cursor(text)
    if cur.take("1"):
        comp = ()
    elif cur.at("["):
        comp = cur.int_list()
    else:
        raise cur.error("expected composition ('[...]' or '1')")
    cur.expect_end()
    return comp


def parse_lincomb(text: str) -> LinComb:
    cur = _Cursor(text)
    terms = []
    while True:
        sign = 1
        if cur.take("-"):
            sign = -1
        elif cur.take("+"):
            if not terms:
                raise cur.error("unexpected leading '+'")
        elif terms:
            break
        if cur.at("["):
            comp, coef = cur.int_list(), Fraction(sign)
        elif cur.at(_DIGITS):
            coef = sign * cur.rational()
            comp = cur.int_list() if cur.at("[") else ()
        else:
            raise cur.error("expected a term")
        terms.append((comp, coef))
    cur.expect_end()
    return LinComb(terms)


def _two_rows(text: str, opening: str, closing: str) -> tuple:
    """The rows of ``opening [ints] ; [ints] closing``, or two empty rows for ``1``."""
    cur = _Cursor(text)
    if cur.take("1"):
        cur.expect_end()
        return (), ()
    for ch in opening:
        cur.expect(ch)
    top = cur.int_list()
    cur.expect(";")
    bottom = cur.int_list()
    cur.expect(closing)
    cur.expect_end()
    return top, bottom


def parse_symbol(text: str) -> ChenSymbol:
    return ChenSymbol(*_two_rows(text, "<", ">"))


def parse_fraction(text: str) -> ChenFraction:
    return ChenFraction(*_two_rows(text, "f(", ")"))


def parse_assignment(text: str) -> tuple:
    """Parse one ``index=value`` pair, e.g. ``3=1/2``."""
    cur = _Cursor(text)
    index = cur.integer(_DIGITS, "digit")
    cur.expect("=")
    value = cur.rational()
    cur.expect_end()
    return index, value
