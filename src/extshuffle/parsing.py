"""Parsers for the text formats: compositions, linear combinations, Chen
symbols and fractions, and point assignments.

Grammar sketch (whitespace tolerated everywhere):

    composition  :=  '1' | '[' int (',' int)* ']'
    lincomb      :=  term (('+' | '-') term)*
    term         :=  '-'? (rational composition? | composition)
    symbol       :=  '1' | '<' '[' ints ']' ';' '[' ints ']' '>'
    fraction     :=  '1' | 'f' '(' '[' ints ']' ';' '[' ints ']' ')'
    assignment   :=  int '=' rational

A bare rational parses as that multiple of the unit, matching how linear
combinations print.  Errors carry the offending position.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import Composition, LinComb
from .chenfrac import ChenFraction
from .symbols import ChenSymbol


class ParseError(ValueError):
    def __init__(self, message: str, text: str, pos: int):
        super().__init__(f"{message} at position {pos} in {text!r}")
        self.text = text
        self.pos = pos


class _Cursor:
    __slots__ = ("text", "pos")

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.text, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else None

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch: str):
        if not self.take(ch):
            raise self.error(f"expected {ch!r}")

    def expect_end(self):
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error("unexpected trailing input")

    def integer(self) -> int:
        start = self.pos
        if self.peek() in ("-", "+"):
            self.pos += 1
        digits = self.pos
        while self.peek() is not None and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == digits:
            self.pos = start
            raise self.error("expected integer")
        return int(self.text[start : self.pos])

    def unsigned(self) -> int:
        if self.peek() is None or not self.text[self.pos].isdigit():
            raise self.error("expected digit")
        return self.integer()

    def rational(self) -> Fraction:
        num = self.integer()
        self.skip_ws()
        if self.take("/"):
            self.skip_ws()
            den = self.integer()
            if den == 0:
                raise self.error("zero denominator")
            return Fraction(num, den)
        return Fraction(num)

    def int_list(self) -> tuple:
        self.expect("[")
        self.skip_ws()
        entries = [self.integer()]
        self.skip_ws()
        while self.take(","):
            self.skip_ws()
            entries.append(self.integer())
            self.skip_ws()
        self.expect("]")
        return tuple(entries)

    def composition_atom(self) -> Composition:
        self.skip_ws()
        ch = self.peek()
        if ch == "[":
            return self.int_list()
        if ch == "1":
            self.pos += 1
            return ()
        raise self.error("expected composition ('[...]' or '1')")


def parse_composition(text: str) -> Composition:
    cur = _Cursor(text)
    comp = cur.composition_atom()
    cur.expect_end()
    return comp


def parse_lincomb(text: str) -> LinComb:
    cur = _Cursor(text)
    terms = []
    cur.skip_ws()
    first = True
    while True:
        sign = 1
        if cur.take("-"):
            sign = -1
        elif cur.take("+"):
            if first:
                raise cur.error("unexpected leading '+'")
        elif not first:
            break
        cur.skip_ws()
        ch = cur.peek()
        if ch == "[":
            comp = cur.int_list()
            coef = Fraction(sign)
        elif ch is not None and ch.isdigit():
            coef = sign * cur.rational()
            cur_pos = cur.pos
            cur.skip_ws()
            if cur.peek() == "[":
                comp = cur.int_list()
            else:
                cur.pos = cur_pos
                comp = ()
        else:
            raise cur.error("expected a term")
        terms.append((comp, coef))
        first = False
        cur.skip_ws()
    cur.expect_end()
    return LinComb(terms)


def _two_rows(text: str, opening: str, closing: str) -> tuple:
    """The two integer rows of ``opening [ints] ; [ints] closing``, or two
    empty rows for the unit ``1``; whitespace may follow each token."""
    cur = _Cursor(text)
    cur.skip_ws()
    if cur.take("1"):
        cur.expect_end()
        return (), ()
    for ch in opening:
        cur.expect(ch)
        cur.skip_ws()
    top = cur.int_list()
    cur.skip_ws()
    cur.expect(";")
    cur.skip_ws()
    bottom = cur.int_list()
    cur.skip_ws()
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
    cur.skip_ws()
    index = cur.unsigned()
    cur.skip_ws()
    cur.expect("=")
    cur.skip_ws()
    value = cur.rational()
    cur.expect_end()
    return index, value
