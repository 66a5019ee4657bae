"""Tiny expression language for Chow-ring products.

Grammar: sums, differences and products of declared generators, integer
literals, integer powers (``^``) and parentheses.  Multiplication may be
written ``*`` or by juxtaposition, so ``2b`` and ``(a+3b)`` work as
expected.  Generators are named ``a``, ``b``, ``c``, ..., ``z`` in factor
order; the parser reads each name as the generator of its factor.
Parentheses and unary minus signs nest at most ``MAX_NESTING`` levels deep.
An integer literal past 2^MAX_POWER_BITS, a coefficient or an exponent, is
refused, as :mod:`hodgediv.chow` refuses a product or a power whose
coefficient passes it; a sum adds at most one bit per term.
"""

from __future__ import annotations

import re
import string
from math import log10

from .chow import _CAP, MAX_POWER_BITS, ChowElement, MultiProjRing, _refused

# A token, or in group 4 a character that starts none; whitespace matches
# nothing, so the search steps over it in linear time.
_TOKEN = re.compile(r"(\d+)|([A-Za-z_]\w*)|([-+*^()])|(\S)")
_KINDS = (None, "int", "name", "op")

# Deepest chain of parentheses and unary minus signs the parser accepts.  It
# recurses through up to five frames per level, so this keeps it well inside
# Python's default recursion limit of 1000.
MAX_NESTING = 100

_CAP_DIGITS = int(MAX_POWER_BITS * log10(2)) + 1  # decimal digits of _CAP


class ExpressionError(ValueError):
    pass


def _literal(text: str) -> int:
    """An integer literal's value, refused past the cap; more digits than
    _CAP has are refused before int(), which stops at 4,300 digits."""
    digits = text.lstrip("0")
    if len(digits) > _CAP_DIGITS or (n := int("0" + digits)) > _CAP:
        raise ExpressionError(f"integer literal refused: it exceeds the {MAX_POWER_BITS:,}-bit cap")
    return n


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens, end = [], 0
    for m in _TOKEN.finditer(text):
        if m.lastindex == 4:
            raise ExpressionError(f"unexpected character at: {text[end:]!r}")
        tokens.append((_KINDS[m.lastindex], m[0]))
        end = m.end()
    return tokens


class _Parser:
    """A recursive-descent parser.  An integer literal stays an int until it
    meets an element, which it then scales (no Chow product), so ``3a`` costs
    one scaling; the result of the whole expression is always an element."""

    def __init__(self, tokens: list[tuple[str, str]], ring: MultiProjRing):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.ring = ring

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ExpressionError("unexpected end of expression")
        self.pos += 1
        return tok

    def nested(self, parse) -> ChowElement | int:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ExpressionError(
                f"expression nests parentheses or unary minus deeper than {MAX_NESTING} levels")
        value = parse()
        self.depth -= 1
        return value

    def parse(self) -> ChowElement:
        value = self.expr()
        if self.peek() is not None:
            raise ExpressionError(f"trailing tokens starting at {self.peek()[1]!r}")
        return self.element(value)

    def element(self, value: ChowElement | int) -> ChowElement:
        """``value`` as an element.  An int, a sum of literals, is not checked
        against the cap, as a sum of elements is not."""
        return self.ring.zero() + value if isinstance(value, int) else value

    def expr(self) -> ChowElement | int:
        value = self.term()
        while self.peek() in (("op", "+"), ("op", "-")):
            _, op = self.take()
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> ChowElement | int:
        value = self.power()
        while True:
            tok = self.peek()
            if tok == ("op", "*"):
                self.take()
            elif tok is None or not (tok[0] in ("int", "name") or tok == ("op", "(")):
                return value
            # "*" or juxtaposition, e.g. "2b" or "(a+b)(a+3b)"
            value = value * self.power()
            if isinstance(value, int) and abs(value) > _CAP:  # a product of two literals
                raise _refused("product")

    def power(self) -> ChowElement | int:
        base = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            kind, text = self.take()
            if kind != "int":
                raise ExpressionError("exponent must be an integer literal")
            return self.element(base) ** _literal(text)
        return base

    def atom(self) -> ChowElement | int:
        kind, text = self.take()
        if kind == "int":
            return _literal(text)
        if kind == "name":
            j = string.ascii_lowercase.find(text) if len(text) == 1 else -1
            if not 0 <= j < len(self.ring.dims):
                raise ExpressionError(f"unknown generator {text!r}")
            return self.ring.generator(j)
        if (kind, text) == ("op", "("):
            value = self.nested(self.expr)
            if self.take() != ("op", ")"):
                raise ExpressionError("expected ')'")
            return value
        if (kind, text) == ("op", "-"):
            return -self.nested(self.power)
        raise ExpressionError(f"unexpected token {text!r}")


def evaluate(text: str, ring: MultiProjRing) -> ChowElement:
    """Evaluate an expression in the hyperplane generators of the ring."""
    if len(ring.dims) > len(string.ascii_lowercase):
        raise ExpressionError("too many factors for single-letter generators")
    return _Parser(_tokenize(text), ring).parse()
