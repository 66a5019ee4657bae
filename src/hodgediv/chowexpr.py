"""Tiny expression language for Chow-ring products.

Grammar: sums, differences and products of declared generators, integer
literals, integer powers (``^``) and parentheses.  Multiplication may be
written ``*`` or by juxtaposition, so ``2b`` and ``(a+3b)`` work as
expected.  Generators are named ``a``, ``b``, ``c``, ... in factor order.
Parentheses and unary minus signs nest at most ``MAX_NESTING`` levels deep.
"""

from __future__ import annotations

import re
import string

from .chow import ChowElement, MultiProjRing

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_]\w*)|([-+*^()]))")

# Deepest chain of parentheses and unary minus signs the parser accepts.  It
# recurses through up to five frames per level, so this keeps it well inside
# Python's default recursion limit of 1000.
MAX_NESTING = 100


class ExpressionError(ValueError):
    pass


def default_generator_names(k: int) -> list[str]:
    if k > 26:
        raise ExpressionError("too many factors for single-letter generators")
    return list(string.ascii_lowercase[:k])


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ExpressionError(f"unexpected character at: {text[pos:]!r}")
            break
        if m.group(1):
            tokens.append(("int", m.group(1)))
        elif m.group(2):
            tokens.append(("name", m.group(2)))
        else:
            tokens.append(("op", m.group(3)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str]], env: dict[str, ChowElement],
                 ring: MultiProjRing):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.env = env
        self.ring = ring

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ExpressionError("unexpected end of expression")
        self.pos += 1
        return tok

    def nested(self, parse) -> ChowElement:
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
        return value

    def expr(self) -> ChowElement:
        value = self.term()
        while self.peek() in (("op", "+"), ("op", "-")):
            _, op = self.take()
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> ChowElement:
        value = self.power()
        while True:
            tok = self.peek()
            if tok == ("op", "*"):
                self.take()
                value = value * self.power()
            elif tok is not None and (tok[0] in ("int", "name") or tok == ("op", "(")):
                # juxtaposition, e.g. "2b" or "(a+b)(a+3b)"
                value = value * self.power()
            else:
                return value

    def power(self) -> ChowElement:
        base = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            kind, text = self.take()
            if kind != "int":
                raise ExpressionError("exponent must be an integer literal")
            return base ** int(text)
        return base

    def atom(self) -> ChowElement:
        kind, text = self.take()
        if kind == "int":
            return int(text) * self.ring.one()
        if kind == "name":
            if text not in self.env:
                raise ExpressionError(f"unknown generator {text!r}")
            return self.env[text]
        if (kind, text) == ("op", "("):
            value = self.nested(self.expr)
            if self.take() != ("op", ")"):
                raise ExpressionError("expected ')'")
            return value
        if (kind, text) == ("op", "-"):
            return -self.nested(self.power)
        raise ExpressionError(f"unexpected token {text!r}")


def evaluate(text: str, ring: MultiProjRing,
             names: list[str] | None = None) -> ChowElement:
    """Evaluate an expression in the hyperplane generators of the ring."""
    names = names or default_generator_names(len(ring.dims))
    if len(names) != len(ring.dims):
        raise ExpressionError("generator name count does not match factor count")
    env = {name: ring.generator(j) for j, name in enumerate(names)}
    return _Parser(_tokenize(text), env, ring).parse()
