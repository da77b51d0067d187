"""Recursive-descent parser for symmetric-function expressions.

Grammar:
    expr   := ['-'] term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' uint)?
    base   := ('m'|'p'|'C'|'J'|'P') '[' uint (',' uint)* ']'
            | uint | 'a' | 'n' | 'g' | 'g1' | 'g2'
            | '(' expr ')'

Scalar subtrees (numbers and parameters) are folded eagerly into exact
rational functions, so literals like 1/(1+a) parse to a single Scalar
leaf; division by a non-scalar raises.  Basis names double as parameter
names nowhere (parameters are lowercase a/n/g/g1/g2; bases m/p/C/J/P with
'm' and 'p' disambiguated by the following '[').
"""

import re

from .errors import ParseError
from .rational import RationalFunction, param, rf
from .symfun import Leaf, Pow, Prod, Scalar, Sum

_INT = re.compile(r"[0-9]+")
_NAME = re.compile(r"[A-Za-z][A-Za-z0-9]*")

PARAM_NAMES = ("a", "n", "g", "g1", "g2")
BASIS_NAMES = ("m", "p", "C", "J", "P")


def _tokenize(text):
    tokens = []
    pos = 0
    size = len(text)
    while pos < size:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        # ASCII only: another script's digit or letter is an unexpected symbol
        if "0" <= ch <= "9":
            match = _INT.match(text, pos)
            tokens.append(("int", int(match.group()), pos))
            pos = match.end()
        elif ch.isascii() and ch.isalpha():
            match = _NAME.match(text, pos)
            tokens.append(("name", match.group(), pos))
            pos = match.end()
        else:
            tokens.append(("sym", ch, pos))
            pos += 1
    tokens.append(("end", None, size))
    return tokens


def _is_scalar(node):
    return isinstance(node, Scalar)


def _mul(left, right):
    if _is_scalar(left) and _is_scalar(right):
        return Scalar(left.value * right.value)
    return Prod([left, right])


def _add(left, right):
    if _is_scalar(left) and _is_scalar(right):
        return Scalar(left.value + right.value)
    return Sum([left, right])


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def fail(self, expected):
        kind, value, pos = self.peek()
        shown = "end of input" if kind == "end" else repr(str(value))
        raise ParseError(
            "unexpected %s at position %d (expected %s)"
            % (shown, pos, " or ".join(expected)),
            pos,
            expected,
        )

    def expect_sym(self, symbol):
        kind, value, pos = self.peek()
        if kind != "sym" or value != symbol:
            self.fail(["'%s'" % symbol])
        return self.advance()

    def parse(self):
        node = self.expr()
        if self.peek()[0] != "end":
            self.fail(["operator", "end of input"])
        return node

    def expr(self):
        kind, value, _ = self.peek()
        negate = False
        if kind == "sym" and value == "-":
            self.advance()
            negate = True
        node = self.term()
        if negate:
            node = _mul(Scalar(rf(-1)), node)
        while True:
            kind, value, _ = self.peek()
            if kind == "sym" and value in "+-":
                self.advance()
                rhs = self.term()
                if value == "-":
                    rhs = _mul(Scalar(rf(-1)), rhs)
                node = _add(node, rhs)
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, value, pos = self.peek()
            if kind == "sym" and value == "*":
                self.advance()
                node = _mul(node, self.factor())
            elif kind == "sym" and value == "/":
                self.advance()
                rhs = self.factor()
                if not _is_scalar(rhs):
                    raise ParseError(
                        "division by a basis element at position %d" % pos,
                        pos,
                        ["scalar divisor"],
                    )
                node = _mul(node, Scalar(1 / rhs.value))
            else:
                return node

    def factor(self):
        node = self.base()
        kind, value, _ = self.peek()
        if kind == "sym" and value == "^":
            self.advance()
            kind, value, pos = self.peek()
            if kind != "int":
                self.fail(["non-negative integer exponent"])
            self.advance()
            if _is_scalar(node):
                node = Scalar(node.value**value)
            else:
                node = Pow(node, value)
        return node

    def base(self):
        kind, value, pos = self.peek()
        if kind == "int":
            self.advance()
            return Scalar(rf(value))
        if kind == "name":
            self.advance()
            if value in BASIS_NAMES and self.peek()[:2] == ("sym", "["):
                return Leaf(value, self.partition())
            if value in PARAM_NAMES:
                return Scalar(param(value))
            raise ParseError(
                "unknown name %r at position %d" % (value, pos),
                pos,
                ["basis m/p/C/J/P followed by '['", "parameter a/n/g/g1/g2"],
            )
        if kind == "sym" and value == "(":
            self.advance()
            node = self.expr()
            self.expect_sym(")")
            return node
        self.fail(["number", "basis element", "parameter", "'('"])

    def partition(self):
        self.expect_sym("[")
        parts = []
        if self.peek()[:2] == ("sym", "]"):
            self.advance()
            return tuple(parts)
        while True:
            kind, value, _ = self.peek()
            if kind != "int":
                self.fail(["partition part (positive integer)"])
            self.advance()
            parts.append(value)
            kind, value, _ = self.peek()
            if kind == "sym" and value == ",":
                self.advance()
                continue
            self.expect_sym("]")
            return tuple(parts)


def parse_expression(text):
    """Parse an expression into a ProductExpr tree (or a single Scalar)."""
    return _Parser(text).parse()


def parse_scalar(text):
    """Parse a scalar expression into an exact RationalFunction."""
    node = _Parser(text).parse()
    if not isinstance(node, Scalar):
        raise ParseError("expected a scalar expression, got basis elements", 0, [])
    return node.value
