"""Recursive-descent parser for NDL operator text."""

from __future__ import annotations

import re
from dataclasses import dataclass

from noodle.lang.ast import ConstraintAtom, Iterate, Program, Redirect, Swap, Var

ATOM_HEADS = ("constraint", "swap_values", "redirect", "iterate")
# Rendering, analysis and execution recurse once per iterate level;
# evolved programs nest about 4 deep under the default depth limit.
MAX_ITERATE_NESTING = 100

_VAR_RE = re.compile(r"t\d+\Z")
IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        self.line = line
        self.column = column
        super().__init__(f"{line}:{column}: {message}")


@dataclass(frozen=True)
class _Token:
    kind: str  # IDENT, PUNCT, EOF
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, column = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            column = 1
            i += 1
            continue
        if ch.isspace():
            column += 1
            i += 1
            continue
        if text.startswith("/\\", i):
            tokens.append(_Token("PUNCT", ",", line, column))
            i += 2
            column += 2
            continue
        if ch in "(),-":
            tokens.append(_Token("PUNCT", ch, line, column))
            i += 1
            column += 1
            continue
        m = IDENT_RE.match(text, i)
        if m:
            tokens.append(_Token("IDENT", m.group(), line, column))
            column += len(m.group())
            i = m.end()
            continue
        raise ParseError(f"unexpected character {ch!r}", line, column)
    tokens.append(_Token("EOF", "", line, column))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.nesting = 0

    @property
    def current(self) -> _Token:
        return self.tokens[self.pos]

    def error(self, message: str, token: _Token | None = None):
        tok = token or self.current
        raise ParseError(message, tok.line, tok.column)

    def advance(self) -> _Token:
        tok = self.current
        self.pos += 1
        return tok

    def expect(self, text: str, context: str) -> _Token:
        tok = self.current
        if tok.kind == "EOF":
            self.error(f"unexpected end of input, expected {text!r} {context}")
        if tok.text != text:
            if text == "," and tok.text == ")":
                self.error(f"too few arguments {context}")
            if text == ")" and tok.text == ",":
                self.error(f"too many arguments {context}")
            self.error(f"expected {text!r} {context}, found {tok.text!r}")
        return self.advance()

    def parse_program(self) -> Program:
        if self.current.kind == "EOF":
            self.error("empty program")
        body = self.parse_conj()
        if self.current.kind != "EOF":
            self.error(f"unexpected trailing input {self.current.text!r}")
        return Program(body=body)

    def parse_conj(self) -> tuple:
        atoms = [self.parse_atom()]
        while self.current.text == ",":
            self.advance()
            atoms.append(self.parse_atom())
        return tuple(atoms)

    def parse_var(self, context: str) -> Var:
        tok = self.current
        if tok.kind != "IDENT" or not _VAR_RE.match(tok.text):
            self.error(f"expected a program variable (t0, t1, ...) {context}, found {tok.text!r}")
        self.advance()
        return Var(index=int(tok.text[1:]))

    def parse_name(self, context: str) -> str:
        tok = self.current
        if tok.kind != "IDENT":
            self.error(f"expected a constraint name {context}, found {tok.text!r}")
        self.advance()
        return tok.text

    def parse_atom(self):
        tok = self.current
        if tok.kind != "IDENT":
            self.error(f"expected an atom, found {tok.text!r}")
        if tok.text not in ATOM_HEADS:
            self.error(f"unknown atom head {tok.text!r}")
        head = self.advance().text
        ctx = f"in {head}"
        self.expect("(", ctx)
        if head == "constraint":
            name = self.parse_name(ctx)
            self.expect(",", ctx)
            a = self.parse_var(ctx)
            self.expect(",", ctx)
            b = self.parse_var(ctx)
            self.expect(")", ctx)
            return ConstraintAtom(name=name, a=a, b=b)
        if head in ("swap_values", "redirect"):
            a = self.parse_var(ctx)
            self.expect(",", ctx)
            b = self.parse_var(ctx)
            self.expect(")", ctx)
            return Swap(a=a, b=b) if head == "swap_values" else Redirect(a=a, b=b)
        # iterate
        if self.nesting == MAX_ITERATE_NESTING:
            self.error(f"iterate nested more than {MAX_ITERATE_NESTING} deep", tok)
        x = self.parse_var(ctx)
        self.expect("-", ctx)
        y = self.parse_var(ctx)
        self.expect(",", ctx)
        start = self.parse_var(ctx)
        self.expect(",", ctx)
        self.expect("(", "opening iterate body")
        self.nesting += 1
        body = self.parse_conj()
        self.nesting -= 1
        self.expect(")", "closing iterate body")
        self.expect(")", ctx)
        return Iterate(x=x, y=y, start=start, body=body)


def parse(text: str) -> Program:
    """Parse NDL text into a :class:`Program`; raises :class:`ParseError`."""
    return _Parser(_tokenize(text)).parse_program()
