"""Parser for NDL operator text.

One regular-expression scan makes ``(kind, text, offset)`` tokens, reads
``/\\`` as ``,`` and fails on the first character that starts no token.
``FORMS`` gives each atom head its AST class and argument slots, and one
loop over the slots parses every atom.  Line and column are computed from
an offset only when an error is raised.
"""

from __future__ import annotations

import re

from noodle.lang.ast import ConstraintAtom, Iterate, Program, Redirect, Swap, Var

# atom head -> (AST class, slots); "name" and "var" slots read one
# identifier, "body" a parenthesized conjunction, any other slot is itself
FORMS = {
    "constraint": (ConstraintAtom, ("name", ",", "var", ",", "var")),
    "swap_values": (Swap, ("var", ",", "var")),
    "redirect": (Redirect, ("var", ",", "var")),
    "iterate": (Iterate, ("var", "-", "var", ",", "var", ",", "body")),
}
# Rendering, analysis and execution recurse once per iterate level;
# evolved programs nest about 4 deep under the default depth limit.
MAX_ITERATE_NESTING = 100

_VAR_RE = re.compile(r"t\d+\Z")
IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# whitespace is an alternative of its own: a \s* prefix on every token
# backtracks quadratically over a long run of blanks
_TOKEN_RE = re.compile(rf"(?P<space>\s+)|(?P<punct>/\\|[(),-])|(?P<ident>{IDENT_RE.pattern})|(?P<other>.)", re.DOTALL)


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        self.message, self.line, self.column = message, line, column
        super().__init__(f"{line}:{column}: {message}")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = self.nesting = 0
        self.tokens = []
        for match in _TOKEN_RE.finditer(text):
            kind, token = match.lastgroup, match.group()
            if kind == "other":
                self.error(f"unexpected character {token!r}", match.start())
            if kind != "space":
                self.tokens.append((kind, "," if token == "/\\" else token, match.start()))
        self.tokens.append(("eof", "", len(text)))

    def error(self, message: str, offset: int | None = None):
        offset = self.tokens[self.pos][2] if offset is None else offset
        line = self.text.count("\n", 0, offset) + 1
        raise ParseError(message, line, offset - self.text.rfind("\n", 0, offset))

    def expect(self, text: str, context: str) -> None:
        kind, found, _ = self.tokens[self.pos]
        if found != text:
            if kind == "eof":
                self.error(f"unexpected end of input, expected {text!r} {context}")
            if {text, found} == {",", ")"}:  # one argument short or over
                self.error(f"too {'few' if text == ',' else 'many'} arguments {context}")
            self.error(f"expected {text!r} {context}, found {found!r}")
        self.pos += 1

    def parse_conj(self) -> tuple:
        atoms = [self.parse_atom()]
        while self.tokens[self.pos][1] == ",":
            self.pos += 1
            atoms.append(self.parse_atom())
        return tuple(atoms)

    def parse_atom(self):
        kind, head, offset = self.tokens[self.pos]
        if kind != "ident":
            self.error(f"expected an atom, found {head!r}")
        if head not in FORMS:
            self.error(f"unknown atom head {head!r}")
        self.pos += 1
        build, slots = FORMS[head]
        ctx = f"in {head}"
        self.expect("(", ctx)
        if build is Iterate and self.nesting == MAX_ITERATE_NESTING:
            self.error(f"iterate nested more than {MAX_ITERATE_NESTING} deep", offset)
        args = []
        for slot in slots:
            kind, text, _ = self.tokens[self.pos]
            if slot == "body":
                self.expect("(", "opening iterate body")
                self.nesting += 1
                args.append(self.parse_conj())
                self.nesting -= 1
                self.expect(")", "closing iterate body")
            elif slot == "name":
                if kind != "ident":
                    self.error(f"expected a constraint name {ctx}, found {text!r}")
                args.append(text)
                self.pos += 1
            elif slot == "var":
                if kind != "ident" or not _VAR_RE.match(text):
                    self.error(f"expected a program variable (t0, t1, ...) {ctx}, found {text!r}")
                try:
                    args.append(Var(index=int(text[1:])))
                except ValueError:  # more digits than int() converts
                    self.error(f"program variable index too long {ctx}")
                self.pos += 1
            else:
                self.expect(slot, ctx)
        self.expect(")", ctx)
        return build(*args)


def parse(text: str) -> Program:
    """Parse NDL text into a :class:`Program`; raises :class:`ParseError`."""
    parser = _Parser(text)
    if parser.tokens[0][0] == "eof":
        parser.error("empty program")
    body = parser.parse_conj()
    kind, found, _ = parser.tokens[parser.pos]
    if kind != "eof":
        parser.error(f"unexpected trailing input {found!r}")
    return Program(body=body)
