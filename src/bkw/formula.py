"""Formula AST, text parser, and printer for the two modal languages.

The relational language speaks about belief/assumption between type spaces
(`[ab]`, `Hab`, `<ab>`, the diagonal atoms `D` and `D+`); the topological
language speaks about each agent's belief/assumption operators (`Ba`, `Xa`,
`Ea`, the diagonal atom `Dt`) plus paraconsistent negation `~`.  Both share
one AST; the evaluators enforce the separation.
"""

from __future__ import annotations

from dataclasses import dataclass


class FormulaError(Exception):
    pass


class ParseError(FormulaError):
    """Syntax error with a character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class LanguageError(FormulaError):
    """A connective outside the evaluator's language was encountered."""


class Formula:
    def __str__(self) -> str:
        return to_text(self)


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class Top(Formula):
    pass


@dataclass(frozen=True)
class Bot(Formula):
    pass


@dataclass(frozen=True)
class Ua(Formula):
    """Type-space atom: true exactly at the first player's states."""


@dataclass(frozen=True)
class Ub(Formula):
    pass


@dataclass(frozen=True)
class Dclass(Formula):
    """Relational diagonal atom `D` (no edge returned by any successor)."""


@dataclass(frozen=True)
class Dplus(Formula):
    """Membership diagonal atom `D+` (no member contains the state back)."""


@dataclass(frozen=True)
class Dtopo(Formula):
    """Topological diagonal atom `Dt`."""


@dataclass(frozen=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True)
class Pneg(Formula):
    """Paraconsistent negation: closure of the complement."""

    body: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Imp(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula


def _check_dir(direction: str) -> None:
    if direction not in ("ab", "ba"):
        raise ValueError(f"modality direction must be 'ab' or 'ba', got {direction!r}")


def _check_agent(agent: str) -> None:
    if agent not in ("a", "b"):
        raise ValueError(f"agent must be 'a' or 'b', got {agent!r}")


@dataclass(frozen=True)
class Box(Formula):
    """Directed belief `[ij]`: every successor of the opposite type satisfies the body."""

    direction: str
    body: Formula

    def __post_init__(self) -> None:
        _check_dir(self.direction)


@dataclass(frozen=True)
class Heart(Formula):
    """Directed assumption `Hij`: the successors of the opposite type are exactly the body's states."""

    direction: str
    body: Formula

    def __post_init__(self) -> None:
        _check_dir(self.direction)


@dataclass(frozen=True)
class Diamond(Formula):
    direction: str
    body: Formula

    def __post_init__(self) -> None:
        _check_dir(self.direction)


@dataclass(frozen=True)
class TBel(Formula):
    """Topological belief `Bi`: the agent's image is contained in the body's extension."""

    agent: str
    body: Formula

    def __post_init__(self) -> None:
        _check_agent(self.agent)


@dataclass(frozen=True)
class TAsm(Formula):
    """Topological assumption `Xi`: the agent's image equals the body's extension."""

    agent: str
    body: Formula

    def __post_init__(self) -> None:
        _check_agent(self.agent)


@dataclass(frozen=True)
class TDia(Formula):
    agent: str
    body: Formula

    def __post_init__(self) -> None:
        _check_agent(self.agent)


MODAL_TYPES = (Box, Heart, Diamond, TBel, TAsm, TDia)

#: Words that cannot be used as plain atoms.
RESERVED_WORDS = frozenset(
    ["true", "false", "Ua", "Ub", "D", "D+", "Dt",
     "Hab", "Hba", "Ba", "Bb", "Xa", "Xb", "Ea", "Eb"]
)

_CONSTANTS = {
    "true": Top(),
    "false": Bot(),
    "Ua": Ua(),
    "Ub": Ub(),
    "D": Dclass(),
    "D+": Dplus(),
    "Dt": Dtopo(),
}

_PREFIXES = {
    "Hab": lambda f: Heart("ab", f),
    "Hba": lambda f: Heart("ba", f),
    "Ba": lambda f: TBel("a", f),
    "Bb": lambda f: TBel("b", f),
    "Xa": lambda f: TAsm("a", f),
    "Xb": lambda f: TAsm("b", f),
    "Ea": lambda f: TDia("a", f),
    "Eb": lambda f: TDia("b", f),
}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if text.startswith("<->", i):
            tokens.append(("<->", "<->", i))
            i += 3
        elif text.startswith("->", i):
            tokens.append(("->", "->", i))
            i += 2
        elif text.startswith("[ab]", i) or text.startswith("[ba]", i):
            tokens.append((text[i:i + 4], text[i:i + 4], i))
            i += 4
        elif text.startswith("<ab>", i) or text.startswith("<ba>", i):
            tokens.append((text[i:i + 4], text[i:i + 4], i))
            i += 4
        elif c in "&|!~()":
            tokens.append((c, c, i))
            i += 1
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word == "D" and j < n and text[j] == "+":
                word = "D+"
                j += 1
            tokens.append(("word", word, i))
            i = j
        else:
            raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("eof", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def formula(self) -> Formula:
        return self.iff()

    def iff(self) -> Formula:
        left = self.imp()
        if self.peek()[0] == "<->":
            self.take()
            return Iff(left, self.iff())
        return left

    def imp(self) -> Formula:
        left = self.disj()
        if self.peek()[0] == "->":
            self.take()
            return Imp(left, self.imp())
        return left

    def disj(self) -> Formula:
        left = self.conj()
        while self.peek()[0] == "|":
            self.take()
            left = Or(left, self.conj())
        return left

    def conj(self) -> Formula:
        left = self.unary()
        while self.peek()[0] == "&":
            self.take()
            left = And(left, self.unary())
        return left

    def unary(self) -> Formula:
        kind, value, pos = self.peek()
        if kind == "!":
            self.take()
            return Not(self.unary())
        if kind == "~":
            self.take()
            return Pneg(self.unary())
        if kind in ("[ab]", "[ba]"):
            self.take()
            return Box(value[1:3], self.unary())
        if kind in ("<ab>", "<ba>"):
            self.take()
            return Diamond(value[1:3], self.unary())
        if kind == "word" and value in _PREFIXES:
            self.take()
            return _PREFIXES[value](self.unary())
        return self.atom()

    def atom(self) -> Formula:
        kind, value, pos = self.take()
        if kind == "(":
            inner = self.formula()
            k, _, p = self.take()
            if k != ")":
                raise ParseError("expected ')'", p)
            return inner
        if kind == "word":
            if value in _CONSTANTS:
                return _CONSTANTS[value]
            if value in RESERVED_WORDS:
                raise ParseError(f"reserved word {value!r} cannot stand alone", pos)
            return Atom(value)
        raise ParseError(f"expected a formula, found {value or 'end of input'!r}", pos)


def parse(text: str) -> Formula:
    """Parse a formula from text; raises ParseError with a position."""
    if not text.strip():
        raise ParseError("empty formula", 0)
    parser = _Parser(_tokenize(text))
    try:
        result = parser.formula()
    except RecursionError:
        raise ParseError("formula nested too deeply", parser.peek()[2]) from None
    kind, value, pos = parser.peek()
    if kind != "eof":
        raise ParseError(f"unexpected trailing input {value!r}", pos)
    return result


# The printer's tables.  Precedence climbs from <-> (0) to the prefix
# operators (4); an operand is parenthesized when its connective binds
# less tightly than its position requires, which only a binary one can.
_LEAF_TEXT = {Top: "true", Bot: "false", Ua: "Ua", Ub: "Ub",
              Dclass: "D", Dplus: "D+", Dtopo: "Dt"}
#: connective -> (precedence, infix, least precedence of the left and of
#: the right operand shown without parentheses)
_INFIX = {Iff: (0, " <-> ", 1, 0), Imp: (1, " -> ", 2, 1),
          Or: (2, " | ", 2, 3), And: (3, " & ", 3, 4)}
_PREFIX = {Not: lambda f: "!", Pneg: lambda f: "~",
           Box: lambda f: f"[{f.direction}] ", Diamond: lambda f: f"<{f.direction}> ",
           Heart: lambda f: f"H{f.direction} ", TBel: lambda f: f"B{f.agent} ",
           TAsm: lambda f: f"X{f.agent} ", TDia: lambda f: f"E{f.agent} "}


def to_text(f: Formula) -> str:
    """Render a formula so that parse(to_text(f)) == f.

    Iterative, so it prints a formula of any depth: the stack holds the
    text still to come in reverse order, as literal strings and as
    (subformula, least precedence shown without parentheses) pairs.
    """
    out: list[str] = []
    stack: list = [(f, 0)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        g, least = item
        t = type(g)
        if t in _PREFIX:
            out.append(_PREFIX[t](g))
            stack.append((g.body, 4))
        elif t in _INFIX:
            prec, infix, left, right = _INFIX[t]
            if prec < least:
                out.append("(")
                stack.append(")")
            stack += ((g.right, right), infix, (g.left, left))
        elif t is Atom:
            out.append(g.name)
        elif t in _LEAF_TEXT:
            out.append(_LEAF_TEXT[t])
        else:
            raise TypeError(f"not a formula: {g!r}")
    return "".join(out)


def modal_depth(f: Formula) -> int:
    """Nesting depth of modal constructors."""
    if isinstance(f, MODAL_TYPES):
        return 1 + modal_depth(f.body)
    if isinstance(f, (Not, Pneg)):
        return modal_depth(f.body)
    if isinstance(f, (And, Or, Imp, Iff)):
        return max(modal_depth(f.left), modal_depth(f.right))
    return 0
