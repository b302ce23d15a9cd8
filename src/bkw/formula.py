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


# Precedence levels used by the printer; parenthesize a child whose level is
# below what its context requires.
_BINARY_PREC = {Iff: 0, Imp: 1, Or: 2, And: 3}


def _prec(f: Formula) -> int:
    t = type(f)
    if t in _BINARY_PREC:
        return _BINARY_PREC[t]
    if isinstance(f, (Not, Pneg) + MODAL_TYPES):
        return 4
    return 5


def _wrap(f: Formula, minimum: int) -> str:
    text = to_text(f)
    return f"({text})" if _prec(f) < minimum else text


def to_text(f: Formula) -> str:
    """Render a formula so that parse(to_text(f)) == f."""
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Top):
        return "true"
    if isinstance(f, Bot):
        return "false"
    if isinstance(f, Ua):
        return "Ua"
    if isinstance(f, Ub):
        return "Ub"
    if isinstance(f, Dclass):
        return "D"
    if isinstance(f, Dplus):
        return "D+"
    if isinstance(f, Dtopo):
        return "Dt"
    if isinstance(f, Not):
        return "!" + _wrap(f.body, 4)
    if isinstance(f, Pneg):
        return "~" + _wrap(f.body, 4)
    if isinstance(f, Box):
        return f"[{f.direction}] " + _wrap(f.body, 4)
    if isinstance(f, Diamond):
        return f"<{f.direction}> " + _wrap(f.body, 4)
    if isinstance(f, Heart):
        return f"H{f.direction} " + _wrap(f.body, 4)
    if isinstance(f, TBel):
        return f"B{f.agent} " + _wrap(f.body, 4)
    if isinstance(f, TAsm):
        return f"X{f.agent} " + _wrap(f.body, 4)
    if isinstance(f, TDia):
        return f"E{f.agent} " + _wrap(f.body, 4)
    if isinstance(f, And):
        return _wrap(f.left, 3) + " & " + _wrap(f.right, 4)
    if isinstance(f, Or):
        return _wrap(f.left, 2) + " | " + _wrap(f.right, 3)
    if isinstance(f, Imp):
        return _wrap(f.left, 2) + " -> " + _wrap(f.right, 1)
    if isinstance(f, Iff):
        return _wrap(f.left, 1) + " <-> " + _wrap(f.right, 0)
    raise TypeError(f"not a formula: {f!r}")


def modal_depth(f: Formula) -> int:
    """Nesting depth of modal constructors."""
    if isinstance(f, MODAL_TYPES):
        return 1 + modal_depth(f.body)
    if isinstance(f, (Not, Pneg)):
        return modal_depth(f.body)
    if isinstance(f, (And, Or, Imp, Iff)):
        return max(modal_depth(f.left), modal_depth(f.right))
    return 0
