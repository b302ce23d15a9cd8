"""Formula AST, text parser, and printer for the two modal languages.

The relational language speaks about belief/assumption between type spaces
(`[ab]`, `Hab`, `<ab>`, the diagonal atoms `D` and `D+`); the topological
language speaks about each agent's belief/assumption operators (`Ba`, `Xa`,
`Ea`, the diagonal atom `Dt`) plus paraconsistent negation `~`.  Both share
one AST; the evaluators enforce the separation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial


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
    """A node of the AST.  ``==`` and ``repr()`` walk the tree with an
    explicit stack, reading a node's fields in order from its
    ``__match_args__``, and ``hash()`` hashes the ``to_text`` of the
    formula, so all three take a formula of any depth."""

    def __str__(self) -> str:
        return to_text(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Formula):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            f, g = stack.pop()
            if f is g:
                continue
            if type(f) is not type(g):
                return False
            for name in type(f).__match_args__:
                x, y = getattr(f, name), getattr(g, name)
                if isinstance(x, Formula):
                    stack.append((x, y))
                elif x != y:
                    return False
        return True

    def __hash__(self) -> int:
        return hash(to_text(self))  # equal formulas print alike

    def __repr__(self) -> str:
        out: list[str] = []
        stack: list = [self]  # the text still to come, in reverse order
        while stack:
            item = stack.pop()
            if type(item) is str:
                out.append(item)
                continue
            out.append(type(item).__qualname__ + "(")
            parts: list = []
            for i, name in enumerate(type(item).__match_args__):
                value = getattr(item, name)
                parts += [", " * (i > 0) + name + "=",
                          value if isinstance(value, Formula) else repr(value)]
            stack += [")", *reversed(parts)]
        return "".join(out)


# Every node is a frozen dataclass whose ==, hash and repr are Formula's.
_node = dataclass(frozen=True, eq=False, repr=False)


@_node
class Atom(Formula):
    name: str


@_node
class Top(Formula):
    pass


@_node
class Bot(Formula):
    pass


@_node
class Ua(Formula):
    """Type-space atom: true exactly at the first player's states."""


@_node
class Ub(Formula):
    pass


@_node
class Dclass(Formula):
    """Relational diagonal atom `D` (no edge returned by any successor)."""


@_node
class Dplus(Formula):
    """Membership diagonal atom `D+` (no member contains the state back)."""


@_node
class Dtopo(Formula):
    """Topological diagonal atom `Dt`."""


@_node
class Not(Formula):
    body: Formula


@_node
class Pneg(Formula):
    """Paraconsistent negation: closure of the complement."""

    body: Formula


@_node
class And(Formula):
    left: Formula
    right: Formula


@_node
class Or(Formula):
    left: Formula
    right: Formula


@_node
class Imp(Formula):
    left: Formula
    right: Formula


@_node
class Iff(Formula):
    left: Formula
    right: Formula


# The six modalities subclass one of two frozen bases, which hold the
# fields and the check; repr, == and hash see the subclass, so
# Box("ab", p) != Heart("ab", p).
@_node
class _Directed(Formula):
    """A modality between the type spaces, read in `direction` 'ab' or 'ba'."""

    direction: str
    body: Formula

    def __post_init__(self) -> None:
        if self.direction not in ("ab", "ba"):
            raise ValueError(f"modality direction must be 'ab' or 'ba', got {self.direction!r}")


@_node
class _Agentive(Formula):
    """A modality of one agent, 'a' or 'b'."""

    agent: str
    body: Formula

    def __post_init__(self) -> None:
        if self.agent not in ("a", "b"):
            raise ValueError(f"agent must be 'a' or 'b', got {self.agent!r}")


class Box(_Directed):
    """Directed belief `[ij]`: every successor of the opposite type satisfies the body."""


class Heart(_Directed):
    """Directed assumption `Hij`: the successors of the opposite type are exactly the body's states."""


class Diamond(_Directed):
    """Directed possibility `<ij>`: some successor of the opposite type satisfies the body."""


class TBel(_Agentive):
    """Topological belief `Bi`: the agent's image is contained in the body's extension."""


class TAsm(_Agentive):
    """Topological assumption `Xi`: the agent's image equals the body's extension."""


class TDia(_Agentive):
    """Topological possibility `Ei`: the agent's image meets the body's extension."""


MODAL_TYPES = (Box, Heart, Diamond, TBel, TAsm, TDia)

# The grammar, written once: the parser reads these three tables and the
# printer's tables below are computed from them.
#: word -> the leaf it names
_CONSTANTS = {"true": Top(), "false": Bot(), "Ua": Ua(), "Ub": Ub(),
              "D": Dclass(), "D+": Dplus(), "Dt": Dtopo()}
#: prefix token -> constructor of the node over its operand
_PREFIXES = {"!": Not, "~": Pneg,
             "[ab]": partial(Box, "ab"), "[ba]": partial(Box, "ba"),
             "Hab": partial(Heart, "ab"), "Hba": partial(Heart, "ba"),
             "<ab>": partial(Diamond, "ab"), "<ba>": partial(Diamond, "ba"),
             "Ba": partial(TBel, "a"), "Bb": partial(TBel, "b"),
             "Xa": partial(TAsm, "a"), "Xb": partial(TAsm, "b"),
             "Ea": partial(TDia, "a"), "Eb": partial(TDia, "b")}
#: infix token -> (precedence, constructor, associates to the right?).
#: Precedence climbs from <-> to &; every prefix binds tighter still.
_INFIX = {"<->": (0, Iff, True), "->": (1, Imp, True),
          "|": (2, Or, False), "&": (3, And, False)}

#: Words that cannot be used as plain atoms.
RESERVED_WORDS = frozenset(w for w in (*_CONSTANTS, *_PREFIXES) if w[0].isalpha())


#: The tokens that are not words, longest first.
_SYMBOL_TOKENS = sorted((t for t in (*_PREFIXES, *_INFIX, "(", ")") if not t[0].isalpha()),
                        key=len, reverse=True)
#: After any whitespace, one word (a constant spelled with "+", or a run
#: of \w), one symbol token, or the character that starts no token.
_TOKEN = re.compile(r"\s*(?:(%s|\w+)|(%s)|(\S))" % (
    "|".join(re.escape(w) for w in _CONSTANTS if w.endswith("+")),
    "|".join(map(re.escape, _SYMBOL_TOKENS))))


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, value, position) tokens ending in eof: a word (or ``D+``) is
    kind "word", and a symbol token is its own kind.  A word starts with a
    letter or "_"."""
    tokens = []
    for match in _TOKEN.finditer(text):
        word, symbol, _ = match.groups()
        i = match.start(match.lastindex)
        if symbol:
            tokens.append((symbol, symbol, i))
        elif word and (word[0].isalpha() or word[0] == "_"):
            tokens.append(("word", word, i))
        else:
            raise ParseError(f"unexpected character {text[i]!r}", i)
    tokens.append(("eof", "", len(text)))
    return tokens


def parse(text: str) -> Formula:
    """Parse a formula from text; raises ParseError with a position.

    One loop over the tokens, so a formula of any depth parses.  The
    stack holds pending prefix constructors, open parentheses (as their
    position) and, for an infix operator still waiting for its right
    operand, (precedence, constructor, left operand).  `operand` is the
    formula just completed, or None while one is expected.
    """
    if not text.strip():
        raise ParseError("empty formula", 0)
    stack: list = []
    operand = None
    # the last token is eof, on which the loop returns or raises
    for kind, value, pos in _tokenize(text):
        if operand is None:
            if value in _PREFIXES:
                stack.append(_PREFIXES[value])
                continue
            if kind == "(":
                stack.append(pos)
                continue
            if kind != "word":
                raise ParseError(f"expected a formula, found {value or 'end of input'!r}", pos)
            operand = _CONSTANTS.get(value) or Atom(value)
        elif value in _INFIX:
            # the left operand takes every pending infix that binds at least
            # as tightly, or strictly more tightly if this one associates right
            prec, build, right = _INFIX[value]
            while stack and type(stack[-1]) is tuple and stack[-1][0] >= prec + right:
                _, inner, left = stack.pop()
                operand = inner(left, operand)
            stack.append((prec, build, operand))
            operand = None
            continue
        else:
            while stack and type(stack[-1]) is tuple:
                _, build, left = stack.pop()
                operand = build(left, operand)
            if not stack:
                if kind == "eof":
                    return operand
                raise ParseError(f"unexpected trailing input {value!r}", pos)
            if kind != ")":
                raise ParseError("expected ')'", pos)
            stack.pop()
        # a completed operand takes the prefixes pending on it
        while stack and callable(stack[-1]):
            operand = stack.pop()(operand)


def _prefix_texts() -> dict:
    """Prefix node type -> its token, or for a modality a dict from its
    direction or agent to its token; a token longer than one character
    is followed by a space."""
    texts: dict = {}
    for token, build in _PREFIXES.items():
        text = token if len(token) == 1 else token + " "
        if isinstance(build, partial):
            texts.setdefault(build.func, {})[build.args[0]] = text
        else:
            texts[build] = text
    return texts


# The printer's tables, computed from the grammar.  An operand is
# parenthesized when its connective binds less tightly than its position
# requires, which only a binary one can.
_LEAF_TEXT = {type(leaf): word for word, leaf in _CONSTANTS.items()}
_PREFIX_TEXT = _prefix_texts()
#: connective -> (precedence, infix text, least precedence of the left
#: and of the right operand shown without parentheses)
_INFIX_TEXT = {build: (prec, f" {token} ", prec + right, prec + (not right))
               for token, (prec, build, right) in _INFIX.items()}
#: least precedence of a prefix's operand: above every connective
_PREFIX_OPERAND = 1 + max(prec for prec, _, _ in _INFIX.values())


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
        if t in _INFIX_TEXT:
            prec, infix, left, right = _INFIX_TEXT[t]
            if prec < least:
                out.append("(")
                stack.append(")")
            stack += ((g.right, right), infix, (g.left, left))
        elif t is Atom:
            out.append(g.name)
        elif t in _LEAF_TEXT:
            out.append(_LEAF_TEXT[t])
        elif t in _PREFIX_TEXT:
            text = _PREFIX_TEXT[t]
            if type(text) is dict:
                text = text[g.direction if isinstance(g, _Directed) else g.agent]
            out.append(text)
            stack.append((g.body, _PREFIX_OPERAND))
        else:
            raise TypeError(f"not a formula: {g!r}")
    return "".join(out)


def modal_depth(f: Formula) -> int:
    """Nesting depth of modal constructors (iterative, so of any formula)."""
    depth = 0
    stack = [(f, 0)]
    while stack:
        g, d = stack.pop()
        if isinstance(g, MODAL_TYPES):
            stack.append((g.body, d + 1))
        elif isinstance(g, (Not, Pneg)):
            stack.append((g.body, d))
        elif isinstance(g, (And, Or, Imp, Iff)):
            stack += ((g.left, d), (g.right, d))
        else:
            depth = max(depth, d)
    return depth
