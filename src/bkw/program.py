"""One compiled formula program and one mask evaluator for all three semantics.

A set of formulas compiles to a flat op list in which every distinct
subformula is one op.  ``run`` evaluates the ops over a ``Frame``, one
extension mask per op, bit ``i`` standing for state ``i``.  A mask is
either a Python ``int`` (one model) or a numpy ``uint8`` array with one
lane per candidate model (a sweep: frames have at most 5 states and
membership graphs at most 4 nodes, so a byte holds a mask).  Both
support the same ``& | ^ == >>`` operators, so the one loop serves both,
and its results keep the dtype of the rows.  Within a lane block the
type masks ``ua``/``ub`` and the constants are plain ints, so the
per-state skip of states outside the modality's source type is the same
in both cases.

The three semantics differ only in the frame: the successor rows, the
heart rule of the assumption modality, and the negation, which ``~`` and
the one diagonal of ``D``, ``D+`` and ``Dt`` (``no_return``) both read.
"""

from __future__ import annotations

from functools import partial
from operator import xor
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from . import formula as fm

TOP, BOT, UA, UB, ATOM, DIAG = range(6)
NOT, PNEG, AND, OR, IMP, IFF = range(6, 12)
BOX, HEART, DIA = range(12, 15)

_CODES = {fm.Top: TOP, fm.Bot: BOT, fm.Ua: UA, fm.Ub: UB, fm.Atom: ATOM,
          fm.Dclass: DIAG, fm.Dplus: DIAG, fm.Dtopo: DIAG,
          fm.Not: NOT, fm.Pneg: PNEG, fm.And: AND, fm.Or: OR, fm.Imp: IMP, fm.Iff: IFF,
          fm.Box: BOX, fm.Heart: HEART, fm.Diamond: DIA,
          fm.TBel: BOX, fm.TAsm: HEART, fm.TDia: DIA}
_CORE = (fm.Top, fm.Bot, fm.Ua, fm.Ub, fm.Atom, fm.Not, fm.And, fm.Or, fm.Imp, fm.Iff)
_RELATIONAL = (fm.Box, fm.Heart, fm.Diamond)

#: Per language: its name in error messages and the connectives it has
#: (the boolean core, its diagonal atom and its modalities).
LANGUAGES = {
    "kripke": ("relational", frozenset(_CORE + (fm.Dclass,) + _RELATIONAL)),
    "nwf": ("membership", frozenset(_CORE + (fm.Dplus,) + _RELATIONAL)),
    "topo": ("topological", frozenset(_CORE + (fm.Dtopo, fm.Pneg, fm.TBel, fm.TAsm, fm.TDia))),
}


def compile_program(formulas: Iterable[fm.Formula], language: str,
                    atoms: Iterable[str] | None = None) -> tuple[list[tuple], list[int]]:
    """Flatten formulas into ops; returns (ops, slots), where the op at
    ``slots[i]`` computes the extension of ``formulas[i]``.

    Equal subformulas share one op: an op is keyed by its code and the
    indices of its operands, so no formula is hashed below the top level.
    Connectives outside ``language`` raise ``LanguageError``.  A sweep
    passes the atoms it enumerates as ``atoms``, and any other atom raises
    ``LanguageError`` too; ``None`` admits every atom (a model reads an
    atom it does not value as empty).
    """
    name, connectives = LANGUAGES[language]
    allowed = None if atoms is None else frozenset(atoms)
    ops: list[tuple] = []
    slot_of: dict[tuple, int] = {}
    seen: dict[int, int] = {}  # id of a formula object -> its op index

    def emit(f: fm.Formula) -> int:
        slot = seen.get(id(f))
        if slot is not None:
            return slot
        t = type(f)
        if t not in connectives:
            raise fm.LanguageError(
                f"connective {t.__name__} is not part of the {name} language")
        code = _CODES[t]
        if code >= BOX:  # a modality whose source type is a ("ab", agent "a") or b
            side = f.direction[0] if t in _RELATIONAL else f.agent
            op = (code, 0 if side == "a" else 1, emit(f.body))
        elif code == DIAG:  # Dt is restricted to A's points, D and D+ are not
            op = (DIAG, t is fm.Dtopo)
        elif code >= AND:
            op = (code, emit(f.left), emit(f.right))
        elif code >= NOT:
            op = (code, emit(f.body))
        elif code == ATOM:
            if allowed is not None and f.name not in allowed:
                raise fm.LanguageError(
                    f"atom {f.name!r} is not enumerated by this sweep")
            op = (ATOM, f.name)
        else:
            op = (code,)
        slot = slot_of.setdefault(op, len(ops))
        if slot == len(ops):
            ops.append(op)
        seen[id(f)] = slot
        return slot

    return ops, [emit(f) for f in formulas]


class Frame(NamedTuple):
    """What ``run`` needs to know about a model (or a block of lanes).

    ``rows[w]`` is the successor (member, image) mask of state ``w``.  The
    heart rule of ``Hij``/``Xi`` at a source state with image ``img =
    row & tgt``: ``frame`` asks ``img == body``, ``local`` asks ``img ==
    body & tgt``, ``membership`` asks ``body & (row | self) == img``.
    ``neg`` is the frame's negation of a mask, read by ``~`` and by the
    diagonal: ``complement(k)``, or the closure of the complement.
    """

    k: int
    ua: int
    ub: int
    rows: Sequence
    atoms: Mapping[str, object]
    heart: str
    neg: Callable


def complement(k: int) -> Callable:
    """The classical negation on k states: a mask's complement."""
    return partial(xor, (1 << k) - 1)


def _one(rows: Sequence):
    """1 as a scalar of the rows' lane dtype (a Python int for one model).
    A bool lane times ``one << w`` keeps the lane dtype; shifted by a
    Python int it would widen to int64."""
    return rows[0].dtype.type(1) if rows and hasattr(rows[0], "dtype") else 1


def no_return(rows: Sequence, neg: Callable, src):
    """The states w in ``src`` each of whose successors z has w in
    ``neg(rows[z])`` (Lawvere 1969); under the complement, no z has w back."""
    one = _one(rows)
    negs = [neg(row) for row in rows]
    d = 0
    for w, row in enumerate(rows):
        off = ~row  # bit z: z is not a successor of w
        ok = off | negs[0] >> w
        for z in range(1, len(rows)):
            ok = ok & (off >> z | negs[z] >> w)
        d = d | (ok & 1) * (src & one << w)
    return d


def run(ops: Sequence[tuple], frame: Frame) -> list:
    """Evaluate compiled ops on a frame; one extension mask per op."""
    k, ua, ub, rows, atoms, heart = frame[:6]
    full = (1 << k) - 1
    one = _one(rows)
    states = range(k)
    vals: list = []
    push = vals.append
    for op in ops:
        code = op[0]
        if code >= BOX:
            src, tgt = (ua, ub) if op[1] == 0 else (ub, ua)
            body = vals[op[2]]
            r = 0
            if code == BOX:
                miss = tgt & ~body
                for w in states:
                    if src >> w & 1:
                        r = r | (rows[w] & miss == 0) * (one << w)
            elif code == DIA:
                hit = tgt & body
                for w in states:
                    if src >> w & 1:
                        r = r | (rows[w] & hit != 0) * (one << w)
            elif heart == "membership":
                for w in states:
                    if src >> w & 1:
                        r = r | (body & (rows[w] | 1 << w) == rows[w] & tgt) * (one << w)
            else:
                want = body if heart == "frame" else body & tgt
                for w in states:
                    if src >> w & 1:
                        r = r | (rows[w] & tgt == want) * (one << w)
            push(r)
        elif code == AND:
            push(vals[op[1]] & vals[op[2]])
        elif code == OR:
            push(vals[op[1]] | vals[op[2]])
        elif code == NOT:
            push(vals[op[1]] ^ full)
        elif code == IMP:
            push((vals[op[1]] ^ full) | vals[op[2]])
        elif code == IFF:
            push(vals[op[1]] ^ vals[op[2]] ^ full)
        elif code == UA:
            push(ua)
        elif code == UB:
            push(ub)
        elif code == TOP:
            push(full)
        elif code == BOT:
            push(0)
        elif code == ATOM:
            push(atoms.get(op[1], 0))
        elif code == DIAG:
            push(no_return(rows, frame.neg, ua if op[1] else full))
        else:
            push(frame.neg(vals[op[1]]))
    return vals


def masker(names: Sequence[str]) -> Callable[[Iterable[str]], int]:
    """The mask of a set of names, bit i standing for names[i]."""
    bit = {n: 1 << i for i, n in enumerate(names)}.__getitem__
    return lambda members: sum(map(bit, members))


def names_of(names: Sequence[str], mask: int) -> frozenset:
    return frozenset(n for i, n in enumerate(names) if mask >> i & 1)


def model_frame(names: Sequence[str], ua, ub, rows: Iterable, val: Mapping,
                heart: str, neg: Callable) -> Frame:
    """The frame of one model whose sets are given by name; bit i is names[i]."""
    mask = masker(names)
    return Frame(len(names), mask(ua), mask(ub), [mask(row) for row in rows],
                 {atom: mask(sts) for atom, sts in val.items()}, heart, neg)


def extension(f: fm.Formula, language: str, names: Sequence[str], frame: Frame) -> frozenset:
    """The names of the states of one model's frame that satisfy f."""
    ops, (slot,) = compile_program([f], language)
    return names_of(names, run(ops, frame)[slot])
