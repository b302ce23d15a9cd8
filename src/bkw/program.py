"""One compiled formula program and one mask evaluator for all three semantics.

A set of formulas compiles to a flat op list in which every distinct
subformula is one op.  ``run`` evaluates the ops over a ``Frame``, one
extension mask per op, bit ``i`` standing for state ``i``.  A mask is
either a Python ``int`` (one model) or a numpy ``uint8`` array with one
lane per candidate model (a sweep: frames have at most 5 states and
membership graphs at most 4 nodes, so a byte holds a mask).  Both
support the same ``& | ^ == >>`` operators, so the one loop serves both,
and its results keep the dtype of the rows.  The type masks ``ua``/``ub``
are plain ints, or lane arrays when each lane has its own types (a
sweep's judged chunk of class representatives, a frame lane's rows empty
past its own k states).  The types cover the states in every
semantics, so the states of a lane are ``full = ua | ub``, read by
``true``, ``!`` and ``D``.  A modality loops over the union of its
lanes' sources, a Python int, and keeps only each lane's own (``& src``).

Each modality rule is one helper whose body is one mask or an (m, lanes)
stack of them, broadcast against the successor rows.  On lanes, ``run``
evaluates a modal op with the ops of its (code, side) that follow it and
read only masks from before it, as one stack of at most ``_STACK_BYTES``:
a sweep's program (theorem 2.2's family) has runs of up to 84 such ops,
and one broadcast per run replaces a few numpy calls per op and state on
short lanes.  Python-int frames never stack.

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

    formulas = list(formulas)  # alive to the end, so no id in ``seen`` is reused
    return ops, [emit(f) for f in formulas]


class Frame(NamedTuple):
    """What ``run`` needs to know about a model (or a block of lanes).

    ``rows[w]`` is the successor (member, image) mask of state ``w``.  The
    heart rule of ``Hij``/``Xi`` at a source state with image ``img =
    row & tgt``: ``frame`` asks ``img == body``, ``local`` asks ``img ==
    body & tgt``, ``membership`` asks ``body & (row | self) == img``.
    ``neg`` is the frame's negation of a mask, read by ``~`` and by the
    diagonal: ``complement(k)``, or the closure of the complement.
    ``ua``/``ub`` are ints, or one mask per lane; either way they cover
    the states.
    """

    k: int
    ua: object
    ub: object
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


#: The byte cap on one stacked run of modal ops, and so on each temporary
#: of its shape: 1/128 of the harness's chunk budget, as for its
#: ``_stacked`` formula blocks, so the rows of a wide chunk stay in cache.
_STACK_BYTES = 1 << 17

# The modality rules.  Each marks the states of ``src`` (the source type,
# a Python int: with per-lane types, the union of the lanes' sources) whose
# successor row passes its test against ``body``, which is one mask or an
# (m, lanes) stack of them, one row per formula, broadcast against each
# row; the result has the body's shape, or is 0 when ``src`` is empty.


def _box(rows: Sequence, src: int, tgt: int, body, one):
    """``[ij]``/``Bi``: no successor in ``tgt`` falls outside the body."""
    miss = tgt & ~body
    r = 0
    for w, row in enumerate(rows):
        if src >> w & 1:
            r = r | (row & miss == 0) * (one << w)
    return r


def _diamond(rows: Sequence, src: int, tgt: int, body, one):
    """``<ij>``/``Ei``: some successor in ``tgt`` is in the body."""
    hit = tgt & body
    r = 0
    for w, row in enumerate(rows):
        if src >> w & 1:
            r = r | (row & hit != 0) * (one << w)
    return r


def _frame(rows: Sequence, src: int, tgt: int, body, one):
    """The heart rule ``frame``: the image ``row & tgt`` is the body."""
    r = 0
    for w, row in enumerate(rows):
        if src >> w & 1:
            r = r | (row & tgt == body) * (one << w)
    return r


def _local(rows: Sequence, src: int, tgt: int, body, one):
    """The heart rule ``local``: the image is the body within ``tgt``."""
    return _frame(rows, src, tgt, body & tgt, one)


def _membership(rows: Sequence, src: int, tgt: int, body, one):
    """The heart rule ``membership``: the body, read on the members and on
    the state itself, is the image."""
    r = 0
    for w, row in enumerate(rows):
        if src >> w & 1:
            r = r | (body & (row | 1 << w) == row & tgt) * (one << w)
    return r


#: Per heart rule: the rule of each modal code.
_RULES = {heart: {BOX: _box, DIA: _diamond, HEART: rule}
          for heart, rule in (("frame", _frame), ("local", _local), ("membership", _membership))}


def _run_end(ops: Sequence[tuple], start: int, height: int) -> int:
    """The end of the run of modal ops from ``start``: at most ``height``
    ops of one (code, side) whose bodies all come before the run."""
    head, end = ops[start][:2], start + 1
    stop = min(len(ops), start + height)
    while end < stop and ops[end][:2] == head and ops[end][2] < start:
        end += 1
    return end


def run(ops: Sequence[tuple], frame: Frame) -> list:
    """Evaluate compiled ops on a frame; one extension mask per op.

    On lanes, a modal op and the ops of its (code, side) that follow it
    and read only masks from before it are one run: their bodies are
    copied into one stack of at most _STACK_BYTES, the run is evaluated in
    one broadcast, and its rows are appended.  Python-int frames never stack.
    With per-lane types, the constant masks are lanes too, so no rule
    meets a Python-int body beside lane targets.
    """
    ua, ub, rows, atoms, heart = frame[1:6]
    full = ua | ub
    one = _one(rows)
    rules = _RULES[heart]
    height = 1 if isinstance(one, int) else max(1, _STACK_BYTES // rows[0].nbytes)
    zero, spans = 0, (ua, ub)
    if per_lane := not isinstance(full, int):
        import numpy as np  # a lane chunk, so numpy is loaded
        zero, spans = full ^ full, tuple(int(np.bitwise_or.reduce(t)) for t in spans)
    vals: list = []
    push = vals.append
    for i, op in enumerate(ops):
        if i < len(vals):
            continue  # evaluated with the stacked run it belongs to
        code = op[0]
        if code >= BOX:
            src, tgt = (ua, ub) if op[1] == 0 else (ub, ua)
            span = spans[op[1]]
            if height == 1 or (end := _run_end(ops, i, height)) == i + 1:
                r = rules[code](rows, span, tgt, vals[op[2]], one)
                push(r & src if per_lane else r)
                continue
            import numpy as np  # lanes only: one-model calls never load numpy
            stack = np.empty((end - i, len(rows[0])), rows[0].dtype)
            for j, (_, _, body) in enumerate(ops[i:end]):
                stack[j] = vals[body]  # also broadcasts the Python-int constants
            r = rules[code](rows, span, tgt, stack, one)
            r = r & src if per_lane else r
            vals.extend(r if span else [r] * (end - i))
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
            push(zero)
        elif code == ATOM:
            push(atoms.get(op[1], 0) | zero)  # a Python-int valuation too is lanes
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
