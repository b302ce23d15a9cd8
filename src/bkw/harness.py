"""Model enumeration, claim-verification campaigns, fixtures, and reports.

Campaigns sweep an exhaustively enumerated model space and record how a
named claim fares on every model.  They report; they do not assert.
Each model kind has one block enumerator, ``_relation_blocks`` for
classical frames and ``_membership_blocks`` for membership graphs, which
yields numpy lane chunks by one protocol (``_Block``): in judged blocks
of weighted lanes, and in labelled blocks of fixed int type masks, one
lane per candidate model (``_labelled`` reads the labelled blocks'
chunks in order).  Both tile and repeat the per-digit tables of one
mixed-radix chunker, ``_digits``: a frame's digits are its states'
successor rows (a serial frame's tables lack the empty row), a membership
graph's the valuation of p and each node's option.  A lane's record (its
place in the enumeration order, serial or not, the sum of its digits'
place values; it rises within a block) reads back as a compact record,
which ``_rebuild_kripke``/``_rebuild_hyperset`` turn into a model, as
the public ``enumerate_kripke``/``enumerate_hypersets`` do.

A block's class (``_class``) counts its Ua-only, Ub-only and shared
states.  A state permutation maps a block onto any other of its class,
and no claim names a state, so all its blocks have the same totals
(McKay 1998, the cheapest case).  A judged block holds the first block of
each class, its assignment sorted, each lane with its own type masks and
weighted by the class's size.  For frames, one judged block comes first,
built over the largest k by arithmetic on its lanes' numbers
(``_class_lanes``); for membership graphs, each size's judged block comes
ahead of its labelled blocks, its classes one ``_digits`` run, their
assignments the top digit.  The labelled blocks are read only for the
dumps: a block is skipped when no weighted lane of its class failed, and
left once no later lane of it can enter them.

A non-strict class is counted rather than enumerated: only ``D`` reads
the same-type edges, so it is judged on its strict cross relations, each
tiled over 2^k masks of D's same-type part and weighted by completions.
The 4-state classes are judged on 6,176 lanes instead of 327,680
frames, the 5-state ones on 278,592 instead of 201 M.  ``_run_sweep``
checks every sweep's model count against its closed form.

The lane campaigns (lemma1, theorem12, theorem22, theorem23,
validity_lists) are the entries of one table, ``_SWEEPS``, run by one
loop, ``_run_sweep``.  A judge runs the program (``program.run``) on a
chunk, adds its weighted counts and yields its failing lanes by dump
group, whose first ``_first_hits`` keeps: one group per claimed-valid
formula for validity_lists, one for the others.  ``_report`` writes the
report, the law campaigns' too.  The claims live next to their
single-model helpers in ``kripke`` and ``hyperset``, written over masks.
The membership theorems judge each state on ``_stacked`` blocks of
formula masks; theorem22 first drops the lanes with no urelement and no
Quine state, which hold and count as degenerate unevaluated.

The co-Heyting law campaigns run on point masks.  They read
``topology._hull_tables`` and build no ``ClosedTopology``: one call of
``_closure_table`` builds a carrier size's closure tables from its stack
of hull tables.  Its topologies are grouped by their count of closed sets,
and ``topology.MaskLattice`` over a lookup in the stacked tables gives
subtraction and negation for all closed triples (or sets) of a group in
one broadcast; the dumps are read in topology order all the same.  The
overlap law's boundary is read from the hulls instead, through each
point's least open neighbourhood, so that the law can fail.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import cache, partial
from itertools import product as iproduct
from math import comb, factorial, prod
from operator import itemgetter, xor
from typing import Callable, Hashable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import TARGETS
from . import formula as fm
from . import hyperset as hs
from . import kripke as kr
from . import lawvere as lv
from . import paratopo as pt
from . import program as pg
from . import topology as tp
from .modelio import dump_kripke, dump_nwf

_FAIL_DUMP_CAP = 5
_VIOLATIONS = "violation {} of {violations}"  # the dump title of most campaigns
#: The dtype of every lane mask (successor rows, urelements, valuations and
#: the extensions computed from them): frames have at most 5 states and
#: membership graphs at most 4 nodes, so a byte holds a mask.
_LANE = np.uint8
# Budget for the live lane masks of one sweep chunk, at one byte per lane
# and mask; a chunk's int64 record indices come on top, at eight bytes a lane.
_LANE_BYTES = 1 << 24


# ---------------------------------------------------------------------------
# Enumeration: one lane enumerator per model kind, one lane per candidate model


def _lane_width(ops: Sequence[tuple], k: int) -> int:
    """Lanes per chunk that keep a chunk's live masks (one per op and one
    successor row per state) within _LANE_BYTES."""
    return max(1, _LANE_BYTES // (np.dtype(_LANE).itemsize * (len(ops) + k)))


class _Lanes(NamedTuple):
    """A chunk of candidate models sharing k and the type masks (or, judged,
    each lane with its own); its successor rows, urelement masks and
    valuation are _LANE arrays."""

    record: np.ndarray  # each lane's position in its enumeration order (int64)
    ure: object  # the urelement masks (0 for frames)
    frame: pg.Frame
    #: per lane, how many models it stands for (int64); None: one each.  A
    #: weighted lane (a judged block, ``_class_lanes``) is counted, never
    #: dumped.
    weight: np.ndarray | None = None

    def count(self, per_lane: np.ndarray | None = None) -> int:
        """The models the lanes stand for, each ``per_lane`` (flag or count) times."""
        if self.weight is not None:
            return int(self.weight.sum() if per_lane is None else np.dot(self.weight, per_lane))
        return len(self.record) if per_lane is None else int(
            np.count_nonzero(per_lane) if per_lane.dtype == bool else per_lane.sum())

    def compact(self, lane: int) -> tuple:
        """Lane ``lane`` as a compact (k, rows, ure, ua, ub, pval) record,
        pval being the valuation of atom p."""
        f = self.frame
        at = lambda mask: int(mask[lane]) if isinstance(mask, np.ndarray) else mask
        return (f.k, tuple(map(at, f.rows)), at(self.ure), at(f.ua), at(f.ub),
                at(f.atoms.get("p", 0)))


class _Block(NamedTuple):
    """One block of an enumerator: its chunks, built only as they are read,
    and its class, the blocks whose totals are the same.  A judged block
    has no class and weighted lanes; a labelled block has a class and one
    lane per model, read only for the fail dumps.  An enumerator checks its
    bound first, and yields each judged block before the labelled blocks
    of its classes, those in record order."""

    cls: Hashable  # None: judged
    first: int  # no record of the block is below it
    chunks: Iterable[_Lanes]


def _labelled(blocks: Iterable[_Block]) -> Iterator[_Lanes]:
    """The chunks of the labelled blocks of ``blocks``, in order."""
    for block in blocks:
        if block.cls is not None:
            yield from block.chunks


def _relation_blocks(max_states: int, strict: bool, serial: bool, heart: str,
                     ops: Sequence[tuple]) -> Iterator[_Block]:
    """Every belief frame with up to ``max_states`` states: one judged block
    of weighted lanes, ``_class_lanes``, then one labelled block of class
    (|ua|, k - |ua|, 0) per (k, ua), in relation order within a block:
    state 0's successor row is the lowest digit (``_relation_chunks``).
    ``serial`` drops the frames with a state that has no successor.
    ``record`` is a frame's position in this order, counted before the
    serial filter.
    """
    if not 1 <= max_states <= 5:
        raise ValueError("state bound must be between 1 and 5")
    yield _Block(None, 0, _class_lanes(max_states, strict, serial, heart,
                                       _lane_width(ops, max_states)))
    offset = 0
    for k in range(1, max_states + 1):
        for ua in range(1 << k):
            a = ua.bit_count()
            yield _Block((a, k - a, 0), offset, _relation_chunks(
                k, ua, strict, offset, serial, heart, _lane_width(ops, k)))
            # one frame per subset of the candidate edges, the cross-type
            # ones alone when strict
            offset += 1 << (2 * a * (k - a) if strict else k * k)


def _digits(tables: Sequence[Sequence[np.ndarray]], width: int
            ) -> Iterator[tuple[np.ndarray, list[list[np.ndarray]]]]:
    """Mixed-radix numbers in order, in chunks of at most ``width`` lanes:
    digit x, 0 the lowest, indexes the equal-length arrays of ``tables[x]``,
    the first of which holds its place values.  Yields each chunk's int64
    sums of its digits' places and, per digit, its other arrays.

    A chunk covers whole runs of the low digits whose lanes fit in
    ``width``: a low digit's lanes are a slice of one tile of its repeated
    arrays, a high digit's one repeat.  A run's place sums are built once,
    an outer sum per digit, and a chunk's are one more.  A radix of 0
    yields nothing."""
    radix = [len(table[0]) for table in tables]
    if not all(radix):
        return
    period = [prod(radix[:x]) for x in range(len(radix))]  # the lanes of one value of a digit
    low = sum(p * r <= width for p, r in zip(period, radix))  # the digits [0, low) ...
    run, runs = prod(radix[:low]), prod(radix[low:])  # ... whose run of lanes fits in a chunk
    step = min(width // run, runs)  # runs per chunk
    base, tiles = 0, []  # a run's place sums; the low digits' arrays over a whole chunk
    for x in range(low):
        place, *arrays = tables[x]
        base = np.add.outer(place, base).ravel()
        tiles.append([a.repeat(period[x])[None].repeat(step * run // (period[x] * radix[x]), 0)
                      .ravel() for a in arrays])
    for start in range(0, runs, step):
        h = np.arange(start, min(start + step, runs))  # the chunk's runs
        top, lanes = 0, [[a[:len(h) * run] for a in arrays] for arrays in tiles]
        for x in range(low, len(radix)):
            digit = h // (period[x] // run) % radix[x]
            place, *arrays = (a[digit] for a in tables[x])
            top = top + place
            lanes.append([a.repeat(run) for a in arrays])
        # with no high digit there is one chunk, whose sums are the run's
        yield np.add.outer(top, base).ravel() if low < len(radix) else base, lanes


def _relation_chunks(k: int, ua: int, strict: bool, offset: int, serial: bool, heart: str,
                     width: int) -> Iterator[_Lanes]:
    """The lane chunks of the (k, ua) block whose first record is ``offset``:
    the ``_digits`` whose digit x, state 0's the lowest, indexes x's table
    of rows, one per subset of its candidate edges.  With ``serial``, each
    table leaves out the empty row, so the serial frames are built
    directly, in the same order; a record still counts the frames before
    the filter."""
    tables, shift = [], 0
    for x in range(k):
        targets = [y for y in range(k) if not strict or (ua >> x & 1) != (ua >> y & 1)]
        table = [0]  # bit i of a row's index is the edge to targets[i]
        for y in targets:
            table += [row | 1 << y for row in table]
        skip = int(serial)  # the empty row, table[0]
        tables.append((np.arange(skip, len(table)) << shift, np.array(table[skip:], dtype=_LANE)))
        shift += len(targets)
    for record, lanes in _digits(tables, width):
        record += offset
        yield _Lanes(record, 0, pg.Frame(k, ua, (1 << k) - 1 - ua, [row for row, in lanes], {},
                                         heart, pg.complement(k)))


@cache
def _same_type_weights(t: int) -> np.ndarray:
    """Entry [e, d]: how many relations on one type of t states leave
    exactly the states of d off every loop and 2-cycle, and give each state
    of e a successor.  Row 0 counts them all, 2^(t²) in sum.

    Built by one pass over the t(t+1)/2 pairs of states (a loop, or the two
    edges between two states) on a count per (states on a loop or 2-cycle,
    states with a successor)."""
    counts = {(0, 0): 1}
    for u in range(t):
        for v in range(u, t):
            both = 1 << u | 1 << v
            options = ((0, 0), (both, both)) if u == v else (
                (0, 0), (0, 1 << u), (0, 1 << v), (both, both))
            grown: dict[tuple[int, int], int] = {}
            for (cycled, moving), n in counts.items():
                for c, m in options:
                    key = cycled | c, moving | m
                    grown[key] = grown.get(key, 0) + n
            counts = grown
    full = (1 << t) - 1
    table = np.zeros((1 << t, 1 << t), dtype=np.int64)
    for (cycled, moving), n in counts.items():
        for e in range(1 << t):
            if e & ~moving == 0:
                table[e, full ^ cycled] += n
    table.flags.writeable = False
    return table


def _class_lanes(n: int, strict: bool, serial: bool, heart: str,
                 width: int) -> Iterator[_Lanes]:
    """The judged block of ``_relation_blocks``: the strict cross relations
    of every class (k <= n, a <= k), Ua the lowest a states, in (k, a)
    order, in chunks of at most ``width`` lanes over n states (or of one
    relation's lanes), built from the relations' numbers alone.  A lane's
    rows past its k states are empty, and its ``ua`` and ``ub`` cover its
    states.  As in ``_relation_chunks``, a relation's index in its class is
    a mixed-radix number whose digit x is x's row, a subset of the other
    type (the empty row skipped under strict serial).  A strict relation
    is one lane of weight C(k, a).  A non-strict one, C, is 2^k lanes, d
    the low digit, with a loop at each state outside d, so that ``D`` is
    Dc(C) & d (only ``D`` reads same-type edges S, as Dc(C) & Ds(S)); each
    weighs C(k, a) times the same-type relations with Ds = d that
    (``serial``) give each state with an empty cross row a successor, a
    product of ``_same_type_weights``."""
    classes = [(k, a) for k in range(1, n + 1) for a in range(k + 1)]
    skip = int(strict and serial)
    radix, lift = np.array([[((1 << (k - a if x < a else a)) - skip, 1 << a if x < a else 1)
                             if x < k else (1, 0) for k, a in classes] for x in range(n)]
                           ).transpose(2, 0, 1)  # [x, class]: row x's digit; none past k
    place = np.cumprod([np.ones_like(radix[0]), *radix], axis=0)  # then the class sizes
    fields, firsts = np.stack([place[:-1], radix, lift]), np.cumsum([0, *place[-1]])
    types = np.array([((1 << a) - 1, (1 << k) - (1 << a)) for k, a in classes], _LANE).T
    # the sets of states with an empty cross row that weights tell apart
    empty = np.arange(1 << n if serial and not strict else 1)

    def weights(k: int, a: int) -> np.ndarray:  # [the states whose cross row is empty, d]
        if strict:
            return np.full((1, 1), comb(k, a))
        return comb(k, a) * (_same_type_weights(k - a)[:, None, :, None] * _same_type_weights(
            a)[None, :, None, :]).reshape(1 << k, -1)[empty & (1 << k) - 1]

    def chunk(start: int, parts: list[tuple[int, int, int]]) -> _Lanes:
        # per (spread, first, stop) of parts, relations [first, stop), 2^spread lanes each
        size = sum(stop - first << spread for spread, first, stop in parts)
        masks, weight, at = np.zeros((n + 2, size), _LANE), np.empty(size, np.int64), 0
        for spread, first, stop in parts:
            counts = np.diff(np.clip(firsts, first, stop))  # the part's relations per class
            place, radix, lift = np.repeat(fields, counts, axis=2)
            index = np.arange(first, stop) - np.repeat(firsts[:-1], counts)
            cross = (index // place % radix + skip) * lift  # [x, relation]
            lanes = slice(at, at + (stop - first << spread))
            at = lanes.stop
            spreads = lambda masks: masks[..., lanes].reshape(*masks.shape[:-1], -1, 1 << spread)
            loops = ~np.arange(1 << spread) & (1 << spread) - 1 & 1 << np.arange(n)[:, None]
            np.bitwise_or(cross.astype(_LANE)[:, :, None], loops.astype(_LANE)[:, None],
                          out=spreads(masks[:n]))  # [x, relation, d]: a loop outside d
            masks[n:, lanes] = np.repeat(types, counts << spread, axis=1)
            touched = np.flatnonzero(counts)
            table = np.concatenate([weights(*classes[c]) for c in touched])
            row = np.repeat(np.arange(len(touched)) * len(empty), counts[touched])
            if serial and not strict:
                row += (1 << np.arange(n)) @ (cross == 0)
            # the rows are in range; "clip" writes to ``out`` unbuffered
            np.take(table, row, axis=0, out=spreads(weight), mode="clip")
        *rows, ua, ub = masks
        return _Lanes(np.arange(start, start + size), 0,
                      pg.Frame(n, ua, ub, rows, {}, heart, partial(xor, ua | ub)), weight)

    # a chunk's parts: all relations when strict, else those of one size
    groups = [(0, 0, firsts[-1])] if strict else [
        (k, firsts[c], firsts[c + k + 1]) for c, (k, a) in enumerate(classes) if a == 0]
    parts, room, start = [], width, 0  # the next chunk's parts, and the lanes left in it
    for spread, first, total in groups:
        while first < total:
            if parts and room < 1 << spread:  # the next relation's lanes do not fit
                yield chunk(start, parts)
                parts, room, start = [], width, start + width - room
            take = min(total - first, max(room >> spread, 1))
            parts.append((spread, first, first + take))
            first, room = first + take, room - (take << spread)
    if parts:
        yield chunk(start, parts)


def _class(ua: int, ub: int) -> tuple[int, int, int]:
    """A type assignment's class: its counts of Ua-only, Ub-only and shared states."""
    return (ua & ~ub).bit_count(), (ub & ~ua).bit_count(), (ua & ub).bit_count()


def _class_size(cls: tuple[int, int, int]) -> int:
    """The type assignments of a class (x, y, z): (x+y+z)!/(x!·y!·z!)."""
    return factorial(sum(cls)) // prod(map(factorial, cls))


def _classes(bad: np.ndarray, lanes: _Lanes, *key) -> set[tuple[int, int, int]]:
    """The classes of the lanes of positive weight that ``bad`` flags (a row,
    or one per key), read per run of lanes with one (ua, ub)."""
    f = lanes.frame
    pair = f.ua.astype(np.uint16) << 8 | f.ub  # (ua, ub) as one index
    starts = np.flatnonzero(np.r_[True, pair[1:] != pair[:-1]])  # the runs
    bad = bad.reshape(-1, bad.shape[-1]).any(axis=0) & (lanes.weight > 0)
    return {_class(x >> 8, x & 255)
            for x in pair[starts[np.logical_or.reduceat(bad, starts)]].tolist()}


def _membership_blocks(max_nodes: int, overlap: bool, with_atom: bool,
                       ops: Sequence[tuple]) -> Iterator[_Block]:
    """Every membership model with up to ``max_nodes`` nodes: per size k,
    one judged block, then one labelled block of int types per type
    assignment.

    Every node is an urelement or a set with any member row; the type
    assignments cover the nodes, overlapping only when ``overlap``, and
    ``with_atom`` sweeps every valuation of atom p.  ``record`` orders the
    models by size, then by (rows, types, valuation), the order in which
    reports name their first models: a block's ``_digits`` are p's
    valuation (of radix 1 without ``with_atom``), then each node's option
    from node k-1 up to node 0, the type assignment on top.  The judged
    block holds the first block of each class, its assignment sorted, as
    one ``_digits`` with the classes' assignments on top, each lane
    weighted ``_class_size``; its lanes all have k nodes, which their types
    cover, so ``frame.k`` is each lane's size and ``complement(k)`` negates.
    """
    if not 1 <= max_nodes <= 4:
        raise ValueError("node bound must be between 1 and 4")
    type_options = (1, 2, 3) if overlap else (1, 2)  # bit 0: Ua, bit 1: Ub
    offset = 0
    for k in range(1, max_nodes + 1):
        options = (1 << k) + 1  # an urelement, or a set with any member row
        vals, width = 1 << k if with_atom else 1, _lane_width(ops, k)
        assignments = np.array(list(iproduct(type_options, repeat=k)))  # [block, node]: its type
        member_row = np.maximum(np.arange(options) - 1, 0).astype(_LANE)  # option -> row
        tables = [(np.arange(vals), np.arange(vals, dtype=_LANE))] + [
            (np.arange(options) * vals * len(assignments) * options ** (k - 1 - w), member_row,
             np.array([1 << w] + [0] * (options - 1), dtype=_LANE)) for w in reversed(range(k))]
        types = list(zip(*(((assignments >> side & 1) << np.arange(k)).sum(1).tolist()
                           for side in (0, 1))))  # (ua, ub) per block
        firsts = {_class(*t): t for t in reversed(types)}  # the first block of each class
        top = (np.zeros(len(firsts), np.int64), *np.array(list(firsts.values()), _LANE).T,
               np.array(list(map(_class_size, firsts))))
        yield _Block(None, 0, _membership_chunks(
            k, None, None, 0, with_atom, tables + [top], width))
        for t, (ua, ub) in enumerate(types):
            yield _Block(_class(ua, ub), offset + vals * t, _membership_chunks(
                k, ua, ub, offset + vals * t, with_atom, tables, width))
        offset += vals * options ** k * len(assignments)


def _membership_chunks(k: int, ua, ub, first: int, with_atom: bool, tables: list,
                       width: int) -> Iterator[_Lanes]:
    """The lane chunks of the (k, ua, ub) block whose first record is ``first``;
    with ``ua`` None, the top digit gives each lane's (ua, ub, weight)."""
    for record, ((pval,), *nodes) in _digits(tables, width):
        types = (ua, ub, None) if ua is not None else nodes.pop()
        yield _Lanes(record + first, sum(bit for _, bit in nodes),
                     pg.Frame(k, *types[:2], [row for row, _ in reversed(nodes)],
                              {"p": pval} if with_atom else {}, "membership", pg.complement(k)),
                     types[2])


def _first_hits(found: list, bad: np.ndarray, lanes: _Lanes,
                key: Callable[[int], tuple] = lambda row: (), *, cap: int) -> list:
    """``found`` plus the lanes flagged in ``bad`` (a row of flags, or one
    per key, the keys rising with the row) as (record, *key(row), compact
    record) entries, cut to the ``cap`` first.  Records rise with the lane
    in a labelled chunk, so its first entries lie in its first ``cap``
    lanes with a hit, taken lane by lane and row by row; and once ``found``
    is full, a chunk past its last cannot change it."""
    if _settled(found, lanes.record[0], cap):
        return found
    first = np.flatnonzero(bad if bad.ndim == 1 else bad.any(axis=0))[:cap]
    if bad.ndim == 1:
        hits = [(lane, 0) for lane in first]
    else:
        lane, row = np.nonzero(bad[:, first].T)
        hits = list(zip(first[lane], row))[:cap]
    if not hits:
        return found
    found = found + [(int(lanes.record[i]), *key(j), lanes.compact(i)) for i, j in hits]
    return sorted(found)[:cap]


def _settled(found: list, record: int, cap: int) -> bool:
    """Whether the first-hit list ``found`` is full, ``cap`` long, and no
    lane from record ``record`` on can enter it."""
    return len(found) == cap and found[-1][0] < record


def _take_lanes(lanes: _Lanes, keep: np.ndarray) -> _Lanes:
    """The lanes of a membership chunk that ``keep`` flags, with their weights."""
    f = lanes.frame
    take = lambda mask: mask[keep] if isinstance(mask, np.ndarray) else mask
    return _Lanes(lanes.record[keep], lanes.ure[keep],
                  f._replace(ua=take(f.ua), ub=take(f.ub), rows=[row[keep] for row in f.rows],
                             atoms={a: mask[keep] for a, mask in f.atoms.items()}),
                  take(lanes.weight))


def _stacked(vals: list, slots: Sequence[int], n: int) -> Iterator[tuple[int, np.ndarray]]:
    """The masks of ``slots`` on n lanes as (index of the first slot,
    slots × n _LANE array) blocks, so that a claim judges a block of
    formulas in one broadcast.  A block, and each temporary of its shape
    that the claim makes, holds one row or at most ``program._STACK_BYTES``:
    the few rows of a wide chunk stay in cache next to its masks."""
    height = max(1, pg._STACK_BYTES // max(n, 1))
    for start in range(0, len(slots), height):
        block = slots[start:start + height]
        body = np.empty((len(block), n), dtype=_LANE)
        for j, slot in enumerate(block):
            body[j] = vals[slot]  # also broadcasts the Python-int constants
        yield start, body


def _state_names(k: int, prefix: str) -> tuple[str, ...]:
    return tuple(f"{prefix}{i}" for i in range(k))


def _edges(names: Sequence[str], rows: Sequence[int]) -> list[tuple[str, str]]:
    return [(names[w], names[v]) for w, row in enumerate(rows)
            for v in range(len(names)) if row >> v & 1]


def _rebuild_kripke(rec, strict: bool) -> kr.KripkeModel:
    k, rows, _, ua, ub, _ = rec
    names = _state_names(k, "s")
    return kr.KripkeModel(states=names, rel=_edges(names, rows),
                          ua=pg.names_of(names, ua), ub=pg.names_of(names, ub),
                          strict=strict)


def _rebuild_hyperset(rec) -> hs.HypersetModel:
    k, rows, ure, ua, ub, pval = rec
    names = _state_names(k, "n")
    return hs.HypersetModel(
        nodes=names, mem=_edges(names, rows), ua=pg.names_of(names, ua),
        ub=pg.names_of(names, ub), urelements=pg.names_of(names, ure),
        val={"p": pg.names_of(names, pval)} if pval else None,
        disjoint_types=not (ua & ub))


def enumerate_kripke(max_states: int, *, strict: bool = True,
                     serial: bool = False) -> Iterator[kr.KripkeModel]:
    """All belief frames with up to ``max_states`` states (1 to 5), rebuilt
    from the labelled blocks of ``_relation_blocks``: by size, then Ua
    mask, then successor rows, state 0's changing fastest.

    Every type-space assignment and every relation (cross-type edges only
    in strict mode); ``serial`` keeps only the frames in which every state
    has a successor.
    """
    for lanes in _labelled(_relation_blocks(max_states, strict, serial, "frame", ())):
        for lane in range(len(lanes.record)):
            yield _rebuild_kripke(lanes.compact(lane), strict)


def enumerate_hypersets(max_nodes: int, *, allow_overlap: bool = False
                        ) -> Iterator[hs.HypersetModel]:
    """All membership graphs with up to ``max_nodes`` nodes (1 to 4),
    rebuilt from the labelled blocks of ``_membership_blocks``: by size,
    then type assignment, then member rows and urelements.

    Every node is either an urelement or a set with any member row; type
    assignments cover the nodes, overlapping only when ``allow_overlap``.
    A model is marked ``disjoint_types`` exactly when its own types are.
    """
    for lanes in _labelled(_membership_blocks(max_nodes, allow_overlap, False, ())):
        for lane in range(len(lanes.record)):
            yield _rebuild_hyperset(lanes.compact(lane))


def two_cycle() -> kr.KripkeModel:
    """The landmark two-state frame whose states watch each other."""
    return kr.KripkeModel(states=["x", "y"], rel=[("x", "y"), ("y", "x")],
                          ua=["x"], ub=["y"])


# ---------------------------------------------------------------------------
# Campaigns


@dataclass(frozen=True)
class Campaign:
    target: str
    max_size: int = 3
    strict: bool = True
    heart: str = "frame"
    serial: bool = False

    def __post_init__(self) -> None:
        if self.target not in TARGETS:
            raise ValueError(f"unknown campaign target {self.target!r}")
        if self.heart not in kr.HEART_SEMANTICS:
            raise ValueError(f"unknown heart semantics {self.heart!r}")


@dataclass(frozen=True)
class CampaignReport:
    lines: tuple[str, ...]
    summary: dict

    @property
    def text(self) -> str:
        return "\n".join(self.lines) + "\nSUMMARY " + json.dumps(
            self.summary, sort_keys=True) + "\n"


def run_campaign(c: Campaign) -> CampaignReport:
    runner = {"lawvere_scan": _run_lawvere_scan, "adjunction": _run_lattice_laws,
              "boundary_law": _run_lattice_laws}.get(c.target)
    return runner(c) if runner else _run_sweep(c, _SWEEPS[c.target])


def _header(c: Campaign, *extra: str) -> list[str]:
    return [f"campaign: {c.target}", f"bounds: max_size={c.max_size}", *extra]


def _dump_block(lines: list[str], title: str, body: str) -> None:
    lines.append(f"{title}:")
    for row in body.rstrip("\n").splitlines():
        lines.append(f"  {row}")


def _report(c: Campaign, totals: dict, dumps: dict, *, claim: str,
            tally: str = "models={models} holds={holds} violations={violations}",
            title: str = _VIOLATIONS, head: Callable = lambda c: [],
            fields: Callable = lambda c: {}) -> CampaignReport:
    """Header, ``head(c)``, claim, tally and the numbered dumps of group None,
    the formats filled in from the totals; the SUMMARY adds ``fields(c)``."""
    lines = _header(c, *head(c), f"claim: {claim}", tally.format(**totals))
    for i, body in enumerate(dumps.get(None, ()), start=1):
        _dump_block(lines, title.format(i, **totals), body)
    return CampaignReport(tuple(lines), {"target": c.target, "max_size": c.max_size,
                                         **fields(c), **totals})


class _Sweep(NamedTuple):
    """A lane campaign: ``blocks(c, ops)`` is its enumerator, whose judged
    and labelled blocks ``_Block`` describes; ``judge(lanes, ops, slots,
    totals)`` counts a chunk of a block and yields its failures as a dump
    group and ``_first_hits`` arguments; ``dump(c, *key, compact record)``
    shows one, ``report(c, totals, dumps)`` writes the report, and
    ``models(c)`` is the closed form of the models the sweep must count."""

    program: Callable  # () -> (ops, slots)
    blocks: Callable
    judge: Callable
    models: Callable
    dump: Callable
    report: Callable  # ``_report`` with the claim and formats, or one of its own
    totals: tuple = ("models", "holds", "violations")
    dumps: int | None = None  # the first failures each dump group keeps; None: _FAIL_DUMP_CAP


def _run_sweep(c: Campaign, spec: _Sweep) -> CampaignReport:
    """Judges each judged block and adds its totals.  A labelled block is
    read only for the dump groups that a weighted lane of its class failed
    and whose first hits it can still change, and left once it can change
    none; an unweighted chunk's failures are dumped.  Raises RuntimeError
    unless the models counted are the closed form ``spec.models(c)``."""
    ops, slots = spec.program()
    totals = Counter(dict.fromkeys(spec.totals, 0))  # a judge may add keys of its own
    found: dict = {}  # per dump group, its first (record, *key, compact record) that fail
    failing: dict = {}  # per class, the dump groups that a weighted lane of it fails
    cap = spec.dumps or _FAIL_DUMP_CAP  # read per run, so a patched cap holds
    settled = lambda group, record: _settled(found.get(group, []), record, cap)
    for cls, first, chunks in spec.blocks(c, ops):
        judged = cls is None
        groups = [g for g in failing.get(cls, ()) if not settled(g, first)]
        if not (judged or groups):
            continue
        counts = totals if judged else Counter()
        for lanes in chunks:
            counts["models"] += lanes.count()
            for group, *hits in spec.judge(lanes, ops, slots, counts):
                if lanes.weight is None:
                    found[group] = _first_hits(found.get(group, []), *hits, cap=cap)
                else:
                    for k in _classes(*hits):
                        failing.setdefault(k, set()).add(group)
            if not judged and all(settled(g, lanes.record[-1] + 1) for g in groups):
                break
    if totals["models"] != spec.models(c):
        raise RuntimeError(f"{c.target} swept {totals['models']} models, "
                           f"not the {spec.models(c)} of its closed form")
    return spec.report(c, totals, {group: [spec.dump(c, *hit[1:]) for hit in hits]
                                   for group, hits in found.items()})


def _judge_lemma1(lanes: _Lanes, ops, slots, totals: dict) -> Iterator[tuple]:
    premise, part1_fails, part2_body = (np.broadcast_to(mask, len(lanes.record)) for mask in
        kr.lemma1_masks(pg.run(ops, lanes.frame), slots, lanes.frame.ua | lanes.frame.ub))
    part1, part2 = part1_fails == 0, part2_body == 0
    fails = (premise & ~part1) | ~part2
    totals["holds"] += lanes.count(premise & part1 & part2)
    totals["degenerate"] += lanes.count(~premise & part2)
    totals["fails"] += lanes.count(fails)
    yield None, fails, lanes


def _judge_holes(lanes: _Lanes, ops, slots, totals: dict) -> Iterator[tuple]:
    holds = np.zeros(len(lanes.record), dtype=bool)
    for _, hole in kr.hole_masks(pg.run(ops, lanes.frame), slots):
        holds |= hole
    totals["holds"] += lanes.count(holds)
    totals["fails"] += lanes.count(~holds)
    yield None, ~holds, lanes


def _judge_states(lanes: _Lanes, ops, slots, totals: dict, fault: Callable,
                  key: Callable) -> Iterator[tuple]:
    """Judges each state w on each ``_stacked`` block: ``fault(frame, w,
    block)`` flags the failing lanes of each formula, keyed ``key(formula, w)``."""
    model_violations = np.zeros(len(lanes.record), dtype=np.intp)  # per-lane counts
    # the masks live only in the block generator, so they are freed
    # before the next chunk is evaluated
    for start, block in _stacked(pg.run(ops, lanes.frame), slots, len(lanes.record)):
        for w in range(lanes.frame.k):
            bad = fault(lanes.frame, w, block)
            if bad.any():
                model_violations += np.count_nonzero(bad, axis=0)
                yield None, bad, lanes, lambda j: key(start + j, w)
    totals["holds"] += lanes.count(model_violations == 0)
    totals["violations"] += lanes.count(model_violations)


def _judge_theorem22(lanes: _Lanes, ops, slots, totals: dict) -> Iterator[tuple]:
    special = np.array([hs.is_special(lanes.frame, lanes.ure, w) for w in range(lanes.frame.k)])
    live = special.any(axis=0)  # a lane without a special node holds
    totals["holds"] += lanes.count(~live)
    totals["degenerate"] += lanes.count(~live)
    totals["states_checked"] += lanes.count(special.sum(axis=0))
    if not live.all():
        lanes, special = _take_lanes(lanes, live), special[:, live]

    def fault(frame, w, body):
        wrong_assumption, belief_fails = hs.theorem22_faults(frame, w, body)
        return special[w] & (wrong_assumption | belief_fails)
    yield from _judge_states(lanes, ops, slots, totals, fault, lambda i, w: (i, w))


def _judge_validity(lanes: _Lanes, ops, slots, totals: dict) -> Iterator[tuple]:
    """Counts, per formula of ``hs.VALIDITY_CLAIMS``, the models on which it
    holds at every node; a claimed-valid one's failures are its dump group."""
    for (text, claimed), failing in zip(hs.VALIDITY_CLAIMS, hs.validity_failures(
            pg.run(ops, lanes.frame), slots, (1 << lanes.frame.k) - 1)):
        valid = np.broadcast_to(failing == 0, len(lanes.record))
        totals[text] += lanes.count(valid)
        if claimed and not valid.all():
            yield text, ~valid, lanes


def _validity_report(c: Campaign, totals: dict, dumps: dict) -> CampaignReport:
    """The models on which each formula holds everywhere, and first counter-models."""
    lines = _header(c, "claimed-valid formulas: models on which each holds everywhere", *(
        f"  claimed-{'' if claimed else 'in'}valid: {text}: {totals[text]} of {totals['models']}"
        for text, claimed in hs.VALIDITY_CLAIMS))
    for text in sorted(dumps):
        _dump_block(lines, f"first counter-model for {text}", dumps[text][0])
    return CampaignReport(tuple(lines), {
        "target": c.target, "max_size": c.max_size, "models": totals["models"],
        "valid_counts": {text: totals[text] for text, _ in hs.VALIDITY_CLAIMS}})


def _kripke_head(c: Campaign) -> list[str]:
    """The flags and the verdicts on the landmark two-state frame."""
    m = two_cycle()
    record = kr.check_lemma_1(m, c.heart)
    holes = kr.find_holes(m, c.heart)
    return [f"flags: strict={'on' if c.strict else 'off'} heart={c.heart} "
            f"serial={'on' if c.serial else 'off'}",
            "landmark two_cycle (x<->y): "
            f"premise={record.premise_holds} part1_valid={record.part1_valid} "
            f"part1_counterwitnesses={list(record.part1_counterwitnesses)} "
            f"part2_valid={record.part2_valid} any_hole={holes.any_hole}"]


def _frame_count(c: Campaign) -> int:
    """The belief frames with 1 to c.max_size states: per type mask of a
    states, every subset of the 2a(k-a) cross edges (strict) or of all k²
    edges; ``serial`` gives each state a successor."""
    total = 0
    for k in range(1, c.max_size + 1):
        if not c.strict:
            total += 2**k * ((2**k - 1)**k if c.serial else 2**(k * k))
        elif c.serial:
            total += sum(comb(k, a) * (2**(k - a) - 1)**a * (2**a - 1)**(k - a)
                         for a in range(k + 1))
        else:
            total += sum(comb(k, a) * 2**(2 * a * (k - a)) for a in range(k + 1))
    return total


def _membership_count(c: Campaign, types: int, vals: int) -> int:
    """The membership models with 1 to c.max_size nodes: each node an
    urelement or a set with any member row, ``types`` type options and
    ``vals`` valuations of p per node."""
    return sum((2**k + 1)**k * (types * vals)**k for k in range(1, c.max_size + 1))


_LEMMA1 = _Sweep(
    program=kr.lemma1_program,
    blocks=lambda c, ops: _relation_blocks(c.max_size, c.strict, c.serial, c.heart, ops),
    models=_frame_count,
    judge=_judge_lemma1, totals=("models", "holds", "fails", "degenerate"),
    dump=lambda c, rec: dump_kripke(_rebuild_kripke(rec, c.strict)),
    report=partial(
        _report, claim="premise -> chain-implication, and the negative sentence is valid",
        tally="models={models} holds={holds} fails={fails} degenerate={degenerate}",
        title="fail-dump {} of {fails}", head=_kripke_head,
        fields=lambda c: {"strict": c.strict, "heart": c.heart, "serial": c.serial}))
_SWEEPS = {
    "lemma1": _LEMMA1,
    "theorem12": _LEMMA1._replace(
        program=lambda: kr.hole_program("kripke"), judge=_judge_holes,
        report=partial(_LEMMA1.report, claim="every model has one of the seven holes")),
    "theorem22": _Sweep(
        program=hs.theorem22_program,
        blocks=lambda c, ops: _membership_blocks(c.max_size, False, True, ops),
        models=lambda c: _membership_count(c, 2, 2), judge=_judge_theorem22,
        totals=("models", "holds", "degenerate", "states_checked", "violations"),
        dump=lambda c, i, w, rec: (f"state n{w}, formula "
                                   f"{fm.to_text(hs.bounded_formula_family()[i])}\n"
                                   + dump_nwf(_rebuild_hyperset(rec))),
        report=partial(_report, head=lambda c: [
            f"formula family: {len(hs.bounded_formula_family())} formulas, modal depth <= 2"],
            claim="quine/urelement states assume exactly their falsehoods and believe everything")),
    "theorem23": _Sweep(
        program=hs.theorem23_program,
        blocks=lambda c, ops: _membership_blocks(c.max_size, True, False, ops),
        models=lambda c: _membership_count(c, 3, 1),
        judge=lambda lanes, ops, slots, totals: _judge_states(
            lanes, ops, slots, totals, hs.theorem23_fault, lambda d, w: (w, d)),
        dump=lambda c, w, _, rec: f"quine state n{w}\n" + dump_nwf(_rebuild_hyperset(rec)),
        report=partial(_report,
                       claim="quine states with a true assumption sit in both type spaces")),
    "validity_lists": _Sweep(
        program=hs.validity_program,
        blocks=lambda c, ops: _membership_blocks(c.max_size, False, False, ops),
        models=lambda c: _membership_count(c, 2, 1), judge=_judge_validity,
        dump=lambda c, rec: dump_nwf(_rebuild_hyperset(rec)), report=_validity_report,
        totals=("models",), dumps=1),
}


def _point_names(mask: int) -> list[str]:
    """The points x1, x2, ... of a mask, in bit order."""
    return [f"x{i + 1}" for i in range(mask.bit_length()) if mask >> i & 1]


def _closure_table(hulls: Sequence[Sequence[int]]) -> np.ndarray:
    """Row t: each mask's closure, the union of its bits' hulls in hulls[t]."""
    tables = np.zeros((len(hulls), 1), dtype=_LANE)
    for hull in np.asarray(hulls, dtype=_LANE).T:  # the masks with this top bit add its hull
        tables = np.concatenate([tables, tables | hull[:, None]], axis=1)
    return tables


def _lookup(tables: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """tables[g][masks[g, ...]] for each g: one closure table per leading row."""
    return tables[np.arange(len(tables)).reshape(-1, *[1] * (masks.ndim - 1)), masks]


def _run_lattice_laws(c: Campaign) -> CampaignReport:
    """Judges the topologies of each carrier size in one broadcast per count
    of closed sets; the dumps follow the topologies' order, and within a
    topology ``np.argwhere``'s (A, B, X, or S then law)."""
    if not 0 <= c.max_size <= 4:
        raise ValueError("carrier bound must be between 0 and 4")
    totals = {"topologies": 0, "checks": 0, "violations": 0}
    dumps: list[str] = []
    for n in range(c.max_size + 1):
        # the dump order of sets: by size, then by their points
        order = np.array(sorted(range(1 << n), key=lambda m: (m.bit_count(), _point_names(m))),
                         dtype=_LANE)
        hulls = np.array(tp._hull_tables(n), dtype=_LANE)
        totals["topologies"] += len(hulls)
        bits = np.arange(n, dtype=_LANE)
        weights = 1 << bits
        # ups[t, x]: x's least open neighbourhood in table t, the points
        # whose hulls hold x
        ups = (hulls[:, None, :] >> bits[:, None] & 1).dot(weights)
        closures = _closure_table(hulls)
        is_closed = closures[:, order] == order  # [t, j]: order[j] is closed in t
        counts = is_closed.sum(axis=1)
        failing = []  # (t, closed masks, bad) of the first failing topologies per count
        # the counts that occur, ascending; np.unique would import numpy.ma (1 MB)
        for count in np.flatnonzero(np.bincount(counts)):
            group = np.flatnonzero(counts == count)
            # s[g, i]: the i-th closed set of topology group[g], in dump order
            s = order[is_closed[group].nonzero()[1]].reshape(len(group), count)
            lat = tp.MaskLattice(partial(_lookup, closures[group]), (1 << n) - 1)
            if c.target == "adjunction":
                a, b, x = s[:, :, None, None], s[:, None, :, None], s[:, None, None, :]
                # sub <= x against a <= x | b, for every closed triple (A, B, X)
                bad = (lat.subtraction(a, b) & ~x == 0) != (a & ~(x | b) == 0)
            else:
                neg = lat.pneg(s)
                # S's interior: the points whose least open neighbourhood
                # stays in S; the rest of closed S is its boundary
                inner = (ups[group][:, None, :] & ~s[:, :, None] == 0).dot(weights)
                # the join and overlap laws, side by side for each closed S
                bad = np.stack([s | neg != lat.full, s & neg != s & ~inner], axis=-1)
            totals["checks"] += bad.size
            totals["violations"] += int(np.count_nonzero(bad))
            # each failing topology gives a dump, so only the first few can
            # be read; their rows are copied out and the group's arrays freed
            keep = np.flatnonzero(bad.reshape(len(group), -1).any(axis=1))
            keep = keep[:_FAIL_DUMP_CAP - len(dumps)]
            failing += zip(group[keep], s[keep].tolist(), bad[keep])
        for _, closed, bad in sorted(failing, key=itemgetter(0)):
            family = f"closed={[_point_names(m) for m in closed]}"
            for hit in np.argwhere(bad)[:_FAIL_DUMP_CAP - len(dumps)]:
                if c.target == "adjunction":
                    sets = (_point_names(closed[i]) for i in hit)
                    dumps.append("A={} B={} X={} ".format(*sets) + family)
                else:
                    law = ("join", "overlap")[hit[1]]
                    dumps.append(f"{law} law: S={_point_names(closed[hit[0]])} {family}")

    claim = ("subtraction adjunction over all closed triples"
             if c.target == "adjunction"
             else "S | ~S covers and S & ~S is the boundary, for closed S")
    return _report(c, totals, {None: dumps}, claim=claim,
                   tally="topologies={topologies} checks={checks} violations={violations}")


def _run_lawvere_scan(c: Campaign) -> CampaignReport:
    if not 1 <= c.max_size <= 3:
        raise ValueError("carrier bound must be between 1 and 3")
    lines = _header(c)
    lines.append("claim: no weakly point-surjective map exists onto 2+ values; "
                 "witnesses satisfy the diagonal fixed-point identity")
    cells = []
    violations = 0
    for size_a in range(1, c.max_size + 1):
        for size_y in range(1, c.max_size + 1):
            result = lv.search_wps(size_a, size_y)
            if result.witness is None:
                cells.append({"size_a": size_a, "size_y": size_y,
                              "witness": False, "checked": result.candidates_checked})
                lines.append(f"  |A|={size_a} |Y|={size_y}: exhausted "
                             f"{result.candidates_checked} candidates, no witness")
            else:
                report = lv.check_fixed_point_property(result.witness)
                bad = (not report.applicable) or bool(report.violations)
                violations += int(bad)
                cells.append({"size_a": size_a, "size_y": size_y,
                              "witness": True, "fixed_points_ok": not bad})
                lines.append(f"  |A|={size_a} |Y|={size_y}: witness after "
                             f"{result.candidates_checked} candidates, "
                             f"fixed points {'ok' if not bad else 'VIOLATED'}")
    summary = {"target": c.target, "max_size": c.max_size,
               "cells": cells, "violations": violations}
    return CampaignReport(tuple(lines), summary)


# ---------------------------------------------------------------------------
# Fixtures


@dataclass(frozen=True)
class Claim:
    description: str
    passed: bool
    detail: str = ""


def fixture_prop24() -> hs.HypersetModel:
    return hs.HypersetModel(
        nodes=["w", "v"], mem=[("w", "v"), ("v", "w")],
        ua=["w"], ub=["v"])


def fixture_prop25() -> hs.HypersetModel:
    return hs.HypersetModel(
        nodes=["w", "v", "u", "t"],
        mem=[("w", "v"), ("w", "w"), ("v", "u"), ("u", "t")],
        ua=["w", "u"], ub=["v", "t"], urelements=["t"])


def fixture_ninestate() -> hs.HypersetModel:
    mem = [("w", "v"), ("w", "w"), ("v", "u"), ("u", "t"),
           ("r", "v"), ("r", "t"), ("r", "s"), ("r", "y"),
           ("s", "w"), ("s", "u"), ("s", "r"), ("s", "x"), ("s", "z"),
           ("x", "x"), ("x", "s"), ("y", "y"), ("y", "x"), ("z", "z"), ("z", "y")]
    return hs.HypersetModel(
        nodes=["w", "v", "u", "t", "r", "s", "x", "y", "z"], mem=mem,
        ua=["w", "u", "r", "x", "z"], ub=["v", "t", "s", "y"],
        urelements=["t"])


def fixture_quine_pair() -> hs.HypersetModel:
    return hs.HypersetModel(
        nodes=["w", "v"], mem=[("w", "w"), ("v", "v")],
        ua=["w"], ub=["v"], val={"p": ["w"], "q": ["v"]})


def fixture_singleton_quine() -> hs.HypersetModel:
    return hs.HypersetModel(
        nodes=["w"], mem=[("w", "w")], ua=["w"], ub=["w"],
        disjoint_types=False)


def fixture_example27() -> hs.HypersetModel:
    return hs.graph_to_structure(
        nodes=["w", "v", "u"], edges=[("w", "u"), ("w", "v"), ("u", "w")],
        root="w", types={"w": "a", "u": "b", "v": "b"})


def fixture_bk_topo() -> pt.ParaTopoModel:
    tau_a = tp.ClosedTopology.make(["a1", "a2"], [[], ["a1"], ["a1", "a2"]])
    tau_b = tp.ClosedTopology.make(["b1", "b2"], [[], ["b1"], ["b1", "b2"]])
    return pt.ParaTopoModel(
        tau_a, tau_b,
        t_a=[("a1", "b1"), ("a2", "b1"), ("a2", "b2")],
        t_b=[("b1", "a1"), ("b2", "a1"), ("b2", "a2")])


FIXTURES = {
    "prop24": fixture_prop24,
    "prop25": fixture_prop25,
    "ninestate": fixture_ninestate,
    "quine_pair": fixture_quine_pair,
    "singleton_quine": fixture_singleton_quine,
    "example27": fixture_example27,
    "bk_topo": fixture_bk_topo,
}


#: the formula of a fixture claim's text, parsed once per process
_formula = cache(fm.parse)


def _sat_claim(m: hs.HypersetModel, state: str, text: str, expect: bool = True) -> Claim:
    holds = state in hs.nwf_extension(m, _formula(text))
    verb = "satisfies" if expect else "falsifies"
    return Claim(f"{state} {verb} {text}", holds == expect,
                 detail=f"holds={holds}")


def _claims_prop24(m: hs.HypersetModel) -> list[Claim]:
    return [
        _sat_claim(m, "w", "Hab Ub"),
        _sat_claim(m, "w", "[ab] [ba] [ab] Hba Ua & !D+"),
        _sat_claim(m, "w", "D+", expect=False),
    ]


def _claims_prop25(m: hs.HypersetModel) -> list[Claim]:
    ext = hs.nwf_extension(m, _formula("Ua & D+"))
    return [
        Claim("Ua & D+ holds exactly at u", ext == frozenset(["u"]),
              detail=f"extension={sorted(ext)}"),
        _sat_claim(m, "v", "Hba (Ua & D+)"),
        _sat_claim(m, "w", "[ab] Hba (Ua & D+)"),
    ]


def _claims_ninestate(m: hs.HypersetModel) -> list[Claim]:
    ext = hs.nwf_extension(m, _formula("Ua & D+"))
    claims = [
        Claim("Ua & D+ holds exactly at u", ext == frozenset(["u"]),
              detail=f"extension={sorted(ext)}"),
        _sat_claim(m, "s", "Hba Ua"),
        _sat_claim(m, "r", "Hab Ub"),
        _sat_claim(m, "x", "[ab] Hba Ua"),
        _sat_claim(m, "y", "[ba] [ab] Hba Ua"),
        _sat_claim(m, "z", "[ab] [ba] [ab] Hba Ua"),
        _sat_claim(m, "v", "Hba (Ua & D+)"),
        _sat_claim(m, "w", "[ab] Hba (Ua & D+)"),
    ]
    report = hs.nwf_find_holes(m)
    claims.append(Claim("all seven slots are hole-free", not report.any_hole,
                        detail=", ".join(f"{s.label}={s.is_hole}"
                                         for s in report.slots)))
    return claims


def _claims_quine_pair(m: hs.HypersetModel) -> list[Claim]:
    return [
        _sat_claim(m, "w", "Hab q"),
        _sat_claim(m, "w", "Hab p", expect=False),
    ]


def _claims_singleton_quine(m: hs.HypersetModel) -> list[Claim]:
    claims = [
        Claim("[ab] Ua <-> true is valid", hs.nwf_valid(m, _formula("[ab] Ua <-> true"))),
        Claim("[ab] Ua <-> false fails",
              not hs.nwf_valid(m, _formula("[ab] Ua <-> false"))),
        _sat_claim(m, "w", "Hab true"),
        Claim("w sits in both type spaces", "w" in m.ua and "w" in m.ub),
        Claim("no true-assumption violations", not hs.check_theorem_2_3(m)),
    ]
    for text in hs.CLAIMED_INVALID:
        claims.append(Claim(f"{text} satisfied here", hs.nwf_valid(m, _formula(text))))
    return claims


def _claims_example27(m: hs.HypersetModel) -> list[Claim]:
    return [
        Claim("w = {u, v}", m.members("w") == frozenset(["u", "v"])),
        Claim("u = {w}", m.members("u") == frozenset(["w"])),
        Claim("v has no members", not m.members("v")),
        Claim("type spaces are Ua={w}, Ub={u,v}",
              m.ua == frozenset(["w"]) and m.ub == frozenset(["u", "v"])),
    ]


def _claims_bk_topo(m: pt.ParaTopoModel) -> list[Claim]:
    diag = pt.diagonal(m)
    wit = pt.bk_witnesses(m)
    discrete_wit = pt.bk_witnesses(pt.with_discrete_topologies(m))
    completeness = pt.is_assumption_complete(m)
    return [
        Claim("diagonal is {a1}", diag == frozenset(["a1"]),
              detail=f"diagonal={sorted(diag)}"),
        Claim("belief sentence witnessed at a1", wit == frozenset(["a1"]),
              detail=f"witnesses={sorted(wit)}"),
        Claim("no witnesses under discrete topologies", discrete_wit == frozenset(),
              detail=f"witnesses={sorted(discrete_wit)}"),
        Claim("model is not assumption-complete ({b2} missing)",
              not completeness.complete
              and ("b2",) in completeness.missing_subsets_of_b),
    ]


_FIXTURE_CLAIMS = {
    "prop24": _claims_prop24,
    "prop25": _claims_prop25,
    "ninestate": _claims_ninestate,
    "quine_pair": _claims_quine_pair,
    "singleton_quine": _claims_singleton_quine,
    "example27": _claims_example27,
    "bk_topo": _claims_bk_topo,
}


@dataclass(frozen=True)
class FixtureReport:
    claims: tuple[tuple[str, Claim], ...]

    @property
    def ok(self) -> bool:
        return all(claim.passed for _, claim in self.claims)

    @property
    def text(self) -> str:
        lines = []
        for name, claim in self.claims:
            status = "pass" if claim.passed else "FAIL"
            lines.append(f"{status} {name}: {claim.description}"
                         + (f" [{claim.detail}]" if claim.detail and not claim.passed
                            else ""))
        lines.append(f"fixtures: {'all claims pass' if self.ok else 'FAILURES PRESENT'}")
        return "\n".join(lines) + "\n"


def verify_fixtures() -> FixtureReport:
    """Re-derive every fixture's claim list; any failure is a hard error downstream."""
    rows = []
    for name in sorted(FIXTURES):
        model = FIXTURES[name]()
        for claim in _FIXTURE_CLAIMS[name](model):
            rows.append((name, claim))
    return FixtureReport(tuple(rows))
