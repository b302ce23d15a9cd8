"""Model enumeration, claim-verification campaigns, fixtures, and reports.

Campaigns sweep an exhaustively enumerated model space and record how a
named claim fares on every model.  They report; they do not assert.
Each model kind has one enumerator, which yields numpy lane chunks, one
lane per candidate model, in blocks of fixed type masks:
``_relation_blocks`` for classical frames (``_relation_lanes`` reads its
chunks in order) and ``_membership_lanes`` for membership graphs.  Both
tile and repeat the per-digit tables of one mixed-radix chunker,
``_digits``: a frame's digits are its states' successor rows (a serial
frame's tables lack the empty row), a membership graph's the valuation
of p, each node's option and the type assignment.  Each lane carries a
record index (its place in the enumeration order, serial or not: the
sum of its digits' place values) and reads back as a compact record,
which ``_rebuild_kripke``/``_rebuild_hyperset`` turn into a model; the
public ``enumerate_kripke``/``enumerate_hypersets`` are such rebuild loops.

The frames come in one block per (k, Ua mask).  A state permutation maps
the block of a mask onto the block of any mask with the same popcount a,
and the classical claims name no state, so every total is the same in
the blocks of a class (k, a).  A classical sweep judges one block
(``_classical_blocks``): the representatives of every class, Ua the
lowest a states, packed into chunks over the sweep's largest k, each
lane with its own type masks (``program.run`` reads them per lane) and
weighted C(k, a).  At 4 states that is one ``program.run`` call for all
14 classes.  The labelled blocks are read only for the first five fail
dumps: a block is skipped when no packed lane of its class failed, and
left once no later lane of it can enter them, so the dumps are those of
the whole sweep.  Each membership chunk is a class of its own, of
weight 1; it packs whole small (k, type assignment) blocks, each lane
with its own type masks, up to the cache cap ``program._STACK_BYTES``
of ``_stacked``, so its records need not rise with the lane, and
``_first_hits`` keeps the lowest.

A non-strict class is counted rather than enumerated.  Every modality
reads a successor row only through ``row & tgt``, the cross-type edges;
the one op that reads the same-type edges is ``D``, and it splits as
Dc(C) & Ds(S): w has no 2-cycle through it in the cross relation C, and
no loop or 2-cycle in the same-type relation S.  So each claim is a
function of (C, Ds(S)), and its representative is ``_factored_chunks``:
the strict block's cross relations once per mask d of the 2^k, each
lane weighted by how many same-type relations have Ds = d (with a
successor at every state whose cross row is empty, under ``serial``).
The 4-state classes are judged on 6,176 lanes instead of 327,680
frames, the 5-state ones on 278,592 instead of 201 M.  ``_run_sweep``
checks every sweep's model count against its closed form.

The lane campaigns (lemma1, theorem12, theorem22, theorem23) are the
entries of one table, ``_SWEEPS``, run by one loop, ``_run_sweep``; a
new one is a block enumerator, a judge and one entry (``_Sweep``), which
also holds the program and the report's claim, totals and formats.  A
judge runs the program (``program.run``) on a chunk, counts it and
yields its failing lanes, of which ``_first_hits`` keeps the first;
``_run_sweep`` adds the counts of each block of weight 1, and
``_report`` writes the report, the law campaigns' too.  The claims live
next to their single-model helpers in ``kripke`` and ``hyperset``,
written over masks, so the same code judges one model and a chunk of
lanes.  The membership theorems judge each state on ``_stacked`` blocks
of formula masks; theorem22 first drops the lanes with no urelement and
no Quine state, which hold and count as degenerate unevaluated.  Its
program's modalities come in runs of one modality and direction, which
``program.run`` evaluates in stacks capped, like these blocks, at
``program._STACK_BYTES``, 1/128 of _LANE_BYTES.

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
from dataclasses import dataclass
from functools import cache, partial
from itertools import product as iproduct
from math import comb, prod
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
    """A chunk of candidate models sharing k and the type masks (or, packed,
    each lane with its own); its successor rows, urelement masks and
    valuation are _LANE arrays."""

    record: np.ndarray  # each lane's position in its enumeration order (int64)
    ure: object  # the urelement masks (0 for frames)
    frame: pg.Frame
    #: per lane, how many frames it stands for (int64); None: one each.  A
    #: weighted lane (``_factored_chunks``, ``_packed``) is counted, never
    #: dumped.
    weight: np.ndarray | None = None

    def count(self, flags: np.ndarray | None = None) -> int:
        """How many frames the lanes flagged in ``flags`` (all if None) stand for."""
        if self.weight is None:
            return len(self.record) if flags is None else int(np.count_nonzero(flags))
        return int(self.weight.sum() if flags is None else np.dot(self.weight, flags))

    def compact(self, lane: int) -> tuple:
        """Lane ``lane`` as a compact (k, rows, ure, ua, ub, pval) record,
        pval being the valuation of atom p."""
        f = self.frame
        at = lambda mask: int(mask[lane]) if isinstance(mask, np.ndarray) else mask
        return (f.k, tuple(map(at, f.rows)), at(self.ure), at(f.ua), at(f.ub),
                at(f.atoms.get("p", 0)))


class _Block(NamedTuple):
    """One block of an enumerator: its chunks, built only as they are read,
    and its class, the blocks whose totals are the same."""

    cls: Hashable
    weight: int  # 1: judged and counted; 0: read only for the fail dumps
    first: int  # no record of the block is below it
    chunks: Iterable[_Lanes]


def _relation_blocks(max_states: int, strict: bool, serial: bool, heart: str,
                     ops: Sequence[tuple]) -> Iterator[_Block]:
    """Every belief frame with up to ``max_states`` states, as one block per
    (k, ua), in relation order within a block: state 0's successor row is
    the lowest digit (``_relation_chunks``).

    A permutation of the states maps the block of ua onto the block of any
    mask with the same popcount a, and the classical claims name no state,
    so the blocks of a class (k, a) have the same totals.  Every block
    weighs 0: the sweeps count the packed lanes of ``_classical_blocks``
    and read these blocks only for the dumps.  ``serial`` drops the frames
    with a state that has no successor.  ``record`` is a frame's position
    in this order, counted before the serial filter.
    """
    if not 1 <= max_states <= 5:
        raise ValueError("state bound must be between 1 and 5")
    offset = 0
    for k in range(1, max_states + 1):
        width = _lane_width(ops, k)
        for ua in range(1 << k):
            a = ua.bit_count()
            yield _Block((k, a), 0, offset,
                         _relation_chunks(k, ua, strict, offset, serial, heart, width))
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


def _relation_lanes(max_states: int, strict: bool, serial: bool, heart: str,
                    ops: Sequence[tuple]) -> Iterator[_Lanes]:
    """The chunks of every block of ``_relation_blocks``, in order."""
    for block in _relation_blocks(max_states, strict, serial, heart, ops):
        yield from block.chunks


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


def _factored_chunks(k: int, a: int, serial: bool, heart: str,
                     width: int) -> Iterator[_Lanes]:
    """Weighted lanes that count the non-strict (k, Ua = the lowest a
    states) block of ``_relation_chunks`` without enumerating its edges
    within a type.

    The modalities read a successor row only through ``row & tgt``, its
    cross-type edges; only ``D`` reads the rest, and it splits as Dc(C) &
    Ds(S): no 2-cycle through w in the cross relation C, and no loop or
    2-cycle through w in the same-type relation S.  So every claim is a
    function of (C, Ds(S)).  A lane is a strict block's cross relation C
    and a mask d, with a loop at each state outside d, so that its ``D``
    is Dc(C) & d; it weighs the number of same-type relations with Ds = d
    (with ``serial``, that also give a successor to each state whose cross
    row is empty), the product of the two types' ``_same_type_weights``.
    """
    masks = np.arange(1 << k, dtype=_LANE)
    low = (1 << a) - 1
    loops = [(~masks >> x & 1) << x for x in range(k)]
    d = masks.astype(np.intp)
    weights_a, weights_b = _same_type_weights(a), _same_type_weights(k - a)
    for lanes in _relation_chunks(k, low, True, 0, False, heart, max(1, width >> k)):
        cross = lanes.frame.rows
        empty = np.zeros((len(lanes.record), 1), dtype=np.intp)  # the empty cross rows
        if serial:
            for x, row in enumerate(cross):
                empty[row == 0] |= 1 << x
        weight = weights_a[empty & low, d & low] * weights_b[empty >> a, d >> a]
        rows = [(row[:, None] | loop).ravel() for row, loop in zip(cross, loops)]
        yield _Lanes(np.repeat(lanes.record, len(masks)), 0,
                     lanes.frame._replace(rows=rows), weight.ravel())


def _classical_blocks(c: Campaign, ops: Sequence[tuple]) -> Iterator[_Block]:
    """The blocks of a classical sweep: one judged block of packed lanes,
    then every block of ``_relation_blocks``, read only for the dumps.

    The packed block holds the representative of each class (k, a), Ua
    the lowest a states: the strict block of ``_relation_chunks``, or the
    non-strict ``_factored_chunks``.  Each lane weighs C(k, a), times its
    same-type weight where factored."""
    # listed first, so that a bad bound raises before any lane is judged
    labelled = list(_relation_blocks(c.max_size, c.strict, c.serial, c.heart, ops))
    width = _lane_width(ops, c.max_size)

    def representatives() -> Iterator[_Lanes]:
        for k in range(1, c.max_size + 1):
            for a in range(k + 1):
                chunks = (_relation_chunks(k, (1 << a) - 1, True, 0, c.serial, c.heart, width)
                          if c.strict else _factored_chunks(k, a, c.serial, c.heart, width))
                for lanes in chunks:
                    weight = comb(k, a) * (1 if lanes.weight is None else lanes.weight)
                    yield lanes._replace(weight=np.broadcast_to(weight, len(lanes.record)))
    yield _Block(None, 1, 0, _packed(list(representatives()), c.max_size, width))
    yield from labelled


def _packed(pieces: Sequence[_Lanes], n: int, width: int) -> Iterator[_Lanes]:
    """The weighted lanes of ``pieces``, each piece of its own k <= n states
    and type masks, in chunks of ``width`` lanes over n states: a lane's
    rows past its k states are empty, and it carries its own ``ua`` and
    ``ub``, whose union ``full`` is its states and negates (``xor``).  A
    lane's record is its place in the packed block."""
    if not pieces:
        return  # no frame: strict serial frames of one state
    sizes = [len(piece.record) for piece in pieces]
    rows = np.zeros((n, sum(sizes)), dtype=_LANE)
    start = 0
    for piece, size in zip(pieces, sizes):
        for x, row in enumerate(piece.frame.rows):
            rows[x, start:start + size] = row
        start += size
    ua, ub = (np.repeat(np.array([getattr(piece.frame, side) for piece in pieces], _LANE), sizes)
              for side in ("ua", "ub"))
    weight = np.concatenate([piece.weight for piece in pieces])
    heart = pieces[0].frame.heart
    del pieces  # copied out: freed before the chunks are judged
    for start in range(0, len(weight), width):
        cut = slice(start, start + width)
        full = ua[cut] | ub[cut]
        yield _Lanes(np.arange(start, start + len(full)), 0,
                     pg.Frame(n, ua[cut], ub[cut], list(rows[:, cut]), {}, heart,
                              partial(xor, full)), weight[cut])


def _classes(bad: np.ndarray, lanes: _Lanes) -> set[tuple[int, int]]:
    """The classes (k, |Ua|) of the packed lanes of positive weight that
    ``bad`` flags, read off the popcounts of their ``full`` and ``ua``."""
    f = lanes.frame
    pair = (f.ua | f.ub).astype(np.intp) << 8 | f.ua  # (full, ua) as one index
    return {((x >> 8).bit_count(), (x & 255).bit_count())
            for x in np.flatnonzero(np.bincount(pair[bad & (lanes.weight > 0)])).tolist()}


def _membership_lanes(max_nodes: int, overlap: bool, with_atom: bool,
                      ops: Sequence[tuple]) -> Iterator[_Lanes]:
    """Every membership model with up to ``max_nodes`` nodes as lane
    chunks of the blocks (k, ua, ub), in block order.

    Every node is an urelement or a set with any member row; the type
    assignments cover the nodes, overlapping only when ``overlap``, and
    ``with_atom`` sweeps every valuation of atom p.  Within a block the
    member rows, the urelements and the valuation vary per lane;
    ``record`` orders the models by size, then by (rows, types,
    valuation), the order in which reports name their first models.

    A size's lanes are ``_digits``: p's valuation the lowest (of radix 1
    without ``with_atom``), then each node's option (member row and
    urelement bit) from node k-1 up to node 0, the type assignment on top.
    Whole consecutive blocks share a chunk as long as its live masks (one
    per op and one member row per node) fit in ``program._STACK_BYTES``,
    the cache cap of ``_stacked``: each lane has its own ``ua``/``ub``,
    and records do not rise with the lane.  A block too big to share is
    cut into chunks of at most ``_lane_width`` lanes with int types.
    """
    if not 1 <= max_nodes <= 4:
        raise ValueError("node bound must be between 1 and 4")
    type_options = (1, 2, 3) if overlap else (1, 2)  # bit 0: Ua, bit 1: Ub
    offset = 0
    for k in range(1, max_nodes + 1):
        options = (1 << k) + 1  # an urelement, or a set with any member row
        vals = 1 << k if with_atom else 1
        per_block = options ** k * vals
        assignments = np.array(list(iproduct(type_options, repeat=k)))  # [block, node]: its type
        member_row = np.maximum(np.arange(options) - 1, 0).astype(_LANE)  # option -> row
        tables = [(np.arange(vals), np.arange(vals, dtype=_LANE))] + [
            (np.arange(options) * vals * len(assignments) * options ** (k - 1 - w), member_row,
             np.array([1 << w] + [0] * (options - 1), dtype=_LANE)) for w in reversed(range(k))]
        blocks = (offset + vals * np.arange(len(assignments)),  # the top digit: place, ua, ub
                  *(((assignments >> side & 1) << np.arange(k)).sum(1).astype(_LANE)
                    for side in (0, 1)))
        group = max(1, pg._STACK_BYTES // (len(ops) + k) // per_block)  # whole blocks per chunk
        for t0 in range(0, len(assignments), group):
            chunk_blocks = [table[t0:t0 + group] for table in blocks]
            for record, ((pval,), *nodes, (ua, ub)) in _digits(
                    tables + [chunk_blocks], min(_lane_width(ops, k), group * per_block)):
                if len(chunk_blocks[0]) == 1:  # a block of its own: int types
                    ua, ub = int(ua[0]), int(ub[0])
                yield _Lanes(record, sum(bit for _, bit in nodes),
                             pg.Frame(k, ua, ub, [row for row, _ in reversed(nodes)],
                                      {"p": pval} if with_atom else {}, "membership",
                                      pg.complement(k)))
        offset += per_block * len(assignments)


def _first_hits(found: list, bad: np.ndarray, lanes: _Lanes,
                key: Callable[[int], tuple] = lambda row: ()) -> list:
    """``found`` plus the lanes flagged in ``bad`` as (record, *key(row),
    compact record) entries, cut to the _FAIL_DUMP_CAP first in order.

    ``bad`` flags the chunk's lanes, or is a block of such rows (one per
    formula, say) whose keys rise with the row.  The block's first entries
    lie in the _FAIL_DUMP_CAP lanes with a hit of the lowest records, taken
    lane by lane and row by row; and once ``found`` is full, a chunk whose
    lowest record is past its last cannot change it.  Records rise with
    the lane within a chunk of one block, so there these lanes are the
    first ones with a hit; a packed chunk of whole blocks sorts them.
    """
    packed = isinstance(lanes.frame.ua, np.ndarray)
    if _settled(found, lanes.record.min() if packed else lanes.record[0]):
        return found
    first = np.flatnonzero(bad if bad.ndim == 1 else bad.any(axis=0))
    if packed:
        first = first[np.argsort(lanes.record[first])]
    first = first[:_FAIL_DUMP_CAP]
    if bad.ndim == 1:
        hits = [(lane, 0) for lane in first]
    else:
        lane, row = np.nonzero(bad[:, first].T)
        hits = list(zip(first[lane], row))[:_FAIL_DUMP_CAP]
    if not hits:
        return found
    found = found + [(int(lanes.record[i]), *key(j), lanes.compact(i)) for i, j in hits]
    return sorted(found)[:_FAIL_DUMP_CAP]


def _settled(found: list, record: int) -> bool:
    """Whether the first-hit list ``found`` is full and no lane from record
    ``record`` on can enter it."""
    return len(found) == _FAIL_DUMP_CAP and found[-1][0] < record


def _unweighted(chunks: Iterable[_Lanes]) -> Iterator[_Block]:
    """Each chunk as a block of weight 1 and a class of its own."""
    for i, lanes in enumerate(chunks):
        yield _Block(i, 1, int(lanes.record[0]), (lanes,))


def _take_lanes(lanes: _Lanes, keep: np.ndarray) -> _Lanes:
    """The lanes of a membership chunk that ``keep`` flags."""
    f = lanes.frame
    take = lambda mask: mask[keep] if isinstance(mask, np.ndarray) else mask
    return _Lanes(lanes.record[keep], lanes.ure[keep],
                  f._replace(ua=take(f.ua), ub=take(f.ub), rows=[row[keep] for row in f.rows],
                             atoms={a: mask[keep] for a, mask in f.atoms.items()}))


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
    from ``_relation_lanes``: by size, then Ua mask, then successor rows,
    state 0's changing fastest.

    Every type-space assignment and every relation (cross-type edges only
    in strict mode); ``serial`` keeps only the frames in which every state
    has a successor.
    """
    for lanes in _relation_lanes(max_states, strict, serial, "frame", ()):
        for lane in range(len(lanes.record)):
            yield _rebuild_kripke(lanes.compact(lane), strict)


def enumerate_hypersets(max_nodes: int, *, allow_overlap: bool = False
                        ) -> Iterator[hs.HypersetModel]:
    """All membership graphs with up to ``max_nodes`` nodes (1 to 4),
    rebuilt from ``_membership_lanes`` in its block order: by size, then
    type assignment, then member rows and urelements.

    Every node is either an urelement or a set with any member row; type
    assignments cover the nodes, overlapping only when ``allow_overlap``.
    A model is marked ``disjoint_types`` exactly when its own types are.
    """
    for lanes in _membership_lanes(max_nodes, allow_overlap, False, ()):
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
    runner = {"validity_lists": _run_validity_lists, "lawvere_scan": _run_lawvere_scan,
              "adjunction": _run_lattice_laws, "boundary_law": _run_lattice_laws}.get(c.target)
    return runner(c) if runner else _run_sweep(c, _SWEEPS[c.target])


def _header(c: Campaign, *extra: str) -> list[str]:
    return [f"campaign: {c.target}", f"bounds: max_size={c.max_size}", *extra]


def _dump_block(lines: list[str], title: str, body: str) -> None:
    lines.append(f"{title}:")
    for row in body.rstrip("\n").splitlines():
        lines.append(f"  {row}")


def _report(c: Campaign, head: Sequence[str], claim: str, tally: str, title: str,
            totals: dict, dumps: Sequence[str], **fields) -> CampaignReport:
    """Header, ``head``, claim, tally and numbered dumps, the formats filled
    in from the totals; the SUMMARY adds ``fields`` and the totals."""
    lines = _header(c, *head, f"claim: {claim}", tally.format(**totals))
    for i, body in enumerate(dumps, start=1):
        _dump_block(lines, title.format(i, **totals), body)
    return CampaignReport(tuple(lines), {"target": c.target, "max_size": c.max_size,
                                         **fields, **totals})


class _Sweep(NamedTuple):
    """A lane campaign: ``judge(lanes, ops, slots, totals)`` counts a chunk of
    a block of ``blocks(c, ops)`` and yields its failures as ``_first_hits``
    arguments, and ``dump(c, *key, compact record)`` shows one;
    ``models(c)`` is the closed form of the models the sweep must count.
    The defaults count violations, as the theorems do."""

    program: Callable  # () -> (ops, slots)
    blocks: Callable
    judge: Callable
    claim: str
    dump: Callable
    models: Callable
    totals: tuple = ("models", "holds", "violations")
    tally: str = "models={models} holds={holds} violations={violations}"
    title: str = _VIOLATIONS
    head: Callable = lambda c: []
    fields: Callable = lambda c: {}


def _run_sweep(c: Campaign, spec: _Sweep) -> CampaignReport:
    """Judges each block of weight 1 and adds its totals.  A block of
    weight 0 only looks for dumps: it is skipped when no weighted lane of
    its class failed, and left as soon as no later lane of it can enter
    the full dumps.  Raises RuntimeError unless the models counted are the
    closed form ``spec.models(c)``."""
    ops, slots = spec.program()
    totals = dict.fromkeys(spec.totals, 0)
    found: list[tuple] = []  # the first (record, *key, compact record) that fail
    failing: set = set()  # the classes of the weighted lanes that fail
    for cls, weight, first, chunks in spec.blocks(c, ops):
        if not (weight or cls in failing and not _settled(found, first)):
            continue
        counts = totals if weight else dict.fromkeys(spec.totals, 0)
        for lanes in chunks:
            counts["models"] += lanes.count()
            for hits in spec.judge(lanes, ops, slots, counts):
                if lanes.weight is None:
                    found = _first_hits(found, *hits)
                else:
                    failing |= _classes(*hits)
            if not weight and _settled(found, lanes.record[-1] + 1):
                break
    if totals["models"] != spec.models(c):
        raise RuntimeError(f"{c.target} swept {totals['models']} models, "
                           f"not the {spec.models(c)} of its closed form")
    return _report(c, spec.head(c), spec.claim, spec.tally, spec.title, totals,
                   [spec.dump(c, *hit[1:]) for hit in found], **spec.fields(c))


def _judge_lemma1(lanes: _Lanes, ops, slots, totals: dict) -> Iterator[tuple]:
    premise, part1_fails, part2_body = (np.broadcast_to(mask, len(lanes.record)) for mask in
        kr.lemma1_masks(pg.run(ops, lanes.frame), slots, lanes.frame.ua | lanes.frame.ub))
    part1, part2 = part1_fails == 0, part2_body == 0
    fails = (premise & ~part1) | ~part2
    totals["holds"] += lanes.count(premise & part1 & part2)
    totals["degenerate"] += lanes.count(~premise & part2)
    totals["fails"] += lanes.count(fails)
    yield fails, lanes


def _judge_holes(lanes: _Lanes, ops, slots, totals: dict) -> Iterator[tuple]:
    holds = np.zeros(len(lanes.record), dtype=bool)
    for _, hole in kr.hole_masks(pg.run(ops, lanes.frame), slots):
        holds |= hole
    totals["holds"] += lanes.count(holds)
    totals["fails"] += lanes.count(~holds)
    yield ~holds, lanes


def _judge_states(lanes: _Lanes, ops, slots, totals: dict, fault: Callable,
                  key: Callable) -> Iterator[tuple]:
    """Judges each state w on each ``_stacked`` block: ``fault(frame, w,
    block)`` flags the failing lanes of each formula, keyed ``key(formula, w)``."""
    model_violations = 0  # per-lane counts from the first violating block on
    # the masks live only in the block generator, so they are freed
    # before the next chunk is evaluated
    for start, block in _stacked(pg.run(ops, lanes.frame), slots, len(lanes.record)):
        for w in range(lanes.frame.k):
            bad = fault(lanes.frame, w, block)
            if bad.any():
                model_violations += np.count_nonzero(bad, axis=0)
                yield bad, lanes, lambda j: key(start + j, w)
    totals["holds"] += len(lanes.record) - int(np.count_nonzero(model_violations))
    totals["violations"] += int(np.sum(model_violations))


def _judge_theorem22(lanes: _Lanes, ops, slots, totals: dict) -> Iterator[tuple]:
    special = np.array([hs.is_special(lanes.frame, lanes.ure, w) for w in range(lanes.frame.k)])
    live = special.any(axis=0)  # a lane without a special node holds
    n = int(np.count_nonzero(live))
    totals["holds"] += len(live) - n
    totals["degenerate"] += len(live) - n
    totals["states_checked"] += int(np.count_nonzero(special))
    if n < len(live):
        lanes, special = _take_lanes(lanes, live), special[:, live]

    def fault(frame, w, body):
        wrong_assumption, belief_fails = hs.theorem22_faults(frame, w, body)
        return special[w] & (wrong_assumption | belief_fails)
    yield from _judge_states(lanes, ops, slots, totals, fault, lambda i, w: (i, w))


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
    blocks=_classical_blocks, models=_frame_count,
    judge=_judge_lemma1, totals=("models", "holds", "fails", "degenerate"),
    claim="premise -> chain-implication, and the negative sentence is valid",
    tally="models={models} holds={holds} fails={fails} degenerate={degenerate}",
    title="fail-dump {} of {fails}", head=_kripke_head,
    dump=lambda c, rec: dump_kripke(_rebuild_kripke(rec, c.strict)),
    fields=lambda c: {"strict": c.strict, "heart": c.heart, "serial": c.serial})
_SWEEPS = {
    "lemma1": _LEMMA1,
    "theorem12": _LEMMA1._replace(program=lambda: kr.hole_program("kripke"),
                                  judge=_judge_holes,
                                  claim="every model has one of the seven holes"),
    "theorem22": _Sweep(
        program=hs.theorem22_program,
        blocks=lambda c, ops: _unweighted(_membership_lanes(c.max_size, False, True, ops)),
        models=lambda c: _membership_count(c, 2, 2), judge=_judge_theorem22,
        totals=("models", "holds", "degenerate", "states_checked", "violations"),
        claim="quine/urelement states assume exactly their falsehoods "
              "and believe everything",
        dump=lambda c, i, w, rec: (f"state n{w}, formula "
                                   f"{fm.to_text(hs.bounded_formula_family()[i])}\n"
                                   + dump_nwf(_rebuild_hyperset(rec))),
        head=lambda c: [f"formula family: {len(hs.bounded_formula_family())} formulas, "
                        "modal depth <= 2"]),
    "theorem23": _Sweep(
        program=hs.theorem23_program,
        blocks=lambda c, ops: _unweighted(_membership_lanes(c.max_size, True, False, ops)),
        models=lambda c: _membership_count(c, 3, 1),
        judge=lambda lanes, ops, slots, totals: _judge_states(
            lanes, ops, slots, totals, hs.theorem23_fault, lambda d, w: (w, d)),
        claim="quine states with a true assumption sit in both type spaces",
        dump=lambda c, w, _, rec: f"quine state n{w}\n" + dump_nwf(_rebuild_hyperset(rec))),
}


def _run_validity_lists(c: Campaign) -> CampaignReport:
    ops, slots = hs.validity_program()
    models = 0
    valid_counts = {text: 0 for text, _ in hs.VALIDITY_CLAIMS}
    counterexample: dict[str, list] = {}  # text -> [(record, compact record)]
    for lanes in _membership_lanes(c.max_size, False, False, ops):
        models += len(lanes.record)
        failures = hs.validity_failures(pg.run(ops, lanes.frame), slots,
                                        (1 << lanes.frame.k) - 1)
        for (text, claimed), failing in zip(hs.VALIDITY_CLAIMS, failures):
            valid = np.broadcast_to(failing == 0, len(lanes.record))
            valid_counts[text] += int(np.count_nonzero(valid))
            if claimed:
                first = _first_hits(counterexample.get(text, []), ~valid, lanes)[:1]
                if first:
                    counterexample[text] = first

    lines = _header(c)
    lines.append("claimed-valid formulas: models on which each holds everywhere")
    for text, claimed in hs.VALIDITY_CLAIMS:
        tag = "claimed-valid" if claimed else "claimed-invalid"
        lines.append(f"  {tag}: {text}: {valid_counts[text]} of {models}")
    for text in sorted(counterexample):
        _dump_block(lines, f"first counter-model for {text}",
                    dump_nwf(_rebuild_hyperset(counterexample[text][0][1])))
    summary = {"target": c.target, "max_size": c.max_size, "models": models,
               "valid_counts": {t: v for t, v in sorted(valid_counts.items())}}
    return CampaignReport(tuple(lines), summary)


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
    return _report(c, [], claim, "topologies={topologies} checks={checks} "
                   "violations={violations}", _VIOLATIONS, totals, dumps)


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


def _sat_claim(m: hs.HypersetModel, state: str, text: str, expect: bool = True) -> Claim:
    holds = state in hs.nwf_extension(m, fm.parse(text))
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
    ext = hs.nwf_extension(m, fm.parse("Ua & D+"))
    return [
        Claim("Ua & D+ holds exactly at u", ext == frozenset(["u"]),
              detail=f"extension={sorted(ext)}"),
        _sat_claim(m, "v", "Hba (Ua & D+)"),
        _sat_claim(m, "w", "[ab] Hba (Ua & D+)"),
    ]


def _claims_ninestate(m: hs.HypersetModel) -> list[Claim]:
    ext = hs.nwf_extension(m, fm.parse("Ua & D+"))
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
        Claim("[ab] Ua <-> true is valid", hs.nwf_valid(m, fm.parse("[ab] Ua <-> true"))),
        Claim("[ab] Ua <-> false fails",
              not hs.nwf_valid(m, fm.parse("[ab] Ua <-> false"))),
        _sat_claim(m, "w", "Hab true"),
        Claim("w sits in both type spaces", "w" in m.ua and "w" in m.ub),
        Claim("no true-assumption violations", not hs.check_theorem_2_3(m)),
    ]
    for text in hs.CLAIMED_INVALID:
        claims.append(Claim(f"{text} satisfied here", hs.nwf_valid(m, fm.parse(text))))
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
