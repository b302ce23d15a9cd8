"""Model enumeration, claim-verification campaigns, fixtures, and reports.

Campaigns sweep an exhaustively enumerated model space and record how a
named claim fares on every model.  They report; they do not assert.
Each model kind has one enumerator, which yields numpy lane chunks, one
lane per candidate model, blocked so that the type masks are fixed per
chunk: ``_relation_blocks`` for classical frames (``_relation_lanes``
reads its chunks in order) and ``_membership_lanes`` for membership
graphs.  Each lane carries a record index (its place in the enumeration
order) and reads back as a compact record, which
``_rebuild_kripke``/``_rebuild_hyperset`` turn into a model; the public
``enumerate_kripke``/``enumerate_hypersets`` are such rebuild loops.

The frames come in one block per (k, Ua mask).  A state permutation maps
the block of a mask onto the block of any mask with the same popcount a,
and the classical claims name no state, so every total is the same in
the blocks of a class (k, a).  Only the class's first block, whose Ua is
the lowest a states, is judged, and its totals count C(k, a) times.  The
other blocks are read only for the first five fail dumps, and only until
no later lane of theirs can enter them, so the dumps are those of the
whole sweep.  Each membership chunk is a class of its own, of weight 1.

The lane campaigns (lemma1, theorem12, theorem22, theorem23) are the
entries of one table, ``_SWEEPS``, run by one loop, ``_run_sweep``; a
new one is a block enumerator, a judge and one entry (``_Sweep``), which
also holds the program and the report's claim, totals and formats.  A
judge runs the program (``program.run``) on a chunk, counts it and
yields its failing lanes, of which ``_first_hits`` keeps the first;
``_run_sweep`` adds each block's counts times its weight, and
``_report`` writes the report, the law campaigns' too.  The claims live
next to their single-model helpers in ``kripke`` and ``hyperset``,
written over masks, so the same code judges one model and a chunk of
lanes.  The membership theorems judge each state on ``_stacked`` blocks
of formula masks; theorem22 first drops the lanes with no urelement and
no Quine state, which hold and count as degenerate unevaluated.

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
from functools import partial
from itertools import product as iproduct
from math import comb, prod
from operator import itemgetter
from typing import Callable, Hashable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import formula as fm
from . import hyperset as hs
from . import kripke as kr
from . import lawvere as lv
from . import paratopo as pt
from . import program as pg
from . import topology as tp
from .modelio import dump_kripke, dump_nwf

TARGETS = ("lemma1", "theorem12", "theorem22", "theorem23",
           "validity_lists", "adjunction", "boundary_law", "lawvere_scan")

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
    """A chunk of candidate models sharing k and the type masks; its
    successor rows, urelement masks and valuation are _LANE arrays."""

    record: np.ndarray  # each lane's position in its enumeration order (int64)
    ure: object  # the urelement masks (0 for frames)
    frame: pg.Frame

    def compact(self, lane: int) -> tuple:
        """Lane ``lane`` as a compact (k, rows, ure, ua, ub, pval) record,
        pval being the valuation of atom p."""
        f = self.frame
        at = lambda mask: int(mask[lane]) if isinstance(mask, np.ndarray) else mask
        return (f.k, tuple(map(at, f.rows)), at(self.ure), f.ua, f.ub,
                at(f.atoms.get("p", 0)))


def _row_fields(k: int, ua: int, strict: bool) -> list[tuple[int, int, np.ndarray]]:
    """Per state x, (shift, mask, table): in the frame with relation id i,
    x's successor row is ``table[i >> shift & mask]``.

    Bit j of a relation id is the j-th candidate edge (cross-type edges
    only when ``strict``), ordered by source state, then target, so the
    edges of state x are one bit-field of the id.
    """
    fields, shift = [], 0
    for x in range(k):
        targets = [y for y in range(k) if not strict or (ua >> x & 1) != (ua >> y & 1)]
        table = [0]  # field value -> row; bit i of the field is the edge to targets[i]
        for y in targets:
            table += [row | 1 << y for row in table]
        fields.append((shift, len(table) - 1, np.array(table, dtype=_LANE)))
        shift += len(targets)
    return fields


class _Block(NamedTuple):
    """One block of an enumerator: its chunks, built only as they are read,
    and its place in its class, the blocks whose totals are the same."""

    cls: Hashable
    weight: int  # how many blocks of its class its totals count for: all or 0
    first: int  # no record of the block is below it
    chunks: Iterable[_Lanes]


def _relation_blocks(max_states: int, strict: bool, serial: bool, heart: str,
                     ops: Sequence[tuple]) -> Iterator[_Block]:
    """Every belief frame with up to ``max_states`` states, as one block per
    (k, ua), in relation-id order within a block (``_row_fields`` reads
    the rows off the id).

    A permutation of the states maps the block of ua onto the block of any
    mask with the same popcount a, and the classical claims name no state,
    so the blocks of a class (k, a) have the same totals.  The class's
    first block, whose Ua is the lowest a states, weighs C(k, a); the
    others weigh 0.  ``serial`` drops the frames with a state that has no
    successor.  ``record`` is a frame's position in this order, counted
    before the serial filter.
    """
    if not 1 <= max_states <= 5:
        raise ValueError("state bound must be between 1 and 5")
    offset = 0
    for k in range(1, max_states + 1):
        width = _lane_width(ops, k)
        for ua in range(1 << k):
            a = ua.bit_count()
            fields = _row_fields(k, ua, strict)
            yield _Block((k, a), comb(k, a) if ua == (1 << a) - 1 else 0, offset,
                         _relation_chunks(k, ua, fields, offset, serial, heart, width))
            offset += prod(len(table) for _, _, table in fields)


def _relation_chunks(k: int, ua: int, fields: list[tuple[int, int, np.ndarray]], offset: int,
                     serial: bool, heart: str, width: int) -> Iterator[_Lanes]:
    """The lane chunks of the (k, ua) block whose first record is ``offset``.
    The rows are looked up from int32 ids, which hold the 25 edge bits of
    a non-strict 5-state frame."""
    total = prod(len(table) for _, _, table in fields)
    for start in range(0, total, width):
        ids = np.arange(start, min(start + width, total), dtype=np.int32)
        rows = [table[ids >> shift & mask] for shift, mask, table in fields]
        if serial:
            keep = np.logical_and.reduce([row != 0 for row in rows])
            ids, rows = ids[keep], [row[keep] for row in rows]
        record = np.add(ids, offset, dtype=np.int64)
        del ids  # not kept alive while the chunk is judged
        if len(record):
            yield _Lanes(record, 0, pg.Frame(k, ua, (1 << k) - 1 - ua, rows, {}, heart,
                                             pg.complement(k)))


def _relation_lanes(max_states: int, strict: bool, serial: bool, heart: str,
                    ops: Sequence[tuple]) -> Iterator[_Lanes]:
    """The chunks of every block of ``_relation_blocks``, in order."""
    for block in _relation_blocks(max_states, strict, serial, heart, ops):
        yield from block.chunks


def _membership_lanes(max_nodes: int, overlap: bool, with_atom: bool,
                      ops: Sequence[tuple]) -> Iterator[_Lanes]:
    """Every membership model with up to ``max_nodes`` nodes as lane
    chunks, blocked by (k, ua, ub).

    Every node is an urelement or a set with any member row; the type
    assignments cover the nodes, overlapping only when ``overlap``, and
    ``with_atom`` sweeps every valuation of atom p.  Within a block the
    member rows, the urelements and the valuation vary per lane;
    ``record`` orders the models by size, then by (rows, types,
    valuation), the order in which reports name their first models.
    """
    if not 1 <= max_nodes <= 4:
        raise ValueError("node bound must be between 1 and 4")
    type_options = (1, 2, 3) if overlap else (1, 2)  # bit 0: Ua, bit 1: Ub
    offset = 0
    for k in range(1, max_nodes + 1):
        options = (1 << k) + 1  # an urelement, or a set with any member row
        vals = 1 << k if with_atom else 1
        per_block = options ** k * vals
        width = _lane_width(ops, k)
        member_row = np.maximum(np.arange(options) - 1, 0).astype(_LANE)  # option -> row
        assignments = list(iproduct(type_options, repeat=k))
        for t, types in enumerate(assignments):
            ua = sum(1 << w for w in range(k) if types[w] & 1)
            ub = sum(1 << w for w in range(k) if types[w] & 2)
            for start in range(0, per_block, width):
                lane = np.arange(start, min(start + width, per_block), dtype=np.int64)
                digits, pval = lane // vals, lane % vals
                record = offset + (digits * len(assignments) + t) * vals + pval
                rows, ure = [None] * k, 0
                for w in reversed(range(k)):
                    digits, option = digits // options, digits % options
                    rows[w] = member_row[option]
                    ure = ure | (option == 0) * _LANE(1 << w)
                atoms = {"p": pval.astype(_LANE)} if with_atom else {}
                yield _Lanes(record, ure, pg.Frame(k, ua, ub, rows, atoms, "membership",
                                                   pg.complement(k)))
        offset += per_block * len(assignments)


def _first_hits(found: list, bad: np.ndarray, lanes: _Lanes,
                key: Callable[[int], tuple] = lambda row: ()) -> list:
    """``found`` plus the lanes flagged in ``bad`` as (record, *key(row),
    compact record) entries, cut to the _FAIL_DUMP_CAP first in order.

    ``bad`` flags the chunk's lanes, or is a block of such rows (one per
    formula, say) whose keys rise with the row.  Records rise with the
    lane within a chunk, so the block's first entries lie in its first
    _FAIL_DUMP_CAP lanes with a hit, taken lane by lane and row by row;
    and once ``found`` is full, a chunk that starts past its last record
    cannot change it.
    """
    if _settled(found, lanes.record[0]):
        return found
    if bad.ndim == 1:
        hits = [(lane, 0) for lane in np.flatnonzero(bad)[:_FAIL_DUMP_CAP]]
    else:
        first = np.flatnonzero(bad.any(axis=0))[:_FAIL_DUMP_CAP]
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
    return _Lanes(lanes.record[keep], lanes.ure[keep],
                  f._replace(rows=[row[keep] for row in f.rows],
                             atoms={a: mask[keep] for a, mask in f.atoms.items()}))


def _stacked(vals: list, slots: Sequence[int], n: int) -> Iterator[tuple[int, np.ndarray]]:
    """The masks of ``slots`` on n lanes as (index of the first slot,
    slots × n _LANE array) blocks, so that a claim judges a block of
    formulas in one broadcast.  A block, and each temporary of its shape
    that the claim makes, holds one row or at most 1/128 of _LANE_BYTES:
    the few rows of a wide chunk stay in cache next to its masks."""
    height = max(1, _LANE_BYTES // 128 // max(n, 1))
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
    from ``_relation_lanes``: by size, then Ua mask, then relation id.

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
    arguments, and ``dump(c, *key, compact record)`` shows one; ``failed``
    is the total that counts them.  The defaults count violations, as the
    theorems do."""

    program: Callable  # () -> (ops, slots)
    blocks: Callable
    judge: Callable
    claim: str
    dump: Callable
    totals: tuple = ("models", "holds", "violations")
    failed: str = "violations"
    tally: str = "models={models} holds={holds} violations={violations}"
    title: str = _VIOLATIONS
    head: Callable = lambda c: []
    fields: Callable = lambda c: {}


def _run_sweep(c: Campaign, spec: _Sweep) -> CampaignReport:
    """Judges the first block of each class and adds its totals times its
    weight.  A block of weight 0 only looks for dumps: it is skipped when
    its class has no failures, and left as soon as no later lane of it can
    enter the full dumps."""
    ops, slots = spec.program()
    totals = dict.fromkeys(spec.totals, 0)
    found: list[tuple] = []  # the first (record, *key, compact record) that fail
    failed = {}  # class -> the failures in its first block
    for cls, weight, first, chunks in spec.blocks(c, ops):
        counts = dict.fromkeys(spec.totals, 0)
        if weight or (failed[cls] and not _settled(found, first)):
            for lanes in chunks:
                counts["models"] += len(lanes.record)
                for hits in spec.judge(lanes, ops, slots, counts):
                    found = _first_hits(found, *hits)
                if not weight and _settled(found, lanes.record[-1] + 1):
                    break
        failed.setdefault(cls, counts[spec.failed])
        for key, n in counts.items():
            totals[key] += weight * n
    return _report(c, spec.head(c), spec.claim, spec.tally, spec.title, totals,
                   [spec.dump(c, *hit[1:]) for hit in found], **spec.fields(c))


def _judge_lemma1(lanes: _Lanes, ops, slots, totals: dict) -> Iterator[tuple]:
    premise, part1_fails, part2_body = (np.broadcast_to(mask, len(lanes.record)) for mask in
        kr.lemma1_masks(pg.run(ops, lanes.frame), slots, (1 << lanes.frame.k) - 1))
    part1, part2 = part1_fails == 0, part2_body == 0
    fails = (premise & ~part1) | ~part2
    totals["holds"] += int(np.count_nonzero(premise & part1 & part2))
    totals["degenerate"] += int(np.count_nonzero(~premise & part2))
    totals["fails"] += int(np.count_nonzero(fails))
    yield fails, lanes


def _judge_holes(lanes: _Lanes, ops, slots, totals: dict) -> Iterator[tuple]:
    holds = np.zeros(len(lanes.record), dtype=bool)
    for _, hole in kr.hole_masks(pg.run(ops, lanes.frame), slots):
        holds |= hole
    totals["holds"] += int(np.count_nonzero(holds))
    totals["fails"] += int(np.count_nonzero(~holds))
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


_LEMMA1 = _Sweep(
    program=kr.lemma1_program,
    blocks=lambda c, ops: _relation_blocks(c.max_size, c.strict, c.serial, c.heart, ops),
    judge=_judge_lemma1, totals=("models", "holds", "fails", "degenerate"), failed="fails",
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
        program=lambda: pg.compile_program(hs.bounded_formula_family(), "nwf", atoms=("p",)),
        blocks=lambda c, ops: _unweighted(_membership_lanes(c.max_size, False, True, ops)),
        judge=_judge_theorem22,
        totals=("models", "holds", "degenerate", "states_checked", "violations"),
        claim="quine/urelement states assume exactly their falsehoods "
              "and believe everything",
        dump=lambda c, i, w, rec: (f"state n{w}, formula "
                                   f"{fm.to_text(hs.bounded_formula_family()[i])}\n"
                                   + dump_nwf(_rebuild_hyperset(rec))),
        head=lambda c: [f"formula family: {len(hs.bounded_formula_family())} formulas, "
                        "modal depth <= 2"]),
    "theorem23": _Sweep(
        program=lambda: pg.compile_program([f for _, f in hs.TRUE_ASSUMPTIONS], "nwf",
                                           atoms=()),
        blocks=lambda c, ops: _unweighted(_membership_lanes(c.max_size, True, False, ops)),
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
