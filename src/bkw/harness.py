"""Model enumeration, claim-verification campaigns, fixtures, and reports.

Campaigns sweep an exhaustively enumerated model space and record how a
named claim fares on every model.  They report; they do not assert.
Each model kind has one enumerator, which yields numpy lane chunks, one
lane per candidate model, blocked so that the type masks are fixed per
chunk: ``_relation_lanes`` for classical frames and ``_membership_lanes``
for membership graphs.  Each lane carries a record index (its place in
the enumeration order) and reads back as a compact record, which
``_rebuild_kripke``/``_rebuild_hyperset`` turn into a model; the public
``enumerate_kripke``/``enumerate_hypersets`` are such rebuild loops.
Each sweep compiles its formulas once (``program.compile_program``) and
runs them with the one evaluator (``program.run``) on the lanes.  The
claims themselves (lemma 1, the hole scan, theorems 2.2 and 2.3, the
validity lists) live next to their single-model helpers in ``kripke``
and ``hyperset`` and are written over masks, so the same code judges one
model and a chunk of lanes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product as iproduct
from math import prod
from typing import Iterator, NamedTuple, Sequence

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


def _relation_lanes(max_states: int, strict: bool, serial: bool, heart: str,
                    ops: Sequence[tuple]) -> Iterator[_Lanes]:
    """Every belief frame with up to ``max_states`` states as lane chunks,
    blocked by (k, ua) and in relation-id order within a block
    (``_row_fields`` reads the rows off the id).

    ``serial`` drops the frames with a state that has no successor.
    ``record`` is a frame's position in this order, counted before the
    serial filter.
    """
    if not 1 <= max_states <= 5:
        raise ValueError("state bound must be between 1 and 5")
    offset = 0
    for k in range(1, max_states + 1):
        width = _lane_width(ops, k)
        for ua in range(1 << k):
            fields = _row_fields(k, ua, strict)
            total = prod(len(table) for _, _, table in fields)
            for start in range(0, total, width):
                ids = np.arange(start, min(start + width, total), dtype=np.int64)
                rows = [table[ids >> shift & mask] for shift, mask, table in fields]
                if serial:
                    keep = np.logical_and.reduce([row != 0 for row in rows])
                    ids, rows = ids[keep], [row[keep] for row in rows]
                if len(ids):
                    yield _Lanes(offset + ids, 0,
                                 pg.Frame(k, ua, (1 << k) - 1 - ua, rows, {}, heart))
            offset += total


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
                yield _Lanes(record, ure, pg.Frame(k, ua, ub, rows, atoms, "membership"))
        offset += per_block * len(assignments)


def _first_hits(found: list, bad: np.ndarray, lanes: _Lanes, *key) -> list:
    """``found`` plus the lanes flagged in ``bad`` as (record, *key,
    compact record) entries, cut to the _FAIL_DUMP_CAP first in order."""
    hits = np.flatnonzero(bad)[:_FAIL_DUMP_CAP]
    if len(hits) == 0:
        return found
    found = found + [(int(lanes.record[i]), *key, lanes.compact(i)) for i in hits]
    return sorted(found)[:_FAIL_DUMP_CAP]


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
    runner = {
        "lemma1": _run_kripke_campaign,
        "theorem12": _run_kripke_campaign,
        "theorem22": _run_theorem22,
        "theorem23": _run_theorem23,
        "validity_lists": _run_validity_lists,
        "adjunction": _run_lattice_laws,
        "boundary_law": _run_lattice_laws,
        "lawvere_scan": _run_lawvere_scan,
    }[c.target]
    return runner(c)


def _header(c: Campaign, extra: str = "") -> list[str]:
    lines = [f"campaign: {c.target}", f"bounds: max_size={c.max_size}"]
    if c.target in ("lemma1", "theorem12"):
        lines.append(f"flags: strict={'on' if c.strict else 'off'} "
                     f"heart={c.heart} serial={'on' if c.serial else 'off'}")
    if extra:
        lines.append(extra)
    return lines


def _dump_block(lines: list[str], title: str, body: str) -> None:
    lines.append(f"{title}:")
    for row in body.rstrip("\n").splitlines():
        lines.append(f"  {row}")


def _run_kripke_campaign(c: Campaign) -> CampaignReport:
    totals = {"models": 0, "holds": 0, "fails": 0, "degenerate": 0}
    found: list[tuple] = []  # the first (record, compact record) that fail
    lemma1 = c.target == "lemma1"
    ops, slots = kr.lemma1_program() if lemma1 else kr.hole_program("kripke")
    for lanes in _relation_lanes(c.max_size, c.strict, c.serial, c.heart, ops):
        n = len(lanes.record)
        vals = pg.run(ops, lanes.frame)
        if lemma1:
            premise, part1_fails, part2_body = (np.broadcast_to(mask, n) for mask in
                kr.lemma1_masks(vals, slots, (1 << lanes.frame.k) - 1))
            part1, part2 = part1_fails == 0, part2_body == 0
            fails = (premise & ~part1) | ~part2
            totals["holds"] += int(np.count_nonzero(premise & part1 & part2))
            totals["degenerate"] += int(np.count_nonzero(~premise & part2))
        else:
            holds = np.zeros(n, dtype=bool)
            for _, hole in kr.hole_masks(vals, slots):
                holds |= hole
            fails = ~holds
            totals["holds"] += int(np.count_nonzero(holds))
        totals["models"] += n
        totals["fails"] += int(np.count_nonzero(fails))
        found = _first_hits(found, fails, lanes)
    dumps = [dump_kripke(_rebuild_kripke(rec, c.strict)) for _, rec in found]

    lines = _header(c)
    lines.extend(_two_cycle_verdict(c.heart))
    claim = ("premise -> chain-implication, and the negative sentence is valid"
             if lemma1 else "every model has one of the seven holes")
    lines.append(f"claim: {claim}")
    lines.append(f"models={totals['models']} holds={totals['holds']} "
                 f"fails={totals['fails']} degenerate={totals['degenerate']}")
    for i, body in enumerate(dumps, start=1):
        _dump_block(lines, f"fail-dump {i} of {totals['fails']}", body)
    summary = {"target": c.target, "max_size": c.max_size,
               "strict": c.strict, "heart": c.heart, "serial": c.serial, **totals}
    return CampaignReport(tuple(lines), summary)


def _two_cycle_verdict(heart: str) -> list[str]:
    m = two_cycle()
    record = kr.check_lemma_1(m, heart)
    holes = kr.find_holes(m, heart)
    return [
        "landmark two_cycle (x<->y): "
        f"premise={record.premise_holds} part1_valid={record.part1_valid} "
        f"part1_counterwitnesses={list(record.part1_counterwitnesses)} "
        f"part2_valid={record.part2_valid} any_hole={holes.any_hole}"
    ]


def _run_theorem22(c: Campaign) -> CampaignReport:
    family = hs.bounded_formula_family()
    ops, slots = pg.compile_program(family, "nwf", atoms=("p",))
    totals = {"models": 0, "holds": 0, "degenerate": 0,
              "states_checked": 0, "violations": 0}
    found: list[tuple] = []  # the first (record, formula, state, compact record)
    for lanes in _membership_lanes(c.max_size, False, True, ops):
        frame = lanes.frame
        vals = pg.run(ops, frame)
        specials = np.zeros(len(lanes.record), dtype=np.int64)
        model_violations = np.zeros(len(lanes.record), dtype=np.int64)
        for w in range(frame.k):
            special = hs.is_special(frame, lanes.ure, w)
            specials += special
            for i, slot in enumerate(slots):
                wrong_assumption, belief_fails = hs.theorem22_faults(frame, w, vals[slot])
                bad = special & (wrong_assumption | belief_fails)
                model_violations += bad
                found = _first_hits(found, bad, lanes, i, w)
        totals["models"] += len(lanes.record)
        totals["degenerate"] += int(np.count_nonzero(specials == 0))
        totals["holds"] += int(np.count_nonzero(model_violations == 0))
        totals["states_checked"] += int(specials.sum())
        totals["violations"] += int(model_violations.sum())

    lines = _header(c, f"formula family: {len(family)} formulas, modal depth <= 2")
    lines.append("claim: quine/urelement states assume exactly their falsehoods "
                 "and believe everything")
    lines.append(f"models={totals['models']} holds={totals['holds']} "
                 f"violations={totals['violations']}")
    for n, (_, i, w, rec) in enumerate(found, start=1):
        _dump_block(lines, f"violation {n} of {totals['violations']}",
                    f"state n{w}, formula {fm.to_text(family[i])}\n"
                    + dump_nwf(_rebuild_hyperset(rec)))
    summary = {"target": c.target, "max_size": c.max_size, **totals}
    return CampaignReport(tuple(lines), summary)


def _run_theorem23(c: Campaign) -> CampaignReport:
    ops, slots = pg.compile_program([f for _, f in hs.TRUE_ASSUMPTIONS], "nwf", atoms=())
    totals = {"models": 0, "holds": 0, "violations": 0}
    found: list[tuple] = []  # the first (record, state, direction, compact record)
    for lanes in _membership_lanes(c.max_size, True, False, ops):
        vals = pg.run(ops, lanes.frame)
        model_violations = np.zeros(len(lanes.record), dtype=np.int64)
        for w in range(lanes.frame.k):
            for d, slot in enumerate(slots):
                bad = hs.theorem23_fault(lanes.frame, w, vals[slot])
                model_violations += bad
                found = _first_hits(found, bad, lanes, w, d)
        totals["models"] += len(lanes.record)
        totals["holds"] += int(np.count_nonzero(model_violations == 0))
        totals["violations"] += int(model_violations.sum())

    lines = _header(c)
    lines.append("claim: quine states with a true assumption sit in both type spaces")
    lines.append(f"models={totals['models']} holds={totals['holds']} "
                 f"violations={totals['violations']}")
    for n, (_, w, _, rec) in enumerate(found, start=1):
        _dump_block(lines, f"violation {n} of {totals['violations']}",
                    f"quine state n{w}\n" + dump_nwf(_rebuild_hyperset(rec)))
    summary = {"target": c.target, "max_size": c.max_size, **totals}
    return CampaignReport(tuple(lines), summary)


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


def _run_lattice_laws(c: Campaign) -> CampaignReport:
    if not 0 <= c.max_size <= 4:
        raise ValueError("carrier bound must be between 0 and 4")
    totals = {"topologies": 0, "checks": 0, "violations": 0}
    dumps: list[str] = []
    for n in range(c.max_size + 1):
        carrier = [f"x{i + 1}" for i in range(n)]
        for t in tp.enumerate_topologies(carrier):
            totals["topologies"] += 1
            closed = sorted(t.closed, key=lambda s: (len(s), tuple(sorted(s))))
            family = f"closed={[sorted(s) for s in closed]}"
            if c.target == "adjunction":
                for a in closed:
                    for b in closed:
                        sub = tp.subtraction(t, a, b)
                        for x in closed:
                            totals["checks"] += 1
                            if (sub <= x) != (a <= x | b):
                                totals["violations"] += 1
                                if len(dumps) < _FAIL_DUMP_CAP:
                                    dumps.append(
                                        f"A={sorted(a)} B={sorted(b)} X={sorted(x)} {family}")
            else:
                for s in closed:
                    totals["checks"] += 2
                    neg = tp.pneg(t, s)
                    if s | neg != t.carrier:
                        totals["violations"] += 1
                        if len(dumps) < _FAIL_DUMP_CAP:
                            dumps.append(f"join law: S={sorted(s)} {family}")
                    if s & neg != tp.boundary(t, s):
                        totals["violations"] += 1
                        if len(dumps) < _FAIL_DUMP_CAP:
                            dumps.append(f"overlap law: S={sorted(s)} {family}")

    lines = _header(c)
    claim = ("subtraction adjunction over all closed triples"
             if c.target == "adjunction"
             else "S | ~S covers and S & ~S is the boundary, for closed S")
    lines.append(f"claim: {claim}")
    lines.append(f"topologies={totals['topologies']} checks={totals['checks']} "
                 f"violations={totals['violations']}")
    for i, body in enumerate(dumps, start=1):
        _dump_block(lines, f"violation {i} of {totals['violations']}", body)
    summary = {"target": c.target, "max_size": c.max_size, **totals}
    return CampaignReport(tuple(lines), summary)


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
