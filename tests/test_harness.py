import random
from collections import Counter
from itertools import groupby, product as iproduct
from math import comb

import numpy as np
import pytest

from bkw import formula as fm
from bkw import harness as hn
from bkw import hyperset as hs
from bkw import kripke as kr
from bkw import paratopo as pt
from bkw import program as pg
from bkw import topology as tp
from bkw.modelio import dump_kripke, dump_nwf, load_model
from bkw.harness import _closure_table
from conftest import (kripke_truth, nwf_truth, random_hyperset,
                      random_relational_formula, random_topo_formula)


def test_enumerate_kripke_counts():
    assert sum(1 for _ in hn.enumerate_kripke(1)) == 2
    models = list(hn.enumerate_kripke(2))
    assert len(models) == 12  # 2 one-state + 10 two-state frames
    fixed_partition = [m for m in models
                       if m.ua == frozenset(["s0"]) and len(m.states) == 2]
    assert len(fixed_partition) == 4  # two cross edges, all subsets
    assert len(list(hn.enumerate_kripke(3))) == 110
    with pytest.raises(ValueError):
        next(hn.enumerate_kripke(6))


def test_enumerate_kripke_is_duplicate_free():
    seen = set()
    for m in hn.enumerate_kripke(3):
        key = (tuple(sorted(m.states)), tuple(sorted(m.ua)),
               tuple(sorted(m.rel)))
        assert key not in seen
        seen.add(key)


def test_enumerate_kripke_serial_filter():
    for m in hn.enumerate_kripke(3, serial=True):
        assert all(m.successors(x) for x in m.states)
    # complete and in order: exactly the serial frames of the full sweep
    serial = list(hn.enumerate_kripke(3, strict=False, serial=True))
    assert serial == [m for m in hn.enumerate_kripke(3, strict=False)
                      if all(m.successors(x) for x in m.states)]


def test_enumerate_hypersets_counts():
    singles = list(hn.enumerate_hypersets(1))
    # empty set, quine, urelement, each with two type choices
    assert len(singles) == 6
    kinds = {(m.kind("n0"), m.members("n0") == frozenset(["n0"]),
              "n0" in m.ua) for m in singles}
    assert len(kinds) == 6
    assert all(not v for m in singles for v in m.val.values())
    with pytest.raises(ValueError):
        next(hn.enumerate_hypersets(5))


def test_enumerate_hypersets_all_validate():
    count = 0
    models = set()
    for m in hn.enumerate_hypersets(2, allow_overlap=True):
        count += 1
        assert m.ua | m.ub == m.nodes
        models.add(m)
    assert count == 25 * 9 + 3 * 3  # two-node space + single-node space
    assert len(models) == count  # pairwise distinct


def test_campaign_validation():
    with pytest.raises(ValueError):
        hn.Campaign(target="nonsense")
    with pytest.raises(ValueError):
        hn.Campaign(target="lemma1", heart="sideways")
    with pytest.raises(ValueError):
        hn.run_campaign(hn.Campaign(target="lawvere_scan", max_size=9))


def test_campaign_reports_are_deterministic():
    c = hn.Campaign(target="theorem12", max_size=3, strict=True)
    assert hn.run_campaign(c).text == hn.run_campaign(c).text
    c2 = hn.Campaign(target="lemma1", max_size=2, strict=False)
    assert hn.run_campaign(c2).text == hn.run_campaign(c2).text


def test_fail_records_reload_and_reproduce():
    report = hn.run_campaign(hn.Campaign(target="theorem12", max_size=3))
    blocks = _dump_blocks(report.lines)
    assert blocks, "expected hole-free counter-models at this size"
    for text in blocks:
        m = load_model(text)
        assert not kr.find_holes(m).any_hole
    report = hn.run_campaign(hn.Campaign(target="lemma1", max_size=2))
    for text in _dump_blocks(report.lines):
        m = load_model(text)
        rec = kr.check_lemma_1(m)
        assert (rec.premise_holds and not rec.part1_valid) or not rec.part2_valid


def _dump_blocks(lines):
    blocks, current = [], None
    for line in lines:
        if line.startswith("fail-dump"):
            if current:
                blocks.append("\n".join(current) + "\n")
            current = []
        elif current is not None and line.startswith("  "):
            current.append(line[2:])
        elif current is not None:
            blocks.append("\n".join(current) + "\n")
            current = None
    if current:
        blocks.append("\n".join(current) + "\n")
    return blocks


def test_two_cycle_landmark_in_reports():
    for heart in ("frame", "local"):
        report = hn.run_campaign(hn.Campaign(target="lemma1", max_size=1,
                                             heart=heart))
        landmark = [l for l in report.lines if l.startswith("landmark two_cycle")]
        assert len(landmark) == 1
        assert "part1_valid=False" in landmark[0]
        assert "part2_valid=True" in landmark[0]
        assert "any_hole=False" in landmark[0]


def _oracle_lemma1(m, heart):
    premise, part1, part2_body = kr.LEMMA1
    holds = lambda f: {x for x in m.states if kripke_truth(m, f, x, heart)}
    return bool(holds(premise)), holds(part1) == m.states, not holds(part2_body)


def _oracle_any_hole(m, heart):
    sat = lambda f: any(kripke_truth(m, f, x, heart) for x in m.states)
    for _, phi, use_box in kr.hole_slots(fm.Dclass()):
        mod = fm.Box if use_box else fm.Heart
        if ((sat(fm.And(fm.Ub(), phi)) and not sat(mod("ab", phi)))
                or (sat(fm.And(fm.Ua(), phi)) and not sat(mod("ba", phi)))):
            return True
    return False


def test_vectorized_engine_matches_reference():
    # every strict frame up to 3 states, both assumption semantics
    ops, slots = kr.lemma1_program()
    for heart in ("frame", "local"):
        seen = 0
        for lanes in hn._relation_lanes(3, True, False, heart, ops):
            n = len(lanes.record)
            premise, part1_fails, part2_body = (
                np.broadcast_to(mask, n) for mask in
                kr.lemma1_masks(pg.run(ops, lanes.frame), slots,
                                (1 << lanes.frame.k) - 1))
            for idx in range(n):
                m = hn._rebuild_kripke(lanes.compact(idx), True)
                got = (bool(premise[idx]), part1_fails[idx] == 0,
                       part2_body[idx] == 0)
                assert got == _oracle_lemma1(m, heart)
                seen += 1
        assert seen == 110


def test_vectorized_holes_match_reference_on_nonstrict_sample():
    rng = random.Random(61)
    ops, slots = kr.hole_program("kripke")
    for heart in ("frame", "local"):
        sampled = 0
        for lanes in hn._relation_lanes(3, False, False, heart, ops):
            if lanes.frame.k != 3 or lanes.frame.ua not in (0b001, 0b110, 0b111):
                continue
            any_hole = np.zeros(len(lanes.record), dtype=bool)
            for _, hole in kr.hole_masks(pg.run(ops, lanes.frame), slots):
                any_hole |= hole
            for idx in rng.sample(range(len(lanes.record)), 40):
                m = hn._rebuild_kripke(lanes.compact(idx), False)
                assert bool(any_hole[idx]) == _oracle_any_hole(m, heart)
                sampled += 1
        assert sampled == 3 * 40


def test_mask_program_matches_reference_evaluator():
    # the membership lanes of every model up to 2 nodes with atom p
    family = hs.bounded_formula_family()[:200]
    ops, slots = pg.compile_program(family, "nwf", atoms=("p",))
    count = 0
    for lanes in hn._membership_lanes(2, False, True, ops):
        vals = pg.run(ops, lanes.frame)
        for lane in range(len(lanes.record)):
            m = hn._rebuild_hyperset(lanes.compact(lane))
            nodes = sorted(m.nodes)
            for f, slot in zip(family, slots):
                got = np.broadcast_to(vals[slot], len(lanes.record))[lane]
                for i, n in enumerate(nodes):
                    assert bool(got >> i & 1) == nwf_truth(m, f, n)
            count += 1
    assert count == 412


def test_campaign_state_checks_match_reference_modalities():
    # the theorem 2.2 predicate derives per-state assumption and belief
    # directly from the body mask; both must agree with the oracle
    rng = random.Random(62)
    for _ in range(60):
        m = random_hyperset(rng, 4)
        names, frame = hs.to_frame(m)
        ure = pg.masker(names)(m.urelements)
        body_f = random_relational_formula(rng, 2)
        ops, (slot,) = pg.compile_program([body_f], "nwf")
        body = pg.run(ops, frame)[slot]
        for w, name in enumerate(names):
            direction = "ab" if name in m.ua else "ba"
            holds = nwf_truth(m, body_f, name)
            assumes = nwf_truth(m, fm.Heart(direction, body_f), name)
            believes = nwf_truth(m, fm.Box(direction, body_f), name)
            wrong_assumption, belief_fails = hs.theorem22_faults(frame, w, body)
            assert bool(wrong_assumption) == (assumes == holds)
            assert bool(belief_fails) == (not believes)
            special = name in m.urelements or m.members(name) == {name}
            assert bool(hs.is_special(frame, ure, w)) == special


def test_theorem23_predicate_matches_reference_modalities():
    rng = random.Random(63)
    for _ in range(60):
        m = random_hyperset(rng, 4, allow_overlap=True)
        names, frame = hs.to_frame(m)
        for direction, f in hs.TRUE_ASSUMPTIONS:
            ops, (slot,) = pg.compile_program([f], "nwf")
            assumed = pg.run(ops, frame)[slot]
            for w, name in enumerate(names):
                expected = (m.members(name) == {name} and name not in m.urelements
                            and nwf_truth(m, f, name)
                            and not (name in m.ua and name in m.ub))
                assert bool(hs.theorem23_fault(frame, w, assumed)) == expected


def _mutated_theorem22(real, min_nodes=1):
    """Theorem 2.2 broken: on models of at least ``min_nodes`` nodes, a
    special state that satisfies a body which does not hold everywhere is
    also flagged.  Elementwise, so it broadcasts like the real predicate."""
    def faults(frame, w, body):
        wrong_assumption, belief_fails = real(frame, w, body)
        flagged = ((frame.k >= min_nodes) & (body >> w & 1 == 1)
                   & (body != (1 << frame.k) - 1))
        return wrong_assumption | flagged, belief_fails
    return faults


def _mutated_theorem23(real):
    """Theorem 2.3 broken: any node that is its own member and assumes
    true is flagged, whatever its types."""
    def fault(frame, w, assumed):
        return real(frame, w, assumed) | ((frame.rows[w] & 1 << w != 0)
                                          & (assumed >> w & 1 == 1))
    return fault


def _lane_first_hits(found, bad, lanes, *key):
    """The per-row first-hit scan: the first lanes of ``bad`` as
    (record, *key, compact record) entries, merged in order and cut to 5."""
    found = found + [(int(lanes.record[i]), *key, lanes.compact(i))
                     for i in np.flatnonzero(bad)[:5]]
    return sorted(found)[:5]


def _violation_report(c, lines, totals, blocks):
    lines.append(f"models={totals['models']} holds={totals['holds']} "
                 f"violations={totals['violations']}")
    for n, body in enumerate(blocks, start=1):
        hn._dump_block(lines, f"violation {n} of {totals['violations']}", body)
    return hn.CampaignReport(tuple(lines), {"target": c.target,
                                            "max_size": c.max_size, **totals}).text


def _reference_theorem22(max_size):
    """theorem22 judged one (state, formula) pair of lane rows at a time."""
    c = hn.Campaign(target="theorem22", max_size=max_size)
    family = hs.bounded_formula_family()
    ops, slots = pg.compile_program(family, "nwf", atoms=("p",))
    totals = dict.fromkeys(("models", "holds", "degenerate", "states_checked",
                            "violations"), 0)
    found = []
    for lanes in hn._membership_lanes(max_size, False, True, ops):
        frame, n = lanes.frame, len(lanes.record)
        vals = pg.run(ops, frame)
        specials = np.zeros(n, dtype=np.int64)
        violations = np.zeros(n, dtype=np.int64)
        for w in range(frame.k):
            special = hs.is_special(frame, lanes.ure, w)
            specials += special
            for i, slot in enumerate(slots):
                wrong_assumption, belief_fails = hs.theorem22_faults(frame, w, vals[slot])
                bad = special & (wrong_assumption | belief_fails)
                violations += bad
                found = _lane_first_hits(found, bad, lanes, i, w)
        totals["models"] += n
        totals["degenerate"] += int(np.count_nonzero(specials == 0))
        totals["holds"] += int(np.count_nonzero(violations == 0))
        totals["states_checked"] += int(specials.sum())
        totals["violations"] += int(violations.sum())
    lines = hn._header(c, f"formula family: {len(family)} formulas, modal depth <= 2")
    lines.append("claim: quine/urelement states assume exactly their falsehoods "
                 "and believe everything")
    return _violation_report(c, lines, totals, [
        f"state n{w}, formula {fm.to_text(family[i])}\n"
        + dump_nwf(hn._rebuild_hyperset(rec)) for _, i, w, rec in found])


def _reference_theorem23(max_size):
    """theorem23 judged one (state, direction) pair of lane rows at a time."""
    c = hn.Campaign(target="theorem23", max_size=max_size)
    ops, slots = pg.compile_program([f for _, f in hs.TRUE_ASSUMPTIONS], "nwf", atoms=())
    totals = dict.fromkeys(("models", "holds", "violations"), 0)
    found = []
    for lanes in hn._membership_lanes(max_size, True, False, ops):
        vals = pg.run(ops, lanes.frame)
        violations = np.zeros(len(lanes.record), dtype=np.int64)
        for w in range(lanes.frame.k):
            for d, slot in enumerate(slots):
                bad = hs.theorem23_fault(lanes.frame, w, vals[slot])
                violations += bad
                found = _lane_first_hits(found, bad, lanes, w, d)
        totals["models"] += len(lanes.record)
        totals["holds"] += int(np.count_nonzero(violations == 0))
        totals["violations"] += int(violations.sum())
    lines = hn._header(c)
    lines.append("claim: quine states with a true assumption sit in both type spaces")
    return _violation_report(c, lines, totals, [
        f"quine state n{w}\n" + dump_nwf(hn._rebuild_hyperset(rec))
        for _, w, _, rec in found])


def test_theorem_campaigns_report_violations_like_the_per_row_loop(monkeypatch):
    # the real predicates never fire; broken ones fire often, so the
    # counts and the five dumps (ordered by record, then formula or
    # state, then state or direction) are checked against the loop that
    # judges one row of lanes at a time
    monkeypatch.setattr(hs, "theorem22_faults", _mutated_theorem22(hs.theorem22_faults))
    monkeypatch.setattr(hs, "theorem23_fault", _mutated_theorem23(hs.theorem23_fault))
    for target, size, reference in (("theorem22", 2, _reference_theorem22),
                                    ("theorem23", 3, _reference_theorem23)):
        report = hn.run_campaign(hn.Campaign(target=target, max_size=size))
        assert report.summary["violations"] > 100
        assert report.summary["holds"] < report.summary["models"]
        assert sum(line.startswith("violation ") for line in report.lines) == 5
        assert report.text == reference(size)


def _quine_only_theorem22(real):
    """Theorem 2.2 broken at Quine states only: one that satisfies a body
    true nowhere is flagged.  Urelement lanes never fire, so the first
    violations lie past the first live lanes of a chunk."""
    def faults(frame, w, body):
        wrong_assumption, belief_fails = real(frame, w, body)
        return wrong_assumption | (frame.rows[w] == 1 << w) & (body == 0), belief_fails
    return faults


@pytest.mark.parametrize("size", [1, 2])
def test_theorem22_dumps_the_filtered_lanes_that_fail(monkeypatch, size):
    # a dump must name the lane that failed among the lanes left after the
    # special-node filter, not the lane at its index in the whole chunk
    monkeypatch.setattr(hs, "theorem22_faults", _quine_only_theorem22(hs.theorem22_faults))
    report = hn.run_campaign(hn.Campaign(target="theorem22", max_size=size))
    assert report.summary["violations"] > 0
    assert report.text == _reference_theorem22(size)


@pytest.mark.parametrize("mutated", [False, True])
def test_theorem22_report_does_not_depend_on_chunk_and_block_sizes(monkeypatch, mutated):
    if mutated:  # first violations in 3-node chunks, which the budget below splits
        monkeypatch.setattr(hs, "theorem22_faults",
                            _mutated_theorem22(hs.theorem22_faults, min_nodes=3))
    c = hn.Campaign(target="theorem22", max_size=3)
    expected = hn.run_campaign(c).text
    # 997 lanes per 3-node chunk, which splits each 5832-lane block, and
    # formula blocks of a few rows, which split the 602 formulas unevenly
    shapes = []
    stacked = hn._stacked

    def spy(vals, slots, n):
        for start, body in stacked(vals, slots, n):
            shapes.append(body.shape)
            yield start, body

    monkeypatch.setattr(hn, "_stacked", spy)
    monkeypatch.setattr(hn, "_LANE_BYTES", 605 * 997)
    assert hn.run_campaign(c).text == expected
    heights = {height for height, _ in shapes}
    assert len(heights) > 3 and any(602 % h for h in heights)
    assert max(n for _, n in shapes) <= 997


def test_first_hits_skips_only_a_chunk_past_full_dumps():
    lanes = next(hn._membership_lanes(2, False, False, []))
    first = int(lanes.record[0])
    # full dumps that all precede the chunk: returned as they are, unread
    before = [(first - 1, j, ()) for j in range(hn._FAIL_DUMP_CAP)]
    assert hn._first_hits(before, None, lanes) is before
    # full dumps at the chunk's first record: its lane 0 can still enter
    tied = [(first, 10 + j, ()) for j in range(hn._FAIL_DUMP_CAP)]
    bad = np.zeros((1, len(lanes.record)), dtype=bool)
    bad[0, 0] = True
    assert hn._first_hits(tied, bad, lanes, lambda row: (row,)) == (
        [(first, 0, lanes.compact(0))] + tied[:-1])


def _bits(n, mask):
    """The points x1..xn of a mask, as a frozenset."""
    return frozenset(f"x{i + 1}" for i in range(n) if mask >> i & 1)


def _broken_closure_table(hulls):
    """The closure tables of a stack of hull tables with each non-closed
    mask's closure replaced by the mask less its lowest point: the closed
    sets stay, the laws break."""
    tables = _closure_table(hulls)
    masks = np.arange(tables.shape[1], dtype=tables.dtype)
    return np.where(tables == masks, tables, masks ^ (masks & -masks))


def _reference_lattice_laws(target, max_size, cap):
    """The law campaign judged one closed triple or set at a time on
    frozensets, reading each closure from the broken table; a closed set's
    boundary is the points of it whose every open neighbourhood leaves it."""
    totals = {"topologies": 0, "checks": 0, "violations": 0}
    dumps = []
    for n in range(max_size + 1):
        carrier = _bits(n, (1 << n) - 1)
        for table in hn._closure_table(tp._hull_tables(n)).tolist():
            totals["topologies"] += 1

            def clo(s):
                return _bits(n, table[sum(1 << int(p[1:]) - 1 for p in s)])

            closed = sorted({_bits(n, m) for m, c in enumerate(table) if c == m},
                            key=lambda s: (len(s), tuple(sorted(s))))
            family = f"closed={[sorted(s) for s in closed]}"
            opens = [carrier - s for s in closed]
            hits = []
            if target == "adjunction":
                for a, b, x in iproduct(closed, repeat=3):
                    totals["checks"] += 1
                    if (clo(a - b) <= x) != (a <= x | b):
                        hits.append(f"A={sorted(a)} B={sorted(b)} X={sorted(x)} {family}")
            else:
                for s in closed:
                    totals["checks"] += 2
                    neg = clo(carrier - s)
                    if s | neg != carrier:
                        hits.append(f"join law: S={sorted(s)} {family}")
                    edge = {p for p in s if all(not o <= s for o in opens if p in o)}
                    if s & neg != edge:
                        hits.append(f"overlap law: S={sorted(s)} {family}")
            totals["violations"] += len(hits)
            dumps += hits
    c = hn.Campaign(target=target, max_size=max_size)
    lines = hn._header(c)
    lines.append("claim: " + ("subtraction adjunction over all closed triples"
                              if target == "adjunction" else
                              "S | ~S covers and S & ~S is the boundary, for closed S"))
    lines.append(" ".join(f"{key}={value}" for key, value in totals.items()))
    for i, body in enumerate(dumps[:cap], start=1):
        hn._dump_block(lines, f"violation {i} of {totals['violations']}", body)
    return hn.CampaignReport(tuple(lines), {"target": target, "max_size": max_size,
                                            **totals}).text


@pytest.mark.parametrize("cap", [5, 10 ** 6])
def test_lattice_law_campaigns_report_violations_like_the_per_set_loop(monkeypatch, cap):
    # the real closure tables never break a law; the broken ones do, so the
    # counts, the dump order (A, B, X, or S then law) and the closed= text
    # are checked against the loop, for the first five dumps and for all.
    # The overlap law's boundary comes from the hulls, so a broken closure
    # table alone breaks it.  100 is the most boundary_law can report: both
    # laws on each of the 50 closed sets that are not open, since a clopen
    # set's complement is closed and keeps its closure.
    monkeypatch.setattr(hn, "_closure_table", _broken_closure_table)
    monkeypatch.setattr(hn, "_FAIL_DUMP_CAP", cap)
    for target, violations in (("adjunction", 199), ("boundary_law", 100)):
        report = hn.run_campaign(hn.Campaign(target=target, max_size=3))
        assert report.summary["violations"] == violations
        assert report.text == _reference_lattice_laws(target, 3, cap)
    assert "join law" in report.text and "overlap law" in report.text


def _selectively_broken_closure_table(hulls):
    """The closure tables of a stack of hull tables, broken in the rows
    whose hull masks sum to a multiple of 5, real in the rest."""
    broken = np.asarray(hulls, dtype=np.int64).sum(axis=1) % 5 == 0
    return np.where(broken[:, None], _broken_closure_table(hulls), _closure_table(hulls))


@pytest.mark.parametrize("cap", [5, 10 ** 6])
def test_lattice_law_dumps_follow_topology_order_across_closed_counts(monkeypatch, cap):
    # the campaigns judge a carrier size's topologies grouped by their count
    # of closed sets.  Breaking only some topologies makes the failing ones
    # fall in several groups and interleave in topology order, so a sweep
    # that dumps group by group reports other dumps than the per-set loop.
    monkeypatch.setattr(hn, "_closure_table", _selectively_broken_closure_table)
    monkeypatch.setattr(hn, "_FAIL_DUMP_CAP", cap)
    for target, size in (("adjunction", 3), ("boundary_law", 3), ("boundary_law", 4)):
        text = hn.run_campaign(hn.Campaign(target=target, max_size=size)).text
        assert text == _reference_lattice_laws(target, size, cap)
        if cap == 10 ** 6:  # every failing topology is dumped
            families = [line.split(" closed=")[1] for line in text.splitlines()
                        if " closed=" in line]
            counts = [family.count("[") - 1 for family, _ in groupby(families)]
            assert len(set(counts)) > 1 and counts != sorted(counts)


def test_sweeps_reject_unenumerated_atoms():
    # a sweep values only p, so q must not silently read as empty
    with pytest.raises(fm.LanguageError):
        pg.compile_program([fm.parse("Hab q")], "nwf", atoms=("p",))
    with pytest.raises(fm.LanguageError):
        pg.compile_program([fm.parse("[ab] q")], "kripke", atoms=())
    # one model reads every atom it values
    m = hs.HypersetModel(nodes=["w"], mem=[("w", "w")], ua=["w"], ub=[],
                         val={"q": ["w"]})
    assert hs.nwf_extension(m, fm.parse("q")) == frozenset(["w"])
    assert hs.nwf_extension(m, fm.parse("r")) == frozenset()


def _candidate_edges(k, ua, strict):
    return [(x, y) for x in range(k) for y in range(k)
            if not strict or (ua >> x & 1) != (ua >> y & 1)]


def _rows_by_edge(k, edges, ids):
    """The successor rows of the frames with relation ids ``ids``, built one
    int64 pass per candidate edge (bit j of an id: edge j)."""
    rows = [np.zeros_like(ids) for _ in range(k)]
    for j, (x, y) in enumerate(edges):
        rows[x] |= (ids >> j & 1) << y
    return rows


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("serial", [True, False])
def test_relation_lanes_match_per_edge_reference(strict, serial):
    # every (k, ua) block at 1-4 states, in order: records and rows
    expected, offset = [], 0
    for k in range(1, 5):
        for ua in range(1 << k):
            edges = _candidate_edges(k, ua, strict)
            ids = np.arange(1 << len(edges), dtype=np.int64)
            rows = _rows_by_edge(k, edges, ids)
            keep = np.logical_and.reduce(rows) if serial else np.ones(len(ids), bool)
            if keep.any():
                expected.append(((k, ua), offset + ids[keep], [row[keep] for row in rows]))
            offset += len(ids)
    # whole blocks per chunk (no ops), then about 16.7 k lanes per chunk
    # (1000 ops), which does not divide a block, so chunks start inside a
    # row's bit-field
    for ops in ((), [()] * 1000):
        chunks = list(hn._relation_lanes(4, strict, serial, "frame", ops))
        for lanes in chunks:
            f = lanes.frame
            assert lanes.record.dtype == np.int64
            assert all(row.dtype == np.uint8 for row in f.rows)
            assert len(f.rows) == f.k and f.ub == (1 << f.k) - 1 - f.ua
        keys = [(lanes.frame.k, lanes.frame.ua) for lanes in chunks]
        assert [key for key, _ in groupby(keys)] == [key for key, _, _ in expected]
        for key, records, rows in expected:
            block = [lanes for lanes in chunks if (lanes.frame.k, lanes.frame.ua) == key]
            assert np.array_equal(np.concatenate([b.record for b in block]), records)
            for x, row in enumerate(rows):
                assert np.array_equal(np.concatenate([b.frame.rows[x] for b in block]), row)


def test_relation_lanes_at_five_states_use_25_bit_ids():
    # non-strict 5-state frames have 25 candidate edges: check the sweep's
    # first 5-state chunk, and the rows of its last chunk
    ops, _ = kr.hole_program("kripke")
    width = hn._lane_width(ops, 5)
    offset = sum(1 << k + k * k for k in range(1, 5))  # the frames of 1-4 states
    first = next(lanes for lanes in hn._relation_lanes(5, False, False, "frame", ops)
                 if lanes.frame.k == 5)
    assert first.frame.ua == 0 and len(first.record) == width
    assert np.array_equal(first.record, offset + np.arange(width))
    edges = _candidate_edges(5, 0, False)
    assert len(edges) == 25
    for got, want in zip(first.frame.rows,
                         _rows_by_edge(5, edges, np.arange(width, dtype=np.int64))):
        assert got.dtype == np.uint8 and np.array_equal(got, want)
    # the last chunk: Ua holds all five states, the top ids of its block
    total = 1 << 25
    ids = np.arange((total - 1) // width * width, total, dtype=np.int64)
    fields = hn._row_fields(5, 0b11111, False)
    expected = _rows_by_edge(5, _candidate_edges(5, 0b11111, False), ids)
    for (shift, mask, table), want in zip(fields, expected, strict=True):
        got = table[ids >> shift & mask]
        assert got.dtype == np.uint8 and np.array_equal(got, want)
        assert got[-1] == 0b11111


def _block_totals(target, max_size, strict, heart, serial):
    """Every (k, ua) block of a classical sweep judged on its own, not
    through the weighted loop, in enumeration order: (class, weight, totals)."""
    spec = hn._SWEEPS[target]
    ops, slots = spec.program()
    blocks = []
    for block in hn._relation_blocks(max_size, strict, serial, heart, ops):
        totals = dict.fromkeys(spec.totals, 0)
        for lanes in block.chunks:
            totals["models"] += len(lanes.record)
            for _ in spec.judge(lanes, ops, slots, totals):
                pass
        blocks.append((block.cls, block.weight, totals))
    return blocks


@pytest.mark.parametrize("target", ["lemma1", "theorem12"])
@pytest.mark.parametrize("strict,max_size", [(True, 5), (False, 4)])
def test_classical_block_totals_depend_only_on_the_popcount(target, strict, max_size):
    # the premise of the orbit weights: a block's totals depend on (k, |Ua|)
    # alone; the class's first block, Ua = the lowest states, weighs C(k, a)
    for heart, serial in iproduct(("frame", "local"), (False, True)):
        blocks = iter(_block_totals(target, max_size, strict, heart, serial))
        summed = Counter()
        for k in range(1, max_size + 1):
            first = {}  # popcount -> the totals of its first block
            for ua in range(1 << k):
                cls, weight, totals = next(blocks)
                a = ua.bit_count()
                assert cls == (k, a)
                assert weight == (comb(k, a) if ua == (1 << a) - 1 else 0)
                assert first.setdefault(a, totals) == totals, (k, ua)
                summed.update(totals)
        assert next(blocks, None) is None
        summary = hn.run_campaign(hn.Campaign(target, max_size, strict, heart, serial)).summary
        assert {key: summary[key] for key in summed} == summed
        assert summed["fails"] > 0


def _reference_kripke(target, max_size, strict, cap):
    """lemma1 or theorem12 judged chunk by chunk over every labelled frame,
    the first ``cap`` failing frames dumped."""
    c = hn.Campaign(target, max_size, strict)
    ops, slots = kr.lemma1_program() if target == "lemma1" else kr.hole_program("kripke")
    totals = dict.fromkeys(("models", "holds", "fails", "degenerate"), 0)
    found = []
    for lanes in hn._relation_lanes(max_size, strict, False, "frame", ops):
        n = len(lanes.record)
        vals = pg.run(ops, lanes.frame)
        if target == "lemma1":
            premise, part1_fails, part2_body = (np.broadcast_to(mask, n) for mask in
                kr.lemma1_masks(vals, slots, (1 << lanes.frame.k) - 1))
            fails = premise & (part1_fails != 0) | (part2_body != 0)
            holds = premise & (part1_fails == 0) & (part2_body == 0)
            totals["degenerate"] += int(np.count_nonzero(~premise & (part2_body == 0)))
        else:
            holds = np.zeros(n, dtype=bool)
            for _, hole in kr.hole_masks(vals, slots):
                holds |= hole
            fails = ~holds
        totals["models"] += n
        totals["holds"] += int(np.count_nonzero(holds))
        totals["fails"] += int(np.count_nonzero(fails))
        found += [(int(lanes.record[i]), lanes.compact(i)) for i in np.flatnonzero(fails)]
    claim = ("premise -> chain-implication, and the negative sentence is valid"
             if target == "lemma1" else "every model has one of the seven holes")
    lines = hn._header(c, *hn._kripke_head(c), f"claim: {claim}")
    lines.append("models={models} holds={holds} fails={fails} "
                 "degenerate={degenerate}".format(**totals))
    for i, (_, rec) in enumerate(found[:cap], start=1):
        hn._dump_block(lines, f"fail-dump {i} of {totals['fails']}",
                       dump_kripke(hn._rebuild_kripke(rec, strict)))
    return found, hn.CampaignReport(tuple(lines), {
        "target": target, "max_size": max_size, "strict": strict, "heart": "frame",
        "serial": False, **totals}).text


@pytest.mark.parametrize("target", ["lemma1", "theorem12"])
@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("cap", [5, 10**6])
@pytest.mark.parametrize("small_chunks", [False, True])
def test_weighted_sweeps_dump_like_the_labelled_loop(monkeypatch, target, strict, cap,
                                                     small_chunks):
    # with no cap on the dumps, every block of a class with failures is
    # scanned to its end, and each of its failing frames is dumped in order;
    # with chunks of a few lanes, a block that weighs 0 is left mid-way
    # once the five dumps are full
    monkeypatch.setattr(hn, "_FAIL_DUMP_CAP", cap)
    found, expected = _reference_kripke(target, 3, strict, cap)
    if small_chunks:
        monkeypatch.setattr(hn, "_LANE_BYTES", 200)
    # failures in blocks that weigh 0, whose Ua is not the lowest states
    assert any(ua & ua + 1 for _, (_, _, _, ua, _, _) in found)
    assert hn.run_campaign(hn.Campaign(target, 3, strict)).text == expected


def _widened(x):
    return x.astype(np.int64) if isinstance(x, np.ndarray) else x


def _flat(result):
    """The masks and verdicts of a helper's (nested) result, in order."""
    if isinstance(result, (tuple, list)) or hasattr(result, "__next__"):
        return [leaf for item in result for leaf in _flat(item)]
    return [result]


def test_claim_helpers_take_constant_bodies_beside_byte_lanes():
    # constant ops (true, false, Ua, Ub) stay Python ints next to uint8
    # lanes; no helper may complement one into a negative int, and each
    # must answer as on the same lanes widened to int64
    rng = np.random.default_rng(64)
    k, full = 3, 7
    lane = lambda: rng.integers(0, 1 << k, 300, dtype=np.uint8)
    narrow = pg.Frame(k, 0b011, 0b110, [lane() for _ in range(k)], {}, "membership",
                      pg.complement(k))
    wide = narrow._replace(rows=[_widened(row) for row in narrow.rows])
    bodies = [0, full, narrow.ua, narrow.ub, 0b101, lane(), lane()]
    wide_bodies = [_widened(b) for b in bodies]
    slots = list(range(len(bodies)))
    triples = list(iproduct(slots, repeat=3))
    quads = list(iproduct(slots, repeat=4))
    pairs = [(hs.is_special(narrow, ure, w), hs.is_special(wide, _widened(ure), w))
             for w in range(k) for ure in (0b100, lane())]
    pairs += [(fn(narrow, w, body), fn(wide, w, _widened(body)))
              for fn in (hs.theorem22_faults, hs.theorem23_fault)
              for w in range(k) for body in bodies]
    pairs += [(kr.lemma1_masks(bodies, t, full), kr.lemma1_masks(wide_bodies, t, full))
              for t in triples]
    pairs.append((hs.validity_failures(bodies, slots, full),
                  hs.validity_failures(wide_bodies, slots, full)))
    pairs.append((kr.hole_masks(bodies, quads), kr.hole_masks(wide_bodies, quads)))
    checked = 0
    for got, want in pairs:
        for g, v in zip(_flat(got), _flat(want), strict=True):
            assert np.array_equal(g, v)
            if isinstance(g, np.ndarray):  # masks keep the lane dtype
                assert g.dtype in (np.uint8, np.bool_)
            checked += 1
    assert checked == (2 * k + 3 * k * len(bodies) + 3 * len(triples)
                       + len(slots) + 5 * len(quads))


@pytest.mark.parametrize("heart", ["frame", "local", "membership", "topo"])
def test_run_keeps_the_lane_dtype(heart):
    # byte lanes give byte results, not int64 ones, equal to the results
    # on the same lanes widened to int64; the topo case negates through a
    # closure table of the lanes' dtype, for ~ and for Dt
    k = 4
    if heart == "topo":
        frng = random.Random(65)
        family = [random_topo_formula(frng, 3) for _ in range(80)]
        family += [fm.Dtopo(), fm.Pneg(fm.Dtopo()), fm.parse("Ba Xb Dt & Ea true")]
        language, heart, ub, atoms = "topo", "local", 0b1100, ("p", "q")
        table = _closure_table([(0b0001, 0b0011, 0b0100, 0b1100)])[0]  # two Sierpinski spaces
        narrow_neg, wide_neg = (tp.MaskLattice(np.array(table, dtype=dtype).__getitem__,
                                               (1 << k) - 1).pneg
                                for dtype in (np.uint8, np.int64))
    else:
        language, diag = (("nwf", fm.Dplus()) if heart == "membership"
                          else ("kripke", fm.Dclass()))
        family = hs.bounded_formula_family() + (diag, fm.Heart("ab", diag),
                                                fm.Box("ba", fm.Not(diag)))
        ub, atoms = 0b1110, ("p",)
        narrow_neg = wide_neg = pg.complement(k)
    ops, _ = pg.compile_program(family, language, atoms=atoms)
    rng = np.random.default_rng(65)
    lane = lambda: rng.integers(0, 1 << k, 200, dtype=np.uint8)
    narrow = pg.Frame(k, 0b0011, ub, [lane() for _ in range(k)],
                      {atom: lane() for atom in atoms}, heart, narrow_neg)
    wide = narrow._replace(rows=[_widened(row) for row in narrow.rows],
                           atoms={atom: _widened(v) for atom, v in narrow.atoms.items()},
                           neg=wide_neg)
    lanes = 0
    for got, want in zip(pg.run(ops, narrow), pg.run(ops, wide), strict=True):
        if isinstance(got, np.ndarray):
            assert got.dtype == np.uint8 and want.dtype == np.int64
            lanes += 1
        assert np.array_equal(got, want)
    assert lanes > len(ops) // 2
    assert pg.no_return(narrow.rows, narrow.neg, narrow.ua).dtype == np.uint8


@pytest.mark.parametrize("points", [(2, 2), (3, 2), (2, 3)], ids=lambda p: "%d+%d" % p)
def test_topo_lanes_match_paratopo_evaluate(points):
    # every image assignment of fixed topologies on A and B as uint8 lanes,
    # negated through their joint closure table, against the single-model
    # evaluator on each rebuilt model
    na, nb = points
    a, b = [f"a{i}" for i in range(na)], [f"b{i}" for i in range(nb)]
    chain = lambda pts: tp.ClosedTopology.make(pts, [pts[:i] for i in range(len(pts) + 1)])
    pairs = [(chain(a), chain(b[::-1])), (tp.discrete(a), tp.ClosedTopology.make(b, [[], b])),
             (chain(a), tp.discrete(b))]
    rng = random.Random(66)
    family = [random_topo_formula(rng, 3) for _ in range(24)]
    family += [fm.Dtopo(), fm.Pneg(fm.Dtopo()), fm.parse("Ba Xb Dt & Ea true")]
    ops, slots = pg.compile_program(family, "topo", atoms=("p", "q"))
    k, ua = na + nb, (1 << na) - 1
    full = (1 << k) - 1
    nrng = np.random.default_rng(66)
    checked = 0
    for tau_a, tau_b in pairs:
        names = [*tau_a.points, *tau_b.points]
        mask = pg.masker(names)
        options = [sorted(map(mask, tau_b.closed))] * na + [sorted(map(mask, tau_a.closed))] * nb
        rows = [np.array(col, dtype=np.uint8) for col in zip(*iproduct(*options))]
        n = len(rows[0])
        hulls = tau_a.hulls + tuple(h << na for h in tau_b.hulls)
        table = _closure_table([hulls])[0]
        atoms = {atom: nrng.integers(0, 1 << k, n, dtype=np.uint8) for atom in ("p", "q")}
        frame = pg.Frame(k, ua, full ^ ua, rows, atoms, "local",
                         tp.MaskLattice(table.__getitem__, full).pneg)
        vals = [np.broadcast_to(v, n) for v in pg.run(ops, frame)]
        for lane in range(n):
            edges = lambda src: [(names[x], names[y]) for x in src for y in range(k)
                                 if rows[x][lane] >> y & 1]
            m = pt.ParaTopoModel(
                tau_a, tau_b, edges(range(na)), edges(range(na, k)),
                {atom: pg.names_of(names, int(v[lane])) for atom, v in atoms.items()})
            for f, slot in zip(family, slots):
                assert pt.evaluate(m, f) == pg.names_of(names, int(vals[slot][lane])), \
                    (m, fm.to_text(f))
                checked += 1
    assert checked == len(family) * sum(
        len(tb.closed) ** na * len(ta.closed) ** nb for ta, tb in pairs)


def test_fixture_registry_all_pass():
    report = hn.verify_fixtures()
    assert report.ok
    assert len(report.claims) >= 30
    names = {name for name, _ in report.claims}
    assert names == set(hn.FIXTURES)
    assert "all claims pass" in report.text
