import random
from collections import Counter
from functools import partial
from itertools import groupby, product as iproduct
from math import comb, prod
from operator import itemgetter, xor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

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
                      random_relational_formula, random_topo_formula, topo_truth)


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
        for lanes in hn._labelled(hn._relation_blocks(3, True, False, heart, ops)):
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
        for lanes in hn._labelled(hn._relation_blocks(3, False, False, heart, ops)):
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
    for lanes in hn._labelled(hn._membership_blocks(2, False, True, ops)):
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


def test_every_stacked_run_matches_the_reference_evaluator():
    # all 602 formulas, so also the layer-2 runs past the 200 that the test
    # above checks, on up to 10 seeded lanes of each (k, type assignment)
    # block up to 2 nodes and one lane of each 3-node block, where the
    # 84-op runs split
    family = hs.bounded_formula_family()
    ops, slots = hs.theorem22_program()
    rng = random.Random(67)
    count = 0
    for lanes in hn._labelled(hn._membership_blocks(3, False, True, ops)):
        n = len(lanes.record)
        vals = [np.broadcast_to(v, n) for v in pg.run(ops, lanes.frame)]
        types = np.broadcast_to(lanes.frame.ua, n)  # disjoint types: Ua names the block
        for ua in dict.fromkeys(types.tolist()):
            block = np.flatnonzero(types == ua).tolist()
            for lane in rng.sample(block, min(len(block), 10 if lanes.frame.k < 3 else 1)):
                m = hn._rebuild_hyperset(lanes.compact(lane))
                for f, slot in zip(family, slots, strict=True):
                    for i, name in enumerate(sorted(m.nodes)):
                        assert bool(vals[slot][lane] >> i & 1) == nwf_truth(m, f, name)
                count += 1
    assert count == 2 * 6 + 4 * 10 + 8


def _byte_lanes(rng, k: int, lanes: int, kind: str):
    """A frame of ``lanes`` random models with k states or nodes and one type
    split, its state names in bit order, and the model of a lane: kripke
    under the heart ``kind``, nwf, or paratopo negated by closure tables."""
    full = (1 << k) - 1
    masks = lambda within: np.array([rng.getrandbits(k) & within for _ in range(lanes)],
                                    dtype=np.uint8)
    if kind == "paratopo":
        size_a = rng.randint(k - 4, 4)
        names = [f"a{i}" for i in range(size_a)] + [f"b{i}" for i in range(k - size_a)]
        ua = (1 << size_a) - 1
        ub = full ^ ua
        hulls = [rng.choice(tp._hull_tables(size_a))
                 + tuple(h << size_a for h in rng.choice(tp._hull_tables(k - size_a)))
                 for _ in range(lanes)]
        tables = _closure_table(hulls)
        close = lambda s: tables[np.arange(lanes), s]
        # each image is a closed set of the opposite carrier in its lane's topology
        rows = [close(masks(ub if ua >> w & 1 else ua)) for w in range(k)]
        heart, neg = "local", tp.MaskLattice(close, full).pneg
        atoms = {"p": masks(full), "q": masks(full)}
    else:
        names = [f"s{i}" for i in range(k)]
        ua = rng.getrandbits(k)
        # nwf types may overlap, but they cover every node
        ub = full ^ ua | (rng.getrandbits(k) & ua if kind == "nwf" else 0)
        rows = [masks(full) for _ in range(k)]
        heart, neg = ("membership" if kind == "nwf" else kind), pg.complement(k)
        atoms = {"p": masks(full)}

    def model(lane: int):
        pick = lambda mask: [n for i, n in enumerate(names) if mask >> i & 1]
        edges = [(w, v) for i, w in enumerate(names) for v in pick(int(rows[i][lane]))]
        val = {atom: pick(int(mask[lane])) for atom, mask in atoms.items()}
        if kind == "nwf":
            return hs.HypersetModel(names, edges, pick(ua), pick(ub), val=val,
                                    disjoint_types=False)
        if kind != "paratopo":
            return kr.KripkeModel(names, edges, pick(ua), pick(ub), val=val, strict=False)
        table = tables[lane].tolist()
        closed = lambda side: [pick(s) for s in range(1 << k) if s & side == s == table[s]]
        a = set(pick(ua))
        return pt.ParaTopoModel(tp.ClosedTopology.make(a, closed(ua)),
                                tp.ClosedTopology.make(pick(ub), closed(ub)),
                                [e for e in edges if e[0] in a],
                                [e for e in edges if e[0] not in a], val)

    return pg.Frame(k, ua, ub, rows, atoms, heart, neg), names, model


@pytest.mark.parametrize("kind", ("frame", "local", "nwf", "paratopo"))
@seed(20)
@settings(max_examples=20, database=None, deadline=None)
@given(st.randoms(use_true_random=False))
def test_byte_lanes_at_six_to_eight_states_match_the_oracles(kind, rng):
    # the sweeps stop at 5 states, but a uint8 lane holds 8: a few lanes of
    # random 6-8 state models, stacked runs included, against the oracles
    frame, names, model = _byte_lanes(rng, rng.randint(6, 8), rng.randint(2, 4), kind)
    if kind == "paratopo":
        language, formulas = "topo", [random_topo_formula(rng, 3) for _ in range(6)]
        truth = topo_truth
    else:
        diagonal = fm.Dplus() if kind == "nwf" else fm.Dclass()
        language = "nwf" if kind == "nwf" else "kripke"
        formulas = [random_relational_formula(rng, 3, diagonal) for _ in range(6)]
        truth = nwf_truth if kind == "nwf" else partial(kripke_truth, heart=kind)
    ops, slots = pg.compile_program(formulas, language)
    lanes = len(frame.rows[0])
    vals = [np.broadcast_to(v, lanes) for v in pg.run(ops, frame)]
    for lane in range(lanes):
        m = model(lane)
        for f, slot in zip(formulas, slots, strict=True):
            got = int(vals[slot][lane])
            assert [got >> i & 1 == 1 for i in range(frame.k)] == [truth(m, f, x) for x in names]


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
    also flagged.  Elementwise, so it broadcasts like the real predicate.
    A lane's nodes are ``ua | ub``, nodes 0 to k-1, also on a padded lane."""
    def faults(frame, w, body):
        wrong_assumption, belief_fails = real(frame, w, body)
        full = frame.ua | frame.ub
        flagged = ((full >> min_nodes - 1 != 0) & (body >> w & 1 == 1) & (body != full))
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
    """The per-row first-hit scan: the lanes of ``bad`` of the five lowest
    records as (record, *key, compact record) entries, merged in order and
    cut to 5, whatever the order of the records within the chunk."""
    flagged = np.flatnonzero(bad)
    found = found + [(int(lanes.record[i]), *key, lanes.compact(i))
                     for i in flagged[np.argsort(lanes.record[flagged])[:5]]]
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
    for lanes in hn._labelled(hn._membership_blocks(max_size, False, True, ops)):
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
    for lanes in hn._labelled(hn._membership_blocks(max_size, True, False, ops)):
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
    # at most 997 lanes per 3-node chunk, which splits each 5832-lane block, and
    # formula blocks of a few rows, which split the 602 formulas unevenly
    shapes = []
    stacked = hn._stacked

    def spy(vals, slots, n):
        for start, body in stacked(vals, slots, n):
            shapes.append(body.shape)
            yield start, body

    # the judged chunks, by the sizes of their lanes: 12 1-node and 300
    # 2-node lanes fill the first with 685 3-node ones
    sizes = []
    padded = hn._padded

    def chunks(*args):
        for lanes in padded(*args):
            full = lanes.frame.ua | lanes.frame.ub
            sizes.append({int(m).bit_length() for m in np.unique(full)})
            yield lanes

    monkeypatch.setattr(hn, "_stacked", spy)
    monkeypatch.setattr(hn, "_padded", chunks)
    monkeypatch.setattr(hn, "_LANE_BYTES", 605 * 997)
    monkeypatch.setattr(pg, "_STACK_BYTES", 605 * 997 // 128)  # the cache cap, in proportion
    assert hn.run_campaign(c).text == expected
    heights = {height for height, _ in shapes}
    assert len(heights) > 3 and any(602 % h for h in heights)
    assert max(n for _, n in shapes) <= 997
    assert sizes[0] == {1, 2, 3} and len(sizes) == -(-(12 + 300 + 4 * 5832) // 997)


def test_split_stacked_runs_keep_theorem22_and_the_lane_masks(monkeypatch):
    c = hn.Campaign(target="theorem22", max_size=3)
    expected = hn.run_campaign(c).text
    # five rows of a whole 3-node chunk (5832 one-byte lanes), so each
    # 84-op run splits into 16 stacks of 5 and one of 4
    monkeypatch.setattr(pg, "_STACK_BYTES", 5 * 5832)
    assert hn.run_campaign(c).text == expected
    ops, _ = hs.theorem22_program()
    rng = random.Random(68)
    checked = 0
    for lanes in hn._labelled(hn._membership_blocks(3, False, True, ops)):
        if lanes.frame.k < 3:
            continue
        n = len(lanes.record)
        vals = pg.run(ops, lanes.frame)
        start = 98 if lanes.frame.ua else 182  # a [ab] or [ba] run with source states
        assert [len(list(rows)) for _, rows in groupby(vals[start:start + 84],
                                                       key=lambda v: id(v.base))] == [5] * 16 + [4]
        for lane in rng.sample(range(n), 5):
            _, frame = hs.to_frame(hn._rebuild_hyperset(lanes.compact(lane)))
            assert [int(np.broadcast_to(v, n)[lane]) for v in vals] == pg.run(ops, frame)
            checked += 1
    assert checked == 8 * 5


def test_stack_cap_is_the_formula_block_cap():
    assert pg._STACK_BYTES == hn._LANE_BYTES // 128


def test_first_hits_skips_only_a_chunk_past_full_dumps():
    lanes = next(hn._labelled(hn._membership_blocks(2, False, False, [])))
    first = int(lanes.record[0])
    # full dumps that all precede the chunk: returned as they are, unread
    before = [(first - 1, j, ()) for j in range(hn._FAIL_DUMP_CAP)]
    assert hn._first_hits(before, None, lanes, cap=hn._FAIL_DUMP_CAP) is before
    # full dumps at the chunk's first record: its lane 0 can still enter
    tied = [(first, 10 + j, ()) for j in range(hn._FAIL_DUMP_CAP)]
    bad = np.zeros((1, len(lanes.record)), dtype=bool)
    bad[0, 0] = True
    assert hn._first_hits(tied, bad, lanes, lambda row: (row,), cap=hn._FAIL_DUMP_CAP) == (
        [(first, 0, lanes.compact(0))] + tied[:-1])


def _claim_masks(frame, ure, vals, slots):
    """Every claim of the membership campaigns on a frame's extension masks:
    the validity failures, then per node whether it is special and, per
    slot, its theorem 2.2 faults and its theorem 2.3 fault.  The nodes are
    ``ua | ub``; the per-node claims run over every row."""
    masks = hs.validity_failures(vals, slots, frame.ua | frame.ub)
    for w in range(frame.k):
        masks.append(hs.is_special(frame, ure, w))
        for slot in slots:
            masks += [*hs.theorem22_faults(frame, w, vals[slot]),
                      hs.theorem23_fault(frame, w, vals[slot])]
    return masks


_MEMBERSHIP_FLAGS = {"theorem22": (False, True), "theorem23": (True, False),
                     "validity_lists": (False, False)}  # target -> (overlap, with_atom)


def _judged_membership_chunks(ops, overlap, with_atom):
    """The chunks of the judged block of a 3-node membership sweep, the first."""
    block = next(hn._membership_blocks(3, overlap, with_atom, ops))
    assert block.cls is None
    return list(block.chunks)


@pytest.mark.parametrize("program", [hs.theorem22_program, hs.theorem23_program,
                                     hs.validity_program])
@pytest.mark.parametrize("overlap, with_atom", list(iproduct((False, True), repeat=2)))
def test_packed_membership_lanes_match_each_lanes_own_frame(program, overlap, with_atom):
    # the judged lanes: the first block of each class of every size, each
    # lane with its own types and weight, in chunks over 3 nodes that mix
    # sizes; a lane of k nodes has types covering exactly nodes 0..k-1 and
    # empty rows past them.  Two seeded lanes of each class are rebuilt as
    # a k-node frame with int types, and every mask and every claim on
    # every formula must be the same, bit for bit (the padded nodes' claims
    # all false); the claims are judged on the seeded lanes, taken with
    # their per-lane types
    ops, slots = program()
    rng = random.Random(69)
    seen, mixed = {}, False  # per size, its classes; whether a chunk holds two sizes
    for lanes in _judged_membership_chunks(ops, overlap, with_atom):
        f = lanes.frame
        assert f.k == 3
        vals = [np.broadcast_to(v, len(lanes.record)) for v in pg.run(ops, f)]
        types = f.ua.astype(int) << 8 | f.ub
        sizes = set()
        for t in dict.fromkeys(types.tolist()):
            ua, ub = t >> 8, t & 255
            cls = hn._class(ua, ub)
            k = sum(cls)
            assert ua | ub == (1 << k) - 1
            sizes.add(k)
            seen.setdefault(k, set()).add(cls)
            # the class's first block: its assignment sorted, Ua-only nodes first
            assert ua == (1 << cls[0]) - 1 | (1 << cls[2]) - 1 << cls[0] + cls[1]
            assert set(lanes.weight[types == t].tolist()) == {hn._class_size(cls)}
            picks = np.array(rng.sample(np.flatnonzero(types == t).tolist(), 2))
            seeded = hn._take_lanes(lanes, picks)
            claims = _claim_masks(seeded.frame, seeded.ure, [v[picks] for v in vals], slots)
            for i, lane in enumerate(picks):
                _, rows, ure, *_, pval = lanes.compact(lane)
                assert not any(rows[k:])
                own = pg.Frame(k, ua, ub, list(rows[:k]), {"p": pval} if with_atom else {},
                               "membership", pg.complement(k))
                own_vals = pg.run(ops, own)
                assert [int(v[lane]) for v in vals] == own_vals
                own_claims = list(map(int, _claim_masks(own, ure, own_vals, slots)))
                got = [int(np.broadcast_to(c, len(picks))[i]) for c in claims]
                assert got[:len(own_claims)] == own_claims and not any(got[len(own_claims):])
        mixed |= len(sizes) > 1
    assert mixed
    assert seen == {k: {c for c in iproduct(range(k + 1), repeat=3)
                        if sum(c) == k and (overlap or not c[2])} for k in (1, 2, 3)}


def _judged_columns(chunks, n):
    """The records, the n rows, ua, ub and the weights of ``chunks``, each
    concatenated."""
    chunks = list(chunks)
    return [np.concatenate([column(c) for c in chunks]) for column in (
        lambda c: c.record, *(lambda c, x=x: c.frame.rows[x] for x in range(n)),
        lambda c: c.frame.ua, lambda c: c.frame.ub, lambda c: c.weight)]


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("serial", [False, True])
def test_class_lanes_are_the_same_at_every_width(strict, serial):
    # the judged block of 3 states, 42 strict lanes (7 serial) or 300
    # non-strict, in chunks of widths that cut inside a class, fit the
    # class (3, 1) (16 relations, 128 non-strict lanes), or hold every
    # lane: each chunk is at most the width and cut only when the next
    # relation's lanes do not fit, the records run 0..N-1, and the lanes
    # are those of the widest chunk
    n, fits = 3, 16 if strict else 128
    widest = _judged_columns(hn._class_lanes(n, strict, serial, "frame", 10**6), n)
    assert len(widest[0]) == (300 if not strict else 7 if serial else 42)
    for width in (5 if strict else 20, 50, fits, 300):
        chunks = list(hn._class_lanes(n, strict, serial, "frame", width))
        sizes = [len(lanes.record) for lanes in chunks]
        assert all(width - (1 if strict else 1 << n) < size <= width for size in sizes[:-1])
        assert 0 < sizes[-1] <= width
        columns = _judged_columns(chunks, n)
        assert np.array_equal(columns[0], np.arange(len(widest[0])))
        for got, expected in zip(columns, widest):
            assert np.array_equal(got, expected) and got.dtype == expected.dtype


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("serial", [False, True])
def test_class_lanes_match_the_relation_chunks(strict, serial):
    # lane for lane, at 1 to 4 states.  Strict: each class's lanes, trimmed
    # to its k rows, are the relations of _relation_chunks with Ua the
    # lowest a states (under serial, those with no empty row), weighted
    # C(k, a).  Non-strict: lane (c, d), d the low digit, is cross
    # relation c with a loop at each state outside d, weighted C(k, a) times
    # the two types' same-type weights at d and at the states whose cross
    # row is empty (none unless serial).
    for n in range(1, 5):
        chunks = list(hn._class_lanes(n, strict, serial, "frame", 1 << 20))
        if not chunks:  # no serial frame of one state has a cross edge
            assert strict and serial and n == 1
            continue
        (lanes,) = chunks
        f, at = lanes.frame, 0
        assert np.array_equal(lanes.record, np.arange(len(lanes.record)))
        for k in range(1, n + 1):
            for a in range(k + 1):
                low, full = (1 << a) - 1, (1 << k) - 1
                cross = [np.concatenate([c.frame.rows[x] for c in hn._relation_chunks(
                    k, low, True, 0, serial and strict, "frame", 1 << 20)] or [[]])
                    for x in range(k)]
                m = len(cross[0]) << (0 if strict else k)
                own = slice(at, at + m)
                at += m
                assert (f.ua[own] == low).all() and (f.ub[own] == full ^ low).all()
                assert not any(row[own].any() for row in f.rows[k:])
                rows, weight = [row[own] for row in f.rows[:k]], lanes.weight[own]
                if strict:
                    assert (weight == comb(k, a)).all()
                    assert all(map(np.array_equal, rows, cross))
                    continue
                d = np.arange(1 << k)
                for x, (row, c) in enumerate(zip(rows, cross)):
                    assert np.array_equal(row, (c[:, None] | (~d >> x & 1) << x).ravel())
                empty = sum((c == 0).astype(int) << x for x, c in enumerate(cross)) if serial else 0
                empty = np.broadcast_to(empty, len(cross[0]))[:, None]
                wa, wb = hn._same_type_weights(a), hn._same_type_weights(k - a)
                expected = comb(k, a) * wa[empty & low, d & low] * wb[empty >> a, d >> a]
                assert np.array_equal(weight, expected.ravel())
        assert at == len(lanes.record)


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("serial", [False, True])
def test_class_lanes_count_every_frame_at_six_states(strict, serial):
    # toward sweeps past the 5-state guard, which stays: at 6 states the
    # judged block's weights sum to the closed form, on 404,400 strict
    # lanes (156,939 serial) or 25,582,092 non-strict ones
    lanes = weights = 0
    for chunk in hn._class_lanes(6, strict, serial, "frame", 1 << 18):
        lanes, weights = lanes + len(chunk.record), weights + int(chunk.weight.sum())
    assert lanes == (25_582_092 if not strict else 156_939 if serial else 404_400)
    assert weights == hn._frame_count(hn.Campaign("lemma1", 6, strict, serial=serial))
    with pytest.raises(ValueError, match="between 1 and 5"):
        next(hn._relation_blocks(6, strict, serial, "frame", ()))


@pytest.mark.parametrize("target, mutant", [
    ("theorem22", None), ("theorem22", "theorem22_faults"),
    ("theorem23", None), ("theorem23", "theorem23_fault"), ("validity_lists", None)])
def test_membership_block_totals_depend_only_on_the_class(monkeypatch, target, mutant):
    # the premise of the packed lanes' weights: a labelled block's totals,
    # under the real predicates or a broken one, are those of its class's
    # first block, whose types are sorted; a block's class is the one that
    # _classes reads off its lanes; and the first blocks times their class
    # sizes sum to the SUMMARY
    if mutant:
        broken = {"theorem22_faults": _mutated_theorem22, "theorem23_fault": _mutated_theorem23}
        monkeypatch.setattr(hs, mutant, broken[mutant](getattr(hs, mutant)))
    spec = hn._SWEEPS[target]
    ops, slots = spec.program()
    first, summed, weighted = {}, Counter(), Counter()
    judged, *labelled = hn._membership_blocks(3, *_MEMBERSHIP_FLAGS[target], ops)
    assert judged.cls is None  # its lanes are the first blocks' of their classes
    for block in labelled:
        totals = Counter()
        for lanes in block.chunks:
            n, f = len(lanes.record), lanes.frame
            totals["models"] += lanes.count()
            for _ in spec.judge(lanes, ops, slots, totals):
                pass
            per_lane = f._replace(ua=np.full(n, f.ua, np.uint8), ub=np.full(n, f.ub, np.uint8))
            assert hn._classes(np.ones(n, bool), lanes._replace(
                frame=per_lane, weight=np.ones(n, np.int64))) == {block.cls}
        if block.cls not in first:
            weighted.update({key: hn._class_size(block.cls) * v for key, v in totals.items()})
        assert first.setdefault(block.cls, totals) == totals, block.cls
        summed.update(totals)
    assert summed == weighted
    summary = hn.run_campaign(hn.Campaign(target, 3)).summary
    summary.update(summary.pop("valid_counts", {}))
    assert summed == {key: summary[key] for key in summed}
    assert summed["violations"] > 0 if mutant else summed["models"] == summary["models"]


@pytest.mark.parametrize("target", ["theorem22", "theorem23", "validity_lists"])
def test_a_dropped_chunk_breaks_the_membership_closed_form(monkeypatch, target):
    # the one chunk of the 2-node representatives, whose types are the top
    # digit (ua None), is dropped
    chunks = hn._membership_chunks

    def dropping(k, ua, *args):
        if (k, ua) != (2, None):
            yield from chunks(k, ua, *args)
    monkeypatch.setattr(hn, "_membership_chunks", dropping)
    with pytest.raises(RuntimeError, match="closed form"):
        hn.run_campaign(hn.Campaign(target, 2))


@pytest.mark.parametrize("target", ["theorem22", "theorem23", "validity_lists"])
def test_a_wrong_weight_breaks_the_membership_closed_form(monkeypatch, target):
    # one type assignment more in the class of one Ua-only and one Ub-only node
    size = hn._class_size
    monkeypatch.setattr(hn, "_class_size", lambda cls: size(cls) + (cls == (1, 1, 0)))
    with pytest.raises(RuntimeError, match="closed form"):
        hn.run_campaign(hn.Campaign(target, 2))


def _reference_validity_lists(max_size):
    """validity_lists judged chunk by chunk over every labelled lane: each
    formula's count of the models on which it holds at every node, and the
    first counter-model of each claimed-valid one."""
    c = hn.Campaign(target="validity_lists", max_size=max_size)
    texts = [text for text, _ in hs.VALIDITY_CLAIMS]
    ops, slots = pg.compile_program([fm.parse(text) for text in texts], "nwf", atoms=())
    models, valid, first = 0, Counter(), {}
    for lanes in hn._labelled(hn._membership_blocks(max_size, False, False, ops)):
        n, full = len(lanes.record), (1 << lanes.frame.k) - 1
        vals = pg.run(ops, lanes.frame)
        models += n
        for (text, claimed), slot in zip(hs.VALIDITY_CLAIMS, slots):
            holds = np.broadcast_to(vals[slot] == full, n)
            valid[text] += int(np.count_nonzero(holds))
            failing = np.flatnonzero(~holds) if claimed else []
            if len(failing):  # records interleave across blocks: the chunk's lowest, then all's
                lane = failing[np.argmin(lanes.record[failing])]
                hit = int(lanes.record[lane]), lanes.compact(lane)
                first[text] = min(first.get(text, hit), hit)
    lines = hn._header(c, "claimed-valid formulas: models on which each holds everywhere")
    for text, claimed in hs.VALIDITY_CLAIMS:
        tag = "claimed-valid" if claimed else "claimed-invalid"
        lines.append(f"  {tag}: {text}: {valid[text]} of {models}")
    for text in sorted(first):
        hn._dump_block(lines, f"first counter-model for {text}",
                       dump_nwf(hn._rebuild_hyperset(first[text][1])))
    return first, hn.CampaignReport(tuple(lines), {
        "target": c.target, "max_size": max_size, "models": models,
        "valid_counts": {text: valid[text] for text in texts}}).text


@pytest.fixture
def patched_validity_claims(monkeypatch, request):
    """VALIDITY_CLAIMS in which "[ab] Ua <-> false" fails on five models
    (records 0, 2, 4, 6, 7) before two others first fail (records 16 and
    75), one claimed-valid formula never fails, and a claimed-invalid one
    fails from record 1 on."""
    monkeypatch.setattr(hs, "VALIDITY_CLAIMS", (
        ("Ua -> [ab] [ba] false", True), ("[ab] Ua <-> false", True),
        ("<ab> true -> Ua", True), ("[ab] false", False), ("Ua -> [ab] false", True)))
    hs.validity_program.cache_clear()
    request.addfinalizer(hs.validity_program.cache_clear)  # before the claims are restored


@pytest.mark.parametrize("max_size", [2, 3])
def test_validity_lists_dumps_each_formulas_own_first_counter_model(patched_validity_claims,
                                                                     max_size):
    first, expected = _reference_validity_lists(max_size)
    records = {text: record for text, (record, _) in first.items()}
    assert records == {"[ab] Ua <-> false": 0, "Ua -> [ab] false": 16,
                       "Ua -> [ab] [ba] false": 75}
    assert hn.run_campaign(hn.Campaign("validity_lists", max_size)).text == expected


def _per_block_models(max_nodes, overlap):
    """Every membership model up to ``max_nodes`` nodes built one (k, type
    assignment) block at a time, node 0's option the slowest, with its
    record: its place in the order by size, then member rows and
    urelements, then types."""
    keys = []
    for k in range(1, max_nodes + 1):
        for types in iproduct((1, 2, 3) if overlap else (1, 2), repeat=k):
            for options in iproduct(range((1 << k) + 1), repeat=k):
                keys.append((k, types, options))
    record = {key: i for i, key in enumerate(sorted(keys, key=itemgetter(0, 2, 1)))}
    for key in keys:
        k, types, options = key
        names = [f"n{i}" for i in range(k)]
        typed = lambda side: [n for n, t in zip(names, types) if t & side]
        yield record[key], hs.HypersetModel(
            names, [(w, v) for w, o in zip(names, options) for i, v in enumerate(names)
                    if o and (o - 1) >> i & 1],
            typed(1), typed(2), [n for n, o in zip(names, options) if o == 0],
            disjoint_types=3 not in types)


@pytest.mark.parametrize("overlap", [False, True])
def test_enumerate_hypersets_keeps_the_per_block_order(overlap):
    # the labelled blocks come in block order, so the models come out as
    # from one block at a time, with the same records
    expected = list(_per_block_models(3, overlap))
    assert list(hn.enumerate_hypersets(3, allow_overlap=overlap)) == [m for _, m in expected]
    for ops in ([], hs.theorem23_program()[0], hs.theorem22_program()[0]):
        blocks = hn._membership_blocks(3, overlap, False, ops)
        records = [lanes.record for lanes in hn._labelled(blocks)]
        assert np.concatenate(records).tolist() == [r for r, _ in expected]


@pytest.mark.parametrize("case", range(8))
def test_digits_are_the_mixed_radix_numbers_in_whole_runs(case):
    # seeded radices, radix 1 among them, and places; widths of one lane,
    # one that cuts inside a digit's cycle, and one past the total
    rng = random.Random(case)
    radix = [rng.choice((1, 2, 3, 5)) for _ in range(rng.randint(0, 4))]
    for r in (1, rng.choice((3, 5))):
        radix.insert(rng.randrange(len(radix) + 1), r)
    total = prod(radix)
    places = [np.array([rng.randrange(1000) for _ in range(r)]) for r in radix]
    tables = [(place, np.arange(r, dtype=np.uint8), place.astype(np.uint8) ^ 0x5a)
              for r, place in zip(radix, places)]
    # digit x of lane i, digit 0 the fastest
    digits = np.unravel_index(np.arange(total), radix[::-1])[::-1]
    cut = rng.choice([x for x, r in enumerate(radix) if r > 2])
    inside = prod(radix[:cut + 1]) - 1  # all but one lane of a cycle of digit ``cut``
    for width in (1, inside, total + rng.randrange(3)):
        low = max(x for x in range(len(radix) + 1) if prod(radix[:x]) <= width)
        run = prod(radix[:low])  # the lanes of a run of the low digits
        chunks = list(hn._digits(tables, width))
        for record, lanes in chunks:
            assert record.dtype == np.int64 and len(lanes) == len(radix)
            assert len(record) <= width and len(record) % run == 0
            assert all(len(a) == len(record) for arrays in lanes for a in arrays)
        record = np.concatenate([record for record, _ in chunks])
        assert np.array_equal(record, sum(place[d] for place, d in zip(places, digits)))
        for x, d in enumerate(digits):
            index, xored = (np.concatenate([lanes[x][j] for _, lanes in chunks]) for j in (0, 1))
            assert index.dtype == np.uint8 and np.array_equal(index, d)
            assert np.array_equal(xored, places[x][d].astype(np.uint8) ^ 0x5a)
    # a digit of radix 0: no number at all
    zero = tables + [(np.arange(0), np.arange(0, dtype=np.uint8))]
    for width in (1, total):
        assert list(hn._digits(zero[::-1], width)) == list(hn._digits(zero, width)) == []


def _decoded_lanes(k, vals, blocks, offset, t, lane):
    """The lanes ``lane`` of block t of the k-node membership models, each
    decoded on its own by integer division, with ``vals`` valuations of p
    and ``blocks`` type assignments, the size's first record ``offset``:
    (records, member rows, urelements, p)."""
    options = (1 << k) + 1
    member_row = np.maximum(np.arange(options) - 1, 0).astype(hn._LANE)
    digits, pval = lane // vals, lane % vals
    record = offset + (digits * blocks + t) * vals + pval
    rows, ure = [None] * k, 0
    for w in reversed(range(k)):
        digits, option = digits // options, digits % options
        rows[w] = member_row[option]
        ure = ure | (option == 0) * hn._LANE(1 << w)
    return record, rows, ure, pval.astype(hn._LANE)


@pytest.mark.parametrize("program, with_atom, checks", [(hs.theorem22_program, True, 3),
                                                        (hs.validity_program, False, 1)])
def test_four_node_membership_lanes_match_the_per_lane_decode(program, with_atom, checks):
    # Each block has its own chunks.  In the first, a middle and the last
    # type-assignment block: the first chunk, the first that starts inside
    # node 0's digit (theorem22's blocks are cut; validity_lists' are one
    # chunk each) and the last, bit for bit against the per-lane decode
    ops, _ = program()
    vals = 16 if with_atom else 1
    per_block, assignments = 17**4 * vals, list(iproduct((1, 2), repeat=4))
    node0 = per_block // 17  # the lanes of one value of node 0's option
    offset = hn._membership_count(hn.Campaign("theorem22", 3), 2, 2 if with_atom else 1)
    checked = {0: [], len(assignments) // 2: [], len(assignments) - 1: []}  # chunk starts
    lane = 0  # the chunk's first lane among the 4-node lanes
    for lanes in hn._labelled(hn._membership_blocks(4, False, with_atom, ops)):
        if lanes.frame.k < 4:
            continue
        (t, start), n, f = divmod(lane, per_block), len(lanes.record), lanes.frame
        lane += n
        assert start + n <= per_block and isinstance(f.ua, int)  # one block, int types
        inside = start % node0 and not any(s % node0 for s in checked.get(t, ()))
        if t not in checked or not (start == 0 or inside or start + n == per_block):
            continue
        checked[t].append(start)
        assert (f.ua, f.ub) == tuple(sum(1 << w for w in range(4) if assignments[t][w] & side)
                                     for side in (1, 2))
        record, rows, ure, pval = _decoded_lanes(4, vals, len(assignments), offset, t,
                                                 np.arange(start, start + n, dtype=np.int64))
        for got, want in zip([lanes.record, *f.rows, lanes.ure, f.atoms.get("p", pval)],
                             [record, *rows, ure, pval], strict=True):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert ("p" in f.atoms) == with_atom
    assert lane == per_block * len(assignments)
    assert [len(starts) for starts in checked.values()] == [checks] * 3


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


def test_compile_program_takes_formulas_one_at_a_time():
    # parsed lazily, a formula can be freed once it is compiled, and the
    # next one can get its id: that must not make it read as the old op
    texts = [f"{m} {b}" for m in ("[ab]", "Hab", "<ba>") for b in ("true", "false", "p", "!p")]
    assert pg.compile_program(map(fm.parse, texts), "kripke") == pg.compile_program(
        [fm.parse(text) for text in texts], "kripke")


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
        chunks = list(hn._labelled(hn._relation_blocks(4, strict, serial, "frame", ops)))
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


@pytest.mark.parametrize("serial", [False, True])
def test_relation_lanes_at_five_states_match_per_edge_reference(serial):
    # non-strict 5-state frames have 25 candidate edges, and their chunks
    # can start inside state 3's digit.  Checked: the first chunk of the
    # first 5-state block, and in the last block (Ua holds all five
    # states) the first chunk that starts inside that digit and the last
    # chunk; the last block's chunks run to its end.
    ops, _ = kr.hole_program("kripke")
    width = hn._lane_width(ops, 5)
    total = 1 << 25
    offset = sum(1 << k + k * k for k in range(1, 5))  # the frames of 1-4 states
    blocks = [block for block in hn._relation_blocks(5, False, serial, "frame", ops)
              if block.cls is not None and sum(block.cls) == 5]
    assert [block.first for block in blocks] == [offset + ua * total for ua in range(32)]

    def check(lanes, first, stop):
        # the chunk holds the frames, serial ones only when ``serial``,
        # whose relation ids (records counted before the filter, less the
        # block's first) run from ``first`` up to ``stop``
        ids = np.arange(first, stop, dtype=np.int64)
        rows = _rows_by_edge(5, _candidate_edges(5, lanes.frame.ua, False), ids)
        keep = np.logical_and.reduce(rows) if serial else np.ones(len(ids), bool)
        assert 0 < len(lanes.record) <= width
        assert np.array_equal(lanes.record, blocks[0].first + lanes.frame.ua * total + ids[keep])
        for got, want in zip(lanes.frame.rows, rows, strict=True):
            assert got.dtype == np.uint8 and np.array_equal(got, want[keep])

    first = next(iter(blocks[0].chunks))
    assert first.frame.ua == 0
    check(first, 0, int(first.record[-1]) - offset + 1)
    start, inside = 0, None
    for lanes in blocks[-1].chunks:
        assert lanes.frame.ua == 0b11111
        stop = int(lanes.record[-1]) - blocks[-1].first + 1
        if inside is None and start % 32**4:  # state 3's digit is not 0
            inside = lanes, start, stop
        start = stop
    assert start == total
    check(*inside)
    check(lanes, int(lanes.record[0]) - blocks[-1].first, total)
    assert lanes.frame.rows[0][-1] == 0b11111


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("serial", [True, False])
def test_relation_chunks_fit_the_lane_width(monkeypatch, strict, serial):
    # whole blocks (no ops), chunks of a few runs of the low three digits
    # (1000 ops), and of four runs of the low two (4 KB for the masks)
    for lane_bytes, ops in ((1 << 24, ()), (1 << 24, [()] * 1000), (4096, ())):
        monkeypatch.setattr(hn, "_LANE_BYTES", lane_bytes)
        for lanes in hn._labelled(hn._relation_blocks(4, strict, serial, "frame", ops)):
            assert 0 < len(lanes.record) <= hn._lane_width(ops, lanes.frame.k)


def _block_totals(target, max_size, strict, heart, serial):
    """Every labelled (k, ua) block of a classical sweep judged on its own,
    not through the weighted loop, in enumeration order: (class, totals)."""
    spec = hn._SWEEPS[target]
    ops, slots = spec.program()
    blocks = []
    for i, block in enumerate(hn._relation_blocks(max_size, strict, serial, heart, ops)):
        if block.cls is None:
            assert i == 0  # the one judged block, of packed representatives, comes first
            continue
        totals = dict.fromkeys(spec.totals, 0)
        for lanes in block.chunks:
            totals["models"] += len(lanes.record)
            for _ in spec.judge(lanes, ops, slots, totals):
                pass
        blocks.append((block.cls, totals))
    return blocks


@pytest.mark.parametrize("target", ["lemma1", "theorem12"])
@pytest.mark.parametrize("strict,max_size", [(True, 5), (False, 4)])
def test_classical_block_totals_depend_only_on_the_popcount(target, strict, max_size):
    # the premise of the packed lanes' weights: a block's totals depend on
    # its class (|Ua|, |Ub|, 0) alone, so the class's first block, Ua = the lowest states,
    # counts C(k, a) times; a labelled block is read only for the dumps
    for heart, serial in iproduct(("frame", "local"), (False, True)):
        blocks = iter(_block_totals(target, max_size, strict, heart, serial))
        summed, weighted = Counter(), Counter()
        for k in range(1, max_size + 1):
            first = {}  # popcount -> the totals of its first block
            for ua in range(1 << k):
                cls, totals = next(blocks)
                a = ua.bit_count()
                assert cls == (a, k - a, 0)
                if ua == (1 << a) - 1:
                    weighted.update({key: comb(k, a) * n for key, n in totals.items()})
                assert first.setdefault(a, totals) == totals, (k, ua)
                summed.update(totals)
        assert next(blocks, None) is None
        summary = hn.run_campaign(hn.Campaign(target, max_size, strict, heart, serial)).summary
        assert {key: summary[key] for key in summed} == summed == weighted
        assert summed["fails"] > 0


@pytest.mark.parametrize("blocks", [
    partial(hn._relation_blocks, 3, True, False, "frame"),
    partial(hn._relation_blocks, 3, False, True, "local"),
    partial(hn._membership_blocks, 3, False, True),
    partial(hn._membership_blocks, 3, True, False)])
def test_judged_blocks_come_before_their_labelled_blocks(blocks):
    # the block protocol, for both enumerators: exactly one judged block
    # (class None), first; it covers the class of every labelled block,
    # and no other; the labelled blocks come in record order
    judged, *labelled = blocks(())
    assert judged.cls is None and None not in {block.cls for block in labelled}
    covered = set().union(*(hn._classes(np.ones(len(lanes.record), bool), lanes)
                            for lanes in judged.chunks))
    assert covered == {block.cls for block in labelled}
    firsts = [block.first for block in labelled]
    assert firsts == sorted(set(firsts))


@pytest.mark.parametrize("target, size, strict", [
    ("lemma1", 6, True), ("theorem12", 6, False), ("theorem22", 5, True)])
def test_a_bad_bound_raises_before_any_lane_is_judged(monkeypatch, target, size, strict):
    # the enumerator checks its bound before it yields a block, so no
    # program runs; the same spy sees the runs of a campaign in bounds
    runs = []
    run = pg.run
    monkeypatch.setattr(pg, "run", lambda *args: runs.append(args) or run(*args))
    with pytest.raises(ValueError, match="bound must be between"):
        hn.run_campaign(hn.Campaign(target, size, strict))
    assert runs == []
    hn.run_campaign(hn.Campaign(target, 1, strict))
    assert runs


def _reference_kripke(target, max_size, strict, cap, heart="frame", serial=False):
    """lemma1 or theorem12 judged chunk by chunk over every labelled frame,
    the first ``cap`` failing frames dumped."""
    c = hn.Campaign(target, max_size, strict, heart, serial)
    ops, slots = kr.lemma1_program() if target == "lemma1" else kr.hole_program("kripke")
    totals = dict.fromkeys(("models", "holds", "fails", "degenerate"), 0)
    found = []
    for lanes in hn._labelled(hn._relation_blocks(max_size, strict, serial, heart, ops)):
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
        "target": target, "max_size": max_size, "strict": strict, "heart": heart,
        "serial": serial, **totals}).text


def _dumps_like_the_labelled_loop(monkeypatch, target, strict, cap, small_chunks,
                                  heart="frame", serial=False):
    # with no cap on the dumps, every block of a class with failures is
    # scanned to its end, and each of its failing frames is dumped in order;
    # with chunks of a few lanes (the packed block's too), a block is left
    # mid-way once the five dumps are full
    monkeypatch.setattr(hn, "_FAIL_DUMP_CAP", cap)
    found, expected = _reference_kripke(target, 3, strict, cap, heart, serial)
    if small_chunks:
        monkeypatch.setattr(hn, "_LANE_BYTES", 200)
    # failures in blocks whose Ua is not the lowest states, so in no
    # representative of the packed block
    assert any(ua & ua + 1 for _, (_, _, _, ua, _, _) in found)
    assert hn.run_campaign(hn.Campaign(target, 3, strict, heart, serial)).text == expected


@pytest.mark.parametrize("target", ["lemma1", "theorem12"])
@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("cap", [5, 10**6])
@pytest.mark.parametrize("small_chunks", [False, True])
def test_weighted_sweeps_dump_like_the_labelled_loop(monkeypatch, target, strict, cap,
                                                     small_chunks):
    _dumps_like_the_labelled_loop(monkeypatch, target, strict, cap, small_chunks)


@pytest.mark.parametrize("target", ["lemma1", "theorem12"])
@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("cap", [5, 10**6])
@pytest.mark.parametrize("small_chunks", [False, True])
@pytest.mark.parametrize("heart,serial", [("frame", True), ("local", False), ("local", True)])
def test_weighted_sweeps_dump_like_the_labelled_loop_under_each_flag(
        monkeypatch, target, strict, cap, small_chunks, heart, serial):
    # the dump scan reads the blocks of the strict representatives too,
    # under either heart, and serial drops frames from every block
    _dumps_like_the_labelled_loop(monkeypatch, target, strict, cap, small_chunks, heart, serial)


@pytest.mark.parametrize("t", range(4))
def test_same_type_weights_match_every_relation(t):
    # every relation on one type of t states, edge (x, y) at bit x * t + y
    table = hn._same_type_weights(t)
    full = (1 << t) - 1
    expected = np.zeros((1 << t, 1 << t), dtype=np.int64)
    for rel in range(1 << t * t):
        edge = lambda x, y: rel >> x * t + y & 1
        cycled = sum(1 << x for x in range(t) if any(edge(x, y) and edge(y, x) for y in range(t)))
        moving = sum(1 << x for x in range(t) if any(edge(x, y) for y in range(t)))
        for empty in range(1 << t):  # serial: the states whose cross row is empty
            if empty & ~moving == 0:
                expected[empty, full ^ cycled] += 1
    assert np.array_equal(table, expected)
    assert table[0].sum() == 2 ** (t * t)  # serial off reads row 0: every relation


@pytest.mark.parametrize("heart", ["frame", "local"])
@pytest.mark.parametrize("serial", [False, True])
@seed(22)
@settings(max_examples=12, database=None, deadline=None)
@given(st.randoms(use_true_random=False))
def test_factored_lanes_count_like_the_frames(heart, serial, rng):
    # only D reads same-type edges: for any program, the weighted count of
    # a class's lanes in the judged block on which a formula is valid, or
    # satisfiable, is C(k, a) times the count of the frames of the class's
    # first block
    formulas = [random_relational_formula(rng, 3, fm.Dclass()) for _ in range(6)]
    ops, slots = pg.compile_program(formulas, "kripke")
    judged = list(hn._class_lanes(3, False, serial, heart, hn._lane_width(ops, 3)))
    seen = set()
    for block in hn._relation_blocks(3, False, serial, heart, ops):
        if block.cls is None or block.cls in seen:
            continue  # only the class's first block, Ua = the lowest a states
        seen.add(block.cls)
        a, b, _ = block.cls
        ua, full = (1 << a) - 1, (1 << a + b) - 1
        counts = []
        for chunks, ours in ((block.chunks, lambda f: True),
                             (judged, lambda f: (f.ua == ua) & (f.ub == full ^ ua))):
            total = Counter()
            for lanes in chunks:
                vals = [np.broadcast_to(v, len(lanes.record)) for v in pg.run(ops, lanes.frame)]
                own = np.broadcast_to(ours(lanes.frame), len(lanes.record))
                total["models"] += lanes.count(own)
                for j, slot in enumerate(slots):
                    total[j, "valid"] += lanes.count(own & (vals[slot] == full))
                    total[j, "satisfiable"] += lanes.count(own & (vals[slot] != 0))
            counts.append(total)
        assert {key: comb(a + b, a) * n for key, n in counts[0].items()} == counts[1], block.cls
    assert len(seen) == 2 + 3 + 4


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("serial", [False, True])
def test_frame_closed_form_counts_the_enumerated_frames(strict, serial):
    for n in range(1, 5):
        lanes = hn._labelled(hn._relation_blocks(n, strict, serial, "frame", ()))
        assert hn._frame_count(hn.Campaign("lemma1", n, strict, serial=serial)) == sum(
            len(chunk.record) for chunk in lanes)
    assert hn._membership_count(hn.Campaign("theorem23", 3), 3, 1) == 19917


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("serial", [False, True])
def test_a_dropped_chunk_breaks_the_closed_form(monkeypatch, strict, serial):
    # the judged block in chunks of 4 lanes (or one relation's 8 lanes,
    # non-strict), which cut the 3-state classes, loses its first chunk of
    # 3-state lanes alone
    class_lanes, dropped = hn._class_lanes, []

    def dropping(n, strict, serial, heart, width):
        for lanes in class_lanes(n, strict, serial, heart, 4):
            if dropped or not (lanes.frame.ua | lanes.frame.ub == 7).all():
                yield lanes
            else:
                dropped.append(lanes)
    monkeypatch.setattr(hn, "_class_lanes", dropping)
    with pytest.raises(RuntimeError, match="closed form"):
        hn.run_campaign(hn.Campaign("theorem12", 3, strict, serial=serial))
    (lanes,) = dropped
    assert lanes.weight.sum() > 0 and lanes.record[0] > 0


@pytest.mark.parametrize("serial", [False, True])
def test_a_wrong_weight_breaks_the_closed_form(monkeypatch, serial):
    # one more same-type relation with no loop or 2-cycle than there is
    weights = hn._same_type_weights

    def bumped(t):
        table = weights(t).copy()
        table[0, -1] += 1
        return table
    monkeypatch.setattr(hn, "_same_type_weights", bumped)
    with pytest.raises(RuntimeError, match="closed form"):
        hn.run_campaign(hn.Campaign("lemma1", 3, False, serial=serial))


@pytest.mark.parametrize("target", ["lemma1", "theorem12"])
@pytest.mark.parametrize("strict,serial", [(True, False), (True, True), (False, False),
                                           (False, True)])
def test_classical_sweeps_judge_every_class_in_one_packed_run(monkeypatch, target, strict,
                                                              serial):
    # at 4 states the representatives of all 14 classes fit one chunk: one
    # run on per-lane types, the first; every other run is on int types,
    # a labelled block read for the dumps or the landmark frame
    frames = []
    run = pg.run
    monkeypatch.setattr(pg, "run", lambda ops, frame: frames.append(frame) or run(ops, frame))
    hn.run_campaign(hn.Campaign(target, 4, strict, serial=serial))
    packed, labelled = frames[0], frames[1:]
    assert packed.k == 4 and len(packed.rows[0]) == (6476 if not strict else 102 if serial
                                                      else 428)
    assert isinstance(packed.ua, np.ndarray) and isinstance(packed.ub, np.ndarray)
    assert labelled and all(type(f.ua) is type(f.ub) is int for f in labelled)


@pytest.mark.parametrize("heart", ["frame", "local", "membership"])
@seed(23)
@settings(max_examples=20, database=None, deadline=None)
@given(st.randoms(use_true_random=False))
def test_per_lane_types_match_each_lanes_own_frame(heart, rng):
    # lanes of 1-4 states packed over 4 (a lane's rows past its states are
    # empty), each with its own Ua and Ub, one of them with Ua = {} and one
    # with Ub = {} (overlapping types under the membership heart), negated
    # by the complement within the lane's states; then the same lanes with
    # Ua = {} on every lane, so no ab modality has a source.  Each lane
    # against the int path on its own frame, stacked runs included.
    language, d = ("nwf", "D+") if heart == "membership" else ("kripke", "D")
    formulas = [random_relational_formula(rng, 3, fm.parse(d)) for _ in range(6)]
    formulas += [fm.parse(text.format(d=d)) for text in (
        "[ab] (p & Ub) & [ab] p", "Hba (p | {d}) & Hba p & Hba Ua", "<ab> !p | <ab> {d}")]
    ops, _ = pg.compile_program(formulas, language)
    assert any(pg._run_end(ops, i, len(ops)) > i + 1 for i, op in enumerate(ops)
               if op[0] >= pg.BOX)
    n, lanes = 4, []
    for lane in range(rng.randint(2, 12)):
        k = rng.randint(1, n)
        full = (1 << k) - 1
        ua = (0, full)[lane] if lane < 2 else rng.getrandbits(k)
        ub = full ^ ua | (rng.getrandbits(k) & ua if heart == "membership" and lane else 0)
        lanes.append((k, ua, ub, [rng.getrandbits(k) for _ in range(k)], rng.getrandbits(k)))
    for types in ("own", "no Ua"):
        if types == "no Ua":
            lanes = [(k, 0, (1 << k) - 1, rows, p) for k, _, _, rows, p in lanes]
        column = lambda masks: np.array(list(masks), dtype=np.uint8)
        ua, ub = column(lane[1] for lane in lanes), column(lane[2] for lane in lanes)
        rows = [column(lane[3][x] if x < lane[0] else 0 for lane in lanes) for x in range(n)]
        frame = pg.Frame(n, ua, ub, rows, {"p": column(lane[4] for lane in lanes)}, heart,
                         partial(xor, ua | ub))
        vals = pg.run(ops, frame)
        assert all(v.dtype == np.uint8 and v.shape == (len(lanes),) for v in vals)
        for i, (k, *masks, p) in enumerate(lanes):
            own = pg.Frame(k, *masks, {"p": p}, heart, pg.complement(k))
            assert [int(v[i]) for v in vals] == pg.run(ops, own), (types, i)


@pytest.mark.parametrize("p", [0, 1, 3])
def test_an_int_valuation_beside_per_lane_types_reads_as_lanes(p):
    # a frame may value an atom by one Python int for all its lanes (criterion
    # 9 does); beside per-lane types no single modal op may meet it as an int
    # body, whose complement is negative and fits no uint8 lane
    formulas = [fm.parse(text) for text in ("[ab] p", "Hab p", "<ba> !p", "p -> Hba p")]
    ops, slots = pg.compile_program(formulas, "nwf")
    ua, ub = np.array([1, 2, 3, 1], np.uint8), np.array([2, 1, 1, 3], np.uint8)
    rows = [np.array([2, 3, 0, 1], np.uint8), np.array([1, 0, 3, 2], np.uint8)]
    vals = pg.run(ops, pg.Frame(2, ua, ub, rows, {"p": p}, "membership", pg.complement(2)))
    for lane in range(4):
        own = pg.Frame(2, int(ua[lane]), int(ub[lane]), [int(row[lane]) for row in rows],
                       {"p": p}, "membership", pg.complement(2))
        assert [int(vals[s][lane]) for s in slots] == [pg.run(ops, own)[s] for s in slots]


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


def _lane_frame(frame: pg.Frame, lane: int, neg) -> pg.Frame:
    """Lane ``lane`` of a lane frame as a one-model frame of Python ints."""
    at = lambda mask: int(mask[lane]) if isinstance(mask, np.ndarray) else mask
    return frame._replace(rows=[at(row) for row in frame.rows],
                          atoms={a: at(v) for a, v in frame.atoms.items()}, neg=neg)


@pytest.mark.parametrize("heart", ["frame", "local", "membership", "topo"])
def test_stacked_runs_of_each_rule_match_the_int_path(heart):
    # [ab] p then [ab] [ab] p: consecutive ops of one modality, but the
    # second reads the first, so they must not stack; [ab] (p & q) & [ab] p:
    # a run of two that stacks; each modality over constant and negated
    # bodies, one run each.  Ua = {} empties the source of every ab run,
    # whose ops then all give 0.  Each lane against the int path, which
    # never stacks.
    k, full, n = 4, 15, 50
    rng = np.random.default_rng(69)
    lane = lambda: rng.integers(0, 1 << k, n, dtype=np.uint8)
    mods = ["[ab]", "[ba]", "Hab", "Hba", "<ab>", "<ba>"]
    if heart == "topo":
        language, heart, neg = "topo", "local", "~"
        mods = ["Ba", "Bb", "Xa", "Xb", "Ea", "Eb"]
        table = _closure_table([(0b0001, 0b0011, 0b0100, 0b1100)])[0]
        lane_neg = tp.MaskLattice(table.__getitem__, full).pneg
        int_neg = tp.MaskLattice(lambda mask: int(table[mask]), full).pneg
    else:
        language, neg = ("nwf" if heart == "membership" else "kripke"), "!"
        lane_neg = int_neg = pg.complement(k)
    box = mods[0]
    bodies = ["true", "false", "Ua", "p", neg + "p"]
    programs = [[f"{box} p", f"{box} {box} p"], [f"{box} (p & q) & {box} p"],
                bodies + [f"{m} {b}" for m in mods for b in bodies]]
    for ua in (0b0011, 0):
        frame = pg.Frame(k, ua, full ^ ua, [lane() for _ in range(k)],
                         {"p": lane(), "q": lane()}, heart, lane_neg)
        (dep, dep_vals), (pair, pair_vals), (const, const_vals) = [
            (ops, pg.run(ops, frame)) for ops, _ in
            (pg.compile_program(map(fm.parse, texts), language) for texts in programs)]
        for ops, vals in ((dep, dep_vals), (pair, pair_vals), (const, const_vals)):
            for i in range(n):
                assert [int(np.broadcast_to(v, n)[i]) for v in vals] == pg.run(
                    ops, _lane_frame(frame, i, int_neg))
        assert dep[1:] == [(dep[1][0], 0, 0), (dep[1][0], 0, 1)]
        assert pair[3:5] == [(pair[3][0], 0, 2), (pair[3][0], 0, 0)]
        runs = [const_vals[start:start + 5] for start in range(5, len(const), 5)]
        if ua:
            assert dep_vals[1].base is dep_vals[2].base is None  # rows of no stack
            assert pair_vals[3].base is pair_vals[4].base is not None
            assert all(len({id(v.base) for v in run}) == 1 for run in runs)
        else:
            assert dep_vals[1:] == [0, 0] and pair_vals[3:5] == [0, 0]
            assert all(type(v) is int and v == 0 for run in runs[0::2] for v in run)  # ab


def test_fixture_registry_all_pass():
    report = hn.verify_fixtures()
    assert report.ok
    assert len(report.claims) >= 30
    names = {name for name, _ in report.claims}
    assert names == set(hn.FIXTURES)
    assert "all claims pass" in report.text
    # the report the benchmark checks its fixture calls against, byte for byte
    reference = Path(__file__).resolve().parents[1] / "bench" / "reference" / "fixtures.txt"
    assert report.text == reference.read_text(encoding="utf-8")
