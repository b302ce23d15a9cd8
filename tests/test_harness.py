import random
from itertools import groupby, product as iproduct

import numpy as np
import pytest

from bkw import formula as fm
from bkw import harness as hn
from bkw import hyperset as hs
from bkw import kripke as kr
from bkw import program as pg
from bkw.modelio import load_model
from conftest import (kripke_truth, nwf_truth, random_hyperset,
                      random_relational_formula)


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
    narrow = pg.Frame(k, 0b011, 0b110, [lane() for _ in range(k)], {}, "membership")
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


@pytest.mark.parametrize("heart", ["frame", "local", "membership"])
def test_run_keeps_the_lane_dtype(heart):
    # byte lanes give byte results, not int64 ones, equal to the results
    # on the same lanes widened to int64
    language, diag = ("nwf", fm.Dplus()) if heart == "membership" else ("kripke", fm.Dclass())
    family = hs.bounded_formula_family() + (diag, fm.Heart("ab", diag),
                                            fm.Box("ba", fm.Not(diag)))
    ops, _ = pg.compile_program(family, language, atoms=("p",))
    rng = np.random.default_rng(65)
    k = 4
    lane = lambda: rng.integers(0, 1 << k, 200, dtype=np.uint8)
    narrow = pg.Frame(k, 0b0011, 0b1110, [lane() for _ in range(k)], {"p": lane()}, heart)
    wide = narrow._replace(rows=[_widened(row) for row in narrow.rows],
                           atoms={"p": _widened(narrow.atoms["p"])})
    lanes = 0
    for got, want in zip(pg.run(ops, narrow), pg.run(ops, wide), strict=True):
        if isinstance(got, np.ndarray):
            assert got.dtype == np.uint8 and want.dtype == np.int64
            lanes += 1
        assert np.array_equal(got, want)
    assert lanes > len(ops) // 2
    assert pg.no_return(narrow.rows).dtype == np.uint8


def test_fixture_registry_all_pass():
    report = hn.verify_fixtures()
    assert report.ok
    assert len(report.claims) >= 30
    names = {name for name, _ in report.claims}
    assert names == set(hn.FIXTURES)
    assert "all claims pass" in report.text
