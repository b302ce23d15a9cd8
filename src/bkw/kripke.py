"""Interactive belief frames: two type spaces over one state set, a cross
relation, the belief/assumption modalities, the diagonal set, and the
hole scan.

The assumption modality has two readings that differ on finite frames:
the *frame* reading compares the successor set against the whole
extension, the *local* reading compares it only inside the opposite type
space.  Every evaluation entry point takes a ``heart`` flag; "frame" is
the default.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterable, Mapping, Sequence

from . import formula as fm
from . import program as pg

HEART_SEMANTICS = ("frame", "local")

# The seven slots of the hole scan, in report order.
_SLOT_LABELS = (
    "hole at Ua",
    "hole at Ub",
    "big hole at Hba Ua",
    "big hole at [ab] Hba Ua",
    "big hole at [ba] [ab] Hba Ua",
    "hole at Ua & D",
    "big hole at Hba (Ua & D)",
)


class KripkeModel:
    """Finite interactive belief frame.

    States are partitioned into the two type spaces; in strict mode the
    relation may only cross between them.
    """

    def __init__(self, states: Iterable[str], rel: Iterable[tuple[str, str]],
                 ua: Iterable[str], ub: Iterable[str],
                 val: Mapping[str, Iterable[str]] | None = None,
                 strict: bool = True):
        self.states = frozenset(states)
        self.rel = frozenset((str(x), str(y)) for x, y in rel)
        self.ua = frozenset(ua)
        self.ub = frozenset(ub)
        self.val = {name: frozenset(sts) for name, sts in (val or {}).items()}
        self.strict = strict
        self._succ: dict[str, frozenset] = {}
        for x in self.states:
            self._succ[x] = frozenset(y for (w, y) in self.rel if w == x)
        self._validate()

    def _validate(self) -> None:
        if self.ua & self.ub:
            raise ValueError(f"type spaces overlap on {sorted(self.ua & self.ub)}")
        if self.ua | self.ub != self.states:
            raise ValueError("type spaces must cover all states")
        rel = sorted(self.rel)  # the first bad pair, whatever the hash seed
        for x, y in rel:
            if x not in self.states or y not in self.states:
                raise ValueError(f"relation pair ({x}, {y}) uses unknown states")
        if self.strict:
            for x, y in rel:
                if (x in self.ua) == (y in self.ua):  # the types partition the states
                    raise ValueError(f"strict mode forbids same-type edge ({x}, {y})")
        for name, sts in self.val.items():
            if not sts <= self.states:
                raise ValueError(f"valuation of {name!r} uses unknown states")

    def successors(self, x: str) -> frozenset:
        return self._succ[x]

    def _encode(self):
        return (tuple(sorted(self.states)), tuple(sorted(self.rel)),
                tuple(sorted(self.ua)),
                tuple(sorted((k, tuple(sorted(v))) for k, v in self.val.items())),
                self.strict)

    def __eq__(self, other) -> bool:
        return isinstance(other, KripkeModel) and self._encode() == other._encode()

    def __hash__(self) -> int:
        return hash(self._encode())

    def __repr__(self) -> str:
        return (f"KripkeModel(states={sorted(self.states)}, rel={sorted(self.rel)}, "
                f"ua={sorted(self.ua)}, ub={sorted(self.ub)})")


def diagonal_D(m: KripkeModel) -> frozenset:
    """States none of whose successors point back at them."""
    return extension(m, fm.Dclass())


def to_frame(m: KripkeModel, heart: str = "frame") -> tuple[list[str], pg.Frame]:
    """The model as an evaluator frame over its sorted state names."""
    if heart not in HEART_SEMANTICS:
        raise ValueError(f"unknown heart semantics {heart!r}")
    names = sorted(m.states)
    return names, pg.model_frame(names, m.ua, m.ub, map(m.successors, names), m.val, heart,
                                 pg.complement(len(names)))


def extension(m: KripkeModel, f: fm.Formula, heart: str = "frame") -> frozenset:
    """Exact satisfaction set of a relational-language formula."""
    return pg.extension(f, "kripke", *to_frame(m, heart))


def is_satisfiable(m: KripkeModel, f: fm.Formula, heart: str = "frame") -> bool:
    return bool(extension(m, f, heart))


def is_valid(m: KripkeModel, f: fm.Formula, heart: str = "frame") -> bool:
    return extension(m, f, heart) == m.states


@dataclass(frozen=True)
class SlotResult:
    """One slot of the hole scan, with the witnessing evidence."""

    label: str
    formula: str
    is_hole: bool
    #: states satisfying Ub & phi / Ua & phi
    content_b: tuple
    content_a: tuple
    #: states witnessing Hab phi (resp. [ab] phi) / Hba phi (resp. [ba] phi)
    witness_ab: tuple
    witness_ba: tuple


@dataclass(frozen=True)
class HoleReport:
    slots: tuple[SlotResult, ...]

    @property
    def any_hole(self) -> bool:
        return any(s.is_hole for s in self.slots)

    def slot(self, label: str) -> SlotResult:
        for s in self.slots:
            if s.label == label:
                return s
        raise KeyError(label)


def hole_slots(diagonal_atom: fm.Formula) -> tuple[tuple[str, fm.Formula, bool], ...]:
    """The seven scanned slots as (label, formula, big-hole?) triples."""
    ua_and_d = fm.And(fm.Ua(), diagonal_atom)
    heart_ba_ua = fm.Heart("ba", fm.Ua())
    box_heart = fm.Box("ab", heart_ba_ua)
    box_box_heart = fm.Box("ba", box_heart)
    slot_formulas = (fm.Ua(), fm.Ub(), heart_ba_ua, box_heart, box_box_heart,
                     ua_and_d, fm.Heart("ba", ua_and_d))
    big = (False, False, True, True, True, False, True)
    return tuple(zip(_SLOT_LABELS, slot_formulas, big))


_DIAGONAL = {"kripke": fm.Dclass(), "nwf": fm.Dplus()}


@cache
def _hole_table(language: str):
    """The scan's 28 formulas as one program, and its slots in report order:
    (ops, per-slot op indices of Ub & phi, Ua & phi and the modality at phi
    in directions ab and ba, per-slot (label, text of phi))."""
    quads, texts = [], []
    for label, phi, use_box in hole_slots(_DIAGONAL[language]):
        mod = fm.Box if use_box else fm.Heart
        quads.append((fm.And(fm.Ub(), phi), fm.And(fm.Ua(), phi),
                      mod("ab", phi), mod("ba", phi)))
        texts.append((label, fm.to_text(phi)))
    ops, slots = pg.compile_program([f for q in quads for f in q], language, atoms=())
    return (tuple(ops), tuple(tuple(slots[i:i + 4]) for i in range(0, len(slots), 4)),
            tuple(texts))


def hole_program(language: str) -> tuple[tuple, tuple[tuple[int, ...], ...]]:
    """The scan's program: (ops, per-slot op indices), built once."""
    return _hole_table(language)[:2]


def hole_masks(vals: list, slots: Sequence[tuple[int, ...]]):
    """Per slot, its four masks (content_b, content_a, witness_ab,
    witness_ba) and its hole verdict, for one model or numpy lanes.

    A hole at phi: one type space can satisfy phi but no state of the
    other assumes it; a big hole uses belief instead of assumption.  The
    scan takes phi's satisfiability inside this model literally: slots
    whose formula is unsatisfiable report no hole.
    """
    for slot in slots:
        cb, ca, wab, wba = (vals[i] for i in slot)
        yield (cb, ca, wab, wba), (cb != 0) & (wab == 0) | (ca != 0) & (wba == 0)


def scan_holes(names: list[str], frame: pg.Frame, language: str) -> HoleReport:
    """Run the seven-slot hole scan on one model's frame."""
    ops, slots, texts = _hole_table(language)
    pick = lambda mask: tuple(n for i, n in enumerate(names) if mask >> i & 1)
    return HoleReport(tuple(
        SlotResult(label, text, bool(hole), *map(pick, masks))
        for (label, text), (masks, hole)
        in zip(texts, hole_masks(pg.run(ops, frame), slots))))


def find_holes(m: KripkeModel, heart: str = "frame") -> HoleReport:
    return scan_holes(*to_frame(m, heart), "kripke")


@dataclass(frozen=True)
class Lemma1Record:
    """Verdicts for the two chained-belief claims; reports, never asserts."""

    premise_holds: bool
    part1_valid: bool
    part2_valid: bool
    part1_counterwitnesses: tuple
    part2_counterwitnesses: tuple


#: Lemma 1: the premise, the chain implication of part 1, and the body
#: whose extension part 2 claims is empty.
LEMMA1 = (fm.parse("Hab Ub"), fm.parse("[ab] [ba] [ab] Hba Ua -> D"),
          fm.parse("[ab] Hba (Ua & D)"))


@cache
def lemma1_program() -> tuple[tuple, tuple[int, ...]]:
    ops, slots = pg.compile_program(LEMMA1, "kripke", atoms=())
    return tuple(ops), tuple(slots)


def lemma1_masks(vals: list, slots: Sequence[int], full):
    """Lemma 1 on extension masks, for one model or numpy lanes: (premise
    satisfiable, states failing part 1, states where part 2's body holds)."""
    premise, part1, part2_body = (vals[i] for i in slots)
    return premise != 0, part1 ^ full, part2_body


def check_lemma_1(m: KripkeModel, heart: str = "frame") -> Lemma1Record:
    names, frame = to_frame(m, heart)
    ops, slots = lemma1_program()
    premise, part1_fails, part2_holds_at = lemma1_masks(
        pg.run(ops, frame), slots, (1 << frame.k) - 1)
    return Lemma1Record(
        premise_holds=premise,
        part1_valid=not part1_fails,
        part2_valid=not part2_holds_at,
        part1_counterwitnesses=tuple(sorted(pg.names_of(names, part1_fails))),
        part2_counterwitnesses=tuple(sorted(pg.names_of(names, part2_holds_at))),
    )
