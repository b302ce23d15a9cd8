"""Belief models over finite membership graphs.

States are nodes; an edge w -> v in the model file (and in the ``mem``
pairs here) means v is a member of w.  Nodes are either sets or
urelements; urelements carry no members and are never identified with
the empty set or with each other.

The assumption modality checks its biconditional over a state's members
together with the state itself.  That domain is forced by the worked
facts this module reproduces: a Quine state assumes exactly the formulas
it falsifies, and assumption of a true formula at a Quine state pins the
state into both type spaces.  Quantifying over all nodes instead breaks
the first fact; quantifying over members only breaks it for urelements.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from typing import Iterable, Mapping, Sequence

from . import formula as fm
from . import kripke as kr
from . import program as pg


class HypersetModel:
    def __init__(self, nodes: Iterable[str], mem: Iterable[tuple[str, str]],
                 ua: Iterable[str], ub: Iterable[str],
                 urelements: Iterable[str] = (),
                 val: Mapping[str, Iterable[str]] | None = None,
                 disjoint_types: bool = True):
        self.nodes = frozenset(nodes)
        self.mem = frozenset((str(w), str(v)) for w, v in mem)
        self.ua = frozenset(ua)
        self.ub = frozenset(ub)
        self.urelements = frozenset(urelements)
        self.val = {name: frozenset(sts) for name, sts in (val or {}).items()}
        self.disjoint_types = disjoint_types
        self._members: dict[str, frozenset] = {
            w: frozenset(v for (x, v) in self.mem if x == w) for w in self.nodes
        }
        self._validate()

    def _validate(self) -> None:
        for w, v in sorted(self.mem):  # the first bad pair, whatever the hash seed
            if w not in self.nodes or v not in self.nodes:
                raise ValueError(f"membership pair ({w}, {v}) uses unknown nodes")
        for u in sorted(self.urelements):
            if u not in self.nodes:
                raise ValueError(f"unknown urelement {u!r}")
            if self._members[u]:
                raise ValueError(f"urelement {u!r} has members")
        if self.ua | self.ub != self.nodes:
            raise ValueError("type spaces must cover all nodes")
        if self.disjoint_types and self.ua & self.ub:
            raise ValueError(f"type spaces overlap on {sorted(self.ua & self.ub)}")
        for name, sts in self.val.items():
            if not sts <= self.nodes:
                raise ValueError(f"valuation of {name!r} uses unknown nodes")

    def members(self, w: str) -> frozenset:
        return self._members[w]

    def kind(self, w: str) -> str:
        return "urelement" if w in self.urelements else "set"

    def _encode(self):
        return (tuple(sorted(self.nodes)), tuple(sorted(self.mem)),
                tuple(sorted(self.ua)), tuple(sorted(self.ub)),
                tuple(sorted(self.urelements)),
                tuple(sorted((k, tuple(sorted(v))) for k, v in self.val.items())),
                self.disjoint_types)

    def __eq__(self, other) -> bool:
        return isinstance(other, HypersetModel) and self._encode() == other._encode()

    def __hash__(self) -> int:
        return hash(self._encode())

    def __repr__(self) -> str:
        parts = ", ".join(f"{w}={{{' '.join(sorted(self.members(w)))}}}"
                          for w in sorted(self.nodes))
        return f"HypersetModel({parts})"


@dataclass(frozen=True)
class StateClass:
    is_quine: bool
    is_urelement: bool
    is_transitive: bool


def classify_state(m: HypersetModel, w: str) -> StateClass:
    """Quine (sole member is itself), urelement, and transitivity flags."""
    if w not in m.nodes:
        raise ValueError(f"unknown node {w!r}")
    quine = w not in m.urelements and m.members(w) == frozenset([w])
    transitive = all(b in m.members(w) for a in m.members(w) for b in m.members(a))
    return StateClass(is_quine=quine, is_urelement=w in m.urelements,
                      is_transitive=transitive)


def diagonal_Dplus(m: HypersetModel) -> frozenset:
    """Nodes none of whose members contain them back."""
    return nwf_extension(m, fm.Dplus())


def to_frame(m: HypersetModel) -> tuple[list[str], pg.Frame]:
    """The model as an evaluator frame over its sorted node names."""
    names = sorted(m.nodes)
    return names, pg.model_frame(names, m.ua, m.ub, map(m.members, names), m.val,
                                 "membership", pg.complement(len(names)))


def nwf_extension(m: HypersetModel, f: fm.Formula) -> frozenset:
    """Satisfaction set of a relational-language formula under membership semantics."""
    return pg.extension(f, "nwf", *to_frame(m))


def nwf_valid(m: HypersetModel, f: fm.Formula) -> bool:
    return nwf_extension(m, f) == m.nodes


def nwf_find_holes(m: HypersetModel) -> kr.HoleReport:
    return kr.scan_holes(*to_frame(m), "nwf")


# ---------------------------------------------------------------------------
# Bisimulation and canonical forms


def _labels(m: HypersetModel, w: str, atoms: bool = True):
    """A node's label; with ``atoms`` each urelement has its own."""
    if atoms and w in m.urelements:
        return ("ure", w)
    return (m.kind(w), w in m.ua, w in m.ub,
            frozenset(name for name, sts in m.val.items() if w in sts))


def _blocks(nodes: Sequence, members, label) -> dict:
    """The coarsest stable partition of ``nodes`` under ``label``, as a
    block number per node.  Each round numbers its blocks 0, 1, ... by the
    key (block, set of the members' blocks), so no key nests; a round only
    splits blocks, so it is stable once the count stops growing."""
    numbers: dict = {}
    block = {w: numbers.setdefault(label(w), len(numbers)) for w in nodes}
    while True:
        count, numbers = len(numbers), {}
        block = {w: numbers.setdefault((block[w], frozenset(block[v] for v in members(w))),
                                       len(numbers))
                 for w in nodes}
        if len(numbers) == count:
            return block


def canonicalize(m: HypersetModel) -> tuple[HypersetModel, dict[str, str]]:
    """Quotient by the coarsest label-respecting bisimulation.

    One partition refinement with numbered blocks (``_blocks``): nodes
    start grouped by label, each urelement alone in its block, and blocks
    split until every block's members hit the same set of blocks.  The
    returned map sends each node to the representative of its block;
    representatives are the least node names, so the operation is
    idempotent.
    """
    nodes = sorted(m.nodes)
    block = _blocks(nodes, m.members, partial(_labels, m))

    classes: dict[object, list[str]] = {}
    for w in nodes:
        classes.setdefault(block[w], []).append(w)
    rep = {w: min(classes[block[w]]) for w in nodes}

    new_nodes = sorted(set(rep.values()))
    new_mem = sorted({(rep[w], rep[v]) for (w, v) in m.mem})
    quotient = HypersetModel(
        nodes=new_nodes,
        mem=new_mem,
        ua=sorted({rep[w] for w in m.ua}),
        ub=sorted({rep[w] for w in m.ub}),
        urelements=sorted({rep[w] for w in m.urelements}),
        val={name: sorted({rep[w] for w in sts}) for name, sts in m.val.items()},
        disjoint_types=m.disjoint_types,
    )
    return quotient, rep


def bisimilar(m1: HypersetModel, n1: str, m2: HypersetModel, n2: str) -> bool:
    """Labeled bisimilarity between nodes of two models.

    The refinement of ``canonicalize`` runs over the nodes of both models,
    tagged by model (one model when ``m1 == m2``, so that an equal copy
    answers like the model itself), and the two nodes are bisimilar when
    they end in one block.  Within one model distinct urelements are
    distinct atoms; across models urelements match when their labels do.
    """
    if n1 not in m1.nodes or n2 not in m2.nodes:
        raise ValueError("unknown node")
    models = (m1,) if m1 == m2 else (m1, m2)
    block = _blocks([(i, w) for i, m in enumerate(models) for w in sorted(m.nodes)],
                    lambda t: [(t[0], v) for v in models[t[0]].members(t[1])],
                    lambda t: _labels(models[t[0]], t[1], atoms=len(models) == 1))
    return block[0, n1] == block[len(models) - 1, n2]


# ---------------------------------------------------------------------------
# Named finite checks


@cache
def bounded_formula_family() -> tuple[fm.Formula, ...]:
    """Deterministic family of formulas of modal depth at most 2.

    Base layer: the type atoms, the atom p, the constants, their
    negations, and the pairwise conjunctions/disjunctions; each of the two
    further layers applies all six directed modalities to the previous
    layer.
    """
    p = fm.Atom("p")
    literals = [fm.Ua(), fm.Ub(), p]
    base: list[fm.Formula] = [*literals, fm.Top(), fm.Bot()]
    base += [fm.Not(l) for l in literals]
    for i, left in enumerate(literals):
        for right in literals[i + 1:]:
            base.append(fm.And(left, right))
            base.append(fm.Or(left, right))
    family = list(base)
    layer = base
    for _ in range(2):
        layer = [ctor(d, f)
                 for ctor in (fm.Box, fm.Heart, fm.Diamond)
                 for d in ("ab", "ba")
                 for f in layer]
        family += layer
    return tuple(family)


@cache
def theorem22_program() -> tuple[tuple, tuple[int, ...]]:
    """The bounded formula family, compiled once, over the atom p."""
    ops, slots = pg.compile_program(bounded_formula_family(), "nwf", atoms=("p",))
    return tuple(ops), tuple(slots)


@dataclass(frozen=True)
class TheoremViolation:
    state: str
    formula: str
    detail: str


def is_special(frame: pg.Frame, ure, w: int):
    """Is node w a Quine state or an urelement (``ure`` masks the urelements)?"""
    return (ure >> w & 1 == 1) | (frame.rows[w] == 1 << w)


def theorem22_faults(frame: pg.Frame, w: int, body):
    """Theorem 2.2 at node w for one body extension, on one model or numpy
    lanes: (w assumes the body iff w satisfies it, w fails to believe it).
    Both must be false wherever w is special.  A constant body is a Python
    int, so it is never complemented: ``~`` of an int is negative, which
    no unsigned lane can hold.  The types may be per-lane masks."""
    in_a = frame.ua >> w & 1  # the target type: Ub from an Ua node, else Ua
    tgt = in_a * frame.ub | (in_a ^ 1) * frame.ua
    need = frame.rows[w] & tgt
    assumes = body & (frame.rows[w] | 1 << w) == need
    return assumes == (body >> w & 1 == 1), need & body != need


def check_theorem_2_2(m: HypersetModel) -> list[TheoremViolation]:
    """Quine/urelement states assume exactly what they falsify and believe everything.

    Requires disjoint type spaces.  Returns the violations found over the
    formula family (expected empty).
    """
    if not m.disjoint_types or (m.ua & m.ub):
        raise ValueError("the assumption-of-falsehoods check requires "
                         "disjoint type spaces")
    formulas = bounded_formula_family()
    names, frame = to_frame(m)
    ops, slots = theorem22_program()
    vals = pg.run(ops, frame)
    ure = pg.masker(names)(m.urelements)
    violations = []
    for w, name in enumerate(names):
        if not is_special(frame, ure, w):
            continue
        for f, slot in zip(formulas, slots):
            body = vals[slot]
            wrong_assumption, belief_fails = theorem22_faults(frame, w, body)
            holds = bool(body >> w & 1)
            if wrong_assumption:
                violations.append(TheoremViolation(
                    state=name, formula=fm.to_text(f),
                    detail=f"assumes={holds} but holds={holds}"))
            if belief_fails:
                violations.append(TheoremViolation(
                    state=name, formula=fm.to_text(f), detail="belief fails"))
    return violations


#: Theorem 2.3 reads the assumption of true in both directions.
TRUE_ASSUMPTIONS = (("ab", fm.Heart("ab", fm.Top())), ("ba", fm.Heart("ba", fm.Top())))


def theorem23_fault(frame: pg.Frame, w: int, assumed):
    """Is node w a Quine state that assumes true (``assumed``: the extension
    of H true in one direction) outside Ua & Ub?  One model or numpy lanes."""
    return ((frame.rows[w] == 1 << w) & (assumed >> w & 1 == 1)
            & (frame.ua >> w & frame.ub >> w & 1 == 0))


@cache
def theorem23_program() -> tuple[tuple, tuple[int, ...]]:
    """The assumption of true in both directions, compiled once."""
    ops, slots = pg.compile_program([f for _, f in TRUE_ASSUMPTIONS], "nwf", atoms=())
    return tuple(ops), tuple(slots)


def check_theorem_2_3(m: HypersetModel) -> list[TheoremViolation]:
    """Quine states with a true assumption must sit in both type spaces."""
    names, frame = to_frame(m)
    ops, slots = theorem23_program()
    vals = pg.run(ops, frame)
    return [TheoremViolation(state=name, formula=f"H{direction} true",
                             detail="true assumption outside Ua & Ub")
            for w, name in enumerate(names)
            for (direction, _), slot in zip(TRUE_ASSUMPTIONS, slots)
            if theorem23_fault(frame, w, vals[slot])]


CLAIMED_VALID = ("[ab] Ub <-> Ua", "[ba] Ua <-> Ub",
                 "[ab] Ua <-> false", "[ba] Ub <-> false")
CLAIMED_INVALID = ("[ab] Ub -> Ub", "[ab] Ub -> [ba] [ab] Ub",
                   "[ab] Ub -> [ab] [ab] Ub")
#: (text, claimed valid?) in report order.
VALIDITY_CLAIMS = (tuple((text, True) for text in CLAIMED_VALID)
                   + tuple((text, False) for text in CLAIMED_INVALID))


@dataclass(frozen=True)
class ValidityVerdict:
    formula: str
    claimed_valid: bool
    holds: bool
    failing_states: tuple


@cache
def validity_program() -> tuple[tuple, tuple[int, ...]]:
    ops, slots = pg.compile_program([fm.parse(text) for text, _ in VALIDITY_CLAIMS],
                                    "nwf", atoms=())
    return tuple(ops), tuple(slots)


def validity_failures(vals: list, slots: Sequence[int], full) -> list:
    """Per entry of VALIDITY_CLAIMS, the mask of states where its formula
    fails, for one model or numpy lanes."""
    return [vals[i] ^ full for i in slots]


def check_validity_lists(m: HypersetModel) -> tuple[ValidityVerdict, ...]:
    """Evaluate the claimed-valid and claimed-invalid formulas on one model."""
    names, frame = to_frame(m)
    ops, slots = validity_program()
    failures = validity_failures(pg.run(ops, frame), slots, (1 << frame.k) - 1)
    return tuple(
        ValidityVerdict(formula=text, claimed_valid=claimed, holds=not failing,
                        failing_states=tuple(sorted(pg.names_of(names, failing))))
        for (text, claimed), failing in zip(VALIDITY_CLAIMS, failures))


def graph_to_structure(nodes: Iterable[str], edges: Iterable[tuple[str, str]],
                       root: str, types: Mapping[str, str],
                       leaf_kind: str = "urelement") -> HypersetModel:
    """Read a rooted connected digraph as a belief structure.

    Each edge parent -> child makes the child a member of the parent.
    Sink nodes become urelements (game end states) unless ``leaf_kind``
    is "empty_set".  ``types`` gives each node its type space, "a" or "b".
    """
    nodes = sorted(set(nodes))
    edges = sorted({(str(a), str(b)) for a, b in edges})
    if leaf_kind not in ("urelement", "empty_set"):
        raise ValueError(f"unknown leaf kind {leaf_kind!r}")
    out: dict[str, set] = {n: set() for n in nodes}
    for a, b in edges:
        if a not in out or b not in out:
            raise ValueError(f"edge ({a}, {b}) uses unknown nodes")
        out[a].add(b)
    if root not in out:
        raise ValueError(f"unknown root {root!r}")
    for n in nodes:
        if n not in types:
            raise ValueError(f"node {n!r} has no type")
        if types[n] not in ("a", "b"):
            raise ValueError(f"node {n!r} has type {types[n]!r}, not 'a' or 'b'")
    seen = {root}
    stack = [root]
    while stack:
        for child in out[stack.pop()]:
            if child not in seen:
                seen.add(child)
                stack.append(child)
    if seen != set(nodes):
        raise ValueError(f"graph is not connected from {root!r}: "
                         f"unreachable {sorted(set(nodes) - seen)}")
    urelements = [n for n in nodes if not out[n]] if leaf_kind == "urelement" else []
    return HypersetModel(
        nodes=nodes, mem=edges,
        ua=[n for n in nodes if types[n] == "a"],
        ub=[n for n in nodes if types[n] == "b"],
        urelements=urelements,
    )
