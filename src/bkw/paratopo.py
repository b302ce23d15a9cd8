"""Paraconsistent topological belief models.

Two disjoint carriers, each with a closed-set topology, linked by
relations whose image sets must be closed in the opposite topology.
Belief holds at a state when its image is contained in the extension;
assumption when the image equals the extension inside the opposite
carrier.  Paraconsistent negation acts per carrier as closure of the
complement, so a formula and its negation overlap on boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import combinations, product as iproduct
from typing import Iterable, Mapping

from . import formula as fm
from . import program as pg
from . import topology as tp


class ParaTopoModel:
    def __init__(self, tau_a: tp.ClosedTopology, tau_b: tp.ClosedTopology,
                 t_a: Iterable[tuple[str, str]], t_b: Iterable[tuple[str, str]],
                 val: Mapping[str, Iterable[str]] | None = None):
        self.tau_a = tau_a
        self.tau_b = tau_b
        self.a = tau_a.carrier
        self.b = tau_b.carrier
        self.t_a = frozenset((str(x), str(y)) for x, y in t_a)
        self.t_b = frozenset((str(y), str(x)) for y, x in t_b)
        self.val = {name: frozenset(sts) for name, sts in (val or {}).items()}
        self.image_a = {x: frozenset(y for (w, y) in self.t_a if w == x) for x in self.a}
        self.image_b = {y: frozenset(x for (w, x) in self.t_b if w == y) for y in self.b}
        self._validate()

    def _validate(self) -> None:
        if self.a & self.b:
            raise ValueError(f"carriers overlap on {sorted(self.a & self.b)}")
        for side, t in (("A", self.tau_a), ("B", self.tau_b)):
            for problem in tp.validate(t)[:1]:
                raise ValueError(f"the {side} family is not a topology: {problem}")
        for x, y in sorted(self.t_a):  # the first bad pair, whatever the hash seed
            if x not in self.a or y not in self.b:
                raise ValueError(f"tA pair ({x}, {y}) is outside A x B")
        for y, x in sorted(self.t_b):
            if y not in self.b or x not in self.a:
                raise ValueError(f"tB pair ({y}, {x}) is outside B x A")
        for x in sorted(self.a):
            if self.image_a[x] not in self.tau_b.closed:
                raise ValueError(f"image tA({x}) = {sorted(self.image_a[x])} "
                                 "is not closed in the B topology")
        for y in sorted(self.b):
            if self.image_b[y] not in self.tau_a.closed:
                raise ValueError(f"image tB({y}) = {sorted(self.image_b[y])} "
                                 "is not closed in the A topology")
        universe = self.a | self.b
        for name, sts in self.val.items():
            if not sts <= universe:
                raise ValueError(f"valuation of {name!r} uses unknown states")

    @property
    def universe(self) -> frozenset:
        return self.a | self.b

    def __repr__(self) -> str:
        return f"ParaTopoModel(A={sorted(self.a)}, B={sorted(self.b)})"


def with_discrete_topologies(m: ParaTopoModel) -> ParaTopoModel:
    """Same carriers, relations and valuation under discrete topologies."""
    return ParaTopoModel(tp.discrete(m.a), tp.discrete(m.b), m.t_a,
                         [(y, x) for (y, x) in m.t_b], m.val)


def diagonal(m: ParaTopoModel) -> frozenset:
    """States of A whose believed-possible states all negate the return belief.

    The return belief tB(y) is negated paraconsistently, i.e. x must lie
    in the closure of the complement of tB(y).
    """
    return evaluate(m, fm.Dtopo())


def to_frame(m: ParaTopoModel) -> tuple[list[str], pg.Frame]:
    """The model as an evaluator frame over A's points, then B's, with the
    ``local`` heart rule and, for ``~`` and ``Dt``, the closure of the
    complement under both topologies' hull masks as its negation."""
    names = [*m.tau_a.points, *m.tau_b.points]
    hulls = m.tau_a.hulls + tuple(h << len(m.tau_a.points) for h in m.tau_b.hulls)
    neg = tp.MaskLattice(partial(tp.hull_union, hulls), (1 << len(names)) - 1).pneg
    return names, pg.model_frame(
        names, m.a, m.b, [m.image_a[x] if x in m.a else m.image_b[x] for x in names],
        m.val, "local", neg)


def evaluate(m: ParaTopoModel, f: fm.Formula) -> frozenset:
    """Extension of a topological-language formula over both carriers."""
    return pg.extension(f, "topo", *to_frame(m))


_BK_SENTENCE = fm.parse("Ba Xb Dt & Ea true")


def bk_witnesses(m: ParaTopoModel) -> frozenset:
    """States of A satisfying the self-referential belief sentence.

    The witness believes that the other player assumes the diagonal, and
    has at least one believed-possible state.
    """
    return evaluate(m, _BK_SENTENCE)


def _slices_closed(t: tp.ClosedTopology, pairs: Iterable[tuple]) -> bool:
    """Is each slice {p : (key, p) in pairs} a closed set of t?"""
    slices: dict = {}
    for key, p in pairs:
        if p not in t.carrier:
            return False
        slices[key] = slices.get(key, 0) | 1 << t.points.index(p)
    return all(tp.hull_union(t.hulls, s) == s for s in slices.values())


def horizontally_closed(m: ParaTopoModel, s: Iterable[tuple[str, str]]) -> bool:
    """Every point of s extends to a closed A-slice inside s: each
    A-slice {x : (x, y) in s} is closed in the A topology."""
    return _slices_closed(m.tau_a, ((y, x) for x, y in s))


def vertically_closed(m: ParaTopoModel, s: Iterable[tuple[str, str]]) -> bool:
    """Every point of s extends to a closed B-slice inside s: each
    B-slice {y : (x, y) in s} is closed in the B topology."""
    return _slices_closed(m.tau_b, s)


def _nonempty_subsets(points: Iterable) -> list[frozenset]:
    points = sorted(points)
    out = []
    for size in range(1, len(points) + 1):
        for combo in combinations(points, size):
            out.append(frozenset(combo))
    return out


@dataclass(frozen=True)
class AssumptionReport:
    complete: bool
    missing_subsets_of_b: tuple
    missing_subsets_of_a: tuple


def is_assumption_complete(m: ParaTopoModel) -> AssumptionReport:
    """Is every nonempty subset of each carrier assumed by some opposite state?"""
    if len(m.a) > 16 or len(m.b) > 16:
        raise ValueError("carriers too large for subset enumeration")
    assumed_by_a = {m.image_a[x] for x in m.a}
    assumed_by_b = {m.image_b[y] for y in m.b}
    missing_b = tuple(tuple(sorted(s)) for s in _nonempty_subsets(m.b)
                      if s not in assumed_by_a)
    missing_a = tuple(tuple(sorted(s)) for s in _nonempty_subsets(m.a)
                      if s not in assumed_by_b)
    return AssumptionReport(
        complete=not missing_b and not missing_a,
        missing_subsets_of_b=missing_b,
        missing_subsets_of_a=missing_a)


@dataclass(frozen=True)
class WeakAssumptionReport:
    holds: bool
    failing_set: tuple | None
    subsets_checked: int


def is_weak_assumption_complete(m: ParaTopoModel) -> WeakAssumptionReport:
    """Is every product subset horizontally and vertically closed, the
    premise of weak assumption-completeness?  Slices of a product set are
    unions of its cells' singleton slices, so the model is weak
    assumption-complete if and only if both topologies are discrete.  The
    report is that of a search by subset mask: its first failure is the
    singleton of the first cell whose {x} or {y} is not closed."""
    pa, pb = m.tau_a.points, m.tau_b.points
    cells = list(iproduct(range(len(pa)), range(len(pb))))
    for j, (i, k) in enumerate(cells):
        if m.tau_a.hulls[i] != 1 << i or m.tau_b.hulls[k] != 1 << k:
            return WeakAssumptionReport(holds=False, failing_set=((pa[i], pb[k]),),
                                        subsets_checked=2 ** j + 1)
    return WeakAssumptionReport(holds=True, failing_set=None, subsets_checked=2 ** len(cells))
