"""Line-based model files for the three model kinds.

A file starts with a header line (``kripke``, ``nwf`` or ``paratopo``),
followed by ``key: values`` declarations, ``val atom: states`` valuations
and one-word flags; ``_SCHEMA`` lists each kind's required and optional
declarations and its flags.  ``#`` starts a comment, identifiers are
whitespace-separated, arrows write pairs (``x->y``), braces write sets
(``{x y}``).  Repeats (and a source named twice in ``tA`` or ``tB``),
a ``tA`` or ``tB`` source outside its carrier, missing declarations,
unknown flags and unknown declarations are errors.
A format error names its line, a flag's included (a missing declaration
is ``line 0``); a fault found by the model constructor names the header.
"""

from __future__ import annotations

import re

from . import formula as fm
from .hyperset import HypersetModel
from .kripke import KripkeModel
from .paratopo import ParaTopoModel
from .topology import ClosedTopology

_IDENT = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


class ModelFormatError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _logical_lines(text: str) -> list[tuple[int, str]]:
    lines = []
    for number, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            lines.append((number, body))
    return lines


def _once(items: list, number: int, show) -> list:
    """The items, unless one is repeated: then a fault of line ``number``."""
    if len(set(items)) < len(items):
        repeat = next(item for i, item in enumerate(items) if items.index(item) < i)
        raise ModelFormatError(f"{show(repeat)} is repeated", number)
    return items


def _idents(value: str, number: int) -> list[str]:
    names = value.split()
    for name in names:
        if not _IDENT.match(name):
            raise ModelFormatError(f"bad identifier {name!r}", number)
    return _once(names, number, lambda name: f"name {name!r}")


def _pairs(value: str, number: int) -> list[tuple[str, str]]:
    pairs = []
    for chunk in value.split():
        if "->" not in chunk:
            raise ModelFormatError(f"expected 'x->y', got {chunk!r}", number)
        left, _, right = chunk.partition("->")
        for name in (left, right):
            if not _IDENT.match(name):
                raise ModelFormatError(f"bad identifier {name!r}", number)
        pairs.append((left, right))
    return _once(pairs, number, lambda pair: f"pair {'->'.join(pair)}")


def _brace_sets(value: str, number: int) -> list[frozenset]:
    sets = []
    rest = value
    while rest.strip():
        rest = rest.lstrip()
        if not rest.startswith("{"):
            raise ModelFormatError(f"expected a brace set, got {rest!r}", number)
        end = rest.find("}")
        if end < 0:
            raise ModelFormatError("unterminated brace set", number)
        sets.append(frozenset(_idents(rest[1:end], number)))
        rest = rest[end + 1:]
    return _once(sets, number, lambda c: f"set {{{' '.join(sorted(c))}}}")


def _image_pairs(carrier: frozenset, side: str):
    """The parser of a ``tA`` or ``tB`` declaration into (source, target)
    pairs.  A source outside ``carrier``, the carrier named ``side``, is a
    fault of the declaration's line, also when its image is empty."""
    def parse(value: str, number: int) -> list[tuple[str, str]]:
        entries = []
        for chunk in re.findall(r"\S+->\{[^}]*\}", value):
            source, _, braced = chunk.partition("->")
            if not _IDENT.match(source):
                raise ModelFormatError(f"bad identifier {source!r}", number)
            if any(source == seen for seen, _ in entries):
                raise ModelFormatError(f"source {source!r} is given twice", number)
            if source not in carrier:
                raise ModelFormatError(f"source {source!r} is not in {side}", number)
            entries.append((source, _brace_sets(braced, number)[0]))
        leftovers = re.sub(r"\S+->\{[^}]*\}", "", value).strip()
        if leftovers:
            raise ModelFormatError(f"expected 'x->{{...}}' entries, got {leftovers!r}", number)
        return [(source, target) for source, image in entries for target in sorted(image)]
    return parse


# header -> (required declarations, optional declarations, flags)
_SCHEMA = {
    "kripke": (("states", "Ua", "Ub"), ("P",), ("non-strict",)),
    "nwf": (("states", "Ua", "Ub"), ("mem", "urelements"), ("allow-overlap",)),
    "paratopo": (("A", "B", "closedA", "closedB"), ("tA", "tB"), ()),
}


def _read(header: str, lines: list[tuple[int, str]]):
    """Check the declarations against the header's schema in one scan and
    return ``(field, flags)``: ``field(key, parse)`` parses a declaration,
    an absent one as empty, and ``field("val")`` the valuations by atom."""
    required, optional, known_flags = _SCHEMA[header]
    decls, flags, val = {}, {}, {}  # key or atom -> (value, line); flag -> line
    for number, line in lines:
        key, colon, value = line.partition(":")
        key, value = key.strip(), value.strip()
        if not colon:
            if line in flags:
                raise ModelFormatError(f"duplicate flag {line!r}", number)
            flags[line] = number
        elif key.startswith("val "):
            atom = key[4:].strip()
            if not _IDENT.match(atom):
                raise ModelFormatError(f"bad atom name {atom!r}", number)
            if atom in fm.RESERVED_WORDS:
                raise ModelFormatError(f"atom name {atom!r} is reserved", number)
            if atom in val:
                raise ModelFormatError(f"duplicate valuation for {atom!r}", number)
            val[atom] = (value, number)
        elif key in decls:
            raise ModelFormatError(f"duplicate declaration {key!r}", number)
        else:
            decls[key] = (value, number)
    for key in required:
        if key not in decls:
            raise ModelFormatError(f"missing declaration {key!r}", 0)
    for flag, number in flags.items():
        if flag not in known_flags:
            raise ModelFormatError(f"unknown flag {flag!r}", number)
    for key, (_, number) in decls.items():
        if key not in required + optional:
            raise ModelFormatError(f"unknown declaration {key!r} in a {header} file", number)

    def field(key: str, parse=_idents):
        if key == "val":
            return {atom: _idents(*val[atom]) for atom in sorted(val)}
        return parse(*decls.get(key, ("", 0)))
    return field, flags


def load_model(text: str) -> KripkeModel | HypersetModel | ParaTopoModel:
    lines = _logical_lines(text)
    if not lines:
        raise ModelFormatError("empty model file", 0)
    number, header = lines[0]
    loader = {"kripke": _load_kripke, "nwf": _load_nwf, "paratopo": _load_paratopo}.get(header)
    if loader is None:
        raise ModelFormatError(f"unknown model header {header!r}", number)
    field, flags = _read(header, lines[1:])
    try:
        return loader(field, flags)
    except ModelFormatError:
        raise
    except ValueError as exc:
        raise ModelFormatError(str(exc), number) from exc


# the loaders parse in argument order, valuations last: that order picks
# the fault reported for a file with several
def _load_kripke(field, flags) -> KripkeModel:
    return KripkeModel(states=field("states"), rel=field("P", _pairs), ua=field("Ua"),
                       ub=field("Ub"), val=field("val"), strict="non-strict" not in flags)


def _load_nwf(field, flags) -> HypersetModel:
    return HypersetModel(nodes=field("states"), mem=field("mem", _pairs), ua=field("Ua"),
                         ub=field("Ub"), urelements=field("urelements"), val=field("val"),
                         disjoint_types="allow-overlap" not in flags)


def _load_paratopo(field, flags) -> ParaTopoModel:
    tau_a = ClosedTopology.make(field("A"), field("closedA", _brace_sets))
    tau_b = ClosedTopology.make(field("B"), field("closedB", _brace_sets))
    return ParaTopoModel(tau_a, tau_b, field("tA", _image_pairs(tau_a.carrier, "A")),
                         field("tB", _image_pairs(tau_b.carrier, "B")), val=field("val"))


def _dump_val(val: dict) -> list[str]:
    return [f"val {name}: {' '.join(sorted(states))}"
            for name, states in sorted(val.items())]


def dump_kripke(m: KripkeModel) -> str:
    lines = [
        "kripke",
        f"states: {' '.join(sorted(m.states))}",
        f"Ua: {' '.join(sorted(m.ua))}",
        f"Ub: {' '.join(sorted(m.ub))}",
        "P: " + " ".join(f"{x}->{y}" for x, y in sorted(m.rel)) if m.rel else "P:",
    ]
    if not m.strict:
        lines.append("non-strict")
    lines += _dump_val(m.val)
    return "\n".join(line.rstrip() for line in lines) + "\n"


def dump_nwf(m: HypersetModel) -> str:
    lines = [
        "nwf",
        f"states: {' '.join(sorted(m.nodes))}",
    ]
    if m.urelements:
        lines.append(f"urelements: {' '.join(sorted(m.urelements))}")
    lines.append(f"mem: {' '.join(f'{w}->{v}' for w, v in sorted(m.mem))}" if m.mem
                 else "mem:")
    lines.append(f"Ua: {' '.join(sorted(m.ua))}")
    lines.append(f"Ub: {' '.join(sorted(m.ub))}")
    if not m.disjoint_types:
        lines.append("allow-overlap")
    lines += _dump_val(m.val)
    return "\n".join(line.rstrip() for line in lines) + "\n"


def _dump_family(closed) -> str:
    parts = []
    for c in sorted(closed, key=lambda s: (len(s), tuple(sorted(s)))):
        parts.append("{" + " ".join(sorted(c)) + "}")
    return " ".join(parts)


def dump_paratopo(m: ParaTopoModel) -> str:
    lines = [
        "paratopo",
        f"A: {' '.join(sorted(m.a))}",
        f"B: {' '.join(sorted(m.b))}",
        f"closedA: {_dump_family(m.tau_a.closed)}",
        f"closedB: {_dump_family(m.tau_b.closed)}",
        "tA: " + " ".join(f"{x}->{{{' '.join(sorted(m.image_a[x]))}}}"
                          for x in sorted(m.a)),
        "tB: " + " ".join(f"{y}->{{{' '.join(sorted(m.image_b[y]))}}}"
                          for y in sorted(m.b)),
    ]
    lines += _dump_val(m.val)
    return "\n".join(line.rstrip() for line in lines) + "\n"


def dump_model(m) -> str:
    if isinstance(m, KripkeModel):
        return dump_kripke(m)
    if isinstance(m, HypersetModel):
        return dump_nwf(m)
    if isinstance(m, ParaTopoModel):
        return dump_paratopo(m)
    raise TypeError(f"not a model: {m!r}")
