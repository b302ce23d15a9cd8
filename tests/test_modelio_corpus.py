"""Pinned outcomes of ``load_model`` on seeded mutations of model files.

``modelio_corpus.json`` lists about 400 inputs, each with its outcome: the
reloaded model's dump, or the ``ModelFormatError`` text.  The inputs are
mutations of ``test_modelio._DUMPS`` and of the README's three examples.
``python tests/test_modelio_corpus.py`` rewrites the file from the current
code; do that only when an outcome is meant to change.
"""

import json
import random
import sys
from pathlib import Path

from bkw import modelio as mio

CORPUS = Path(__file__).with_name("modelio_corpus.json")

README_EXAMPLES = (
    "kripke\nstates: x y\nUa: x\nUb: y\nP: x->y y->x\nval p: x\n",
    "nwf\nstates: w v u t\nurelements: t\nmem: w->v w->w v->u u->t\nUa: w u\nUb: v t\n"
    "# allow-overlap\n",
    "paratopo\nA: a1 a2\nB: b1 b2\nclosedA: {} {a1} {a1 a2}\nclosedB: {} {b1} {b1 b2}\n"
    "tA: a1->{b1} a2->{b1 b2}\ntB: b1->{a1} b2->{a1 a2}\n",
)
# lines a mutation may insert: flags, declarations known to some kind,
# valuations good and bad, and text that is neither
LINE_POOL = ("foo", "bar", "non-strict", "allow-overlap", "val q: x", "val D: x",
             "val 1p: x", "val p: zz", "val p: a1", "mem: x->x", "urelements: t",
             "urelements: zz", "P: x->y", "tA: a1->{}", "tB: b1->{zz}", "closedA: x",
             "closedB: {} {b1}", "Ua: zz", "states:", "A: a1", "# note", "x y z")
NAME_POOL = ("x", "y", "zz", "a1", "b2", "w", "t", "1x", "Ua", "D")
SYNTAX = "{}-> :#\n\t_xyab12pDU"
CASES_PER_SOURCE = 50


def outcome(text: str) -> str:
    try:
        return mio.dump_model(mio.load_model(text))
    except mio.ModelFormatError as exc:
        return str(exc)


def _mutate(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 4)):
        lines = text.split("\n")
        kind = rng.randrange(6)
        at = rng.randrange(1, len(lines))  # a swap may still move the header
        if kind == 0:  # cut and insert characters below the header
            pos = rng.randrange(len(lines[0]) + 1, len(text) + 1)
            insert = "".join(rng.choice(SYNTAX) for _ in range(rng.randint(0, 4)))
            text = text[:pos] + insert + text[pos + rng.randint(0, 3):]
            continue
        if kind == 1:
            del lines[at]
        elif kind == 2:
            lines.insert(rng.randrange(len(lines) + 1), lines[at])
        elif kind == 3:
            other = rng.randrange(len(lines))
            lines[at], lines[other] = lines[other], lines[at]
        elif kind == 4:
            lines.insert(rng.randrange(1, len(lines) + 1), rng.choice(LINE_POOL))
        else:  # rename one word of a line
            words = lines[at].split(" ")
            words[rng.randrange(len(words))] = rng.choice(NAME_POOL)
            lines[at] = " ".join(words)
        text = "\n".join(lines)
    return text


def generate() -> list[dict]:
    sys.path.insert(0, str(Path(__file__).parent))
    from test_modelio import _DUMPS
    rng = random.Random(17)
    inputs = [_mutate(rng, source) for source in (*_DUMPS, *README_EXAMPLES)
              for _ in range(CASES_PER_SOURCE)]
    return [{"input": text, "outcome": outcome(text)} for text in inputs]


def test_pinned_outcomes():
    cases = json.loads(CORPUS.read_text(encoding="utf-8"))
    assert len(cases) == 8 * CASES_PER_SOURCE
    changed = [case for case in cases if outcome(case["input"]) != case["outcome"]]
    assert not changed, changed[:3]


if __name__ == "__main__":
    CORPUS.write_text(json.dumps(generate(), indent=1) + "\n", encoding="utf-8")
