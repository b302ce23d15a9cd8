"""Finite-model verification workbench for interactive belief structures.

Three semantics live side by side: classical belief frames (`kripke`),
belief models over finite membership graphs (`hyperset`), and
paraconsistent closed-set topological belief models (`paratopo`), with a
shared formula language (`formula`), one compiled program and mask
evaluator for all three (`program`), co-Heyting lattice machinery
(`topology`), finite diagonal fixed-point checks (`lawvere`), and an
enumeration/campaign layer (`harness`).

Only the campaign layer needs numpy.  ``import bkw`` leaves it and numpy
unloaded; they load on the first use of a campaign, enumeration or
fixture name (``bkw.run_campaign``, ``bkw.enumerate_kripke``,
``bkw.verify_fixtures``, ...) or of ``bkw.harness`` itself.
"""

from .formula import (Formula, LanguageError, ParseError, modal_depth, parse,
                      to_text)
from .hyperset import (HypersetModel, bisimilar, canonicalize, classify_state,
                       diagonal_Dplus, graph_to_structure, nwf_extension,
                       nwf_find_holes)
from .kripke import (HoleReport, KripkeModel, check_lemma_1, diagonal_D,
                     extension, find_holes, is_satisfiable, is_valid)
from .lawvere import (FiniteSelfMap, check_fixed_point_property,
                      is_weakly_point_surjective, search_wps)
from .modelio import dump_model, load_model
from .paratopo import (ParaTopoModel, bk_witnesses, diagonal, evaluate,
                       horizontally_closed, is_assumption_complete,
                       is_weak_assumption_complete, vertically_closed)
from .topology import (ClosedTopology, boundary, closure, exponent, ineg,
                       interior, pneg, product, subtraction, validate)

#: The campaign names, read by the command line without loading the harness.
TARGETS = ("lemma1", "theorem12", "theorem22", "theorem23",
           "validity_lists", "adjunction", "boundary_law", "lawvere_scan")

_CAMPAIGN_NAMES = ("Campaign", "CampaignReport", "enumerate_hypersets",
                   "enumerate_kripke", "run_campaign", "verify_fixtures")

__all__ = [
    "Campaign", "CampaignReport", "ClosedTopology", "FiniteSelfMap", "Formula",
    "HoleReport", "HypersetModel", "KripkeModel", "LanguageError",
    "ParaTopoModel", "ParseError", "bisimilar", "bk_witnesses", "boundary",
    "canonicalize", "check_fixed_point_property", "check_lemma_1",
    "classify_state", "closure", "diagonal", "diagonal_D", "diagonal_Dplus",
    "dump_model", "enumerate_hypersets", "enumerate_kripke", "evaluate",
    "exponent", "extension", "find_holes", "formula", "graph_to_structure",
    "harness", "horizontally_closed", "hyperset", "ineg", "interior",
    "is_assumption_complete", "is_satisfiable", "is_valid",
    "is_weak_assumption_complete", "is_weakly_point_surjective", "kripke",
    "lawvere", "load_model", "modal_depth", "modelio", "nwf_extension",
    "nwf_find_holes", "paratopo", "parse", "pneg", "product", "program",
    "run_campaign", "search_wps", "subtraction", "to_text", "topology",
    "validate", "verify_fixtures", "vertically_closed",
]


def __getattr__(name: str):
    """Load the campaign layer, and numpy with it, on first use (PEP 562)."""
    if name != "harness" and name not in _CAMPAIGN_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    harness = import_module(f"{__name__}.harness")
    globals().update((attr, getattr(harness, attr)) for attr in _CAMPAIGN_NAMES)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
