"""Finite-model verification workbench for interactive belief structures.

Three semantics live side by side: classical belief frames (`kripke`),
belief models over finite membership graphs (`hyperset`), and
paraconsistent closed-set topological belief models (`paratopo`), with a
shared formula language (`formula`), one compiled program and mask
evaluator for all three (`program`), co-Heyting lattice machinery
(`topology`), finite diagonal fixed-point checks (`lawvere`), and an
enumeration/campaign layer (`harness`).
"""

from .formula import (Formula, LanguageError, ParseError, modal_depth, parse,
                      to_text)
from .harness import (Campaign, CampaignReport, enumerate_hypersets,
                      enumerate_kripke, run_campaign, verify_fixtures)
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

__all__ = [name for name in dir() if not name.startswith("_")]
