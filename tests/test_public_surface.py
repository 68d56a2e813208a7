import importlib
import pkgutil

import pytest

import qmod
from qmod.surface import PlaneSystem

# Entry points removed from the package; none of them may come back
# through a re-export or a module attribute.
REMOVED = [
    "base_locus_evidence", "BaseLocusItem", "BaseLocusReport", "_extra_point_item",
    "_common_factor_item", "_resultant_item", "_one_resultant",
    "separation_evidence", "SeparationReport", "surface_i2",
    "cone_quadric", "project_quadric", "run_all",
    # Per-rank duplicates: one constructor and one sampler serve both strata.
    "rank3_from_decomposition", "rank4_from_decomposition",
    "random_rank3_decomposition", "random_rank4_decomposition",
    # The redraw wrapper: a seed's report is about the seed's own draw.
    "blowup_verify",
    # The genus-5 net's line test, root scan and rank probes: one exact
    # certificate, ternary.no_common_zero, replaces them.
    "_random_line_squarefree", "_singular_candidates", "_net_rank_at",
    # Test-only: no production path combines quadrics.
    "linear_combination",
]
MODULES = sorted(m.name for m in pkgutil.iter_modules(qmod.__path__))


def test_every_exported_name_resolves():
    assert [name for name in qmod.__all__ if not hasattr(qmod, name)] == []


def test_exports_are_listed_once():
    assert len(qmod.__all__) == len(set(qmod.__all__))


@pytest.mark.parametrize("module", ["qmod"] + [f"qmod.{m}" for m in MODULES])
def test_removed_names_stay_removed(module):
    mod = importlib.import_module(module)
    assert [name for name in REMOVED if hasattr(mod, name)] == []


def test_plane_system_keeps_no_evidence_methods():
    assert not hasattr(PlaneSystem, "impose_point")
    assert not hasattr(PlaneSystem, "random_member")
