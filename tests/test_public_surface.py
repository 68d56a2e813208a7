import importlib
import pkgutil

import pytest

import qmod
from qmod import cli
from qmod.binforms import Form
from qmod.picard import Coefficient, DivisorClass
from qmod.quadlab import ParamCurve
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
    # The synthetic-division re-check: a test oracle now (kernel_oracles).
    "_taylor",
    # One kernel entry, linalg.rows_kernel, picks the elimination, and one
    # pair-row builder serves both fields; Matrix.rref keeps one loop.
    "packed_kernel_basis", "_rref_packed", "_packed_pair_rows", "_pair_product_rows",
    # One slot-width rule: each packed kernel takes linalg.slot_width of
    # the largest value its slots reach.
    "packed_width", "_slot_width",
    # One discriminant entry: form_matrix_det takes the quadric family itself.
    "_linear_family_det", "pencil_discriminant",
    # One weighted sum of forms: Form.combination.
    "combine",
    # adjusted_rho validates its ramification list itself.
    "RamificationSequence",
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


def test_param_curve_keeps_no_monomial_basis_test():
    # bounded_rank_quadric reads its size off the decomposition; the curve
    # it once took only to test for the monomial basis is gone.
    assert not hasattr(ParamCurve, "is_monomial_basis")


def test_algebra_classes_keep_one_spelling_per_operation():
    # Form.combination is the one weighted sum; the keyword constructor,
    # add and scale are the one spelling of each divisor-class operation.
    assert not any(hasattr(Form, name) for name in ("add", "scale"))
    assert not any(hasattr(DivisorClass, name) for name in ("build", "__add__", "__rmul__"))
    assert not hasattr(Coefficient, "__add__")


def test_cli_declares_each_subcommand_once():
    # build_parser sets each handler where it declares the subcommand, and
    # --repeat reads through the one capped-int type.
    assert not any(hasattr(cli, name) for name in ("HANDLERS", "_positive_int"))
