import importlib
import pkgutil
import sys

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


def test_package_root_binds_only_its_modules():
    # Each name is imported from the module that defines it: the root
    # re-exports nothing.
    public = {name: value for name, value in vars(qmod).items() if not name.startswith("_")}
    assert [name for name, value in public.items()
            if value is not sys.modules.get(f"qmod.{name}")] == []


def test_package_root_keeps_no_export_list():
    # pyproject.toml alone states the version.
    assert not any(hasattr(qmod, name) for name in ("__all__", "__version__"))


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
