"""What the traced pass wraps, and the per-layer metrics computed from it.

``install_spans`` and ``install_counters`` run inside a worker and need
``qmod``; everything else works on the span table alone, so the driver
can compute metrics without importing the program.
"""

# Span targets per layer module: module-level functions by name, methods
# as "Class.method".  Fields are not spanned (tens of millions of calls);
# the counting pass covers them.
SPAN_TARGETS = {
    "linalg": ["Matrix.rref", "Matrix.det", "Matrix.kernel_basis", "Matrix.rank",
               "Matrix.solve"],
    "unipoly": ["pow_mod", "rational_roots", "resultant", "resultant_fixed",
                "resultant_prs", "interpolate", "squarefree_test"],
    "binforms": ["BinaryForm.mul", "BinaryForm.squarefree", "binary_gcd"],
    "ternary": ["TernaryForm.evaluate", "TernaryForm.mul", "TernaryForm.partial",
                "TernaryForm.restrict_to_line"],
    "quadlab": ["form_matrix_det", "net_discriminant", "family_dimension",
                "secant_condition", "i2_basis", "genus4_check", "genus5_net_check"],
    "picard": ["z_class_15_9", "fr_sigma_class", "fr_dp_class",
               "general_type_certificate", "solve_certificate_multipliers",
               "quad_class", "quad_class_unscaled", "canonical_class"],
    "surface": ["blowup_report", "PointConfig.sample", "interpolation_basis",
                "pencil_nondegeneracy"],
    "invariants": ["expected_dim_q", "brill_noether_rho", "adjusted_rho",
                   "harris_tu_degree", "enumerate_quad_cases", "fiber_dim_identity"],
    "cli": ["main"],
}

# Field methods the counting pass counts.  Division counts once as div and
# once as the inv it calls.
FIELD_METHODS = ("add", "sub", "mul", "neg", "inv", "div", "is_zero", "coerce",
                 "from_rational")

# Checks whose time is a figure of ``verify-all``; measured in every pass
# by timing the entries of ``verify.CHECKS`` (nine spans a pass).
CHECK_METRICS = ("09-surface", "08-canonical-curves", "06-quadric-lab", "05-certificate")
# Command groups whose summed time is a figure of one workload.
CMD_METRICS = {"certificate": "divisor", "z-class": "divisor", "quad-class": "divisor",
               "genus5-net": "curves", "family": "curves", "rnc-i2-rational": "curves"}


def workload_figures(workload, passes) -> dict:
    """Per-pass seconds of every check.* and cmd.* figure of ``workload``."""
    out = {}
    if workload == "verify-all":
        for key in CHECK_METRICS:
            out[f"check.{key}_s"] = [p["checks"][key] for p in passes]
    for group, owner in CMD_METRICS.items():
        if owner == workload:
            out[f"cmd.{group}_s"] = [sum(c["seconds"] for c in p["commands"]
                                         if c["group"] == group) for p in passes]
    return out


def figure_names() -> list:
    return ([f"check.{key}_s" for key in CHECK_METRICS]
            + [f"cmd.{group}_s" for group in CMD_METRICS])

# Layer -> the workload that exercises it (every metric of the layer must
# record work there), the end-to-end figures it should move, the guard
# figures that must not get worse, and the workload that bypasses it
# (every metric exactly 0 there).
LAYER_MAP = {
    "fields": {
        "metrics": ["fields.fp_ops", "fields.fp_inv", "fields.qq_ops"],
        "exercised_on": "verify-all",
        "moves": ["verify-all: wall_s", "verify-all: check.09-surface_s"],
        "guard": [], "bypassed_on": "divisor"},
    "linalg": {
        "metrics": ["linalg.rref_fp_large_s", "linalg.rref_fp_large_calls",
                    "linalg.rref_fp_small_s", "linalg.rref_fp_small_calls",
                    "linalg.det_fp_s", "linalg.det_fp_calls", "linalg.rref_qq_s",
                    "linalg.cells"],
        "exercised_on": "verify-all",
        "moves": ["verify-all: check.09-surface_s", "verify-all: check.06-quadric-lab_s"],
        "guard": ["curves: cmd.genus5-net_s", "curves: cmd.family_s",
                  "curves: cmd.rnc-i2-rational_s"],
        "bypassed_on": "divisor"},
    "unipoly": {
        "metrics": ["unipoly.pow_mod_s", "unipoly.pow_mod_calls", "unipoly.rational_roots_s",
                    "unipoly.resultant_s", "unipoly.interpolate_s"],
        "exercised_on": "curves",
        "moves": ["curves: cmd.genus5-net_s", "verify-all: check.08-canonical-curves_s"],
        "guard": [], "bypassed_on": "divisor"},
    "binforms": {
        "metrics": ["binforms.mul_s", "binforms.mul_calls", "binforms.squarefree_s"],
        "exercised_on": "verify-all",
        "moves": ["verify-all: check.06-quadric-lab_s",
                  "verify-all: check.08-canonical-curves_s", "curves: cmd.genus5-net_s"],
        "guard": [], "bypassed_on": "divisor"},
    "ternary": {
        "metrics": ["ternary.evaluate_s", "ternary.evaluate_calls", "ternary.mul_s",
                    "ternary.mul_calls", "ternary.partial_s"],
        "exercised_on": "verify-all",
        "moves": ["verify-all: check.09-surface_s", "curves: cmd.genus5-net_s"],
        "guard": [], "bypassed_on": "divisor"},
    "quadlab": {
        "metrics": ["quadlab.form_matrix_det_s", "quadlab.family_dimension_s",
                    "quadlab.secant_condition_s", "quadlab.i2_basis_s",
                    "quadlab.genus4_check_s", "quadlab.genus5_net_check_s",
                    "quadlab.genus5_attempts_ratio"],
        "exercised_on": "curves",
        "moves": ["curves: cmd.genus5-net_s", "curves: cmd.family_s",
                  "curves: cmd.rnc-i2-rational_s", "verify-all: check.06-quadric-lab_s",
                  "verify-all: check.08-canonical-curves_s"],
        "guard": [], "bypassed_on": "divisor"},
    "picard": {
        "metrics": ["picard.z_class_s", "picard.z_class_calls", "picard.fr_sigma_class_s",
                    "picard.certificate_s"],
        "exercised_on": "divisor",
        "moves": ["divisor: cmd.z-class_s", "divisor: cmd.certificate_s",
                  "divisor: cmd.quad-class_s", "verify-all: check.05-certificate_s"],
        "guard": [], "bypassed_on": "curves"},
    "surface": {
        "metrics": ["surface.blowup_report_s", "surface.interpolation_basis_s",
                    "surface.pencil_nondegeneracy_s", "surface.i2_stage_s",
                    "surface.pass_ratio"],
        "exercised_on": "verify-all",
        "moves": ["verify-all: check.09-surface_s"],
        "guard": [], "bypassed_on": "divisor"},
    "verify": {
        "metrics": ["verify.01-identities_s", "verify.02-harris-tu_s",
                    "verify.03-closed-forms_s", "verify.07-secant_s"],
        "exercised_on": "verify-all",
        "moves": ["verify-all: wall_s"],
        "guard": [], "bypassed_on": "divisor"},
    "cli": {
        "metrics": ["invariants.total_s", "cli.overhead_s", "cli.commands"],
        "exercised_on": "divisor",
        "moves": ["divisor: wall_s"],
        "guard": [], "bypassed_on": None},
}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def _matrix_tag(args, result):
    m = args[0]
    return ["qq" if m.field.char == 0 else "fp", m.rows * m.cols]


# Spans that record what the call worked on or what it returned.
TAGS = {
    "linalg.Matrix.rref": _matrix_tag,
    "linalg.Matrix.det": _matrix_tag,
    "quadlab.genus5_net_check": lambda args, rep: rep.attempts,
    "surface.blowup_report": lambda args, rep: rep.passed,
}


def install_spans(tracer):
    """Wrap every target, and every ``verify.CHECKS`` entry, in ``tracer``."""
    import importlib

    from tracer import patch_function, patch_method

    for layer, targets in SPAN_TARGETS.items():
        mod = importlib.import_module("qmod." + layer)
        for target in targets:
            name = f"{layer}.{target}"

            def wrapper_for(fn, name=name):
                return tracer.wrap(name, fn, TAGS.get(name))

            if "." in target:
                cls, meth = target.split(".")
                patch_method(getattr(mod, cls), meth, wrapper_for)
            else:
                patch_function(mod, target, wrapper_for)
    install_check_spans(tracer)


def install_check_spans(tracer):
    """Wrap the entries of the ``verify.CHECKS`` dispatch table."""
    from qmod import verify

    for key, fn in list(verify.CHECKS.items()):
        verify.CHECKS[key] = tracer.wrap("verify." + key, fn)


def install_counters(counter):
    from qmod.fields import PrimeField, RationalField

    from tracer import patch_method

    for prefix, cls in (("fp", PrimeField), ("qq", RationalField)):
        for meth in FIELD_METHODS:
            if meth in cls.__dict__:
                patch_method(cls, meth,
                             lambda fn, name=f"{prefix}.{meth}": counter.wrap(name, fn))


def check_times(spans) -> dict:
    """Seconds per verify check (name without the ``verify.`` prefix)."""
    out = {}
    for name, start, end in zip(spans["name"], spans["start"], spans["end"]):
        if name.startswith("verify."):
            key = name[len("verify."):]
            out[key] = out.get(key, 0.0) + (end - start)
    return out


def _outermost(spans, names):
    """Indices of spans named in ``names`` with no ancestor named in ``names``."""
    parent = spans["parent"]
    span_names = spans["name"]
    out = []
    for i, name in enumerate(span_names):
        if name not in names:
            continue
        p = parent[i]
        while p >= 0 and span_names[p] not in names:
            p = parent[p]
        if p < 0:
            out.append(i)
    return out


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced pass, as plain numbers."""
    names, start, end = spans["name"], spans["start"], spans["end"]
    tags, selfs, parent = spans["tag"], spans["self"], spans["parent"]
    dur = [e - s for s, e in zip(start, end)]

    def total(*targets):
        return sum(dur[i] for i in _outermost(spans, set(targets)))

    def calls(target):
        return sum(1 for n in names if n == target)

    def matrix(target, kind, small=None):
        secs = 0.0
        count = 0
        for i, n in enumerate(names):
            if n != target or tags[i][0] != kind:
                continue
            if small is not None and (tags[i][1] <= 64) != small:
                continue
            secs += dur[i]
            count += 1
        return secs, count

    m = {}
    m["linalg.rref_fp_large_s"], m["linalg.rref_fp_large_calls"] = matrix(
        "linalg.Matrix.rref", "fp", small=False)
    m["linalg.rref_fp_small_s"], m["linalg.rref_fp_small_calls"] = matrix(
        "linalg.Matrix.rref", "fp", small=True)
    m["linalg.det_fp_s"], m["linalg.det_fp_calls"] = matrix("linalg.Matrix.det", "fp")
    m["linalg.rref_qq_s"] = matrix("linalg.Matrix.rref", "qq")[0]
    m["linalg.cells"] = sum(tags[i][1] for i, n in enumerate(names)
                            if n in ("linalg.Matrix.rref", "linalg.Matrix.det"))

    m["unipoly.pow_mod_s"] = total("unipoly.pow_mod")
    m["unipoly.pow_mod_calls"] = calls("unipoly.pow_mod")
    m["unipoly.rational_roots_s"] = total("unipoly.rational_roots")
    m["unipoly.resultant_s"] = total("unipoly.resultant", "unipoly.resultant_fixed",
                                     "unipoly.resultant_prs")
    m["unipoly.interpolate_s"] = total("unipoly.interpolate")

    m["binforms.mul_s"] = total("binforms.BinaryForm.mul")
    m["binforms.mul_calls"] = calls("binforms.BinaryForm.mul")
    m["binforms.squarefree_s"] = total("binforms.BinaryForm.squarefree")

    m["ternary.evaluate_s"] = total("ternary.TernaryForm.evaluate")
    m["ternary.evaluate_calls"] = calls("ternary.TernaryForm.evaluate")
    m["ternary.mul_s"] = total("ternary.TernaryForm.mul")
    m["ternary.mul_calls"] = calls("ternary.TernaryForm.mul")
    m["ternary.partial_s"] = total("ternary.TernaryForm.partial")

    for fn in ("form_matrix_det", "family_dimension", "secant_condition", "i2_basis",
               "genus4_check", "genus5_net_check"):
        m[f"quadlab.{fn}_s"] = total(f"quadlab.{fn}")
    attempts = [tags[i] for i, n in enumerate(names) if n == "quadlab.genus5_net_check"]
    m["quadlab.genus5_attempts_ratio"] = sum(attempts) / len(attempts) if attempts else 0.0

    m["picard.z_class_s"] = total("picard.z_class_15_9")
    m["picard.z_class_calls"] = calls("picard.z_class_15_9")
    m["picard.fr_sigma_class_s"] = total("picard.fr_sigma_class")
    m["picard.certificate_s"] = total("picard.general_type_certificate")

    stages = {"surface.PointConfig.sample", "surface.interpolation_basis",
              "surface.pencil_nondegeneracy"}
    reports = [i for i, n in enumerate(names) if n == "surface.blowup_report"]
    staged = {i: 0.0 for i in reports}
    for i, n in enumerate(names):
        if n in stages and parent[i] in staged:
            staged[parent[i]] += dur[i]
    m["surface.blowup_report_s"] = total("surface.blowup_report")
    m["surface.interpolation_basis_s"] = total("surface.interpolation_basis")
    m["surface.pencil_nondegeneracy_s"] = total("surface.pencil_nondegeneracy")
    m["surface.i2_stage_s"] = sum(dur[i] - staged[i] for i in reports)
    m["surface.pass_ratio"] = (sum(1 for i in reports if tags[i]) / len(reports)
                               if reports else 0.0)

    checks = check_times(spans)
    for key in ("01-identities", "02-harris-tu", "03-closed-forms", "07-secant"):
        m[f"verify.{key}_s"] = checks.get(key, 0.0)
    m["invariants.total_s"] = total(*[n for n in set(names) if n.startswith("invariants.")])
    m["cli.overhead_s"] = sum(selfs[i] for i, n in enumerate(names) if n == "cli.main")
    m["cli.commands"] = calls("cli.main")
    return m


def field_metrics(counts) -> dict:
    """fields.* metrics from the counting pass's per-method totals."""
    fp = {k[3:]: v for k, v in counts.items() if k.startswith("fp.")}
    qq = {k[3:]: v for k, v in counts.items() if k.startswith("qq.")}
    return {"fields.fp_ops": sum(fp.values()), "fields.fp_inv": fp.get("inv", 0),
            "fields.qq_ops": sum(qq.values())}
