"""Exact verification toolkit for finite-dimensional quantum groups.

Structure constants and every law live in exact rational-cyclotomic
arithmetic (`Cyc`, `LinMap`), the algebraic laws and the analytic ones
alike.  The GNS realization of the invariant state is never built in
floats: its representations, the unitary multiplicative unitary W and the
modular operators are similarities of exact maps by a frame of the Gram
matrix, so their laws are decided in coordinates over Q(zeta_N)
(`check_regular_reps`, `check_w_properties`, `check_kac_collapse`, ...),
and the frame's existence and the KMS norm bound are exact positivity
tests.  The `cli` module exposes the same pipeline as the `qgcheck`
command.
"""

import importlib

from .duality import (AlgMultUnitary, Duality, bidual_map,
                      build_alg_mult_unitary, build_dual, check_biduality,
                      check_convolution_compat, check_dual, check_dual_modular,
                      check_hopf_star_iso, check_pentagon_and_lemmas,
                      check_radford)
from .errors import (CheckFailure, LegMismatch, ModelError, ParseError,
                     QGError, SingularMap, TierRefusal)
from .hopf import (QGModel, check_cancellation, galois, galois_map,
                   solve_antipode, solve_counit, validate_model,
                   verify_counit_antipode)
from .linalg import (LinMap, Vec, inverse, kernel, rank, require_bijective,
                     solve_linear)
from .modelio import (emit_model, emit_morphism, emit_table, model_from_dict,
                      model_to_dict, parse_model, parse_morphism, parse_table,
                      write_report)
from .models import (BUILTIN_MODELS, GroupTable, build_drinfeld_double,
                     build_function_algebra, build_group_algebra,
                     build_sweedler, build_taft, builtin)
from .modular import HaarData, check_modular_structure, solve_haar
from .report import Checker, CheckRecord, Report, ensure
from .scalars import Cyc
from .subgroups import (DualMorphism, QGMorphism, build_dual_morphism,
                        certify_vaes, check_dual_morphism, check_expectation,
                        check_functoriality, compose_morphisms,
                        counit_morphism, identity_morphism,
                        restriction_morphism, validate_morphism)

__version__ = "0.1.0"

# The analytic tier's names are imported on first access (PEP 562):
# importing gns costs about 7 ms and 0.17 MB of RSS (Python 3.11, 2 vCPU),
# which a run that never reaches the analytic suite, such as either
# perfbench workload, need not pay.
_GNS_NAMES = frozenset({
    "GnsRealization", "analytic_suite", "build_gns",
    "check_coproduct_implementation", "check_invariance_and_kms",
    "check_kac_collapse", "check_regular_reps", "check_w_properties",
})


def __getattr__(name: str):
    if name == "gns" or name in _GNS_NAMES:
        gns = importlib.import_module(".gns", __name__)
        return gns if name == "gns" else getattr(gns, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AlgMultUnitary", "BUILTIN_MODELS", "CheckFailure", "CheckRecord",
    "Checker", "Cyc", "DualMorphism", "Duality", "GnsRealization",
    "GroupTable", "HaarData", "LegMismatch", "LinMap", "ModelError",
    "ParseError", "QGError", "QGModel", "QGMorphism", "Report",
    "SingularMap", "TierRefusal", "Vec", "analytic_suite",
    "bidual_map",
    "build_alg_mult_unitary", "build_drinfeld_double", "build_dual",
    "build_dual_morphism", "build_function_algebra", "build_gns",
    "build_group_algebra", "build_sweedler", "build_taft", "builtin",
    "certify_vaes", "check_biduality", "check_cancellation",
    "check_convolution_compat", "check_coproduct_implementation",
    "check_dual", "check_dual_modular", "check_dual_morphism",
    "check_expectation", "check_functoriality", "check_hopf_star_iso",
    "check_invariance_and_kms", "check_kac_collapse",
    "check_modular_structure", "check_pentagon_and_lemmas",
    "check_radford", "check_regular_reps", "check_w_properties",
    "compose_morphisms", "counit_morphism", "emit_model",
    "emit_morphism", "emit_table", "ensure", "galois", "galois_map",
    "identity_morphism", "inverse", "kernel", "model_from_dict",
    "model_to_dict", "parse_model", "parse_morphism", "parse_table",
    "rank", "require_bijective", "restriction_morphism",
    "solve_antipode", "solve_counit", "solve_haar", "solve_linear",
    "validate_model", "validate_morphism", "verify_counit_antipode",
    "write_report",
]
