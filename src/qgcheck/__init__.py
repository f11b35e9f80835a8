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

__version__ = "0.1.0"

# Each public name under the module that defines it.  A name, or a module,
# is imported on first access (PEP 562), so a process compiles only the
# modules it uses: `import qgcheck` loads none of them.
_HOMES = {
    "duality": ("AlgMultUnitary", "Duality", "bidual_map",
                "build_alg_mult_unitary", "build_dual", "check_biduality",
                "check_convolution_compat", "check_dual",
                "check_dual_modular", "check_hopf_star_iso",
                "check_pentagon_and_lemmas", "check_radford"),
    "errors": ("CheckFailure", "LegMismatch", "ModelError", "ParseError",
               "QGError", "SingularMap", "TierRefusal"),
    "gns": ("GnsRealization", "analytic_suite", "build_gns",
            "check_coproduct_implementation", "check_invariance_and_kms",
            "check_kac_collapse", "check_regular_reps",
            "check_w_properties"),
    "hopf": ("QGModel", "check_cancellation", "galois", "galois_map",
             "solve_antipode", "solve_counit", "validate_model",
             "verify_counit_antipode"),
    "linalg": ("LinMap", "Vec", "inverse", "kernel", "rank",
               "require_bijective", "solve_linear"),
    "modelio": ("emit_model", "emit_morphism", "emit_table",
                "model_from_dict", "model_to_dict", "parse_model",
                "parse_morphism", "parse_table", "write_report"),
    "models": ("BUILTIN_MODELS", "GroupTable", "build_drinfeld_double",
               "build_function_algebra", "build_group_algebra",
               "build_sweedler", "build_taft", "builtin"),
    "modular": ("HaarData", "check_modular_structure", "solve_haar"),
    "report": ("Checker", "CheckRecord", "Report", "ensure"),
    "scalars": ("Cyc",),
    "subgroups": ("DualMorphism", "QGMorphism", "build_dual_morphism",
                  "certify_vaes", "check_dual_morphism", "check_expectation",
                  "check_functoriality", "compose_morphisms",
                  "counit_morphism", "identity_morphism",
                  "restriction_morphism", "validate_morphism"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOMES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(__getattr__(_HOME[name]), name)


def __dir__():
    return sorted({*globals(), *__all__})
