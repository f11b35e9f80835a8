"""Acceptance suite: twelve end-to-end criteria, decided exactly.

Each criterion is one test; `pytest -v` gives the pass/fail line per
criterion and `pytest -s` additionally prints an explicit
``[acceptance] criterion NN (<title>): PASS|FAIL`` line.

Every record pinned here is exact: a zero residual in rational-cyclotomic
arithmetic, with no tolerance.  The laws of the regular representations,
W and the invariant weight are decided this way in the coordinates of the
GNS frame, the frame's existence and the KMS bound by exact positivity
tests, and the modular operators, their calculus, powers, commutation and
modular groups likewise (each operator must be the identity on these
Kac-type models).
"""

import functools
import glob
import json
import os

import numpy as np

from qgcheck.cli import main
from qgcheck.duality import (PENTAGON_LAW, build_alg_mult_unitary,
                             build_dual, check_biduality, check_dual_modular,
                             check_hopf_star_iso, check_pentagon_and_lemmas,
                             check_radford)
from qgcheck.gns import Z_GRID, analytic_suite, build_gns
from qgcheck.hopf import (GALOIS_KINDS, check_cancellation,
                          verify_counit_antipode)
from qgcheck.linalg import LinMap, inverse, kernel
from qgcheck.modelio import model_to_dict, parse_model
from qgcheck.models import (BUILTIN_MODELS, GroupTable, build_group_algebra,
                            builtin)
from qgcheck.modular import _invariance_system, solve_haar
from qgcheck.scalars import Cyc
from qgcheck.subgroups import (build_dual_morphism, certify_vaes,
                               check_dual_morphism, check_expectation,
                               counit_morphism, identity_morphism,
                               restriction_morphism, validate_morphism)
from test_hopf import GALOIS_TAGS, _galois_by_identity_tensors

ALL_MODELS = sorted(name for name in BUILTIN_MODELS if name != "broken")
GNS_MODELS = ("c_s3", "d_z3", "cg_s3")
MODELS_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "models")


def criterion(number, title):
    """Print one [acceptance] line per criterion, pass or fail."""
    def deco(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"[acceptance] criterion {number:02d} ({title}): FAIL")
                raise
            print(f"[acceptance] criterion {number:02d} ({title}): PASS")
        return run
    return deco


@functools.lru_cache(maxsize=None)
def model(name):
    return builtin(name)


@functools.lru_cache(maxsize=None)
def duality(name):
    return build_dual(solve_haar(model(name)))


def haar(name):
    return duality(name).haar


@functools.lru_cache(maxsize=None)
def munitary(name):
    return build_alg_mult_unitary(duality(name))


@functools.lru_cache(maxsize=None)
def analytic(name):
    return analytic_suite(build_gns(munitary(name)))


def all_pass(records, context, exact=False):
    bad = [r for r in records if r.status == "fail"]
    assert not bad, f"{context}: failing checks " + ", ".join(
        f"{r.check_id} (residual {r.residual}, {r.witness})" for r in bad)
    if exact:
        loose = [r.check_id for r in records
                 if r.status == "pass" and r.tolerance is not None]
        assert not loose, f"{context}: non-exact records {loose}"


def pick(records, suffix):
    hits = [r for r in records if r.check_id.endswith(suffix)]
    assert hits, f"no check record ending with {suffix!r}"
    return hits


def assert_exact(records, suffix, context):
    for r in pick(records, suffix):
        assert r.status == "pass" and r.tolerance is None, \
            f"{context}: {r.check_id} is not an exact PASS " \
            f"({r.status}, tolerance {r.tolerance}, {r.witness})"


@criterion(1, "Hopf validation exact on the full corpus")
def test_criterion_01_hopf_validation():
    for name in ("c_z2", "c_z3", "c_s3", "cg_s3", "d_z3", "d_s3",
                 "sweedler", "taft3"):
        m = model(name)
        recs = check_cancellation(m) + verify_counit_antipode(m)
        all_pass(recs, name, exact=True)
        assert not any(r.status == "skip" for r in recs), name
        id_aa = LinMap.identity(m.AA)
        for kind in GALOIS_KINDS:
            for tag in GALOIS_TAGS:
                g = _galois_by_identity_tensors(m, kind + tag)
                assert inverse(g) @ g == id_aa, (name, kind + tag)


@criterion(2, "Haar uniqueness and positivity tiering")
def test_criterion_02_haar_uniqueness_positivity():
    for name in ALL_MODELS:
        m = model(name)
        if not m.positive:
            continue
        assert len(kernel(_invariance_system(m, "left"))) == 1, name
        assert len(kernel(_invariance_system(m, "right"))) == 1, name
        h = haar(name)
        assert h.gram_positive, name
        eigs = np.linalg.eigvalsh(h.gram.to_numpy())
        assert eigs.min() > 0, f"{name}: Gram eigenvalue {eigs.min()}"
    for name in ("sweedler", "taft3", "taft4"):
        assert not model(name).positive, name
        assert not haar(name).gram_positive, name


@criterion(3, "pentagon equation, algebraic and unitary")
def test_criterion_03_pentagon():
    small = [n for n in ALL_MODELS if model(n).dim <= 16]
    assert {"d_z3", "taft3", "taft4"} <= set(small)
    for name in small:
        recs = check_pentagon_and_lemmas(munitary(name))
        all_pass(recs, name)
        for suffix in (".munitary.pentagon", ".munitary.adjoint-relation"):
            (rec,) = pick(recs, suffix)
            assert rec.tolerance is None, f"{name}: {suffix} not exact"
        (pent,) = pick(recs, ".munitary.pentagon")
        assert pent.law == PENTAGON_LAW, f"{name}: {pent.law}"
    # unitary pentagon on the 216-dimensional tensor cube of L2 of c_s3,
    # decided exactly on w
    assert model("c_s3").dim ** 3 == 216
    assert_exact(analytic("c_s3"), ".gns.w.pentagon", "c_s3")


@criterion(4, "Radford fourth-power antipode formula")
def test_criterion_04_radford():
    for name in ALL_MODELS:
        all_pass(check_radford(duality(name)), name, exact=True)
    # the formula is non-vacuous where S^2 is a nontrivial automorphism
    for name in ("sweedler", "taft3"):
        m = model(name)
        s2 = m.antipode @ m.antipode
        assert not (s2 - LinMap.identity(m.A)).is_zero(), name


@criterion(5, "duality: biduality, cyclic DFT oracle, antipode square")
def test_criterion_05_duality():
    for name in ALL_MODELS:
        dd = duality(name)
        all_pass(check_biduality(dd), name, exact=True)
        # dual antipode square: S^^2 = mu^-1 S^2 exactly; with the
        # positive tier forcing mu = 1 this is the literal S^^2 = S^2
        m, mu = dd.source, dd.haar.mu
        dual_s2 = dd.dual.antipode @ dd.dual.antipode
        s2 = m.antipode @ m.antipode
        assert (dual_s2.scale(mu) - s2).is_zero(), name
        if m.positive:
            assert (mu - 1).is_zero(), name
            assert (dual_s2 - s2).is_zero(), name
    # dual of C[Z_n] is C(Z_n); the isomorphism is the composite of the
    # DFT character matrix against the dual group-like basis
    for n in (2, 3, 4):
        cg = build_group_algebra(GroupTable.cyclic(n))
        fn = builtin(f"c_z{n}")
        dual = build_dual(solve_haar(cg)).dual
        glikes = LinMap.from_entries(cg.A, dual.A, [
            (j, k, Cyc.zeta(n, (-j * k) % n))
            for j in range(n) for k in range(n)])
        dft = LinMap.from_entries(cg.A, fn.A, [
            (g, k, Cyc.zeta(n, (g * k) % n))
            for g in range(n) for k in range(n)])
        iso = dft @ inverse(glikes)
        all_pass(check_hopf_star_iso(iso, dual, fn, prefix=f"dft{n}"),
                 f"n={n}", exact=True)


@criterion(6, "dual modular formulas and four-way commutation")
def test_criterion_06_dual_modular():
    grid = [f"commute.conv-{c}.{t}"
            for c in ("left", "right") for t in ("lmul", "rmul")]
    for name in ALL_MODELS:
        recs = check_dual_modular(duality(name))
        all_pass(recs, name, exact=True)
        for suffix in ("sigma.dual", "sigma.source", *grid,
                       "commute.conjugation-left", "commute.conjugation-right"):
            pick(recs, suffix)


@criterion(7, "GNS layer: W unitarity, slices, implemented coproduct")
def test_criterion_07_gns_layer():
    for name in GNS_MODELS:
        recs = analytic(name)
        assert_exact(recs, ".gns.w.unitary", name)
        assert_exact(recs, ".gns.coprod.implemented", name)
        for suffix in (".gns.reps.slice.left-span", ".gns.reps.slice.right-span",
                       ".gns.coprod.density.left", ".gns.coprod.density.right"):
            assert_exact(recs, suffix, name)
    # slice formulas, exact over every basis pair
    for name in ("c_s3", "d_z3"):
        recs = analytic(name)
        assert_exact(recs, ".gns.reps.slice.left", name)
        assert_exact(recs, ".gns.reps.slice.right", name)


@criterion(8, "modular operators: W relations and strong commutation")
def test_criterion_08_modular_operators():
    for name in GNS_MODELS:
        recs = analytic(name)
        assert_exact(recs, ".gns.commute.delta.w", name)
        assert_exact(recs, ".gns.commute.n.w", name)
        joint = pick(recs, ".joint-diagonal")
        assert len(joint) == 9, name
        assert_exact(joint, ".joint-diagonal", name)
        assert_exact(recs, ".gns.calc.imaginary-unitary", name)
        assert_exact(recs, ".gns.calc.group-law", name)


@criterion(9, "complex powers of delta act as multipliers")
def test_criterion_09_multiplier_extraction():
    assert set(Z_GRID) == {0.5, 1j, 1 + 1j}
    for name in GNS_MODELS:
        recs = analytic(name)
        for z in Z_GRID:
            tag = f".gns.powers[z={z}]"
            assert_exact(recs, f"{tag}.membership", name)
            assert_exact(recs, f"{tag}.rho-closed-form", name)


@criterion(10, "modular groups and the KMS bound")
def test_criterion_10_modular_groups():
    for name in GNS_MODELS:
        assert_exact(analytic(name), ".gns.modgroup.sigma-hat.integer", name)
    for name in ("c_s3", "cg_s3"):
        assert_exact(analytic(name), ".gns.weight.kms.bound", name)


@criterion(11, "quantum subgroup restrictions and the dual embedding")
def test_criterion_11_subgroups():
    s3 = GroupTable.symmetric(3)

    def order(i):
        j, n = i, 1
        while j != 0:
            j, n = s3.mul(j, i), n + 1
        return n

    a3 = sorted(i for i in range(s3.n) if order(i) in (1, 3))
    z2 = sorted([0, next(i for i in range(s3.n) if order(i) == 2)])
    assert len(a3) == 3 and len(z2) == 2
    for indices in (a3, z2):
        mor = restriction_morphism(s3, indices)
        all_pass(validate_morphism(mor), mor.label, exact=True)
        dm = build_dual_morphism(mor)
        all_pass(check_dual_morphism(dm), mor.label, exact=True)
        exp = check_expectation(dm)
        all_pass(exp, mor.label)
        (bim,) = pick(exp, ".bimodule")
        assert bim.tolerance is None, mor.label
        vaes = certify_vaes(dm, check_dual_morphism(dm))
        all_pass(vaes, mor.label)
        (inj,) = pick(vaes, ".injective")
        assert inj.status == "pass" and inj.tolerance is None, mor.label
    for mor in (counit_morphism(model("c_s3")),
                identity_morphism(model("c_s3"))):
        all_pass(validate_morphism(mor), mor.label, exact=True)
        dm = build_dual_morphism(mor)
        all_pass(check_dual_morphism(dm), mor.label, exact=True)
        all_pass(check_expectation(dm), mor.label)


@criterion(12, "CLI round-trip, determinism and exit codes")
def test_criterion_12_cli_and_format():
    import tempfile
    files = sorted(p for p in glob.glob(os.path.join(MODELS_DIR, "*.json"))
                   if "restrict" not in p and "table" not in p)
    assert len(files) >= 13
    with tempfile.TemporaryDirectory() as tmp:
        # round-trip: parse -> emit -> reparse is the identity on the dict
        for path in files:
            m = parse_model(path)
            out = os.path.join(tmp, "echo.json")
            with open(out, "w", encoding="utf-8") as fh:
                json.dump(model_to_dict(m), fh)
            assert model_to_dict(parse_model(out)) == model_to_dict(m), path
        # determinism: same seed, byte-identical report modulo wall time
        reports = []
        for run in range(2):
            rp = os.path.join(tmp, f"r{run}.json")
            code = main(["verify", os.path.join(MODELS_DIR, "c_s3.json"),
                         "--suite", "all", "--seed", "7", "--report", rp])
            assert code == 0
            with open(rp, encoding="utf-8") as fh:
                data = json.load(fh)
            for rec in data["checks"]:
                rec.pop("wall_ms")
            reports.append(json.dumps(data, sort_keys=True))
        assert reports[0] == reports[1]
    # exit codes over the shipped corpus: 0 everywhere, 1 on broken
    for path in files:
        want = 1 if path.endswith("broken.json") else 0
        assert main(["verify", path, "--suite", "all"]) == want, path
