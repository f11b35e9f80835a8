import dataclasses
import functools
from fractions import Fraction

import pytest

from qgcheck import cli, duality
from qgcheck.duality import (
    PENTAGON_LAW,
    AlgMultUnitary,
    bidual_map,
    build_alg_mult_unitary,
    build_dual,
    check_biduality,
    check_convolution_compat,
    check_dual,
    check_dual_modular,
    check_hopf_star_iso,
    check_pentagon_and_lemmas,
    check_radford,
    leg_one_defect,
)
from qgcheck.errors import CheckFailure, ModelError
from qgcheck.hopf import galois, galois_map, validate_model
from qgcheck.linalg import LinMap, Vec, apply_on_legs, to_multi, total_dim
from qgcheck.modular import check_modular_structure, solve_haar
from qgcheck.models import GroupTable, build_function_algebra, build_group_algebra
from qgcheck.report import FAIL, PASS, Checker, ensure
from qgcheck.scalars import Cyc
from faults import Fault, spread
from test_hopf import _galois_by_identity_tensors, product_in_aa, stored_order


def validated(dd):
    """dd, after the structural and Haar suites on its dual."""
    ensure(validate_model(dd.dual))
    ensure(check_modular_structure(dd.dual_haar))
    return dd


def validated_dual(model):
    return validated(build_dual(solve_haar(model)))


@pytest.fixture(scope="module")
def dual_cache(duality_cache):
    """The session's duality of each named built-in, its dual validated."""
    return functools.cache(lambda name: validated(duality_cache(name)))


def assert_iso(t, src, dst):
    ensure(check_hopf_star_iso(t, src, dst))


def _convolution_by_definition(dd):
    """The product solved pairing by pairing from its defining equation.

    Column (i, j) solves phi(e_k h) = (phi(x)phi)(coprod(e_k)(e_i(x)e_j))
    for h, one basis element e_k at a time.
    """
    m, haar = dd.source, dd.haar
    d = m.dim
    phi2 = haar.phi.tensor(haar.phi)
    cols = {}
    for i in range(d):
        for j in range(d):
            fg = Vec.basis(m.AA, (i, j))
            vals = {k: phi2(product_in_aa(m, m.coprod.column(k), fg)).get(0)
                    for k in range(d)}
            cols[i * d + j] = dict(haar.pmat_inv(Vec(m.A, vals)).data)
    return LinMap(m.AA, m.A, cols)


@pytest.mark.parametrize("name", ["taft3", "c_z4", "sweedler", "cg_s3", "d_z2"])
def test_convolution_product_matches_defining_equation(name, duality_cache):
    dd = duality_cache(name)
    assert dd.dual.mult == _convolution_by_definition(dd)


def test_trivial_dual_is_trivial(dual_cache):
    dd = dual_cache("trivial")
    assert dd.dual.dim == 1
    assert dd.dual.unit == dd.source.unit
    assert dd.dual.mult == dd.source.mult
    assert dd.dual.antipode == dd.source.idA


# Hand-computed dual data for the four-dimensional model, basis
# (1, x, g, gx): the convolution unit is x + gx, the dual modular element
# is -x + gx, and the dual antipode sends 1^ -> -g^, x^ -> x^, g^ -> 1^,
# gx^ -> gx^.  Both scaling constants equal -1.
def test_sweedler_dual_oracle(dual_cache):
    dd = dual_cache("sweedler")
    one = Cyc.one(1)
    assert dict(dd.dual.unit.data) == {1: one, 3: one}
    assert dict(dd.dual_haar.delta.data) == {1: -one, 3: one}
    assert dd.haar.mu == -one
    assert dd.dual_haar.mu == -one
    expect = {(2, 0): -one, (1, 1): one, (0, 2): one, (3, 3): one}
    assert {(i, j): v for i, j, v in dd.dual.antipode.entries()} == expect
    # S^2 on the dual is -S^2 here because the scaling constant is -1
    s2 = dd.source.antipode @ dd.source.antipode
    assert dd.dual.antipode @ dd.dual.antipode == s2.scale(-one)


def test_taft_scaling_constants(dual_cache):
    dd = dual_cache("taft3")
    assert dd.haar.mu == Cyc.zeta(3, 2)
    assert dd.dual_haar.mu == Cyc.zeta(3, 1)


@pytest.mark.parametrize("name", ["trivial", "c_z2", "c_s3", "cg_s3",
                                  "d_z3", "sweedler", "taft3"])
def test_dual_full_suite(dual_cache, name):
    dd = dual_cache(name)
    ensure(check_dual(dd))
    ensure(check_dual_modular(dd))
    ensure(check_radford(dd))
    ensure(check_biduality(dd))


def _dual_products_pair_by_pair(dd):
    """The oracle: pair.product, form.product and form.product-alt, the two
    forms built one (f, g) basis pair at a time from Vec round trips, in
    f d + g order, the column order in which check_dual names the first
    worst entry."""
    m, dm, P, phi = dd.source, dd.dual, dd.haar.pmat, dd.haar.phi
    d, Sinv = m.dim, m.antipode_inv

    def phi_of_product(t):
        return apply_on_legs(phi, (0,), apply_on_legs(m.mult, (0, 2), t))

    def form_product():  # f*g = f_(1) phi(S^-1(g) f_(2))
        cols = {}
        for i in range(d):
            for j in range(d):
                t = phi_of_product(Sinv.column(j).tensor(m.coprod.column(i)))
                if t.data:
                    cols[i * d + j] = dict(t.data)
        return dm.mult - LinMap(m.AA, m.A, cols)

    def form_product_alt():  # f*g = phi(S^-1(g_(1)) f) g_(2)
        cols = {}
        for i in range(d):
            for j in range(d):
                dgj = apply_on_legs(Sinv, (0,), m.coprod.column(j))
                t = phi_of_product(dgj.tensor(m.basis_vec(i)))
                if t.data:
                    cols[i * d + j] = dict(t.data)
        return dm.mult - LinMap(m.AA, m.A, cols)

    ck = Checker(f"{m.name}.dual")
    ck.exact("pair.product", "",
             lambda: P @ dm.mult - m.coprod.transpose() @ P.tensor(P))
    ck.exact("form.product", "", form_product)
    ck.exact("form.product-alt", "", form_product_alt)
    return {r.check_id: r for r in ck.records}


@pytest.mark.parametrize("name", ["sweedler", "taft3", "c_s3"])
@pytest.mark.parametrize("change", ["raise", "plant", "zero"])
def test_dual_product_witnesses_match_pair_by_pair(name, change, dual_cache):
    """A wrong dual product fails the three product records with the
    residual and witness of the pair-by-pair oracle.  One wrong entry (the
    middle stored entry raised by 1, or an unstored entry planted as 1)
    pins the residual and the entry named; the zero product, whose
    residuals have many equal worst entries, pins the column order."""
    bad = Fault("dual.mult", change,
                "all" if change == "zero" else "").apply(dual_cache(name))
    records = {r.check_id: r for r in check_dual(bad)}
    for check_id, ref in _dual_products_pair_by_pair(bad).items():
        got = records[check_id]
        assert ref.status == FAIL and ref.witness
        assert (got.status, got.residual, got.witness) \
            == (ref.status, ref.residual, ref.witness)


# The dual of a function algebra is the group algebra: delta_a * delta_b
# = (1/|G|) delta_{ab}, unit |G| delta_e, and dividing by |G| is a Hopf
# *-isomorphism onto the group-algebra model.
def test_function_algebra_dual_is_group_algebra(dual_cache, model_cache):
    dd = dual_cache("c_s3")
    g = GroupTable.symmetric(3)
    sixth = Cyc.rational(Fraction(1, 6))
    for a in range(6):
        for b in range(6):
            col = dd.dual.mult.column(a * 6 + b)
            assert dict(col.data) == {g.mul(a, b): sixth}
    assert dict(dd.dual.unit.data) == {0: Cyc.rational(6)}
    t = LinMap.identity(dd.source.A).scale(sixth)
    assert_iso(t, dd.dual, model_cache("cg_s3"))


# The dual of a group algebra is the function algebra on the same labels:
# u_g^ * u_h^ = [g = h] u_g^, and the identity matrix is already the
# isomorphism onto the function-algebra model.
def test_group_algebra_dual_is_function_algebra(dual_cache, model_cache):
    dd = dual_cache("cg_s3")
    one = Cyc.one(1)
    for a in range(6):
        for b in range(6):
            col = dd.dual.mult.column(a * 6 + b)
            assert dict(col.data) == ({a: one} if a == b else {})
    assert_iso(LinMap.identity(dd.source.A), dd.dual, model_cache("c_s3"))


# Discrete Fourier transform oracles on cyclic groups: the character
# matrix u_j |-> sum_k zeta^{jk} delta_k is a Hopf *-isomorphism from the
# group algebra to the function algebra, and composing with the 1/n
# relabeling identifies the dual of the function algebra with the
# function algebra itself.
@pytest.mark.parametrize("n", [2, 3, 4])
def test_cyclic_fourier_duality(n):
    cg = build_group_algebra(GroupTable.cyclic(n))
    c = build_function_algebra(GroupTable.cyclic(n))
    dft = LinMap.from_entries(
        cg.A, c.A,
        ((k, j, Cyc.zeta(n, (j * k) % n)) for j in range(n) for k in range(n)))
    assert_iso(dft, cg, c)

    ddc = validated_dual(c)
    scale = LinMap.identity(c.A).scale(Cyc.rational(Fraction(1, n)))
    assert_iso(scale, ddc.dual, cg)
    assert_iso(dft @ scale, ddc.dual, c)

    ddg = validated_dual(cg)
    assert_iso(LinMap.identity(cg.A), ddg.dual, c)


# W(u_g (x) u_h) = u_{h^-1 g} (x) u_h on a group algebra; for Z_2 that is
# the permutation fixing (0,0) and (1,0) and swapping (0,1) with (1,1).
def test_mult_unitary_group_permutation(mw_cache):
    mw = mw_cache("cg_z2")
    one = Cyc.one(1)
    expect = {(0, 0): one, (3, 1): one, (2, 2): one, (1, 3): one}
    assert {(i, j): v for i, j, v in mw.w.entries()} == expect
    assert mw.w @ mw.w_inv == LinMap.identity(mw.duality.source.AA)


@pytest.mark.parametrize("name", ["sweedler", "taft3", "taft4", "c_s3", "d_z3"])
def test_mult_unitary_matches_identity_tensor_composition(mw_cache, name):
    mw = mw_cache(name)
    m = mw.duality.source
    i = m.idA
    want = (m.mult @ m.flipA).tensor(i) @ i.tensor(m.antipode_inv).tensor(i) \
        @ i.tensor(m.coprod)
    got = mw.w
    assert got == want
    assert stored_order(got) == stored_order(want)


@pytest.mark.parametrize("name", ["trivial", "c_z2", "c_z3", "c_s3",
                                  "sweedler", "taft3"])
def test_pentagon_and_lemmas(dual_cache, name):
    ensure(check_pentagon_and_lemmas(build_alg_mult_unitary(dual_cache(name))))


def _on_legs_by_index(w, legs, d):
    """w acting on two of three d-dimensional legs, entry by entry."""
    entries = []
    for j in range(d ** 3):
        multi = to_multi(j, (d, d, d))
        for k, v in w.column((multi[legs[0]], multi[legs[1]])).items():
            out = list(multi)
            out[legs[0]], out[legs[1]] = to_multi(k, (d, d))
            entries.append((out[0] * d * d + out[1] * d + out[2], j, v))
    return LinMap.from_entries((d, d, d), (d, d, d), entries)


@pytest.mark.parametrize("name", ["sweedler", "taft3"])
def test_full_pentagon_catches_a_wrong_unitary(name, mw_cache):
    mw = mw_cache(name)
    m, d = mw.duality.source, mw.duality.source.dim
    # one wrong entry: w(e_0 (x) e_0) gains e_0 (x) e_0
    bad = mw.w + LinMap.from_entries(m.AA, m.AA, [(0, 0, Cyc.one(1))])
    records = {r.check_id: r for r in check_pentagon_and_lemmas(
        dataclasses.replace(mw, w=bad))}
    pentagon = records[f"{m.name}.munitary.pentagon"]
    assert pentagon.law == PENTAGON_LAW and pentagon.status == FAIL

    i = m.idA
    flip23 = i.tensor(m.flipA)
    w12, w13, w23 = (_on_legs_by_index(bad, legs, d)
                     for legs in ((0, 1), (0, 2), (1, 2)))
    assert flip23 @ bad.tensor(i) @ flip23 == w13
    assert (bad.tensor(i), i.tensor(bad)) == (w12, w23)
    want = (w12 @ w13 @ w23 - w23 @ w12).max_abs()
    assert want > 0 and pentagon.residual == want


# -- the reduced pentagon and adjoint relation against full-form oracles --


def full_pentagon_defect(model, w):
    """The oracle: w12 w13 w23 - w23 w12 as full d^3-column matrices."""
    i = model.idA
    w12, w23 = w.tensor(i), i.tensor(w)
    flip23 = i.tensor(model.flipA)  # conjugating by it moves leg 1 to leg 2
    return w12 @ (flip23 @ w12 @ flip23) @ w23 - w23 @ w12


def adjoint_relation_on_four_tuples(dd, mw) -> bool:
    """The oracle: (w(a(x)b))* . (c(x)d) = (a(x)b)* . w^-1(c(x)d) on all d^4
    basis four-tuples, in A (x) D with the product ``.`` and its star."""
    m, dm = dd.source, dd.dual
    stars = m.invol.tensor(dm.invol)

    def bullet(u, v):
        t = apply_on_legs(m.mult, (0, 2), u.tensor(v))
        return apply_on_legs(dm.mult, (1, 2), t)

    basis = [Vec.basis(m.AA, k) for k in range(m.dim ** 2)]
    for ab in basis:
        left, right = stars(mw.w(ab).conj()), stars(ab.conj())
        for cd in basis:
            if bullet(left, cd) != bullet(right, mw.w_inv(cd)):
                return False
    return True


def _munitary_records(mw):
    return {r.check_id.rsplit(".munitary.", 1)[1]: r
            for r in check_pentagon_and_lemmas(mw)}


def test_pentagon_sampled_path(mw_cache):
    # the pentagon was once sampled on these models (c_s3 when the cap was
    # forced below dim^3, taft4 under the default cap); both are now decided
    # exactly, by the reduction on the d^2 vectors 1 (x) e_b (x) e_c
    for name in ("c_s3", "taft4"):
        mw = mw_cache(name)
        m = mw.duality.source
        assert leg_one_defect(m, mw.w).is_zero(), name
        assert mw.pentagon_defect.dom == m.AA, name
        assert mw.pentagon_defect.is_zero(), name
        records = check_pentagon_and_lemmas(mw)
        pentagon = next(r for r in records if r.check_id.endswith("pentagon"))
        assert (pentagon.status, pentagon.law) == (PASS, PENTAGON_LAW), name
        assert pentagon.tolerance is None and pentagon.residual == 0, name
        ensure(records)
        if m.dim ** 3 <= 216:  # c_s3: the full-matrix oracle agrees
            assert full_pentagon_defect(m, mw.w).is_zero(), name


@pytest.mark.parametrize("name", ["sweedler", "c_s3", "c_z4", "taft3"])
def test_pentagon_matches_the_full_matrix_oracle_on_mutants(
        name, mw_cache):
    mw = mw_cache(name)
    m = mw.duality.source
    reduced, statuses = 0, set()
    for bad in [mw.w, *(f.apply(mw).w for f in spread(mw, "w"))]:
        mutant = dataclasses.replace(mw, w=bad)
        rec = _munitary_records(mutant)["pentagon"]
        want = PASS if full_pentagon_defect(m, bad).is_zero() else FAIL
        assert (rec.status, rec.law) == (want, PENTAGON_LAW), rec.witness
        statuses.add(rec.status)
        # with the leg-1 identity P is decided on the d^2 vectors
        # 1 (x) e_b (x) e_c, else on all d^3 basis triples
        keeps = leg_one_defect(m, bad).is_zero()
        assert mutant.pentagon_defect.dom == (m.AA if keeps else (m.dim,) * 3)
        reduced += keeps and bad is not mw.w
    assert statuses == {PASS, FAIL}
    # on function algebras, raising or lowering w's one entry in a column
    # keeps the identity, so the reduction itself decides those mutants
    assert (reduced > 0) == (name in ("c_s3", "c_z4")), reduced


@pytest.mark.parametrize("name", ["sweedler", "c_s3", "c_z4"])
def test_adjoint_relation_matches_the_four_tuple_oracle_on_mutants(
        name, mw_cache):
    mw = mw_cache(name)
    dd = mw.duality
    assert dd.source.dim <= 6
    statuses = set()
    for field in ("w", "w_inv"):
        for bad in [getattr(mw, field), *(getattr(f.apply(mw), field)
                                          for f in spread(mw, field))]:
            mutant = dataclasses.replace(mw, **{field: bad})
            rec = _munitary_records(mutant)["adjoint-relation"]
            want = PASS if adjoint_relation_on_four_tuples(dd, mutant) else FAIL
            assert rec.status == want, (field, rec.witness)
            statuses.add(rec.status)
            if rec.status == FAIL:
                assert rec.witness.startswith(
                    ("w^-1 = L_X: entry", "stars o conj(w) = R_X o stars: "
                     "entry")), rec.witness
    assert statuses == {PASS, FAIL}


@pytest.mark.parametrize("name", ["trivial", "c_z2", "cg_z3", "sweedler",
                                  "taft3"])
def test_convolution_compat(dual_cache, name):
    ensure(check_convolution_compat(dual_cache(name)))


def _right_mult_by_leg_permutation(dd):
    """Records of the right-multiplication laws with the d^4-leg reorder.

    The right side (f*g_(1)) (x) a g_(2) (or g_(2) a) is formed by
    reordering (a, f, g1, g2) and contracting with conv (x) mult, an
    independent route to the one check_convolution_compat takes.
    """
    m, conv = dd.source, dd.dual.mult
    i, dims4 = m.idA, (m.dim,) * 4
    iconv, spread = i.tensor(conv), i.tensor(i).tensor(m.coprod)
    ck = Checker(f"{m.name}.conv-compat")
    for check_id, g, perm in (
            ("coprod-right-mult", galois_map(m, "rr"), (1, 2, 0, 3)),
            ("coprod-right-mult-op", _galois_by_identity_tensors(m, "rr_op"),
             (1, 2, 3, 0))):
        swap = LinMap.leg_permutation(dims4, perm)
        ck.exact(check_id, "", lambda g=g, swap=swap:
                 g @ iconv - conv.tensor(m.mult) @ swap @ spread)
    return {r.check_id: r for r in ck.records}


@pytest.mark.parametrize("name", ["sweedler", "taft3"])
def test_convolution_compat_catches_a_wrong_product(name, dual_cache):
    dd = dual_cache(name)
    m, conv = dd.source, dd.dual.mult
    # one wrong entry, e_0 * e_0 gains e_0
    bump = LinMap.from_entries(m.AA, m.A, [(0, 0, Cyc.one(1))])
    bad = dataclasses.replace(
        dd, dual=dataclasses.replace(dd.dual, mult=conv + bump))
    records = {r.check_id: r for r in check_convolution_compat(bad)}
    for law in ("left-mult", "left-mult-op", "right-mult", "right-mult-op"):
        assert records[f"{m.name}.conv-compat.coprod-{law}"].status == FAIL
    for check_id, ref in _right_mult_by_leg_permutation(bad).items():
        assert (records[check_id].status, records[check_id].residual) \
            == (ref.status, ref.residual)
    assert all(r.ok for r in _right_mult_by_leg_permutation(dd).values())


def _convolution_compat_full_forms(dd):
    """The four coproduct laws as d^3-column differences on a (x) f (x) g,
    the form ``check_convolution_compat`` reduces to D and D'."""
    m, conv = dd.source, dd.dual.mult
    i = m.idA
    iconv = i.tensor(conv)
    ck = Checker(f"{m.name}.conv-compat")
    for law, g in (("left-mult", galois_map(m, "rl")),
                   ("left-mult-op", _galois_by_identity_tensors(m, "rl_op"))):
        ck.exact(f"coprod-{law}", "",
                 lambda g=g: g @ iconv - iconv @ g.tensor(i))
    for law, g in (("right-mult", galois_map(m, "rr")),
                   ("right-mult-op", _galois_by_identity_tensors(m, "rr_op"))):
        ck.exact(f"coprod-{law}", "", lambda g=g: g @ iconv
                 - conv.tensor(i) @ i.tensor(g) @ m.flipA.tensor(i))
    return ck.records


@pytest.mark.parametrize("name", ["sweedler", "taft3", "c_s3"])
@pytest.mark.parametrize("target", ["dual-mult", "coprod"])
def test_convolution_compat_matches_the_full_forms_on_mutants(
        name, target, dual_cache):
    """The records decided through D and D' have the status, residual and
    witness of the d^3-column forms, on single-entry mutants of the dual
    product and of the coproduct."""
    dd = dual_cache(name)
    statuses = set()
    for change in ("raise", "lower", "plant"):
        bad = Fault("dual.mult" if target == "dual-mult" else "source.coprod",
                    change).apply(dd)
        got = check_convolution_compat(bad)[:4]
        want = _convolution_compat_full_forms(bad)
        assert [(r.check_id, r.status, r.residual, r.witness) for r in got] \
            == [(r.check_id, r.status, r.residual, r.witness) for r in want]
        statuses |= {r.status for r in got}
    assert FAIL in statuses


def test_convolution_compat_pass_path_builds_no_d3_column_map(monkeypatch):
    """On ``verify taft4 --suite all`` every conv-compat record passes
    through D and D': no map with d^3 columns is built inside
    ``check_convolution_compat``, and no Galois map is composed with the
    flip, as only the d^3 forms of the op laws read rl_op = gl o flip and
    rr_op = gr o flip."""
    calls, active, doms, products = [], [], [], []
    real_of, real_init = LinMap._of.__func__, LinMap.__init__
    real_matmul = LinMap.__matmul__

    def of(cls, dom, cod, cols):
        if active:
            doms.append(tuple(dom))
        return real_of(cls, dom, cod, cols)

    def init(self, dom, cod, cols=None):
        if active:
            doms.append(tuple(dom))
        real_init(self, dom, cod, cols)

    def matmul(self, other):
        if active:
            products.append((self, other))
        return real_matmul(self, other)

    def spy(dd):
        calls.append(dd)
        active.append(True)
        try:
            return check_convolution_compat(dd)
        finally:
            active.pop()

    monkeypatch.setattr(LinMap, "_of", classmethod(of))
    monkeypatch.setattr(LinMap, "__init__", init)
    monkeypatch.setattr(LinMap, "__matmul__", matmul)
    monkeypatch.setattr(duality, "check_convolution_compat", spy)
    assert cli.main(["verify", "taft4", "--suite", "all"]) == 0
    (dd,) = calls
    d = dd.source.dim
    assert doms and all(len(dom) <= 2 and total_dim(dom) <= d * d
                        for dom in doms), set(doms)
    galois_maps = galois(dd.source).values()
    assert products and not [
        (a, b) for a, b in products if b is dd.source.flipA
        and any(a == g for g in galois_maps)]


# On the four-dimensional model S^4 = id while delta = g and the dual
# modular element are nontrivial; the two conjugations compose to minus
# the identity, the sign being the scaling constant.
def test_radford_collapse_oracle(dual_cache):
    dd = dual_cache("sweedler")
    m, dm = dd.source, dd.dual
    s4 = m.antipode @ m.antipode @ m.antipode @ m.antipode
    assert s4 == m.idA
    conj = m.lmul(dd.haar.delta_inv) @ m.rmul(dd.haar.delta) \
        @ dm.lmul(dd.dual_haar.delta_inv) @ dm.rmul(dd.dual_haar.delta)
    assert conj == m.idA.scale(-Cyc.one(1))


def test_radford_nontrivial_antipode(dual_cache, taft3):
    s2 = taft3.antipode @ taft3.antipode
    assert s2 != taft3.idA
    assert s2 @ s2 != taft3.idA
    ensure(check_radford(dual_cache("taft3")))


def test_bidual_map_unit(dual_cache):
    dd = dual_cache("c_s3")
    kappa = bidual_map(dd)
    bidd = build_dual(dd.dual_haar)
    assert kappa(dd.source.unit) == bidd.dual.unit
    assert bidd.dual.name.endswith("^^")


def test_build_dual_rejects_broken_model(model_cache):
    with pytest.raises((ModelError, CheckFailure)):
        validated_dual(model_cache("broken"))


def test_mult_unitary_type(mw_cache):
    mw = mw_cache("c_z2")
    assert isinstance(mw, AlgMultUnitary)
    m = mw.duality.source
    assert mw.w.dom == m.AA and mw.w.cod == m.AA
