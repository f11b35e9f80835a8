"""Tests for the GNS realization and the analytic layer built on it."""

import dataclasses

import numpy as np
import pytest

from qgcheck import gns as G
from qgcheck.errors import TierRefusal
from qgcheck.gns import rel_residual
from qgcheck.models import GroupTable
from qgcheck.report import ensure

FULL_SUITE = ["trivial", "c_z2", "c_z3", "c_s3", "cg_z2", "cg_s3", "d_z3"]


def run_all_checks(g):
    return G.analytic_suite(g)


def test_refusal_scaling_constant(sweedler, taft3):
    for model in (sweedler, taft3):
        with pytest.raises(TierRefusal, match="mu"):
            G.build_gns(model)


def test_refusal_non_positive_gram(model_cache):
    # negating the involution negates the Gram matrix phi(a* b)
    m = model_cache("c_z2")
    spoiled = dataclasses.replace(
        m, invol=m.invol.scale(m.scalar(-1)), positive=False)
    with pytest.raises(TierRefusal, match="eigenvalue"):
        G.build_gns(spoiled)


def test_tolerances_reach_every_numeric_record(model_cache):
    # identity 1e-12 puts spectral at 1e-10 and multiplier at 1e-11; the
    # rank and span records keep their fixed threshold of 0.5
    tol = G.Tolerances(1e-12)
    assert (tol.spectral, tol.multiplier) == (1e-10, 1e-11)
    g = G.build_gns(model_cache("c_z2"), tol)
    assert g.tol == tol
    used = {r.tolerance for r in G.analytic_suite(g)} - {None}
    assert used == {1e-12, 1e-10, 1e-11, 0.5}


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
def test_tolerances_reject_unusable_values(value):
    with pytest.raises(ValueError, match="finite number > 0"):
        G.Tolerances(value)


def test_trivial_model(gns_cache):
    g = gns_cache("trivial")
    assert g.dim == 1
    assert rel_residual(g.w, np.eye(1)) <= g.tol.identity
    for calc in g.calculi.values():
        assert rel_residual(calc.matrix, np.eye(1)) <= g.tol.identity
    ensure(run_all_checks(g))


def test_function_algebra_gram_is_normalized_counting(gns_cache):
    # phi is the normalized counting measure, so the basis of indicator
    # functions is orthogonal with norm^2 = 1/|G|
    g = gns_cache("c_z2")
    assert rel_residual(g.gram, np.eye(2) / 2) <= g.tol.identity


def test_w_is_translation_permutation_on_function_algebra(gns_cache):
    # on C(S3) the multiplicative unitary sends e_a (x) e_b to e_a (x) e_ab
    g = gns_cache("c_s3")
    table = GroupTable.symmetric(3)
    d = g.dim
    for a in range(d):
        for b in range(d):
            col = g.w[:, a * d + b]
            expect = np.zeros(d * d)
            expect[a * d + table.mul(a, b)] = 1.0
            assert rel_residual(col, expect) <= g.tol.identity


@pytest.mark.parametrize("name", FULL_SUITE)
def test_full_check_suite(gns_cache, name):
    ensure(run_all_checks(gns_cache(name)))


@pytest.mark.parametrize("name", FULL_SUITE)
def test_kac_models_have_identity_modular_operators(gns_cache, name):
    g = gns_cache(name)
    eye = np.eye(g.dim)
    for calc_name, calc in g.calculi.items():
        assert rel_residual(calc.matrix, eye) <= g.tol.identity, calc_name
    records = G.check_kac_triviality(g)
    assert all(r.status == "pass" for r in records)


def test_left_slice_oracle_c_z2(gns_cache):
    # on C(Z2): (iota (x) omega_{L e_x, L e_y})(W) = (1/2) m(e_{x+y})
    g = gns_cache("c_z2")
    w4 = g.w.reshape(2, 2, 2, 2)
    for x in range(2):
        for y in range(2):
            got = np.einsum("icjd,c,d->ij", w4,
                            np.conj(g.lam[:, x]), g.lam[:, y])
            want = 0.5 * g.m_rep[(x + y) % 2]
            assert rel_residual(got, want) <= g.tol.identity


def test_coproduct_of_grouplike_basis(gns_cache):
    # in a group algebra W^H (1 (x) m(u_g)) W = m(u_g) (x) m(u_g)
    g = gns_cache("cg_z2")
    eye = np.eye(2)
    for k in range(2):
        got = g.w.conj().T @ np.kron(eye, g.m_rep[k]) @ g.w
        assert rel_residual(got, np.kron(g.m_rep[k], g.m_rep[k])) \
            <= g.tol.identity


def test_complex_power_multipliers(gns_cache):
    for name in ("c_s3", "d_z3"):
        g = gns_cache(name)
        for z in (0.5, 1j, 1 + 1j):
            ensure(G.complex_powers_as_multipliers(g, z))


def test_rho_is_trivial_on_kac_models(gns_cache):
    g = gns_cache("c_s3")
    n_calc = g.calculi["n"]
    for z in (0.5, 1j, 1 + 1j):
        assert rel_residual(n_calc.power(1j * z), np.eye(g.dim)) \
            <= g.tol.spectral


def test_kms_bound_is_equality_on_group_algebra(gns_cache):
    # with an orthonormal group-element basis both sides equal 1
    g = gns_cache("cg_s3")
    nabla_c = g.calculi["nabla"]
    sig = nabla_c.power(-0.5)
    sig_inv = nabla_c.power(0.5)
    eye = np.eye(g.dim)
    for i in (0, 3):
        for j in (1, 4):
            lhs = float(np.linalg.norm(g.m_rep[j] @ g.lam[:, i]))
            bound = float(np.linalg.norm(
                sig @ g.m_of(g.star_np(eye[:, i])) @ sig_inv, 2))
            rhs = bound * float(np.linalg.norm(g.lam[:, j]))
            assert abs(lhs - 1.0) <= g.tol.identity
            assert abs(rhs - 1.0) <= g.tol.identity


def test_fourier_isometry_constant(gns_cache):
    # Gram = I/6 while the dual basis vectors carry an extra 1/6, giving a
    # dual Gram of I/36 and an isometry constant of 1/6
    g = gns_cache("c_s3")
    dual_gram = g.dual.dual_haar.gram.to_numpy()
    scale = float(np.real(np.trace(dual_gram) / np.trace(g.gram)))
    assert abs(scale - 1.0 / 6.0) <= 1e-9
    assert rel_residual(dual_gram, scale * g.gram) <= g.tol.identity
    assert rel_residual(dual_gram, np.eye(6) / 36) <= g.tol.identity


def test_modular_conjugation_reduces_to_involution(gns_cache):
    # with nabla = I the polar part J equals T, and T implements conj
    g = gns_cache("c_s3")
    assert rel_residual(g.nabla, np.eye(g.dim)) <= g.tol.identity
    assert rel_residual(g.j_mat, g.t_mat) <= g.tol.spectral
    for k in range(g.dim):
        got = g.t_mat @ np.conj(g.lam[:, k])
        want = g.lam @ g.invol[:, k]
        assert rel_residual(got, want) <= g.tol.identity


def test_unitary_antipode_reduces_to_antipode(gns_cache):
    # tau is trivial on a Kac model, so R = S on coordinates
    g = gns_cache("c_s3")
    r_mat, resid = G.unitary_antipode(g)
    assert resid <= g.tol.multiplier
    assert rel_residual(r_mat, g.antipode) <= g.tol.spectral


def test_power_calculus_failure_names_operator():
    with pytest.raises(Exception, match="not positive definite"):
        G.PositiveOperatorCalculus("probe", np.diag([1.0, -2.0]),
                                   G.Tolerances())


def test_power_calculus_square_root():
    h = np.array([[2.0, 1.0], [1.0, 2.0]])
    calc = G.PositiveOperatorCalculus("h", h, G.Tolerances())
    root = calc.power(0.5)
    assert rel_residual(root @ root, h) <= 1e-12
    assert rel_residual(calc.power(-1) @ h, np.eye(2)) <= 1e-12


def test_large_double_builds_and_slices(gns_cache):
    g = gns_cache("d_s3")
    assert g.dim == 36
    ensure(G.check_regular_reps(g))
    records = G.check_coproduct_implementation(g)
    assert all(r.status == "skip" for r in records)
