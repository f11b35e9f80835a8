from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qgcheck.errors import ModelError
from qgcheck.linalg import LinMap
from qgcheck.modular import (check_modular_structure, positive_definite,
                             solve_haar)
from qgcheck.models import GroupTable, build_function_algebra, builtin
from qgcheck.report import ensure
from qgcheck.scalars import Cyc, cyclotomic_polynomial


def test_uniform_weights_on_functions(haar_cache):
    h = haar_cache("c_s3")
    sixth = Cyc.rational(Fraction(1, 6))
    assert all(h.phi.entry(0, j) == sixth for j in range(6))
    assert h.delta == h.model.unit
    assert h.sigma == h.model.idA
    assert h.mu == Cyc.one(1)
    assert h.psi == h.phi


def test_point_mass_on_group_algebra(haar_cache):
    h = haar_cache("cg_s3")
    assert h.phi.entry(0, 0) == Cyc.one(1)
    assert all(h.phi.entry(0, j).is_zero() for j in range(1, 6))
    assert h.delta == h.model.unit
    assert h.sigma == h.model.idA
    assert h.psi == h.phi


def test_double_is_unimodular_trace(haar_cache):
    h = haar_cache("d_z3")
    assert h.delta == h.model.unit
    assert h.sigma == h.model.idA
    assert h.mu == Cyc.one(1)
    assert h.gram_positive


# Hand-computed data for the four-dimensional model, basis (1, x, g, gx):
# the left integral is the coefficient functional of gx, the value matrix
# P = phi(e_i e_j) has +-1 in the anti-diagonal pattern below, sigma is the
# sign flip on x and g, the modular element is g, and phi o S^2 = -phi.
def test_sweedler_modular_oracle(haar_cache, sweedler):
    h = haar_cache("sweedler")
    m = sweedler
    assert [h.phi.entry(0, j) for j in range(4)] == [
        Cyc.zero(), Cyc.zero(), Cyc.zero(), Cyc.one()]
    expected_p = LinMap.from_entries(m.A, m.A, [
        (0, 3, 1), (1, 2, -1), (2, 1, 1), (3, 0, 1)])
    assert h.pmat == expected_p
    expected_sigma = LinMap.from_entries(m.A, m.A, [
        (0, 0, 1), (1, 1, -1), (2, 2, -1), (3, 3, 1)])
    assert h.sigma == expected_sigma
    assert h.delta == m.element({"g": 1})
    assert h.delta_inv == m.element({"g": 1})
    assert h.mu == -Cyc.one(1)
    assert h.nu == -Cyc.one(1)
    assert not h.gram_positive


def test_taft3_scaling_constant(haar_cache, taft3):
    h = haar_cache("taft3")
    zeta = Cyc.zeta(3)
    assert h.mu == zeta ** 2
    assert h.nu == zeta
    assert h.delta == taft3.element({"g": 1})
    # integral sits on the coefficient of g x^2
    assert h.phi.entry(0, taft3.basis_index("gx2")) == Cyc.one(3)
    assert not h.gram_positive


@pytest.mark.parametrize("name", ["trivial", "c_z2", "c_z3", "c_s3", "cg_z3",
                                  "cg_s3", "d_z2", "d_z3", "sweedler", "taft3",
                                  "taft4"])
def test_modular_structure_identities(haar_cache, name):
    ensure(check_modular_structure(haar_cache(name)))


def test_modular_structure_double_s3(haar_cache):
    ensure(check_modular_structure(haar_cache("d_s3")))


def test_positivity_flag_mismatch_is_an_error():
    lying = replace(builtin("sweedler"), positive=True)
    with pytest.raises(ModelError, match="positive"):
        solve_haar(lying)
    lying2 = replace(builtin("c_z3"), positive=False)
    with pytest.raises(ModelError, match="positive"):
        solve_haar(lying2)


def test_psi_differs_from_phi_when_not_unimodular(haar_cache):
    h = haar_cache("sweedler")
    assert h.psi != h.phi
    # psi = phi o S lands on minus the coefficient of x
    assert h.psi.entry(0, h.model.basis_index("x")) == -Cyc.one(1)


def test_invariance_kernel_on_two_point_space():
    m = build_function_algebra(GroupTable.cyclic(2))
    h = solve_haar(m)
    half = Cyc.rational(Fraction(1, 2))
    assert [h.phi.entry(0, j) for j in range(2)] == [half, half]


# -- exact positivity of Hermitian matrices ----------------------------------


def _matrix(rows) -> LinMap:
    n = len(rows)
    return LinMap.from_dense((n,), (n,), rows)


@st.composite
def hermitian_matrices(draw):
    """Hermitian matrices of size <= 5 over Q(zeta_N) with small entries:
    either raw (real diagonal a + conj(a)) or a shifted Gram matrix
    B* B - t I, so definite, semidefinite and indefinite cases all occur.
    N = 5 and 8 carry real elements such as 2cos(2 pi/5) and sqrt(2), so
    their pivots need not be rational."""
    order = draw(st.sampled_from([1, 3, 4, 5, 8]))
    deg = len(cyclotomic_polynomial(order)) - 1
    size = draw(st.integers(1, 5))

    def elem():
        return Cyc(order, [Fraction(draw(st.integers(-3, 3)),
                                    draw(st.integers(1, 2)))
                           for _ in range(deg)])

    if draw(st.booleans()):
        rows = [[None] * size for _ in range(size)]
        for i in range(size):
            a = elem()
            rows[i][i] = a + a.conj()
            for j in range(i + 1, size):
                rows[i][j] = elem()
                rows[j][i] = rows[i][j].conj()
        return _matrix(rows)
    b = _matrix([[elem() for _ in range(size)] for _ in range(size)])
    shift = draw(st.sampled_from([0, Fraction(1, 2), 1, 3]))
    return b.adjoint() @ b - LinMap.identity((size,)).scale(shift)


@settings(max_examples=200, deadline=None)
@given(hermitian_matrices())
def test_positive_definite_matches_eigvalsh(m):
    assert m == m.adjoint()
    eigs = np.linalg.eigvalsh(m.to_numpy())
    scale = float(np.abs(eigs).max())
    assume(abs(eigs.min()) > 1e-6 * scale)
    assert positive_definite(m) == bool(eigs.min() > 0)


def test_positive_definite_fixed_cases():
    i = Cyc.zeta(4)
    # positive diagonal, but indefinite: pivots 1, -3
    assert not positive_definite(_matrix([[1, 2], [2, 1]]))
    # zero first pivot
    assert not positive_definite(_matrix([[0, 1], [1, 0]]))
    # over Q(i): pivots 2, 3/2
    assert positive_definite(_matrix([[2, i], [-i, 2]]))


def test_positive_definite_signs_irrational_pivots():
    sqrt2 = Cyc.zeta(8) + Cyc.zeta(8, 7)
    assert positive_definite(_matrix([[sqrt2, 1], [1, 1]]))
    assert not positive_definite(_matrix([[1, 1], [1, sqrt2 - 1]]))
    assert not positive_definite(_matrix([[-sqrt2]]))


def test_positive_definite_refuses_a_pivot_below_rounding():
    # sqrt(2) minus a continued-fraction convergent: |value| < 1e-14
    sqrt2 = Cyc.zeta(8) + Cyc.zeta(8, 7)
    tiny = sqrt2 - Cyc.rational(Fraction(22619537, 15994428), 8)
    assert tiny.is_real() and not tiny.is_rational()
    with pytest.raises(ModelError, match="pivot 1"):
        positive_definite(_matrix([[1, 0], [0, tiny]]))
