"""Morphisms between models and closed quantum subgroups.

A morphism from a model onto a second model is a unital *-algebra map pi
that intertwines the coproducts; when pi is surjective the second model
plays the role of a closed quantum subgroup and pi is the restriction
map.  Counit and antipode compatibility then come for free, but both are
asserted here rather than assumed.

Every morphism induces a dual morphism pi_hat running the other way
between the convolution algebras, pinned down by the pairing identity
(pi_hat(x), a) = (x, pi(a)).  In shared coordinates, where the pairing
is (f, a) = phi(a f), this gives the closed form

    pi_hat = P_src^-1 o pi^T o P_tgt,   P[i, j] = phi(e_i e_j),

which is exact.  The module verifies the multiplier-level product
formulas for pi_hat, the conditional expectation
pi(pi_hat(x) u pi_hat(y)) = x pi(u) y, and the subgroup certificate:
composing pi_hat with the convolution representation of the large model
is an injective *-homomorphism, so the small convolution algebra sits
inside the large one with matching operator norms.

Everything is exact arithmetic over Q(zeta_N), the representation-level
records included: they read the left regular representation of each
convolution algebra in coordinates, with the Gram form of phi as the
inner product, so the module imports neither numpy nor the GNS layer.
"""

from dataclasses import dataclass

from .duality import Duality, build_dual, regular
from .errors import CheckFailure, ModelError, TierRefusal
from .hopf import QGModel
from .linalg import (LinMap, Vec, apply_on_legs, inverse, kernel,
                     minimal_polynomial, rank, solve_linear)
from .models import GroupTable, build_function_algebra, builtin
from .modular import require_unit_scaling, solve_haar
from .report import Checker, CheckRecord


@dataclass(frozen=True)
class QGMorphism:
    """A linear map pi from the source model onto the target model.

    The map is stored raw; validate_morphism checks the axioms.  A valid
    surjective pi presents the target as a closed quantum subgroup of
    the source.
    """

    source: QGModel
    target: QGModel
    pi: LinMap

    def __post_init__(self):
        if self.pi.dom != self.source.A or self.pi.cod != self.target.A:
            raise ModelError(
                f"morphism legs {self.pi.dom}->{self.pi.cod} do not match "
                f"{self.source.name} -> {self.target.name}")

    @property
    def label(self) -> str:
        return f"{self.source.name}->{self.target.name}"


@dataclass(frozen=True)
class DualMorphism:
    """The induced map pi_hat between convolution algebras.

    pi_hat goes from the dual of the target into the dual of the source,
    in shared coordinates, and satisfies (pi_hat(x), a) = (x, pi(a)).
    """

    morphism: QGMorphism
    source_duality: Duality
    target_duality: Duality
    pi_hat: LinMap


# -- constructions ---------------------------------------------------------

def identity_morphism(model: QGModel) -> QGMorphism:
    return QGMorphism(model, model, LinMap.identity(model.A))


def restriction_morphism(group: GroupTable, indices) -> QGMorphism:
    """Restriction of functions from a group to a subgroup.

    Builds both function algebras and the map delta_g |-> [g in H] delta_g;
    raises ModelError when the index set is not a subgroup.
    """
    sub, old = group.subgroup(indices)
    source = build_function_algebra(group)
    target = build_function_algebra(sub)
    one = source.scalar(1)
    entries = [(new, g, one) for new, g in enumerate(old)]
    pi = LinMap.from_entries(source.A, target.A, entries)
    return QGMorphism(source, target, pi)


def counit_morphism(model: QGModel) -> QGMorphism:
    """The map onto the trivial model given by the counit."""
    target = builtin("trivial")
    pi = model.counit.relabel(model.A, target.A)
    return QGMorphism(model, target, pi)


def compose_morphisms(outer: QGMorphism, inner: QGMorphism) -> QGMorphism:
    """outer o inner, defined when inner's target is outer's source."""
    mid, src = inner.target, outer.source
    if (mid.name, mid.dim) != (src.name, src.dim):
        raise ModelError(
            f"cannot compose: {inner.label} ends at {mid.name}, "
            f"{outer.label} starts at {src.name}")
    return QGMorphism(inner.source, outer.target, outer.pi @ inner.pi)


# -- morphism axioms -------------------------------------------------------

def _structure_records(ck: Checker, src: QGModel, tgt: QGModel, pi: LinMap):
    """Hopf *-algebra morphism axioms for pi: src -> tgt, all exact."""
    ck.exact("unital", "pi(1) = 1",
             lambda: pi(src.unit) - tgt.unit)
    ck.exact("multiplicative", "pi(ab) = pi(a) pi(b)",
             lambda: pi @ src.mult - apply_on_legs(tgt.mult, (0, 1), pi, pi))
    ck.exact("star", "pi(a*) = pi(a)*",
             lambda: pi @ src.invol - tgt.invol @ pi.conj())
    ck.exact("coproduct", "coprod(pi(a)) = (pi (x) pi) coprod(a)",
             lambda: tgt.coprod @ pi - pi.tensor(pi) @ src.coprod)
    ck.exact("counit", "counit = counit o pi (automatic, asserted)",
             lambda: src.counit - tgt.counit @ pi)
    ck.exact("antipode", "S(pi(a)) = pi(S(a)) (automatic, asserted)",
             lambda: tgt.antipode @ pi - pi @ src.antipode)


def validate_morphism(mor: QGMorphism) -> list[CheckRecord]:
    """Check the morphism axioms plus surjectivity, all exact."""
    ck = Checker(f"{mor.label}.morphism")
    _structure_records(ck, mor.source, mor.target, mor.pi)

    def onto():
        r = mor.pi.dom_dim - len(kernel(mor.pi))
        if r != mor.target.dim:
            raise CheckFailure(
                f"rank {r} < target dimension {mor.target.dim}")
        return True

    ck.exact("surjective", "pi maps onto the target", onto)
    return ck.records


# -- the dual morphism -----------------------------------------------------

def _dual_morphism(mor: QGMorphism, sdd: Duality, tdd: Duality):
    """pi_hat of mor, given the dualities of its source and its target."""
    return DualMorphism(mor, sdd, tdd, sdd.haar.pmat_inv @ mor.pi.transpose()
                        @ tdd.haar.pmat)


def build_dual_morphism(mor: QGMorphism) -> DualMorphism:
    """Construct pi_hat from (pi_hat(x), a) = (x, pi(a)).

    With (f, a) = phi(a f) the identity reads P_src pi_hat = pi^T P_tgt,
    solved exactly by the stored inverse pairing matrix.  The Haar data and
    the duality of source and target are built here, once each.  The
    morphism axioms are not checked here; run ``validate_morphism`` first.
    """
    return _dual_morphism(mor, build_dual(solve_haar(mor.source)),
                          build_dual(solve_haar(mor.target)))


def check_dual_morphism(dm: DualMorphism) -> list[CheckRecord]:
    """Exact properties of pi_hat: pairing, Hopf axioms, multipliers.

    pi_hat is itself a morphism between the dual models (injective, not
    surjective), and its products with elements of the source algebra
    satisfy the closed multiplier formulas

      pi_hat(x) * u = sum phi_tgt(S^-1(pi(u_(1))) x) u_(2)
      u * pi_hat(x) = sum u_(1) phi_tgt(pi(delta S(u_(2))) x)
                    = sum u_(1) phi_tgt(S^-1(x) pi(u_(2))
                                        pi(delta^-1) delta_tgt)

    where products inside phi_tgt happen in the target algebra on shared
    coordinates and * is the source convolution.
    """
    mor = dm.morphism
    src, tgt, pi = mor.source, mor.target, mor.pi
    dg, dh = dm.source_duality.dual, dm.target_duality.dual
    haar_g, haar_h = dm.source_duality.haar, dm.target_duality.haar
    ck = Checker(f"{mor.label}.dual")

    ck.exact("pairing", "(pi_hat(x), a) = (x, pi(a))",
             lambda: haar_g.pmat @ dm.pi_hat - pi.transpose() @ haar_h.pmat)
    _structure_records(ck, dh, dg, dm.pi_hat)

    id_g, p_h, s_inv_h = src.idA, haar_h.pmat, tgt.antipode_inv

    def left_formula(pairing: LinMap) -> LinMap:
        # pairing[x, p] = phi_tgt(S^-1(pi(e_p)) e_x) pairs u_(1) = e_p with x
        return apply_on_legs(dg.mult, (0, 1), dm.pi_hat, id_g) - apply_on_legs(
            pairing, (0,), src.coprod).regroup((1, 0, 2), 1)

    def right_formula(pairing: LinMap) -> LinMap:
        # pairing[x, q] pairs u_(2) = e_q with x
        return apply_on_legs(dg.mult, (0, 1), id_g, dm.pi_hat) - apply_on_legs(
            pairing, (1,), src.coprod).regroup((0, 2, 1), 1)

    ck.exact("multiplier-left",
             "pi_hat(x) * u = sum phi(S^-1(pi(u_(1))) x) u_(2)",
             lambda: left_formula(p_h.transpose() @ s_inv_h @ pi))
    # pairing[x, q] = phi_tgt(pi(delta S(e_q)) e_x)
    ck.exact("multiplier-right",
             "u * pi_hat(x) = sum u_(1) phi(pi(delta S(u_(2))) x)",
             lambda: right_formula(
                 p_h.transpose() @ pi @ src.lmul(haar_g.delta) @ src.antipode))

    # pairing[x, q] = phi_tgt(S^-1(e_x) pi(e_q) tail)
    tail = tgt.mul(pi(haar_g.delta_inv), haar_h.delta)
    ck.exact("multiplier-right-alt",
             "u * pi_hat(x) = sum u_(1) phi(S^-1(x) pi(u_(2)) "
             "pi(delta^-1) delta_tgt)",
             lambda: right_formula(
                 s_inv_h.transpose() @ p_h @ tgt.rmul(tail) @ pi))
    return ck.records


# -- expectation -----------------------------------------------------------

def check_expectation(dm: DualMorphism) -> list[CheckRecord]:
    """pi, read on convolution algebras, averages over the subgroup.

    The identity pi(pi_hat(x) * u * pi_hat(y)) = x * pi(u) * y lives on
    the triple tensor space (k, n, k).  It is decided through its two
    one-sided laws, each a map on k n columns:

      L = pi o conv_G o (pi_hat (x) id) - conv_H o (id (x) pi),
      R = pi o conv_G o (id (x) pi_hat) - conv_H o (pi (x) id).

    L = R = 0 passes the record with no premise, since
    pi((pi_hat(x) * u) * pi_hat(y)) = pi(pi_hat(x) * u) * y
    = (x * pi(u)) * y.  The converse, at x = 1 or y = 1, needs
    pi_hat(1) = 1 and the unit laws of both convolution products, which
    this record does not check.  So a nonzero L or R leaves the record to
    the composed difference pi o conv_G o (conv_G (x) id) o (pi_hat (x) id
    (x) pi_hat) - conv_H o (conv_H (x) id) o (id (x) pi (x) id), which
    decides it and names the witness: every record is the composed
    form's.  The companion record documents that pi need not intertwine
    the convolution involutions: the outcome is reported, never required.
    """
    mor = dm.morphism
    pi, hat = mor.pi, dm.pi_hat
    dg, dh = dm.source_duality.dual, dm.target_duality.dual
    conv_g, conv_h = dg.mult, dh.mult
    id_g, id_h = mor.source.idA, mor.target.idA
    ck = Checker(f"{mor.label}.expectation")

    def bimodule():
        pconv = pi @ conv_g
        left = apply_on_legs(pconv, (0, 1), hat, id_g) - apply_on_legs(conv_h, (0, 1), id_h, pi)
        right = apply_on_legs(pconv, (0, 1), id_g, hat) - apply_on_legs(conv_h, (0, 1), pi, id_h)
        if left.is_zero() and right.is_zero():
            return left
        return apply_on_legs(pconv, (0, 1), apply_on_legs(conv_g, (0, 1), hat, id_g), hat) \
            - apply_on_legs(conv_h, (0, 1), apply_on_legs(conv_h, (0, 1), id_h, pi), id_h)

    ck.exact("bimodule", "pi(pi_hat(x) * u * pi_hat(y)) = x * pi(u) * y",
             bimodule)

    holds = (pi @ dg.invol - dh.invol @ pi.conj()).is_zero()
    ck.skip("involution-caveat",
            "pi need not intertwine the convolution involutions",
            f"not required; here pi {'does' if holds else 'does not'}")
    return ck.records


# -- subgroup certificate --------------------------------------------------

def certify_vaes(dm: DualMorphism,
                 dual: list[CheckRecord]) -> list[CheckRecord]:
    """Certify the closed-subgroup embedding of convolution algebras.

    Every record is exact.  pi_hat respects convolution products, adjoints
    and units, restating the records ``dual`` of ``check_dual_morphism``;
    pi_hat has zero kernel; both pairing forms separate points; the
    evaluation functionals are preimage-independent, meaning
    counit(pi_hat(x) * v) = 0 for v in the kernel of pi; and the functional
    identity counit_tgt(x * a) = counit_src(pi_hat(x) * b) holds for the
    preimages b of all a from one ``solve_linear``; both are identities on pairs.

    The records represented, represented-injective and norm-transport read
    the left regular representation lambda(v) = L_v of each convolution
    algebra (Vaes's sense) in coordinates, where the GNS inner product is
    the Gram form G = [phi(e_i* e_j)] and the Hilbert adjoint of T is
    G^-1 T^H G.  x |-> lambda_src(pi_hat(x)), the one map lambda o pi_hat,
    is a unital *-homomorphism (G L(x^#) = L(x)^H G) of rank k; and for
    each basis x the operators lambda(pi_hat(x))^dagger lambda(pi_hat(x))
    and lambda(x)^dagger lambda(x), self-adjoint for a positive-definite G
    and so diagonalizable, have equal minimal polynomials, hence equal
    spectra and equal operator norms.  These three are skipped with the
    refusal reason when the Haar data of either duality of dm has mu != 1
    (``require_unit_scaling``) or a Gram form that is not positive definite.
    """
    mor = dm.morphism
    src, tgt, pi = mor.source, mor.target, mor.pi
    dg, dh = dm.source_duality.dual, dm.target_duality.dual
    k = tgt.dim
    ck = Checker(f"{mor.label}.vaes")
    decided = {r.check_id.removeprefix(f"{mor.label}.dual."): r for r in dual}

    ck.exact("dual-homomorphism", "pi_hat(x * y) = pi_hat(x) * pi_hat(y)",
             lambda: decided["multiplicative"])
    ck.exact("dual-star", "pi_hat(x^#) = pi_hat(x)^#", lambda: decided["star"])
    ck.exact("dual-unital", "pi_hat maps convolution unit to convolution unit",
             lambda: decided["unital"])

    def injective():
        ker = kernel(dm.pi_hat)
        if ker:
            raise CheckFailure(
                f"kernel of pi_hat contains {dh.show(ker[0])}")
        return True

    ck.exact("injective", "pi_hat has zero kernel", injective)

    haar_g, haar_h = dm.source_duality.haar, dm.target_duality.haar
    ck.exact("l1-separation.source", "pairing form of the source is invertible",
             lambda: haar_g.pmat @ haar_g.pmat_inv - src.idA)
    ck.exact("l1-separation.target", "pairing form of the target is invertible",
             lambda: haar_h.pmat @ haar_h.pmat_inv - tgt.idA)

    ker_pi = kernel(pi)
    x_basis = [tgt.basis_vec(x) for x in range(k)]

    def on_pairs(right: LinMap) -> LinMap:
        """[x, j] = counit(pi_hat(e_x) * right(e_j))."""
        return apply_on_legs(src.counit @ dg.mult, (0, 1), dm.pi_hat,
                             right).regroup((0, 1), 1)

    def preimage_free():
        vals = on_pairs(LinMap((len(ker_pi),), src.A,
                               dict(enumerate(v.data for v in ker_pi))))
        if vals.cols:
            j, x = min((j, min(col)) for j, col in vals.cols.items())
            raise CheckFailure(
                f"counit(pi_hat(e_{x}) * v) = {vals.entry(x, j)!r} for kernel "
                f"element v = {src.show(ker_pi[j])}")
        return True

    law = "counit(pi_hat(x) * v) = 0 for v in ker(pi)"
    if ker_pi:
        ck.exact("preimage-independence", law, preimage_free)
    else:
        ck.skip("preimage-independence", law, "pi is injective; preimages are unique")

    def functional_identity():
        b, _ = solve_linear(pi, tgt.idA)  # a column left zero has no preimage
        lhs, rhs = (tgt.counit @ dh.mult).regroup((0, 1), 1), on_pairs(b)
        diff = lhs - rhs
        a = min(set(range(k)) - set(b.cols) | set(diff.cols), default=None)
        if a is None:
            return True
        if a not in b.cols:
            raise CheckFailure(f"target basis {a} has no preimage")
        x = min(diff.cols[a])
        raise CheckFailure(
            f"(x, a) = ({x}, {a}): counit(x * a) = {lhs.entry(x, a)!r}, "
            f"counit(pi_hat(x) * b) = {rhs.entry(x, a)!r}")

    ck.exact("functional-identity",
             "counit(x * a) = counit(pi_hat(x) * b) for pi(b) = a",
             functional_identity)

    # Representation-level records, in the coordinates of the Gram form.
    try:
        reason = next((f"{h.model.name}: Gram matrix of phi is not positive "
                       "definite" for h in (haar_g, haar_h)
                       if not require_unit_scaling(h).gram_positive), None)
    except TierRefusal as e:
        reason = str(e)
    if reason:
        for check_id in ("represented", "represented-injective",
                         "norm-transport"):
            ck.skip(check_id, "regular-representation record", reason)
        return ck.records

    lam = regular(dg) @ dm.pi_hat

    def rep_of(v: Vec) -> LinMap:
        """lambda_src(pi_hat(v)), the column of lambda o pi_hat at v."""
        return (lam @ v).regroup((0, 1), 1)

    rep = [rep_of(xv) for xv in x_basis]

    def represented():
        if rep_of(dh.unit) != src.idA:
            raise CheckFailure("lambda(pi_hat(1)) is not the identity")
        gram = haar_g.gram
        for x, xv in enumerate(x_basis):
            if gram @ rep_of(dh.bar(xv)) != rep[x].adjoint() @ gram:
                raise CheckFailure(f"lambda(pi_hat(e_{x}^#)) is not the "
                                   f"adjoint of lambda(pi_hat(e_{x}))")
            for y, yv in enumerate(x_basis):
                if rep_of(dh.mul(xv, yv)) != rep[x] @ rep[y]:
                    raise CheckFailure(
                        f"lambda(pi_hat(e_{x} * e_{y})) != "
                        f"lambda(pi_hat(e_{x})) lambda(pi_hat(e_{y}))")
        return True

    ck.exact("represented",
             "x |-> lambda(pi_hat(x)) is a unital *-homomorphism",
             represented)

    def rep_rank():
        got = rank(lam)
        if got != k:
            raise CheckFailure(f"represented rank {got} of {k}")
        return True

    ck.exact("represented-injective",
             "lambda o pi_hat has full rank", rep_rank)

    def norms():
        gram_s, gram_t = haar_g.gram, haar_h.gram
        inv_s, inv_t = inverse(gram_s), inverse(gram_t)
        for x, xv in enumerate(x_basis):
            # lambda^dagger lambda = G^-1 lambda^H G lambda on each side
            lam_t = dh.lmul(xv)
            p_s = minimal_polynomial(
                inv_s @ rep[x].adjoint() @ gram_s @ rep[x])
            p_t = minimal_polynomial(inv_t @ lam_t.adjoint() @ gram_t @ lam_t)
            if p_s != p_t:
                raise CheckFailure(
                    f"basis {x}: lambda(pi_hat(x))^dagger lambda(pi_hat(x)) "
                    "and lambda(x)^dagger lambda(x) have different minimal "
                    "polynomials")
        return True

    ck.exact("norm-transport",
             "operator norms of lambda(pi_hat(x)) and lambda(x) agree", norms)
    return ck.records


# -- functoriality ---------------------------------------------------------

def check_functoriality(inner: QGMorphism, outer: QGMorphism) -> list[CheckRecord]:
    """Duality is contravariant: identities and composites transport.  The
    duality of each model (outer's source is inner's target) is built once.
    """
    composed = compose_morphisms(outer, inner)
    g, k, h = (build_dual(solve_haar(m))
               for m in (inner.source, outer.source, outer.target))
    dmi = _dual_morphism(inner, g, k)
    dmo = _dual_morphism(outer, k, h)
    dmc = _dual_morphism(composed, g, h)
    ck = Checker(f"{composed.label}.functorial")
    ck.exact("identity", "dual of the identity morphism is the identity",
             lambda: _dual_morphism(identity_morphism(inner.source), g,
                                    g).pi_hat - inner.source.idA)
    ck.exact("compose", "(pi2 o pi1)^ = pi1^ o pi2^",
             lambda: dmc.pi_hat - dmi.pi_hat @ dmo.pi_hat)
    return ck.records
