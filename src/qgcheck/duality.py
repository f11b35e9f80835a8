"""Dual quantum group realized on the same coordinate space.

The invariant functional phi identifies elements with functionals through
F: b |-> phi(. b), so the dual algebra can be carried by the original
coordinate space.  The pairing is (f, a) = phi(a f) and extends to tensors
leg by leg.  The dual structure maps are fixed by skew-duality:

  convolution product   (f*g, a)        = (f (x) g, coprod a)
  convolution unit      (1^, a)         = eps(a)
  dual coproduct        (coprod^ f, a(x)b) = (f, ba)
  dual counit           eps^(f)         = (f, 1) = phi(f)
  dual antipode         (S^ f, a)       = (f, S^-1 a)
  dual involution       (f^*, a)        = conj((f, (S a)^*))
  dual Haar             phi^(F(a)) proportional to eps(a)

Each map is obtained by solving its defining equation against the value
matrix P[i, j] = phi(e_i e_j); closed-form expressions in terms of S,
sigma and delta are then verified as checks, never assumed.  The
convolution product is the closed matrix identity

  P conv = coprod^T (P (x) P),   so   conv = P^-1 coprod^T (P (x) P),

formed from d coproduct columns rather than d^3 pairings.

Models whose scaling constant mu = phi(S^2 .)/phi(.) differs from 1 (the
quantized-function families; every positive model has mu = 1) satisfy the
twisted identities only up to explicit powers of mu.  The checks below
assert the exact mu-corrected laws, which collapse to the familiar ones
whenever mu = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

from .errors import ModelError, SingularMap
from .hopf import QGModel, galois_map
from .linalg import LinMap, Vec, apply_on_legs, require_bijective
from .modular import HaarData, alpha_map, form_matrix, solve_haar
from .report import FAIL, CheckRecord, Checker, require_zero

PENTAGON_LAW = ("w12 w13 w23 = w23 w12 on A (x) A (x) A (on 1 (x) e_b (x) e_c "
                "given w(a (x) b) = w(1 (x) b)(a (x) 1), else on all triples)")


@dataclass(frozen=True)
class Duality:
    """A model together with its dual, both on one coordinate space."""
    source: QGModel
    haar: HaarData
    dual: QGModel
    dual_haar: HaarData


@dataclass(frozen=True)
class AlgMultUnitary:
    """The algebraic multiplicative unitary on A (x) A.

    w(a(x)b) = S^-1(b_(1)) a (x) b_(2) and w_inv = gl o flip, a(x)b |->
    coprod(b)(a(x)1), compose to the identity exactly.  What records and
    refusals read is memoized, built once per w; G is the Gram matrix of
    ``duality.haar``.
    """
    duality: Duality
    w: LinMap
    w_inv: LinMap

    @cached_property
    def pentagon_defect(self) -> LinMap:
        """P = w12 w13 w23 - w23 w12 on the vectors x (x) e_b (x) e_c, built
        once for both pentagon records.  Under the leg-1 identity
        (``leg_one_defect`` zero) w, so P, commutes with right multiplication
        on leg 1 (A is associative and unital), and x = 1, d^2 columns,
        decides P = 0 on A (x) A (x) A; otherwise x runs over the basis, all
        d^3 triples.  w12 E and w23 E are built from w's columns."""
        m, w = self.duality.source, self.w
        i = m.idA
        x = m.unit if leg_one_defect(m, w).is_zero() else i
        lhs = apply_on_legs(w, (0, 1), apply_on_legs(w, (0, 2), x, w))
        return lhs - apply_on_legs(w, (1, 2), apply_on_legs(w, (0, 1), x, i), i)

    @cached_property
    def inverse_defect(self) -> LinMap:
        """w w_inv - 1; w is square, so its zero makes w_inv two-sided."""
        return self.w @ self.w_inv - LinMap.identity(self.w.dom)

    @cached_property
    def gram_defect(self) -> LinMap:
        """w^H (G (x) G) w - G (x) G, zero exactly when W is unitary."""
        gram = self.duality.haar.gram
        gg = gram.tensor(gram)
        return self.w.adjoint() @ gg @ self.w - gg

    @cached_property
    def slices(self) -> tuple[LinMap, LinMap]:
        """W's slices omega_{Lambda e_a, Lambda e_b} on legs 0 and 1, column
        a d + b the block at (a, b) of (G (x) 1) w or (1 (x) G) w; slices are
        sesquilinear and the Lambda e_a span, so these d^2 decide them all."""
        gram = self.duality.haar.gram
        return tuple(apply_on_legs(gram, (leg,), self.w).regroup(order, 2)
                     for leg, order in ((0, (1, 3, 0, 2)), (1, (0, 2, 1, 3))))


def build_dual(haar: HaarData) -> Duality:
    """Construct the dual model of ``haar.model`` on the same coordinate
    space, with the dual's own Haar data.

    The result is not validated here: ``check_dual`` and the other checks
    below assert its laws, and the ``dual`` verb runs ``validate_model``
    and ``check_modular_structure`` on it before writing it out.
    """
    model = haar.model
    d = model.dim
    A, AA = model.A, model.AA
    phi, pmat, pmat_inv = haar.phi, haar.pmat, haar.pmat_inv

    # product: P conv = coprod^T (P(x)P), the pairing identity
    # (f*g, a) = (f(x)g, coprod a) for all basis f, g, a at once.  Its
    # right side is the transpose of (P^T(x)P^T) coprod, formed by applying
    # P^T to both legs of each coproduct column, so
    # conv = P^-1 ((P^T(x)P^T) coprod)^T.
    pt = pmat.transpose()
    paired = apply_on_legs(pt, (0,), apply_on_legs(pt, (1,), model.coprod))
    conv = pmat_inv @ paired.transpose()

    # unit: phi(e_k u) = eps(e_k)
    conv_unit = pmat_inv(model.counit.transpose())

    # coproduct: column f solves (P(x)P) X = W, W[(i, j), f] = phi(e_j e_i
    # e_f) = (P^T mult flip)^T[(i, j), f], the pairing of coprod^(f) against
    # e_i(x)e_j going through the product e_j e_i; columns in ascending f
    w = (pmat.transpose() @ model.mult @ model.flipA).transpose()
    w = LinMap._of(A, AA, dict(sorted(w.cols.items())))
    dcop = apply_on_legs(pmat_inv, (0,), apply_on_legs(pmat_inv, (1,), w))

    # antipode: P S^ = (S^-1)^T P
    dantipode = pmat_inv @ model.antipode_inv.transpose() @ pmat

    # involution: P C^ = (conj(C) S)^T conj(P)
    dinvol = pmat_inv @ (model.invol.conj() @ model.antipode).transpose() \
        @ pmat.conj()

    dual = QGModel(
        name=f"{model.name}^", order=model.order, dim=d,
        basis=tuple(f"{lab}^" for lab in model.basis),
        unit=conv_unit, mult=conv, coprod=dcop, counit=phi,
        antipode=dantipode, invol=dinvol, positive=model.positive)
    return Duality(source=model, haar=haar, dual=dual,
                   dual_haar=solve_haar(dual))


def check_dual(dd: Duality) -> list[CheckRecord]:
    """Pairing laws and closed forms of the dual structure maps."""
    m, h, dm, dh = dd.source, dd.haar, dd.dual, dd.dual_haar
    P, phi = h.pmat, h.phi
    S, Sinv, C = m.antipode, m.antipode_inv, m.invol
    mu = h.mu
    ck = Checker(f"{m.name}.dual")

    ck.exact("pair.product", "(f*g, a) = (f (x) g, coprod a)",
             lambda: P @ dm.mult - apply_on_legs(m.coprod.transpose(), (0, 1), P, P))
    ck.exact("pair.unit", "(1^, a) = eps(a)",
             lambda: P(dm.unit) - m.counit.transpose())

    def pair_coproduct():
        # independent route: (coprod^ e_k, e_i (x) e_j) = phi(e_j e_i e_k),
        # one functional on e_j (x) e_i (x) e_k with its legs read as i, j, k
        func = apply_on_legs(phi @ m.mult, (0, 1), m.idA, m.mult)
        return P.tensor(P) @ dm.coprod - func.regroup((1, 0, 2), 2)

    ck.exact("pair.coproduct", "(coprod^ f, a (x) b) = (f, ba)", pair_coproduct)
    ck.exact("pair.counit", "eps^(f) = (f, 1) = phi(f)",
             lambda: dm.counit - phi)
    ck.exact("pair.antipode", "(S^ f, a) = (f, S^-1 a)",
             lambda: P @ dm.antipode - Sinv.transpose() @ P)
    ck.exact("pair.antipode-inv", "(S^-1^ f, a) = (f, S a)",
             lambda: P @ dm.antipode_inv - S.transpose() @ P)
    ck.exact("pair.star", "(f^*, a) = conj((f, (S a)*))",
             lambda: P @ dm.invol - (C.conj() @ S).transpose() @ P.conj())

    def phi_of_product(t: LinMap, u: LinMap) -> LinMap:
        # column g (x) f of t (x) u, a map into A (x) A (x) A, taken to
        # phi(leg 0 . leg 2) leg 1, and read at column f (x) g
        return apply_on_legs(phi, (0,), apply_on_legs(m.mult, (0, 2), t, u)) \
            @ m.flipA

    ck.exact("form.product", "f*g = f_(1) phi(S^-1(g) f_(2))",
             lambda: dm.mult - phi_of_product(Sinv, m.coprod))
    ck.exact("form.product-alt", "f*g = phi(S^-1(g_(1)) f) g_(2)",
             lambda: dm.mult - phi_of_product(
                 apply_on_legs(Sinv, (0,), m.coprod), m.idA))
    ck.exact("form.antipode", "S^(f) = sigma(delta S(f))",
             lambda: dm.antipode - h.sigma @ m.lmul(h.delta) @ S)
    ck.exact("form.star", "f^* = mu^-1 (S f)* delta",
             lambda: dm.invol
             - (m.rmul(h.delta) @ C @ S.conj()).scale(mu.inverse()))
    ck.exact("form.antipode-squared", "S^^2 = mu^-1 S^2",
             lambda: dm.antipode @ dm.antipode - (S @ S).scale(mu.inverse()))
    ck.exact("haar.dual", "phi^ is proportional to eps",
             lambda: dh.phi - m.counit.scale(dh.phi_of(m.unit)))
    ck.exact("delta-dual.star", "delta^* = delta^",
             lambda: dm.bar(dh.delta) - dh.delta)
    ck.exact("delta-dual.grouplike", "coprod^(delta^) = delta^ (x) delta^",
             lambda: dm.coprod(dh.delta) - dh.delta.tensor(dh.delta))
    return ck.records


def check_dual_modular(dd: Duality) -> list[CheckRecord]:
    """Modular data of source and dual expressed through each other.

    The primed identities hold exactly; the unprimed ones and the
    multiplication/convolution commutation carry one power of mu.
    """
    m, h, dm, dh = dd.source, dd.haar, dd.dual, dd.dual_haar
    S2 = m.antipode @ m.antipode
    S2i = m.antipode_inv @ m.antipode_inv
    mu = h.mu
    ck = Checker(f"{m.name}.dual-mod")

    ck.exact("mu.dual", "mu^ = mu^-1", lambda: dh.mu - mu.inverse())
    ck.exact("sigma.dual", "sigma^(x) = S^2(x) delta^-1",
             lambda: dh.sigma - m.rmul(h.delta_inv) @ S2)
    ck.exact("sigma-prime.dual", "sigma'^(x) = mu delta^-1 S^-2(x)",
             lambda: dh.sigma_prime - (m.lmul(h.delta_inv) @ S2i).scale(mu))
    ck.exact("sigma.source", "sigma(f) = mu^-1 S^2(f)*delta^^-1",
             lambda: h.sigma
             - (dm.rmul(dh.delta_inv) @ S2).scale(mu.inverse()))
    ck.exact("sigma-prime.source", "sigma'(f) = delta^^-1*S^-2(f)",
             lambda: h.sigma_prime - dm.lmul(dh.delta_inv) @ S2i)
    ck.exact("delta-dual.conv-left", "delta^*f = S^-2(sigma'^-1(f))",
             lambda: dm.lmul(dh.delta) - S2i @ h.sigma_prime_inv)
    ck.exact("delta-dual.conv-right", "f*delta^ = mu^-1 S^2(sigma^-1(f))",
             lambda: dm.rmul(dh.delta) - (S2 @ h.sigma_inv).scale(mu.inverse()))

    convs = (("conv-left", dm.lmul(dh.delta)), ("conv-right", dm.rmul(dh.delta)))
    mults = (("lmul", m.lmul(h.delta)), ("rmul", m.rmul(h.delta)))
    for clab, c in convs:
        for mlab, t in mults:
            ck.exact(f"commute.{clab}.{mlab}",
                     f"{clab} by delta^ then {mlab} by delta = "
                     f"mu ({mlab} then {clab})",
                     lambda c=c, t=t: c @ t - (t @ c).scale(mu))

    ad = m.lmul(h.delta) @ m.rmul(h.delta_inv)
    ck.exact("commute.conjugation-left",
             "delta^*(.) commutes with delta . delta^-1",
             lambda: dm.lmul(dh.delta) @ ad - ad @ dm.lmul(dh.delta))
    ck.exact("commute.conjugation-right",
             "(.)*delta^ commutes with delta . delta^-1",
             lambda: dm.rmul(dh.delta) @ ad - ad @ dm.rmul(dh.delta))
    return ck.records


def check_radford(dd: Duality) -> list[CheckRecord]:
    """Fourth power of the antipode via the two modular elements."""
    m, h, dm, dh = dd.source, dd.haar, dd.dual, dd.dual_haar
    S2 = m.antipode @ m.antipode
    ck = Checker(f"{m.name}.radford")
    ck.exact("formula", "S^4(f) = mu delta^-1 (delta^^-1 * f * delta^) delta",
             lambda: S2 @ S2
             - (m.lmul(h.delta_inv) @ m.rmul(h.delta)
                @ dm.lmul(dh.delta_inv) @ dm.rmul(dh.delta)).scale(h.mu))
    return ck.records


def build_alg_mult_unitary(dd: Duality) -> AlgMultUnitary:
    """The invertible map w(a(x)b) = S^-1(b_(1)) a (x) b_(2) on A (x) A of
    the source of dd, and w_inv; ModelError unless their
    ``inverse_defect`` is zero."""
    model = dd.source
    w = apply_on_legs(model.mult @ model.flipA, (0, 1), apply_on_legs(
        model.antipode_inv, (1,), model.idA, model.coprod))
    mw = AlgMultUnitary(dd, w, galois_map(model, "gl") @ model.flipA)
    if not mw.inverse_defect.is_zero():
        raise ModelError(f"{model.name}: multiplicative unitary is not "
                         "inverted by the op-twisted Galois map")
    return mw


def regular(model: QGModel, right: bool = False) -> LinMap:
    """f |-> L_f (or R_f when ``right``) as a flattened family: a map into
    A (x) A whose column f is that multiplication map, entry (i, j) at row
    i d + j, read off the product's entries."""
    return model.mult.regroup((0, 1, 2) if right else (0, 2, 1), 2)


def tensor_image(left: LinMap, right: LinMap, v: Vec) -> LinMap:
    """sum v_pq L_p (x) R_q on A (x) A, for flattened families L and R."""
    t = apply_on_legs(right, (2,), apply_on_legs(left, (0,), v))
    return t.regroup((0, 2, 1, 3), 2)


def leg_one_defect(model: QGModel, w: LinMap) -> LinMap:
    """w(a (x) b) - w(1 (x) b)(a (x) 1) on the d^2 basis pairs."""
    w1 = apply_on_legs(w, (0, 1), model.unit, model.idA)  # column b: w(1 (x) e_b)
    return w - apply_on_legs(model.mult, (0, 2), w1, model.idA) @ model.flipA


def adjoint_relation(mw: AlgMultUnitary) -> bool:
    """(w(u))^* . v = u^* . w^-1(v) in A (x) D, with its product ``.`` and
    star u^* = (C (x) C^)(conj u), as two map identities on A (x) A: for
    X = w^-1(1 (x) 1^), v = 1 gives (b) stars o conj(w) = R_X o stars, then
    u^* = 1 gives (a) w^-1 = L_X, and as A (x) D is associative and unital
    (a) and (b) give the relation back for all u and v.  A failing identity
    raises CheckFailure with its name and worst entry."""
    m, dm = mw.duality.source, mw.duality.dual
    x = apply_on_legs(mw.w_inv, (0, 1), m.unit, dm.unit)
    l_x, r_x = (tensor_image(regular(m, right), regular(dm, right), x)
                for right in (False, True))
    require_zero(mw.w_inv - l_x, "w^-1 = L_X")
    require_zero(m.invol.tensor(dm.invol) @ mw.w.conj()
                 - apply_on_legs(r_x, (0, 1), m.invol, dm.invol), "stars o conj(w) = R_X o stars")
    return True


def check_pentagon_and_lemmas(mw: AlgMultUnitary) -> list[CheckRecord]:
    """Pentagon equation, twist lemmas and the adjoint relation for w, all
    decided exactly on every vector (``AlgMultUnitary.pentagon_defect``,
    ``adjoint_relation``)."""
    m, h = mw.duality.source, mw.duality.haar
    w, sigma, alpha = mw.w, h.sigma, alpha_map(h)
    ck = Checker(f"{m.name}.munitary")
    ck.exact("pentagon", PENTAGON_LAW, lambda: mw.pentagon_defect)
    ck.exact("lemma.sigma-twist", "(sigma (x) sigma) w = w (sigma (x) alpha)",
             lambda: sigma.tensor(sigma) @ w - apply_on_legs(w, (0, 1), sigma, alpha))
    ck.exact("lemma.alpha-commute", "(alpha (x) alpha) w = w (alpha (x) alpha)",
             lambda: alpha.tensor(alpha) @ w - apply_on_legs(w, (0, 1), alpha, alpha))

    ck.exact("lemma.gram-unitary",
             "w^H (G (x) G) w = G (x) G for the pairing Gram matrix G",
             lambda: mw.gram_defect)
    ck.exact("adjoint-relation",
             "(w(a(x)b))* . (c(x)d) = (a(x)b)* . w^-1(c(x)d) "
             "(as w^-1 = L_X and stars o conj(w) = R_X o stars, "
             "X = w^-1(1 (x) 1^))",
             lambda: adjoint_relation(mw))
    return ck.records


def check_convolution_compat(dd: Duality) -> list[CheckRecord]:
    """Compatibility of the coproduct with the convolution product.

    Each coproduct law is an identity on a (x) f (x) g whose difference is
    a product with a applied to a map on A (x) A with d^2 columns:
    (mult (x) id)(id (x) D) for the two left laws (with the product or the
    opposite one) and (id (x) mult)(flip (x) id)(id (x) D') for the two
    right laws, where

      D  = coprod o conv - (id (x) conv)(coprod (x) id),
      D' = coprod o conv - (conv (x) id)(id (x) coprod)

    are Van Daele's compatibility of coprod with conv (Adv. Math. 140,
    1998).  That is leg bookkeeping with no premise, so D = 0 (D' = 0)
    passes both left (right) laws; D and D' are each built once.  The
    converse, at a = 1, needs the unit law, so a nonzero D or D' leaves its
    two laws to the d^3-column difference, which decides them and names
    the witness: every record is the full form's.
    """
    m, h, dm = dd.source, dd.haar, dd.dual
    i = m.idA
    conv = dm.mult
    ck = Checker(f"{m.name}.conv-compat")

    @cache
    def defect(right: bool) -> LinMap:
        if right:
            return m.coprod @ conv - apply_on_legs(conv, (0, 1), i, m.coprod)
        return m.coprod @ conv - apply_on_legs(conv, (1, 2), m.coprod, i)

    def law(kind: str) -> LinMap:
        right = kind[1] == "r"
        if defect(right).is_zero():
            return defect(right)
        g = galois_map(m, kind)
        if kind[0] == "g":  # rl_op = gl o flip, rr_op = gr o flip
            g = g @ m.flipA
        lhs = apply_on_legs(g, (0, 1), i, conv)
        if right:
            # conv on legs (0, 1) of f (x) (1 (x) a)coprod(g) = f (x) g_(1) (x) a g_(2)
            return lhs - apply_on_legs(apply_on_legs(conv, (0, 1), i, g), (0, 1, 2), m.flipA, i)
        return lhs - apply_on_legs(conv, (1, 2), g, i)

    ck.exact("coprod-left-mult", "(a (x) 1) coprod(f*g) = a f_(1) (x) (f_(2)*g)",
             lambda: law("rl"))
    ck.exact("coprod-left-mult-op", "coprod(f*g)(a (x) 1) = f_(1) a (x) (f_(2)*g)",
             lambda: law("gl"))
    ck.exact("coprod-right-mult", "(1 (x) a) coprod(f*g) = (f*g_(1)) (x) a g_(2)",
             lambda: law("rr"))
    ck.exact("coprod-right-mult-op",
             "coprod(f*g)(1 (x) a) = (f*g_(1)) (x) g_(2) a",
             lambda: law("gr"))

    def inner_product():
        # eps(f^* * g) = mu^-1 phi(conj(f) g), the Gram matrix up to mu
        return form_matrix(m.counit, conv, dm.invol) \
            - h.gram.scale(h.mu.inverse())

    ck.exact("inner-product", "eps(f^* * g) = mu^-1 phi(conj(f) g)",
             inner_product)
    return ck.records


def check_hopf_star_iso(t: LinMap, src: QGModel, dst: QGModel,
                        prefix: str | None = None) -> list[CheckRecord]:
    """All laws making t a Hopf *-algebra isomorphism src -> dst."""
    ck = Checker(prefix or f"{src.name}-to-{dst.name}")
    ck.exact("iso.invertible", "t is invertible",
             lambda: require_bijective(t))
    ck.exact("iso.unit", "t(1) = 1", lambda: t(src.unit) - dst.unit)
    ck.exact("iso.mult", "t(ab) = t(a)t(b)",
             lambda: t @ src.mult - apply_on_legs(dst.mult, (0, 1), t, t))
    ck.exact("iso.coprod", "coprod(t(a)) = (t (x) t)coprod(a)",
             lambda: dst.coprod @ t - t.tensor(t) @ src.coprod)
    ck.exact("iso.counit", "eps(t(a)) = eps(a)",
             lambda: dst.counit @ t - src.counit)
    ck.exact("iso.antipode", "t(S a) = S(t a)",
             lambda: t @ src.antipode - dst.antipode @ t)
    ck.exact("iso.star", "t(a*) = t(a)*",
             lambda: t @ src.invol - dst.invol @ t.conj())
    return ck.records


def bidual_map(dd: Duality) -> LinMap:
    """The canonical isomorphism from the source onto its double dual.

    Solving phi^(x * kappa(a)) = (x, S^-1 a) against the dual value matrix
    gives kappa = P^~^-1 P^T S^-1; the S^-1 twist compensates the reversed
    pairing used for the dual coproduct.
    """
    return dd.dual_haar.pmat_inv @ dd.haar.pmat.transpose() \
        @ dd.source.antipode_inv


def check_biduality(dd: Duality) -> list[CheckRecord]:
    """The double dual, built from the dual's Haar data, is isomorphic to
    the source as a Hopf *-algebra; one that cannot be built is one FAIL."""
    name = dd.source.name
    try:
        bidd = build_dual(dd.dual_haar)
    except (ModelError, SingularMap) as e:
        return [CheckRecord(f"{name}.suite.bidual", "double dual construction succeeds",
                            FAIL, witness=str(e))]
    return check_hopf_star_iso(bidual_map(dd), dd.source, bidd.dual, prefix=f"{name}.bidual")
