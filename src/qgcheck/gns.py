"""GNS realization of the invariant state and the analytic layer on it.

The GNS space is A with <Lambda f, Lambda g> = phi(conj(f) g), so its Gram
matrix is G = [phi(e_i* e_j)], and any frame Lambda with Lambda^H Lambda =
G carries the realization: m(f) = Lambda L_f Lambda^-1 with L_f =
lmul(f), lambda(x) = Lambda C_x Lambda^-1 with C_x the dual's lmul(x),
W = (Lambda (x) Lambda) w (Lambda (x) Lambda)^-1 for the algebraic w of
``build_alg_mult_unitary``, and the Hilbert adjoint of Lambda X Lambda^-1
is Lambda G^-1 X^H G Lambda^-1.  So each law on m, lambda and W is an
identity over Q(zeta_N) among L, C, w and G, decided there over every
basis element and pair; the pentagon, unitarity and inverse defects and
the slices of W are built once on the ``AlgMultUnitary``, and a law that
restates a decided law returns that record.  Lambda is invertible, so
each exact form is equivalent to its Hilbert-space law.  The realization
is the chain it is handed: ``build_gns`` takes the ``AlgMultUnitary``,
whose duality carries both Haar data, builds no stage, and every check
reads w, G and the dual from that chain alone.
The frame's own law, ``reps.lambda.inner-product``, is that G is
Hermitian positive definite, and the KMS norm bound ``weight.kms.bound``
is, row by row, that a Hermitian form built from G is not positive
definite; ``modular.positive_definite`` decides both exactly.  No frame
is ever built, so no record has a tolerance.

The modular layer is decided exactly too.  Each of the eight positive
modular operators is Lambda X Lambda^-1 for an exact map X
(``modular_maps``).  Every positive-tier model is a finite quantum group,
hence of Kac type (Larson-Radford; Van Daele), so every X is the identity,
and ``check_kac_collapse`` checks that over Q(zeta_N), for each operator a
law names.  That condition is sufficient: it can turn a PASS into a FAIL
but never a FAIL into a PASS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .duality import AlgMultUnitary, Duality, regular, tensor_image
from .errors import CheckFailure, SingularMap, TierRefusal
from .hopf import QGModel, galois_map
from .linalg import LinMap, apply_on_legs, rank, require_bijective
from .modular import (HaarData, _sign, positive_definite,
                      require_positive_gram, require_unit_scaling)
from .report import PASS, Checker, CheckRecord, _diff_witness, require_zero
from .scalars import Cyc


@dataclass(frozen=True)
class GnsRealization:
    """An algebraic multiplicative unitary, with its duality, that passed
    ``build_gns``'s refusals."""

    mw: AlgMultUnitary


def build_gns(mw: AlgMultUnitary) -> GnsRealization:
    """GNS realization of the invariant state on the chain ending at mw.

    Refuses (TierRefusal) when the scaling constant differs from 1, when
    the Gram matrix phi(conj(e_i) e_j) is not Hermitian positive definite,
    or when W fails unitarity, since the analytic layer is built under
    those standing assumptions.  Each is decided exactly, on the Haar data
    ``mw.duality.haar``: positivity is ``HaarData.gram_positive``, and
    unitarity is the defect ``AlgMultUnitary.gram_defect`` that the record
    ``w.unitary`` reads.

    A model whose multiplication representation is not faithful never
    gets here: if L_f = 0 for some f != 0, then phi(f e_j) = 0 for every
    j, so the rows of P[i, j] = phi(e_i e_j) weighted by the coordinates
    of f sum to zero, P is singular, and ``solve_haar`` raises ModelError
    "invariant functional is not faithful".  The record
    ``reps.m.faithful`` still states that law.
    """
    require_positive_gram(require_unit_scaling(mw.duality.haar))
    defect, _ = _diff_witness(mw.gram_defect)
    if defect:
        raise TierRefusal(f"{mw.duality.source.name}: multiplicative unitary "
                          f"fails unitarity (defect {defect:.3e})")
    return GnsRealization(mw)


# -- exact forms of the representation and W laws ---------------------------


def _require_slices(diff: LinMap):
    """As ``require_zero`` for a difference of flattened slices, naming
    the basis pair and the block entry."""
    if not diff.is_zero():
        d = diff.dom[0]
        r, c, v = max(diff.entries(), key=lambda e: abs(e[2].to_complex()))
        require_zero(v, f"pair (f, g) = {divmod(c, d)}: "
                        f"block entry {divmod(r, d)}")
    return True


def _require_span(expect: int, *families: LinMap):
    """The columns of each family, and of two families together, span a
    space of rank ``expect``; ``rank`` eliminates each family once."""
    ranks = [rank(f) for f in families]
    if len(families) == 2:
        a, b = families
        ranks.append(rank(LinMap._of((a.dom_dim + b.dom_dim,), a.cod, {
            **a.cols, **{a.dom_dim + k: col for k, col in b.cols.items()}})))
    if set(ranks) != {expect}:
        raise CheckFailure(f"ranks {'/'.join(map(str, ranks))}, "
                           f"expected {expect}", residual=1.0)
    return True


def _star(model: QGModel, gram: LinMap):
    """L_f^H G = G L_{f*} for every basis f, that is m(f)^H = m(f*)."""
    for f in range(model.dim):
        e = model.basis_vec(f)
        require_zero(model.lmul(e).adjoint() @ gram
                     - gram @ model.lmul(model.bar(e)), f"basis element {f}")
    return True


def _fourier_isometry(dd: Duality) -> LinMap:
    """G^ - c G for c = tr G^ / tr G, which must be real and > 0.

    The Fourier transform is the identity on coordinates, so it is an
    isometry up to the dual Haar normalization c exactly when G^ = c G;
    then the dual frame is sqrt(c) Lambda, and the transported Fourier map
    is the identity.
    """
    gram, dual_gram = dd.haar.gram, dd.dual_haar.gram
    c = (sum((dual_gram.entry(i, i) for i in range(gram.dom_dim)), Cyc.zero())
         / sum((gram.entry(i, i) for i in range(gram.dom_dim)), Cyc.zero()))
    if not (c.is_real() and _sign(c, "normalization constant") > 0):
        raise CheckFailure(f"normalization constant {c!r} is not > 0")
    return dual_gram - gram.scale(c)


def _implemented(mw: AlgMultUnitary):
    """W^H (1 (x) m(f)) W = (m (x) m)(coprod f) for every basis f, as
    w^H (G (x) G)(1 (x) L_f) w = (G (x) G) sum coprod(f)_pq L_p (x) L_q."""
    m, gram = mw.duality.source, mw.duality.haar.gram
    reg, gg = regular(m), gram.tensor(gram)
    wg = mw.w.adjoint() @ gg
    for f in range(m.dim):
        require_zero(apply_on_legs(wg, (0, 1), m.idA, m.lmul(m.basis_vec(f))) @ mw.w
                     - gg @ tensor_image(reg, reg, m.coprod.column(f)),
                     f"basis element {f}")
    return True


def _frame_exists(gram: LinMap):
    """G = G^H and G is positive definite: then, and only then, a frame
    Lambda^H Lambda = G exists."""
    require_zero(gram - gram.adjoint(), "G - G^H")
    if not positive_definite(gram):
        raise CheckFailure("G is not positive definite")
    return True


def check_regular_reps(mw: AlgMultUnitary) -> list[CheckRecord]:
    """Representation laws and both slice formulas for W.

    The left slice (iota (x) omega_{Lambda f, Lambda g})(W) must equal
    m((iota (x) phi)(coprod(conj f)(1 (x) g))) and the right slice must
    equal lambda(g sigma(conj f)); their spans must equal the spans of the
    two regular representations exactly (all four read ``mw.slices``).
    ``lambda.inner-product`` reads
    the Gram matrix of ``mw.duality.haar``, not the ``gram_positive`` flag
    that ``build_gns`` checked.
    """
    dd = mw.duality
    m, dm, gram = dd.source, dd.dual, dd.haar.gram
    d = m.dim
    ck = Checker(f"{m.name}.gns.reps")
    # L_{ab} - L_a L_b applied to every c is (ab)c - a(bc)
    ck.exact("m.homomorphism", "m(f) m(g) = m(fg)", lambda: m.associator)
    ck.exact("m.star", "m(f)^H = m(f^*)", lambda: _star(m, gram))
    ck.exact("m.faithful", "rank span m(A) = dim A",
             lambda: _require_span(d, regular(m)))
    ck.exact("lambda.homomorphism", "lambda(x) lambda(y) = lambda(x*y)",
             lambda: dm.associator)
    ck.exact("lambda.star", "lambda(x)^H = lambda(x^*^)",
             lambda: _star(dm, gram))
    ck.exact("lambda.inner-product", "<Lambda f, Lambda g> = phi(conj(f) g)",
             lambda: _frame_exists(gram))

    # column (a, b) of u is (iota (x) phi)(coprod(e_a^*)(1 (x) e_b)), of x
    # it is e_b sigma(e_a^*)
    u = apply_on_legs(m.idA.tensor(dd.haar.phi) @ galois_map(m, "gr"), (0, 1), m.invol, m.idA)
    x = apply_on_legs(m.mult @ m.flipA, (0, 1), dd.haar.sigma @ m.invol, m.idA)
    ck.exact("slice.left",
             "(iota (x) omega_{Lf,Lg})(W) = m((iota (x) phi)"
             "(coprod(conj f)(1 (x) g)))",
             lambda: _require_slices(mw.slices[1] - regular(m) @ u))
    ck.exact("slice.right",
             "(omega_{Lf,Lg} (x) iota)(W) = lambda(g sigma(conj f))",
             lambda: _require_slices(mw.slices[0] - regular(dm) @ x))
    ck.exact("slice.left-span", "left slices span m(A) exactly",
             lambda: _require_span(d, mw.slices[1], regular(m)))
    ck.exact("slice.right-span", "right slices span lambda(D) exactly",
             lambda: _require_span(d, mw.slices[0], regular(dm)))
    return ck.records


def check_w_properties(mw: AlgMultUnitary,
                       right_span: CheckRecord) -> list[CheckRecord]:
    """Unitarity, pentagon, represented-multiplier form and the duality
    transport of W, reading the ``mw`` memos of the three defects.
    The transport returns the Fourier isometry's record (both are G^ = c G)
    and the C*-identification ``right_span``, ``reps.slice.right-span``."""
    dd = mw.duality
    m, dm = dd.source, dd.dual
    ck = Checker(f"{m.name}.gns.w")
    # W^H W = I, and then W W^H = I as w is invertible
    ck.exact("unitary", "W^H W = I = W W^H", lambda: mw.gram_defect)
    ck.exact("implements-galois",
             "W (Lambda (x) Lambda)(coprod(g)(f (x) 1)) = Lf (x) Lg",
             lambda: mw.inverse_defect)
    ck.exact("represented-multiplier", "W = (m (x) lambda)(w)",
             lambda: tensor_image(regular(m), regular(dm),
                                  apply_on_legs(mw.w, (0, 1), m.unit, dm.unit)) - mw.w)
    ck.exact("pentagon", "W12 W13 W23 = W23 W12 on L2^(x)3",
             lambda: mw.pentagon_defect)
    isometry = ck.exact("f-isometry",
                        "Fourier transform is an isometry up to the dual "
                        "Haar normalization", lambda: _fourier_isometry(dd))
    ck.exact("dual-rep-transport",
             "F-conjugation carries the dual multiplication "
             "representation onto lambda", lambda: isometry)
    ck.exact("cstar-identification",
             "span (omega (x) iota)(W) = lambda(D), rank dim",
             lambda: right_span)
    return ck.records


def check_coproduct_implementation(mw: AlgMultUnitary) -> list[CheckRecord]:
    """W implements the coproduct, and the density laws hold as exact spans.

    Given the implementation, coprod(m(f))(m(g) (x) 1) = (m (x) m)
    (coprod(f)(g (x) 1)) with m (x) m injective, so the density laws are
    the rank d^2 of rl_op = gl o flip and rr_op = gr o flip, read off the
    bijectivity decision of gl and gr that ``cancel`` reads too.
    """
    m = mw.duality.source
    ck = Checker(f"{m.name}.gns.coprod")
    implemented = ck.exact("implemented",
                           "W^H (1 (x) m(f)) W = (m (x) m)(coprod f)",
                           lambda: _implemented(mw))

    def density(kind):
        if implemented.status != PASS:
            raise CheckFailure(f"coproduct not implemented: "
                               f"{implemented.witness}")
        try:
            return require_bijective(galois_map(m, kind))
        except SingularMap as e:
            n = m.dim ** 2
            raise CheckFailure(f"ranks {n - len(e.kernel)}, expected {n}",
                               residual=1.0) from None

    ck.exact("density.right",
             "span coprod(m(A))(m(A) (x) 1) = m(A) (x) m(A)",
             lambda: density("gl"))
    ck.exact("density.left",
             "span coprod(m(A))(1 (x) m(A)) = m(A) (x) m(A)",
             lambda: density("gr"))
    return ck.records


def _kms_scale(m: QGModel, gram: LinMap, i: int) -> Cyc:
    """s_i = max over j of ||Lambda(e_j e_i)||^2 / ||Lambda(e_j)||^2, with
    ||Lambda(a)||^2 = phi(a* a); the e_j e_i are the columns of rmul(e_i)."""
    r = m.rmul(m.basis_vec(i))
    norms = r.adjoint() @ gram @ r
    best = Cyc.zero()
    for j in range(m.dim):
        ratio = norms.entry(j, j) / gram.entry(j, j)
        if _sign(ratio - best, f"kms ratio ({j}, {i})") > 0:
            best = ratio
    return best


def _kms_row_holds(m: QGModel, gram: LinMap, i: int, s: Cyc) -> bool:
    """||m(e_i*)||^2 >= s, for G Hermitian positive definite.

    With L = lmul(e_i*), ||m(e_i*)||^2 is the largest (Lv)^H G (Lv) /
    v^H G v over v != 0, so it is >= s exactly when s G - L^H G L is not
    positive definite.
    """
    lm = m.lmul(m.bar(m.basis_vec(i)))
    return not positive_definite(gram.scale(s) - lm.adjoint() @ gram @ lm)


def _kms_bound(m: QGModel, gram: LinMap):
    """Every row i of the KMS bound: ||m(e_i*)||^2 >= s_i (``_kms_scale``);
    the witness names the first row that fails."""
    for i in range(m.dim):
        s = _kms_scale(m, gram, i)
        if not _kms_row_holds(m, gram, i, s):
            raise CheckFailure(f"row {i}: ||m(e_{i}^*)||^2 < s_{i} = {s!r}")
    return True


def check_invariance_and_kms(dd: Duality,
                             implemented: CheckRecord) -> list[CheckRecord]:
    """The vector state, operator-level invariance and the KMS bound.

    Given the implementation of the coproduct, (omega (x) phi)
    (coprod(m(f))) = omega(m((iota (x) phi) coprod(f))), so invariance is
    the left invariance of phi; ``implemented`` is the ``coprod.implemented``
    record, and when it failed this record returns it.
    The KMS bound takes sigma_{i/2} = id, which ``check_kac_collapse``
    decides; for x = e_j and a = e_i it reads ||Lambda(e_j e_i)|| <=
    ||m(e_i*)|| ||Lambda(e_j)||, decided exactly row by row in
    ``_kms_bound``.
    """
    m, haar = dd.source, dd.haar
    ck = Checker(f"{m.name}.gns.weight")
    ck.exact("phi.vector-state", "<Lambda 1, m(f) Lambda 1> = phi(f)",
             lambda: m.unit.adjoint() @ haar.gram @ m.rmul(m.unit)
             - haar.phi)

    def invariance():
        if implemented.status != PASS:
            return implemented
        return apply_on_legs(haar.phi, (1,), m.coprod) - m.unit @ haar.phi

    ck.exact("invariance",
             "(omega (x) phi)(coprod(m(f))) = omega(1) phi(f) over "
             "matrix-coefficient functionals", invariance)
    ck.exact("kms.bound",
             "|| x Lambda(a) || <= || sigma_{i/2}(m(conj a)) || "
             "|| Lambda(x) ||", lambda: _kms_bound(m, haar.gram))
    return ck.records


# -- the Kac collapse of the modular layer ----------------------------------


def modular_maps(dd: Duality) -> dict[str, LinMap]:
    """The exact coordinate map X of each positive modular operator.

    The operator acts on the GNS space as Lambda X Lambda^-1, so it is the
    identity exactly when X is.  X is sigma for nabla (the modular operator
    of phi), S^2 for N, left and right multiplication by delta for delta
    and delta', left and right convolution by delta_hat for delta_hat and
    delta_hat', rmul(delta^-1) S^2 for nabla_hat, and rmul(delta) S^2 for
    M = delta' N.
    """
    m, haar, dm, dh = dd.source, dd.haar, dd.dual, dd.dual_haar
    s2 = m.antipode @ m.antipode
    return {"nabla": haar.sigma,
            "nabla_hat": m.rmul(haar.delta_inv) @ s2,
            "n": s2,
            "m": m.rmul(haar.delta) @ s2,
            "delta": m.lmul(haar.delta),
            "delta_prime": m.rmul(haar.delta),
            "delta_hat": dm.lmul(dh.delta),
            "delta_hat_prime": dm.rmul(dh.delta)}


def _sigma_hat_integer(m: QGModel, haar: HaarData):
    """S^{-2n}(f) delta^n = f for n in -2..2: with nabla_hat =
    rmul(delta^-1) S^2 this is nabla_hat^-n = id."""
    for n in range(-2, 3):
        r = m.rmul(haar.delta if n >= 0 else haar.delta_inv)
        s = m.antipode_inv if n >= 0 else m.antipode
        x = m.idA
        for _ in range(abs(n)):
            x = r @ x @ s @ s
        require_zero(x - m.idA, f"n = {n}")
    return True


# The laws that are exact identities on their own, by check id; each takes
# the model and its Haar data and returns an exact difference.  With M = id
# the unitary antipode R = tau_{i/2} o S is S, so the r.* laws are laws of S.
_IDENTITIES: dict[str, Callable[[QGModel, HaarData], object]] = {
    "nu.one": lambda m, h: h.nu - 1,
    "sigma-hat.integer": _sigma_hat_integer,
    "r.involutive": lambda m, h: m.antipode @ m.antipode - m.idA,
    "r.anti-multiplicative": lambda m, h: (
        m.antipode @ m.mult
        - apply_on_legs(m.mult, (0, 1), m.antipode, m.antipode) @ m.flipA),
    "r.right-invariant": lambda m, h: (
        apply_on_legs(h.phi @ m.antipode, (0,), m.coprod)
        - m.unit @ h.phi @ m.antipode),
}

MODULAR_OPERATORS = ("nabla", "nabla_hat", "n", "m", "delta", "delta_prime",
                     "delta_hat", "delta_hat_prime")

# Z_GRID only spells the ids of the gns.powers[z=...] records
Z_GRID = (0.5, 1.0j, 1.0 + 1.0j)

_COMMUTING_PAIRS = (
    ("delta-n", "delta and N", ("delta", "n")),
    ("delta-hat-n", "delta_hat and N", ("delta_hat", "n")),
    ("delta-prime-n", "delta' and N", ("delta_prime", "n")),
    ("delta-hat-prime-n", "delta_hat' and N", ("delta_hat_prime", "n")),
    ("delta-delta-prime", "delta and delta'", ("delta", "delta_prime")),
    ("delta-hat-pair", "delta_hat and delta_hat'",
     ("delta_hat", "delta_hat_prime")),
    ("delta-hat-ratio", "delta_hat' and delta delta'^-1",
     ("delta_hat_prime", "delta", "delta_prime")),
    ("delta-hat-vs-ratio", "delta_hat and delta delta'^-1",
     ("delta_hat", "delta", "delta_prime")),
    ("ratios", "delta delta'^-1 and delta_hat delta_hat'^-1",
     ("delta", "delta_prime", "delta_hat", "delta_hat_prime")),
)

_POWER_RECORDS = (
    ("membership", "delta^z m(e_k) lies in span m(A)", ("delta",)),
    ("multiplier-match", "delta^z m(a) = m(delta^z a) with delta^z from the "
     "functional calculus", ("delta",)),
    ("rho-closed-form", "rho_z(m(f)) = m(delta^{-iz/2} (delta_hat^{iz/2} * f "
     "* delta_hat^{-iz/2}) delta^{iz/2})", ("n", "delta", "delta_hat")),
    ("n-power-vector", "N^z Lambda(g) = Lambda(delta^{iz/2} (delta_hat^{-iz/2} "
     "* g * delta_hat^{iz/2}) delta^{-iz/2})", ("n", "delta", "delta_hat")),
)

# section -> (check id, law, the operators the law names), in report order;
# a record passes when every operator it names is the identity and, for an
# id in _IDENTITIES, that identity holds
KAC_RECORDS: dict[str, tuple[tuple[str, str, tuple[str, ...]], ...]] = {
    "calc": (
        ("power-zero", "power(0) = I", MODULAR_OPERATORS),
        ("power-one", "power(1) reproduces the operator", MODULAR_OPERATORS),
        ("group-law", "power(y) power(z) = power(y+z)", MODULAR_OPERATORS),
        ("imaginary-unitary", "power(it) unitary for real t",
         MODULAR_OPERATORS),
        ("half-self-adjoint", "power(t/2) self-adjoint for real t",
         MODULAR_OPERATORS),
    ),
    **{f"powers[z={z}]": _POWER_RECORDS for z in Z_GRID},
    "commute": (
        ("delta.w", "(1 (x) delta) W = W (delta (x) delta)", ("delta",)),
        ("delta.coproduct", "coprod(delta) = delta (x) delta", ("delta",)),
        ("n.w", "(N (x) N) W = W (N (x) N)", ("n",)),
        ("nu.one", "sigma(delta) = delta (the twist constant is 1)", ()),
        *((f"{key}.{suffix}", law.format(label), ops)
          for key, label, ops in _COMMUTING_PAIRS
          for suffix, law in (("commute", "{} commute"),
                              ("joint-diagonal",
                               "{} are simultaneously diagonalizable"))),
        ("delta-it.stability", "delta^{it} m(A) delta^{-it} lies in m(A)",
         ("delta",)),
    ),
    "modgroup": (
        ("sigma-hat.integer", "sigma_hat_{in}(lambda(f)) = "
         "lambda(S^{-2n}(f) delta^n), n in -2..2", ()),
        ("sigma.decomposition", "sigma_z(lambda(f)) = delta'^{-iz} "
         "rho_z(lambda(f)) delta'^{iz}", ("nabla", "delta_prime", "n")),
        ("sigma.stability", "sigma_z(m(A)) lies in m(A)", ("nabla",)),
        ("sigma-hat.stability", "sigma_hat_z(lambda(D)) lies in lambda(D)",
         ("nabla_hat",)),
        ("rho.stability", "rho_z(m(A)) lies in m(A)", ("n",)),
        ("rho.stability-dual", "rho_z(lambda(D)) lies in lambda(D)", ("n",)),
        ("tau.stability", "tau_z(m(A)) lies in m(A)", ("m",)),
    ),
    "weight": (
        ("r.lands-in-span", "tau_{i/2}(m(S f)) lies in m(A)", ("m",)),
        ("r.involutive", "R^2 = id", ("m",)),
        ("r.anti-multiplicative", "R(ab) = R(b) R(a)", ("m",)),
        ("r.right-invariant", "(phi o R (x) iota)(coprod f) = phi(R f) 1",
         ("m",)),
    ),
    "kac": (
        ("identity", "all modular operators equal the identity",
         MODULAR_OPERATORS),
    ),
}


def check_kac_collapse(dd: Duality) -> dict[str, list[CheckRecord]]:
    """The exact records of the modular layer, by ``KAC_RECORDS`` section.

    Each record checks over Q(zeta_N) that X - 1, built once per operator
    X its law names (``modular_maps``), is zero, then the law's own
    identity if it has one; the first that fails is the witness.  Only the
    exact data of ``dd`` is read, so a model outside the positive tier can
    be fed in: there S^2 != id, and every record fails.
    """
    m = dd.source
    defects = {name: x - m.idA for name, x in modular_maps(dd).items()}

    def collapse(ops, identity):
        for name in ops:
            require_zero(defects[name], f"operator {name}")
        return True if identity is None else identity(m, dd.haar)

    sections = {}
    for section, rows in KAC_RECORDS.items():
        ck = Checker(f"{m.name}.gns.{section}")
        for check_id, law, ops in rows:
            ck.exact(check_id, law, lambda ops=ops,
                     f=_IDENTITIES.get(check_id): collapse(ops, f))
        sections[section] = ck.records
    return sections


def analytic_suite(gns: GnsRealization) -> list[CheckRecord]:
    """Every analytic-layer check on one realization, in a fixed order."""
    mw, dd = gns.mw, gns.mw.duality
    kac = check_kac_collapse(dd)
    reps = check_regular_reps(mw)
    records = reps + check_w_properties(mw, reps[-1])
    coprod = check_coproduct_implementation(mw)
    records += coprod
    for section in ("calc", *(f"powers[z={z}]" for z in Z_GRID),
                    "commute", "modgroup"):
        records += kac[section]
    return (records + check_invariance_and_kms(dd, coprod[0])
            + kac["weight"] + kac["kac"])
