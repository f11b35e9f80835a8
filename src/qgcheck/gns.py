"""GNS realization of the invariant state and the analytic layer on it.

Builds the Hilbert space carrying <Lambda(f), Lambda(g)> = phi(conj(f) g),
the two regular representations m (multiplication) and lambda (convolution)
and the unitary multiplicative unitary W, and checks their laws, the
operator-level invariance of phi and the approximate-KMS bound as residual
bounds in floats.  The exact structure maps are converted to complex
matrices once; the float helpers those bounds use (relative residuals,
numeric ranks of matrix spans) live here too.  This is the only library
module that imports numpy at load time, so exact-tier work never loads it.

``build_gns(model, tol, seed)`` builds the GNS frame, both regular
representations and W, and keeps one frozen ``report.Tolerances`` value
and one sampling seed on the realization, where every float check reads
them.  The layer refuses to run unless the scaling constant is 1 (the
exact test ``modular.require_unit_scaling``) and the invariant state is
positive definite; those are the standing assumptions of the analytic
theory, and laws that pick up scaling-constant corrections are not
silently weakened here.

The modular layer is decided exactly.  Each of the eight positive modular
operators acts on the GNS space as Lambda X Lambda^-1 for an exact map X
on coordinates (sigma, S^2, multiplication by delta or delta_hat, ...;
see ``modular_maps``).  Every positive-tier model is a finite quantum
group, hence of Kac type (Larson-Radford; Van Daele), so every X is the
identity, and with it every calculus, power, commutation and stability law
among those operators holds.  ``check_kac_collapse`` checks, over
Q(zeta_N), that X = id for each operator a law names, and checks six laws
that are exact identities on their own directly.  A non-identity X fails
the record, with the operator in the witness: the exact condition is
sufficient, so it can turn a PASS into a FAIL but never a FAIL into a
PASS.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .duality import (CUBE_CAP, SAMPLE_SEED, Duality,
                      build_alg_mult_unitary, build_dual)
from .errors import CheckFailure, TierRefusal
from .hopf import QGModel
from .linalg import LinMap, Vec
from .modular import HaarData, require_unit_scaling
from .report import Checker, CheckRecord, Tolerances, _diff_witness


# -- float helpers ----------------------------------------------------------


def rel_residual(a: np.ndarray, b: np.ndarray) -> float:
    """Max-norm difference relative to the operand scales."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    scale = max(1.0, float(np.max(np.abs(a), initial=0.0)),
                float(np.max(np.abs(b), initial=0.0)))
    return float(np.max(np.abs(a - b), initial=0.0)) / scale


def op_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(a, dtype=complex), 2))


def unitarity_defect(u: np.ndarray) -> float:
    u = np.asarray(u, dtype=complex)
    eye = np.eye(u.shape[0])
    return max(rel_residual(u.conj().T @ u, eye), rel_residual(u @ u.conj().T, eye))


def rank_f(a: np.ndarray, tol: float = 1e-8) -> int:
    a = np.asarray(a, dtype=complex)
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0:
        return 0
    return int(np.sum(s > tol * max(1.0, s[0])))


def span_rank(mats: Sequence[np.ndarray], tol: float = 1e-8) -> int:
    """Rank of the linear span of a family of matrices."""
    if not mats:
        return 0
    stack = np.stack([np.asarray(m, dtype=complex).ravel() for m in mats])
    return rank_f(stack, tol)


def spans_equal(fam_a: Sequence[np.ndarray], fam_b: Sequence[np.ndarray],
                tol: float = 1e-8) -> bool:
    """Do two families of matrices span the same subspace?"""
    ra = span_rank(fam_a, tol)
    rb = span_rank(fam_b, tol)
    rab = span_rank(list(fam_a) + list(fam_b), tol)
    return ra == rb == rab


# full basis-pair loops are used up to this dimension, seeded samples above
PAIR_CAP = 12
PAIR_SAMPLES = 90


@dataclass
class GnsRealization:
    """The invariant-state GNS space with both regular representations.

    lam is the matrix of the GNS map, so Lambda(f) = lam @ coords(f), and
    frame = lam^-1 satisfies frame^H gram frame = I.  conv is the float
    convolution product of the memoized dual.  The realization carries the
    multiplication representation m, the convolution representation lambda,
    the multiplicative unitary W and the float working set of the structure
    maps the float checks read; the modular layer needs none of it, since
    ``check_kac_collapse`` works on the exact data in ``dual``.
    """

    model: QGModel
    haar: HaarData
    dual: Duality
    dim: int
    tol: Tolerances
    gram: np.ndarray
    frame: np.ndarray
    lam: np.ndarray
    conv: np.ndarray
    seed: int  # seeds the sampled pair and vector families
    m_rep: list[np.ndarray]
    lambda_rep: list[np.ndarray]
    w: np.ndarray
    w_alg: np.ndarray
    w_alg_inv: np.ndarray
    # float-tier working set of the structure maps
    mult: np.ndarray
    coprod: np.ndarray
    invol: np.ndarray
    unit_vec: np.ndarray
    phi_row: np.ndarray
    sigma_mat: np.ndarray
    conv_unit_vec: np.ndarray
    dual_invol: np.ndarray

    # -- element helpers ----------------------------------------------------

    def coords(self, v) -> np.ndarray:
        if isinstance(v, Vec):
            return v.to_numpy()
        return np.asarray(v, dtype=complex)

    def conv_lmul_np(self, x) -> np.ndarray:
        d = self.dim
        return np.einsum("kij,i->kj", self.conv.reshape(d, d, d), self.coords(x))

    def conv_of(self, v) -> np.ndarray:
        """The convolution representation lambda(v) of an element."""
        return self.lam @ self.conv_lmul_np(v) @ self.frame

    def lmul_np(self, a) -> np.ndarray:
        d = self.dim
        return np.einsum("kij,i->kj", self.mult.reshape(d, d, d), self.coords(a))

    def mul_np(self, a, b) -> np.ndarray:
        return self.lmul_np(a) @ self.coords(b)

    def conv_np(self, x, y) -> np.ndarray:
        return self.conv_lmul_np(x) @ self.coords(y)

    def star_np(self, a) -> np.ndarray:
        return self.invol @ np.conj(self.coords(a))

    def lam_of(self, v) -> np.ndarray:
        return self.lam @ self.coords(v)

    def m_of(self, v) -> np.ndarray:
        """The multiplication representation of an element."""
        return self.lam @ self.lmul_np(v) @ self.frame

    def basis_pairs(self) -> list[tuple[int, int]]:
        d = self.dim
        if d <= PAIR_CAP:
            return [(a, b) for a in range(d) for b in range(d)]
        rng = random.Random(self.seed)
        return [(rng.randrange(d), rng.randrange(d))
                for _ in range(PAIR_SAMPLES)]

    def dense_vector_pairs(self, count: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """Seeded dense Hilbert-space vectors; generic samples of a bilinear
        family reach the full rank of its span."""
        rng = np.random.default_rng(self.seed)
        draw = lambda: rng.standard_normal(self.dim) + 1j * rng.standard_normal(self.dim)
        return [(draw(), draw()) for _ in range(count)]


def _refuse_above(residual: float, bound: float, what: str):
    """TierRefusal naming ``what`` when a construction residual exceeds
    its bound."""
    if residual > bound:
        raise TierRefusal(what)


def _chol_frame(gram: np.ndarray, what: str,
                tol: Tolerances) -> tuple[np.ndarray, np.ndarray]:
    """(lam, frame) with lam^H lam = gram and frame = lam^-1."""
    herm = (gram + gram.conj().T) / 2
    _refuse_above(rel_residual(gram, herm), tol.identity,
                  f"{what} is not Hermitian")
    eig = np.linalg.eigvalsh(herm)
    if float(eig.min()) <= tol.spectral * max(1.0, float(np.max(np.abs(eig)))):
        raise TierRefusal(f"{what} is not positive definite "
                          f"(offending eigenvalue {float(eig.min()):.6g})")
    low = np.linalg.cholesky(herm)
    lam = low.conj().T
    frame = np.linalg.inv(lam)
    return lam, frame


def build_gns(model: QGModel, tol: Tolerances = Tolerances(),
              seed: int = SAMPLE_SEED) -> GnsRealization:
    """GNS realization of the invariant state, both representations and W.

    Refuses (TierRefusal) when the scaling constant differs from 1, when
    the Gram matrix phi(conj(e_i) e_j) is not Hermitian or not positive
    definite, when the frame fails to reproduce the Gram matrix within
    ``tol``, when the multiplication representation is not faithful, or
    when W fails unitarity, since the analytic layer is built under those
    standing assumptions.  The construction asserts with ``tol``; the
    realization keeps ``tol`` and ``seed`` for the checks run on it.
    """
    haar = require_unit_scaling(model)
    gram = haar.gram.to_numpy()
    lam, frame = _chol_frame(gram, f"{model.name}: Gram matrix of phi", tol)
    _refuse_above(rel_residual(lam.conj().T @ lam, gram), tol.identity,
                  f"{model.name}: GNS inner product does not reproduce "
                  "the Gram matrix")
    dual = build_dual(model)
    d = model.dim
    dm = dual.dual
    gns = GnsRealization(
        model=model, haar=haar, dual=dual, dim=d, tol=tol, gram=gram,
        frame=frame, lam=lam, conv=dm.mult.to_numpy(), seed=seed,
        m_rep=[], lambda_rep=[], w=np.eye(d * d),
        w_alg=np.eye(d * d), w_alg_inv=np.eye(d * d),
        mult=model.mult.to_numpy(), coprod=model.coprod.to_numpy(),
        invol=model.invol.to_numpy(),
        unit_vec=model.unit.to_numpy(),
        phi_row=haar.phi.to_numpy().reshape(-1),
        sigma_mat=haar.sigma.to_numpy(),
        conv_unit_vec=dm.unit.to_numpy(),
        dual_invol=dm.invol.to_numpy(),
    )

    gns.m_rep = [gns.m_of(np.eye(d)[:, i]) for i in range(d)]
    gns.lambda_rep = [gns.conv_of(np.eye(d)[:, i]) for i in range(d)]
    if rank_f(np.stack([m.ravel() for m in gns.m_rep])) != d:
        raise TierRefusal(f"{model.name}: multiplication representation "
                          "is not faithful")

    mw = build_alg_mult_unitary(model)
    gns.w_alg = mw.w.to_numpy()
    gns.w_alg_inv = mw.w_inv.to_numpy()
    lam2 = np.kron(lam, lam)
    frame2 = np.kron(frame, frame)
    gns.w = lam2 @ gns.w_alg @ frame2
    defect = unitarity_defect(gns.w)
    _refuse_above(defect, tol.identity,
                  f"{model.name}: multiplicative unitary fails unitarity "
                  f"(defect {defect:.3e})")
    return gns


def _slice_left(w4: np.ndarray, xi: np.ndarray, eta: np.ndarray) -> np.ndarray:
    # (iota (x) omega_{xi,eta})(W), omega_{xi,eta}(T) = <xi, T eta>
    return np.einsum("icjd,c,d->ij", w4, np.conj(xi), eta)


def _slice_right(w4: np.ndarray, xi: np.ndarray, eta: np.ndarray) -> np.ndarray:
    return np.einsum("icjd,i,j->cd", w4, np.conj(xi), eta)


def check_regular_reps(gns: GnsRealization) -> list[CheckRecord]:
    """Representation laws and both slice formulas for W.

    The left slice (iota (x) omega_{Lambda f, Lambda g})(W) must equal
    m((iota (x) phi)(coprod(conj f)(1 (x) g))) and the right slice must
    equal lambda(g sigma(conj f)); their spans must equal the spans of the
    two regular representations exactly.
    """
    m, d, tol = gns.model, gns.dim, gns.tol
    ck = Checker(f"{m.name}.gns.reps")
    eye = np.eye(d)
    pmat = gns.haar.pmat.to_numpy()
    w4 = gns.w.reshape(d, d, d, d)
    pairs = gns.basis_pairs()

    def hom():
        worst = 0.0
        for i in range(d):
            for j in range(d):
                prod = gns.m_of(gns.mul_np(eye[:, i], eye[:, j]))
                worst = max(worst, rel_residual(gns.m_rep[i] @ gns.m_rep[j], prod))
        return worst
    ck.numeric("m.homomorphism", "m(f) m(g) = m(fg)", tol.identity, hom)
    ck.numeric("m.star", "m(f)^H = m(f^*)", tol.identity,
               lambda: max(rel_residual(gns.m_rep[i].conj().T,
                                        gns.m_of(gns.star_np(eye[:, i])))
                           for i in range(d)))
    ck.numeric("m.faithful", "rank span m(A) = dim A", 0.5,
               lambda: _rank_defect([gns.m_rep], d))
    ck.numeric("lambda.homomorphism", "lambda(x) lambda(y) = lambda(x*y)",
               tol.identity,
               lambda: max(rel_residual(
                   gns.lambda_rep[i] @ gns.lambda_rep[j],
                   gns.conv_of(gns.conv_np(eye[:, i], eye[:, j])))
                   for i in range(d) for j in range(d)))
    ck.numeric("lambda.star", "lambda(x)^H = lambda(x^*^)", tol.identity,
               lambda: max(rel_residual(
                   gns.lambda_rep[i].conj().T,
                   gns.conv_of(gns.dual_invol @ np.conj(eye[:, i])))
                   for i in range(d)))
    ck.numeric("lambda.inner-product", "<Lambda f, Lambda g> = phi(conj(f) g)",
               tol.identity,
               lambda: rel_residual(gns.lam.conj().T @ gns.lam, gns.gram))

    left_slices, right_slices = [], []

    def slice_left():
        worst, witness = 0.0, None
        for a, b in pairs:
            got = _slice_left(w4, gns.lam[:, a], gns.lam[:, b])
            u = (gns.coprod @ gns.invol[:, a]).reshape(d, d)
            want = gns.m_of(u @ pmat[:, b])
            left_slices.append(got)
            r = rel_residual(got, want)
            if r > worst:
                worst, witness = r, f"pair (f, g) = ({a}, {b})"
        return worst, witness
    ck.numeric("slice.left",
               "(iota (x) omega_{Lf,Lg})(W) = m((iota (x) phi)"
               "(coprod(conj f)(1 (x) g)))", tol.identity, slice_left)

    def slice_right():
        worst, witness = 0.0, None
        for a, b in pairs:
            got = _slice_right(w4, gns.lam[:, a], gns.lam[:, b])
            want = gns.conv_of(gns.lmul_np(eye[:, b])
                               @ gns.sigma_mat @ gns.invol[:, a])
            right_slices.append(got)
            r = rel_residual(got, want)
            if r > worst:
                worst, witness = r, f"pair (f, g) = ({a}, {b})"
        return worst, witness
    ck.numeric("slice.right",
               "(omega_{Lf,Lg} (x) iota)(W) = lambda(g sigma(conj f))",
               tol.identity, slice_right)

    if d > PAIR_CAP:
        # basis-pair slices are too sparse here; dense seeded vectors reach
        # the generic rank of the slice family
        dense = gns.dense_vector_pairs(2 * d + 4)
        left_slices = [_slice_left(w4, xi, eta) for xi, eta in dense]
        right_slices = [_slice_right(w4, xi, eta) for xi, eta in dense]
    ck.numeric("slice.left-span", "left slices span m(A) exactly", 0.5,
               lambda: _span_defect(left_slices, gns.m_rep, d))
    ck.numeric("slice.right-span", "right slices span lambda(D) exactly", 0.5,
               lambda: _span_defect(right_slices, gns.lambda_rep, d))
    return ck.records


def _rank_defect(families, expect: int):
    mats = [m for fam in families for m in fam]
    r = span_rank(mats)
    return (0.0, None) if r == expect else (1.0, f"rank {r}, expected {expect}")


def _span_defect(fam_a, fam_b, expect: int):
    ra, rb = span_rank(fam_a), span_rank(fam_b)
    if not spans_equal(fam_a, fam_b) or ra != expect:
        return 1.0, f"ranks {ra}/{rb}, expected equal spans of rank {expect}"
    return 0.0, None


def _embed_w3(w4: np.ndarray, d: int, legs: tuple[int, int]) -> np.ndarray:
    eye = np.eye(d)
    if legs == (0, 1):
        t = np.einsum("ikjl,mn->ikmjln", w4, eye)
    elif legs == (1, 2):
        t = np.einsum("ikjl,mn->miknjl", w4, eye)
    else:  # legs (0, 2)
        t = np.einsum("ikjl,mn->imkjnl", w4, eye)
    return t.reshape(d ** 3, d ** 3)


def check_w_properties(gns: GnsRealization) -> list[CheckRecord]:
    """Unitarity, pentagon, represented-multiplier form and the duality
    transport of W.

    The pentagon is checked on the full triple tensor power when dim^3 is
    at most ``CUBE_CAP``.  The Fourier transform is the identity on
    coordinates here, so its isometry shows up as proportionality of the
    two Gram matrices; the constant is the dual Haar normalization and is
    recorded.
    """
    m, d, tol = gns.model, gns.dim, gns.tol
    ck = Checker(f"{m.name}.gns.w")
    w4 = gns.w.reshape(d, d, d, d)

    ck.numeric("unitary", "W^H W = I = W W^H", tol.identity,
               lambda: unitarity_defect(gns.w))
    lam2 = np.kron(gns.lam, gns.lam)
    ck.numeric("implements-galois",
               "W (Lambda (x) Lambda)(coprod(g)(f (x) 1)) = Lf (x) Lg",
               tol.identity,
               lambda: rel_residual(gns.w @ lam2 @ gns.w_alg_inv, lam2))

    def represented():
        elem = (gns.w_alg @ np.kron(gns.unit_vec, gns.conv_unit_vec)).reshape(d, d)
        acc = np.zeros((d * d, d * d), dtype=complex)
        for p in range(d):
            for q in range(d):
                if abs(elem[p, q]) > 1e-16:
                    acc += elem[p, q] * np.kron(gns.m_rep[p], gns.lambda_rep[q])
        return rel_residual(acc, gns.w)
    ck.numeric("represented-multiplier", "W = (m (x) lambda)(w)",
               tol.identity, represented)

    if d ** 3 <= CUBE_CAP:
        def pentagon():
            w12 = _embed_w3(w4, d, (0, 1))
            w13 = _embed_w3(w4, d, (0, 2))
            w23 = _embed_w3(w4, d, (1, 2))
            return rel_residual(w12 @ w13 @ w23, w23 @ w12)
        ck.numeric("pentagon", "W12 W13 W23 = W23 W12 on L2^(x)3",
                   tol.identity, pentagon)
    else:
        ck.skip("pentagon", "W12 W13 W23 = W23 W12 on L2^(x)3",
                f"dim^3 = {d ** 3} exceeds cap {CUBE_CAP}")

    dual_gram = gns.dual.dual_haar.gram.to_numpy()
    scale = float(np.real(np.trace(dual_gram) / np.trace(gns.gram)))
    ck.numeric("f-isometry",
               "Fourier transform is an isometry up to the dual Haar "
               "normalization", tol.identity,
               lambda: (rel_residual(dual_gram, scale * gns.gram),
                        f"normalization constant {scale:.6g}"))

    def dual_transport():
        lam_hat, frame_hat = _chol_frame(dual_gram,
                                         f"{m.name}: dual Gram matrix", tol)
        u_f = lam_hat @ gns.frame / np.sqrt(scale)
        if unitarity_defect(u_f) > tol.identity:
            return 1.0, "transported Fourier map is not unitary"
        worst = 0.0
        for i in range(d):
            m_hat = lam_hat @ gns.conv_lmul_np(np.eye(d)[:, i]) @ frame_hat
            worst = max(worst, rel_residual(u_f.conj().T @ m_hat @ u_f,
                                            gns.lambda_rep[i]))
        return worst
    ck.numeric("dual-rep-transport",
               "F-conjugation carries the dual multiplication "
               "representation onto lambda", tol.identity, dual_transport)

    def cstar_rank():
        if d <= PAIR_CAP:
            slices = [_slice_right(w4, gns.lam[:, a], gns.lam[:, b])
                      for a, b in gns.basis_pairs()]
        else:
            slices = [_slice_right(w4, xi, eta)
                      for xi, eta in gns.dense_vector_pairs(2 * d + 4)]
        return _span_defect(slices, gns.lambda_rep, d)
    ck.numeric("cstar-identification",
               "span (omega (x) iota)(W) = lambda(D), rank dim", 0.5,
               cstar_rank)
    return ck.records


def check_coproduct_implementation(gns: GnsRealization) -> list[CheckRecord]:
    """W implements the coproduct, and the density laws hold as exact spans.

    The tensor-square families have dim^3 members, so the whole check is
    skipped (never weakened) once dim^3 exceeds ``CUBE_CAP``.
    """
    m, d, tol = gns.model, gns.dim, gns.tol
    ck = Checker(f"{m.name}.gns.coprod")
    if d ** 3 > CUBE_CAP:
        reason = f"dim^3 = {d ** 3} exceeds cap {CUBE_CAP}"
        ck.skip("implemented", "W^H (1 (x) m(f)) W = (m (x) m)(coprod f)",
                reason)
        ck.skip("density.right",
                "span coprod(m(A))(m(A) (x) 1) = m(A) (x) m(A)", reason)
        ck.skip("density.left",
                "span coprod(m(A))(1 (x) m(A)) = m(A) (x) m(A)", reason)
        return ck.records
    eye2 = np.eye(d)

    def implemented():
        worst, witness = 0.0, None
        for f in range(d):
            got = gns.w.conj().T @ np.kron(eye2, gns.m_rep[f]) @ gns.w
            u = gns.coprod[:, f].reshape(d, d)
            want = sum(u[p, q] * np.kron(gns.m_rep[p], gns.m_rep[q])
                       for p in range(d) for q in range(d)
                       if abs(u[p, q]) > 1e-16)
            r = rel_residual(got, want)
            if r > worst:
                worst, witness = r, f"basis element {f}"
        return worst, witness
    ck.numeric("implemented", "W^H (1 (x) m(f)) W = (m (x) m)(coprod f)",
               tol.identity, implemented)

    tensor_rep = [np.kron(gns.m_rep[p], gns.m_rep[q])
                  for p in range(d) for q in range(d)]
    deltas = [gns.w.conj().T @ np.kron(eye2, gns.m_rep[f]) @ gns.w
              for f in range(d)]
    ck.numeric("density.right",
               "span coprod(m(A))(m(A) (x) 1) = m(A) (x) m(A)", 0.5,
               lambda: _span_defect(
                   [df @ np.kron(gns.m_rep[j], eye2)
                    for df in deltas for j in range(d)],
                   tensor_rep, d * d))
    ck.numeric("density.left",
               "span coprod(m(A))(1 (x) m(A)) = m(A) (x) m(A)", 0.5,
               lambda: _span_defect(
                   [df @ np.kron(eye2, gns.m_rep[j])
                    for df in deltas for j in range(d)],
                   tensor_rep, d * d))
    return ck.records


def check_invariance_and_kms(gns: GnsRealization) -> list[CheckRecord]:
    """Left invariance at the operator level and the approximate-KMS bound.

    The operator-level invariance sweep works on the tensor square and is
    skipped once dim^3 exceeds ``CUBE_CAP``.  The KMS bound takes
    sigma_{i/2} = id, which the exact records of ``check_kac_collapse``
    that name nabla decide.  The unitary-antipode records of this family
    are exact and come from ``check_kac_collapse``.
    """
    m, d, tol = gns.model, gns.dim, gns.tol
    ck = Checker(f"{m.name}.gns.weight")
    eye = np.eye(d)
    lam1 = gns.lam_of(gns.unit_vec)

    ck.numeric("phi.vector-state", "<Lambda 1, m(f) Lambda 1> = phi(f)",
               tol.identity,
               lambda: max(abs(np.vdot(lam1, gns.m_rep[f] @ lam1)
                               - gns.phi_row[f]) for f in range(d)))

    m_cols = np.stack([r.ravel() for r in gns.m_rep], axis=1)
    m_pinv = np.linalg.pinv(m_cols)

    def invariance():
        worst, witness = 0.0, None
        pairs = gns.basis_pairs()
        for f in range(d):
            big = (gns.w.conj().T @ np.kron(eye, gns.m_rep[f])
                   @ gns.w).reshape(d, d, d, d)
            for a, b in pairs:
                sliced = np.einsum("icjd,i,j->cd", big,
                                   np.conj(gns.lam[:, a]), gns.lam[:, b])
                coeffs = m_pinv @ sliced.ravel()
                if rel_residual(m_cols @ coeffs, sliced.ravel()) > tol.multiplier:
                    return 1.0, f"slice not in m(A) at (f, a, b) = ({f}, {a}, {b})"
                got = coeffs @ gns.phi_row
                want = gns.gram[a, b] * gns.phi_row[f]
                r = abs(got - want) / max(1.0, abs(want))
                if r > worst:
                    worst, witness = r, f"(f, a, b) = ({f}, {a}, {b})"
        return worst, witness
    if d ** 3 > CUBE_CAP:
        ck.skip("invariance",
                "(omega (x) phi)(coprod(m(f))) = omega(1) phi(f) over "
                "matrix-coefficient functionals",
                f"dim^3 = {d ** 3} exceeds cap {CUBE_CAP}")
    else:
        ck.numeric("invariance",
                   "(omega (x) phi)(coprod(m(f))) = omega(1) phi(f) over "
                   "matrix-coefficient functionals", tol.spectral, invariance)

    def kms():
        worst, witness = 0.0, None
        for i in range(d):
            bound = op_norm(gns.m_of(gns.star_np(eye[:, i])))
            lam_i = gns.lam[:, i]
            for j in range(d):
                lhs = float(np.linalg.norm(gns.m_rep[j] @ lam_i))
                rhs = bound * float(np.linalg.norm(gns.lam[:, j]))
                gap = (lhs - rhs) / max(1.0, rhs)
                if gap > worst:
                    worst, witness = gap, f"(x, a) = (e_{j}, e_{i})"
        return max(worst, 0.0), witness
    ck.numeric("kms.bound",
               "|| x Lambda(a) || <= || sigma_{i/2}(m(conj a)) || "
               "|| Lambda(x) ||", tol.identity, kms)
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


def _require_zero(diff, label: str):
    """CheckFailure naming ``label`` and the worst entry of a nonzero
    exact difference."""
    residual, where = _diff_witness(diff)
    if residual:
        witness = f"{label}: {where}"
        raise CheckFailure(witness, residual=residual, witness=witness)


def _sigma_hat_integer(m: QGModel, haar: HaarData):
    """S^{-2n}(f) delta^n = f for n in -2..2: with nabla_hat =
    rmul(delta^-1) S^2 this is nabla_hat^-n = id."""
    for n in range(-2, 3):
        r = m.rmul(haar.delta if n >= 0 else haar.delta_inv)
        s = m.antipode_inv if n >= 0 else m.antipode
        x = m.idA
        for _ in range(abs(n)):
            x = r @ x @ s @ s
        _require_zero(x - m.idA, f"n = {n}")
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
        - m.mult @ m.antipode.tensor(m.antipode) @ m.flipA),
    "r.right-invariant": lambda m, h: (
        (h.phi @ m.antipode).tensor(m.idA) @ m.coprod
        - m.unit_map @ h.phi @ m.antipode),
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

    Each record checks over Q(zeta_N) that the maps X of the operators its
    law names (``modular_maps``) are the identity, then the law's own
    identity if it has one; the first that fails is the witness.  Only the
    exact data of ``dd`` is read, so a model outside the positive tier can
    be fed in: there S^2 != id, and every record fails.
    """
    m = dd.source
    maps = modular_maps(dd)

    def collapse(ops, identity):
        for name in ops:
            _require_zero(maps[name] - m.idA, f"operator {name}")
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
    kac = check_kac_collapse(gns.dual)
    records = (check_regular_reps(gns) + check_w_properties(gns)
               + check_coproduct_implementation(gns))
    for section in ("calc", *(f"powers[z={z}]" for z in Z_GRID),
                    "commute", "modgroup"):
        records += kac[section]
    return (records + check_invariance_and_kms(gns) + kac["weight"]
            + kac["kac"])
