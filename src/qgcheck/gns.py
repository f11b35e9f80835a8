"""GNS realization of the invariant state and the analytic layer on it.

Builds the Hilbert space carrying <Lambda(f), Lambda(g)> = phi(conj(f) g),
the two regular representations m (multiplication) and lambda (convolution),
the unitary multiplicative unitary W, the modular operators and their
complex powers, the modular and scaling automorphism groups, and the
approximate-KMS bound.

Everything in this module lives in the float tier: the exact structure maps
are converted to complex matrices once and each law is asserted as a
residual bound.  The float helpers those bounds use (relative residuals,
checked Hermitian eigendecompositions, numeric ranks of matrix spans,
joint eigenbases) live here too.  This is the only library module that
imports numpy at load time, so exact-tier work never loads it.

``build_gns(model, tol, seed)`` builds the GNS frame, both regular
representations, W and the modular layer, and keeps one frozen
``Tolerances`` value and one sampling seed on the realization, where
every check reads them.  The layer refuses to run unless the scaling
constant is 1 (the exact test ``modular.require_unit_scaling``) and the
invariant state is positive definite; those are the standing assumptions
of the analytic theory, and laws that pick up scaling-constant
corrections are not silently weakened here.

At finite dimension every positive-tier model is of Kac type, so all the
modular operators come out equal to the identity; the machinery is written
for the general shapes and the Kac collapse is asserted separately, which
documents that nontrivial modular spectra would need the relaxed tier this
layer excludes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .duality import (CUBE_CAP, SAMPLE_SEED, Duality,
                      build_alg_mult_unitary, build_dual)
from .errors import CheckFailure, TierRefusal
from .hopf import QGModel
from .linalg import Vec
from .modular import HaarData, require_unit_scaling
from .report import Checker, CheckRecord


@dataclass(frozen=True)
class Tolerances:
    """The float tier's residual bounds, set by one finite value > 0.

    identity bounds operator identities; spectral (100x) the functional
    calculus; multiplier (10x) span projections and closed-form powers.
    """

    identity: float = 1e-10

    def __post_init__(self):
        if not (math.isfinite(self.identity) and self.identity > 0):
            raise ValueError("tolerance must be a finite number > 0, "
                             f"got {self.identity!r}")

    @property
    def spectral(self) -> float:
        return self.identity * 100

    @property
    def multiplier(self) -> float:
        return self.identity * 10


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


def eigh_checked(h: np.ndarray, tol: float = 1e-10):
    """Hermitian eigendecomposition with reconstruction and unitarity checks."""
    h = np.asarray(h, dtype=complex)
    herm = rel_residual(h, h.conj().T)
    if herm > tol:
        raise ValueError(f"matrix is not Hermitian within {tol} (defect {herm:.3e})")
    w, u = np.linalg.eigh(h)
    if rel_residual(u @ np.diag(w) @ u.conj().T, h) > tol or unitarity_defect(u) > tol:
        raise ValueError("eigendecomposition failed the reconstruction tolerance")
    return w, u


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


def project_span(basis: Sequence[np.ndarray], x: np.ndarray):
    """Least-squares coefficients of x in span(basis) and the max-norm
    relative residual of the projection."""
    cols = np.stack([np.asarray(b, dtype=complex).ravel() for b in basis], axis=1)
    vec = np.asarray(x, dtype=complex).ravel()
    coeffs, *_ = np.linalg.lstsq(cols, vec, rcond=None)
    resid = rel_residual(cols @ coeffs, vec)
    return coeffs, resid


def joint_eigenbasis(x: np.ndarray, y: np.ndarray, tol: float = 1e-8):
    """Common orthonormal eigenbasis of two commuting Hermitian matrices.

    Returns (U, ok): ok is False when the pair fails to diagonalize
    simultaneously within tolerance.
    """
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    wx, ux = np.linalg.eigh((x + x.conj().T) / 2)
    scale = max(1.0, float(np.max(np.abs(wx))))
    u = np.array(ux)
    start = 0
    while start < len(wx):
        stop = start + 1
        while stop < len(wx) and abs(wx[stop] - wx[stop - 1]) <= tol * scale:
            stop += 1
        block = ux[:, start:stop]
        comp = block.conj().T @ y @ block
        _, v = np.linalg.eigh((comp + comp.conj().T) / 2)
        u[:, start:stop] = block @ v
        start = stop
    dx = u.conj().T @ x @ u
    dy = u.conj().T @ y @ u
    ok = (rel_residual(dx, np.diag(np.diag(dx))) <= tol
          and rel_residual(dy, np.diag(np.diag(dy))) <= tol)
    return u, ok


# default evaluation grids for one-parameter groups and complex powers
T_GRID = (-2.0, -1.0, 0.5, 1.0, 2.0)
Z_GRID = (0.5, 1.0j, 1.0 + 1.0j)

# full basis-pair loops are used up to this dimension, seeded samples above
PAIR_CAP = 12
PAIR_SAMPLES = 90


class PositiveOperatorCalculus:
    """Spectral calculus for a positive definite Hermitian matrix.

    power(z) applies the entire function w -> w^z = exp(z log w) on the
    positive spectrum, so no branch choices arise.
    """

    def __init__(self, name: str, matrix: np.ndarray, tol: Tolerances):
        self.name = name
        self.matrix = np.asarray(matrix, dtype=complex)
        try:
            w, u = eigh_checked(self.matrix, tol.spectral)
        except ValueError as exc:
            raise CheckFailure(f"operator {name}: {exc}") from exc
        floor = tol.spectral * max(1.0, float(np.max(np.abs(w))))
        if float(np.min(w)) <= floor:
            raise CheckFailure(
                f"operator {name} is not positive definite "
                f"(offending eigenvalue {float(np.min(w)):.6g})")
        self.eigenvalues = w.real
        self.eigenvectors = u

    def power(self, z: complex) -> np.ndarray:
        wz = np.exp(complex(z) * np.log(self.eigenvalues.astype(complex)))
        return self.eigenvectors @ np.diag(wz) @ self.eigenvectors.conj().T


@dataclass
class GnsRealization:
    """The invariant-state GNS space with both regular representations.

    lam is the matrix of the GNS map, so Lambda(f) = lam @ coords(f), and
    frame = lam^-1 satisfies frame^H gram frame = I.  conv is the float
    convolution product of the memoized dual.  The realization carries the
    multiplication representation m, the convolution representation lambda,
    the multiplicative unitary W and the modular layer.  Antilinear
    operators (T, K, J) are stored through their linear parts: the
    operator sends v to mat @ conj(v).
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
    antipode: np.ndarray
    antipode_inv: np.ndarray
    invol: np.ndarray
    unit_vec: np.ndarray
    phi_row: np.ndarray
    sigma_mat: np.ndarray
    delta_vec: np.ndarray
    delta_inv_vec: np.ndarray
    conv_unit_vec: np.ndarray
    dual_invol: np.ndarray
    delta_hat_vec: np.ndarray
    # modular layer, filled by build_modular_operators
    t_mat: np.ndarray | None = None
    t_star: np.ndarray | None = None
    j_mat: np.ndarray | None = None
    k_mat: np.ndarray | None = None
    l_mat: np.ndarray | None = None
    nabla: np.ndarray | None = None
    nabla_hat: np.ndarray | None = None
    n_op: np.ndarray | None = None
    m_op: np.ndarray | None = None
    delta_op: np.ndarray | None = None
    delta_prime_op: np.ndarray | None = None
    delta_hat_op: np.ndarray | None = None
    delta_hat_prime_op: np.ndarray | None = None
    calculi: dict[str, PositiveOperatorCalculus] = field(default_factory=dict)

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

    def rmul_np(self, a) -> np.ndarray:
        d = self.dim
        return np.einsum("kij,j->ki", self.mult.reshape(d, d, d), self.coords(a))

    def conv_rmul_np(self, x) -> np.ndarray:
        d = self.dim
        return np.einsum("kij,j->ki", self.conv.reshape(d, d, d), self.coords(x))

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

    def delta_power_element(self, z: complex) -> np.ndarray:
        """Coordinates of delta^z, read off the functional calculus."""
        calc = self.calculi["delta"]
        return self.frame @ calc.power(z) @ self.lam @ self.unit_vec

    def delta_hat_power_element(self, z: complex) -> np.ndarray:
        """Coordinates of delta_hat^z as an element of the dual algebra."""
        calc = self.calculi["delta_hat"]
        return self.frame @ calc.power(z) @ self.lam @ self.conv_unit_vec

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


def _chol_frame(gram: np.ndarray, what: str,
                tol: Tolerances) -> tuple[np.ndarray, np.ndarray]:
    """(lam, frame) with lam^H lam = gram and frame = lam^-1."""
    herm = (gram + gram.conj().T) / 2
    if rel_residual(gram, herm) > tol.identity:
        raise TierRefusal(f"{what} is not Hermitian")
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
    """GNS realization of the invariant state, W and the modular layer.

    Refuses (TierRefusal) when the scaling constant differs from 1, when
    the Gram matrix phi(conj(e_i) e_j) is not Hermitian or not positive
    definite, when the frame fails to reproduce the Gram matrix within
    ``tol``, when the multiplication representation is not faithful, or
    when W fails unitarity, since the analytic layer is built under those
    standing assumptions; the modular layer raises CheckFailure when a
    defining action or a spectrum fails.  The construction asserts with
    ``tol``; the realization keeps ``tol`` and ``seed`` for the checks run
    on it.
    """
    haar = require_unit_scaling(model)
    gram = haar.gram.to_numpy()
    lam, frame = _chol_frame(gram, f"{model.name}: Gram matrix of phi", tol)
    if rel_residual(lam.conj().T @ lam, gram) > tol.identity:
        raise TierRefusal(f"{model.name}: GNS inner product does not "
                          "reproduce the Gram matrix")
    dual = build_dual(model)
    d = model.dim
    dm, dh = dual.dual, dual.dual_haar
    gns = GnsRealization(
        model=model, haar=haar, dual=dual, dim=d, tol=tol, gram=gram,
        frame=frame, lam=lam, conv=dm.mult.to_numpy(), seed=seed,
        m_rep=[], lambda_rep=[], w=np.eye(d * d),
        w_alg=np.eye(d * d), w_alg_inv=np.eye(d * d),
        mult=model.mult.to_numpy(), coprod=model.coprod.to_numpy(),
        antipode=model.antipode.to_numpy(),
        antipode_inv=model.antipode_inv.to_numpy(),
        invol=model.invol.to_numpy(),
        unit_vec=model.unit.to_numpy(),
        phi_row=haar.phi.to_numpy().reshape(-1),
        sigma_mat=haar.sigma.to_numpy(),
        delta_vec=haar.delta.to_numpy(),
        delta_inv_vec=haar.delta_inv.to_numpy(),
        conv_unit_vec=dm.unit.to_numpy(),
        dual_invol=dm.invol.to_numpy(),
        delta_hat_vec=dh.delta.to_numpy(),
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
    if defect > tol.identity:
        raise TierRefusal(f"{model.name}: multiplicative unitary fails "
                          f"unitarity (defect {defect:.3e})")
    return build_modular_operators(gns)


def build_modular_operators(gns: GnsRealization) -> GnsRealization:
    """Fill in T, K, L, J and the eight positive modular operators.

    Each defining action on Lambda(A) is asserted as a residual identity
    and each positive operator goes through the spectral calculus, which
    raises a failure naming the operator when the spectrum is not positive.
    """
    model, d, tol = gns.model, gns.dim, gns.tol
    lam, frame = gns.lam, gns.frame
    C, S = gns.invol, gns.antipode
    S2 = S @ S

    # T Lambda(f) = Lambda(conj(f)); antilinear, so the linear part applies
    # to conj(coords)
    gns.t_mat = lam @ C @ np.conj(frame)
    gns.t_star = gns.t_mat.T
    gns.nabla = gns.t_star @ np.conj(gns.t_mat)
    _assert_action(gns, "T*", gns.t_star @ np.conj(lam),
                   lam @ gns.sigma_mat @ C, antilinear=True)
    _assert_action(gns, "nabla", gns.nabla @ lam, lam @ gns.sigma_mat)
    _assert_action(gns, "T^2", gns.t_mat @ np.conj(gns.t_mat), np.eye(d))

    nabla_calc = PositiveOperatorCalculus("nabla", gns.nabla, tol)
    gns.j_mat = gns.t_mat @ np.conj(nabla_calc.power(-0.5))
    if unitarity_defect(gns.j_mat) > tol.spectral:
        raise CheckFailure(f"{model.name}: J is not antiunitary")
    _assert_action(gns, "J^2", gns.j_mat @ np.conj(gns.j_mat), np.eye(d),
                   tol=tol.spectral)

    # K Lambda(f) = Lambda'(S(conj f)) into the GNS space of psi = phi o S
    psi_row = gns.haar.psi.to_numpy().reshape(-1)
    pmat = gns.haar.pmat.to_numpy()
    gram_psi = C.T @ (psi_row @ gns.mult).reshape(d, d)
    lam_p, frame_p = _chol_frame(gram_psi, f"{model.name}: Gram matrix of psi",
                                 tol)
    gns.k_mat = lam_p @ S @ C @ np.conj(frame)
    _assert_action(gns, "K*", gns.k_mat.T @ np.conj(lam_p),
                   lam @ C @ np.conj(S), antilinear=True)
    gns.n_op = gns.k_mat.T @ np.conj(gns.k_mat)
    _assert_action(gns, "N", gns.n_op @ lam, lam @ S2)

    # L Lambda(f) = Lambda_delta(f) into the GNS space of phi(. delta .)
    lmul_delta = gns.lmul_np(gns.delta_vec)
    gram_delta = C.T @ pmat @ lmul_delta
    lam_d, frame_d = _chol_frame(gram_delta,
                                 f"{model.name}: Gram matrix of phi(. delta .)",
                                 tol)
    gns.l_mat = lam_d @ frame
    _assert_action(gns, "L*", gns.l_mat.conj().T @ lam_d, lam @ lmul_delta)
    gns.delta_op = gns.l_mat.conj().T @ gns.l_mat
    _assert_action(gns, "delta", gns.delta_op @ lam, lam @ lmul_delta)

    gns.delta_prime_op = lam @ gns.rmul_np(gns.delta_vec) @ frame
    _assert_action(gns, "delta' = J delta J",
                   gns.j_mat @ np.conj(gns.delta_op) @ np.conj(gns.j_mat),
                   gns.delta_prime_op, tol=tol.spectral)
    gns.delta_hat_op = lam @ gns.conv_lmul_np(gns.delta_hat_vec) @ frame
    gns.delta_hat_prime_op = lam @ gns.conv_rmul_np(gns.delta_hat_vec) @ frame
    gns.nabla_hat = lam @ gns.rmul_np(gns.delta_inv_vec) @ S2 @ frame
    gns.m_op = gns.delta_prime_op @ gns.n_op
    _assert_action(gns, "M", gns.m_op @ lam,
                   lam @ gns.rmul_np(gns.delta_vec) @ S2)

    gns.calculi = {"nabla": nabla_calc}
    for name, mat in [("nabla_hat", gns.nabla_hat), ("n", gns.n_op),
                      ("m", gns.m_op), ("delta", gns.delta_op),
                      ("delta_prime", gns.delta_prime_op),
                      ("delta_hat", gns.delta_hat_op),
                      ("delta_hat_prime", gns.delta_hat_prime_op)]:
        gns.calculi[name] = PositiveOperatorCalculus(name, mat, tol)
    return gns


def _assert_action(gns: GnsRealization, name: str, left: np.ndarray,
                   right: np.ndarray, tol: float | None = None,
                   antilinear: bool = False):
    tol = gns.tol.identity if tol is None else tol
    r = rel_residual(left, right)
    if r > tol:
        kind = "antilinear" if antilinear else "linear"
        raise CheckFailure(f"{gns.model.name}: defining action of {name} "
                           f"({kind}) fails with residual {r:.3e}")


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


def check_power_calculus(gns: GnsRealization) -> list[CheckRecord]:
    """Coherence laws of the spectral calculus on every positive operator."""
    ck = Checker(f"{gns.model.name}.gns.calc")
    tol = gns.tol
    eye = np.eye(gns.dim)

    def over(fun):
        worst, witness = 0.0, None
        for name, calc in gns.calculi.items():
            r = fun(calc)
            if r > worst:
                worst, witness = r, f"operator {name}"
        return worst, witness

    ck.numeric("power-zero", "power(0) = I", tol.spectral,
               lambda: over(lambda c: rel_residual(c.power(0), eye)))
    ck.numeric("power-one", "power(1) reproduces the operator", tol.spectral,
               lambda: over(lambda c: rel_residual(c.power(1), c.matrix)))
    ck.numeric("group-law", "power(y) power(z) = power(y+z)", tol.spectral,
               lambda: over(lambda c: max(
                   rel_residual(c.power(y) @ c.power(z), c.power(y + z))
                   for y in (0.5, 1.0j) for z in (0.25, -1.0, 2.0j))))
    ck.numeric("imaginary-unitary", "power(it) unitary for real t",
               tol.spectral,
               lambda: over(lambda c: max(
                   unitarity_defect(c.power(1j * t)) for t in T_GRID)))
    ck.numeric("half-self-adjoint", "power(t/2) self-adjoint for real t",
               tol.spectral,
               lambda: over(lambda c: max(
                   rel_residual(c.power(t / 2),
                                c.power(t / 2).conj().T) for t in T_GRID)))
    return ck.records


def complex_powers_as_multipliers(gns: GnsRealization,
                                  z: complex) -> list[CheckRecord]:
    """delta^z acts as a multiplier of m(A), and the power-conjugation
    automorphism rho_z has its closed form.

    rho_z(x) = N^{iz} x N^{-iz}; on m(f) it must equal
    m(delta^{-iz/2} (delta_hat^{iz/2} * f * delta_hat^{-iz/2}) delta^{iz/2}),
    and the underlying vector identity for N^z Lambda(g) is asserted too.
    """
    m, d, tol = gns.model, gns.dim, gns.tol
    ck = Checker(f"{m.name}.gns.powers[z={z}]")
    eye = np.eye(d)
    delta_calc = gns.calculi["delta"]
    n_calc = gns.calculi["n"]
    dz = delta_calc.power(z)

    def membership():
        worst, witness = 0.0, None
        for k in range(d):
            _, resid = project_span(gns.m_rep, dz @ gns.m_rep[k])
            if resid > worst:
                worst, witness = resid, f"basis element {k}"
        return worst, witness
    ck.numeric("membership", "delta^z m(e_k) lies in span m(A)",
               tol.multiplier, membership)

    def multiplier_match():
        elem = gns.delta_power_element(z)
        return max(rel_residual(dz @ gns.m_rep[k],
                                gns.m_of(gns.mul_np(elem, eye[:, k])))
                   for k in range(d))
    ck.numeric("multiplier-match",
               "delta^z m(a) = m(delta^z a) with delta^z from the "
               "functional calculus", tol.multiplier, multiplier_match)

    a_out = gns.delta_power_element(-1j * z / 2)
    b_out = gns.delta_power_element(1j * z / 2)
    dh_plus = gns.delta_hat_power_element(1j * z / 2)
    dh_minus = gns.delta_hat_power_element(-1j * z / 2)
    n_pow = n_calc.power(1j * z)
    n_pow_inv = n_calc.power(-1j * z)

    def rho_closed_form():
        worst, witness = 0.0, None
        for k in range(d):
            inner = gns.conv_np(dh_plus, gns.conv_np(eye[:, k], dh_minus))
            want = gns.m_of(gns.mul_np(a_out, gns.mul_np(inner, b_out)))
            got = n_pow @ gns.m_rep[k] @ n_pow_inv
            r = rel_residual(got, want)
            if r > worst:
                worst, witness = r, f"basis element {k}"
        return worst, witness
    ck.numeric("rho-closed-form",
               "rho_z(m(f)) = m(delta^{-iz/2} (delta_hat^{iz/2} * f * "
               "delta_hat^{-iz/2}) delta^{iz/2})", tol.multiplier,
               rho_closed_form)

    def n_power_vector():
        sandwich = (gns.lmul_np(b_out) @ gns.rmul_np(a_out)
                    @ gns.conv_lmul_np(dh_minus) @ gns.conv_rmul_np(dh_plus))
        return rel_residual(n_calc.power(z) @ gns.lam, gns.lam @ sandwich)
    ck.numeric("n-power-vector",
               "N^z Lambda(g) = Lambda(delta^{iz/2} (delta_hat^{-iz/2} * g "
               "* delta_hat^{iz/2}) delta^{-iz/2})", tol.multiplier,
               n_power_vector)
    return ck.records


def _strong_commute(ck: Checker, key: str, label: str,
                    x: np.ndarray, y: np.ndarray, tol: Tolerances):
    ck.numeric(f"{key}.commute", f"{label} commute", tol.identity,
               lambda: rel_residual(x @ y, y @ x))

    def joint():
        u, ok = joint_eigenbasis(x, y, tol.spectral)
        dx = u.conj().T @ x @ u
        dy = u.conj().T @ y @ u
        resid = max(rel_residual(dx, np.diag(np.diag(dx))),
                    rel_residual(dy, np.diag(np.diag(dy))))
        return resid if ok else max(resid, 1.0)
    ck.numeric(f"{key}.joint-diagonal",
               f"{label} are simultaneously diagonalizable", tol.spectral,
               joint)


def check_commutation_relations(gns: GnsRealization) -> list[CheckRecord]:
    """Commutation relations between W and the positive modular operators.

    Strong commutation of a pair of positive operators is rendered as
    commutation of the matrices plus simultaneous diagonalizability.
    """
    m, d, tol = gns.model, gns.dim, gns.tol
    ck = Checker(f"{m.name}.gns.commute")
    eye = np.eye(d)
    delta, dprime = gns.delta_op, gns.delta_prime_op
    dhat, dhat_prime = gns.delta_hat_op, gns.delta_hat_prime_op
    n_op = gns.n_op

    ck.numeric("delta.w", "(1 (x) delta) W = W (delta (x) delta)",
               tol.identity,
               lambda: rel_residual(np.kron(eye, delta) @ gns.w,
                                    gns.w @ np.kron(delta, delta)))
    ck.numeric("delta.coproduct", "coprod(delta) = delta (x) delta",
               tol.identity,
               lambda: rel_residual(
                   gns.w.conj().T @ np.kron(eye, delta) @ gns.w,
                   np.kron(delta, delta)))
    ck.numeric("n.w", "(N (x) N) W = W (N (x) N)", tol.identity,
               lambda: rel_residual(np.kron(n_op, n_op) @ gns.w,
                                    gns.w @ np.kron(n_op, n_op)))
    ck.numeric("nu.one", "sigma(delta) = delta (the twist constant is 1)",
               tol.identity,
               lambda: abs(gns.haar.nu.to_complex() - 1.0))

    conj_ratio = delta @ np.linalg.inv(dprime)
    conj_ratio_hat = dhat @ np.linalg.inv(dhat_prime)
    pairs = [
        ("delta-n", "delta and N", delta, n_op),
        ("delta-hat-n", "delta_hat and N", dhat, n_op),
        ("delta-prime-n", "delta' and N", dprime, n_op),
        ("delta-hat-prime-n", "delta_hat' and N", dhat_prime, n_op),
        ("delta-delta-prime", "delta and delta'", delta, dprime),
        ("delta-hat-pair", "delta_hat and delta_hat'", dhat, dhat_prime),
        ("delta-hat-ratio", "delta_hat' and delta delta'^-1",
         dhat_prime, conj_ratio),
        ("delta-hat-vs-ratio", "delta_hat and delta delta'^-1",
         dhat, conj_ratio),
        ("ratios", "delta delta'^-1 and delta_hat delta_hat'^-1",
         conj_ratio, conj_ratio_hat),
    ]
    for key, label, x, y in pairs:
        _strong_commute(ck, key, label, x, y, gns.tol)

    def it_stability():
        worst, witness = 0.0, None
        calc = gns.calculi["delta"]
        for t in T_GRID:
            u = calc.power(1j * t)
            u_inv = calc.power(-1j * t)
            for k in range(d):
                _, resid = project_span(gns.m_rep, u @ gns.m_rep[k] @ u_inv)
                if resid > worst:
                    worst, witness = resid, f"t = {t}, basis element {k}"
        return worst, witness
    ck.numeric("delta-it.stability",
               "delta^{it} m(A) delta^{-it} lies in m(A)", tol.multiplier,
               it_stability)
    return ck.records


def check_modular_groups(gns: GnsRealization) -> list[CheckRecord]:
    """Modular groups of both Haar functionals, and the rho/tau groups.

    sigma_t = Ad(nabla^{it}), sigma_hat_t = Ad(nabla_hat^{it}),
    rho_t = Ad(N^{it}) and tau_t = Ad(M^{-it}) with M = delta' N.
    """
    m, d, tol = gns.model, gns.dim, gns.tol
    ck = Checker(f"{m.name}.gns.modgroup")
    eye = np.eye(d)
    nabla_c = gns.calculi["nabla"]
    nh_c = gns.calculi["nabla_hat"]
    n_c = gns.calculi["n"]
    m_c = gns.calculi["m"]
    dp_c = gns.calculi["delta_prime"]
    s2_inv = gns.antipode_inv @ gns.antipode_inv
    s2 = gns.antipode @ gns.antipode
    rmul_delta = gns.rmul_np(gns.delta_vec)
    rmul_delta_inv = gns.rmul_np(gns.delta_inv_vec)

    def sigma_hat_integer():
        worst, witness = 0.0, None
        for n in range(-2, 3):
            left = nh_c.power(-n)
            right = nh_c.power(n)
            s_pow = np.linalg.matrix_power(s2_inv if n >= 0 else s2, abs(n))
            d_pow = np.linalg.matrix_power(
                rmul_delta if n >= 0 else rmul_delta_inv, abs(n))
            for k in range(d):
                want = gns.conv_of(d_pow @ s_pow @ eye[:, k])
                got = left @ gns.lambda_rep[k] @ right
                r = rel_residual(got, want)
                if r > worst:
                    worst, witness = r, f"n = {n}, basis element {k}"
        return worst, witness
    ck.numeric("sigma-hat.integer",
               "sigma_hat_{in}(lambda(f)) = lambda(S^{-2n}(f) delta^n), "
               "n in -2..2", tol.multiplier, sigma_hat_integer)

    def sigma_decomposition():
        worst, witness = 0.0, None
        for z in Z_GRID:
            lhs_l = nabla_c.power(1j * z)
            lhs_r = nabla_c.power(-1j * z)
            mid_l = dp_c.power(-1j * z) @ n_c.power(1j * z)
            mid_r = n_c.power(-1j * z) @ dp_c.power(1j * z)
            for k in range(d):
                got = lhs_l @ gns.lambda_rep[k] @ lhs_r
                want = mid_l @ gns.lambda_rep[k] @ mid_r
                r = rel_residual(got, want)
                if r > worst:
                    worst, witness = r, f"z = {z}, basis element {k}"
        return worst, witness
    ck.numeric("sigma.decomposition",
               "sigma_z(lambda(f)) = delta'^{-iz} rho_z(lambda(f)) "
               "delta'^{iz}", tol.spectral, sigma_decomposition)

    def stability(calc, reps, sign=1):
        def run():
            worst, witness = 0.0, None
            for z in Z_GRID:
                u = calc.power(sign * 1j * z)
                u_inv = calc.power(-sign * 1j * z)
                for k in range(d):
                    _, resid = project_span(reps, u @ reps[k] @ u_inv)
                    if resid > worst:
                        worst, witness = resid, f"z = {z}, basis element {k}"
            return worst, witness
        return run
    ck.numeric("sigma.stability", "sigma_z(m(A)) lies in m(A)",
               tol.multiplier, stability(nabla_c, gns.m_rep))
    ck.numeric("sigma-hat.stability", "sigma_hat_z(lambda(D)) lies in "
               "lambda(D)", tol.multiplier, stability(nh_c, gns.lambda_rep))
    ck.numeric("rho.stability", "rho_z(m(A)) lies in m(A)",
               tol.multiplier, stability(n_c, gns.m_rep))
    ck.numeric("rho.stability-dual", "rho_z(lambda(D)) lies in lambda(D)",
               tol.multiplier, stability(n_c, gns.lambda_rep))
    ck.numeric("tau.stability", "tau_z(m(A)) lies in m(A)",
               tol.multiplier, stability(m_c, gns.m_rep, sign=-1))
    return ck.records


def unitary_antipode(gns: GnsRealization) -> tuple[np.ndarray, float]:
    """Coordinate matrix of R = tau_{i/2} o S, with the worst projection
    residual of tau_{i/2}(m(S e_k)) onto m(A)."""
    d = gns.dim
    m_c = gns.calculi["m"]
    t_half = m_c.power(0.5)
    t_half_inv = m_c.power(-0.5)
    r_mat = np.zeros((d, d), dtype=complex)
    r_resid = 0.0
    for k in range(d):
        x = t_half @ gns.m_of(gns.antipode[:, k]) @ t_half_inv
        coeffs, resid = project_span(gns.m_rep, x)
        r_mat[:, k] = coeffs
        r_resid = max(r_resid, resid)
    return r_mat, r_resid


def check_invariance_and_kms(gns: GnsRealization) -> list[CheckRecord]:
    """Left invariance at the operator level, the approximate-KMS bound,
    and the unitary antipode R = tau_{i/2} o S.

    The operator-level invariance sweep works on the tensor square and is
    skipped once dim^3 exceeds ``CUBE_CAP``.
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

    nabla_c = gns.calculi["nabla"]
    sig_half = nabla_c.power(-0.5)
    sig_half_inv = nabla_c.power(0.5)

    def kms():
        worst, witness = 0.0, None
        for i in range(d):
            bound = op_norm(sig_half @ gns.m_of(gns.star_np(eye[:, i]))
                            @ sig_half_inv)
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

    r_mat, r_resid = unitary_antipode(gns)
    ck.numeric("r.lands-in-span",
               "tau_{i/2}(m(S f)) lies in m(A)", tol.multiplier,
               lambda: r_resid)
    ck.numeric("r.involutive", "R^2 = id", tol.spectral,
               lambda: rel_residual(r_mat @ r_mat, eye))
    flip = m.flipA.to_numpy()
    ck.numeric("r.anti-multiplicative", "R(ab) = R(b) R(a)", tol.spectral,
               lambda: rel_residual(r_mat @ gns.mult,
                                    gns.mult @ np.kron(r_mat, r_mat) @ flip))
    phi_r = gns.phi_row @ r_mat
    ck.numeric("r.right-invariant",
               "(phi o R (x) iota)(coprod f) = phi(R f) 1", tol.spectral,
               lambda: rel_residual(
                   np.kron(phi_r, eye) @ gns.coprod,
                   np.outer(gns.unit_vec, phi_r)))
    return ck.records


def check_kac_triviality(gns: GnsRealization) -> list[CheckRecord]:
    """On a Kac-type model every modular operator equals the identity.

    Kac type means S^2 = id with a tracial invariant state; every
    positive-tier finite-dimensional model is of this kind, which is why
    nontrivial modular spectra never show up in this layer.
    """
    m, d, tol = gns.model, gns.dim, gns.tol
    ck = Checker(f"{m.name}.gns.kac")
    s2 = gns.antipode @ gns.antipode
    is_kac = (rel_residual(s2, np.eye(d)) <= tol.identity
              and rel_residual(gns.sigma_mat, np.eye(d)) <= tol.identity)
    if not is_kac:
        ck.skip("identity", "all modular operators equal the identity",
                "model is not of Kac type")
        return ck.records
    eye = np.eye(d)
    ops = {"nabla": gns.nabla, "nabla_hat": gns.nabla_hat, "n": gns.n_op,
           "m": gns.m_op, "delta": gns.delta_op,
           "delta_prime": gns.delta_prime_op, "delta_hat": gns.delta_hat_op,
           "delta_hat_prime": gns.delta_hat_prime_op}

    def all_identity():
        worst, witness = 0.0, None
        for name, op in ops.items():
            r = rel_residual(op, eye)
            if r > worst:
                worst, witness = r, f"operator {name}"
        return worst, witness
    ck.numeric("identity", "all modular operators equal the identity",
               tol.identity, all_identity)
    return ck.records


def analytic_suite(gns: GnsRealization) -> list[CheckRecord]:
    """Every analytic-layer check on one realization, in a fixed order."""
    records = []
    records += check_regular_reps(gns)
    records += check_w_properties(gns)
    records += check_coproduct_implementation(gns)
    records += check_power_calculus(gns)
    for z in Z_GRID:
        records += complex_powers_as_multipliers(gns, z)
    records += check_commutation_relations(gns)
    records += check_modular_groups(gns)
    records += check_invariance_and_kms(gns)
    records += check_kac_triviality(gns)
    return records
