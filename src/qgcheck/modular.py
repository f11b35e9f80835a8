"""Invariant functionals and the modular machinery they generate.

The left-invariant functional phi is found as the kernel of a linear
system, so its existence and uniqueness are computed facts rather than
inputs.  From phi we derive the right-invariant psi = phi o S, the modular
automorphism sigma, the modular element delta, the scaling constant mu
with phi(S^2 a) = mu phi(a), and the Gram matrix of the sesquilinear form
phi(a* b).  Positivity of that form is decided exactly, by the signs of
the pivots of its LDL* factorization over Q(zeta_N), and compared against
the model's declared tier; a mismatch is an error, never silently
patched.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ModelError, SingularMap, TierRefusal
from .hopf import QGModel
from .linalg import LinMap, Vec, apply_on_legs, inverse, kernel
from .report import Checker, CheckRecord
from .scalars import Cyc


@dataclass(frozen=True)
class HaarData:
    model: QGModel
    phi: LinMap          # left invariant, normalized
    psi: LinMap          # phi o S, right invariant
    pmat: LinMap         # P[i, j] = phi(e_i e_j)
    pmat_inv: LinMap
    sigma: LinMap        # phi(ab) = phi(b sigma(a))
    sigma_inv: LinMap    # (P^T)^-1 P, sorted into the column order of ``inverse``
    sigma_prime: LinMap  # psi(ab) = psi(b sigma'(a))
    sigma_prime_inv: LinMap  # (Q^T)^-1 Q, Q[i, j] = psi(e_i e_j), sorted as sigma_inv
    delta: Vec           # (phi (x) id)coprod(a) = phi(a) delta
    delta_inv: Vec
    mu: Cyc              # phi(S^2 a) = mu phi(a)
    nu: Cyc              # sigma(delta) = nu delta
    gram: LinMap         # G[i, j] = phi(e_i* e_j)
    gram_positive: bool

    def phi_of(self, v: Vec) -> Cyc:
        return self.phi(v).get(0)


def _invariance_system(model: QGModel, side: str) -> LinMap:
    """Equations cutting out the invariant functionals.

    side="left":  (id (x) phi)coprod(a) = phi(a) 1 for every basis a
    side="right": (phi (x) id)coprod(a) = phi(a) 1
    Unknowns are the values phi(e_j); equations are indexed by (a, out).
    """
    keep = (2, 0, 1) if side == "left" else (2, 1, 0)
    return model.coprod.regroup(keep, 2) - model.idA.tensor(model.unit)


def _sign(p: Cyc, what: str) -> int:
    """Sign of a real cyclotomic number, named ``what`` in errors.

    A rational value is signed by its numerator.  Any other real value is
    signed in floating point, and only when |value| exceeds a bound on the
    rounding error of ``to_complex``: each of its terms nums[j]/den *
    zeta^j is off by at most a few ulps per power of zeta, so
    order * 2^-44 * sum|nums| / den leaves a wide margin.
    """
    if p.is_rational():
        return (p.nums[0] > 0) - (p.nums[0] < 0)
    value = p.to_complex().real
    bound = p.order * sum(map(abs, p.nums)) / p.den * 2.0 ** -44
    if abs(value) <= bound:
        raise ModelError(f"cannot sign {what} = {p!r}: its float value "
                         f"{value:.3e} is within the rounding bound "
                         f"{bound:.1e}")
    return 1 if value > 0 else -1


def form_matrix(f: LinMap, mult: LinMap, left: LinMap) -> LinMap:
    """M[i, j] = f(left(e_i) e_j) for a functional f and a product mult,
    its entries stored in row-major order."""
    spread = apply_on_legs(left, (0,), LinMap.identity(mult.dom))
    return (f @ mult @ spread).regroup((0, 1), 1)


def positive_definite(m: LinMap) -> bool:
    """Whether a Hermitian matrix is positive definite, decided exactly.

    Symmetric Gaussian elimination in index order (the LDL* factorization)
    on sparse rows: the k-th pivot is the ratio of the k-th and (k-1)-th
    leading principal minors, so the matrix is positive definite exactly
    when every pivot is real and greater than 0.  Raises ModelError naming
    the pivot whose sign floating point cannot decide.  The caller checks
    that m is Hermitian.
    """
    rows: dict[int, dict[int, Cyc]] = {}
    for i, j, v in m.entries():
        rows.setdefault(i, {})[j] = v
    for k in range(m.cod_dim):
        prow = rows.get(k, {})
        p = prow.pop(k, None)
        if p is None or not p.is_real() or _sign(p, f"pivot {k}") <= 0:
            return False
        inv = p.inverse()
        for i, f in prow.items():
            if i <= k:
                continue
            row = rows.setdefault(i, {})
            factor = f.conj() * inv
            for j, v in prow.items():
                if j > k:
                    t = row.get(j)
                    t = -factor * v if t is None else t - factor * v
                    if t.is_zero():
                        row.pop(j, None)
                    else:
                        row[j] = t
    return True


def solve_haar(model: QGModel) -> HaarData:
    """Compute the invariant functional and everything it induces; each
    call solves anew, so a caller builds it once and hands it on."""
    d = model.dim
    ker = kernel(_invariance_system(model, "left"))
    if len(ker) != 1:
        raise ModelError(
            f"{model.name}: left-invariant functional space has dimension "
            f"{len(ker)}, expected 1")
    raw = ker[0]
    val_at_unit = sum((raw.get(i) * u for i, u in model.unit.data.items()),
                      Cyc.zero())
    if not val_at_unit.is_zero():
        scale = val_at_unit.inverse()
    else:
        scale = raw.data[min(raw.data)].inverse()
    values = [scale * raw.get(j) for j in range(d)]
    phi = LinMap.functional(model.A, values)

    psi = phi @ model.antipode

    def value_matrix(f: LinMap) -> LinMap:
        """M[i, j] = f(e_i e_j) for a functional f."""
        return (f @ model.mult).regroup((0, 1), 1)

    pmat = value_matrix(phi)
    try:
        pmat_inv = inverse(pmat)
    except SingularMap as e:
        raise ModelError(f"{model.name}: invariant functional is not faithful "
                         f"({e})") from e
    # sigma = P^-1 P^T and sigma' = Q^-1 Q^T, Q the value matrix of psi; each
    # inverse (V^T)^-1 V is sorted into the column order of ``inverse``
    qmat = value_matrix(psi)
    (sigma, sigma_inv), (sigma_prime, sigma_prime_inv) = (
        (v_inv @ v.transpose(), LinMap.from_entries(model.A, model.A, sorted(
            (v_inv.transpose() @ v).entries(), key=lambda e: (e[1], e[0]))))
        for v, v_inv in ((pmat, pmat_inv), (qmat, inverse(qmat))))

    # (phi (x) id)coprod has rank one: column k equals phi(e_k) delta
    dmap = apply_on_legs(phi, (0,), model.coprod)
    k0 = next(j for j in range(d) if not values[j].is_zero())
    delta = values[k0].inverse() * dmap.column(k0)
    if not (dmap - delta @ phi).is_zero():
        raise ModelError(f"{model.name}: no single modular element matches "
                         "(phi (x) id)coprod")
    # delta is group-like, so L_S(delta) inverts L_delta; only where it
    # does not (a faulty model, where the product may not even be
    # associative) is L_delta eliminated
    l_inv = model.lmul(model.antipode(delta))
    if l_inv @ model.lmul(delta) != model.idA:
        try:
            l_inv = inverse(model.lmul(delta))
        except SingularMap as e:
            raise ModelError(f"{model.name}: modular element is not invertible ({e})") from e
    delta_inv = l_inv(model.unit)

    scaled = phi @ model.antipode @ model.antipode
    mu = scaled.entry(0, k0) / values[k0]
    if not (scaled - phi.scale(mu)).is_zero():
        raise ModelError(f"{model.name}: phi o S^2 is not proportional to phi")

    sd = sigma(delta)
    j0 = next(iter(delta.data))
    nu = sd.get(j0) / delta.get(j0)
    if not (sd - nu * delta).is_zero():
        raise ModelError(f"{model.name}: sigma does not scale the modular element")

    gram = form_matrix(phi, model.mult, model.invol)
    try:
        gram_positive = gram == gram.adjoint() and positive_definite(gram)
    except ModelError as e:
        raise ModelError(f"{model.name}: Gram matrix phi(a* b): {e}") from e
    if gram_positive != model.positive:
        raise ModelError(
            f"{model.name}: declared positive={model.positive} but the form "
            f"phi(a* b) {'is' if gram_positive else 'is not'} positive definite")

    return HaarData(model=model, phi=phi, psi=psi, pmat=pmat,
                    pmat_inv=pmat_inv, sigma=sigma, sigma_inv=sigma_inv,
                    sigma_prime=sigma_prime, sigma_prime_inv=sigma_prime_inv,
                    delta=delta, delta_inv=delta_inv,
                    mu=mu, nu=nu, gram=gram, gram_positive=gram_positive)


def require_unit_scaling(haar: HaarData) -> HaarData:
    """haar, or TierRefusal when its mu differs from 1.

    mu = 1 is a standing assumption of the analytic tier and of
    the representation-level records of the subgroup certificate; this
    exact test is how both refuse a model.
    """
    model, mu = haar.model, haar.mu
    if not (mu - model.scalar(1)).is_zero():
        raise TierRefusal(
            f"{model.name}: scaling constant mu = {mu!r} differs from 1; "
            "the analytic layer runs under the standing assumption mu = 1")
    return haar


def require_positive_gram(haar: HaarData) -> HaarData:
    """haar, or TierRefusal unless its Gram matrix is positive definite."""
    if not haar.gram_positive:
        raise TierRefusal(f"{haar.model.name}: Gram matrix of phi is not "
                          "Hermitian positive definite")
    return haar


def alpha_map(haar: HaarData) -> LinMap:
    """alpha(a) = delta^-1 S^-2(a) delta, the second-leg twist of sigma."""
    m = haar.model
    return m.lmul(haar.delta_inv) @ m.rmul(haar.delta) \
        @ m.antipode_inv @ m.antipode_inv


def check_modular_structure(haar: HaarData) -> list[CheckRecord]:
    """All identities tying phi, psi, sigma, delta and mu together."""
    m = haar.model
    ck = Checker(f"{m.name}.haar")
    i, d_, S = m.idA, m.coprod, m.antipode
    phi, psi, sigma = haar.phi, haar.psi, haar.sigma
    delta, delta_inv, mu, nu = haar.delta, haar.delta_inv, haar.mu, haar.nu

    ck.exact("left-invariance", "(id(x)phi)coprod(a) = phi(a)1",
             lambda: apply_on_legs(phi, (1,), d_) - m.unit @ phi)
    ck.exact("right-invariance", "(psi(x)id)coprod(a) = psi(a)1",
             lambda: apply_on_legs(psi, (0,), d_) - m.unit @ psi)
    for side in ("left", "right"):
        ck.exact(f"{side}-unique", f"{side}-invariant functionals form a line",
                 lambda side=side: len(kernel(_invariance_system(m, side))) == 1)
    ck.exact("faithful", "phi(. a) = 0 forces a = 0",
             lambda: haar.pmat_inv @ haar.pmat - i)

    ck.exact("sigma.defining", "phi(ab) = phi(b sigma(a))",
             lambda: phi @ m.mult
             - apply_on_legs(phi @ m.mult @ m.flipA, (0, 1), sigma, i))
    ck.exact("sigma.auto", "sigma(ab) = sigma(a)sigma(b)",
             lambda: sigma @ m.mult - apply_on_legs(m.mult, (0, 1), sigma, sigma))
    ck.exact("sigma.unit", "sigma(1) = 1", lambda: sigma(m.unit) - m.unit)
    ck.exact("sigma.phi-fixed", "phi o sigma = phi", lambda: phi @ sigma - phi)
    ck.exact("sigma.s2-commute", "sigma o S^2 = S^2 o sigma",
             lambda: sigma @ S @ S - S @ S @ sigma)
    ck.exact("sigma.star", "sigma(a*) = (sigma^-1(a))*",
             lambda: sigma @ m.invol - m.invol @ haar.sigma_inv.conj())

    ck.exact("sigma-prime.defining", "psi(ab) = psi(b sigma'(a))",
             lambda: psi @ m.mult
             - apply_on_legs(psi @ m.mult @ m.flipA, (0, 1), haar.sigma_prime, i))
    ck.exact("sigma-prime.conjugate", "sigma'(a) = delta sigma(a) delta^-1",
             lambda: haar.sigma_prime
             - m.lmul(delta) @ m.rmul(delta_inv) @ sigma)
    ck.exact("sigma-prime.antipode", "sigma' = S^-1 o sigma^-1 o S",
             lambda: haar.sigma_prime
             - m.antipode_inv @ haar.sigma_inv @ S)

    ck.exact("delta.grouplike", "coprod(delta) = delta(x)delta",
             lambda: d_(delta) - delta.tensor(delta))
    ck.exact("delta.counit", "eps(delta) = 1",
             lambda: m.counit_of(delta) - Cyc.one(1))
    ck.exact("delta.antipode", "S(delta) delta = 1",
             lambda: m.mul(S(delta), delta) - m.unit)
    ck.exact("delta.star", "delta* = delta", lambda: m.bar(delta) - delta)
    ck.exact("delta.right-shift", "phi(a delta) = phi(S(a))",
             lambda: phi @ m.rmul(delta) - phi @ S)
    ck.exact("delta.left-shift", "phi(delta a) = phi(S^-1(a))",
             lambda: phi @ m.lmul(delta) - phi @ m.antipode_inv)

    ck.exact("mu.scaling", "phi(S^2 a) = mu phi(a)",
             lambda: phi @ S @ S - phi.scale(mu))
    ck.exact("mu.unimodular-scalar", "mu conj(mu) = 1",
             lambda: mu * mu.conj() - Cyc.one(1))
    ck.exact("nu.inverse-scaling", "sigma(delta) = mu^-1 delta",
             lambda: nu * mu - Cyc.one(1))
    if m.positive:
        ck.exact("mu.positive-tier", "positive models have mu = 1",
                 lambda: mu - Cyc.one(1))
        ck.exact("phi.star", "phi(a*) = conj(phi(a))",
                 lambda: phi @ m.invol - phi.conj())
    ck.exact("phi.star-scaling", "phi(a*) = mu conj(phi(a))",
             lambda: phi @ m.invol - phi.conj().scale(mu))

    ck.exact("sigma.coprod-left", "coprod o sigma = (S^2 (x) sigma) o coprod",
             lambda: d_ @ sigma - (S @ S).tensor(sigma) @ d_)

    ck.exact("sigma.coprod-right",
             "coprod o sigma = (sigma (x) delta^-1 S^-2(.) delta) o coprod",
             lambda: d_ @ sigma - sigma.tensor(alpha_map(haar)) @ d_)
    ck.exact("psi.scaling", "psi(S^2 a) = mu psi(a)",
             lambda: psi @ S @ S - psi.scale(mu))
    return ck.records
