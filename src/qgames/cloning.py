"""Quantum channels for copy games: the optimal universal cloner and friends.

The star construction maps an n_in-copy input to the n_out-copy symmetric
subspace,

    rho  ->  (dim_sym(d, n_in) / dim_sym(d, n_out)) *
             P_sym (rho tensor I^{(n_out - n_in)}) P_sym,

realized here by one Kraus operator per computational basis vector of the
padding register.  On product-state inputs its n_out-copy fidelity with the
source state is the constant dim_sym(d, n_in)/dim_sym(d, n_out), and no
channel beats that on Haar average.

Haar-averaged fidelities are evaluated exactly through the Choi matrix.
Game inputs psi^{(x)n_in} lie in the symmetric subspace, so the channel only
matters on Sym_in, and the cached Choi matrix is the one of the restricted
map: J = sum_K vec(K V_in) vec(K V_in)^dag on Sym_in (x) out, where
V_in = sym_isometry(d, n_in).  The average of <psi^{m}| ch(psi^{n}) |psi^{m}>
over Haar psi is then

    tr[ J * PT_in( (I (x) V_m) S S^T (I (x) V_m)^T ) ] / dim_sym(d, n+m),

where S = sym_split(d, n, m) maps Sym_{n+m} into Sym_n (x) Sym_m and PT_in
transposes the input block: averaging psi^{tensor(n+m)} gives the symmetric
projector over dim_sym (see symmetric.haar_moment), that projector is
(V_n (x) V_m) S S^T (V_n (x) V_m)^T, and the input factors enter the trace
transposed.  No object of dimension d^(n+m) is built.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .core import (
    DEFAULT_SIZE_CAP,
    DensityOperator,
    InvalidArity,
    PureState,
    RandomStream,
    ShapeError,
    _frozen,
    check_size_cap,
    partial_trace_matrix,
    tensor_power,
)
from .symmetric import dim_sym, sym_isometry, sym_projector, sym_split

COMPLETENESS_ATOL = 1e-10

_log = logging.getLogger(__name__)


class Channel:
    """Completely positive map between copy registers, stored as Kraus operators.

    `domain` declares where trace preservation is promised: "full" means
    sum(K^dag K) equals the identity on the whole input space, "symmetric"
    means it equals the identity restricted to the n_in-copy symmetric
    subspace (game inputs are always product states, which live there).
    Completeness and positivity of the cached Choi matrix are verified at
    construction.

    `choi` is the Choi matrix of the channel restricted to the symmetric
    input subspace, sum_K vec(K V_in) vec(K V_in)^dag on Sym_in (x) out with
    V_in = sym_isometry(d, n_in), index (c, a) for symmetric input c and output
    a; its side is dim_sym(d, n_in) * d^n_out.  It fixes the channel on every
    game input, which is all the exact evaluators read; the Kraus operators
    keep the full input space.
    """

    def __init__(self, d, n_in, n_out, kraus, domain="full", atol=COMPLETENESS_ATOL):
        if domain not in ("full", "symmetric"):
            raise ValueError(f"unknown domain {domain!r}")
        self.d = int(d)
        self.n_in = int(n_in)
        self.n_out = int(n_out)
        self.dim_in = self.d**self.n_in
        self.dim_out = self.d**self.n_out
        self.domain = domain
        ops = []
        for k in kraus:
            k = np.asarray(k, dtype=complex)
            if k.shape != (self.dim_out, self.dim_in):
                raise ShapeError(
                    f"Kraus operator shape {k.shape} != ({self.dim_out}, {self.dim_in})"
                )
            ops.append(k)
        if not ops:
            raise ShapeError("channel needs at least one Kraus operator")
        stacked = np.stack(ops)
        stacked.setflags(write=False)
        # read-only views into the one (K, out, in) array
        self.kraus = tuple(stacked)

        defect = self.completeness_defect()
        if defect > atol:
            raise ValueError(
                f"Kraus operators not trace preserving on {domain} domain "
                f"(defect {defect:.3e} > {atol:.0e})"
            )
        compressed = stacked @ sym_isometry(self.d, self.n_in)
        # w[K, (c, a)] = (K V_in)[a, c]: the Choi matrix lives on Sym_in (x) out
        w = compressed.transpose(0, 2, 1).reshape(len(stacked), -1)
        choi = w.T @ w.conj()
        if np.linalg.eigvalsh(choi).min() < -atol:
            raise ValueError("Choi matrix is not PSD within tolerance")
        choi.setflags(write=False)
        self.choi = choi
        _log.debug(
            "Channel d=%d n_in=%d n_out=%d: %d Kraus operators, Choi side %d on "
            "Sym_in (x) out (full in (x) out: %d)",
            self.d, self.n_in, self.n_out, len(self.kraus), choi.shape[0],
            self.dim_in * self.dim_out,
        )

    def completeness_defect(self) -> float:
        """Operator-norm distance of sum(K^dag K) from the domain identity.

        The Kraus operators stacked vertically form one (K * out, in) matrix
        whose Gram matrix is sum(K^dag K).
        """
        rows = np.reshape(self.kraus, (-1, self.dim_in))
        total = rows.conj().T @ rows
        if self.domain == "full":
            delta = total - np.eye(self.dim_in)
        else:
            iso = sym_isometry(self.d, self.n_in)
            delta = iso.conj().T @ total @ iso - np.eye(iso.shape[1])
        return float(np.linalg.norm(delta, 2))

    def apply_matrix(self, mat: np.ndarray) -> np.ndarray:
        mat = np.asarray(mat, dtype=complex)
        if mat.shape != (self.dim_in, self.dim_in):
            raise ShapeError(f"input shape {mat.shape} != ({self.dim_in}, {self.dim_in})")
        out = np.zeros((self.dim_out, self.dim_out), dtype=complex)
        for k in self.kraus:
            out += k @ mat @ k.conj().T
        return out

    def apply(self, rho: DensityOperator) -> DensityOperator:
        return DensityOperator(self.apply_matrix(rho.matrix))

    def __repr__(self):
        return (
            f"Channel(d={self.d}, n_in={self.n_in}, n_out={self.n_out}, "
            f"kraus={len(self.kraus)}, domain={self.domain!r})"
        )


def optimal_cloner(d, n_in, n_out, size_cap=DEFAULT_SIZE_CAP) -> Channel:
    """The optimal universal n_in -> n_out cloner (see module docstring).

    Kraus operators are sqrt(dim ratio) * P_sym * (I tensor |e_i>), one per
    basis vector e_i of the padding register; their completeness on the
    symmetric input subspace follows from the partial-trace identity
    tr_partial(P_sym^{(m)}) = (dim_sym(d,m)/dim_sym(d,n)) P_sym^{(n)}.
    """
    if not 1 <= n_in <= n_out:
        raise InvalidArity(f"need 1 <= n_in <= n_out, got ({n_in}, {n_out})")
    check_size_cap(d ** (n_in + n_out), size_cap)
    proj = sym_projector(d, n_out, size_cap)
    dim_in, dim_out = d**n_in, d**n_out
    pad = d ** (n_out - n_in)
    scale = math.sqrt(dim_sym(d, n_in) / dim_sym(d, n_out))
    kraus = []
    for i in range(pad):
        inject = np.zeros((dim_out, dim_in))
        inject[np.arange(dim_in) * pad + i, np.arange(dim_in)] = 1.0
        kraus.append(scale * (proj @ inject))
    return Channel(d, n_in, n_out, kraus, domain="symmetric")


def product_embedding_channel(d, n_in, n_out) -> Channel:
    """rho -> rho tensor (I/d)^{(n_out - n_in)}: keep the input, pad with noise."""
    if not 1 <= n_in <= n_out:
        raise InvalidArity(f"need 1 <= n_in <= n_out, got ({n_in}, {n_out})")
    dim_in = d**n_in
    pad = d ** (n_out - n_in)
    kraus = []
    for i in range(pad):
        inject = np.zeros((dim_in * pad, dim_in))
        inject[np.arange(dim_in) * pad + i, np.arange(dim_in)] = 1.0 / math.sqrt(pad)
        kraus.append(inject)
    return Channel(d, n_in, n_out, kraus, domain="full")


def mirror_embedding_channel(d, n_in, n_out) -> Channel:
    """rho -> (I/d)^{(n_out - n_in)} tensor rho: noise first, input last."""
    if not 1 <= n_in <= n_out:
        raise InvalidArity(f"need 1 <= n_in <= n_out, got ({n_in}, {n_out})")
    dim_in = d**n_in
    pad = d ** (n_out - n_in)
    kraus = []
    for i in range(pad):
        inject = np.zeros((dim_in * pad, dim_in))
        inject[i * dim_in + np.arange(dim_in), np.arange(dim_in)] = 1.0 / math.sqrt(pad)
        kraus.append(inject)
    return Channel(d, n_in, n_out, kraus, domain="full")


def symmetric_noise_channel(d, n_in, n_out) -> Channel:
    """rho -> tr(rho) * P_sym / dim_sym: maximally mixed on the output Bose space."""
    iso = sym_isometry(d, n_out)
    dim_in = d**n_in
    ds = dim_sym(d, n_out)
    kraus = []
    for c in range(ds):
        for b in range(dim_in):
            k = np.zeros((d**n_out, dim_in), dtype=complex)
            k[:, b] = iso[:, c] / math.sqrt(ds)
            kraus.append(k)
    return Channel(d, n_in, n_out, kraus, domain="full")


def conjugate_output(ch: Channel, unitary: np.ndarray) -> Channel:
    """Compose a channel with a unitary rotation of its output register."""
    unitary = np.asarray(unitary, dtype=complex)
    if unitary.shape != (ch.dim_out, ch.dim_out):
        raise ShapeError(f"unitary shape {unitary.shape} != ({ch.dim_out}, {ch.dim_out})")
    return Channel(ch.d, ch.n_in, ch.n_out, [unitary @ k for k in ch.kraus], domain=ch.domain)


def mixture_channel(a: Channel, b: Channel, weight: float) -> Channel:
    """Convex mixture (1 - weight) * a + weight * b."""
    if (a.d, a.n_in, a.n_out) != (b.d, b.n_in, b.n_out):
        raise ShapeError("cannot mix channels with different arities")
    if not 0.0 <= weight <= 1.0:
        raise ValueError(f"weight {weight} not in [0, 1]")
    kraus = [math.sqrt(1.0 - weight) * k for k in a.kraus]
    kraus += [math.sqrt(weight) * k for k in b.kraus]
    domain = "symmetric" if "symmetric" in (a.domain, b.domain) else "full"
    return Channel(a.d, a.n_in, a.n_out, kraus, domain=domain)


def _phase_fixed_q(z: np.ndarray) -> np.ndarray:
    """Q of the reduced QR z = QR, its columns re-phased so that diag(R) > 0.

    Fixing the phases makes Q a function of z alone, so a Ginibre z gives
    Haar-distributed orthonormal columns.
    """
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases.conj()


def haar_random_unitary(dim: int, rng: RandomStream) -> np.ndarray:
    """Haar-distributed unitary via phase-fixed QR of a complex Ginibre matrix."""
    z = rng.complex_normals(dim * dim).reshape(dim, dim) / math.sqrt(2.0)
    return _phase_fixed_q(z)


def random_isometry_channel(d, n_in, n_out, rng: RandomStream, ancilla_dim=None) -> Channel:
    """Generic channel: Haar isometry into output tensor ancilla, ancilla dropped.

    Every channel arises this way for a large enough ancilla; ancilla_dim
    defaults to d**n_out, which already covers the cloning-game examples.

    The isometry is the first d**n_in columns of the Haar unitary that
    `haar_random_unitary(d**n_out * ancilla_dim, rng)` would return.  The
    stream therefore still yields the whole (d**n_out * ancilla_dim)**2 Ginibre
    matrix, so every seed gives the channel it always gave.  Only the kept
    columns are orthonormalised: Q's first k columns and R's leading k x k
    block depend on the Ginibre matrix's first k columns alone, so the reduced
    QR of those columns, with the same phase fix, gives the same isometry to
    rounding at a fraction of the cost.
    """
    dim_in, dim_out = d**n_in, d**n_out
    anc = dim_out if ancilla_dim is None else int(ancilla_dim)
    dim = dim_out * anc
    z = rng.complex_normals(dim * dim).reshape(dim, dim)[:, :dim_in] / math.sqrt(2.0)
    iso = _phase_fixed_q(z).reshape(dim_out, anc, dim_in)
    return Channel(d, n_in, n_out, iso.transpose(1, 0, 2), domain="full")


def global_fidelity(ch: Channel, psi: PureState, size_cap=DEFAULT_SIZE_CAP) -> float:
    """<psi^{n_out}| ch(psi^{n_in}) |psi^{n_out}>."""
    if psi.dim != ch.d:
        raise ShapeError(f"state dimension {psi.dim} != local dimension {ch.d}")
    vin = tensor_power(psi, ch.n_in, size_cap).amplitudes
    vout = tensor_power(psi, ch.n_out, size_cap).amplitudes
    total = 0.0
    for k in ch.kraus:
        total += abs(np.vdot(vout, k @ vin)) ** 2
    return float(total)


@lru_cache(maxsize=None)
def _transposed_moment(d: int, n_in: int, n_out: int) -> np.ndarray:
    """PT_in(S S^T) on Sym_in (x) Sym_out for S = sym_split(d, n_in, n_out).

    The input-transposed (n_in + n_out)-copy symmetric projector in
    occupation coordinates; Sym_1 is C^d itself, so for n_out = 1 this is
    already the operator on Sym_in (x) C^d.
    """
    ds_in, ds_out = dim_sym(d, n_in), dim_sym(d, n_out)
    split = sym_split(d, n_in, n_out)
    g = (split @ split.T).reshape(ds_in, ds_out, ds_in, ds_out)
    return _frozen(g.transpose(2, 1, 0, 3).reshape(ds_in * ds_out, ds_in * ds_out))


def haar_avg_global_fidelity(ch: Channel, size_cap=DEFAULT_SIZE_CAP) -> float:
    """Exact Haar average of global_fidelity via the Choi matrix (module docstring)."""
    n_total = ch.n_in + ch.n_out
    check_size_cap(ch.d**n_total, size_cap)
    lift = np.kron(np.eye(dim_sym(ch.d, ch.n_in)), sym_isometry(ch.d, ch.n_out, size_cap))
    g = lift @ _transposed_moment(ch.d, ch.n_in, ch.n_out) @ lift.T
    val = np.einsum("ij,ji->", ch.choi, g)
    return float(val.real) / dim_sym(ch.d, n_total)


def single_clone_haar_fidelity(ch: Channel, k: int, size_cap=DEFAULT_SIZE_CAP) -> float:
    """Exact Haar average of <psi| tr_(not k)[ch(psi^{n_in})] |psi>.

    Tracing all output factors except the k-th (1-based) out of the Choi
    matrix yields the Choi matrix of the reduced channel on Sym_in (x) C^d;
    the average is then the (n_in + 1)-copy moment formula on that.
    """
    if not 1 <= k <= ch.n_out:
        raise IndexError(f"clone index {k} not in 1..{ch.n_out}")
    n_total = ch.n_in + 1
    check_size_cap(ch.d**n_total, size_cap)
    dims = [dim_sym(ch.d, ch.n_in)] + [ch.d] * ch.n_out
    reduced = partial_trace_matrix(ch.choi, dims, keep=[0, k])
    val = np.einsum("ij,ji->", reduced, _transposed_moment(ch.d, ch.n_in, 1))
    return float(val.real) / dim_sym(ch.d, n_total)


@dataclass(frozen=True)
class CloningValues:
    """Closed-form game values for the n_in -> n_out cloning games.

    global_value: full-register test, dim_sym(d,N)/dim_sym(d,M).
    single_value: one-particle test, (N(d+M)+M-N) / ((d+N)M).
    asym_bound:   ceiling on the sum of all M single-clone fidelities,
                  (N(d+M)+M-N) / (d+N); no channel may exceed it, else a
                  mixed strategy over clone choices would beat the one-particle
                  game value.
    """

    global_value: float
    single_value: float
    asym_bound: float


def value_formulas(d, n_in, n_out) -> CloningValues:
    """Exact rational game values rendered to floats."""
    if not 1 <= n_in <= n_out:
        raise InvalidArity(f"need 1 <= n_in <= n_out, got ({n_in}, {n_out})")
    gv = Fraction(dim_sym(d, n_in), dim_sym(d, n_out))
    numer = n_in * (d + n_out) + n_out - n_in
    sv = Fraction(numer, (d + n_in) * n_out)
    ab = Fraction(numer, d + n_in)
    return CloningValues(float(gv), float(sv), float(ab))
