"""Dense full-space evaluators: the reference for the symmetric-subspace code.

`qgames` evaluates Haar averages on symmetric subspaces (Choi matrices on
Sym_in (x) out, payoff operators on Sym_n (x) C^2).  The functions here do the
same sums the long way, on the full d^(n_in + n_out) and 2^(n+1) spaces: the
Choi matrix is summed from the full-space Kraus operators (`full_kraus`) one
outer product at a time and the moment operator is the full symmetric
projector.  They share no code with the compressed evaluators beyond
`sym_isometry`, `sym_projector` and `partial_trace_matrix`.

`SymBasis` is the occupation basis as an explicit isometry, for compressing
full-space vectors the long way.

The estimation evaluators read a POVM as explicit effect matrices
(`EffectStack`): a `Povm`'s rank-one effects |v_r><v_r| are built from its
vectors by `effect_stack`, and an `EffectStack` may hold effects of any rank.

`random_isometry_kraus` is the long way to a random isometry channel: the
same Ginibre columns, orthonormalised by Gram-Schmidt instead of QR.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qgames.cloning import Channel
from qgames.core import ShapeError, check_size_cap, partial_trace_matrix, tensor_power
from qgames.estimation import Povm
from qgames.symmetric import dim_sym, sym_isometry, sym_projector


@dataclass(frozen=True)
class SymBasis:
    """Occupation-number basis of the symmetric subspace, as an isometry."""

    d: int
    n: int

    @property
    def dim(self) -> int:
        return dim_sym(self.d, self.n)

    @property
    def isometry(self) -> np.ndarray:
        return sym_isometry(self.d, self.n)

    def compress(self, full_vector: np.ndarray) -> np.ndarray:
        """Coordinates of a (symmetric) full-space vector in this basis."""
        return self.isometry.conj().T @ np.asarray(full_vector, dtype=complex)

    def embed(self, sym_vector: np.ndarray) -> np.ndarray:
        """Full-space vector of symmetric-basis coordinates."""
        return self.isometry @ np.asarray(sym_vector, dtype=complex)


def full_kraus(ch: Channel) -> np.ndarray:
    """Kraus operators on the full registers, V_out K V_in^T (V_out = I for full rows)."""
    kraus = np.asarray(ch.kraus) @ sym_isometry(ch.d, ch.n_in).T
    if kraus.shape[1] != ch.dim_out:
        kraus = sym_isometry(ch.d, ch.n_out) @ kraus
    return kraus


def full_choi(ch: Channel) -> np.ndarray:
    """Choi matrix of the whole channel on in (x) out, index (i, a)."""
    choi = np.zeros((ch.dim_in * ch.dim_out,) * 2, dtype=complex)
    for k in full_kraus(ch):
        w = k.T.reshape(-1)  # w[(i, a)] = K[a, i]: Choi lives on in (x) out
        choi += np.outer(w, w.conj())
    return choi


def random_isometry_kraus(d, n_in, n_out, rng, ancilla_dim=None) -> list[np.ndarray]:
    """Kraus operators of `random_isometry_channel` by Gram-Schmidt.

    Draws the same d^n_out * ancilla_dim by d^n_in block of complex normals
    (seed scheme v2: the kept columns only) and orthonormalises its columns by
    modified Gram-Schmidt, each column swept twice.  R's diagonal is then the
    positive norm of each residual, which is the phase fix that makes the
    isometry unique.  Its blocks are the Kraus operators on the full input.
    """
    dim_in, dim_out = d**n_in, d**n_out
    anc = dim_out if ancilla_dim is None else int(ancilla_dim)
    gen = rng.generator
    real = gen.standard_normal((dim_out * anc, dim_in))
    z = real + 1j * gen.standard_normal((dim_out * anc, dim_in))
    q = np.empty_like(z)
    for j in range(dim_in):
        v = z[:, j].copy()
        for _ in range(2):
            for i in range(j):
                v -= q[:, i] * np.vdot(q[:, i], v)
        q[:, j] = v / np.linalg.norm(v)
    iso = q.reshape(dim_out, anc, dim_in)
    return [iso[:, a, :] for a in range(anc)]


def apply_matrix_via_choi(ch: Channel, mat: np.ndarray) -> np.ndarray:
    """The channel applied to `mat` through its full Choi matrix."""
    mat = np.asarray(mat, dtype=complex)
    if mat.shape != (ch.dim_in, ch.dim_in):
        raise ShapeError(f"input shape {mat.shape} != ({ch.dim_in}, {ch.dim_in})")
    j = full_choi(ch).reshape(ch.dim_in, ch.dim_out, ch.dim_in, ch.dim_out)
    return np.einsum("iajb,ij->ab", j, mat)


def transposition_operator(d: int, n: int, i: int, j: int) -> np.ndarray:
    """Permutation matrix swapping tensor factors i and j of (C^d)^{tensor n}."""
    dims = [d] * n
    perm = list(range(n))
    perm[i], perm[j] = perm[j], perm[i]
    op = np.eye(d**n).reshape(dims + dims)
    op = op.transpose(perm + list(range(n, 2 * n)))
    return op.reshape(d**n, d**n)


def _input_transposed_projector(d, n_in, dim_out_block, n_total):
    proj = sym_projector(d, n_total)
    dim_in = d**n_in
    g = proj.reshape(dim_in, dim_out_block, dim_in, dim_out_block)
    return g.transpose(2, 1, 0, 3).reshape(dim_in * dim_out_block, dim_in * dim_out_block)


def haar_avg_global_fidelity(ch: Channel) -> float:
    """tr[J PT_in(P_sym^{(n+m)})] / dim_sym(d, n+m) on the full space."""
    n_total = ch.n_in + ch.n_out
    check_size_cap(ch.d**n_total)
    g = _input_transposed_projector(ch.d, ch.n_in, ch.dim_out, n_total)
    val = np.einsum("ij,ji->", full_choi(ch), g)
    return float(val.real) / dim_sym(ch.d, n_total)


def single_clone_haar_fidelity(ch: Channel, k: int) -> float:
    """The (n_in + 1)-copy moment formula on the full reduced Choi matrix."""
    if not 1 <= k <= ch.n_out:
        raise IndexError(f"clone index {k} not in 1..{ch.n_out}")
    dims = [ch.dim_in] + [ch.d] * ch.n_out
    reduced = partial_trace_matrix(full_choi(ch), dims, keep=[0, k])
    n_total = ch.n_in + 1
    g = _input_transposed_projector(ch.d, ch.n_in, ch.d, n_total)
    val = np.einsum("ij,ji->", reduced, g)
    return float(val.real) / dim_sym(ch.d, n_total)


@dataclass(frozen=True)
class EffectStack:
    """A POVM as explicit (R, n+1, n+1) effect matrices of any rank, one guess row each."""

    n: int
    effects: np.ndarray
    guesses: np.ndarray


def effect_stack(povm) -> EffectStack:
    """The effects E_r = |v_r><v_r| of a `Povm`; an `EffectStack` is returned as it is."""
    if isinstance(povm, EffectStack):
        return povm
    v = np.asarray(povm.vectors)
    return EffectStack(povm.n, v[:, :, None] * v[:, None, :].conj(), np.asarray(povm.guesses))


def outcome_probabilities(povm: Povm | EffectStack, psi) -> np.ndarray:
    """Born probabilities from the compressed full-space vector psi^{tensor n}."""
    povm = effect_stack(povm)
    amp = SymBasis(2, povm.n).compress(tensor_power(psi, povm.n).amplitudes)
    probs = np.array([np.vdot(amp, e @ amp).real for e in povm.effects])
    return np.clip(probs, 0.0, None)


def pointwise_payoff(povm: Povm | EffectStack, psi) -> float:
    """sum_r p_r |<psi|guess_r>|^2 with the dense Born probabilities, one outcome at a time."""
    probs = outcome_probabilities(povm, psi)
    return float(sum(p * abs(np.vdot(psi.amplitudes, g)) ** 2 for p, g in zip(probs, povm.guesses)))


def respond(povm: Povm | EffectStack, psi) -> np.ndarray:
    """sum_r p_r |guess_r><guess_r| with the dense Born probabilities."""
    probs = outcome_probabilities(povm, psi)
    return sum(p * np.outer(g, g.conj()) for p, g in zip(probs, povm.guesses))


def payoff_operator(povm: Povm | EffectStack) -> np.ndarray:
    """sum_r (embedded E_r) tensor |phi_r><phi_r| on the (n+1)-copy space."""
    povm = effect_stack(povm)
    check_size_cap(2 ** (povm.n + 1))
    iso = SymBasis(2, povm.n).isometry
    total = np.zeros((2 ** (povm.n + 1),) * 2, dtype=complex)
    for e, g in zip(povm.effects, povm.guesses):
        guess_proj = np.outer(g, g.conj())
        total += np.kron(iso @ e @ iso.conj().T, guess_proj)
    return total


def mean_fidelity(povm: Povm | EffectStack) -> float:
    """tr[W P_sym] / dim_sym over n+1 copies, W on the full space."""
    k = povm.n + 1
    check_size_cap(2**k)
    w = payoff_operator(povm)
    val = np.einsum("ij,ji->", w, sym_projector(2, k))
    return float(val.real) / dim_sym(2, k)


def frame_averaged_payoff(povm: Povm | EffectStack, psi) -> float:
    """mean_fidelity times <psi^{n+1}| P_sym |psi^{n+1}>, after the leak check."""
    k = povm.n + 1
    check_size_cap(2**k)
    w = payoff_operator(povm)
    proj = sym_projector(2, k)
    off = np.linalg.norm(w - proj @ w @ proj, 2)
    if off > 1e-8:
        raise ValueError(
            "payoff operator leaks out of the symmetric subspace "
            f"(norm {off:.3e}); frame averaging needs aligned guesses"
        )
    flat = float(np.einsum("ij,ji->", w, proj).real) / dim_sym(2, k)
    v = tensor_power(psi, k).amplitudes
    return flat * float(np.vdot(v, proj @ v).real)
