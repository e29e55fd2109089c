"""Quantum channels for copy games: the optimal universal cloner and friends.

Representation.  Game inputs psi^{(x)n_in} lie in the n_in-copy symmetric
subspace Sym_in, so a `Channel` takes its input in Sym_in occupation
coordinates: every Kraus operator has dim_sym(d, n_in) columns, in
`symmetric.occupations` order, and a product state enters as
`symmetric.coherent_coordinates(psi, n_in)`.  The output is either Sym_out
occupation coordinates (dim_sym(d, n_out) rows) or the full d^n_out output
space (d^n_out rows), and the Kraus row count says which.  The two counts
differ exactly when n_out >= 2 and d >= 2; where they are equal the two bases
are the same.  Channels built for the symmetric games (the optimal cloner,
symmetric noise) keep Sym_out rows; embeddings and random isometries need the
full output.  V_in = sym_isometry(d, n_in) and V_out = sym_isometry(d, n_out)
embed either side in the full registers: `mixture_channel` and
`conjugate_output` lift a Sym_out side with V_out when it meets a full
output.

The star construction maps an n_in-copy input to the n_out-copy symmetric
subspace (Werner, PRA 58, 1827 (1998)),

    rho  ->  (dim_sym(d, n_in) / dim_sym(d, n_out)) *
             P_sym (rho tensor I^{(n_out - n_in)}) P_sym.

Its output lies in Sym_out, and
P_sym^{(m)} (I (x) P_sym^{(m-n)}) = P_sym^{(m)}, so the padding register only
needs its own symmetric subspace: one Kraus operator
sqrt(dim ratio) S^T (I (x) |e>) per occupation state e of Sym_{m-n}, with
S = sym_split(d, n, m - n).  On product-state inputs its n_out-copy fidelity
with the source state is the constant dim_sym(d, n_in)/dim_sym(d, n_out), and
no channel beats that on Haar average.

The evaluators read only the Kraus stack.  The Choi matrix
J = sum_K w_K w_K^dag, w_K = vec(K^T) on Sym_in (x) out, is built only when
`Channel.choi` is read; tr[J G] is summed as sum_K w_K^dag G w_K.  Two helpers
alone read how the output rows are coordinatised.  `_sym_rows` gives every
Kraus operator Sym_out rows (V_out^T K for full rows); a global fidelity reads
nothing else, since psi^{(x)n_out} lies in Sym_out.  `_clone_split` splits an
output row into (rest, clone k) for the one-particle test.

The average of <psi^{m}| ch(psi^{n}) |psi^{m}> over Haar psi is

    tr[ J * PT_in(S S^T) ] / dim_sym(d, n+m)

with J on Sym_in (x) Sym_out, where S = sym_split(d, n, m) maps Sym_{n+m}
into Sym_n (x) Sym_m and PT_in transposes the input block: averaging
psi^{tensor(n+m)} gives the symmetric projector over dim_sym (`symmetric`
module docstring), that projector is S S^T in occupation coordinates, and
the input factors enter the trace transposed.  The one-clone average is the
same formula with m = 1 on the clone's reduced Choi matrix.  No object of
dimension d^(n+m) is built.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .core import (
    InvalidArity,
    PureState,
    RandomStream,
    ShapeError,
    _frozen,
    check_size_cap,
)
from .symmetric import coherent_coordinates, dim_sym, sym_isometry, sym_split

#: Largest completeness defect sum(K^dag K) - I a channel may have.
COMPLETENESS_ATOL = 1e-10

_log = logging.getLogger(__name__)


class Channel:
    """Completely positive map from Sym_in to an output register, stored as Kraus operators.

    `kraus` is the read-only (K, rows, dim_sym(d, n_in)) stack of Kraus
    operators on Sym_in occupation coordinates, and the only stored form of
    the channel.  rows = dim_sym(d, n_out) means Sym_out occupation
    coordinates and rows = d^n_out the full output space (module docstring);
    `sym_out` reads which.  No other row count is accepted.  Construction
    verifies that every entry is finite and that sum(K^dag K) is the identity
    on Sym_in within COMPLETENESS_ATOL.  sum_K vec(K) vec(K)^dag is positive
    semidefinite for every finite stack, so nothing else needs checking.

    `choi` is that sum on Sym_in (x) out, index (c, a) for input c and output
    a; its side is dim_sym(d, n_in) * rows.  It is built on first access and
    cached read-only; the evaluators never read it.  `dim_in` and `dim_out` are
    the full register dimensions d^n_in and d^n_out.
    """

    def __init__(self, d, n_in, n_out, kraus):
        self.d = int(d)
        self.n_in = int(n_in)
        self.n_out = int(n_out)
        self.dim_in = self.d**self.n_in
        self.dim_out = self.d**self.n_out
        ops = [np.asarray(k, dtype=complex) for k in kraus]
        if not ops:
            raise ShapeError("channel needs at least one Kraus operator")
        cols = dim_sym(self.d, self.n_in)
        allowed = ((dim_sym(self.d, self.n_out), cols), (self.dim_out, cols))
        for k in ops:
            if k.shape not in allowed:
                raise ShapeError(
                    f"Kraus operator shape {k.shape} is neither {allowed[0]} (Sym_out rows) "
                    f"nor {allowed[1]} (full output rows)"
                )
            if k.shape != ops[0].shape:
                raise ShapeError(f"Kraus operator shapes {ops[0].shape} and {k.shape} differ")
        stacked = np.stack(ops)
        _checked_defects(stacked)
        stacked.setflags(write=False)
        self.kraus = stacked
        rows = stacked.shape[1]
        _log.debug(
            "Channel d=%d n_in=%d n_out=%d: %d Kraus operators of shape %d x %d "
            "(%s output), Choi side %d (full in (x) out: %d)",
            self.d, self.n_in, self.n_out, len(stacked), rows, cols,
            "Sym_out" if self.sym_out else "full", cols * rows,
            self.dim_in * self.dim_out,
        )

    @cached_property
    def choi(self) -> np.ndarray:
        """sum_K vec(K) vec(K)^dag on Sym_in (x) out, index (c, a); read-only."""
        # w[K, (c, a)] = K[a, c]
        w = self.kraus.transpose(0, 2, 1).reshape(len(self.kraus), -1)
        choi = w.T @ w.conj()
        choi.setflags(write=False)
        return choi

    @property
    def sym_out(self) -> bool:
        """Whether the Kraus rows are Sym_out occupation coordinates."""
        return self.kraus.shape[1] == dim_sym(self.d, self.n_out)

    def completeness_defect(self) -> float:
        """Operator norm of sum(K^dag K) - I on Sym_in.

        The batched kernel `_completeness_defects` on this channel's stack,
        the same code that checks a whole chunk of the asymmetric-bound scan's
        random channels at once.
        """
        return float(_completeness_defects(np.asarray(self.kraus)))

    def __repr__(self):
        return (
            f"Channel(d={self.d}, n_in={self.n_in}, n_out={self.n_out}, "
            f"kraus={len(self.kraus)}, output={'Sym_out' if self.sym_out else 'full'})"
        )


def _completeness_defects(kraus: np.ndarray) -> np.ndarray:
    """Operator norm of sum(K^dag K) - I on Sym_in for each Kraus stack.

    `kraus` is a (..., K, rows, cols) array of Kraus stacks.  A channel's
    Kraus operators stacked vertically form one (K * rows, cols) matrix whose
    Gram matrix is sum(K^dag K); the defect is Hermitian, so its norm is its
    largest eigenvalue modulus.  Leading axes are a batch of channels: one
    product and one `eigvalsh` serve them all.
    """
    rows = kraus.reshape(*kraus.shape[:-3], -1, kraus.shape[-1])
    delta = rows.conj().swapaxes(-1, -2) @ rows - np.eye(rows.shape[-1])
    return np.abs(np.linalg.eigvalsh(delta)).max(axis=-1)


def _checked_defects(kraus: np.ndarray) -> None:
    """Check a (..., K, rows, cols) array of Kraus stacks.

    Raises ValueError if any entry is non-finite or any channel's
    `_completeness_defects` passes COMPLETENESS_ATOL: the checks `Channel`
    makes on construction, run on every channel of a batch at once.
    """
    if not np.all(np.isfinite(kraus)):
        raise ValueError("Kraus operators have non-finite entries")
    worst = float(_completeness_defects(kraus).max())
    if worst > COMPLETENESS_ATOL:
        raise ValueError(
            f"Kraus operators not trace preserving on Sym_in "
            f"(defect {worst:.3e} > {COMPLETENESS_ATOL:.0e})"
        )


def _full_output(ch: Channel) -> np.ndarray:
    """The Kraus stack with rows on the full output space: V_out K for Sym_out rows."""
    if ch.kraus.shape[1] == ch.dim_out:
        return ch.kraus
    return sym_isometry(ch.d, ch.n_out) @ ch.kraus


def optimal_cloner(d, n_in, n_out) -> Channel:
    """The optimal universal n_in -> n_out cloner (see module docstring).

    Kraus operators are sqrt(dim ratio) * S^T (I (x) |e>) from Sym_in to
    Sym_out, one per occupation state e of the padding register's Sym_{m-n},
    with S = sym_split(d, n_in, n_out - n_in).  Their completeness on Sym_in is
    the partial-trace identity tr_pad(S S^T) = (dim_sym(d,m)/dim_sym(d,n)) I.
    The size cap counts the Choi side dim_sym(d, n_in) * dim_sym(d, n_out).
    """
    if not 1 <= n_in <= n_out:
        raise InvalidArity(f"need 1 <= n_in <= n_out, got ({n_in}, {n_out})")
    ds_in, ds_out = dim_sym(d, n_in), dim_sym(d, n_out)
    check_size_cap(ds_in * ds_out)
    split = sym_split(d, n_in, n_out - n_in)
    # K_e[b, c] = S[(c, e), b]
    kraus = split.reshape(ds_in, -1, ds_out).transpose(1, 2, 0)
    return Channel(d, n_in, n_out, math.sqrt(ds_in / ds_out) * kraus)


def _padding_kraus(d, n_in, n_out, input_first) -> np.ndarray:
    """Full-output Kraus stack of rho -> rho (x) (I/d)^{(n_out - n_in)}, or its mirror."""
    if not 1 <= n_in <= n_out:
        raise InvalidArity(f"need 1 <= n_in <= n_out, got ({n_in}, {n_out})")
    dim_in, pad = d**n_in, d ** (n_out - n_in)
    # K_i maps basis state x to x (x) e_i (input first) or e_i (x) x, over sqrt(pad)
    if input_first:
        inject = np.eye(dim_in * pad).reshape(-1, dim_in, pad).transpose(2, 0, 1)
    else:
        inject = np.eye(dim_in * pad).reshape(-1, pad, dim_in).transpose(1, 0, 2)
    return (inject / math.sqrt(pad)) @ sym_isometry(d, n_in)


def product_embedding_channel(d, n_in, n_out) -> Channel:
    """rho -> rho tensor (I/d)^{(n_out - n_in)}: keep the input, pad with noise."""
    return Channel(d, n_in, n_out, _padding_kraus(d, n_in, n_out, input_first=True))


def mirror_embedding_channel(d, n_in, n_out) -> Channel:
    """rho -> (I/d)^{(n_out - n_in)} tensor rho: noise first, input last."""
    return Channel(d, n_in, n_out, _padding_kraus(d, n_in, n_out, input_first=False))


def symmetric_noise_channel(d, n_in, n_out) -> Channel:
    """rho -> tr(rho) * P_sym / dim_sym: maximally mixed on the output Bose space.

    One Kraus operator |c><b| / sqrt(dim_sym(d, n_out)) per pair of Sym_out
    state c and Sym_in state b.
    """
    ds_in, ds_out = dim_sym(d, n_in), dim_sym(d, n_out)
    kraus = np.eye(ds_out * ds_in).reshape(-1, ds_out, ds_in) / math.sqrt(ds_out)
    return Channel(d, n_in, n_out, kraus)


def conjugate_output(ch: Channel, unitary: np.ndarray) -> Channel:
    """Compose a channel with a unitary rotation of its full output register."""
    unitary = np.asarray(unitary, dtype=complex)
    if unitary.shape != (ch.dim_out, ch.dim_out):
        raise ShapeError(f"unitary shape {unitary.shape} != ({ch.dim_out}, {ch.dim_out})")
    return Channel(ch.d, ch.n_in, ch.n_out, unitary @ _full_output(ch))


def mixture_channel(a: Channel, b: Channel, weight: float) -> Channel:
    """Convex mixture (1 - weight) * a + weight * b.

    Two Sym_out channels mix on Sym_out; a Sym_out side mixed with a
    full-output side is lifted to the full output first.
    """
    if (a.d, a.n_in, a.n_out) != (b.d, b.n_in, b.n_out):
        raise ShapeError("cannot mix channels with different arities")
    if not 0.0 <= weight <= 1.0:
        raise ValueError(f"weight {weight} not in [0, 1]")
    ka, kb = a.kraus, b.kraus
    if ka.shape[1] != kb.shape[1]:
        ka, kb = _full_output(a), _full_output(b)
    kraus = np.concatenate([math.sqrt(1.0 - weight) * ka, math.sqrt(weight) * kb])
    return Channel(a.d, a.n_in, a.n_out, kraus)


def _phase_fixed_q(z: np.ndarray) -> np.ndarray:
    """Q of the reduced QR z = QR, its columns re-phased so that diag(R) > 0.

    Fixing the phases makes Q a function of z alone, so a Ginibre z gives
    Haar-distributed orthonormal columns.  Leading axes of z are a batch: one
    `np.linalg.qr` call factors every matrix of the stack.
    """
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r, axis1=-2, axis2=-1).copy()
    phases /= np.abs(phases)
    return q * phases.conj()[..., None, :]


def haar_random_unitary(dim: int, rng: RandomStream) -> np.ndarray:
    """Haar-distributed unitary via phase-fixed QR of a complex Ginibre matrix.

    The size cap counts the side `dim` and is checked before anything is drawn.
    """
    check_size_cap(dim)
    z = rng.complex_normals(dim * dim).reshape(dim, dim) / math.sqrt(2.0)
    return _phase_fixed_q(z)


def _ginibre_side(d, n_in, n_out, ancilla_dim=None) -> int:
    """Row count d**n_out * ancilla_dim of a random isometry's Ginibre block, checked.

    ancilla_dim defaults to d**n_out.  Raises InvalidArity unless
    ancilla_dim >= 1 and the side holds the d**n_in kept columns, and
    SizeCapExceeded if the side passes the default size cap.
    """
    dim_in, dim_out = d**n_in, d**n_out
    anc = dim_out if ancilla_dim is None else int(ancilla_dim)
    if anc < 1:
        raise InvalidArity(f"ancilla dimension must be >= 1, got {anc}")
    if dim_out * anc < dim_in:
        raise InvalidArity(f"Ginibre side {dim_out * anc} < {dim_in} kept columns; raise ancilla_dim")
    return check_size_cap(dim_out * anc)


def _random_isometry_kraus(d, n_in, n_out, rng: RandomStream, count: int,
                           ancilla_dim=None) -> np.ndarray:
    """Kraus stacks of `count` consecutive random isometry channels drawn from `rng`.

    The result has shape (count, anc, d**n_out, dim_sym(d, n_in)).  Channel i
    is the (i+1)-th consecutive `random_isometry_channel` draw from `rng`: one
    `standard_normal((count, 2, D, d**n_in))` call, D = d**n_out * anc, draws
    every channel's real parts, then its imaginary parts, exactly as `count`
    consecutive `complex_normals(D * d**n_in)` calls would.  The blocks are
    orthonormalised by one batched phase-fixed QR, and one product by V_in
    restricts every isometry to Sym_in.  The arity checks and the size cap
    run before anything is drawn; a non-finite draw raises ValueError before
    the QR.
    """
    dim = _ginibre_side(d, n_in, n_out, ancilla_dim)
    dim_in, dim_out = d**n_in, d**n_out
    parts = rng.generator.standard_normal((count, 2, dim, dim_in))
    if not np.all(np.isfinite(parts)):
        raise ValueError("Ginibre draws have non-finite entries")
    z = np.empty((count, dim, dim_in), dtype=complex)
    z.real, z.imag = parts[:, 0], parts[:, 1]
    del parts  # the QR's working memory need not sit beside the draws
    z /= math.sqrt(2.0)
    iso = _phase_fixed_q(z).reshape(count, dim_out, dim // dim_out, dim_in)
    return iso.transpose(0, 2, 1, 3) @ sym_isometry(d, n_in)


def random_isometry_channel(d, n_in, n_out, rng: RandomStream, ancilla_dim=None) -> Channel:
    """Generic channel: Haar isometry into output tensor ancilla, ancilla dropped.

    Every channel arises this way for a large enough ancilla; ancilla_dim
    defaults to d**n_out, which already covers the cloning-game examples.
    The channel has full output rows, and its Kraus operators are the
    isometry's blocks restricted to Sym_in (times V_in).

    Each call draws only the d**n_in Ginibre columns that are kept, a
    (d**n_out * ancilla_dim, d**n_in) block of complex normals as one
    `rng.complex_normals` call would (real parts, then imaginary parts), and
    their reduced QR with the phase fix of `_phase_fixed_q` orthonormalises
    them.  Those columns are distributed as the leading columns of a Haar
    unitary, so the isometry is Haar distributed.  The Kraus stack comes from
    the batched kernel `_random_isometry_kraus` at a batch of one.  Under seed
    scheme v3 the asymmetric-bound scan runs the same kernel on whole memory
    chunks of channels: its channel i is the (i mod DRAW_ROUNDS)-th
    consecutive call on `RandomStream(seed).substream(i // DRAW_ROUNDS)`
    (`harness.asym_bound_scan`).  The size cap counts the Ginibre side
    d**n_out * ancilla_dim and is checked before anything is drawn, as are
    ancilla_dim >= 1 and a Ginibre side of at least the d**n_in kept columns.
    """
    kraus = _random_isometry_kraus(d, n_in, n_out, rng, 1, ancilla_dim)
    return Channel(d, n_in, n_out, kraus[0])


def _sym_rows(ch: Channel) -> np.ndarray:
    """The Kraus stack with rows on Sym_out: V_out^T K for full rows.

    Every global fidelity pairs the output with psi^{(x)n_out}, which lies in
    Sym_out, so the projection V_out V_out^T drops nothing it reads.
    """
    if ch.sym_out:
        return ch.kraus
    return sym_isometry(ch.d, ch.n_out).T @ ch.kraus


def _clone_split(d: int, m: int, k: int, rows: np.ndarray) -> np.ndarray:
    """Output coordinates on the last axis of `rows`, split into (rest, clone k).

    `rows` holds coordinates of an m-copy output of local dimension d: Sym_out
    when the last axis has dim_sym(d, m) entries (as `Channel.sym_out`
    reads), the full d^m space otherwise.  Returns shape (..., r, d) with the
    k-th output copy (1-based) last.  Sym_out rows go through
    S = sym_split(d, m - 1, 1), which writes Sym_out inside Sym_{m-1} (x) C^d:
    every clone of a symmetric output has the same reduced state, so the last
    copy stands for clone k.  Full rows are reshaped and clone k is moved last.
    """
    lead = rows.shape[:-1]
    if rows.shape[-1] == dim_sym(d, m):
        return (rows @ sym_split(d, m - 1, 1).T).reshape(*lead, -1, d)
    split = rows.reshape(*lead, d ** (k - 1), d, d ** (m - k))
    return np.moveaxis(split, -2, -1).reshape(*lead, -1, d)


def _global_overlaps(ch: Channel, psi: np.ndarray) -> np.ndarray:
    """sum_K |<psi^{(x)n_out}| K |psi^{(x)n_in}>|^2 for each row of amplitudes `psi`.

    Contracting <psi^{(x)n_out}| with one Kraus operator at a time keeps the
    working arrays at one output row per state, however many Kraus operators
    the channel has.
    """
    vin = coherent_coordinates(psi, ch.n_in)
    bra = coherent_coordinates(psi, ch.n_out).conj()
    fid = np.zeros(len(psi))
    for k in _sym_rows(ch):
        fid += np.abs(np.sum((bra @ k) * vin, axis=1)) ** 2
    return fid


def _one_particle_overlaps(ch: Channel, psi: np.ndarray) -> np.ndarray:
    """Mean over the clones c of <psi| rho_c |psi>, for each row of amplitudes `psi`.

    Contracting clone c of each Kraus branch with psi* and summing the squared
    norms over the Kraus operators and the other clones gives the reduced
    state's overlap without forming it.  One Kraus operator at a time, so the
    working arrays stay at one output row per state.  The clones of a Sym_out
    channel share one reduced state, so the last clone stands for them all; a
    full-output channel scores each of its n_out clones.
    """
    vin = coherent_coordinates(psi, ch.n_in)
    bra = psi.conj()
    clones = [ch.n_out] if ch.sym_out else range(1, ch.n_out + 1)
    fid = np.zeros(len(psi))
    for k in ch.kraus:
        rows = vin @ k.T
        for c in clones:
            branch = _clone_split(ch.d, ch.n_out, c, rows)
            fid += np.sum(np.abs(np.einsum("bjd,bd->bj", branch, bra)) ** 2, axis=1)
    return fid / len(clones)


def global_fidelity(ch: Channel, psi: PureState) -> float:
    """<psi^{n_out}| ch(psi^{n_in}) |psi^{n_out}>."""
    if psi.dim != ch.d:
        raise ShapeError(f"state dimension {psi.dim} != local dimension {ch.d}")
    return float(_global_overlaps(ch, psi.amplitudes[None])[0])


@lru_cache(maxsize=None)
def _transposed_moment(d: int, n_in: int, n_out: int) -> np.ndarray:
    """PT_in(S S^T) on Sym_in (x) Sym_out for S = sym_split(d, n_in, n_out).

    The input-transposed (n_in + n_out)-copy symmetric projector in
    occupation coordinates; Sym_1 is C^d itself, so for n_out = 1 this is
    already the operator on Sym_in (x) C^d.  It is real and symmetric.
    """
    ds_in, ds_out = dim_sym(d, n_in), dim_sym(d, n_out)
    split = sym_split(d, n_in, n_out)
    g = (split @ split.T).reshape(ds_in, ds_out, ds_in, ds_out)
    return _frozen(g.transpose(2, 1, 0, 3).reshape(ds_in * ds_out, ds_in * ds_out))


def haar_avg_global_fidelity(ch: Channel) -> float:
    """Exact Haar average of global_fidelity (module docstring).

    The size cap counts the moment side dim_sym(d, n_in) * dim_sym(d, n_out).
    """
    check_size_cap(dim_sym(ch.d, ch.n_in) * dim_sym(ch.d, ch.n_out))
    # w[K, (c, a)] = K[a, c] on Sym_in (x) Sym_out
    kraus = _sym_rows(ch)
    w = kraus.transpose(0, 2, 1).reshape(len(kraus), -1)
    val = np.vdot(w, w @ _transposed_moment(ch.d, ch.n_in, ch.n_out))
    return float(val.real) / dim_sym(ch.d, ch.n_in + ch.n_out)


def _clone_fidelities(d, n_in, n_out, kraus: np.ndarray, k: int) -> np.ndarray:
    """Haar-average fidelity of clone k for each Kraus stack.

    `kraus` is a (..., K, rows, dim_sym(d, n_in)) array of Kraus stacks.
    `_clone_split` writes each Kraus operator as (input c, rest j, clone a);
    the rows w[(K, j), (c, a)] span the reduced channel's Choi matrix on
    Sym_in (x) C^d, and the average is the (n_in + 1)-copy moment formula on
    it.  The size cap counts that reduced side, dim_sym(d, n_in) * d.
    Leading axes are a batch of channels: one product and one contraction
    serve them all.  The moment G is real, so Re tr(w^dag w G) is the dot
    product of the float views of w and w G, and no conjugate is formed.
    """
    side = check_size_cap(dim_sym(d, n_in) * d)
    branch = _clone_split(d, n_out, k, kraus.swapaxes(-1, -2))
    w = np.ascontiguousarray(branch.swapaxes(-3, -2).reshape(*kraus.shape[:-3], -1, side))
    wg = w @ _transposed_moment(d, n_in, 1)
    val = np.einsum("...ij,...ij->...", w.view(float), wg.view(float))
    return val / dim_sym(d, n_in + 1)


def single_clone_haar_fidelity(ch: Channel, k: int) -> float:
    """Exact Haar average of <psi| tr_(not k)[ch(psi^{n_in})] |psi>.

    The batched kernel `_clone_fidelities` on this channel's stack, the same
    code that scores a whole chunk of the asymmetric-bound scan's random
    channels at once.  The size cap counts the reduced Choi side,
    dim_sym(d, n_in) * d.
    """
    if not 1 <= k <= ch.n_out:
        raise IndexError(f"clone index {k} not in 1..{ch.n_out}")
    return float(_clone_fidelities(ch.d, ch.n_in, ch.n_out, ch.kraus, k))


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
