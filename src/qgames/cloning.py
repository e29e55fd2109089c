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
`Channel.choi` is read.  Every payoff is a quadratic form in the rows w of
a factor w^T conj(w) of J with its output projected onto Sym_out, or of one
clone's reduced Choi matrix on Sym_in (x) C^d.  `_choi_rows` alone builds
those rows and is the one place that reads how the output rows are
coordinatised.  A product state scores
sum_rows |w . (coh_in(psi) (x) conj(out(psi)))|^2 (`_state_fidelities`), with
out(psi) the Sym_out coordinates of psi^{(x)n_out} or psi itself for one
clone; the Haar average is Re tr(w G w^dag) over a moment G
(`_haar_fidelities`).

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
    the channel.  It is given as one such array, converted to complex once
    and stored as a C-contiguous copy, or as a sequence of operators.  rows = dim_sym(d, n_out) means Sym_out occupation
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
        cols = dim_sym(self.d, self.n_in)
        allowed = ((dim_sym(self.d, self.n_out), cols), (self.dim_out, cols))

        def check_shape(shape):
            if shape not in allowed:
                raise ShapeError(
                    f"Kraus operator shape {shape} is neither {allowed[0]} (Sym_out rows) "
                    f"nor {allowed[1]} (full output rows)"
                )

        if not isinstance(kraus, np.ndarray):
            kraus = [np.asarray(k) for k in kraus]
            for k in kraus:
                check_shape(k.shape)
                if k.shape != kraus[0].shape:
                    raise ShapeError(f"Kraus operator shapes {kraus[0].shape} and {k.shape} differ")
        stacked = np.asarray(kraus, dtype=complex)
        if not len(stacked):
            raise ShapeError("channel needs at least one Kraus operator")
        check_shape(stacked.shape[1:])
        _checked_defects(stacked)
        # a C-contiguous copy, made after the check so that the check's
        # working memory and the copy never coexist
        stacked = np.array(stacked, order="C")
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

    def __repr__(self):
        return (
            f"Channel(d={self.d}, n_in={self.n_in}, n_out={self.n_out}, "
            f"kraus={len(self.kraus)}, output={'Sym_out' if self.sym_out else 'full'})"
        )


def _defect_matrices(kraus: np.ndarray) -> np.ndarray:
    """sum(K^dag K) - I on Sym_in for each Kraus stack of a (..., K, rows, cols) array.

    A channel's Kraus operators stacked vertically form one (K * rows, cols)
    matrix whose Gram matrix is sum(K^dag K).  Leading axes are a batch of
    channels: one product serves them all.
    """
    rows = kraus.reshape(*kraus.shape[:-3], -1, kraus.shape[-1])
    return rows.conj().swapaxes(-1, -2) @ rows - np.eye(rows.shape[-1])


def _completeness_defects(kraus: np.ndarray) -> np.ndarray:
    """Operator norm of sum(K^dag K) - I on Sym_in for each Kraus stack.

    The defect is Hermitian, so its norm is its largest eigenvalue modulus;
    one `eigvalsh` serves a whole batch of `_defect_matrices`.
    """
    return np.abs(np.linalg.eigvalsh(_defect_matrices(kraus))).max(axis=-1)


def _checked_defects(kraus: np.ndarray) -> None:
    """Check a (..., K, rows, cols) array of Kraus stacks.

    Raises ValueError if any entry is non-finite or any channel's
    `_completeness_defects` passes COMPLETENESS_ATOL: the checks `Channel`
    makes on construction, run on every channel of a batch at once.  The
    Frobenius norm of a matrix bounds its operator norm from above, so a
    batch whose largest Frobenius norm of sum(K^dag K) - I is within
    COMPLETENESS_ATOL passes without an eigensolve.  Only a batch above it
    pays for `_completeness_defects`, which then decides and names the
    worst defect.  Non-finite entries are refused before any product.
    """
    if not np.all(np.isfinite(kraus)):
        raise ValueError("Kraus operators have non-finite entries")
    parts = _defect_matrices(kraus).view(float)
    if math.sqrt(np.einsum("...ij,...ij->...", parts, parts).max()) <= COMPLETENESS_ATOL:
        return
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
    check_size_cap(d**n_out)
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


def symmetric_noise_channel(d, n_in, n_out) -> Channel:
    """rho -> tr(rho) * P_sym / dim_sym: maximally mixed on the output Bose space.

    One Kraus operator |c><b| / sqrt(dim_sym(d, n_out)) per pair of Sym_out
    state c and Sym_in state b.  The size cap counts the Choi side
    dim_sym(d, n_in) * dim_sym(d, n_out) before anything is built.
    """
    ds_in, ds_out = dim_sym(d, n_in), dim_sym(d, n_out)
    side = check_size_cap(ds_in * ds_out)
    kraus = np.zeros((side, ds_out, ds_in), dtype=complex)
    np.fill_diagonal(kraus.reshape(side, side), 1.0 / math.sqrt(ds_out))
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
    orthonormalised by one batched phase-fixed QR, and one 2-D product by V_in
    restricts every isometry to Sym_in; the stack is a C-contiguous copy of
    that product with its output and ancilla axes swapped, so that the
    completeness check and the scoring reshape it without further copies.
    The arity checks and the size cap run before anything is drawn;
    a non-finite draw raises ValueError before the QR.
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
    restricted = _phase_fixed_q(z).reshape(-1, dim_in) @ sym_isometry(d, n_in)
    stack = restricted.reshape(count, dim_out, dim // dim_out, -1).transpose(0, 2, 1, 3)
    return np.ascontiguousarray(stack)


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
    the batched kernel `_random_isometry_kraus` at a batch of one, which the
    asymmetric-bound scan runs on whole memory chunks of channels
    (`harness.asym_bound_scan`).  The size cap counts the Ginibre side
    d**n_out * ancilla_dim and is checked before anything is drawn, as are
    ancilla_dim >= 1 and a Ginibre side of at least the d**n_in kept columns.
    """
    kraus = _random_isometry_kraus(d, n_in, n_out, rng, 1, ancilla_dim)
    return Channel(d, n_in, n_out, kraus[0])


def _choi_rows(d, n_in, n_out, kraus: np.ndarray, clone) -> np.ndarray:
    """Rows w[..., (K, j), (c, a)] whose w^T conj(w) is a (reduced) Choi matrix J.

    `kraus` is a (..., K, rows, dim_sym(d, n_in)) array of Kraus stacks, c
    indexes the input and a the output the rows pair with:

    - clone = 0: the whole output, projected onto Sym_out (V_out^T K for
      full rows), where psi^{(x)n_out} lies; j takes one value.
    - clone = k in 1..n_out: clone k's reduced channel on Sym_in (x) C^d,
      each output row split into (rest j, clone a).  Sym_out rows go through
      S = sym_split(d, n_out - 1, 1), which writes Sym_out inside
      Sym_{n_out-1} (x) C^d: every clone of a symmetric output has the same
      reduced channel, so the last copy stands for clone k.
    - clone = None: a clone picked uniformly at random, whose reduced channel
      is the mean of the n_out clones': the rows of clone n_out for Sym_out
      rows.  For full rows, whose clones differ, the rows are
      sqrt(lambda_r) u_r^T over the eigenpairs of that mean's Choi matrix,
      dim_sym(d, n_in) * d of them.

    This is the one place that reads whether Kraus rows are Sym_out (a
    dim_sym(d, n_out) row count) or full.  One clone's rows hold at most d
    times the entries of the Kraus stack.  Leading axes are a batch of
    channels.
    """
    sym = kraus.shape[-2] == dim_sym(d, n_out)
    if clone is None and not sym:
        # one clone's rows at a time: the mean reduced Choi matrix and its
        # eigen-factor have side dim_sym(d, n_in) * d, however many Kraus
        # operators and clones there are
        clones = (_choi_rows(d, n_in, n_out, kraus, k) for k in range(1, n_out + 1))
        choi = sum(w.swapaxes(-1, -2) @ w.conj() for w in clones) / n_out
        lam, vec = np.linalg.eigh(choi)
        return np.sqrt(np.clip(lam, 0.0, None))[..., None] * vec.swapaxes(-1, -2)
    out = kraus.swapaxes(-1, -2)  # (..., K, c, a)
    if clone == 0:
        w = (out if sym else out @ sym_isometry(d, n_out))[..., None, :, :]
    elif sym:
        split = (out @ sym_split(d, n_out - 1, 1).T).reshape(*out.shape[:-1], -1, d)
        w = split.swapaxes(-3, -2)
    else:
        # (..., K, (a_<k, a_k, a_>k), c) -> (..., K, a_<k, a_>k, c, a_k)
        split = kraus.reshape(*kraus.shape[:-2], d ** (clone - 1), d, d ** (n_out - clone), -1)
        w = np.moveaxis(split, (-1, -3), (-2, -1))
    # (..., K, j..., c, a) -> (..., (K, j), (c, a))
    return np.ascontiguousarray(w.reshape(*kraus.shape[:-3], -1, w.shape[-2] * w.shape[-1]))


def _state_fidelities(n_in: int, copies: int, rows: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """sum over rows of |w . (coh_in(psi) (x) conj(coh_copies(psi)))|^2 per row of `psi`.

    `rows` come from `_choi_rows`, `psi` is a (B, d) array of amplitudes and
    `copies` is the number of output copies the rows pair with: n_out for the
    whole output, 1 for a clone.  Each term is |<psi^{copies}| K_j
    |psi^{n_in}>|^2, so the sum is the output's overlap with psi^{copies}.  One
    product serves every Kraus operator; its (B, rows) result is as wide as
    the rows are many.
    """
    vin = coherent_coordinates(psi, n_in)
    bra = coherent_coordinates(psi, copies).conj()
    x = (vin[:, :, None] * bra[:, None, :]).reshape(len(psi), -1)
    y = x @ rows.T
    return np.einsum("bi,bi->b", y.view(float), y.view(float))


def _haar_fidelities(d, n_in, n_out, kraus: np.ndarray, clone: int) -> np.ndarray:
    """Haar average of the output's fidelity for each Kraus stack (module docstring).

    `kraus` is a (..., K, rows, dim_sym(d, n_in)) array of Kraus stacks and
    `clone` picks the output as `_choi_rows` does: 0 for the whole output,
    k for clone k.  The average is Re tr(w G w^dag) / dim_sym(d, n_in + p),
    G = `_transposed_moment(d, n_in, p)`, p = n_out for the whole output and
    1 for a clone.  The size cap counts the side of G, dim_sym(d, n_in) *
    dim_sym(d, p), before any rows are built.  Leading axes are a batch of
    channels: the rows of the whole batch meet G in one 2-D product, and one
    contraction serves them all.  G is real, so Re tr(w G w^dag) is the dot
    product of the float views of w and w G, and no conjugate is formed.
    """
    copies = n_out if clone == 0 else 1
    check_size_cap(dim_sym(d, n_in) * dim_sym(d, copies))
    w = _choi_rows(d, n_in, n_out, kraus, clone)
    wg = (w.reshape(-1, w.shape[-1]) @ _transposed_moment(d, n_in, copies)).reshape(w.shape)
    val = np.einsum("...ij,...ij->...", w.view(float), wg.view(float))
    return val / dim_sym(d, n_in + copies)


def global_fidelity(ch: Channel, psi: PureState) -> float:
    """<psi^{n_out}| ch(psi^{n_in}) |psi^{n_out}>."""
    if psi.dim != ch.d:
        raise ShapeError(f"state dimension {psi.dim} != local dimension {ch.d}")
    rows = _choi_rows(ch.d, ch.n_in, ch.n_out, ch.kraus, 0)
    return float(_state_fidelities(ch.n_in, ch.n_out, rows, psi.amplitudes[None])[0])


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
    return float(_haar_fidelities(ch.d, ch.n_in, ch.n_out, ch.kraus, 0))


def single_clone_haar_fidelity(ch: Channel, k: int) -> float:
    """Exact Haar average of <psi| tr_(not k)[ch(psi^{n_in})] |psi>.

    The batched kernel `_haar_fidelities` on this channel's stack, the same
    code that scores a whole chunk of the asymmetric-bound scan's random
    channels at once.  The size cap counts the reduced Choi side,
    dim_sym(d, n_in) * d.
    """
    if not 1 <= k <= ch.n_out:
        raise IndexError(f"clone index {k} not in 1..{ch.n_out}")
    return float(_haar_fidelities(ch.d, ch.n_in, ch.n_out, ch.kraus, k))


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
    """Exact rational game values rendered to floats.

    Python's int true division rounds the exact ratio correctly, so each
    value is the float nearest the rational, as `fractions.Fraction` gives.
    """
    if not 1 <= n_in <= n_out:
        raise InvalidArity(f"need 1 <= n_in <= n_out, got ({n_in}, {n_out})")
    numer = n_in * (d + n_out) + n_out - n_in
    return CloningValues(dim_sym(d, n_in) / dim_sym(d, n_out),
                         numer / ((d + n_in) * n_out), numer / (d + n_in))
