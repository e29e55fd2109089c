"""Qubit state estimation: measure n copies, send back one guess qubit.

Strategies are POVMs on the (n+1)-dimensional symmetric subspace of the copy
register, each outcome paired with a guess state.  A POVM is its stack of
effect vectors v_r, outcome r having the rank-one effect |v_r><v_r|; the
builders set v_r = sqrt(c_r) Phi_r, Phi_r the coherent coordinates of the
direction's qubit (the occupation coordinates of phi_r^{tensor n}, as on the
cloning side).  The weights c_r must tile the identity of the symmetric
subspace (completeness), which we solve for by nonnegative least squares over
any supplied direction set.  The NNLS engine is numpy only (`_nnls`): the
unconstrained least-squares solution when it is already nonnegative,
otherwise block principal pivoting with a Lawson-Hanson fallback; either way
it returns the minimum residual, which decides IncompletePovm.

Rank-one effects lose no strategy: an effect split along its eigenvectors
into outcomes sqrt(l_k) e_k, each keeping its guess, has the same summed
Born probabilities and guesses, so every payoff stays as it is.  The optimal
covariant measurement is rank-one too (Massar and Popescu, PRL 74, 1259
(1995)).  So effects are Hermitian and PSD by type; only completeness is checked.

Why completeness alone pins the mean fidelity at (n+1)/(n+2) for aligned
guesses: each effect c_r |Phi_r><Phi_r| embeds into the full copy space as c_r
times the projector onto phi_r^{tensor n}; tensoring on the aligned guess
appends one more phi_r, giving c_r times the projector onto
phi_r^{tensor (n+1)}, which the (n+1)-copy symmetric projector fixes.  The
Haar-averaged payoff is therefore sum_r c_r / dim_sym(2, n+1), and taking the
trace of the completeness condition gives sum_r c_r = n + 1 while
dim_sym(2, n+1) = n + 2.

A single finite POVM is not universal: its payoff depends on the input state
(e.g. the two-outcome n=1 measurement scores 1 on its own axis but 1/2 on the
equator).  The equilibrium strategy re-draws the whole direction frame
uniformly at random each round, which flattens the payoff to the Haar mean for
every input.  `design_directions` reproduces that flattening with a fixed
frame by making the weighted directions an exact degree-(n+1) quadrature on
the sphere, so the payoff operator itself tiles the (n+1)-copy symmetric
projector and the per-state payoff is constant to rounding.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .core import PureState, ShapeError, _check_unit_rows, check_size_cap
from .symmetric import coherent_coordinates, dim_sym, sym_split

_log = logging.getLogger(__name__)

#: Full block exchanges that may fail to lower the count of KKT violations
#: before `_nnls` gives up block principal pivoting for Lawson-Hanson.
NNLS_PATIENCE = 10


class IncompletePovm(ValueError):
    """The direction set cannot tile the symmetric-subspace identity."""


@dataclass(frozen=True)
class Direction:
    """Point on the Bloch sphere: polar angle theta, azimuthal phase psi."""

    theta: float
    psi_phase: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta {self.theta} not in [0, pi]")
        if not 0.0 <= self.psi_phase < 2.0 * math.pi:
            raise ValueError(f"psi_phase {self.psi_phase} not in [0, 2 pi)")


def _amplitudes(directions) -> np.ndarray:
    """Qubit amplitudes of the directions, one (cos, sin) row each: shape (R, 2).

    Uses the symmetric phase split (e^{-i psi/2} cos(theta/2),
    e^{+i psi/2} sin(theta/2)), i.e. the rotation e^{-i psi Jz} e^{-i theta Jy}
    applied to |0>.
    """
    half = 0.5 * np.array([d.theta for d in directions], dtype=float)
    phase = 0.5 * np.array([d.psi_phase for d in directions], dtype=float)
    return np.stack([np.cos(half) * np.exp(-1j * phase), np.sin(half) * np.exp(1j * phase)],
                    axis=1)


def bloch_state(direction: Direction) -> PureState:
    """Qubit along the given Bloch direction, with the phase split of `_amplitudes`."""
    return PureState(_amplitudes([direction])[0])


def _check_effect_stack(n_copies: int, count: int) -> None:
    """Refuse `count` effects on Sym_n: their vector stack has count * (n+1) entries."""
    check_size_cap(count * (n_copies + 1))


def _born_probabilities(povm: Povm, psi: np.ndarray) -> np.ndarray:
    """Born probabilities |<v_r|psi^{tensor n}>|^2, one row per qubit.

    `psi` is a (B, 2) array of qubit amplitudes; the result has shape (B, R).
    """
    if psi.shape[1] != 2:
        raise ShapeError("input must be a qubit")
    check_size_cap(povm.n + 1)
    return np.abs(coherent_coordinates(psi, povm.n) @ povm.vectors.conj().T) ** 2


def _payoffs(povm: Povm, psi: np.ndarray) -> np.ndarray:
    """sum_r tr[E_r psi^{tensor n}] |<psi|guess_r>|^2 for each row of the (B, 2) array psi."""
    probs = _born_probabilities(povm, psi)
    return np.sum(probs * np.abs(psi.conj() @ povm.guesses.T) ** 2, axis=1)


@dataclass(frozen=True)
class Povm:
    """Measure-and-resend strategy: rank-one effects on the symmetric subspace plus guesses.

    Stored as two read-only stacks: `vectors`, complex of shape (R, n+1), row
    v_r the effect |v_r><v_r| in occupation coordinates, and `guesses`, the
    (R, 2) amplitude rows of the guess qubits.  Any POVM splits into a rank-one
    one with the same payoffs (module docstring), so the type loses no
    strategy.  The constructor takes any (R, n+1) array and any sequence of
    `PureState`s or amplitude rows.  Vectors must be finite and complete within
    1e-8, the Frobenius norm of V^T conj(V) - I that `completeness_residual`
    records; every guess row must have unit norm within 1e-12.
    """

    n: int
    vectors: np.ndarray
    guesses: np.ndarray

    def __post_init__(self):
        dim = self.n + 1
        vectors = np.array(self.vectors, dtype=complex)
        if vectors.ndim != 2 or vectors.shape[1] != dim:
            raise ShapeError(f"effect vector stack shape {vectors.shape} is not (R, {dim})")
        rows = [np.asarray(getattr(g, "amplitudes", g), dtype=complex) for g in self.guesses]
        if len(vectors) != len(rows):
            raise ShapeError("one guess per effect required")
        if any(g.shape != (2,) for g in rows):
            raise ShapeError("guesses must be qubits")
        if not np.all(np.isfinite(vectors)):
            raise ValueError("effect vectors have non-finite entries")
        guesses = _check_unit_rows(np.array(rows, dtype=complex).reshape(len(rows), 2))
        vectors.setflags(write=False)
        guesses.setflags(write=False)
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "guesses", guesses)
        residual = float(np.linalg.norm(vectors.T @ vectors.conj() - np.eye(dim), "fro"))
        object.__setattr__(self, "_residual", residual)
        if not residual <= 1e-8:
            raise IncompletePovm(
                f"effects sum to identity only within {residual:.3e} (> 1e-8); "
                "add more directions"
            )

    @property
    def completeness_residual(self) -> float:
        return self._residual

    def outcome_probabilities(self, psi: PureState) -> np.ndarray:
        """Born probabilities tr[E_r rho] for the n-copy input psi^{tensor n}."""
        return _born_probabilities(self, psi.amplitudes[None])[0]


def default_directions(n_copies: int) -> list[Direction]:
    """Direction set used when the caller has no opinion.

    n = 1 gets the antipodal pair; larger n gets (n+1)^2 golden-angle spiral
    points.  Nonnegative weights on these points do not always tile the
    identity: `build_povm` succeeds for n = 1-8 and 10-13 but raises
    IncompletePovm at n = 9, 14 and 15.  `universal_povm` is exact for every n.
    The size cap counts the effect stack `build_povm` would make on these
    points and is checked before any point is made.
    """
    if n_copies < 1:
        raise ValueError("need at least one copy")
    if n_copies == 1:
        return [Direction(0.0, 0.0), Direction(math.pi, 0.0)]
    _check_effect_stack(n_copies, (n_copies + 1) ** 2)
    return fibonacci_directions((n_copies + 1) ** 2)


def fibonacci_directions(count: int) -> list[Direction]:
    """Golden-angle spiral points; the azimuth doubles as the frame phase."""
    golden = math.pi * (3.0 - math.sqrt(5.0))
    out = []
    for i in range(count):
        z = 1.0 - (2.0 * i + 1.0) / count
        theta = math.acos(max(-1.0, min(1.0, z)))
        psi = math.fmod(i * golden, 2.0 * math.pi)
        out.append(Direction(theta, psi))
    return out


def design_directions(n_copies: int) -> tuple[list[Direction], np.ndarray]:
    """Weighted directions that integrate degree-(n+1) sphere polynomials exactly.

    Gauss-Legendre nodes in cos(theta) crossed with n+2 equispaced azimuths:
    the product rule integrates every monomial of degree <= n+1 in the Bloch
    components, hence sum_r w_r proj(phi_r^{tensor (n+1)}) equals the
    (n+1)-copy Haar moment to rounding.  Weights sum to 1.  The size cap counts
    the effect stack of the POVM these points define (`universal_povm`) and is
    checked before any point is made.
    """
    k = n_copies + 1
    q = k // 2 + 1  # Gauss-Legendre is exact through degree 2q - 1 >= k
    p = k + 1  # uniform azimuths kill e^{i j psi} for 0 < |j| <= k
    _check_effect_stack(n_copies, q * p)
    nodes, gl_weights = leggauss(q)
    dirs, weights = [], []
    for x, w in zip(nodes, gl_weights):
        theta = math.acos(max(-1.0, min(1.0, float(x))))
        for a in range(p):
            dirs.append(Direction(theta, 2.0 * math.pi * a / p))
            weights.append(w / (2.0 * p))
    return dirs, np.array(weights)


def _completeness_system(vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real system (design, target) with ||design @ c - target|| = ||sum_r c_r P_r - I||_F.

    P_r = |v_r><v_r| for the rows v_r of `vectors`; this design matrix is the
    one place the projectors are formed.  Each P_r of side k becomes one
    column of k^2 real coordinates: the k diagonal entries, then sqrt(2)
    times the real and the imaginary parts of the entries above the
    diagonal, which keeps the Frobenius norm.
    """
    dim = vectors.shape[-1]
    projectors = vectors[:, :, None] * vectors[:, None, :].conj()
    upper = np.triu_indices(dim, 1)
    off = math.sqrt(2.0) * projectors[:, upper[0], upper[1]]
    diag = np.diagonal(projectors, axis1=1, axis2=2).real
    design = np.concatenate([diag, off.real, off.imag], axis=1).T
    target = np.concatenate([np.ones(dim), np.zeros(dim * dim - dim)])
    return np.ascontiguousarray(design), target


def _passive_lstsq(a: np.ndarray, b: np.ndarray, passive: np.ndarray) -> np.ndarray:
    """Least-squares x with x = 0 off the boolean mask `passive`.

    A Householder QR solves it when the passive columns are at most as many
    as the rows and well inside full rank; otherwise (more columns than
    rows, or nearly dependent ones) the minimum-norm SVD solution of
    `np.linalg.lstsq`.
    """
    x = np.zeros(a.shape[1])
    if not passive.any():
        return x
    cols = a[:, passive]
    if cols.shape[0] >= cols.shape[1]:
        q, r = np.linalg.qr(cols)
        diag = np.abs(np.diagonal(r))
        if diag.min() > 1e-10 * diag.max():
            x[passive] = np.linalg.solve(r, q.T @ b)
            return x
    x[passive] = np.linalg.lstsq(cols, b, rcond=None)[0]
    return x


def _lawson_hanson(a, b, passive, gtol):
    """Lawson-Hanson active set from the columns `passive`; x or None at the cap.

    The start shrinks `passive` until its least-squares solution is positive.
    Each outer step frees the zero weight with the largest descent direction
    a^T(b - a x) above gtol; an entering column whose weight comes out
    nonpositive is set aside until the next accepted step.
    """
    while True:
        x = _passive_lstsq(a, b, passive)
        if np.all(x[passive] > 0.0):
            break
        passive &= x > 0.0
    rejected = np.zeros_like(passive)
    for _ in range(3 * a.shape[1]):
        grad = a.T @ (b - a @ x)
        grad[passive | rejected] = -np.inf
        enter = int(np.argmax(grad))
        if grad[enter] <= gtol:
            return x
        passive[enter] = True
        z = _passive_lstsq(a, b, passive)
        if z[enter] <= 0.0:
            passive[enter], rejected[enter] = False, True
            continue
        rejected[:] = False
        while np.any(z[passive] <= 0.0):
            # step from x towards z until the first weight reaches zero
            blocking = np.flatnonzero(passive & (z <= 0.0))
            ratios = x[blocking] / (x[blocking] - z[blocking])
            step = ratios.min()
            x += step * (z - x)
            x[blocking[ratios <= step]] = 0.0
            passive &= x > 0.0
            x[~passive] = 0.0
            z = _passive_lstsq(a, b, passive)
        x = z
    return None


def _nnls(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """Nonnegative least squares: x >= 0 minimising ||a x - b||, and that residual.

    An unconstrained least-squares solution that is already nonnegative is
    optimal.  Otherwise block principal pivoting (Kim and Park, SIAM J. Sci.
    Comput. 33, 3261 (2011)) starts from its positive entries: each step
    solves least squares on the passive columns and swaps every column that
    violates the KKT conditions (a negative passive weight, or a zero weight
    whose gradient a^T(a x - b) is below -gtol).  When NNLS_PATIENCE swaps in
    a row fail to lower the number of violations, Lawson-Hanson takes over
    from the passive set.  gtol is ten rounding units of the gradient.
    """
    x = _passive_lstsq(a, b, np.ones(a.shape[1], dtype=bool))
    if x.min() < 0.0:
        gtol = 10.0 * np.finfo(float).eps * np.abs(a).sum(axis=0).max() * (1.0 + np.linalg.norm(b))
        passive = x > 0.0
        fewest, patience = a.shape[1] + 1, NNLS_PATIENCE
        while True:
            x = _passive_lstsq(a, b, passive)
            grad = a.T @ (a @ x - b)
            violated = np.where(passive, x < 0.0, grad < -gtol)
            count = int(violated.sum())
            if count == 0:
                break
            if count < fewest:
                fewest, patience = count, NNLS_PATIENCE
            elif patience == 0:
                x = _lawson_hanson(a, b, passive, gtol)
                if x is None:
                    raise RuntimeError("NNLS reached its iteration cap")
                break
            else:
                patience -= 1
            passive ^= violated
    x = np.clip(x, 0.0, None)
    return x, float(np.linalg.norm(a @ x - b))


def build_povm(n_copies: int, directions, tol: float = 1e-8) -> Povm:
    """Solve for nonnegative weights making the direction projectors complete.

    Minimizes the Frobenius defect || sum_r c_r |Phi_r><Phi_r| - I || over
    c_r >= 0 with the numpy NNLS `_nnls`, which returns the minimum defect;
    raises IncompletePovm when that residual exceeds `tol` or no direction
    is given.  The effect vectors are sqrt(c_r) Phi_r and the guesses are the
    directions themselves.  The size cap counts the effect stack, one vector
    of length n+1 per direction, and is checked before any vector is built.
    """
    directions = list(directions)
    if not directions:
        raise IncompletePovm("no directions to tile the identity with")
    _check_effect_stack(n_copies, len(directions))
    amps = _amplitudes(directions)
    vectors = coherent_coordinates(amps, n_copies)
    weights, residual = _nnls(*_completeness_system(vectors))
    if residual > tol:
        raise IncompletePovm(
            f"completeness residual {residual:.3e} exceeds tol {tol:.0e}; "
            f"supply more than {len(directions)} directions"
        )
    return Povm(n_copies, np.sqrt(weights)[:, None] * vectors, amps)


def universal_povm(n_copies: int) -> Povm:
    """POVM whose fixed frame already plays like the frame-randomized strategy.

    Built from `design_directions`: weights c_r = (n+1) w_r are exactly
    complete (trace out one copy of the degree-(n+1) identity), and the
    payoff against every pure state equals (n+1)/(n+2) up to rounding.  The
    effect vectors are sqrt(c_r) Phi_r.
    """
    dirs, weights = design_directions(n_copies)
    amps = _amplitudes(dirs)
    vectors = np.sqrt((n_copies + 1) * weights)[:, None] * coherent_coordinates(amps, n_copies)
    return Povm(n_copies, vectors, amps)


def pointwise_payoff(povm: Povm, psi: PureState) -> float:
    """Expected +-1 payoff of one fixed-frame round against psi."""
    return float(_payoffs(povm, psi.amplitudes[None])[0])


def payoff_operator(povm: Povm) -> np.ndarray:
    """sum_r E_r tensor |phi_r><phi_r| on Sym_n (x) C^2, side 2(n+1).

    E_r acts on the n-copy symmetric subspace in occupation coordinates and the
    guess qubit is the last factor.  With E_r = |v_r><v_r| the sum is the Gram
    product x^T conj(x) of the rows x_r = v_r (x) guess_r.  Embedding the
    first factor with sym_isometry(2, n) gives the operator on the full
    2^(n+1)-dimensional copy-and-guess space; the evaluators below never need
    that embedding.  The size cap counts the effect stack and the side 2(n+1).
    """
    count = len(povm.vectors)
    _check_effect_stack(povm.n, count)
    check_size_cap(2 * (povm.n + 1))
    rows = (povm.vectors[:, :, None] * povm.guesses[:, None, :]).reshape(count, -1)
    return rows.T @ rows.conj()


def mean_fidelity(povm: Povm) -> float:
    """Exact Haar-averaged payoff, tr[S^T W S] / dim_sym(2, n+1).

    W is `payoff_operator` and S = sym_split(2, n, 1), so S^T W S is W on the
    (n+2)-dimensional space Sym_{n+1}; this equals tr[W P_sym] over n+1 copies.
    """
    k = povm.n + 1
    w = payoff_operator(povm)
    split = sym_split(2, povm.n, 1)
    _log.debug(
        "mean_fidelity n=%d: %d effects, payoff operator side %d on Sym_n (x) C^2 "
        "(full copy-and-guess space: %d)",
        povm.n, len(povm.vectors), w.shape[0], 2**k,
    )
    val = np.trace(split.T @ w @ split)
    return float(val.real) / dim_sym(2, k)
