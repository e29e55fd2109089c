"""Qubit state estimation: measure n copies, send back one guess qubit.

Strategies are POVMs on the (n+1)-dimensional symmetric subspace of the copy
register, each outcome paired with a guess state.  Effects are weighted
projectors onto the coherent coordinates of each direction's qubit, the
occupation coordinates of phi_r^{tensor n} that `coherent_coordinates` writes
down, the same representation the cloning side uses; the weights must tile
the identity of the symmetric subspace (completeness), which we solve for by
nonnegative least squares over any supplied direction set.

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
from scipy.optimize import nnls

from .core import DensityOperator, PureState, ShapeError, _check_unit_rows, check_size_cap
from .symmetric import coherent_coordinates, dim_sym, sym_split

_log = logging.getLogger(__name__)


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
    """Refuse `count` effects on Sym_n: their stack has count * (n+1) rows of side n+1."""
    check_size_cap(count * (n_copies + 1))


def _coherent_projectors(n_copies: int, directions) -> tuple[np.ndarray, np.ndarray]:
    """The directions' (R, 2) amplitudes and (R, n+1, n+1) projectors onto phi_r^{tensor n}."""
    amps = _amplitudes(directions)
    vectors = coherent_coordinates(amps, n_copies)
    return amps, vectors[:, :, None] * vectors[:, None, :].conj()


def _born_probabilities(povm: Povm, psi: np.ndarray) -> np.ndarray:
    """Born probabilities tr[E_r psi^{tensor n}], clipped at 0, one row per qubit.

    `psi` is a (B, 2) array of qubit amplitudes; the result has shape (B, R).
    """
    if psi.shape[1] != 2:
        raise ShapeError("input must be a qubit")
    check_size_cap(povm.n + 1)
    amp = coherent_coordinates(psi, povm.n)
    probs = np.einsum("bi,rij,bj->br", amp.conj(), povm.effects, amp).real
    return np.clip(probs, 0.0, None)


def _payoffs(povm: Povm, psi: np.ndarray) -> np.ndarray:
    """sum_r tr[E_r psi^{tensor n}] |<psi|guess_r>|^2 for each row of the (B, 2) array psi."""
    probs = _born_probabilities(povm, psi)
    return np.sum(probs * np.abs(psi.conj() @ povm.guesses.T) ** 2, axis=1)


@dataclass(frozen=True)
class Povm:
    """Measure-and-resend strategy: effects on the symmetric subspace plus guesses.

    Stored as two read-only stacks: `effects`, complex of shape (R, n+1, n+1),
    and `guesses`, the (R, 2) complex amplitude rows of the guess qubits.  The
    constructor takes any sequence of effect matrices and any sequence of
    `PureState`s or amplitude rows.  Effects must be PSD within 1e-10 and sum
    to the identity within 1e-8 (Frobenius); `completeness_residual` records
    the actual defect.  Every guess row must have unit norm within 1e-12.
    """

    n: int
    effects: np.ndarray
    guesses: np.ndarray

    def __post_init__(self):
        dim = self.n + 1
        mats = [np.asarray(e, dtype=complex) for e in self.effects]
        for e in mats:
            if e.shape != (dim, dim):
                raise ShapeError(f"effect shape {e.shape} != ({dim}, {dim})")
        rows = [np.asarray(getattr(g, "amplitudes", g), dtype=complex) for g in self.guesses]
        if len(mats) != len(rows):
            raise ShapeError("one guess per effect required")
        if any(g.shape != (2,) for g in rows):
            raise ShapeError("guesses must be qubits")
        effects = np.array(mats, dtype=complex).reshape(len(mats), dim, dim)
        if np.any(np.linalg.eigvalsh(effects) < -1e-10):
            raise ValueError("effect has an eigenvalue below -1e-10")
        guesses = _check_unit_rows(np.array(rows, dtype=complex).reshape(len(rows), 2))
        effects.setflags(write=False)
        guesses.setflags(write=False)
        object.__setattr__(self, "effects", effects)
        object.__setattr__(self, "guesses", guesses)
        residual = float(np.linalg.norm(effects.sum(axis=0) - np.eye(dim), "fro"))
        object.__setattr__(self, "_residual", residual)
        if residual > 1e-8:
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
    """
    if n_copies < 1:
        raise ValueError("need at least one copy")
    if n_copies == 1:
        return [Direction(0.0, 0.0), Direction(math.pi, 0.0)]
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
    nodes, gl_weights = np.polynomial.legendre.leggauss(q)
    dirs, weights = [], []
    for x, w in zip(nodes, gl_weights):
        theta = math.acos(max(-1.0, min(1.0, float(x))))
        for a in range(p):
            dirs.append(Direction(theta, 2.0 * math.pi * a / p))
            weights.append(w / (2.0 * p))
    return dirs, np.array(weights)


def build_povm(n_copies: int, directions, tol: float = 1e-8) -> Povm:
    """Solve for nonnegative weights making the direction projectors complete.

    Minimizes the Frobenius defect || sum_r c_r |Phi_r><Phi_r| - I || over
    c_r >= 0 (nonnegative least squares); raises IncompletePovm when the
    residual exceeds `tol` or no direction is given.  Guesses are the
    directions themselves.  The size cap counts the effect stack, one effect of
    side n+1 per direction, and is checked before any effect is built.
    """
    directions = list(directions)
    if not directions:
        raise IncompletePovm("no directions to tile the identity with")
    _check_effect_stack(n_copies, len(directions))
    amps, projectors = _coherent_projectors(n_copies, directions)
    dim = n_copies + 1
    flat = projectors.reshape(len(directions), dim * dim)
    design = np.concatenate([flat.real, flat.imag], axis=1).T
    target = np.concatenate([np.eye(dim).reshape(-1), np.zeros(dim * dim)])
    weights, residual = nnls(design, target)
    if residual > tol:
        raise IncompletePovm(
            f"completeness residual {residual:.3e} exceeds tol {tol:.0e}; "
            f"supply more than {len(directions)} directions"
        )
    return Povm(n_copies, weights[:, None, None] * projectors, amps)


def universal_povm(n_copies: int) -> Povm:
    """POVM whose fixed frame already plays like the frame-randomized strategy.

    Built from `design_directions`: weights c_r = (n+1) w_r are exactly
    complete (trace out one copy of the degree-(n+1) identity), and the
    payoff against every pure state equals (n+1)/(n+2) up to rounding.
    """
    dirs, weights = design_directions(n_copies)
    amps, projectors = _coherent_projectors(n_copies, dirs)
    return Povm(n_copies, ((n_copies + 1) * weights)[:, None, None] * projectors, amps)


def respond(povm: Povm, psi: PureState) -> DensityOperator:
    """The averaged state sent back: sum_r tr[E_r rho] |phi_r><phi_r|."""
    probs = povm.outcome_probabilities(psi)
    return DensityOperator(np.einsum("r,ra,rb->ab", probs, povm.guesses, povm.guesses.conj()))


def pointwise_payoff(povm: Povm, psi: PureState) -> float:
    """Expected +-1 payoff of one fixed-frame round against psi."""
    return float(_payoffs(povm, psi.amplitudes[None])[0])


def payoff_operator(povm: Povm) -> np.ndarray:
    """sum_r E_r tensor |phi_r><phi_r| on Sym_n (x) C^2, side 2(n+1).

    E_r acts on the n-copy symmetric subspace in occupation coordinates and the
    guess qubit is the last factor.  Embedding the first factor with
    sym_isometry(2, n) gives the operator on the full 2^(n+1)-dimensional
    copy-and-guess space; the evaluators below never need that embedding.
    The size cap counts the effect stack and the side 2(n+1).
    """
    _check_effect_stack(povm.n, len(povm.effects))
    check_size_cap(2 * (povm.n + 1))
    total = np.einsum("rij,ra,rb->iajb", povm.effects, povm.guesses, povm.guesses.conj())
    dim = 2 * (povm.n + 1)
    return total.reshape(dim, dim)


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
        povm.n, len(povm.effects), w.shape[0], 2**k,
    )
    val = np.trace(split.T @ w @ split)
    return float(val.real) / dim_sym(2, k)


def frame_averaged_payoff(povm: Povm, psi: PureState) -> float:
    """Expected payoff against psi when the frame is re-drawn Haar each round.

    Requires aligned guesses so the payoff operator W lives inside the
    (n+1)-copy symmetric subspace, i.e. W = P W P for P = S S^T, the projector
    onto Sym_{n+1} inside Sym_n (x) C^2; the uniform frame twirl then reduces W
    to its overlap with the projector (the subspace is irreducible under
    collective rotations), giving mean_fidelity times the symmetric overlap
    of psi^{tensor (n+1)} - which is 1, since product states lie in Sym_{n+1}.
    """
    if psi.dim != 2:
        raise ShapeError("input must be a qubit")
    w = payoff_operator(povm)
    split = sym_split(2, povm.n, 1)
    proj = split @ split.T
    off = np.linalg.norm(w - proj @ w @ proj, 2)
    if off > 1e-8:
        raise ValueError(
            "payoff operator leaks out of the symmetric subspace "
            f"(norm {off:.3e}); frame averaging needs aligned guesses"
        )
    return mean_fidelity(povm)
