"""Experiments tying the quantum strategies to finite game theory.

Discretized matrix games restrict both players to finite strategy sets; the
restricted value can only fall as the column player's set grows, and it is
pinned from below by any row whose payoff is constant, so refining the state
sets sandwiches the theoretical game value.  Monte Carlo play runs the actual
referee protocol, and the brute-force scan checks the asymmetric-cloning
fidelity-sum ceiling over random channels.

Monte Carlo rounds and the scan's random channels draw by seed scheme v2.
Rounds come in draw chunks of DRAW_ROUNDS: draw chunk c takes one substream of
the seed, `substream(c)`, and draws whole arrays from it for all of its rounds,
so round i depends on the seed and i alone.  Each random channel of the scan
takes one substream per channel and draws only the Ginibre columns it keeps
(`random_isometry_channel`).  The other random sets keep one substream per
item: `haar_states` per state, `cloner_perturbations` and
`povm_perturbations` per perturbation.  Rounds are evaluated in memory chunks
with array operations: CHUNK_ROUNDS rounds, fewer for games whose rows are so
wide that a chunk would pass CHUNK_BYTES.  Memory chunks subdivide a draw
chunk and bound memory and nothing else, so a record depends on the seed and
the round count, not on the memory chunk size.

Analytic reports quote fidelities F; the protocol's literal stakes are +-1.
A round passes with probability p = (1 + F)/2, so the mean +-1 payoff is
2p - 1 = F: the empirical mean payoff estimates the mean fidelity directly.
Monte Carlo records carry the mean payoff and the raw pass rate side by side.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .cloning import (
    Channel,
    _global_overlaps,
    _one_particle_overlaps,
    haar_avg_global_fidelity,
    haar_random_unitary,
    conjugate_output,
    mirror_embedding_channel,
    mixture_channel,
    optimal_cloner,
    product_embedding_channel,
    random_isometry_channel,
    single_clone_haar_fidelity,
    symmetric_noise_channel,
    value_formulas,
)
from .core import (
    PureState,
    RandomStream,
    ShapeError,
    _check_unit_rows,
    check_size_cap,
    haar_random_state,
)
from .estimation import (
    Direction,
    Povm,
    _born_probabilities,
    _payoffs,
    bloch_state,
    fibonacci_directions,
    mean_fidelity,
)
from .swap_test import referee_outcomes
from .symmetric import dim_sym
from .zerosum import MatrixGame, solve

GAME_KINDS = ("estimation", "cloning", "one_particle")

#: Rounds per draw chunk of seed scheme v2: draw chunk c covers rounds
#: c*DRAW_ROUNDS .. (c+1)*DRAW_ROUNDS - 1 and draws them all from substream c.
#: Part of the determinism contract: changing it changes every record.
DRAW_ROUNDS = 256
#: Monte Carlo rounds evaluated together with array operations.  Memory chunks
#: subdivide a draw chunk and bound the working memory only, so records do not
#: depend on the chunk length.
CHUNK_ROUNDS = 256
#: Bytes one chunk's widest per-round array may take: games whose rows are wide
#: (many Sym_out coordinates or d^m amplitudes) run fewer than CHUNK_ROUNDS
#: rounds per chunk.
CHUNK_BYTES = 2**22

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class GameSpec:
    """What to play: which game, at which arity, for how many rounds."""

    kind: str
    d: int = 2
    n: int = 1
    m: int = 1
    samples: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in GAME_KINDS:
            raise ValueError(f"kind must be one of {GAME_KINDS}, got {self.kind!r}")
        if self.d < 1:
            raise ValueError(f"dimension d must be >= 1, got {self.d}")
        if self.kind == "estimation":
            if self.d != 2:
                raise ValueError("estimation strategies are implemented for qubits only")
            if self.n < 1:
                raise ValueError("estimation needs n >= 1 copies")
        else:
            if not 1 <= self.n <= self.m:
                raise ValueError(f"cloning arity needs 1 <= n <= m, got ({self.n}, {self.m})")
        if self.samples < 0:
            raise ValueError("samples must be nonnegative")

    def theoretical_value(self) -> float:
        if self.kind == "estimation":
            return (self.n + 1) / (self.n + 2)
        values = value_formulas(self.d, self.n, self.m)
        return values.global_value if self.kind == "cloning" else values.single_value


# ---------------------------------------------------------------------------
# deterministic state sets (column-player discretizations)

_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def icosahedral_states() -> list[PureState]:
    """The 12 icosahedron vertices as qubit states (a well-spread Bloch set)."""
    verts = []
    for a in (-1.0, 1.0):
        for b in (-_GOLDEN, _GOLDEN):
            verts += [(0.0, a, b), (a, b, 0.0), (b, 0.0, a)]
    states = []
    for v in verts:
        x, y, z = np.array(v) / np.linalg.norm(v)
        theta = math.acos(max(-1.0, min(1.0, z)))
        psi = math.atan2(y, x) % (2.0 * math.pi)
        states.append(bloch_state(Direction(theta, psi)))
    return states


def fibonacci_states(count: int) -> list[PureState]:
    return [bloch_state(d) for d in fibonacci_directions(count)]


def haar_states(d: int, count: int, rng: RandomStream) -> list[PureState]:
    return [haar_random_state(d, rng.substream(i)) for i in range(count)]


def nested_state_sets(states, sizes) -> list[list[PureState]]:
    """Prefixes of one ordered state list, so refinement levels truly nest."""
    states = list(states)
    sizes = sorted(int(s) for s in sizes)
    if sizes[-1] > len(states):
        raise ValueError(f"largest size {sizes[-1]} exceeds {len(states)} states")
    return [states[:s] for s in sizes]


def default_state_sets(d: int, sizes, rng: RandomStream | None = None):
    """Fibonacci prefixes for qubits, Haar-sample prefixes above."""
    top = max(int(s) for s in sizes)
    if d == 2:
        return nested_state_sets(fibonacci_states(top), sizes)
    if rng is None:
        raise ValueError("state sets for d > 2 are sampled and need a RandomStream")
    return nested_state_sets(haar_states(d, top, rng), sizes)


# ---------------------------------------------------------------------------
# discretized matrix games

def _state_rows(states, dim: int) -> np.ndarray:
    """The states' amplitudes stacked as rows; every state must have dimension `dim`."""
    for psi in states:
        if psi.dim != dim:
            raise ShapeError(f"state dimension {psi.dim} != local dimension {dim}")
    return np.stack([psi.amplitudes for psi in states])


def _row_width(ch: Channel) -> int:
    """Widest per-round row a channel's rounds build: its Kraus rows or columns."""
    return max(ch.kraus.shape[1:])


def _chunk_length(width: int) -> int:
    """Rows per chunk: CHUNK_ROUNDS, fewer when width-wide rows would pass CHUNK_BYTES."""
    return max(1, min(CHUNK_ROUNDS, CHUNK_BYTES // (16 * width)))


def discretize_estimation_game(n_copies: int, povms, states) -> MatrixGame:
    """A[i, j] = mean payoff of povms[i] against states[j] (fixed frames).

    Each row is sum_r tr[E_r psi_j^{tensor n}] |<psi_j|guess_r>|^2 over all
    columns at once, in chunks of columns as `monte_carlo_play` chunks rounds.
    """
    povms = list(povms)
    states = list(states)
    if not povms or not states:
        raise ShapeError("need at least one strategy per player")
    for povm in povms:
        if povm.n != n_copies:
            raise ShapeError(f"povm copy count {povm.n} != {n_copies}")
    psi = _state_rows(states, 2)
    a = np.empty((len(povms), len(states)))
    for i, povm in enumerate(povms):
        chunk = _chunk_length(len(povm.effects))
        for start in range(0, len(psi), chunk):
            a[i, start:start + chunk] = _payoffs(povm, psi[start:start + chunk])
    return MatrixGame(a)


def discretize_cloning_game(d, n_in, n_out, channels, states) -> MatrixGame:
    """A[i, j] = global fidelity of channels[i] on states[j].

    Each row is evaluated over all columns at once, in chunks of columns as
    `monte_carlo_play` chunks rounds.
    """
    channels = list(channels)
    states = list(states)
    if not channels or not states:
        raise ShapeError("need at least one strategy per player")
    for ch in channels:
        if (ch.d, ch.n_in, ch.n_out) != (d, n_in, n_out):
            raise ShapeError(f"channel arity {(ch.d, ch.n_in, ch.n_out)} != {(d, n_in, n_out)}")
    width = check_size_cap(max(_row_width(ch) for ch in channels))
    psi = _state_rows(states, d)
    chunk = _chunk_length(width)
    a = np.empty((len(channels), len(states)))
    for i, ch in enumerate(channels):
        for start in range(0, len(psi), chunk):
            a[i, start:start + chunk] = _global_overlaps(ch, psi[start:start + chunk])
    return MatrixGame(a)


@dataclass(frozen=True)
class SandwichLevel:
    n_states: int
    value: float
    exploitability: float


@dataclass(frozen=True)
class SandwichReport:
    """Restricted game values across nested column refinements."""

    kind: str
    theoretical_value: float
    levels: tuple
    lower_bound_ok: bool
    monotone_ok: bool
    converged: bool
    tol: float

    @property
    def passed(self) -> bool:
        return self.lower_bound_ok and self.monotone_ok and self.converged


def sandwich_report(spec: GameSpec, player_i, player_ii_sets, tol: float = 1e-9) -> SandwichReport:
    """Solve the restricted game at each refinement level and check the sandwich.

    `player_ii_sets` must be nested (each level a superset of the previous);
    then the value is non-increasing, stays above the theoretical value as
    long as player I's set contains an optimal (constant-row) strategy, and
    converges onto it once the finest set pins every other row down.
    """
    player_i = list(player_i)
    levels = []
    for states in player_ii_sets:
        if spec.kind == "estimation":
            game = discretize_estimation_game(spec.n, player_i, states)
        elif spec.kind == "cloning":
            game = discretize_cloning_game(spec.d, spec.n, spec.m, player_i, states)
        else:
            raise ValueError("sandwich_report supports estimation and cloning games")
        eq = solve(game, tol=min(tol, 1e-9))
        levels.append(SandwichLevel(len(states), eq.value, eq.exploitability))
    theory = spec.theoretical_value()
    lower = all(lv.value >= theory - tol for lv in levels)
    monotone = all(
        levels[i + 1].value <= levels[i].value + tol for i in range(len(levels) - 1)
    )
    converged = abs(levels[-1].value - theory) <= tol
    return SandwichReport(
        spec.kind, theory, tuple(levels), lower, monotone, converged, tol
    )


# ---------------------------------------------------------------------------
# perturbation evidence for the equilibrium claim

@dataclass(frozen=True)
class PerturbationReport:
    base_value: float
    n_perturbations: int
    max_value: float
    violations: int
    tol: float

    @property
    def passed(self) -> bool:
        return self.violations == 0


def _haar_value(strategy) -> float:
    if isinstance(strategy, Channel):
        return haar_avg_global_fidelity(strategy)
    if isinstance(strategy, Povm):
        return mean_fidelity(strategy)
    raise TypeError(f"unsupported strategy type {type(strategy).__name__}")


def perturb_best_response_check(base, perturbations, tol: float = 1e-9) -> PerturbationReport:
    """No perturbation's Haar-averaged payoff may beat the base strategy's."""
    base_value = _haar_value(base)
    max_value = -np.inf
    violations = 0
    count = 0
    for strategy in perturbations:
        value = _haar_value(strategy)
        max_value = max(max_value, value)
        if value > base_value + tol:
            violations += 1
        count += 1
    if count == 0:
        raise ValueError("no perturbations supplied")
    return PerturbationReport(base_value, count, float(max_value), violations, tol)


def cloner_perturbations(ch: Channel, count: int, rng: RandomStream) -> list[Channel]:
    """Output-unitary kicks alternating with mixes toward symmetric noise."""
    noise = symmetric_noise_channel(ch.d, ch.n_in, ch.n_out)
    out = []
    for i in range(count):
        stream = rng.substream(i)
        if i % 2 == 0:
            u = haar_random_unitary(ch.dim_out, stream)
            out.append(conjugate_output(ch, u))
        else:
            eps = 0.05 + 0.95 * stream.uniform()
            out.append(mixture_channel(ch, noise, eps))
    return out


def povm_perturbations(povm: Povm, count: int, rng: RandomStream) -> list[Povm]:
    """Misalign the guesses: per-guess unitary kicks and common rotations."""
    out = []
    for i in range(count):
        stream = rng.substream(i)
        if i % 2 == 0:
            guesses = [haar_random_unitary(2, stream.substream(r)) @ g
                       for r, g in enumerate(povm.guesses)]
        else:
            guesses = povm.guesses @ haar_random_unitary(2, stream).T
        out.append(Povm(povm.n, povm.effects, guesses))
    return out


# ---------------------------------------------------------------------------
# Monte Carlo protocol play

@dataclass(frozen=True)
class MonteCarloRecord:
    """Empirical +-1 payoff of full protocol rounds.

    The referee passes with probability (1 + F)/2, so mean_payoff = 2p - 1
    estimates the mean fidelity F itself; pass_rate is the raw pass frequency
    (1 + mean_payoff)/2.
    """

    kind: str
    samples: int
    seed: int
    mean_payoff: float
    stderr_payoff: float
    pass_rate: float


def _unit_rows(vectors: np.ndarray) -> np.ndarray:
    """Rows normalised to unit length, with `PureState`'s 1e-12 norm check."""
    return _check_unit_rows(vectors / np.linalg.norm(vectors, axis=1, keepdims=True))


def _estimation_overlaps(povm: Povm, psi: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """|<psi|guess>|^2 for the outcome each round's uniform picks from the Born rule."""
    probs = _born_probabilities(povm, psi)
    draws = uniforms * probs.sum(axis=1)
    # the first outcome whose cumulative probability reaches the draw
    outcome = np.sum(np.cumsum(probs, axis=1) < draws[:, None], axis=1)
    outcome = np.minimum(outcome, len(povm.effects) - 1)
    return np.abs(np.sum(psi.conj() * povm.guesses[outcome], axis=1)) ** 2


def _check_strategy(spec: GameSpec, strategy) -> None:
    """Refuse a strategy built for another game than `spec` describes."""
    if spec.kind == "estimation":
        if not isinstance(strategy, Povm):
            raise TypeError(f"estimation is played with a Povm, got {type(strategy).__name__}")
        if strategy.n != spec.n:
            raise ShapeError(f"povm copy count {strategy.n} != spec n {spec.n}")
    else:
        if not isinstance(strategy, Channel):
            raise TypeError(f"{spec.kind} is played with a Channel, got {type(strategy).__name__}")
        arity = (strategy.d, strategy.n_in, strategy.n_out)
        if arity != (spec.d, spec.n, spec.m):
            raise ShapeError(f"channel arity {arity} != spec arity {(spec.d, spec.n, spec.m)}")


def _draw_chunk(kind: str, stream: RandomStream, d: int, n_out: int):
    """Seed scheme v2 draws of one draw chunk, every array DRAW_ROUNDS long.

    In protocol order: the Haar states' complex normals as a (DRAW_ROUNDS, d)
    array, then the estimation outcomes' uniforms or the one-particle clone
    indices (None for the global cloning game), then the referee's uniforms.
    """
    gen = stream.generator
    normals = stream.complex_normals(DRAW_ROUNDS * d).reshape(DRAW_ROUNDS, d)
    if kind == "estimation":
        middle = gen.random(DRAW_ROUNDS)
    elif kind == "one_particle":
        middle = gen.integers(1, n_out + 1, size=DRAW_ROUNDS)
    else:
        middle = None
    return normals, middle, gen.random(DRAW_ROUNDS)


def monte_carlo_play(spec: GameSpec, strategy, seed=None) -> MonteCarloRecord:
    """Play `spec.samples` protocol rounds against the SWAP-test referee.

    Draws follow seed scheme v2, the scheme the scan's random channels also
    use (`random_isometry_channel`).  Draw chunk c holds rounds
    c*DRAW_ROUNDS .. (c+1)*DRAW_ROUNDS - 1 and draws all of them, whole arrays
    at a time, from the one substream `RandomStream(seed).substream(c)`, in
    protocol order: the Haar states' complex normals, then the estimation
    outcomes' uniforms or the one-particle clone indices, then the referee's
    uniforms (`_draw_chunk`).  A final partial chunk uses its first rows only,
    so round i depends on (seed, i) alone and the record of N rounds is the
    prefix of the record of any longer play.  `haar_states`,
    `cloner_perturbations` and `povm_perturbations` keep one substream per item.

    Each draw chunk is evaluated in memory chunks with array operations:
    CHUNK_ROUNDS rounds, or fewer where one round's widest row is so wide that
    a chunk's rows would pass CHUNK_BYTES.  Memory chunks subdivide a draw
    chunk and only bound the working memory, so the record depends on the seed
    and not on the chunk length.  The size cap counts that widest row: the
    Povm's outcome count or its n + 1 coordinates, or the channel's Kraus rows
    or columns.
    """
    if spec.samples < 1:
        raise ValueError("samples must be >= 1")
    _check_strategy(spec, strategy)
    if spec.kind == "estimation":
        d, width = 2, max(len(strategy.effects), strategy.n + 1)
    else:
        d, width = strategy.d, _row_width(strategy)
    check_size_cap(width)
    seed = spec.seed if seed is None else int(seed)
    root = RandomStream(seed)
    chunk = _chunk_length(width)
    full, rest = divmod(spec.samples, DRAW_ROUNDS)
    draw_chunks = full + (rest > 0)
    memory_chunks = full * -(-DRAW_ROUNDS // chunk) + -(-rest // chunk)
    _log.debug(
        "monte_carlo_play %s d=%d n=%d m=%d: %d rounds in %d chunks of %d; "
        "seed scheme v2, %d draw chunks of %d",
        spec.kind, spec.d, spec.n, spec.m, spec.samples, memory_chunks, chunk,
        draw_chunks, DRAW_ROUNDS,
    )
    total = 0
    for c in range(draw_chunks):
        normals, middle, referee = _draw_chunk(spec.kind, root.substream(c), d, spec.m)
        rounds = min(DRAW_ROUNDS, spec.samples - c * DRAW_ROUNDS)
        psi = _unit_rows(normals[:rounds])
        for start in range(0, rounds, chunk):
            rows = slice(start, min(start + chunk, rounds))
            if spec.kind == "estimation":
                overlaps = _estimation_overlaps(strategy, psi[rows], middle[rows])
            elif spec.kind == "cloning":
                overlaps = _global_overlaps(strategy, psi[rows])
            else:
                overlaps = _one_particle_overlaps(strategy, psi[rows], middle[rows])
            total += int(np.sum(referee_outcomes(overlaps, referee[rows])))
    mean = total / spec.samples
    # outcomes are +-1, so the sample variance is exactly 1 - mean^2
    stderr = math.sqrt(max(0.0, 1.0 - mean * mean) / spec.samples)
    return MonteCarloRecord(spec.kind, spec.samples, seed, mean, stderr, 0.5 * (1.0 + mean))


# ---------------------------------------------------------------------------
# asymmetric-cloning bound scan

@dataclass(frozen=True)
class ScanRecord:
    kind: str  # "random" | "grid" | "optimal"
    label: str
    fidelities: tuple
    sum_fidelity: float


@dataclass(frozen=True)
class ScanReport:
    max_sum_fidelity: float
    bound: float
    argmax: str
    records: tuple
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_sum_fidelity <= self.bound + self.tol


def _scan_channel(ch: Channel, kind: str, label: str) -> ScanRecord:
    if ch.completeness_defect() > 1e-8:
        raise ValueError(f"channel {label} is not trace preserving; refusing to scan")
    fids = tuple(single_clone_haar_fidelity(ch, k) for k in range(1, ch.n_out + 1))
    return ScanRecord(kind, label, fids, float(sum(fids)))


def asymmetry_grid_channels(d: int, grid_points: int) -> list[tuple[float, Channel]]:
    """Path from (input, noise) through the optimal 1->2 cloner to (noise, input).

    Two convex legs: t in [0, 1/2] mixes the keep-the-first embedding into the
    optimal cloner, t in [1/2, 1] mixes the optimal cloner into the mirrored
    embedding.  Every point is a valid channel and t = 1/2 is exactly optimal.
    """
    first = product_embedding_channel(d, 1, 2)
    mirror = mirror_embedding_channel(d, 1, 2)
    best = optimal_cloner(d, 1, 2)
    out = []
    for t in np.linspace(0.0, 1.0, grid_points):
        t = float(t)
        if t <= 0.5:
            out.append((t, mixture_channel(first, best, 2.0 * t)))
        else:
            out.append((t, mixture_channel(best, mirror, 2.0 * (t - 0.5))))
    return out


def asym_bound_scan(
    d: int,
    n_in: int,
    n_out: int,
    n_random: int,
    grid_points: int = 21,
    seed: int = 0,
    ancilla_dim=None,
    tol: float = 1e-9,
) -> ScanReport:
    """Brute-force search for a violation of the fidelity-sum ceiling.

    Scans Haar-random isometry channels plus (for 1 -> 2) the asymmetry grid
    and the optimal cloner itself, which attains the bound exactly.  The
    random channels' Ginibre side d^n_out * ancilla_dim is checked against the
    size cap before the first channel is built.
    """
    anc = d**n_out if ancilla_dim is None else int(ancilla_dim)
    check_size_cap(d**n_out * anc)
    bound = value_formulas(d, n_in, n_out).asym_bound
    n_grid = grid_points if (n_in, n_out) == (1, 2) and grid_points > 0 else 0
    _log.debug(
        "asym_bound_scan d=%d n_in=%d n_out=%d: %d random channels (%d Kraus operators), "
        "%d grid channels, Choi side %d",
        d, n_in, n_out, n_random, anc, n_grid, dim_sym(d, n_in) * d**n_out,
    )
    root = RandomStream(seed)
    records = [_scan_channel(optimal_cloner(d, n_in, n_out), "optimal", "optimal-cloner")]
    for i in range(n_random):
        ch = random_isometry_channel(d, n_in, n_out, root.substream(i), ancilla_dim)
        records.append(_scan_channel(ch, "random", f"random-{i}"))
    if n_grid:
        for t, ch in asymmetry_grid_channels(d, n_grid):
            records.append(_scan_channel(ch, "grid", f"grid-t={t:.6f}"))
    best = max(records, key=lambda r: r.sum_fidelity)
    return ScanReport(best.sum_fidelity, bound, best.label, tuple(records), tol)
