import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import qgames.core
from qgames.core import RandomStream, SizeCapExceeded, haar_random_state, tensor_power
from qgames.symmetric import (
    coherent_coordinates,
    dim_sym,
    occupations,
    sym_isometry,
    sym_projector,
)
from dense_oracle import SymBasis, transposition_operator

# keep property sweeps below this total dimension so the suite stays quick
CASES = [(d, n) for d in (2, 3, 4) for n in range(1, 7) if d**n <= 1024]


@pytest.mark.parametrize(
    "d, n, expected", [(2, 1, 2), (2, 2, 3), (3, 2, 6), (2, 0, 1), (4, 3, 20)]
)
def test_dim_sym_values(d, n, expected):
    assert dim_sym(d, n) == expected


@given(st.integers(1, 6), st.integers(0, 8))
def test_dim_sym_pascal_recurrence(d, n):
    # stars-and-bars recurrence: adding one level splits by its occupation
    if d > 1:
        assert dim_sym(d, n) == sum(dim_sym(d - 1, n - k) for k in range(n + 1))
    assert dim_sym(1, n) == 1


def test_occupation_order_descending_lex():
    occs = occupations(3, 2)
    assert occs[0] == (2, 0, 0)
    assert occs == sorted(occs, reverse=True)
    assert len(occs) == dim_sym(3, 2)


@pytest.mark.parametrize("d, n", CASES)
def test_isometry_orthonormal_and_projector(d, n):
    iso = sym_isometry(d, n)
    assert iso.shape == (d**n, dim_sym(d, n))
    assert np.max(np.abs(iso.conj().T @ iso - np.eye(dim_sym(d, n)))) <= 1e-12
    proj = sym_projector(d, n)
    assert np.max(np.abs(iso @ iso.conj().T - proj)) <= 1e-12


@pytest.mark.parametrize("d, n", CASES)
def test_projector_idempotent_hermitian_trace(d, n):
    proj = sym_projector(d, n)
    assert np.max(np.abs(proj @ proj - proj)) <= 1e-12
    assert np.max(np.abs(proj - proj.conj().T)) <= 1e-12
    assert round(np.trace(proj).real) == dim_sym(d, n)
    assert abs(np.trace(proj).real - dim_sym(d, n)) <= 1e-9


def test_single_copy_projector_is_identity():
    assert np.allclose(sym_projector(2, 1), np.eye(2))


def test_two_qubit_projector_annihilates_singlet():
    proj = sym_projector(2, 2)
    assert round(np.trace(proj).real) == 3
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
    assert np.linalg.norm(proj @ singlet) <= 1e-12


def test_projector_fixes_product_states():
    stream = RandomStream(31)
    for d, n in [(2, 3), (3, 2), (2, 5)]:
        proj = sym_projector(d, n)
        for i in range(50):
            psi = haar_random_state(d, stream.substream(1000 * d + i))
            v = tensor_power(psi, n).amplitudes
            assert np.max(np.abs(proj @ v - v)) <= 1e-12


@pytest.mark.parametrize("d, n", [(2, 2), (2, 4), (3, 3), (4, 2)])
def test_projector_commutes_with_transpositions(d, n):
    proj = sym_projector(d, n)
    for i in range(n):
        for j in range(i + 1, n):
            swap = transposition_operator(d, n, i, j)
            assert np.max(np.abs(swap @ proj - proj @ swap)) <= 1e-12
            # the columns span the fixed space: swap acts trivially on them
            assert np.max(np.abs(swap @ proj - proj)) <= 1e-12


def haar_moment(d, n):
    """The n-th Haar moment: the symmetric projector over its rank."""
    return sym_projector(d, n) / dim_sym(d, n)


def test_haar_moment_values():
    assert np.allclose(haar_moment(2, 1), np.eye(2) / 2.0)
    assert np.allclose(haar_moment(2, 2), sym_projector(2, 2) / 3.0)
    assert abs(np.trace(haar_moment(3, 2)).real - 1.0) <= 1e-12
    assert np.linalg.eigvalsh(haar_moment(2, 3)).min() >= -1e-12


def test_size_cap_respected(monkeypatch):
    with pytest.raises(SizeCapExceeded):
        sym_projector(2, 13)
    monkeypatch.setattr(qgames.core, "DEFAULT_SIZE_CAP", 255)
    with pytest.raises(SizeCapExceeded):
        sym_isometry(4, 4)


def test_sym_basis_compress_embed_roundtrip():
    basis = SymBasis(2, 3)
    stream = RandomStream(77)
    psi = haar_random_state(2, stream)
    full = tensor_power(psi, 3).amplitudes
    compressed = basis.compress(full)
    assert abs(np.linalg.norm(compressed) - 1.0) <= 1e-12  # product states are symmetric
    assert np.max(np.abs(basis.embed(compressed) - full)) <= 1e-12


@pytest.mark.parametrize("d, n", [(1, 3), (2, 1), (2, 5), (3, 3), (4, 2), (5, 4)])
def test_coherent_coordinates_compress_the_tensor_power(d, n):
    basis = SymBasis(d, n)
    stream = RandomStream(78)
    states = [haar_random_state(d, stream.substream(10 * d + i)) for i in range(5)]
    rows = coherent_coordinates(np.stack([psi.amplitudes for psi in states]), n)
    assert rows.shape == (5, dim_sym(d, n))
    for psi, row in zip(states, rows):
        want = basis.compress(tensor_power(psi, n).amplitudes)
        assert np.max(np.abs(row - want)) <= 1e-12
        assert np.max(np.abs(coherent_coordinates(psi.amplitudes, n) - row)) == 0.0


def _integer_power_coordinates(amplitudes, n):
    """sqrt(multinom(k)) prod_i psi_i^{k_i} from numpy's complex integer powers, level by level."""
    occs = np.array(occupations(amplitudes.shape[-1], n)).reshape(-1, amplitudes.shape[-1])
    roots = np.array([math.sqrt(math.factorial(n) / math.prod(map(math.factorial, occ)))
                      for occ in occs])
    out = roots * amplitudes[..., :1] ** occs[:, 0]
    for i in range(1, occs.shape[1]):
        out *= amplitudes[..., i:i + 1] ** occs[:, i]
    return out


def _awkward_amplitudes(d):
    """Two batches of 20 states at dimension d, with zero, real and -0 amplitudes among them."""
    psi = RandomStream(79).complex_normals(40 * d).reshape(2, 20, d)
    psi[0, 0, 0] = 0.0
    psi[0, 1] = psi[0, 1].real
    psi[1, 0, -1] = -0.0 + 0.5j
    return psi


@pytest.mark.parametrize("d, top", [(1, 12), (2, 99), (3, 12), (4, 8), (5, 5)])
def test_coherent_coordinates_keep_the_integer_power_bits(monkeypatch, d, top):
    # the power table takes its entries from numpy's own integer-power loop,
    # which multiplies repeatedly up to exponent 99, so the coordinates match
    # `**` bit for bit, zero amplitudes and real ones included, and come out
    # C-contiguous as it does; n = 0 and n = 1 fill the table without any
    # `np.power` call, for a batch and for one state alike
    batch = _awkward_amplitudes(d)
    powers = []
    real = np.power

    def spy(*args, **kwargs):
        powers.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "power", spy)
    for n in range(top + 1):
        for psi in (batch, batch[0, 1]):
            powers.clear()
            got = coherent_coordinates(psi, n)
            want = _integer_power_coordinates(psi, n)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.flags.c_contiguous
            assert np.array_equal(got, want), n
            assert len(powers) == (n >= 2), n


@pytest.mark.parametrize("n", [100, 128, 300])
def test_coherent_coordinates_past_the_integer_power_loop(n):
    # from exponent 100 numpy's power hands over to cpow, whose rounding the
    # per-level `**` formula need not share bit for bit
    psi = _awkward_amplitudes(2)
    got = coherent_coordinates(psi, n)
    want = _integer_power_coordinates(psi, n)
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))
