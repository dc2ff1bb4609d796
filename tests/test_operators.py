import dataclasses
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mpemba as mp
from mpemba.cli import _initial_state
from mpemba.config import parse_config
from mpemba.errors import ConfigError, ValidationError
from mpemba.operators import require_state
from mpemba.utils import (
    SIGMA_X,
    chunk_slices,
    diagonal_stack,
    eigvalsh_diagonal,
    eigvalsh_stack,
    hermitize,
    kron_chain,
)

from conftest import DEMO_BLOCH, DEMO_RADIUS


def build_tfim_oracle(length, coupling, field):
    """Independent brute-force TFIM matrix: explicit index loops, no kron."""
    dim = 2**length
    h = np.zeros((dim, dim), dtype=complex)
    for s in range(dim):
        bits = [(s >> (length - 1 - j)) & 1 for j in range(length)]
        for j in range(length - 1):
            zz = (1 - 2 * bits[j]) * (1 - 2 * bits[j + 1])
            h[s, s] += -coupling * zz
        for j in range(length):
            flipped = s ^ (1 << (length - 1 - j))
            h[s, flipped] += field
    return h


class TestDiagonalize:
    def test_already_diagonal(self):
        basis = mp.diagonalize(np.diag([-2.5, 2.5]).astype(complex))
        np.testing.assert_allclose(basis.energies, [-2.5, 2.5])
        np.testing.assert_allclose(basis.vectors, np.eye(2), atol=1e-14)

    def test_sigma_x_spectrum(self):
        basis = mp.diagonalize(1.0 * SIGMA_X)
        np.testing.assert_allclose(basis.energies, [-1.0, 1.0], atol=1e-14)

    def test_tfim_l3_against_bruteforce(self):
        h = build_tfim_oracle(3, 1.0, 0.5)
        expected = np.sort(np.linalg.eigvalsh(h))
        basis = mp.diagonalize(h)
        np.testing.assert_allclose(basis.energies, expected, atol=1e-10)
        model = mp.tfim(length=3, h_field=0.5)
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(model.hamiltonian.entries)), expected, atol=1e-10
        )

    def test_reconstruction(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        h = 0.5 * (m + m.conj().T)
        basis = mp.diagonalize(h)
        np.testing.assert_allclose(basis.hamiltonian(), h, atol=1e-10)

    def test_phase_convention(self):
        basis = mp.diagonalize(2.0 * SIGMA_X)
        for k in range(2):
            col = basis.vectors[:, k]
            pivot = col[np.argmax(np.abs(col))]
            assert abs(pivot.imag) < 1e-14 and pivot.real > 0

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            mp.diagonalize(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestThermalState:
    def test_infinite_temperature(self, qubit_model):
        tau = mp.thermal_state(qubit_model.basis(), 0.0)
        np.testing.assert_allclose(tau.entries, np.eye(2) / 2, atol=1e-14)

    def test_zero_temperature_flag(self, qubit_model):
        basis = qubit_model.basis()
        tau = mp.thermal_state(basis, np.inf)
        ground = basis.vectors[:, 0]
        np.testing.assert_allclose(tau.entries, np.outer(ground, ground.conj()), atol=1e-14)

    def test_qubit_excited_population(self, qubit_model):
        tau = mp.thermal_state(qubit_model.basis(), 0.1)
        # excited level of H = 2.5 sigma_z is |0>
        assert tau.entries[0, 0].real == pytest.approx(0.3775406687981454, abs=1e-12)

    def test_commutes_with_hamiltonian(self, tfim3_model):
        basis = tfim3_model.basis()
        h = basis.hamiltonian()
        tau = mp.thermal_state(basis, 2.0)
        comm = h @ tau.entries - tau.entries @ h
        assert np.abs(comm).max() < 1e-12

    def test_negative_beta_rejected(self, qubit_model):
        with pytest.raises(ValidationError):
            mp.thermal_state(qubit_model.basis(), -1.0)

    def test_zero_temperature_degenerate_ground_rejected(self):
        # h = 0 leaves the two ferromagnetic ground states degenerate
        with pytest.raises(ValidationError, match="degenerate ground level"):
            mp.thermal_state(mp.tfim(length=3, h_field=0.0).basis(), np.inf)


class TestRandomStates:
    def test_pure_state_is_projector(self):
        rho = mp.random_pure_state(5, seed=7)
        assert rho.purity() == pytest.approx(1.0, abs=1e-12)
        assert np.trace(rho.entries).real == pytest.approx(1.0, abs=1e-12)

    def test_determinism(self):
        a = mp.random_pure_state(4, seed=3)
        b = mp.random_pure_state(4, seed=3)
        np.testing.assert_array_equal(a.entries, b.entries)

    def test_haar_mean_is_maximally_mixed(self):
        # Monte-Carlo oracle: the Haar average of |v><v| is I/d
        mean = mp.random_mixed_state(4, 100_000, seed=1)
        assert np.abs(mean.entries - np.eye(4) / 4).max() < 5e-3

    def test_single_sample_is_pure(self):
        rho = mp.random_mixed_state(6, 1, seed=2)
        assert rho.purity() == pytest.approx(1.0, abs=1e-12)

    def test_large_average_spread(self):
        rho = mp.random_mixed_state(32, 1000, seed=9)
        eigs = np.linalg.eigvalsh(rho.entries)
        assert 0.0 < eigs.min() and eigs.max() < 1.0
        assert np.trace(rho.entries).real == pytest.approx(1.0, abs=1e-12)


class TestBloch:
    def test_north_pole(self):
        rho = mp.bloch_to_state([0.0, 0.0, 1.0])
        np.testing.assert_allclose(rho.entries, np.diag([1.0, 0.0]), atol=1e-14)

    def test_center(self):
        rho = mp.bloch_to_state([0.0, 0.0, 0.0])
        np.testing.assert_allclose(rho.entries, np.eye(2) / 2, atol=1e-14)

    def test_demo_state_eigenvalues(self):
        rho = mp.bloch_to_state(list(DEMO_BLOCH))
        expected = np.sort([(1 - DEMO_RADIUS) / 2, (1 + DEMO_RADIUS) / 2])
        np.testing.assert_allclose(np.linalg.eigvalsh(rho.entries), expected, atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
    def test_round_trip(self, r):
        r = np.asarray(r)
        norm = np.linalg.norm(r)
        if norm > 1.0:
            r = r / norm
        back = mp.state_to_bloch(mp.bloch_to_state(r))
        np.testing.assert_allclose(back.r, r, atol=1e-12)

    def test_round_trip_bulk(self):
        rng = np.random.default_rng(77)
        for _ in range(1000):
            r = rng.normal(size=3)
            r *= rng.uniform(0.0, 1.0) / np.linalg.norm(r)
            back = mp.state_to_bloch(mp.bloch_to_state(r))
            assert np.abs(back.r - r).max() <= 1e-12

    def test_overlong_vector_rejected(self):
        with pytest.raises(ValidationError):
            mp.bloch_to_state([1.0, 1.0, 1.0])

    def test_wrong_dimension_rejected(self):
        rho = mp.random_pure_state(4, seed=0)
        with pytest.raises(ValidationError):
            mp.state_to_bloch(rho)


class TestDephase:
    def test_diagonal_fixed_point(self, qubit_model):
        basis = qubit_model.basis()
        tau = mp.thermal_state(basis, 0.1)
        np.testing.assert_allclose(mp.dephase(tau, basis).entries, tau.entries, atol=1e-14)

    def test_pure_coherence_removed(self, qubit_model):
        rho = mp.bloch_to_state([1.0, 0.0, 0.0])
        out = mp.dephase(rho, qubit_model.basis())
        np.testing.assert_allclose(out.entries, np.eye(2) / 2, atol=1e-12)

    def test_idempotent_and_trace_preserving(self, tfim3_model):
        basis = tfim3_model.basis()
        rho = mp.random_mixed_state(8, 3, seed=4)
        once = mp.dephase(rho, basis)
        twice = mp.dephase(once, basis)
        np.testing.assert_allclose(once.entries, twice.entries, atol=1e-13)
        assert np.trace(once.entries).real == pytest.approx(1.0, abs=1e-12)


class TestKronChain:
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_bit_identical_to_np_kron(self, dtype):
        rng = np.random.default_rng(17)
        for n_factors in range(1, 7):
            factors = []
            for _ in range(n_factors):
                shape = tuple(rng.integers(1, 4, size=2))
                f = rng.normal(size=shape)
                if dtype is complex:
                    f = f + 1j * rng.normal(size=shape)
                factors.append(f)
            expected = np.eye(1, dtype=complex)
            for f in factors:
                expected = np.kron(expected, f)
            out = kron_chain(factors)
            assert out.dtype == expected.dtype
            assert np.array_equal(out, expected)


def _diagonal_stack(d, rng):
    """Diagonal (6, d, d) stacks: ties, zeros, negative entries (a state minus
    the Gibbs state) and magnitudes from 1e-300 to 1e2 inside one matrix."""
    rows = np.stack([
        rng.integers(-2, 3, size=d) * 0.25,
        np.zeros(d),
        rng.permutation(np.geomspace(1e2, 1e-300, d) * rng.choice([-1.0, 1.0], size=d)),
        rng.dirichlet(np.ones(d)) - rng.dirichlet(np.ones(d)),
        np.repeat(rng.normal(size=(d + 1) // 2), 2)[:d],
        rng.normal(size=d) * 10.0 ** np.r_[0.0, rng.uniform(-300, 2, size=d - 1)],
    ])
    stack = np.zeros((6, d, d), dtype=complex)
    stack[:, np.arange(d), np.arange(d)] = rows
    return stack


class TestEigvalshStack:
    """eigvalsh_stack gives np.linalg.eigvalsh's bits, with no solve for a diagonal stack."""

    @pytest.mark.parametrize("d", [1, 2, 3, 8, 32, 64])
    def test_diagonal_stack_is_its_sorted_diagonal(self, d, monkeypatch):
        stack = _diagonal_stack(d, np.random.default_rng(d))
        want = np.array([np.linalg.eigvalsh(m) for m in stack])
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda *_: pytest.fail("an eigen-solve was made"))
        assert np.array_equal(eigvalsh_stack(stack), want)

    def test_a_matrix_lapack_rescales_is_solved(self, monkeypatch):
        # zheevd scales a matrix whose largest entry is below 2^-485 or above 2^485
        stack = np.stack([np.diag([3e-300, -1e-200, 0.0]), np.diag([1e200, 3.0, -7e199])]).astype(complex)
        solves, eigvalsh = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: solves.append(1) or eigvalsh(a))
        for m in stack:
            assert np.array_equal(eigvalsh_stack(m[None]), eigvalsh(m[None]))
        assert len(solves) == 2

    @pytest.mark.parametrize("d", [2, 8, 32])
    def test_mixed_stack_gives_each_matrix_its_bits_at_every_chunk_length(self, d):
        rng = np.random.default_rng(100 + d)
        dense = rng.normal(size=(6, d, d)) + 1j * rng.normal(size=(6, d, d))
        stack = np.concatenate([_diagonal_stack(d, rng), hermitize(dense)])[rng.permutation(12)]
        want = np.array([np.linalg.eigvalsh(m) for m in stack])
        for size in range(1, stack.shape[0] + 1):
            got = np.concatenate([eigvalsh_stack(stack[s]) for s in chunk_slices(stack.shape[0], size)])
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_any_one_coherence_is_solved(self, d, monkeypatch):
        # the test for coherence reads every off-diagonal entry, in any row and column
        solves, eigvalsh = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: solves.append(1) or eigvalsh(a))
        pairs = [(n, m) for n in range(d) for m in range(d) if n != m]
        for n, m in pairs:
            stack = np.repeat(np.diag(np.arange(1.0, d + 1)).astype(complex)[None], 3, axis=0)
            stack[1, n, m] = 1e-300j
            assert np.array_equal(eigvalsh_stack(stack), eigvalsh(stack))
        assert len(solves) == len(pairs)


class TestEigvalshDiagonal:
    """eigvalsh_diagonal gives np.linalg.eigvalsh's bits for the diagonal matrices of its rows."""

    @pytest.mark.parametrize("d", [1, 2, 8, 32])
    def test_each_finite_row_has_the_bits_of_its_matrix(self, d, monkeypatch):
        stack = _diagonal_stack(d, np.random.default_rng(d))
        rows = np.real(np.diagonal(stack, axis1=1, axis2=2)).copy()
        if d > 1:  # one row LAPACK rescales, below 2^-485
            rows[0] = 1e-300 * np.arange(d)
        want = np.array([np.linalg.eigvalsh(m) for m in diagonal_stack(rows)])
        solves, eigvalsh = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: solves.append(len(a)) or eigvalsh(a))
        assert np.array_equal(eigvalsh_diagonal(rows), want)
        assert solves == ([1] if d > 1 else [])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_row_keeps_its_sort(self, bad):
        # LAPACK fails to converge on such a diagonal matrix from d = 4
        rows = np.full((3, 8), 1.0 / 8)
        rows[1, 3] = bad
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.eigvalsh(diagonal_stack(rows))
        got = eigvalsh_diagonal(rows)
        assert np.array_equal(got[1], np.sort(rows[1]), equal_nan=True)
        assert np.array_equal(got[[0, 2]], rows[[0, 2]])


@pytest.mark.parametrize("shape", [(2, 2), (7, 3, 3), (16, 32, 32)])
def test_hermitize_into_out_gives_the_same_bits(shape):
    rng = np.random.default_rng(len(shape))
    m = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    m[..., 0, 0] = -0.0  # signed zeros too
    out = np.empty_like(m)
    assert hermitize(m, out=out) is out
    want = hermitize(m)
    assert np.array_equal(out.view(float), want.view(float))
    assert np.array_equal(np.signbit(out.view(float)), np.signbit(want.view(float)))


@pytest.mark.parametrize("call, message", [
    (lambda: mp.HermitianOperator(np.zeros((2, 3))), "square matrix"),
    (lambda: mp.DensityMatrix(np.zeros((2, 3))), "square matrix"),
    (lambda: mp.SpectralBasis([0.0, 1.0], np.eye(3)), "inconsistent shapes"),
    (lambda: mp.SpectralBasis([1.0, 0.0], np.eye(2)), "sorted ascending"),
    (lambda: mp.SpectralBasis([0.0, 1.0], 2.0 * np.eye(2)), "not unitary"),
    (lambda: require_state(1e-3, 1.0, 0.0), "not Hermitian"),
    (lambda: require_state(0.0, 1.5, 0.0), "trace is 1.5"),
    (lambda: require_state(np.nan, 1.0, 0.0), "not Hermitian"),
    (lambda: require_state(0.0, complex(np.nan), 0.0), "trace is nan"),
    (lambda: require_state(0.0, 1.0, np.nan), "negative eigenvalue nan"),
    (lambda: mp.DensityMatrix([[0.5, np.nan], [np.nan, 0.5]]), "non-finite"),
    (lambda: mp.BlochVector([0.0, 0.0]), "exactly 3 components"),
    (lambda: mp.random_pure_state(1, seed=0), "dim must be at least 2"),
    (lambda: mp.random_mixed_state(1, 4, seed=0), "dim must be at least 2"),
    (lambda: mp.random_mixed_state(2, 0, seed=0), "n_samples must be at least 1"),
    (lambda: mp.dephase(mp.random_pure_state(4, seed=0), mp.single_qubit().basis()),
     "dimensions differ"),
], ids=[
    "hermitian_not_square", "density_not_square", "basis_shapes", "basis_unsorted",
    "basis_not_unitary", "state_not_hermitian", "state_trace", "state_nan_defect",
    "state_nan_trace", "state_nan_eigenvalue", "density_nan", "bloch_length",
    "pure_dim", "mixed_dim", "mixed_samples", "dephase_dimensions",
])
def test_input_checks_raise(call, message):
    with pytest.raises(ValidationError, match=message):
        call()


# ---------------------------------------------------------------------------
# the entry rule: every public function that takes a state judges it by as_state
# ---------------------------------------------------------------------------

_QUBIT = mp.single_qubit()
_QUBIT_BASIS = _QUBIT.basis()
_QUBIT_GEN = mp.build_generator(_QUBIT, dense=True)
_QUBIT_SPEC = mp.decompose(_QUBIT_GEN)
_TAU = mp.thermal_state(_QUBIT_BASIS, _QUBIT.bath.beta)
_TIMES = np.linspace(0.0, 1.0, 5)
_SEARCH = mp.MetropolisConfig(
    cooling_tau=0.99, threshold_eps=1e-9, target_modes=(2, 3), seed=3,
    nano_n=4, micro_m=2, macro_big_m=1,
)


def _from_file(state, tmp_path):
    """The ``file`` branch of the CLI's initial state, its ValidationError unwrapped."""
    path = tmp_path / "state.npy"
    np.save(path, state.entries if isinstance(state, mp.DensityMatrix) else state)
    cfg = parse_config({
        "model": {"name": "single_qubit", "omega": 5.0},
        "bath": {"temperature": 10.0, "gamma": 1.0},
        "initial_state": {"kind": "file", "path": str(path)},
        "transform": {"kind": "none"},
        "time_grid": {"t_max": 1.0, "n_points": 5},
        "outputs": {"directory": str(tmp_path)},
    })
    try:
        return _initial_state(cfg, cfg.build_model(), types.SimpleNamespace(seed=None))
    except ConfigError as exc:
        assert isinstance(exc.__cause__, ValidationError)
        raise exc.__cause__


_ENTRY_POINTS = {
    "noneq_free_energy": lambda s, _: mp.noneq_free_energy(s, _QUBIT_BASIS.hamiltonian(), 0.5),
    "relative_entropy[rho]": lambda s, _: mp.relative_entropy(s, _TAU),
    "relative_entropy[sigma]": lambda s, _: mp.relative_entropy(_TAU, s),
    "entropy_split": lambda s, _: mp.entropy_split(
        s, mp.thermal_populations(_QUBIT_BASIS, 0.5), _QUBIT_BASIS),
    "l1_elementwise[rho]": lambda s, _: mp.l1_elementwise(s, _TAU, _QUBIT_BASIS),
    "l1_elementwise[tau]": lambda s, _: mp.l1_elementwise(_TAU, s, _QUBIT_BASIS),
    "trace_distance[rho]": lambda s, _: mp.trace_distance(s, _TAU),
    "trace_distance[sigma]": lambda s, _: mp.trace_distance(_TAU, s),
    "exact_transform": lambda s, _: mp.exact_transform(s, _QUBIT_BASIS),
    "majorization_check": lambda s, _: mp.majorization_check(s, _QUBIT_BASIS, 0.5, 3, seed=0),
    "dephase": lambda s, _: mp.dephase(s, _QUBIT_BASIS),
    "state_to_bloch": lambda s, _: mp.state_to_bloch(s),
    "project_physical": lambda s, _: _QUBIT_SPEC.project_physical(s),
    "evolve_spectral": lambda s, _: mp.evolve_spectral(_QUBIT_SPEC, s, _TIMES),
    "evolve_direct": lambda s, _: mp.evolve_direct(_QUBIT_GEN, s, _TIMES),
    "unitary_metropolis": lambda s, _: mp.unitary_metropolis(_QUBIT_SPEC, s, _SEARCH),
    "cli_file_state": _from_file,
}

_NOT_STATES = {
    "trace_2": (np.eye(2), "trace is 2"),
    "wrong_dimension": (np.eye(4) / 4, "dimensions differ"),
    "nan": (np.array([[0.5, np.nan], [np.nan, 0.5]]), "non-finite"),
}


def _leaves(value):
    """A result as a flat list of arrays and scalars, for exact comparison."""
    if isinstance(value, (tuple, list)):
        return [leaf for item in value for leaf in _leaves(item)]
    if dataclasses.is_dataclass(value):
        return _leaves([getattr(value, f.name) for f in dataclasses.fields(value)])
    if isinstance(value, mp.DensityMatrix):
        return [value.entries, value.eigenvalues]
    if isinstance(value, mp.BlochVector):
        return [value.r]
    return [value]


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
@pytest.mark.parametrize("bad", sorted(_NOT_STATES))
def test_entry_rule_refuses_non_states(entry, bad, tmp_path):
    matrix, message = _NOT_STATES[bad]
    with pytest.raises(ValidationError, match=message):
        _ENTRY_POINTS[entry](matrix, tmp_path)


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_entry_rule_reads_an_array_as_its_state(entry, tmp_path):
    rho = mp.bloch_to_state(list(DEMO_BLOCH))
    from_array = _leaves(_ENTRY_POINTS[entry](np.array(rho.entries), tmp_path))
    from_state = _leaves(_ENTRY_POINTS[entry](rho, tmp_path))
    assert len(from_array) == len(from_state)
    for a, b in zip(from_array, from_state):
        assert np.array_equal(a, b)


class TestAsState:
    def test_state_returned_unchanged(self):
        rho = mp.random_mixed_state(4, 2, seed=1)
        assert mp.as_state(rho) is rho
        assert mp.as_state(rho, 4) is rho

    def test_dimension_checked_for_states_too(self):
        with pytest.raises(ValidationError, match="dimensions differ \\(4 vs 2\\)"):
            mp.as_state(mp.random_mixed_state(4, 2, seed=1), 2)

    @pytest.mark.parametrize("length", [None, 3, 5])
    def test_eigenvalues_are_eigvalsh_of_entries(self, length):
        d = 2 if length is None else 2**length
        for seed in range(3):
            m = np.array(mp.random_mixed_state(d, 3, seed=seed).entries)
            rho = mp.DensityMatrix(m)
            assert np.array_equal(rho.eigenvalues, np.linalg.eigvalsh(m))
            assert not rho.eigenvalues.flags.writeable
            assert np.all(np.diff(rho.eigenvalues) >= 0)
