import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mpemba as mp
from mpemba.errors import ValidationError
from mpemba.operators import require_state
from mpemba.utils import SIGMA_X, kron_chain

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


@pytest.mark.parametrize("call, message", [
    (lambda: mp.HermitianOperator(np.zeros((2, 3))), "square matrix"),
    (lambda: mp.DensityMatrix(np.zeros((2, 3))), "square matrix"),
    (lambda: mp.SpectralBasis([0.0, 1.0], np.eye(3)), "inconsistent shapes"),
    (lambda: mp.SpectralBasis([1.0, 0.0], np.eye(2)), "sorted ascending"),
    (lambda: mp.SpectralBasis([0.0, 1.0], 2.0 * np.eye(2)), "not unitary"),
    (lambda: require_state(1e-3, 1.0, lambda: 0.0), "not Hermitian"),
    (lambda: require_state(0.0, 1.5, lambda: 0.0), "trace is 1.5"),
    (lambda: mp.BlochVector([0.0, 0.0]), "exactly 3 components"),
    (lambda: mp.random_pure_state(1, seed=0), "dim must be at least 2"),
    (lambda: mp.random_mixed_state(1, 4, seed=0), "dim must be at least 2"),
    (lambda: mp.random_mixed_state(2, 0, seed=0), "n_samples must be at least 1"),
    (lambda: mp.dephase(mp.random_pure_state(4, seed=0), mp.single_qubit().basis()),
     "dimensions differ"),
], ids=[
    "hermitian_not_square", "density_not_square", "basis_shapes", "basis_unsorted",
    "basis_not_unitary", "state_not_hermitian", "state_trace", "bloch_length",
    "pure_dim", "mixed_dim", "mixed_samples", "dephase_dimensions",
])
def test_input_checks_raise(call, message):
    with pytest.raises(ValidationError, match=message):
        call()
