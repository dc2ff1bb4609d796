import numpy as np
import pytest

import mpemba as mp
from mpemba.errors import ValidationError
from mpemba.transform import ELIMINATION_TOL

from conftest import DEMO_BLOCH, DEMO_RADIUS


class TestExactTransform:
    def test_demo_bloch_inversion(self, qubit_model):
        basis = qubit_model.basis()
        rho = mp.bloch_to_state(list(DEMO_BLOCH))
        rho_prime, u = mp.exact_transform(rho, basis)
        r_prime = mp.state_to_bloch(rho_prime).r
        np.testing.assert_allclose(r_prime, [0.0, 0.0, DEMO_RADIUS], atol=1e-12)
        assert np.abs(u @ u.conj().T - np.eye(2)).max() <= 1e-12
        np.testing.assert_allclose(
            u @ rho.entries @ u.conj().T, rho_prime.entries, atol=1e-12
        )

    def test_dimension_mismatch_rejected(self, qubit_model):
        with pytest.raises(ValidationError, match="dimensions differ"):
            mp.exact_transform(mp.random_mixed_state(4, 2, seed=0), qubit_model.basis())

    def test_spectrum_preserved(self, tfim3_model):
        basis = tfim3_model.basis()
        rho = mp.random_mixed_state(8, 5, seed=12)
        rho_prime, _ = mp.exact_transform(rho, basis)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(rho_prime.entries), np.linalg.eigvalsh(rho.entries), atol=1e-12
        )

    def test_populations_ascending_against_energies(self, tfim3_model):
        basis = tfim3_model.basis()
        rho = mp.random_mixed_state(8, 5, seed=12)
        rho_prime, _ = mp.exact_transform(rho, basis)
        pops = rho_prime.populations(basis)
        assert np.all(np.diff(pops) >= -1e-12)

    def test_thermal_becomes_inverted_gibbs(self, qubit_model):
        basis = qubit_model.basis()
        beta = qubit_model.bath.beta
        tau = mp.thermal_state(basis, beta)
        rho_prime, _ = mp.exact_transform(tau, basis)
        expected = np.sort(mp.thermal_populations(basis, beta))
        np.testing.assert_allclose(rho_prime.populations(basis), expected, atol=1e-12)
        h = basis.hamiltonian()
        gain = mp.noneq_free_energy(rho_prime, h, beta) - mp.noneq_free_energy(tau, h, beta)
        assert gain > 0.0

    def test_maximally_mixed_unchanged(self, qubit_model):
        basis = qubit_model.basis()
        rho = mp.DensityMatrix(np.eye(2) / 2)
        rho_prime, u = mp.exact_transform(rho, basis)
        np.testing.assert_allclose(rho_prime.entries, rho.entries, atol=1e-12)
        # U is unitary even in the fully degenerate case
        assert np.abs(u @ u.conj().T - np.eye(2)).max() <= 1e-12

    def test_free_energy_never_decreases(self, tfim3_model):
        basis = tfim3_model.basis()
        beta = tfim3_model.bath.beta
        h = basis.hamiltonian()
        for seed in range(10):
            rho = mp.random_mixed_state(8, 3, seed=seed)
            rho_prime, _ = mp.exact_transform(rho, basis)
            gain = mp.noneq_free_energy(rho_prime, h, beta) - mp.noneq_free_energy(rho, h, beta)
            assert gain >= -1e-10


class TestOverlapElimination:
    def test_qubit_demo_state(self, qubit_model, qubit_spec):
        basis = qubit_model.basis()
        rho = mp.bloch_to_state(list(DEMO_BLOCH))
        rho_prime, _ = mp.exact_transform(rho, basis)
        residuals = mp.verify_overlap_elimination(qubit_spec, rho_prime)
        assert set(residuals) == {2, 3}
        assert max(residuals.values()) <= ELIMINATION_TOL

    def test_tfim5_transformed_random_mixed(self):
        model = mp.tfim()
        spec = mp.decompose(mp.build_generator(model))
        basis = model.basis()
        rho = mp.random_mixed_state(32, 50, seed=3)
        rho_prime, _ = mp.exact_transform(rho, basis)
        residuals = mp.verify_overlap_elimination(spec, rho_prime)
        assert max(residuals.values()) <= 1e-10

    def test_untransformed_state_fails(self, qubit_spec):
        # negative control: the raw coherent state must keep visible overlap
        rho = mp.bloch_to_state(list(DEMO_BLOCH))
        residuals = mp.verify_overlap_elimination(qubit_spec, rho)
        assert max(residuals.values()) > 1e-3


class TestCrossingDetector:
    def _make_traj(self, times, values):
        n = len(times)
        z = np.zeros(n)
        return mp.ThermoTrajectory(
            times=times, f_neq=values, d_rel=z, p_classical=z, c_coherence=z,
            l1=z, t1=z, pi=np.zeros(n), beta=1.0, f_eq=0.0,
        )

    def test_synthetic_crossing_interpolated(self):
        times = np.linspace(0.0, 10.0, 101)
        a = np.exp(-0.5 * times)
        b = 2.0 * np.exp(-1.0 * times)  # crosses at t = ln(2)/0.5
        ta = self._make_traj(times, a)
        tb = self._make_traj(times, b)
        t_m = mp.detect_crossing(ta, tb)
        assert t_m == pytest.approx(np.log(2.0) / 0.5, abs=0.02)

    def test_identical_trajectories(self):
        times = np.linspace(0.0, 5.0, 50)
        values = np.exp(-times)
        assert mp.detect_crossing(self._make_traj(times, values), self._make_traj(times, values)) is None

    def test_wrong_initial_order_rejected(self):
        times = np.linspace(0.0, 5.0, 50)
        a = 2.0 * np.exp(-times)
        b = np.exp(-times)
        with pytest.raises(ValidationError):
            mp.detect_crossing(self._make_traj(times, a), self._make_traj(times, b))

    def test_mismatched_grids_rejected(self):
        ta = self._make_traj(np.linspace(0.0, 5.0, 50), np.ones(50))
        tb = self._make_traj(np.linspace(0.0, 6.0, 50), 2 * np.ones(50))
        with pytest.raises(ValidationError):
            mp.detect_crossing(ta, tb)

    def test_empty_trajectories_rejected(self):
        empty = self._make_traj(np.empty(0), np.empty(0))
        with pytest.raises(ValidationError, match="empty"):
            mp.detect_crossing(empty, empty)

    def test_qubit_demo_crossing_is_single(self, qubit_model, qubit_spec):
        basis = qubit_model.basis()
        beta = qubit_model.bath.beta
        rho = mp.bloch_to_state(list(DEMO_BLOCH))
        rho_prime, _ = mp.exact_transform(rho, basis)
        times = np.linspace(0.0, 4.0, 400)
        traj_a = mp.compute_trajectory(mp.evolve_spectral(qubit_spec, rho, times), basis, beta)
        traj_b = mp.compute_trajectory(mp.evolve_spectral(qubit_spec, rho_prime, times), basis, beta)
        t_m = mp.detect_crossing(traj_a, traj_b)
        assert t_m is not None and 0.0 < t_m < times[-1]
        diff = traj_b.f_neq - traj_a.f_neq
        meaningful = diff[np.abs(diff) > 1e-12]
        sign_changes = int(np.sum(np.diff(np.sign(meaningful)) != 0))
        assert sign_changes == 1


class TestMajorization:
    def test_identity_rotation_is_equality(self, qubit_model):
        basis = qubit_model.basis()
        beta = qubit_model.bath.beta
        rho = mp.bloch_to_state(list(DEMO_BLOCH))
        rho_prime, _ = mp.exact_transform(rho, basis)
        h = basis.hamiltonian()
        f = mp.noneq_free_energy(rho_prime, h, beta)
        assert mp.noneq_free_energy(rho_prime, h, beta) == pytest.approx(f, abs=1e-14)

    def test_qubit_monte_carlo(self, qubit_model):
        basis = qubit_model.basis()
        rho = mp.bloch_to_state(list(DEMO_BLOCH))
        rho_prime, _ = mp.exact_transform(rho, basis)
        report = mp.majorization_check(rho_prime, basis, qubit_model.bath.beta, 100, seed=5)
        assert report.all_passed
        assert report.max_free_energy_excess <= 1e-10

    def test_tfim3_monte_carlo(self, tfim3_model):
        basis = tfim3_model.basis()
        rho = mp.random_mixed_state(8, 10, seed=6)
        rho_prime, _ = mp.exact_transform(rho, basis)
        report = mp.majorization_check(rho_prime, basis, tfim3_model.bath.beta, 100, seed=7)
        assert report.all_passed
        assert report.majorization_failures == 0

    @pytest.mark.parametrize("n_samples", [0, -1])
    def test_fewer_than_one_sample_rejected(self, qubit_model, n_samples):
        basis = qubit_model.basis()
        with pytest.raises(ValidationError, match="n_random_unitaries"):
            mp.majorization_check(mp.thermal_state(basis, 1.0), basis, qubit_model.bath.beta,
                                  n_samples, seed=0)


class TestCertificate:
    def test_text_rendering(self):
        cert = mp.MpembaCertificate(
            status="ok", residual_overlaps={2: 1e-12, 3: 2e-12},
            free_energy_gain=0.5, crossing_time=1.25, fitted_rates=(-2.0, -4.0),
        )
        text = cert.to_text()
        assert "status: ok" in text
        assert "crossing_time: 1.25" in text
        assert cert.max_residual() == 2e-12
