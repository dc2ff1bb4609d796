import dataclasses

import numpy as np
import pytest

import mpemba as mp
from mpemba.errors import ValidationError
from mpemba.models import GHZ_PER_KELVIN

from conftest import QUBIT_GAMMA_TOTAL


class TestSingleQubit:
    def test_default_spectrum(self, qubit_spec):
        gap = mp.spectral_gap(qubit_spec)
        assert gap.complex_pair
        assert gap.value == pytest.approx(QUBIT_GAMMA_TOTAL / 2, rel=1e-10)

    def test_infinite_temperature_steady_state(self):
        model = mp.single_qubit(t_bath=1e12)
        spec = mp.decompose(mp.build_generator(model))
        np.testing.assert_allclose(spec.steady_state.entries, np.eye(2) / 2, atol=1e-10)

    def test_imaginary_parts_scale_with_omega(self):
        for omega in (2.0, 4.0, 8.0):
            model = mp.single_qubit(omega=omega)
            spec = mp.decompose(mp.build_generator(model))
            pair_imag = max(abs(spec.eigenvalues.imag))
            assert pair_imag == pytest.approx(omega, rel=1e-10)


class TestTfim:
    def test_dimensions(self):
        model = mp.tfim()
        assert model.hamiltonian.dim == 32
        gen = mp.build_generator(model)
        assert gen.pop_block.shape == (32, 32)
        assert gen.coh_block.shape == (32, 32)

    def test_zero_field_is_degenerate(self):
        model = mp.tfim(length=3, h_field=0.0)
        assert model.basis().degeneracy_flag

    def test_l2_against_hand_built_matrix(self):
        model = mp.tfim(length=2, coupling=1.0, h_field=0.5)
        z = np.diag([1.0, -1.0])
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        eye = np.eye(2)
        expected = (
            -1.0 * np.kron(z, z)
            + 0.5 * (np.kron(x, eye) + np.kron(eye, x))
        )
        np.testing.assert_allclose(model.hamiltonian.entries, expected, atol=1e-14)

    def test_field_locality(self):
        # matrix elements vanish between configurations differing in >1 flip
        model = mp.tfim(length=4)
        h = model.hamiltonian.entries
        for s in range(16):
            for t in range(16):
                flips = bin(s ^ t).count("1")
                if flips > 1:
                    assert h[s, t] == 0.0

    def test_length_bounds(self):
        with pytest.raises(ValidationError):
            mp.tfim(length=1)
        with pytest.raises(ValidationError):
            mp.tfim(length=7)

    def test_default_gap_is_complex_pair(self):
        spec = mp.decompose(mp.build_generator(mp.tfim()))
        gap = mp.spectral_gap(spec)
        assert gap.complex_pair
        assert gap.value == pytest.approx(0.5, abs=0.01)

    def test_bose_variant_builds(self):
        model = mp.tfim(length=3, statistics="bose")
        gen = mp.build_generator(model, dense=True)
        assert mp.verify_block_dense_spectrum(gen) <= 1e-8


class TestTwoLevelAtom:
    def test_complex_gap(self):
        spec = mp.decompose(mp.build_generator(mp.two_level_atom()))
        gap = mp.spectral_gap(spec)
        assert gap.complex_pair
        # Re lambda_2 = -gamma (2 n_B + 1)/2 with n_B tiny at 0.1 K
        assert gap.value == pytest.approx(0.5 * 2 * np.pi * 1.41e-3, rel=1e-3)

    def test_plus_state_has_coherent_overlap(self):
        model = mp.two_level_atom()
        spec = mp.decompose(mp.build_generator(model))
        plus = mp.DensityMatrix(np.full((2, 2), 0.5, dtype=complex))
        overlap = np.abs(spec.amplitudes(plus, spec.coherent_modes())).sum()
        assert overlap > 0.1

    def test_exact_transform_speedup(self):
        model = mp.two_level_atom()
        basis = model.basis()
        spec = mp.decompose(mp.build_generator(model))
        plus = mp.DensityMatrix(np.full((2, 2), 0.5, dtype=complex))
        rho_prime, _ = mp.exact_transform(plus, basis)
        residuals = mp.verify_overlap_elimination(spec, rho_prime)
        assert max(residuals.values()) <= 1e-10
        gap = mp.spectral_gap(spec).value
        times = np.linspace(0.0, 8.0 / gap, 300)
        tau = spec.steady_state
        before = [
            mp.l1_elementwise(s, tau, basis)
            for s in mp.evolve_spectral(spec, plus, times).states
        ]
        after = [
            mp.l1_elementwise(s, tau, basis)
            for s in mp.evolve_spectral(spec, rho_prime, times).states
        ]
        r_before = mp.fit_decay_rate(times, before, t_min=times[-1] / 2)
        r_after = mp.fit_decay_rate(times, after, t_min=times[-1] / 2)
        assert r_before == pytest.approx(-gap, rel=0.05)
        assert r_after == pytest.approx(2 * -gap, rel=0.05)

    def test_zero_temperature_only_decay(self):
        # the upward (sigma^+) rate carries the Bose occupation, ~0 at T -> 0
        model = mp.two_level_atom(t_bath_kelvin=1e-4)
        up_rate = model.jump_ops[0][1]
        down_rate = model.jump_ops[1][1]
        assert up_rate < 1e-200
        assert down_rate == pytest.approx(2 * np.pi * 1.41e-3, rel=1e-12)


class TestQuantumDot:
    def test_hamiltonian_levels(self):
        model = mp.quantum_dot()
        np.testing.assert_allclose(
            np.diag(model.hamiltonian.entries).real, [0.0, 242.0, 242.0, 1673.0]
        )
        assert model.basis().degeneracy_flag

    def test_kelvin_bridge(self):
        assert 0.1 * GHZ_PER_KELVIN == pytest.approx(2.08366, abs=1e-5)
        assert 2.0 * GHZ_PER_KELVIN == pytest.approx(41.6732, abs=1e-4)

    def test_resolved_variant_fixes_gibbs_point(self):
        model = mp.quantum_dot(energy_resolved=True)
        gen = mp.build_generator(model)
        basis = model.basis()
        tau = mp.thermal_state(basis, model.beta)
        residual = gen.dense @ basis.to_eigenbasis(tau.entries).reshape(-1)
        assert np.abs(residual).max() <= 1e-10

    def test_literal_variant_misses_gibbs_point(self):
        # the single-occupation reading breaks detailed balance at the
        # charging transition; the difference is reported, not hidden
        model = mp.quantum_dot(energy_resolved=False)
        gen = mp.build_generator(model)
        basis = model.basis()
        tau = mp.thermal_state(basis, model.beta)
        residual = gen.dense @ basis.to_eigenbasis(tau.entries).reshape(-1)
        assert np.abs(residual).max() > 1e-6

    def test_parity_restricted_spectrum_is_real_gapped(self):
        spec = mp.decompose(mp.build_generator(mp.quantum_dot(energy_resolved=True)))
        assert spec.n_modes == 8  # parity-violating coherences are dropped
        gap = mp.spectral_gap(spec)
        assert not gap.complex_pair
        assert gap.value == pytest.approx(0.997, abs=0.01)
        # the next decay class sits close by: the speedup is marginal
        lam2, lam5 = spec.eigenvalues[1].real, spec.eigenvalues[4].real
        assert abs(lam2 - lam5) < 0.05 * abs(lam2)

    def test_zero_charging_energy_still_degenerate(self):
        model = mp.quantum_dot(e_charging=0.0)
        assert model.basis().degeneracy_flag

    def test_parity_projection_is_a_pinching(self):
        model = mp.quantum_dot(energy_resolved=True)
        spec = mp.decompose(mp.build_generator(model))
        rng = np.random.default_rng(0)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = m @ m.conj().T
        rho /= np.trace(rho).real
        projected = spec.project_physical(mp.DensityMatrix(rho))
        basis = model.basis()
        rho_e = basis.to_eigenbasis(projected.entries)
        labels = np.array([0, 1, 1, 0])
        for a in range(4):
            for b in range(4):
                if labels[a] != labels[b]:
                    assert abs(rho_e[a, b]) <= 1e-14
        # populations untouched, projection idempotent
        np.testing.assert_allclose(
            projected.populations(basis), mp.DensityMatrix(rho).populations(basis), atol=1e-14
        )
        again = spec.project_physical(projected)
        np.testing.assert_allclose(again.entries, projected.entries, atol=1e-14)

    def test_fermionic_signs(self):
        model = mp.quantum_dot()
        d_up = model.jump_ops[1][0] / np.sqrt(model.jump_ops[1][1])
        d_dn = model.jump_ops[3][0] / np.sqrt(model.jump_ops[3][1])
        anti = d_up @ d_dn + d_dn @ d_up
        assert np.abs(anti).max() <= 1e-12


class TestZooProperties:
    @pytest.mark.parametrize("factory,kwargs", [
        (mp.single_qubit, {}),
        (mp.tfim, {"length": 3}),
        (mp.two_level_atom, {}),
        (mp.quantum_dot, {"energy_resolved": True}),
    ])
    def test_trace_preservation_and_fixed_point(self, factory, kwargs):
        model = factory(**kwargs)
        gen = mp.build_generator(model, dense=(model.bath is not None))
        basis = model.basis()
        tau = mp.thermal_state(basis, model.beta)
        assert np.abs(gen.dense @ basis.to_eigenbasis(tau.entries).reshape(-1)).max() <= 1e-10
        ident = np.eye(basis.dim, dtype=complex).reshape(-1)
        assert np.abs(gen.dense.conj().T @ ident).max() <= 1e-10

    def test_bath_recipe_must_carry_the_model_beta(self):
        model = mp.tfim(length=2)
        with pytest.raises(ValidationError, match="beta"):
            dataclasses.replace(model, beta=2.0 * model.beta)


@pytest.mark.parametrize("build", [
    lambda: mp.single_qubit(t_bath=0.0),
    lambda: mp.tfim(length=2, t_bath=0.0),
    lambda: mp.two_level_atom(t_bath_kelvin=0.0),
    lambda: mp.quantum_dot(t_bath_kelvin=0.0),
], ids=["single_qubit", "tfim", "two_level_atom", "quantum_dot"])
def test_zero_bath_temperature_rejected(build):
    with pytest.raises(ValidationError, match="bath temperature must be positive"):
        build()


def _model_instance(**kwargs):
    h = mp.HermitianOperator(np.diag([0.0, 1.0]))
    return mp.ModelInstance(name="m", hamiltonian=h, beta=1.0, **kwargs)


@pytest.mark.parametrize("build, message", [
    (lambda: _model_instance(), "exactly one of bath / jump_ops"),
    (lambda: _model_instance(bath=mp.BathSpec(1.0, "bose", 1.0), jump_ops=()),
     "exactly one of bath / jump_ops"),
    (lambda: _model_instance(jump_ops=((np.eye(2), -1.0),)), "nonnegative"),
    (lambda: mp.single_qubit(omega=0.0), "omega must be positive"),
    (lambda: mp.two_level_atom(epsilon=-1.0), "epsilon and gamma must be positive"),
    (lambda: mp.two_level_atom(gamma=0.0), "epsilon and gamma must be positive"),
    (lambda: mp.quantum_dot(epsilon=0.0), "dot parameters must be positive"),
    (lambda: mp.quantum_dot(gamma=-1.0), "dot parameters must be positive"),
    (lambda: mp.quantum_dot(e_charging=-1.0), "dot parameters must be positive"),
], ids=[
    "instance_neither", "instance_both", "instance_negative_rate", "qubit_omega",
    "atom_epsilon", "atom_gamma", "dot_epsilon", "dot_gamma", "dot_charging",
])
def test_model_input_checks_raise(build, message):
    with pytest.raises(ValidationError, match=message):
        build()
