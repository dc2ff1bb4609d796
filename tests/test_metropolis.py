import dataclasses
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.stats

import mpemba as mp
from mpemba.errors import ValidationError
from mpemba.metropolis import (
    _ANCHORS,
    _GRID,
    _SWAP_BATCH,
    _Walk,
    _coordinate_candidates,
    _distinct_indices,
    _euler_factors,
    _fit_coordinate,
    _fitted_costs,
    _sitewise_anchors,
    metropolis_accept,
)
from mpemba.utils import _CSV_CHUNK_ROWS, SIGMA_Z, kron_chain

from conftest import DEMO_BLOCH


def _minimize_coordinate(coef):
    """The exact move's offset on its own: the grid priced, then the two candidates priced."""
    g, x = _coordinate_candidates(coef, _fitted_costs(coef, np.exp(1j * _GRID)))
    ends = _fitted_costs(coef, np.exp(1j * np.array([g, x])))
    return x if ends[1] < ends[0] else g


class TestConfig:
    def test_validation(self):
        # the schedule validates its fields, also inside the unitary config
        for cls in (mp.AnnealSchedule, mp.MetropolisConfig):
            with pytest.raises(ValidationError):
                cls(cooling_tau=1.0, threshold_eps=1e-6)
            with pytest.raises(ValidationError):
                cls(cooling_tau=0.99, threshold_eps=0.0)
            with pytest.raises(ValidationError):
                cls(cooling_tau=0.99, threshold_eps=1e-6, target_modes=(1,))
            with pytest.raises(ValidationError):
                cls(cooling_tau=0.99, threshold_eps=1e-6, max_total_iterations=0)

    @pytest.mark.parametrize("budget", ["nano_n", "micro_m", "macro_big_m"])
    def test_loop_budgets_validated(self, budget):
        with pytest.raises(ValidationError, match=budget):
            mp.MetropolisConfig(cooling_tau=0.99, threshold_eps=1e-6, **{budget: 0})

    def test_fields_past_threshold_are_keyword_only(self):
        # the split reordered the fields: a positional budget must not bind a schedule field
        with pytest.raises(TypeError):
            mp.MetropolisConfig(0.99, 1e-6, 200, 20)
        with pytest.raises(TypeError):
            mp.AnnealSchedule(0.99, 1e-6, (2,))
        assert isinstance(mp.MetropolisConfig(0.99, 1e-6), mp.AnnealSchedule)


class TestAnsatz:
    def test_zero_parameters_identity(self):
        ansatz = mp.UnitaryAnsatz(np.zeros((3, 4)))
        np.testing.assert_allclose(mp.build_ansatz_unitary(ansatz), np.eye(8), atol=1e-14)

    def test_single_qubit_rz(self):
        ansatz = mp.UnitaryAnsatz(np.array([[0.0, np.pi, 0.0, 0.0]]))
        u = mp.build_ansatz_unitary(ansatz)
        expected = np.diag([np.exp(-0.5j * np.pi), np.exp(0.5j * np.pi)])
        np.testing.assert_allclose(u, expected, atol=1e-14)

    def test_fermionic_string_pattern(self):
        # L=2, all parameters zero: only qubit 1 carries sigma_z^{mod(L-1,2)}
        ansatz = mp.UnitaryAnsatz(np.zeros((2, 4)), fermionic=True)
        u = mp.build_ansatz_unitary(ansatz)
        np.testing.assert_allclose(u, np.kron(SIGMA_Z, np.eye(2)), atol=1e-14)

    def test_always_unitary(self):
        rng = np.random.default_rng(3)
        for fermionic in (False, True):
            ansatz = mp.UnitaryAnsatz(rng.uniform(0, 2 * np.pi, size=(3, 4)), fermionic=fermionic)
            u = mp.build_ansatz_unitary(ansatz)
            assert np.abs(u @ u.conj().T - np.eye(8)).max() <= 1e-12

    def test_parameters_wrap(self):
        ansatz = mp.UnitaryAnsatz(np.full((1, 4), 2 * np.pi + 0.5))
        np.testing.assert_allclose(ansatz.params, np.full((1, 4), 0.5), atol=1e-12)

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (1, 2, 4)])
    def test_wrong_shape_rejected(self, shape):
        with pytest.raises(ValidationError, match=r"shape \(L, 4\)"):
            mp.UnitaryAnsatz(np.zeros(shape))


class TestAcceptRule:
    def test_downhill_always_accepted(self):
        rng = np.random.default_rng(0)
        assert all(metropolis_accept(0.5, 1.0, 0.01, rng.uniform()) for _ in range(100))

    def test_uphill_frequency_matches_boltzmann(self):
        # chi-square style check of the acceptance law at fixed T_eff
        rng = np.random.default_rng(42)
        delta, t_eff, n = 0.7, 0.9, 10_000
        p_expected = np.exp(-delta / t_eff)
        hits = sum(metropolis_accept(1.0 + delta, 1.0, t_eff, rng.uniform()) for _ in range(n))
        sigma = np.sqrt(n * p_expected * (1 - p_expected))
        assert abs(hits - n * p_expected) < 4.0 * sigma

    def test_agrees_with_numpy_exp_rule(self):
        # the rule in Python floats decides as u < np.exp(...) did
        rng = np.random.default_rng(17)
        n = 100_000
        c_old = rng.uniform(0.0, 1.0, n)
        c_new = c_old + rng.exponential(0.5, n) * rng.choice([-1.0, 0.0, 1.0], n)
        t_eff = 10.0 ** rng.uniform(-2.0, 0.0, n)
        u = rng.uniform(size=n)
        for new, old, t, uniform in zip(c_new.tolist(), c_old.tolist(), t_eff.tolist(), u.tolist()):
            accepted = metropolis_accept(new, old, t, uniform)
            assert type(accepted) is bool
            assert accepted == (new < old or bool(uniform < np.exp(-(new - old) / t)))

    def test_nan_and_overflowing_moves_are_rejected(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert metropolis_accept(float("nan"), 1.0, 0.5, 0.0) is False
            assert metropolis_accept(1.0, float("nan"), 0.5, 0.0) is False
            assert metropolis_accept(float("inf"), float("inf"), 0.5, 0.0) is False
            assert metropolis_accept(float("inf"), 1.0, 0.5, 0.0) is False
            assert metropolis_accept(1e300, 0.0, 1e-300, 0.0) is False
            assert metropolis_accept(1.0 + 1e3, 1.0, 1e-3, 0.0) is False

    def test_zero_temperature_accepts_ties_only(self):
        # T_eff reaches 0.0 in a walk with cooling_tau <= 0.5 (after 1 075
        # accepts at 0.5); at 0.999 it stalls near 2.5e-321, where t * tau
        # rounds back to t.  The uniform is not read: that would divide by 0.
        assert metropolis_accept(0.5, 1.0, 0.0, 0.0) is True
        assert metropolis_accept(1.0, 1.0, 0.0, 0.0) is True
        assert metropolis_accept(1.5, 1.0, 0.0, 0.0) is False


class TestWalkTies:
    @pytest.mark.parametrize("t_eff", [1.0, 1e-300, 0.0])
    def test_ties_match_scan(self, t_eff):
        # an alpha loop records n ties at once; the scan judges them one by one.
        # At 1e-300 and cooling 0.5, T_eff passes through the subnormals to 0
        schedule = mp.AnnealSchedule(cooling_tau=0.5, threshold_eps=1e-9, max_total_iterations=252)
        uniforms = np.random.default_rng(3).uniform(size=250)
        uniforms[0] = np.nextafter(1.0, 0.0)

        def no_new_best(_):
            raise AssertionError("a tie is never a new best")

        walks = []
        for judged in (False, True):
            walk = _Walk(0.5, np.zeros(2), schedule)
            walk.scan([0.25, 0.375], [0.99, 0.0], lambda i: np.full(2, float(i)))
            walk.t_eff = t_eff
            if judged:
                walk.scan([walk.cost] * 250, uniforms.tolist(), no_new_best)
            else:
                walk.ties(250)
            walks.append(walk)
        ties, scanned = walks
        _assert_same_trace(ties.trace(), scanned.trace())
        assert ties.trace().accepted.all()
        for name in ("cost", "t_eff", "best_cost", "converged", "done"):
            assert getattr(ties, name) == getattr(scanned, name), name
        assert np.array_equal(ties.best, scanned.best)
        assert ties.done and ties.remaining == 0


class TestCost:
    def test_steady_state_costs_nothing(self, qubit_model, qubit_spec):
        tau = mp.thermal_state(qubit_model.basis(), qubit_model.bath.beta)
        assert mp.cost(qubit_spec, tau, [2, 3]) <= 1e-9

    def test_empty_target_set(self, qubit_spec):
        rho = mp.bloch_to_state(list(DEMO_BLOCH))
        assert mp.cost(qubit_spec, rho, []) == 0.0

    def test_matches_amplitude_sum(self, qubit_spec):
        rho = mp.bloch_to_state(list(DEMO_BLOCH))
        expected = np.abs(qubit_spec.amplitudes(rho, (2, 3))).sum()
        assert mp.cost(qubit_spec, rho, [2, 3]) == pytest.approx(expected, abs=1e-14)


class TestUnitaryMetropolis:
    def test_rejects_state_of_no_qubit_register(self, qubit_spec):
        cfg = mp.MetropolisConfig(cooling_tau=0.99, threshold_eps=1e-6)
        with pytest.raises(ValidationError, match="2\\^L-dimensional"):
            mp.unitary_metropolis(qubit_spec, np.eye(3) / 3, cfg)

    def test_rejects_state_of_another_dimension_before_any_cost(self, qubit_spec):
        # a two-qubit state on the qubit's spectrum: refused before the
        # start cost, whichever cost prices the walk
        cfg = mp.MetropolisConfig(cooling_tau=0.99, threshold_eps=1e-6, target_modes=(2,))
        priced = []
        with pytest.raises(ValidationError, match="dimensions differ"):
            mp.unitary_metropolis(qubit_spec, np.eye(4) / 4, cfg)
        with pytest.raises(ValidationError, match="dimensions differ"):
            mp.unitary_metropolis(qubit_spec, np.eye(4) / 4, cfg, cost_fn=lambda m: priced.append(m) or 1.0)
        assert priced == []

    def test_already_converged_input(self, qubit_model, qubit_spec):
        tau = mp.thermal_state(qubit_model.basis(), qubit_model.bath.beta)
        cfg = mp.MetropolisConfig(cooling_tau=0.999, threshold_eps=1e-6, target_modes=(2, 3), seed=0)
        rho_best, ansatz, trace = mp.unitary_metropolis(qubit_spec, tau, cfg)
        assert trace.converged and len(trace) == 0
        np.testing.assert_allclose(rho_best.entries, tau.entries, atol=1e-14)
        np.testing.assert_allclose(mp.build_ansatz_unitary(ansatz), np.eye(2), atol=1e-14)

    def test_empty_target_set_needs_no_search(self, qubit_spec):
        # no target costs nothing, so any state is already converged
        rho = mp.bloch_to_state(list(DEMO_BLOCH))
        cfg = mp.MetropolisConfig(cooling_tau=0.99, threshold_eps=1e-6, target_modes=(), seed=0)
        rho_best, _, trace = mp.unitary_metropolis(qubit_spec, rho, cfg)
        assert trace.converged and len(trace) == 0
        assert np.array_equal(rho_best.entries, rho.entries)

    def test_qubit_converges(self, qubit_spec):
        # measured over seeds 0-19, not one chosen seed: all 20 converge
        rho = mp.bloch_to_state(list(DEMO_BLOCH))
        converged = 0
        for seed in range(20):
            cfg = mp.MetropolisConfig(
                cooling_tau=0.99, threshold_eps=1e-4, target_modes=(2, 3), seed=seed,
                max_total_iterations=100_000,
            )
            rho_best, _, trace = mp.unitary_metropolis(qubit_spec, rho, cfg)
            if not trace.converged:
                continue
            converged += 1
            assert mp.cost(qubit_spec, rho_best, [2, 3]) < 1e-4
            # spectrum is preserved by the unitary walk
            np.testing.assert_allclose(
                np.linalg.eigvalsh(rho_best.entries), np.linalg.eigvalsh(rho.entries), atol=1e-12,
            )
        assert converged >= 19

    def test_deterministic_trace(self, qubit_spec):
        rho = mp.bloch_to_state(list(DEMO_BLOCH))
        cfg = mp.MetropolisConfig(
            cooling_tau=0.99, threshold_eps=1e-8, target_modes=(2, 3), seed=11,
            max_total_iterations=5_000,
        )
        _, _, trace_a = mp.unitary_metropolis(qubit_spec, rho, cfg)
        _, _, trace_b = mp.unitary_metropolis(qubit_spec, rho, cfg)
        np.testing.assert_array_equal(trace_a.cost, trace_b.cost)
        np.testing.assert_array_equal(trace_a.accepted, trace_b.accepted)
        np.testing.assert_array_equal(trace_a.t_eff, trace_b.t_eff)

    def test_unreachable_target_reports_no_convergence(self):
        # the spin-population-difference and symmetric modes of the dot cannot
        # be killed together by a product ansatz on its near-pure thermal state
        dot = mp.quantum_dot(energy_resolved=True)
        spec = mp.decompose(mp.build_generator(dot))
        rho = mp.thermal_state(dot.basis(), 1.0 / (0.1 * mp.models.GHZ_PER_KELVIN))
        cfg = mp.MetropolisConfig(
            cooling_tau=0.999, threshold_eps=1e-6, target_modes=(2, 3, 4, 6), seed=0,
            max_total_iterations=20_000,
        )
        _, _, trace = mp.unitary_metropolis(spec, rho, cfg, fermionic=True)
        assert not trace.converged
        assert trace.best_cost > 1e-6

    def test_temperature_cools_only_on_acceptance(self, qubit_spec):
        rho = mp.bloch_to_state(list(DEMO_BLOCH))
        cfg = mp.MetropolisConfig(
            cooling_tau=0.9, threshold_eps=1e-12, target_modes=(2, 3), seed=2,
            max_total_iterations=300,
        )
        _, _, trace = mp.unitary_metropolis(qubit_spec, rho, cfg)
        t_eff = 1.0
        for accepted, recorded in zip(trace.accepted, trace.t_eff):
            if accepted:
                t_eff *= 0.9
            assert recorded == pytest.approx(t_eff, rel=1e-12)


class TestExactCoordinateMove:
    @pytest.mark.parametrize("fermionic_chain", [False, True], ids=["qubit", "fermionic_l3"])
    def test_trigonometric_fit_and_minimum(self, fermionic_chain, qubit_spec, tfim3_model):
        # every target amplitude is A + B e^{i theta} + C e^{-i theta} in each of
        # beta, gamma, delta; three anchors fix it, and the move minimizes it
        if fermionic_chain:
            spec = mp.decompose(mp.build_generator(tfim3_model))
            rho = mp.random_mixed_state(8, 5, seed=3)
            targets, n_qubits = (2, 3, 4), 3
        else:
            spec, rho = qubit_spec, mp.bloch_to_state(list(DEMO_BLOCH))
            targets, n_qubits = (2, 3), 1
        rows = [k - 1 for k in targets]

        def amplitudes_at(p):
            u = mp.build_ansatz_unitary(mp.UnitaryAnsatz(p, fermionic=fermionic_chain))
            return spec.amplitudes(u @ rho.entries @ u.conj().T)[rows]

        def with_angle(params, qubit, par, theta):
            out = params.copy()
            out[qubit, par] = theta
            return out

        rng = np.random.default_rng(5)
        params = rng.uniform(0.0, 2 * np.pi, size=(n_qubits, 4))
        for qubit in range(n_qubits):
            for par in (1, 2, 3):
                theta0 = params[qubit, par]
                anchors = [
                    amplitudes_at(with_angle(params, qubit, par, theta0 + shift))
                    for shift in (0.0, 2 * np.pi / 3, -2 * np.pi / 3)
                ]
                a, b, c = _fit_coordinate(np.array(anchors))
                for theta in rng.uniform(0.0, 2 * np.pi, size=5):
                    e = np.exp(1j * (theta - theta0))
                    np.testing.assert_allclose(
                        a + b * e + c / e, amplitudes_at(with_angle(params, qubit, par, theta)),
                        rtol=0, atol=1e-12,
                    )

                def cost_at(theta):
                    return np.abs(amplitudes_at(with_angle(params, qubit, par, theta))).sum()

                offset = _minimize_coordinate(_fit_coordinate(np.array(anchors)))
                theta_star = (theta0 + offset) % (2 * np.pi)
                cost_star = cost_at(theta_star)
                grid_best = min(cost_at(theta) for theta in 2 * np.pi * np.arange(64) / 64)
                # rounding allowance: beta is flat on the qubit (cost constant in it)
                assert cost_star <= grid_best + 1e-12
                # and a local minimum, not just a good grid point
                neighbours = min(cost_at(theta_star + 1e-6), cost_at(theta_star - 1e-6))
                assert cost_star <= neighbours + 1e-12

    def test_minimizer_beats_grid_and_refinement_form(self):
        # the minimizer as first written, a 256-point grid then 14 rounds of
        # 17-point grids around the best point, kept as the oracle
        def loop_form(coef):
            a, b, c = coef

            def objective(phi):
                e = np.exp(1j * phi)[:, None]
                return np.abs(a + b * e + c * e.conj()).sum(axis=1)

            step = 2.0 * np.pi / 256
            phi = step * np.arange(256)
            best = phi[np.argmin(objective(phi))]
            for _ in range(14):
                phi = best + step * np.linspace(-1.0, 1.0, 17)
                best = phi[np.argmin(objective(phi))]
                step *= 2.0 / 16
            return float(best)

        def cases(rng, n_targets):
            for _ in range(25):
                coef = rng.normal(size=(3, n_targets)) + 1j * rng.normal(size=(3, n_targets))
                yield coef
                # kinks: A = 0 and |B| = |C|, so each |z_k| touches 0 off the grid
                kink = coef.copy()
                kink[0] = 0.0
                kink[2] = kink[1] * np.exp(1j * rng.uniform(0.0, 2 * np.pi, n_targets))
                yield kink
                # C = -B with A = 0 vanishes exactly at the grid points 0 and pi
                exact_kink = kink.copy()
                exact_kink[2] = -exact_kink[1]
                yield exact_kink
                # conjugate pairs of targets, as coherence modes 2 and 3 give:
                # a_3 = conj(a_2), so (A, B, C)_3 = conj((A, C, B)_2)
                yield np.hstack([coef, coef[[0, 2, 1]].conj()])

        grid = 2.0 * np.pi * np.arange(256) / 256
        rng = np.random.default_rng(8)
        for n_targets in (1, 2, 3, 5):
            for coef in cases(rng, n_targets):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    phi = _minimize_coordinate(coef)
                assert type(phi) is float
                moved, oracle = _fitted_costs(coef, np.exp(1j * np.array([phi, loop_form(coef)])))
                assert moved <= _fitted_costs(coef, np.exp(1j * grid)).min()
                assert moved <= oracle + 1e-14 * max(1.0, oracle)


class TestFittedWalk:
    @pytest.mark.parametrize("setup", ["qubit", "fermionic_l3", "dot"])
    def test_best_cost_matches_returned_state(self, setup, qubit_spec, tfim3_model):
        # proposals are priced from the per-loop fit; the state rebuilt from the
        # best parameters must cost what the trace says
        fermionic = setup != "qubit"
        if setup == "qubit":
            spec, rho, targets = qubit_spec, mp.bloch_to_state(list(DEMO_BLOCH)), (2, 3)
        elif setup == "fermionic_l3":
            spec = mp.decompose(mp.build_generator(tfim3_model))
            rho, targets = mp.random_mixed_state(8, 5, seed=3), (2, 3, 4)
        else:
            dot = mp.quantum_dot(energy_resolved=True)
            spec = mp.decompose(mp.build_generator(dot))
            rho = mp.thermal_state(dot.basis(), 1.0 / (0.1 * mp.models.GHZ_PER_KELVIN))
            amps = spec.amplitudes(rho)
            targets = tuple(k for k in range(2, spec.n_modes + 1) if abs(amps[k - 1]) > 1e-8)
        for seed in range(4):
            cfg = mp.MetropolisConfig(
                cooling_tau=0.999, threshold_eps=1e-12, target_modes=targets, seed=seed,
                nano_n=50, micro_m=5, max_total_iterations=3_000,
            )
            rho_best, _, trace = mp.unitary_metropolis(spec, rho, cfg, fermionic=fermionic)
            assert len(trace) > 0
            direct = mp.cost(spec, rho_best, targets)
            assert abs(direct - trace.best_cost) <= 1e-12 + 1e-9 * trace.best_cost


class TestSitewiseAnchors:
    """The anchors of a fitted loop, read from U^dag V, against a full rebuild."""

    @staticmethod
    def _case(name, qubit_spec, tfim3_model):
        if name == "qubit":
            return qubit_spec, mp.bloch_to_state(list(DEMO_BLOCH)), (2, 3), False
        if name == "tfim3_fermionic":
            spec = mp.decompose(mp.build_generator(tfim3_model))
            return spec, mp.random_mixed_state(8, 5, seed=3), (2, 3), True
        if name == "tfim3_population":
            spec = mp.decompose(mp.build_generator(mp.tfim(length=3, t_bath=4.0)))
            pops = [k for k in range(2, spec.n_modes + 1) if spec.mode_tag(k)[0] == "pop"]
            return spec, mp.random_mixed_state(8, 5, seed=4), tuple(pops[:2]), False
        dot = mp.quantum_dot(energy_resolved=True)
        spec = mp.decompose(mp.build_generator(dot))
        rho = mp.thermal_state(dot.basis(), 1.0 / (0.1 * mp.models.GHZ_PER_KELVIN))
        return spec, rho, (2, 3, 4, 5, 6), True

    @pytest.mark.parametrize("name, kind", [
        ("qubit", "dense"), ("tfim3_fermionic", "coh"), ("tfim3_population", "pop"),
        ("dot", "dense"),
    ])
    def test_anchors_match_full_rebuild(self, name, kind, qubit_spec, tfim3_model):
        spec, rho, targets, fermionic = self._case(name, qubit_spec, tfim3_model)
        assert {spec.mode_tag(k)[0] for k in targets} == {kind}
        around = _sitewise_anchors(spec, rho.entries, targets, fermionic)
        n_qubits = int(np.log2(spec.dim))
        rng = np.random.default_rng(11)
        for _ in range(3):
            params = rng.uniform(0.0, 2 * np.pi, size=(n_qubits, 4))
            for qubit in range(n_qubits):
                for par in range(4):
                    want = []
                    for shift in _ANCHORS:
                        moved = params.copy()
                        moved[qubit, par] += shift
                        u = mp.build_ansatz_unitary(mp.UnitaryAnsatz(moved, fermionic=fermionic))
                        want.append(spec.amplitudes(u @ rho.entries @ u.conj().T, targets))
                    got = around(params, qubit)(params[qubit], par)
                    assert got.shape == (3, len(targets))
                    np.testing.assert_allclose(got, np.array(want), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("name", ["qubit", "tfim3_fermionic", "tfim3_population", "dot"])
    def test_round_environment_matches_per_loop_rebuild(self, name, qubit_spec, tfim3_model):
        # the environment built at a round's start serves every loop of the
        # round, while the round's qubit moves, with the bits of a fresh one
        spec, rho, targets, fermionic = self._case(name, qubit_spec, tfim3_model)
        around = _sitewise_anchors(spec, rho.entries, targets, fermionic)
        n_qubits = int(np.log2(spec.dim))
        rng = np.random.default_rng(12)
        params = rng.uniform(0.0, 2 * np.pi, size=(n_qubits, 4))
        for qubit in range(n_qubits):
            anchors = around(params, qubit)
            for par in (1, 2, 3, 3, 1, 2):
                got = anchors(params[qubit], par)
                assert got.tobytes() == around(params, qubit)(params[qubit], par).tobytes()
                params[qubit, par] = rng.uniform(0.0, 2 * np.pi)

    def test_site_factors_bitwise_equal_to_per_site_product(self):
        # the factors build_ansatz_unitary multiplies, as it built them one site at a time
        def rz(theta):
            return np.array([[np.exp(-0.5j * theta), 0.0], [0.0, np.exp(0.5j * theta)]])

        def rx(theta):
            c, s = np.cos(0.5 * theta), np.sin(0.5 * theta)
            return np.array([[c, -1j * s], [-1j * s, c]])

        rng = np.random.default_rng(2)
        for _ in range(400):
            params = np.mod(rng.uniform(-10.0, 20.0, size=(5, 4)), 2 * np.pi)
            want = [np.exp(1j * a) * (rz(b) @ rx(g) @ rz(d)) for a, b, g, d in params]
            assert _euler_factors(params).tobytes() == np.array(want).tobytes()
            for fermionic in (False, True):
                factors = [w @ SIGMA_Z if fermionic and (5 - j) % 2 == 1 else w
                           for j, w in enumerate(want, start=1)]
                u = mp.build_ansatz_unitary(mp.UnitaryAnsatz(params, fermionic=fermionic))
                assert u.tobytes() == kron_chain(factors).tobytes()

    @pytest.mark.parametrize("budget", [300, 3_000])
    def test_fitted_search_builds_two_unitaries(self, budget, tfim3_model, monkeypatch):
        # one for the start cost, one for the returned state, whatever the budget
        spec = mp.decompose(mp.build_generator(tfim3_model))
        calls = []
        build = mp.metropolis.build_ansatz_unitary

        def counted(ansatz):
            calls.append(1)
            return build(ansatz)

        monkeypatch.setattr(mp.metropolis, "build_ansatz_unitary", counted)
        cfg = mp.MetropolisConfig(
            cooling_tau=0.99, threshold_eps=1e-300, target_modes=(2, 3), seed=1,
            nano_n=40, micro_m=5, max_total_iterations=budget,
        )
        trace = mp.unitary_metropolis(spec, mp.random_mixed_state(8, 50, seed=2), cfg,
                                      fermionic=True)[-1]
        assert len(trace) == budget
        assert len(calls) == 2


class TestTraceCsv:
    @staticmethod
    def _per_row_csv(trace, path):
        # reference: the original one-write-per-row formatter
        with open(path, "w") as fh:
            fh.write("iteration,cost,T_eff,accepted\n")
            for j in range(len(trace)):
                fh.write(
                    f"{trace.iteration[j]},{trace.cost[j]:.17g},"
                    f"{trace.t_eff[j]:.17g},{int(trace.accepted[j])}\n"
                )

    def test_bytes_match_per_row_formatter(self, tmp_path, qubit_spec):
        rho = mp.bloch_to_state(list(DEMO_BLOCH))
        cfg = mp.MetropolisConfig(
            cooling_tau=0.99, threshold_eps=1e-12, target_modes=(2, 3), seed=3,
            max_total_iterations=3_000,
        )
        _, _, trace = mp.unitary_metropolis(qubit_spec, rho, cfg)
        # long enough to be written in several chunks, the last one partial
        assert len(trace) == 3_000 and len(trace) % _CSV_CHUNK_ROWS
        assert trace.accepted.any() and not trace.accepted.all()
        empty = mp.OptimizationTrace(
            iteration=np.zeros(0, dtype=int), cost=np.zeros(0), t_eff=np.zeros(0),
            accepted=np.zeros(0, dtype=bool), converged=True, best_cost=0.0,
        )
        for name, tr in (("search", trace), ("empty", empty)):
            tr.to_csv(tmp_path / f"{name}.csv")
            self._per_row_csv(tr, tmp_path / f"{name}_reference.csv")
            assert (tmp_path / f"{name}.csv").read_bytes() == (
                tmp_path / f"{name}_reference.csv"
            ).read_bytes()


@pytest.fixture(scope="module")
def heating_setup():
    model = mp.tfim(h_field=1.0, t_bath=4.0)
    spec = mp.decompose(mp.build_generator(model))
    basis = model.basis()
    p0 = mp.thermal_populations(basis, 1.0)  # initial thermal state at T_i = 1
    # slowest diagonal (population) mode
    target = next(k for k in range(2, spec.n_modes + 1) if spec.mode_tag(k)[0] == "pop")
    return spec, p0, target


class TestSwapMetropolis:
    def test_converges_on_heating_scenario(self, heating_setup):
        spec, p0, target = heating_setup
        cfg = mp.AnnealSchedule(
            cooling_tau=0.998, threshold_eps=1e-6, target_modes=(target,), seed=0,
            max_total_iterations=50_000,
        )
        p_best, trace = mp.swap_metropolis(spec, p0, cfg)
        assert trace.converged
        np.testing.assert_allclose(np.sort(p_best), np.sort(p0), atol=1e-15)

    def test_zero_cost_input_converges_immediately(self, heating_setup):
        spec, _, target = heating_setup
        tau_p = np.clip(np.real(np.diag(spec.steady_state.entries)), 0, None)
        tau_p = spec.basis.to_eigenbasis(spec.steady_state.entries)
        populations = np.real(np.diag(tau_p))
        cfg = mp.AnnealSchedule(
            cooling_tau=0.998, threshold_eps=1e-6, target_modes=(target,), seed=0,
        )
        _, trace = mp.swap_metropolis(spec, populations, cfg)
        assert trace.converged and len(trace) == 0

    @pytest.mark.parametrize("edit, message", [
        (lambda p: p[:-1], "does not match the spectrum dimension"),
        (lambda p: 2.0 * p, "probability vector"),
        # the same sum, one entry below zero
        (lambda p: p + 0.5 * (np.eye(p.size)[0] - np.eye(p.size)[-1]), "probability vector"),
        (lambda p: np.concatenate(([np.nan], p[1:])), "probability vector"),
    ], ids=["length", "sum", "negative", "nan"])
    def test_rejects_bad_populations(self, heating_setup, edit, message):
        spec, p0, target = heating_setup
        cfg = mp.AnnealSchedule(cooling_tau=0.998, threshold_eps=1e-6, target_modes=(target,))
        with pytest.raises(ValidationError, match=message):
            mp.swap_metropolis(spec, edit(p0), cfg)

    def test_rejects_coherence_targets(self, heating_setup):
        spec, p0, _ = heating_setup
        coh = spec.coherent_modes()[0]
        cfg = mp.AnnealSchedule(
            cooling_tau=0.998, threshold_eps=1e-6, target_modes=(coh,), seed=0,
        )
        with pytest.raises(ValidationError):
            mp.swap_metropolis(spec, p0, cfg)

    def test_small_dimension_falls_back_to_pair_swaps(self, qubit_model, qubit_spec):
        basis = qubit_model.basis()
        p0 = mp.thermal_populations(basis, 1.0)
        target = next(k for k in range(2, 5) if k not in qubit_spec.coherent_modes())
        # the starting cost is about 0.52 and the swapped order's about 0.87,
        # so no order converges and the walk spends its whole budget
        cfg = mp.AnnealSchedule(
            cooling_tau=0.99, threshold_eps=1e-3, target_modes=(target,), seed=0,
            max_total_iterations=10,
        )
        p_best, trace = mp.swap_metropolis(qubit_spec, p0, cfg)
        assert len(trace) == 10 and not trace.converged
        assert np.sort(p_best).tobytes() == np.sort(p0).tobytes()

    def test_csv_round_trip(self, tmp_path, heating_setup):
        spec, p0, target = heating_setup
        cfg = mp.AnnealSchedule(
            cooling_tau=0.998, threshold_eps=1e-3, target_modes=(target,), seed=4,
            max_total_iterations=5_000,
        )
        _, trace = mp.swap_metropolis(spec, p0, cfg)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "iteration,cost,T_eff,accepted"
        assert len(lines) == len(trace) + 1


def _swap_cost(spectrum, p, targets):
    lmat = np.array([np.real_if_close(np.diag(spectrum.left(k))) for k in targets])
    return float(np.abs(lmat @ p).sum())


class TestSwapWalk:
    """Properties of the batched swap walk; its random stream is its own."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_multiset_and_best_cost(self, seed, heating_setup, qubit_spec):
        # the walk prices proposals by increments of s = L p; the returned
        # populations must be a permutation of the input and cost what the
        # trace says
        spec, p0, target = heating_setup
        qubit_target = next(k for k in range(2, 5) if k not in qubit_spec.coherent_modes())
        for spectrum, p, k, budget in ((spec, p0, target, 3_000),
                                       (qubit_spec, np.array([0.9, 0.1]), qubit_target, 50)):
            cfg = mp.AnnealSchedule(
                cooling_tau=0.998, threshold_eps=1e-6, target_modes=(k,), seed=seed,
                max_total_iterations=budget,
            )
            p_best, trace = mp.swap_metropolis(spectrum, p, cfg)
            assert np.array_equal(np.sort(p_best), np.sort(p))
            assert abs(_swap_cost(spectrum, p_best, (k,)) - trace.best_cost) <= 1e-14
            assert trace.best_cost == min(trace.cost.min(), _swap_cost(spectrum, p, (k,)))
            assert trace.converged == (trace.best_cost < cfg.threshold_eps)

    @pytest.mark.parametrize("budget", [25, 2_000])
    def test_budget_ending_mid_batch(self, budget, heating_setup):
        spec, p0, target = heating_setup
        assert budget % _SWAP_BATCH
        cfg = mp.AnnealSchedule(
            cooling_tau=0.998, threshold_eps=1e-300, target_modes=(target,), seed=3,
            max_total_iterations=budget,
        )
        _, trace = mp.swap_metropolis(spec, p0, cfg)
        assert not trace.converged
        assert len(trace) == budget
        np.testing.assert_array_equal(trace.iteration, np.arange(1, budget + 1))

    def test_three_levels_swap_pairs(self):
        # below dimension 4 each proposal swaps two populations
        spectrum = SimpleNamespace(dim=3, left=lambda k: np.diag([1.0, -2.0, 0.5]))
        p0 = np.array([0.2, 0.3, 0.5])
        cfg = mp.AnnealSchedule(
            cooling_tau=0.9, threshold_eps=1e-300, target_modes=(2,), seed=1,
            max_total_iterations=300,
        )
        p_best, trace = mp.swap_metropolis(spectrum, p0, cfg)
        assert len(trace) == 300 and trace.accepted.any()
        # of the six orders only (0.5, 0.3, 0.2) costs |0.5 - 0.6 + 0.1| = 0,
        # up to rounding; the start costs 0.15
        assert np.array_equal(p_best, [0.5, 0.3, 0.2])
        assert abs(_swap_cost(spectrum, p_best, (2,)) - trace.best_cost) <= 1e-15
        assert trace.best_cost <= 1e-15

    def test_random_draws_do_not_depend_on_decisions(self, heating_setup, record_rngs):
        # searches that differ only in their cooling make different accept
        # decisions but must draw the same random numbers
        spec, p0, target = heating_setup
        made = record_rngs()
        traces = []
        for tau in (0.998, 0.5):
            cfg = mp.AnnealSchedule(
                cooling_tau=tau, threshold_eps=1e-300, target_modes=(target,), seed=4,
                max_total_iterations=1_000,
            )
            traces.append(mp.swap_metropolis(spec, p0, cfg)[-1])
        assert [len(t) for t in traces] == [1_000, 1_000]
        assert not np.array_equal(traces[0].accepted, traces[1].accepted)
        first, second = (r.draws for r in made)
        assert len(first) == len(second)
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    def test_unitary_config_walks_like_its_schedule(self, heating_setup):
        # a MetropolisConfig is an AnnealSchedule plus loop budgets the swap
        # walk never reads: the same schedule gives the same walk
        spec, p0, target = heating_setup
        schedule = mp.AnnealSchedule(
            cooling_tau=0.998, threshold_eps=1e-300, target_modes=(target,), seed=5,
            max_total_iterations=3_000,
        )
        fields = {f.name: getattr(schedule, f.name) for f in dataclasses.fields(schedule)}
        config = mp.MetropolisConfig(**fields, nano_n=7, micro_m=3, macro_big_m=2)
        p_a, trace_a = mp.swap_metropolis(spec, p0, schedule)
        p_b, trace_b = mp.swap_metropolis(spec, p0, config)
        assert p_a.tobytes() == p_b.tobytes()
        for name in ("iteration", "cost", "t_eff", "accepted"):
            assert getattr(trace_a, name).tobytes() == getattr(trace_b, name).tobytes()
        assert (trace_a.converged, trace_a.best_cost) == (trace_b.converged, trace_b.best_cost)
        assert len(trace_a) == 3_000 and trace_a.accepted.any()

    def test_converges_for_most_seeds(self, heating_setup):
        # criterion 08's swap budget and schedule, over twice its seeds, at its
        # 80% bar
        spec, p0, target = heating_setup
        hits = 0
        for seed in range(20):
            cfg = mp.AnnealSchedule(
                cooling_tau=0.998, threshold_eps=1e-6, target_modes=(target,), seed=seed,
                max_total_iterations=2 * 5300,
            )
            hits += mp.swap_metropolis(spec, p0, cfg)[-1].converged
        assert hits >= 16


class TestDistinctIndices:
    @pytest.mark.parametrize("d, m", [(4, 4), (5, 4), (32, 4), (2, 2), (3, 2)])
    def test_rows_hold_distinct_indices(self, d, m):
        rows = _distinct_indices(np.random.default_rng(d), d, 5_000, m)
        assert rows.shape == (5_000, m)
        assert rows.min() >= 0 and rows.max() < d
        assert all(len(set(row)) == m for row in rows.tolist())
        # every index turns up in every column
        for j in range(m):
            assert set(rows[:, j].tolist()) == set(range(d))

    def test_ordered_tuples_are_uniform(self):
        # d = 5 has 5 * 4 * 3 * 2 = 120 ordered 4-tuples
        n = 120 * 200
        rows = _distinct_indices(np.random.default_rng(12), 5, n, 4)
        _, counts = np.unique(rows, axis=0, return_counts=True)
        assert counts.size == 120
        chi2 = float(((counts - n / 120) ** 2).sum() / (n / 120))
        assert chi2 < scipy.stats.chi2.ppf(0.999, 119)


# -- the two annealer loops as written before they shared one walk: each
#    kept its own accept, cooling, best-state and stop bookkeeping


def _reference_trace(rows, converged, best_cost):
    return mp.OptimizationTrace(
        iteration=np.asarray([r[0] for r in rows], dtype=int),
        cost=np.asarray([r[1] for r in rows], dtype=float),
        t_eff=np.asarray([r[2] for r in rows], dtype=float),
        accepted=np.asarray([r[3] for r in rows], dtype=bool),
        converged=bool(converged),
        best_cost=float(best_cost),
    )


def _reference_unitary(spectrum, rho, config, fermionic, cost_fn):
    rho_m = rho.entries
    n_qubits = int(np.log2(rho_m.shape[0]))

    def conj(p):
        u = mp.build_ansatz_unitary(mp.UnitaryAnsatz(p, fermionic=fermionic))
        return u @ rho_m @ u.conj().T

    rng = np.random.default_rng(config.seed)
    params = rng.uniform(0.0, 2.0 * np.pi, size=(n_qubits, 4))
    current = best = cost_fn(conj(params))
    best_params, t_eff, rows, it = params.copy(), 1.0, [], 0
    converged = best < config.threshold_eps
    stop = converged
    for _macro in range(n_qubits * config.macro_big_m):
        qubit = int(rng.integers(n_qubits))
        for _micro in range(config.micro_m):
            par = int(rng.integers(4))
            for _nano in range(config.nano_n):
                it += 1
                old = params[qubit, par]
                params[qubit, par] = (old + rng.uniform(0.0, 2.0 * np.pi)) % (2.0 * np.pi)
                new = cost_fn(conj(params))
                u = rng.uniform() if not new < current and t_eff > 0.0 else 0.0
                accepted = metropolis_accept(new, current, t_eff, u)
                if accepted:
                    current = new
                    t_eff *= config.cooling_tau
                    if new < best:
                        best, best_params = new, params.copy()
                else:
                    params[qubit, par] = old
                rows.append((it, current, t_eff, accepted))
                converged = best < config.threshold_eps
                stop = converged or it >= config.max_total_iterations
                if stop:
                    break
            if stop:
                break
        if stop:
            break
    return conj(best_params), best_params, _reference_trace(rows, converged, best)


# -- the default-cost walk one proposal at a time: each nano loop draws its
#    re-drawn angles, then one acceptance uniform per proposal; a proposal on
#    alpha (a global phase) costs the current cost, any other is priced from
#    the loop's three-anchor fit; the anchors come from the sitewise routine,
#    its environment rebuilt for every loop (TestSitewiseAnchors checks it
#    against a full rebuild), and the exact move from the minimizer alone


def _reference_fitted(spectrum, rho, config, fermionic):
    rho_m = rho.entries
    n_qubits = int(np.log2(rho_m.shape[0]))
    targets = config.target_modes

    def conj(p):
        u = mp.build_ansatz_unitary(mp.UnitaryAnsatz(p, fermionic=fermionic))
        return u @ rho_m @ u.conj().T

    around = _sitewise_anchors(spectrum, rho_m, targets, fermionic)
    rng = np.random.default_rng(config.seed)
    params = rng.uniform(0.0, 2.0 * np.pi, size=(n_qubits, 4))
    current = best = mp.cost(spectrum, conj(params), targets)
    best_params, t_eff, rows, it = params.copy(), 1.0, [], 0
    converged = best < config.threshold_eps
    stop = converged
    for _macro in range(n_qubits * config.macro_big_m):
        qubit = int(rng.integers(n_qubits))
        for _micro in range(config.micro_m):
            par = int(rng.integers(4))
            n = min(config.nano_n, config.max_total_iterations - it)
            theta0 = params[qubit, par]
            if par == 0:
                angles = list(rng.uniform(0.0, 2.0 * np.pi, size=n))
            else:
                coef = _fit_coordinate(around(params, qubit)(params[qubit], par))
                exact = (theta0 + _minimize_coordinate(coef)) % (2.0 * np.pi)
                angles = [exact] + list(rng.uniform(0.0, 2.0 * np.pi, size=n - 1))
            uniforms = rng.uniform(size=n)
            for theta, u in zip(angles, uniforms):
                it += 1
                old = params[qubit, par]
                params[qubit, par] = theta
                if par == 0:
                    new = current
                else:
                    new = _fitted_costs(coef, np.exp(1j * np.array([theta - theta0])))[0]
                accepted = metropolis_accept(new, current, t_eff, u)
                if accepted:
                    current = new
                    t_eff *= config.cooling_tau
                    if new < best:
                        best, best_params = new, params.copy()
                else:
                    params[qubit, par] = old
                rows.append((it, current, t_eff, accepted))
                converged = best < config.threshold_eps
                stop = converged or it >= config.max_total_iterations
                if stop:
                    break
            if stop:
                break
        if stop:
            break
    return conj(best_params), best_params, _reference_trace(rows, converged, best)


class _RecordingRng:
    """A seeded generator that keeps a copy of every draw."""

    def __init__(self, seed):
        self._rng, self.draws = np.random.Generator(np.random.PCG64(seed)), []

    def uniform(self, *args, **kwargs):
        out = self._rng.uniform(*args, **kwargs)
        self.draws.append(np.array(out, copy=True))
        return out

    def integers(self, *args, **kwargs):
        out = self._rng.integers(*args, **kwargs)
        self.draws.append(np.array(out, copy=True))
        return out


@pytest.fixture
def record_rngs(monkeypatch):
    """Call to make every later ``np.random.default_rng`` record its draws; returns their list."""
    made = []

    def default_rng(seed):
        made.append(_RecordingRng(seed))
        return made[-1]

    def start():
        monkeypatch.setattr(np.random, "default_rng", default_rng)
        return made

    return start


def _assert_same_trace(got, want):
    for name in ("iteration", "cost", "t_eff", "accepted"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert (got.converged, got.best_cost) == (want.converged, want.best_cost)


class TestSharedWalk:
    @pytest.mark.parametrize("case", ["qubit", "qubit_cut", "qubit_cost_fn", "tfim3_fermionic"])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_unitary_matches_reference_loop(self, case, seed, qubit_spec, tfim3_gen):
        cost_fn = None
        if case.startswith("qubit"):
            spec, rho, fermionic = qubit_spec, mp.bloch_to_state(list(DEMO_BLOCH)), False
            budget = 333 if case == "qubit_cut" else 3_000
            if case == "qubit_cost_fn":
                def cost_fn(m):
                    return float(abs(spec.basis.to_eigenbasis(m)[0, 1]))
        else:
            spec, fermionic = mp.decompose(tfim3_gen), True
            rho = mp.random_mixed_state(8, 50, seed=2)
            budget = 2_000
        cfg = mp.MetropolisConfig(
            cooling_tau=0.99, threshold_eps=1e-7, target_modes=(2, 3), seed=seed,
            nano_n=40, micro_m=5, max_total_iterations=budget,
        )
        rho_best, ansatz, trace = mp.unitary_metropolis(spec, rho, cfg, fermionic=fermionic,
                                                        cost_fn=cost_fn)
        if cost_fn is None:
            want_rho, want_params, want_trace = _reference_fitted(spec, rho, cfg, fermionic)
        else:
            want_rho, want_params, want_trace = _reference_unitary(spec, rho, cfg, fermionic, cost_fn)
        _assert_same_trace(trace, want_trace)
        assert np.array_equal(ansatz.params, np.mod(want_params, 2.0 * np.pi))
        assert np.array_equal(rho_best.entries, want_rho)

    @pytest.mark.parametrize("fitted", [False, True])
    def test_non_finite_state_refused_before_any_work(self, fitted, qubit_spec, record_rngs):
        # an array state is judged as a DensityMatrix before its first cost or draw
        calls = []

        def cost_fn(m):
            calls.append(1)
            return 1.0

        made = record_rngs()
        cfg = mp.MetropolisConfig(cooling_tau=0.99, threshold_eps=1e-7, target_modes=(2, 3),
                                  nano_n=10, micro_m=5, max_total_iterations=50)
        with pytest.raises(ValidationError, match="non-finite"):
            mp.unitary_metropolis(qubit_spec, [[0.5, np.nan], [np.nan, 0.5]], cfg,
                                  cost_fn=None if fitted else cost_fn)
        assert calls == [] and made == []

    def test_random_draws_do_not_depend_on_decisions(self, tfim3_gen, record_rngs):
        # searches that differ only in their cooling make different accept
        # decisions but must draw the same random numbers, angles included
        spec = mp.decompose(tfim3_gen)
        rho = mp.random_mixed_state(8, 50, seed=2)
        made = record_rngs()
        traces = []
        for tau in (0.99, 0.5):
            cfg = mp.MetropolisConfig(
                cooling_tau=tau, threshold_eps=1e-15, target_modes=(2, 3), seed=4,
                nano_n=40, micro_m=5, max_total_iterations=1_500,
            )
            traces.append(mp.unitary_metropolis(spec, rho, cfg, fermionic=True)[-1])
        assert [len(t) for t in traces] == [1_500, 1_500]
        assert not np.array_equal(traces[0].accepted, traces[1].accepted)
        first, second = (r.draws for r in made)
        assert len(first) == len(second)
        for a, b in zip(first, second):
            assert np.array_equal(a, b)
