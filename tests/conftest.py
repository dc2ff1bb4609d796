import numpy as np
import pytest

import mpemba as mp
from mpemba.spectral import EVOLUTION_PSD_TOL

# frozen oracle constants for the default single qubit (omega=5, T_b=10, gamma=1)
QUBIT_NBOSE = 1.5414940825367982          # 1/(e^0.5 - 1)
QUBIT_GAMMA_TOTAL = 4.082988165073596     # gamma^2 (1 + 2 n_B)
QUBIT_ALPHA_DOWN = 1.5942064115216692     # sqrt(1 + n_B)
QUBIT_ALPHA_UP = 1.2415692016705304       # sqrt(n_B)
DEMO_BLOCH = (0.276, 0.359, 0.303)
DEMO_RADIUS = 0.5448541089135696          # |r| of the demo initial state


@pytest.fixture(scope="session")
def qubit_model():
    return mp.single_qubit()


@pytest.fixture(scope="session")
def qubit_gen(qubit_model):
    return mp.build_generator(qubit_model, dense=True)


@pytest.fixture(scope="session")
def qubit_spec(qubit_gen):
    return mp.decompose(qubit_gen, prefer="dense")


@pytest.fixture(scope="session")
def tfim3_model():
    return mp.tfim(length=3)


@pytest.fixture(scope="session")
def tfim3_gen(tfim3_model):
    return mp.build_generator(tfim3_model, dense=True)


@pytest.fixture(scope="session")
def tfim5():
    model = mp.tfim()
    spec = mp.decompose(mp.build_generator(model))
    return model, spec


def prepare_overlap(model, spec, target, seed):
    """Criterion 05's preparation: a unitary Metropolis walk from a fixed random
    mixed state to a summed |coherence| of ``target`` on the slow pair (modes 2, 3)."""
    basis = model.basis()
    pair = [spec.mode_tag(k)[1:] for k in (2, 3)]

    def overlap_cost(rho_lab):
        rho_e = basis.to_eigenbasis(rho_lab)
        return abs(sum(abs(rho_e[n, m]) for n, m in pair) - target)

    cfg = mp.MetropolisConfig(
        cooling_tau=0.999, threshold_eps=min(1e-6, 1e-2 * target),
        target_modes=(2, 3), seed=seed, max_total_iterations=200_000,
    )
    prepared, _, trace = mp.unitary_metropolis(spec, mp.random_mixed_state(32, 100, seed=11), cfg,
                                               cost_fn=overlap_cost)
    assert trace.converged, f"overlap preparation at {target} did not converge"
    return prepared


@pytest.fixture(scope="session")
def criterion_05_low_overlap(tfim5):
    """Criterion 05's low-overlap state (target 0.0005, seed 21), prepared once per session."""
    return prepare_overlap(*tfim5, 0.0005, 21)


def max_entry_gap(a, b):
    return float(np.abs(np.asarray(a) - np.asarray(b)).max())


def reference_package_state(matrix_e):
    """One evolved energy-basis state checked on its own: the per-point
    reference for the chunked packaging of an evolution.  Its Hermitian
    part, the matrix an evolution grid stores, is judged as a state."""
    defect = float(np.abs(matrix_e - matrix_e.conj().T).max())
    if defect > 1e-9 * max(1.0, float(np.abs(matrix_e).max())):
        raise RuntimeError(
            f"evolved state lost Hermiticity (defect {defect:.2e}); "
            "conjugate mode pairing is broken"
        )
    return mp.DensityMatrix(0.5 * (matrix_e + matrix_e.conj().T), psd_tol=EVOLUTION_PSD_TOL)
