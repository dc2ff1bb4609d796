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
