"""Davies-map thermalization and engineered quantum Mpemba effects.

The package builds thermalizing Lindblad generators for small quantum
systems, decomposes them spectrally (dense or via the population/coherence
block structure), evolves states, tracks non-equilibrium thermodynamic
diagnostics, and constructs the unitary transformations (exact or
Metropolis-optimized) that yield exponentially accelerated relaxation.
"""

__version__ = "0.1.0"

from .davies import (
    BathSpec,
    DaviesGenerator,
    JumpMatrix,
    build_dense_generator,
    build_jump_matrix,
    build_population_block,
    davies_generator,
    generator_from_operators,
    verify_block_dense_spectrum,
    verify_detailed_balance,
)
from .errors import (
    ConfigError,
    DefectiveGeneratorError,
    DegenerateSpectrumError,
    NoSteadyStateError,
    ValidationError,
)
from .metropolis import (
    AnnealSchedule,
    MetropolisConfig,
    OptimizationTrace,
    UnitaryAnsatz,
    build_ansatz_unitary,
    cost,
    swap_metropolis,
    unitary_metropolis,
)
from .models import (
    ModelInstance,
    build_generator,
    quantum_dot,
    single_qubit,
    tfim,
    two_level_atom,
)
from .operators import (
    BlochVector,
    DensityMatrix,
    HermitianOperator,
    SpectralBasis,
    as_populations,
    as_state,
    bloch_to_state,
    dephase,
    diagonalize,
    random_mixed_state,
    random_pure_state,
    state_to_bloch,
    thermal_populations,
    thermal_state,
)
from .spectral import (
    EvolutionGrid,
    GeneratorSpectrum,
    decompose,
    evolve_direct,
    evolve_spectral,
    spectral_gap,
)
from .thermo import (
    ThermoTrajectory,
    compute_trajectory,
    entropy_split,
    equilibrium_free_energy,
    fit_decay_rate,
    l1_elementwise,
    noneq_free_energy,
    relative_entropy,
    spohn_rate,
    trace_distance,
)
from .transform import (
    MajorizationReport,
    MpembaCertificate,
    detect_crossing,
    exact_transform,
    majorization_check,
    verify_overlap_elimination,
)
