"""Model zoo: the four systems whose thermalization the package studies.

Each constructor returns a :class:`ModelInstance` bundling the Hamiltonian,
the bath's inverse temperature, and a bath recipe (generic jump-matrix
construction) or explicit dissipators (with rates).

Energy units: the spin models use the coupling J as the unit; the two
mesoscopic models use GHz with the Kelvin bridge k_B/hbar = 20.8366 GHz/K
(so e.g. 0.1 K = 2.08 GHz).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .davies import BathSpec, DaviesGenerator, davies_generator, generator_from_operators, occupation_factors
from .errors import ValidationError
from .operators import HermitianOperator, SpectralBasis, diagonalize
from .utils import IDENTITY_2, SIGMA_X, SIGMA_Z, kron_chain

#: Kelvin -> GHz conversion at k_B = hbar = 1 (ordinary-frequency units).
GHZ_PER_KELVIN = 20.8366


@dataclass(frozen=True)
class ModelInstance:
    """A named Hamiltonian plus its dissipation specification.

    ``beta`` is the bath's inverse temperature, which fixes the Gibbs state
    the dissipation relaxes to; a bath recipe must carry the same value.
    ``bath`` drives the generic Davies jump-matrix recipe; ``jump_ops`` is a
    list of ``(operator, rate)`` pairs for models whose Lindblad dissipators
    are written out explicitly (the rate multiplies the dissipator, so the
    jump operator entering the generator is sqrt(rate) * operator).
    ``sector_labels`` marks a conserved charge per energy level (fermion
    parity for the dot); modes connecting different sectors are unphysical
    and excluded from spectra.
    """

    name: str
    hamiltonian: HermitianOperator
    beta: float
    bath: BathSpec | None = None
    jump_ops: tuple | None = None
    sector_labels: tuple | None = None
    _basis: SpectralBasis | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if (self.bath is None) == (self.jump_ops is None):
            raise ValidationError("exactly one of bath / jump_ops must be given")
        if self.bath is not None and self.bath.beta != self.beta:
            raise ValidationError("the bath recipe's beta differs from the model's")
        if self.jump_ops is not None:
            for _, rate in self.jump_ops:
                if rate < 0:
                    raise ValidationError("explicit dissipator rates must be nonnegative")

    def basis(self) -> SpectralBasis:
        """The Hamiltonian's eigenbasis, diagonalized on the first call only."""
        if self._basis is None:
            object.__setattr__(self, "_basis", diagonalize(self.hamiltonian))
        return self._basis


def build_generator(model: ModelInstance, *, dense: bool = False) -> DaviesGenerator:
    """Assemble the model's generator (block where possible, dense on request).

    Models with explicit dissipators always go through the dense vectorized
    path; bath-recipe models get the block form, plus the dense form when
    ``dense=True``.
    """
    basis = model.basis()
    if model.bath is not None:
        return davies_generator(basis, model.bath, dense=dense)
    ops = [math.sqrt(rate) * np.asarray(op, dtype=complex) for op, rate in model.jump_ops]
    return generator_from_operators(basis, ops, sector_labels=model.sector_labels)


def _thermal_bath(t_bath: float, statistics: str, gamma: float) -> BathSpec:
    """The bath at temperature ``t_bath`` > 0 (in the model's energy units)."""
    if not t_bath > 0:
        raise ValidationError("bath temperature must be positive")
    return BathSpec(beta=1.0 / t_bath, statistics=statistics, gamma=gamma)


def single_qubit(omega: float = 5.0, t_bath: float = 10.0, gamma: float = 1.0) -> ModelInstance:
    """Bosonic-bath qubit, H = (omega/2) sigma_z.  Defaults: omega=5J, T_b=10J."""
    if omega <= 0:
        raise ValidationError("omega must be positive")
    h = HermitianOperator(0.5 * omega * SIGMA_Z)
    bath = _thermal_bath(t_bath, "bose", gamma)
    return ModelInstance(name="single_qubit", hamiltonian=h, beta=bath.beta, bath=bath)


def tfim(
    length: int = 5,
    coupling: float = 1.0,
    h_field: float = 0.5,
    t_bath: float = 0.1,
    gamma: float = 1.0,
    statistics: str = "fermi",
) -> ModelInstance:
    """Open-boundary transverse-field Ising chain.

    H = -J sum_j sigma^z_j sigma^z_{j+1} + h sum_j sigma^x_j, built from
    explicit tensor products.  Defaults: L=5, h=J/2, T_b=0.1J, a fermionic
    bath (the chain is a free-fermion system; this choice puts the spectral
    gap on a complex pair at the default parameters).  A degenerate choice
    such as h=0 is constructed fine but flagged, and the block generator
    path downstream will refuse it.
    """
    if not 2 <= length <= 6:
        raise ValidationError("chain length must be between 2 and 6")
    dim = 2**length
    h_matrix = np.zeros((dim, dim), dtype=complex)
    for j in range(length - 1):
        pair = (SIGMA_Z if k in (j, j + 1) else IDENTITY_2 for k in range(length))
        h_matrix -= coupling * kron_chain(pair)
    for j in range(length):
        site = (SIGMA_X if k == j else IDENTITY_2 for k in range(length))
        h_matrix += h_field * kron_chain(site)
    bath = _thermal_bath(t_bath, statistics, gamma)
    return ModelInstance(name="tfim", hamiltonian=HermitianOperator(h_matrix), beta=bath.beta, bath=bath)


def two_level_atom(
    epsilon: float = 2.0 * math.pi * 4.0,
    gamma: float = 2.0 * math.pi * 1.41e-3,
    t_bath_kelvin: float = 0.1,
) -> ModelInstance:
    """Two-level atom in a photonic bath, explicit Davies dissipators.

    Basis {|g>, |e>}, H = diag(0, epsilon).  Jump operators sigma^+ with
    rate gamma*n_B and sigma^- with rate gamma*(n_B + 1), n_B the Bose
    occupation at epsilon.  Defaults: epsilon = 2pi x 4 GHz,
    gamma = 2pi x 1.41 MHz, T_b = 0.1 K (= 2.08 GHz).
    """
    if epsilon <= 0 or gamma <= 0:
        raise ValidationError("epsilon and gamma must be positive")
    bath = _thermal_bath(t_bath_kelvin * GHZ_PER_KELVIN, "bose", gamma)
    w_down, w_up = occupation_factors(epsilon, bath)
    h = HermitianOperator(np.diag([0.0, epsilon]).astype(complex))
    sigma_plus = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |e><g|
    sigma_minus = sigma_plus.conj().T
    ops = ((sigma_plus, gamma * w_up), (sigma_minus, gamma * w_down))
    return ModelInstance(name="two_level_atom", hamiltonian=h, beta=bath.beta, jump_ops=ops)


def quantum_dot(
    epsilon: float = 242.0,
    e_charging: float = 1189.0,
    gamma: float = 1.0,
    t_bath_kelvin: float = 2.0,
    energy_resolved: bool = False,
) -> ModelInstance:
    """Spinful fermionic dot coupled to a fermionic reservoir.

    Fock basis {0, up, down, up+down}; H = eps(n_up + n_dn) + E_c n_up n_dn
    is spin-degenerate, so only the dense generator path applies.  The
    single-occupation form uses one Fermi factor n_beta = f(epsilon) for
    every transition (``energy_resolved=False``).
    With ``energy_resolved=True`` each d_sigma is split into its 0<->sigma
    and sigma<->double components weighted by f(epsilon) and
    f(epsilon + E_c); only this variant satisfies detailed balance with the
    Gibbs state of H (the two fixed points differ by the f-spread).

    Fermion-parity superselection labels the levels (0, 1, 1, 0); spectra
    derived from this model drop the unphysical parity-changing modes.
    Defaults: eps = 242 GHz, E_c = 1189 GHz, gamma = 1 GHz, T_b = 2 K.
    """
    if min(epsilon, gamma) <= 0 or e_charging < 0:
        raise ValidationError("dot parameters must be positive (E_c may be zero)")
    bath = _thermal_bath(t_bath_kelvin * GHZ_PER_KELVIN, "fermi", gamma)
    h = HermitianOperator(
        np.diag([0.0, epsilon, epsilon, 2.0 * epsilon + e_charging]).astype(complex)
    )
    # |up,down> = d_up^dag d_dn^dag |0>, so d_dn picks up a sign on it
    d_up = np.zeros((4, 4), dtype=complex)
    d_up[0, 1] = 1.0
    d_up[2, 3] = 1.0
    d_dn = np.zeros((4, 4), dtype=complex)
    d_dn[0, 2] = 1.0
    d_dn[1, 3] = -1.0

    ops = []
    if energy_resolved:
        lo_down, lo_up = occupation_factors(epsilon, bath)
        hi_down, hi_up = occupation_factors(epsilon + e_charging, bath)
        for d_sig in (d_up, d_dn):
            lo = np.zeros_like(d_sig)
            hi = np.zeros_like(d_sig)
            for (a, b) in np.argwhere(d_sig != 0):
                (hi if 3 in (a, b) else lo)[a, b] = d_sig[a, b]
            ops += [
                (lo.conj().T, gamma * lo_up), (lo, gamma * lo_down),
                (hi.conj().T, gamma * hi_up), (hi, gamma * hi_down),
            ]
    else:
        w_down, w_up = occupation_factors(epsilon, bath)
        for d_sig in (d_up, d_dn):
            ops += [
                (d_sig.conj().T, gamma * w_up),
                (d_sig, gamma * w_down),
            ]
    return ModelInstance(
        name="quantum_dot",
        hamiltonian=h,
        beta=bath.beta,
        jump_ops=tuple(ops),
        sector_labels=(0, 1, 1, 0),
    )


MODEL_BUILDERS = {
    "single_qubit": single_qubit,
    "tfim": tfim,
    "two_level_atom": two_level_atom,
    "quantum_dot": quantum_dot,
}
