"""Thermodynamic diagnostics along a relaxation trajectory.

Central quantities (natural log, so entropies are in nats):

    F_neq(rho) = Tr(H rho) + (1/beta) Tr(rho ln rho)
    D(rho||tau) = Tr[rho (ln rho - ln tau)] = beta (F_neq - F_eq)
    D = P + C   with P the classical relative entropy of the populations
                and C = S(diag(rho)) - S(rho) the relative entropy of
                coherence, both in the energy eigenbasis.

The entropy production rate is computed as Pi = -beta dF_neq/dt, which
equals -dD/dt and is nonnegative for Davies dynamics.  (The beta prefactor
makes Pi the rate of the dimensionless D, an entropy per unit time in nats;
-dF_neq/dt alone would be an energy per unit time.)

Two distances are kept deliberately distinct: ``l1_elementwise`` is the
entrywise sum used in the distance plots, while ``trace_distance`` is half the
Schatten-1 norm that enters Pinsker's inequality
D >= ||rho - tau||_1^2 / 2.  Every state argument enters through
:func:`mpemba.operators.as_state`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spectral
from .errors import ValidationError
from .operators import HermitianOperator, SpectralBasis, as_populations, as_state, thermal_populations
from .spectral import EvolutionGrid
from .utils import (
    chunk_slices,
    eigvalsh_diagonal,
    frozen,
    log_gibbs_weights,
    write_csv,
    xlogx,
)

#: Eigenvalue threshold below which a state direction counts as unsupported.
SUPPORT_TOL = 1e-12

#: Values at or below this are left out of a decay-rate fit.
DECAY_FIT_FLOOR = 1e-12

CSV_COLUMNS = ("t", "F_neq", "D", "P", "C", "L1", "T1", "Pi")


def _shannon(p: np.ndarray):
    """-sum p ln p over the last axis, negative entries as 0; of eigenvalues, S(rho)."""
    return -xlogx(np.clip(p, 0.0, None)).sum(axis=-1)


def noneq_free_energy(rho, hamiltonian, beta: float) -> float:
    """Non-equilibrium free energy Tr(H rho) - S(rho)/beta, S(rho) from ``rho.eigenvalues``.

    ``hamiltonian`` is a :class:`HermitianOperator` or is judged as one.
    """
    if not beta > 0:  # a NaN fails
        raise ValidationError(f"beta must be positive for the free energy, not {beta}")
    if not isinstance(hamiltonian, HermitianOperator):
        hamiltonian = HermitianOperator(hamiltonian)
    rho = as_state(rho, hamiltonian.dim)
    energy = float(np.real(np.trace(hamiltonian.entries @ rho.entries)))
    return energy - float(_shannon(rho.eigenvalues)) / beta


def equilibrium_free_energy(basis: SpectralBasis, beta: float) -> float:
    """F_eq = -ln(Z)/beta, read as E_0 + ln(p_0)/beta from the ground level's Gibbs log-weight."""
    if not beta > 0:  # a NaN fails
        raise ValidationError(f"beta must be positive for the free energy, not {beta}")
    return float(basis.energies[0] + log_gibbs_weights(basis.energies, beta)[0] / beta)


def relative_entropy(rho, sigma) -> float:
    """Quantum relative entropy D(rho || sigma) = Tr[rho (ln rho - ln sigma)].

    Returns ``math.inf`` (a distinguished value, not an exception) when rho
    has weight outside the support of sigma.
    """
    rho = as_state(rho)
    sigma = as_state(sigma, rho.dim)
    s_eigs, s_vecs = np.linalg.eigh(sigma.entries)
    weights = np.real(np.einsum("ij,jk,ki->i", s_vecs.conj().T, rho.entries, s_vecs))
    dead = s_eigs <= SUPPORT_TOL
    if np.any(weights[dead] > SUPPORT_TOL):
        return math.inf
    live = ~dead
    cross = float(weights[live] @ np.log(s_eigs[live]))
    value = -float(_shannon(rho.eigenvalues)) - cross
    return max(value, 0.0) if value > -1e-10 else value


def entropy_split(rho, tau_populations, basis: SpectralBasis) -> tuple[float, float]:
    """Split D(rho || tau) into classical and coherent parts.

    P is the classical relative entropy between the energy-basis populations
    of rho and the thermal populations; C = S(dephased rho) - S(rho) is the
    relative entropy of coherence.  P + C = D(rho || tau) when tau is the
    Gibbs state diagonal in ``basis``.  A zero thermal population under a
    populated level yields ``math.inf``.  ``tau_populations`` must pass
    :func:`mpemba.operators.as_populations`.
    """
    rho = as_state(rho, basis.dim)
    t = as_populations(tau_populations, basis.dim)
    p = np.clip(rho.populations(basis), 0.0, None)
    dead = t <= 0.0
    coherent = float(_shannon(p) - _shannon(rho.eigenvalues))
    if np.any(p[dead] > SUPPORT_TOL):
        return math.inf, coherent
    live = ~dead
    classical = float(xlogx(p).sum() - p[live] @ np.log(t[live]))
    return max(classical, 0.0), max(coherent, 0.0)


def l1_elementwise(rho, tau, basis: SpectralBasis) -> float:
    """Entrywise L1 distance sum_ij |rho_ij - tau_ij| in the energy basis."""
    rho, tau = as_state(rho, basis.dim), as_state(tau, basis.dim)
    return float(np.abs(basis.to_eigenbasis(rho.entries) - basis.to_eigenbasis(tau.entries)).sum())


def trace_distance(rho, sigma) -> float:
    """Half the Schatten-1 norm of rho - sigma."""
    rho = as_state(rho)
    sigma = as_state(sigma, rho.dim)
    return float(0.5 * np.abs(np.linalg.eigvalsh(rho.entries - sigma.entries)).sum())


def spohn_rate(times, f_neq, beta: float) -> np.ndarray:
    """Entropy production rate Pi = -beta dF_neq/dt from sampled values.

    ``numpy.gradient`` with ``edge_order=2``: second-order central
    differences in the interior (exact for non-uniform grids), one-sided
    second-order stencils at the endpoints.  Requires ``beta > 0`` and at
    least three grid points; ``times`` enters through
    :func:`mpemba.spectral.as_times`.
    """
    if not beta > 0:  # a NaN fails
        raise ValidationError(f"beta must be positive for the Spohn rate, not {beta}")
    times = spectral.as_times(times)
    if times.size < 3:
        raise ValidationError("the Spohn rate needs at least 3 grid points")
    return -beta * np.gradient(np.asarray(f_neq, dtype=float), times, edge_order=2)


@dataclass(frozen=True)
class ThermoTrajectory:
    """Sampled diagnostics along one evolution.

    Columns mirror the CSV export: non-equilibrium free energy, relative
    entropy to the steady state and its classical/coherent split, the two
    distances, and the Spohn rate (empty when the grid is too short to
    differentiate).
    """

    times: np.ndarray
    f_neq: np.ndarray
    d_rel: np.ndarray
    p_classical: np.ndarray
    c_coherence: np.ndarray
    l1: np.ndarray
    t1: np.ndarray
    pi: np.ndarray
    beta: float
    f_eq: float

    def __post_init__(self):
        for name in ("times", "f_neq", "d_rel", "p_classical", "c_coherence", "l1", "t1", "pi"):
            object.__setattr__(self, name, frozen(np.asarray(getattr(self, name), dtype=float)))

    def __len__(self):
        return self.times.size

    def to_csv(self, path) -> None:
        """Fixed column order, 17 significant digits (golden-file friendly)."""
        columns = [self.times, self.f_neq, self.d_rel, self.p_classical,
                   self.c_coherence, self.l1, self.t1]
        if self.pi.size:
            columns.append(self.pi)
        write_csv(path, ",".join(CSV_COLUMNS[:len(columns)]), columns,
                  ",".join(["%.17g"] * len(columns)) + "\n")


def compute_trajectory(
    grid: EvolutionGrid, basis: SpectralBasis, beta: float
) -> ThermoTrajectory:
    """Evaluate all diagnostics for every state of an evolution grid.

    Reads what the evolution stored, in the energy basis: F_neq from
    ``grid.mean_energy`` and S(rho) of ``grid.spectra``, and P and C from the
    (T, d) populations, in one pass for either form of grid: the stored
    populations, or the diagonal of the stored stack.  Only the two distances
    depend on the form.  Of a grid of populations (states diagonal in the
    energy basis) rho_e - tau_e is the diagonal p - tau, so L1 =
    sum_n |p_n - tau_n| and the trace distance is half the sum of
    |sort(p - tau)| (``eigvalsh_diagonal``), and no stack is built.  A grid of
    stacks is read in the chunks the evolution used,
    :func:`mpemba.spectral.chunk_points` time points at a time (16 for d >= 16,
    more below): L1 sums the entries of rho_e - tau_e, and the trace distance
    comes from its eigenvalues (``np.linalg.eigvalsh``), the only eigen-solve
    here.  No state is rotated.  ``basis`` gives tau and F_eq and must be the grid's own
    basis (the same object, or equal energies and vectors), else :class:`ValidationError`.
    So does a ``beta`` not finite and > 0 (at ``beta = inf``, D off the ground level is inf).
    """
    if not 0.0 < beta < math.inf:  # a NaN fails
        raise ValidationError(f"beta must be finite and positive for a trajectory, not {beta}")
    if basis is not grid.basis and not (
        np.array_equal(basis.energies, grid.basis.energies)
        and np.array_equal(basis.vectors, grid.basis.vectors)
    ):
        raise ValidationError("basis is not the one the grid's states are stored in")
    f_eq = equilibrium_free_energy(basis, beta)
    tau_p = thermal_populations(basis, beta)
    log_tau = log_gibbs_weights(basis.energies, beta)

    n = len(grid)
    populations = grid.populations
    if populations is None:  # a stack: rho_e - tau_e, a chunk at a time, as the evolution stored it
        l1, t1 = np.empty(n), np.empty(n)
        tau_e = np.diag(tau_p)
        for s in chunk_slices(n, spectral.chunk_points(basis.dim)):
            deviation = grid.eigen_entries[s] - tau_e
            l1[s] = np.abs(deviation).sum(axis=(1, 2))
            t1[s] = 0.5 * np.abs(np.linalg.eigvalsh(deviation)).sum(axis=1)
        populations = np.real(np.diagonal(grid.eigen_entries, axis1=1, axis2=2))
    else:  # no coherence: rho_e - tau_e is the diagonal p - tau, read as vectors
        deviation = populations - tau_p
        l1 = np.abs(deviation).sum(axis=1)
        t1 = 0.5 * np.abs(eigvalsh_diagonal(deviation)).sum(axis=1)

    pops = np.clip(populations, 0.0, None)
    s_rho = _shannon(grid.spectra)
    f_neq = grid.mean_energy - s_rho / beta
    # D via populations against log-space Gibbs weights: stable at any beta.
    # The (1, d) @ (d, 1) products round like one dot per state; a 2-D
    # matrix-vector product does not.
    cross = np.matmul(pops[:, None, :], log_tau[:, None])[:, 0, 0]
    p_cl = np.maximum(xlogx(pops).sum(axis=1) - cross, 0.0)
    # S(diag rho) summed in ascending order, the order of the spectra: for a state with
    # no coherence both sums add the same numbers in the same order, so C is exactly 0
    c_coh = np.maximum(_shannon(np.sort(pops, axis=1)) - s_rho, 0.0)
    pi = spohn_rate(grid.times, f_neq, beta) if n >= 3 else np.empty(0)
    return ThermoTrajectory(
        times=grid.times, f_neq=f_neq, d_rel=p_cl + c_coh, p_classical=p_cl,
        c_coherence=c_coh, l1=l1, t1=t1, pi=pi, beta=beta, f_eq=f_eq,
    )


def fit_decay_rate(times, values, t_min=None) -> float:
    """Least-squares slope of ln(values) over the usable tail.

    Points before ``t_min`` or with values at/below ``DECAY_FIT_FLOOR`` are
    excluded; the fit needs at least three surviving points.  ``times``
    enters through :func:`mpemba.spectral.as_times`, and ``values`` must
    have its shape and be finite (a NaN or an infinity raises
    :class:`ValidationError`).
    """
    times = spectral.as_times(times)
    values = np.asarray(values, dtype=float)
    if values.shape != times.shape:
        raise ValidationError(f"values of shape {values.shape} do not match {times.size} times")
    if not np.isfinite(values).all():
        raise ValidationError("values to fit a decay rate must be finite")
    mask = values > DECAY_FIT_FLOOR
    if t_min is not None:
        mask &= times >= t_min
    if mask.sum() < 3:
        raise ValidationError("not enough points above the floor to fit a rate")
    slope, _ = np.polyfit(times[mask], np.log(values[mask]), 1)
    return float(slope)
