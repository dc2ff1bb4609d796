"""Engineering the genuine quantum Mpemba effect with an exact unitary.

The exact transform is a two-step unitary: first diagonalize the state in
the energy eigenbasis (killing every coherence-sector overlap at once),
then permute the resulting populations into ascending order against the
ascending energies (a full population inversion, which maximizes the
non-equilibrium free energy among all unitaries).  A genuine Mpemba effect
is certified when the transformed state starts at higher F_neq yet its
curve crosses below the original's at a finite time and stays below.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .operators import DensityMatrix, HermitianOperator, SpectralBasis, as_state
from .spectral import GeneratorSpectrum
from .thermo import ThermoTrajectory, noneq_free_energy
from .utils import haar_unitary

#: Overlap magnitude below which a mode counts as eliminated.
ELIMINATION_TOL = 1e-10


def exact_transform(rho, basis: SpectralBasis) -> tuple[DensityMatrix, np.ndarray]:
    """Return (rho', U) with rho' = U rho U^dag diagonal and fully inverted.

    rho' is diagonal in the energy eigenbasis with its populations sorted
    ascending against the ascending energies; the spectrum of rho is
    preserved exactly.  Degenerate state eigenvalues are broken by the
    eigensolver's stable ordering (rho' is unique regardless).  ``rho``
    enters through :func:`mpemba.operators.as_state`.
    """
    rho = as_state(rho, basis.dim)
    eigs, w = np.linalg.eigh(rho.entries)  # ascending eigenvalues
    # U maps the k-th state eigenvector onto the k-th energy eigenvector
    u = basis.vectors @ w.conj().T
    rho_prime = DensityMatrix(basis.from_eigenbasis(np.diag(eigs).astype(complex)))
    return rho_prime, u


def verify_overlap_elimination(spectrum: GeneratorSpectrum, rho_prime) -> dict[int, float]:
    """|Tr(l_k rho')| for every coherence-sector mode k.

    The caller asserts against ``ELIMINATION_TOL``; this function only
    reports, so negative controls (untransformed states) can use it too.
    """
    amps = spectrum.amplitudes(rho_prime)
    return {k: float(abs(amps[k - 1])) for k in spectrum.coherent_modes()}


def detect_crossing(traj_a: ThermoTrajectory, traj_b: ThermoTrajectory):
    """First time after which curve b stays strictly below curve a.

    ``traj_b`` must start above ``traj_a`` (that ordering is what makes the
    later crossing a genuine Mpemba effect).  The crossing is bracketed on
    the grid and refined by linear interpolation; ``None`` when curve b
    never stays below through the end of the grid.  Trajectories on
    different or empty grids raise :class:`ValidationError`.
    """
    if traj_a.times.shape != traj_b.times.shape or np.any(traj_a.times != traj_b.times):
        raise ValidationError("trajectories live on different time grids")
    if not traj_a.times.size:
        raise ValidationError("trajectories are empty")
    fa, fb = traj_a.f_neq, traj_b.f_neq
    if fb[0] < fa[0]:
        raise ValidationError("curve b starts below curve a; swap the arguments")
    below = fb < fa
    if not below[-1]:
        return None
    # last index where b is not below; crossing sits just after it
    not_below = np.nonzero(~below)[0]
    i = int(not_below[-1])  # < len - 1, since below[-1] holds
    t0, t1 = traj_a.times[i], traj_a.times[i + 1]
    d0 = fb[i] - fa[i]
    d1 = fb[i + 1] - fa[i + 1]  # d0 >= 0 > d1: the division is safe
    return float(t0 + d0 * (t1 - t0) / (d0 - d1))


@dataclass(frozen=True)
class MajorizationReport:
    """Monte-Carlo check that the inverted state maximizes F_neq."""

    n_samples: int
    all_passed: bool
    max_free_energy_excess: float
    majorization_failures: int


def majorization_check(
    rho_prime,
    basis: SpectralBasis,
    beta: float,
    n_random_unitaries: int,
    seed,
) -> MajorizationReport:
    """Verify F_neq(V rho' V^dag) <= F_neq(rho') over Haar-random unitaries.

    Also checks that the population vector of rho' majorizes that of every
    rotated state (read in the energy eigenbasis).  Sample seeds are derived
    from ``seed`` so the report is deterministic.  ``rho_prime`` and every
    rotated sample are judged as :class:`DensityMatrix`es.  At least one
    sample is needed: ``n_random_unitaries`` < 1 raises
    :class:`ValidationError`.
    """
    if not n_random_unitaries >= 1:
        raise ValidationError(f"n_random_unitaries must be at least 1, not {n_random_unitaries}")
    rho_prime = as_state(rho_prime, basis.dim)
    h = HermitianOperator(basis.hamiltonian())
    f_ref = noneq_free_energy(rho_prime, h, beta)
    p_ref = np.sort(rho_prime.populations(basis))[::-1]
    m = rho_prime.entries
    seeds = np.random.SeedSequence(seed).spawn(n_random_unitaries)

    def sample(seq):
        rng = np.random.default_rng(seq)
        v = haar_unitary(basis.dim, rng)
        rotated = DensityMatrix(v @ m @ v.conj().T)
        f_rot = noneq_free_energy(rotated, h, beta)
        p_rot = np.sort(rotated.populations(basis))[::-1]
        partial_gap = np.min(np.cumsum(p_ref) - np.cumsum(p_rot))
        return f_rot - f_ref, partial_gap

    results = [sample(s) for s in seeds]

    excess = max(r[0] for r in results)
    failures = sum(1 for r in results if r[1] < -1e-10)
    return MajorizationReport(
        n_samples=n_random_unitaries,
        all_passed=bool(excess <= 1e-10 and failures == 0),
        max_free_energy_excess=float(excess),
        majorization_failures=failures,
    )


@dataclass(frozen=True)
class MpembaCertificate:
    """Evidence that a transformation produced a genuine Mpemba effect.

    ``status`` is "ok" when the effect is certifiable, "not-applicable" when
    the input admits no genuine effect (already inverted-diagonal, or the
    equilibrium state itself).
    """

    status: str
    residual_overlaps: dict[int, float] = field(default_factory=dict)
    free_energy_gain: float = 0.0
    crossing_time: float | None = None
    fitted_rates: tuple[float, float] | None = None
    notes: str = ""

    def max_residual(self) -> float:
        return max(self.residual_overlaps.values(), default=0.0)

    def to_text(self) -> str:
        lines = [
            "mpemba certificate",
            f"status: {self.status}",
            f"free_energy_gain: {self.free_energy_gain:.17g}",
            f"crossing_time: {'none' if self.crossing_time is None else f'{self.crossing_time:.17g}'}",
        ]
        if self.fitted_rates is not None:
            lines.append(
                f"fitted_rate_before: {self.fitted_rates[0]:.17g}"
            )
            lines.append(
                f"fitted_rate_after: {self.fitted_rates[1]:.17g}"
            )
        lines.append(f"max_residual_overlap: {self.max_residual():.3e}")
        lines.append("residual_overlaps:")
        for k in sorted(self.residual_overlaps):
            lines.append(f"  mode {k}: {self.residual_overlaps[k]:.17g}")
        if self.notes:
            lines.append(f"notes: {self.notes}")
        return "\n".join(lines) + "\n"
