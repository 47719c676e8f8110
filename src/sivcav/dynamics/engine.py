"""Lindblad master-equation engine for small driven-dissipative level systems.

Rates and Rabi frequencies are ordinary frequencies (Hz); conversion to
angular units happens only here. Conventions:

* a decay with rate Gamma empties its source population as exp(-2*pi*Gamma*t);
* a dephasing with rate gamma damps the pair coherence as exp(-2*pi*gamma*t);
* the rotating frame is constructed per drive graph, so absolute level
  energies never enter the numerics, only detunings.

The Liouvillian acts on row-major vectorized density matrices:
vec(A rho B) = (A kron B^T) vec(rho).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..constants import TWO_PI
from ..errors import (
    InvalidParameterError,
    RotatingFrameError,
    SteadyStateError,
)

__all__ = [
    "Level", "Drive", "Decay", "Dephasing", "LevelSystem",
    "DensityState", "Trace", "build_liouvillian", "propagate", "evolve",
    "evolve_with_final", "final_state", "steady_state", "steady_states",
]

#: loop-closure tolerance of the rotating-frame check, Hz (absolute, after
#: cancellation of the optical-scale energies; float64 keeps ~0.1 Hz there)
_FRAME_TOL_HZ = 10.0

#: Liouvillian condition number beyond which the null-space solve falls back
#: to long-time propagation.
_CONDITION_LIMIT = 1e12

#: Eigenbasis condition number beyond which `propagate` switches from the
#: eigendecomposition to `scipy.linalg.expm` per time. The eigenvector error
#: grows with this number and reaches ~1e-12 near 1e4.
_EIGENBASIS_CONDITION_LIMIT = 1e4


@dataclass(frozen=True)
class Level:
    label: str
    energy: float  # Hz


@dataclass(frozen=True)
class Drive:
    lower: str
    upper: str
    rabi_freq: float       # Hz
    laser_detuning: float = 0.0  # Hz, laser frequency minus transition frequency


@dataclass(frozen=True)
class Decay:
    source: str
    target: str
    rate: float            # Hz; population decays as exp(-2 pi rate t)
    radiative: bool = True  # counts toward the fluorescence signal


@dataclass(frozen=True)
class Dephasing:
    level_a: str
    level_b: str
    rate: float            # Hz; coherence decays as exp(-2 pi rate t)


class LevelSystem:
    """Validated, immutable description of a driven-dissipative level system."""

    def __init__(self, levels, drives=(), decays=(), dephasings=()):
        self.levels = tuple(levels)
        self.drives = tuple(drives)
        self.decays = tuple(decays)
        self.dephasings = tuple(dephasings)
        self._validate()
        self._index = {lv.label: i for i, lv in enumerate(self.levels)}
        self._frame = self._solve_rotating_frame()
        self._liouvillian = None  # assembled on first use, then read-only

    @property
    def dim(self) -> int:
        return len(self.levels)

    def index(self, label: str) -> int:
        return self._index[label]

    def _validate(self):
        if not self.levels:
            raise InvalidParameterError("LevelSystem needs at least one level")
        labels = [lv.label for lv in self.levels]
        if len(set(labels)) != len(labels):
            raise InvalidParameterError("level labels must be unique")
        known = set(labels)
        for lv in self.levels:
            if not math.isfinite(lv.energy):
                raise InvalidParameterError(f"energy of level {lv.label} must be finite")
        for d in self.drives:
            if d.lower == d.upper:
                raise InvalidParameterError("drive endpoints must be distinct")
            if d.lower not in known or d.upper not in known:
                raise InvalidParameterError(f"drive references unknown level: {d}")
            if d.rabi_freq < 0 or not math.isfinite(d.rabi_freq):
                raise InvalidParameterError("drive rabi_freq must be finite and >= 0")
            if not math.isfinite(d.laser_detuning):
                raise InvalidParameterError("laser_detuning must be finite")
        for d in self.decays:
            if d.source == d.target:
                raise InvalidParameterError("decay source and target must differ")
            if d.source not in known or d.target not in known:
                raise InvalidParameterError(f"decay references unknown level: {d}")
            if d.rate < 0 or not math.isfinite(d.rate):
                raise InvalidParameterError("decay rate must be finite and >= 0")
        for d in self.dephasings:
            if d.level_a == d.level_b:
                raise InvalidParameterError("dephasing pair must be distinct")
            if d.level_a not in known or d.level_b not in known:
                raise InvalidParameterError(f"dephasing references unknown level: {d}")
            if d.rate < 0 or not math.isfinite(d.rate):
                raise InvalidParameterError("dephasing rate must be finite and >= 0")

    def _solve_rotating_frame(self):
        """Frame frequency per level so every drive becomes static.

        Walks the drive graph; a closed loop whose laser frequencies are
        inconsistent (sum mismatch beyond tolerance) has no rotating frame.
        """
        energy = {lv.label: lv.energy for lv in self.levels}
        frame = dict(energy)  # undriven levels rotate at their own energy
        assigned = {lv.label: False for lv in self.levels}
        adj = {lv.label: [] for lv in self.levels}
        for d in self.drives:
            nu_laser = energy[d.upper] - energy[d.lower] + d.laser_detuning
            adj[d.lower].append((d.upper, +nu_laser))
            adj[d.upper].append((d.lower, -nu_laser))
        for root in adj:
            if assigned[root] or not adj[root]:
                continue
            frame[root] = energy[root]
            assigned[root] = True
            stack = [root]
            while stack:
                a = stack.pop()
                for b, step in adj[a]:
                    w_b = frame[a] + step
                    if assigned[b]:
                        if abs(frame[b] - w_b) > _FRAME_TOL_HZ:
                            raise RotatingFrameError(
                                f"drive loop through '{b}' closes with a "
                                f"{frame[b] - w_b:.3g} Hz frequency mismatch")
                    else:
                        frame[b] = w_b
                        assigned[b] = True
                        stack.append(b)
        return frame

    def rotating_frame_shifts(self) -> np.ndarray:
        """Diagonal of the rotating-frame Hamiltonian, Hz."""
        return np.array([lv.energy - self._frame[lv.label] for lv in self.levels])

    def hamiltonian(self) -> np.ndarray:
        """Rotating-frame Hamiltonian in angular units (rad/s)."""
        n = self.dim
        h = np.diag(self.rotating_frame_shifts().astype(complex))
        for d in self.drives:
            i, j = self._index[d.lower], self._index[d.upper]
            h[j, i] += 0.5 * d.rabi_freq
            h[i, j] += 0.5 * d.rabi_freq
        return TWO_PI * h

    def collapse_operators(self):
        """Angular-rate collapse operators for all decays and dephasings."""
        n = self.dim
        ops = []
        for d in self.decays:
            c = np.zeros((n, n), dtype=complex)
            c[self._index[d.target], self._index[d.source]] = math.sqrt(TWO_PI * d.rate)
            ops.append(c)
        for d in self.dephasings:
            c = np.zeros((n, n), dtype=complex)
            amp = math.sqrt(math.pi * d.rate)  # coherence decays at 2*pi*rate
            c[self._index[d.level_a], self._index[d.level_a]] = amp
            c[self._index[d.level_b], self._index[d.level_b]] = -amp
            ops.append(c)
        return ops

    def radiative_rates(self) -> np.ndarray:
        """Per-level total radiative decay rate (Hz), for the signal observable."""
        rates = np.zeros(self.dim)
        for d in self.decays:
            if d.radiative:
                rates[self._index[d.source]] += d.rate
        return rates


@dataclass(frozen=True)
class DensityState:
    """Validated density matrix."""

    rho: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=complex)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise InvalidParameterError("rho must be a square matrix")
        if not np.all(np.isfinite(rho)):
            raise InvalidParameterError("rho must be finite")
        if np.max(np.abs(rho - rho.conj().T)) > 1e-10:
            raise InvalidParameterError("rho must be Hermitian within 1e-10")
        if abs(np.trace(rho).real - 1.0) > 1e-9:
            raise InvalidParameterError("rho must have unit trace within 1e-9")
        if np.min(np.linalg.eigvalsh(rho)) < -1e-9:
            raise InvalidParameterError("rho must be positive within -1e-9")
        object.__setattr__(self, "rho", rho)

    @classmethod
    def from_populations(cls, populations) -> "DensityState":
        populations = np.asarray(populations, dtype=float)
        return cls(np.diag(populations.astype(complex)))

    @classmethod
    def pure(cls, dim: int, index: int) -> "DensityState":
        rho = np.zeros((dim, dim), dtype=complex)
        rho[index, index] = 1.0
        return cls(rho)

    def populations(self) -> np.ndarray:
        return np.real(np.diag(self.rho))


@dataclass(frozen=True)
class Trace:
    """Time series of a simulated fluorescence experiment."""

    times: np.ndarray        # s
    signal: np.ndarray       # Hz (radiative decay flux), plus any background
    populations: np.ndarray  # shape (n_times, n_levels)
    labels: tuple = ()

    def __post_init__(self):
        if len(self.times) != len(self.signal) or len(self.times) != len(self.populations):
            raise InvalidParameterError("trace arrays must have equal length")
        if np.any(np.asarray(self.signal) < 0):
            raise InvalidParameterError("trace signal must be non-negative")
        sums = np.asarray(self.populations).sum(axis=1)
        if np.max(np.abs(sums - 1.0)) > 1e-8:
            raise InvalidParameterError(
                "trace populations must sum to 1 within 1e-8 at every time")


def _liouvillians(systems) -> np.ndarray:
    """(N, n^2, n^2) Lindblad superoperators of same-dimension systems, 1/s.

    New systems are assembled together (one broadcast Kronecker product for
    the Hamiltonians, one dissipator per distinct (levels, decays,
    dephasings)); each result is kept on its system, read-only, and reused.
    """
    todo = [s for s in systems if s._liouvillian is None]
    if todo:
        h = np.stack([s.hamiltonian() for s in todo])
        n = h.shape[-1]
        eye = np.eye(n, dtype=complex)
        ht = np.swapaxes(h, 1, 2)
        lv = h[:, :, None, :, None] * eye[:, None, :]  # kron(h, 1)
        lv -= eye[:, None, :, None] * ht[:, None, :, None, :]  # kron(1, h.T)
        lv *= -1j
        dissipators = {}
        for s, row in zip(todo, lv.reshape(len(todo), n * n, n * n)):
            key = (tuple(level.label for level in s.levels), s.decays, s.dephasings)
            if key not in dissipators:
                d = dissipators[key] = np.zeros_like(row)
                for c in s.collapse_operators():
                    cdc = c.conj().T @ c
                    d += np.kron(c, c.conj())
                    d -= 0.5 * (np.kron(cdc, eye) + np.kron(eye, cdc.T))
            row += dissipators[key]
            row.flags.writeable = False
            s._liouvillian = row
    return np.stack([s._liouvillian for s in systems])


def build_liouvillian(sys: LevelSystem) -> np.ndarray:
    """Dense N^2 x N^2 Lindblad superoperator in angular units (1/s)."""
    return _liouvillians([sys])[0]


def _signal_from_populations(sys: LevelSystem, pops: np.ndarray) -> np.ndarray:
    raw = pops @ sys.radiative_rates()
    # clamp propagation roundoff only; genuinely negative flux still surfaces
    # through the Trace validation
    scale = max(float(np.max(np.abs(raw))), 1.0)
    return np.where((raw < 0) & (raw > -1e-9 * scale), 0.0, raw)


def propagate(lv: np.ndarray, y0: np.ndarray, dts) -> np.ndarray:
    """exp(lv * t) @ y0 for every t in `dts`; shape (len(dts), len(y0)).

    Exact for a time-independent generator: one eigendecomposition
    lv = V diag(lam) V^-1 serves all times. When the eigenbasis is
    ill-conditioned (near an exceptional point) the matrix exponential is
    evaluated per time by scaling and squaring instead (Moler & Van Loan,
    SIAM Rev. 45, 3 (2003); Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31,
    970 (2009)).
    """
    dts = np.asarray(dts, dtype=float)
    lam, vecs = np.linalg.eig(lv)
    if np.linalg.cond(vecs) > _EIGENBASIS_CONDITION_LIMIT:
        from scipy.linalg import expm
        return np.array([expm(lv * t) @ y0 for t in dts])
    coeffs = np.linalg.solve(vecs, y0)
    return (np.exp(np.outer(dts, lam)) * coeffs) @ vecs.T


def _propagate_states(sys: LevelSystem, rho0: DensityState, dts) -> np.ndarray:
    """Re-Hermitized density matrices at each elapsed time in `dts`."""
    n = sys.dim
    if rho0.rho.shape[0] != n:
        raise InvalidParameterError("rho0 dimension does not match the system")
    ys = propagate(build_liouvillian(sys), rho0.rho.reshape(-1), dts)
    rhos = ys.reshape(-1, n, n)
    return 0.5 * (rhos + np.conj(np.transpose(rhos, (0, 2, 1))))


def evolve_with_final(sys: LevelSystem, rho0: DensityState, times):
    """Like `evolve`, but also returns the density matrix at the last time."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0:
        raise InvalidParameterError("times must be a non-empty 1-d array")
    if len(times) > 1 and not np.all(np.diff(times) > 0):
        raise InvalidParameterError("times must be strictly increasing")
    rhos = _propagate_states(sys, rho0, times - times[0])
    pops = np.real(np.diagonal(rhos, axis1=1, axis2=2))
    trace = Trace(times, _signal_from_populations(sys, pops), pops,
                  tuple(lv.label for lv in sys.levels))
    rho_end = rhos[-1] / np.trace(rhos[-1]).real
    return trace, DensityState(rho_end)


def evolve(sys: LevelSystem, rho0: DensityState, times) -> Trace:
    """Propagate the master equation and sample at the given times.

    `times` must be strictly increasing; the first entry is the start time.
    """
    trace, _ = evolve_with_final(sys, rho0, times)
    return trace


def final_state(sys: LevelSystem, rho0: DensityState,
                duration: float) -> DensityState:
    """Density matrix after evolving for `duration` seconds."""
    if not (math.isfinite(duration) and duration >= 0):
        raise InvalidParameterError("duration must be finite and >= 0")
    rho = _propagate_states(sys, rho0, [duration])[0]
    return DensityState(rho / np.trace(rho).real)


def _slowest_timescale(sys: LevelSystem) -> float:
    rates = [d.rate for d in sys.decays if d.rate > 0]
    rates += [d.rate for d in sys.dephasings if d.rate > 0]
    rates += [d.rabi_freq for d in sys.drives if d.rabi_freq > 0]
    if not rates:
        raise SteadyStateError("system has no dissipation; no steady state")
    return 1.0 / (TWO_PI * min(rates))


def steady_states(systems) -> np.ndarray:
    """Stationary density matrices of same-dimension systems, shape (N, n, n).

    One batched SVD of the Liouvillian stack. Each system needs a
    one-dimensional null space, else SteadyStateError names the first failing
    system's fault; poorly conditioned rows fall back to long-time propagation.
    """
    systems = list(systems)
    if len({s.dim for s in systems}) != 1:
        raise InvalidParameterError("steady_states needs systems, all of one dimension")
    n = systems[0].dim
    lv = _liouvillians(systems)
    _u, s, vh = np.linalg.svd(lv)
    null_dim = np.sum(s < 1e-10 * s[:, :1], axis=1)  # 0 for a zero Liouvillian
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = s[:, 0] / s[:, -2] if n > 1 else s[:, 0]  # read where null_dim == 1
    rho = vh[:, -1].conj().reshape(-1, n, n)
    rho = 0.5 * (rho + np.conj(np.swapaxes(rho, 1, 2)))
    tr = np.trace(rho, axis1=1, axis2=2).real
    traceless = np.abs(tr) < 1e-12
    rho = rho / np.where(traceless, 1.0, tr)[:, None, None]
    w_min = np.linalg.eigvalsh(rho).min(axis=1)
    flagged = (null_dim != 1) | (cond > _CONDITION_LIMIT) | traceless | (w_min < -1e-9)
    for i in np.flatnonzero(flagged):
        if not np.any(lv[i]):
            raise SteadyStateError("zero Liouvillian has no unique steady state")
        if null_dim[i] == 0:
            raise SteadyStateError("Liouvillian has no null vector (numerical)")
        if null_dim[i] > 1:
            raise SteadyStateError(
                f"steady state is not unique: null space dimension {null_dim[i]}")
        if cond[i] > _CONDITION_LIMIT:  # long-time propagation fallback
            horizon = 50.0 * _slowest_timescale(systems[i])
            rho0 = DensityState(np.eye(n, dtype=complex) / n)
            rho[i] = final_state(systems[i], rho0, horizon).rho
        elif traceless[i]:
            raise SteadyStateError("null vector is traceless; no physical steady state")
        else:
            raise SteadyStateError(f"steady state not positive (min eig {w_min[i]:.2e})")
    return rho


def steady_state(sys: LevelSystem) -> DensityState:
    """Stationary density matrix: the one-system case of `steady_states`."""
    return DensityState(steady_states([sys])[0])
