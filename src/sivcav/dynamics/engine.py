"""Lindblad master-equation engine for small driven-dissipative level systems.

Rates and Rabi frequencies are ordinary frequencies (Hz); conversion to
angular units happens only here. Conventions:

* a decay with rate Gamma empties its source population as exp(-2*pi*Gamma*t);
* a dephasing with rate gamma damps the pair coherence as exp(-2*pi*gamma*t);
* the rotating frame is constructed per drive tree (drives that close a
  loop are rejected), so absolute level energies never enter the numerics,
  only detunings.

The Liouvillian acts on row-major vectorized density matrices:
vec(A rho B) = (A kron B^T) vec(rho).
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from ..constants import TWO_PI
from ..errors import (
    DomainError,
    InvalidParameterError,
    RotatingFrameError,
    SteadyStateError,
)

__all__ = [
    "Level", "Drive", "Decay", "Dephasing", "LevelSystem", "Trace",
    "propagate", "detuned_steady_states",
]

#: 1-norm condition number of the trace-bordered Liouvillian beyond which the
#: steady state counts as not unique. Below it, LU with partial pivoting keeps
#: the normwise relative error of the solved state within about
#: cond * u = 1e14 * 1.1e-16 ~ 1e-2 (u the unit roundoff); a singular
#: bordered matrix reads inf or near 1/u.
_BORDERED_CONDITION_LIMIT = 1e14

#: Relative size below which a singular value of a failed steady-state row
#: counts toward its null space. Rates that span more than its inverse put
#: the slow ones below it too, so the count no longer tells a null space
#: from float64 roundoff.
_NULL_SPACE_RTOL = 1e-10

#: Largest ||L||_1 * t that `propagate` accepts. The eigenvalues of L, and
#: the scaled-and-squared exponential alike, carry an absolute roundoff of
#: about u ||L||_1 (u = 2^-53, the unit roundoff), so exp(L t) carries a
#: relative error of about u ||L||_1 t, and so does the trace of each state.
#: That error must stay below the 1e-8 tolerance on the populations' sum of
#: a `Trace`: ||L||_1 t < 1e-8 / u, about 9.0e7.
_MAX_NORM_TIME = 1e-8 / 2.0 ** -53

#: Eigenbasis condition number beyond which `propagate` switches from the
#: eigendecomposition to `scipy.linalg.expm` per time. The eigenvector error
#: grows with this number and reaches ~1e-12 near 1e4.
_EIGENBASIS_CONDITION_LIMIT = 1e4


@dataclass(frozen=True)
class Level:
    label: str
    energy: float  # Hz; models pass 0.0, as the frame uses only detunings


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
        self._frame_map = self._solve_rotating_frame()
        self._l0 = None           # detuning-free Liouvillian; first use, then read-only
        self._eigenbasis = None   # (lam, V) or (); computed on first propagation

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
        """(n_levels, n_drives) map from detunings to frame shifts.

        Walks the drive graph: a drive lower -> upper with laser detuning d
        gives shift(upper) = shift(lower) - d, so each level's shift is a 0/+-1
        combination of detunings (the first level of each connected drive
        graph, and every undriven level, has shift 0). Absolute level
        energies never enter. The drives must form a tree on each connected
        set of levels: a walk that reaches a level along a second path finds
        a different 0/+-1 row there, and raises RotatingFrameError naming
        that level.
        """
        frame_map = np.zeros((self.dim, len(self.drives)))
        assigned = [False] * self.dim
        adj = [[] for _ in self.levels]
        for k, d in enumerate(self.drives):
            i, j = self._index[d.lower], self._index[d.upper]
            adj[i].append((j, k, -1.0))
            adj[j].append((i, k, +1.0))
        for root in range(self.dim):
            if assigned[root] or not adj[root]:
                continue
            assigned[root] = True
            stack = [root]
            while stack:
                a = stack.pop()
                for b, k, sign in adj[a]:
                    row = frame_map[a].copy()
                    row[k] += sign  # shift of b along this drive
                    if not assigned[b]:
                        frame_map[b] = row
                        assigned[b] = True
                        stack.append(b)
                    elif np.any(row != frame_map[b]):
                        raise RotatingFrameError(
                            f"drives close a loop through '{self.levels[b].label}': "
                            "the drives of a level system must form a tree")
        return frame_map

    def _frame_shifts(self, detunings) -> np.ndarray:
        """Frame shift per level (Hz) for detunings of shape (..., n_drives).

        Summed drive by drive, so a stack of detunings and a single system
        round alike.
        """
        detunings = np.asarray(detunings, dtype=float)
        shifts = np.zeros(detunings.shape[:-1] + (self.dim,))
        for k in range(len(self.drives)):
            shifts += detunings[..., k, None] * self._frame_map[:, k]
        return shifts

    def rotating_frame_shifts(self) -> np.ndarray:
        """Diagonal of the rotating-frame Hamiltonian, Hz (exact: only
        detunings enter)."""
        return self._frame_shifts([d.laser_detuning for d in self.drives])

    def hamiltonian(self) -> np.ndarray:
        """Rotating-frame Hamiltonian in angular units (rad/s)."""
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

    def _named_rates(self) -> list:
        """(name, Hz) of every drive's Rabi frequency, decay and dephasing."""
        return ([(f"Rabi frequency {d.lower}-{d.upper}", d.rabi_freq)
                 for d in self.drives]
                + [(f"decay rate {d.source}->{d.target}", d.rate)
                   for d in self.decays]
                + [(f"dephasing rate {d.level_a}-{d.level_b}", d.rate)
                   for d in self.dephasings])

    def radiative_rates(self) -> np.ndarray:
        """Per-level total radiative decay rate (Hz), for the signal observable."""
        rates = np.zeros(self.dim)
        for d in self.decays:
            if d.radiative:
                rates[self._index[d.source]] += d.rate
        return rates


def _check_density(rho: np.ndarray) -> None:
    """Raise InvalidParameterError unless every matrix of the (..., n, n)
    stack `rho` is a density matrix, within the tolerances in the messages."""
    if not np.all(np.isfinite(rho)):
        raise InvalidParameterError("rho must be finite")
    herm = np.abs(rho - np.conj(np.swapaxes(rho, -1, -2)))
    if np.max(herm, initial=0.0) > 1e-10:
        raise InvalidParameterError("rho must be Hermitian within 1e-10")
    trace = np.trace(rho, axis1=-2, axis2=-1).real
    if np.max(np.abs(trace - 1.0), initial=0.0) > 1e-9:
        raise InvalidParameterError("rho must have unit trace within 1e-9")
    if np.min(np.linalg.eigvalsh(rho), initial=0.0) < -1e-9:
        raise InvalidParameterError("rho must be positive within -1e-9")


def _normalized(rho: np.ndarray) -> np.ndarray:
    """Each matrix of the (..., n, n) stack `rho` over its trace, checked."""
    rho = rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]
    _check_density(rho)
    return rho


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
        if np.max(np.abs(sums - 1.0), initial=0.0) > 1e-8:
            raise InvalidParameterError(
                "trace populations must sum to 1 within 1e-8 at every time")


def _trace(sys: LevelSystem, times, rhos: np.ndarray, background=0.0) -> Trace:
    """Trace of the (m, n, n) states `rhos` of `sys` sampled at `times`: the
    level populations and the radiative decay flux (Hz) plus `background`."""
    pops = np.real(np.diagonal(rhos, axis1=1, axis2=2))
    raw = pops @ sys.radiative_rates()
    # clamp propagation roundoff only; genuinely negative flux still surfaces
    # through the Trace validation
    scale = np.max(np.abs(raw), initial=1.0)
    signal = np.where((raw < 0) & (raw > -1e-9 * scale), 0.0, raw) + background
    return Trace(times, signal, pops, tuple(lv.label for lv in sys.levels))


def _frame_free_liouvillian(sys: LevelSystem) -> np.ndarray:
    """L0 of `sys`, 1/s: the (n^2, n^2) superoperator of the drive
    Hamiltonian with its diagonal zeroed plus the Lindblad dissipator.

    Assembled on first use and kept on the system, read-only. Each Kronecker
    product is a broadcast on an (n, n, n, n) view; the collapse operators
    are added one by one, in the order of `collapse_operators`. Raises
    DomainError, naming the largest rate, when an entry overflows float64.
    """
    if sys._l0 is None:
        n = sys.dim
        eye = np.eye(n, dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            h = sys.hamiltonian()
            np.fill_diagonal(h, 0.0)
            lv = h[:, None, :, None] * eye[None, :, None, :]  # kron(h, 1)
            lv -= eye[:, None, :, None] * h.T[None, :, None, :]  # kron(1, h.T)
            lv *= -1j
            for c in sys.collapse_operators():
                cdc = c.conj().T @ c
                lv += c[:, None, :, None] * c.conj()[None, :, None, :]  # kron(c, c*)
                lv -= 0.5 * (cdc[:, None, :, None] * eye[None, :, None, :]  # kron(cdc, 1)
                             + eye[:, None, :, None] * cdc.T[None, :, None, :])  # kron(1, cdc.T)
        if not np.all(np.isfinite(lv)):
            name, rate = max(sys._named_rates(), key=lambda item: item[1])
            raise DomainError(f"Liouvillian overflows float64: {name} is {rate:.3g} Hz")
        sys._l0 = lv.reshape(n * n, n * n)
        sys._l0.flags.writeable = False
    return sys._l0


def _detuned_diagonals(sys: LevelSystem, detunings) -> np.ndarray:
    """(N, n^2) diagonals of the Lindblad superoperators of `sys`, 1/s, with
    its laser detunings replaced by each row of `detunings` (shape
    (N, n_drives)).

    Detunings enter the rotating-frame Liouvillian only on its diagonal:
    L = L0 - i 2 pi (s_a - s_b) at vec index (a, b), with s the frame shifts.
    """
    w = TWO_PI * sys._frame_shifts(detunings)
    return (np.diagonal(_frame_free_liouvillian(sys))
            + -1j * (w[:, :, None] - w[:, None, :]).reshape(len(w), -1))


def _detuned_liouvillians(sys: LevelSystem, detunings) -> np.ndarray:
    """(N, n^2, n^2) Lindblad superoperators of `sys`, 1/s, with its laser
    detunings replaced by each row of `detunings` (shape (N, n_drives)):
    L0 with the diagonals of `_detuned_diagonals`."""
    diags = _detuned_diagonals(sys, detunings)
    lv = np.repeat(_frame_free_liouvillian(sys)[None], len(diags), axis=0)
    idx = np.arange(sys.dim ** 2)
    lv[:, idx, idx] = diags
    return lv


def _liouvillian(sys: LevelSystem) -> np.ndarray:
    """Dense n^2 x n^2 Lindblad superoperator of `sys` at its own laser
    detunings, in angular units (1/s)."""
    return _detuned_liouvillians(sys, [[d.laser_detuning for d in sys.drives]])[0]


def _norm1(sys: LevelSystem) -> float:
    """||L||_1 of `sys` at its own detunings: the column sums of its cached
    L0 with the diagonal detuned, so that L itself is not assembled."""
    l0 = _frame_free_liouvillian(sys)
    diag = _detuned_diagonals(sys, [[d.laser_detuning for d in sys.drives]])[0]
    with np.errstate(over="ignore"):
        return float(np.max(np.abs(l0).sum(axis=0) - np.abs(np.diagonal(l0))
                            + np.abs(diag)))


def _eigenbasis(sys: LevelSystem):
    """(lam, V) with L = V diag(lam) V^-1 for the Liouvillian L of `sys`, or
    () when V is too ill-conditioned and `propagate` uses `expm`. Computed
    on first use and kept on the system, read-only, next to its L0."""
    if sys._eigenbasis is None:
        lam, vecs = np.linalg.eig(_liouvillian(sys))
        if np.linalg.cond(vecs) > _EIGENBASIS_CONDITION_LIMIT:
            sys._eigenbasis = ()
        else:
            lam.flags.writeable = vecs.flags.writeable = False
            sys._eigenbasis = (lam, vecs)
    return sys._eigenbasis


def propagate(sys: LevelSystem, rho0, dts) -> np.ndarray:
    """States exp(L t) rho0 of `sys` at every elapsed time t in `dts`.

    `rho0` is one (n, n) state or an (m, n, n) stack; the result has shape
    rho0.shape[:-2] + (len(dts), n, n) and is re-Hermitized, not
    renormalized. Exact: the cached eigenbasis of L serves every state and
    time. Near an exceptional point it is ill-conditioned, and the matrix
    exponential is evaluated once per time by scaling and squaring instead
    (Moler & Van Loan, SIAM Rev. 45, 3 (2003); Al-Mohy & Higham, SIAM J.
    Matrix Anal. Appl. 31, 970 (2009)). The level populations along a
    trajectory are the diagonals of the result. Raises DomainError when
    ||L||_1 times the longest time exceeds `_MAX_NORM_TIME`.
    """
    n = sys.dim
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.ndim not in (2, 3) or rho0.shape[-2:] != (n, n):
        raise InvalidParameterError(
            f"rho0 must have shape ({n}, {n}) or (m, {n}, {n}) for this system")
    dts = np.asarray(dts, dtype=float)
    if dts.ndim != 1 or not np.all(np.isfinite(dts) & (dts >= 0)):
        raise InvalidParameterError("duration must be finite and >= 0")
    norm_time = _norm1(sys) * np.max(dts, initial=0.0)
    if not norm_time <= _MAX_NORM_TIME:
        raise DomainError(
            f"||L||_1 * t = {norm_time:.3g} exceeds {_MAX_NORM_TIME:.3g}, beyond "
            "which float64 roundoff breaks the 1e-8 trace tolerance")
    y0 = rho0.reshape(-1, n * n)
    basis = _eigenbasis(sys)
    if basis:
        lam, vecs = basis
        coeffs = np.linalg.solve(vecs, y0.T).T
        ys = (np.exp(np.outer(dts, lam)) * coeffs[:, None, :]) @ vecs.T
    else:
        from scipy.linalg import expm
        lv = _liouvillian(sys)
        ys = np.empty((len(y0), len(dts), n * n), dtype=complex)
        for k, t in enumerate(dts):
            ys[:, k] = y0 @ expm(lv * t).T
    rhos = ys.reshape(rho0.shape[:-2] + (len(dts), n, n))
    return 0.5 * (rhos + np.conj(np.swapaxes(rhos, -1, -2)))


def _bordered_steady_states(lv: np.ndarray) -> np.ndarray:
    """Stationary density matrices of an (N, n^2, n^2) Liouvillian stack.

    The direct method (Johansson, Nation & Nori, Comput. Phys. Commun. 184,
    1234 (2013)): row 0 of each Liouvillian, the rho_00 equation, becomes the
    trace row vec(1)^T, and the state is column 0 of the bordered inverse,
    one batched factorisation that also gives the 1-norm condition number
    ||B||_1 ||B^-1||_1. A Lindblad generator preserves the trace, so the
    replaced row is a combination of the other population rows.
    SteadyStateError names the first failing row's fault: a zero
    Liouvillian, a steady state that is not unique (bordered matrix
    numerically singular; an SVD of that row counts the null space), or one
    that is not positive.
    """
    n = math.isqrt(lv.shape[-1])
    bordered = lv.copy()
    bordered[:, 0] = np.eye(n).reshape(-1)
    try:
        inv = np.linalg.inv(bordered)
    except np.linalg.LinAlgError:
        # an exactly singular row fails the batch; it keeps a NaN inverse
        inv = np.full_like(bordered, np.nan)
        for i, b in enumerate(bordered):
            with contextlib.suppress(np.linalg.LinAlgError):
                inv[i] = np.linalg.inv(b)
    with np.errstate(over="ignore", invalid="ignore"):
        cond = (np.linalg.norm(bordered, 1, axis=(1, 2))
                * np.linalg.norm(inv, 1, axis=(1, 2)))
    unique = cond < _BORDERED_CONDITION_LIMIT  # False for a NaN condition
    rho = np.where(unique[:, None], inv[:, :, 0], 0.0).reshape(-1, n, n)
    rho = 0.5 * (rho + np.conj(np.swapaxes(rho, 1, 2)))
    w_min = np.linalg.eigvalsh(rho).min(axis=1)
    for i in np.flatnonzero(~unique | (w_min < -1e-9)):
        if not np.any(lv[i]):
            raise SteadyStateError("zero Liouvillian has no unique steady state")
        if not unique[i]:
            s = np.linalg.svd(lv[i], compute_uv=False)
            raise SteadyStateError("steady state is not unique: null space "
                                   f"dimension {np.sum(s < _NULL_SPACE_RTOL * s[0])}")
        raise SteadyStateError(f"steady state not positive (min eig {w_min[i]:.2e})")
    return rho


def detuned_steady_states(template: LevelSystem, detunings) -> np.ndarray:
    """Steady states of `template` with its laser detunings replaced by each
    row of `detunings` (shape (N, n_drives), Hz, in drive order); (N, n, n).

    One stack serves a whole scan or, with the system's own detunings as
    the single row, one steady state. The template's L0 is assembled once
    and each row adds its frame diagonal (see `_detuned_liouvillians`); the
    stack is solved by `_bordered_steady_states`, and the first failing row
    raises. Each row is bit for bit the steady state of its own system. A
    failure is a DomainError that names the two rates when the template's
    nonzero rates span more than 1 / `_NULL_SPACE_RTOL`.
    """
    detunings = np.asarray(detunings, dtype=float)
    if (detunings.ndim != 2 or len(detunings) == 0
            or detunings.shape[1] != len(template.drives)):
        raise InvalidParameterError(
            "detuned_steady_states needs detunings of shape (N >= 1, n_drives)")
    if not np.all(np.isfinite(detunings)):
        raise InvalidParameterError("laser_detuning must be finite")
    lv = _detuned_liouvillians(template, detunings)
    try:
        return _bordered_steady_states(lv)
    except SteadyStateError:
        rates = sorted((rate, name) for name, rate in template._named_rates()
                       if rate > 0)
        if rates and rates[-1][0] > rates[0][0] / _NULL_SPACE_RTOL:
            (lo, lo_name), (hi, hi_name) = rates[0], rates[-1]
            raise DomainError(
                f"rates span {hi / lo:.3g}, from the {lo_name} at {lo:.3g} Hz "
                f"to the {hi_name} at {hi:.3g} Hz: beyond "
                f"{1 / _NULL_SPACE_RTOL:.0e}, float64 cannot resolve the "
                "steady state") from None
        raise

