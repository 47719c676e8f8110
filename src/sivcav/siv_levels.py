"""SiV ground/excited level structure under strain and magnetic field.

Each manifold (ground or excited) is a spin-orbit doublet treated in the basis

    {|e+ up>, |e+ dn>, |e- up>, |e- dn>}

with the Hamiltonian (all entries in Hz, z = defect symmetry axis)

    H = -lambda_so * (Lz Sz)/hbar^2
        + strain coupling between the orbital branches
          (alpha on the real part, beta on the imaginary part)
        + quench_f * (muB/h) * Bz * Lz/hbar        (orbital Zeeman, z only)
        + g_spin  * (muB/h) * B . S/hbar           (isotropic spin Zeeman)

At zero strain and field this gives two doublets split by lambda_so; strain
increases the splitting to sqrt(lambda_so^2 + 4(alpha^2 + beta^2)); a magnetic
field lifts the spin degeneracy. Four optical lines (A..D, descending
frequency) connect the orbital branches of the two manifolds, and each line
resolves into four spin sublevel transitions (1..4, descending frequency) in a
field. Emitters hosted in nanodiamonds have arbitrary orientation, so the
model carries the symmetry axis explicitly and rotates the lab-frame field
into the defect frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import MU_B_OVER_H
from .errors import DomainError, InvalidParameterError

__all__ = [
    "ManifoldParams",
    "SivModel",
    "OpticalLine",
    "SublevelTransition",
    "TransitionTable",
    "build_hamiltonian",
    "manifold_eigensystem",
    "transition_table",
]

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_ID = np.eye(2, dtype=complex)
# normalized orbital operator basis used for the polarization-summed dipole,
# lifted to the orbit x spin space
_ORBITAL_BASIS = tuple(np.kron(op, _ID) for op in (_ID, _SX, _SY, _SZ))
# orbit x spin operators of the manifold Hamiltonian
_LZ = np.kron(_SZ, _ID)                # Lz/hbar
_LZ_SZ = 0.5 * np.kron(_SZ, _SZ)       # (Lz/hbar)(Sz/hbar)
_S_XYZ = (np.kron(_ID, _SX), np.kron(_ID, _SY), np.kron(_ID, _SZ))  # 2 S/hbar
_SZ_FULL = 0.5 * np.kron(_ID, _SZ)     # Sz/hbar

#: |B| below this (tesla) is treated as exactly zero field.
_ZERO_FIELD_TESLA = 1e-12


@dataclass(frozen=True)
class ManifoldParams:
    """Spin-orbit, strain and Zeeman inputs of one orbital manifold."""

    lambda_so: float        # spin-orbit coupling, Hz
    strain_alpha: float = 0.0   # transverse strain, Hz (real orbital coupling)
    strain_beta: float = 0.0    # transverse strain, Hz (imaginary orbital coupling)
    quench_f: float = 0.1       # orbital Zeeman quenching factor, in [0, 1]
    g_spin: float = 2.0         # spin g-factor

    def __post_init__(self):
        vals = (self.lambda_so, self.strain_alpha, self.strain_beta,
                self.quench_f, self.g_spin)
        if not all(math.isfinite(v) for v in vals):
            raise InvalidParameterError("ManifoldParams fields must be finite")
        if self.lambda_so <= 0:
            raise InvalidParameterError("lambda_so must be positive")
        if not 0.0 <= self.quench_f <= 1.0:
            raise InvalidParameterError("quench_f must lie in [0, 1]")
        if self.g_spin <= 0:
            raise InvalidParameterError("g_spin must be positive")


@dataclass(frozen=True)
class SivModel:
    """Complete emitter model: both manifolds, optical center, field, orientation.

    `b_field` is given in the lab frame; `axis` is the defect symmetry axis in
    the lab frame (normalized on construction). The default axis is lab z.
    """

    ground: ManifoldParams
    excited: ManifoldParams
    zpl_center: float               # weighted central optical frequency, Hz
    b_field: tuple = (0.0, 0.0, 0.0)
    axis: tuple = (0.0, 0.0, 1.0)

    def __post_init__(self):
        if not (math.isfinite(self.zpl_center) and self.zpl_center > 0):
            raise InvalidParameterError("zpl_center must be positive and finite")
        b = np.asarray(self.b_field, dtype=float)
        a = np.asarray(self.axis, dtype=float)
        if b.shape != (3,) or not np.all(np.isfinite(b)):
            raise InvalidParameterError("b_field must be a finite 3-vector")
        if a.shape != (3,) or not np.all(np.isfinite(a)) or not np.any(a):
            raise InvalidParameterError("axis must be a nonzero 3-vector")
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(a)
        if not 0.0 < norm < math.inf:
            # the squares overflow or underflow: scale to a unit component first
            a = a / np.max(np.abs(a))
            norm = np.linalg.norm(a)
        object.__setattr__(self, "b_field", tuple(b))
        object.__setattr__(self, "axis", tuple(a / norm))

    def b_field_defect_frame(self) -> np.ndarray:
        """Rotate the lab-frame field into the defect frame (z' = axis)."""
        z_ax = np.array(self.axis)
        # deterministic in-plane basis; spectra are invariant under rotations
        # about the symmetry axis, so the in-plane choice is free
        trial = np.array([1.0, 0.0, 0.0])
        if abs(np.dot(trial, z_ax)) > 0.9:
            trial = np.array([0.0, 1.0, 0.0])
        x_ax = trial - np.dot(trial, z_ax) * z_ax
        x_ax /= np.linalg.norm(x_ax)
        y_ax = np.cross(z_ax, x_ax)
        b = np.array(self.b_field)
        with np.errstate(over="ignore", invalid="ignore"):
            b_defect = np.array([np.dot(b, x_ax), np.dot(b, y_ax), np.dot(b, z_ax)])
        if not np.all(np.isfinite(b_defect)):
            raise DomainError("defect-frame magnetic field overflows float64")
        return b_defect


def build_hamiltonian(m: ManifoldParams, b_field) -> np.ndarray:
    """4x4 Hermitian manifold Hamiltonian (Hz), field in the defect frame."""
    b = np.asarray(b_field, dtype=float)
    if b.shape != (3,) or not np.all(np.isfinite(b)):
        raise InvalidParameterError("b_field must be a finite 3-vector")
    strain_orb = np.array(
        [[0.0, m.strain_alpha - 1j * m.strain_beta],
         [m.strain_alpha + 1j * m.strain_beta, 0.0]], dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        orbital = m.quench_f * MU_B_OVER_H * b[2] * _LZ
        spin = 0.5 * m.g_spin * MU_B_OVER_H * (
            b[0] * _S_XYZ[0] + b[1] * _S_XYZ[1] + b[2] * _S_XYZ[2])
        h = -m.lambda_so * _LZ_SZ + np.kron(strain_orb, _ID) + orbital + spin
    for name, term in (("spin Zeeman term", spin), ("orbital Zeeman term", orbital),
                       ("manifold Hamiltonian", h)):
        if not np.all(np.isfinite(term)):
            raise DomainError(
                f"{name} overflows float64 (g_spin {m.g_spin:.3g}, "
                f"largest field component {np.max(np.abs(b)):.3g} T)")
    return h


def _fix_degenerate_eigenvectors(w, v):
    """Resolve degenerate pairs into spin-projection eigenstates.

    Within each (numerically) degenerate eigenvalue group the basis returned
    by the dense solver is arbitrary; re-diagonalize Sz there and order by
    ascending <Sz> so the table is deterministic at zero field.
    """
    scale = max(np.max(np.abs(w)), 1.0)
    i = 0
    n = len(w)
    while i < n:
        j = i + 1
        while j < n and abs(w[j] - w[i]) < 1e-9 * scale:
            j += 1
        if j - i > 1:
            block = v[:, i:j]
            sz_block = block.conj().T @ _SZ_FULL @ block
            sz_vals, sz_vecs = np.linalg.eigh(sz_block)
            v[:, i:j] = block @ sz_vecs  # eigh returns ascending <Sz>
        i = j
    # deterministic global phases: largest-magnitude component real positive
    for k in range(n):
        idx = int(np.argmax(np.abs(v[:, k])))
        phase = v[idx, k] / abs(v[idx, k])
        v[:, k] = v[:, k] / phase
    return w, v


def manifold_eigensystem(m: ManifoldParams, b_field):
    """Eigenvalues (ascending, Hz) and eigenvectors of one manifold."""
    w, v = np.linalg.eigh(build_hamiltonian(m, b_field))
    return _fix_degenerate_eigenvectors(w, v)


def _spin_overlap_sq(v_ground: np.ndarray, v_excited: np.ndarray) -> float:
    """Squared spin overlap of two orbit*spin eigenvectors.

    Polarization-summed dipole model: the optical dipole acts on the orbital
    sector only, so the transition strength is summed over a complete orbital
    operator basis and reduces to |<chi_e|chi_g>|^2 for product states.
    """
    total = 0.0
    for op in _ORBITAL_BASIS:
        total += abs(np.vdot(v_excited, op @ v_ground)) ** 2
    return 0.5 * total


@dataclass(frozen=True)
class OpticalLine:
    label: str        # A..D, descending frequency
    frequency: float  # Hz


@dataclass(frozen=True)
class SublevelTransition:
    label: str            # 1..4 within the parent, descending frequency
    parent: str           # A..D
    frequency: float      # Hz
    dipole_weight: float  # normalized within the parent
    spin_character: str   # preserving | flipping | mixed | undefined
    ground_energy: float  # Hz, manifold eigenvalue of the lower state
    excited_energy: float  # Hz, manifold eigenvalue of the upper state
    # indices of the two states into their manifold's ascending eigenvalues;
    # 0 and 1 are the lower orbital branch
    ground_state: int
    excited_state: int


@dataclass(frozen=True)
class TransitionTable:
    optical: tuple
    sublevel: tuple
    delta_gs: float
    delta_es: float
    f_s_ground: float     # Hz, lower-branch spin splittings; 0.0 at zero field
    f_s_excited: float
    spin_resolved: bool   # False at zero field (spin characters undefined)

    def lines_of(self, parent: str):
        return [t for t in self.sublevel if t.parent == parent]


def _spin_character(raw_overlap: float, spin_resolved: bool) -> str:
    if not spin_resolved:
        return "undefined"
    if abs(raw_overlap - 0.5) < 1e-9:
        return "mixed"
    return "preserving" if raw_overlap > 0.5 else "flipping"


def transition_table(model: SivModel) -> TransitionTable:
    """Optical lines A..D and their spin sublevel structure.

    `f_s_ground` and `f_s_excited` are the spin splittings of the lower
    orbital branch of each manifold: exactly 0.0 at zero field, where the
    table is not spin-resolved. Raises DomainError when the manifold energies
    reach the zero-phonon line center, where some line frequency
    zpl + w_e - w_g can be zero or negative.
    """
    b = model.b_field_defect_frame()
    wg, vg = manifold_eigensystem(model.ground, b)
    we, ve = manifold_eigensystem(model.excited, b)
    reach = np.max(np.abs(wg)) + np.max(np.abs(we))
    if not reach < model.zpl_center:
        raise DomainError(
            f"manifold energies reach {reach:.3g} Hz (largest |ground| plus largest "
            f"|excited| eigenvalue), not below the {model.zpl_center:.3g} Hz "
            "zero-phonon line center: an optical line could have no positive frequency")
    spin_resolved = float(np.linalg.norm(b)) > _ZERO_FIELD_TESLA

    # centroids of the lower (0, 1) and upper (2, 3) orbital branch; each
    # parent line joins a ground and an excited branch (0 lower, 1 upper)
    cg = (0.5 * (wg[0] + wg[1]), 0.5 * (wg[2] + wg[3]))
    ce = (0.5 * (we[0] + we[1]), 0.5 * (we[2] + we[3]))
    parents = [(model.zpl_center + ce[eb] - cg[gb], gb, eb)
               for gb, eb in ((0, 1), (1, 1), (0, 0), (1, 0))]

    # label parents A..D, and the lines of each 1..4, by descending frequency
    parents.sort(key=lambda p: -p[0])
    optical = []
    sublevel = []
    for parent_label, (freq, gb, eb) in zip("ABCD", parents):
        optical.append(OpticalLine(parent_label, freq))
        lines = sorted(((model.zpl_center + we[f] - wg[i], i, f)
                        for i in (2 * gb, 2 * gb + 1) for f in (2 * eb, 2 * eb + 1)),
                       key=lambda line: -line[0])
        raw = [_spin_overlap_sq(vg[:, i], ve[:, f]) for _, i, f in lines]
        norm = sum(raw)
        for k, ((f_line, i, f), r) in enumerate(zip(lines, raw), start=1):
            sublevel.append(SublevelTransition(
                label=str(k),
                parent=parent_label,
                frequency=f_line,
                dipole_weight=r / norm if norm > 0 else 0.25,
                spin_character=_spin_character(r, spin_resolved),
                ground_energy=wg[i],
                excited_energy=we[f],
                ground_state=i,
                excited_state=f,
            ))

    return TransitionTable(
        optical=tuple(optical),
        sublevel=tuple(sublevel),
        delta_gs=cg[1] - cg[0],
        delta_es=ce[1] - ce[0],
        f_s_ground=wg[1] - wg[0] if spin_resolved else 0.0,
        f_s_excited=we[1] - we[0] if spin_resolved else 0.0,
        spin_resolved=spin_resolved,
    )
