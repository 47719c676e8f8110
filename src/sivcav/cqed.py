"""Cavity-QED parameter algebra.

Relates measured linewidths to the coupled-system figures of merit: Q factors,
detuning-dependent Purcell broadening and the cooperativity

    C = 4 g^2 / (kappa * gamma0).

All linewidths are FWHM in ordinary frequency (Hz). The detuning dependence of
the Purcell enhancement uses the bad-cavity Lorentzian filter

    L(Delta) = 1 / (1 + (2*Delta/kappa)^2).

That adiabatic elimination holds where kappa greatly exceeds both g and
gamma0. `cooperativity_report` enforces it: the closed-form linewidth at the
inferred C must match the exact single-excitation linewidth
(`single_excitation_linewidth`) within `BAD_CAVITY_RTOL`.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import DomainError, InvalidParameterError

__all__ = [
    "q_factor",
    "purcell_broadened_linewidth",
    "cooperativity_from_linewidths",
    "g_from_cooperativity",
    "single_excitation_linewidth",
    "BAD_CAVITY_RTOL",
]

#: largest relative miss of the closed-form Purcell-broadened linewidth
#: against `single_excitation_linewidth` that counts as the bad-cavity regime
BAD_CAVITY_RTOL = 1e-2


def q_factor(resonance_freq: float, fwhm: float) -> float:
    """Quality factor Q = resonance frequency / FWHM."""
    if resonance_freq <= 0 or fwhm <= 0:
        raise InvalidParameterError("resonance_freq and fwhm must be positive")
    return resonance_freq / fwhm


def lorentz_filter(detuning, kappa):
    """Cavity Lorentzian filter L(Delta) = kappa^2 / (kappa^2 + 4 Delta^2)."""
    if kappa <= 0:
        raise InvalidParameterError("kappa must be positive")
    detuning = np.asarray(detuning, dtype=float)
    out = 1.0 / (1.0 + (2.0 * detuning / kappa) ** 2)
    return float(out) if out.ndim == 0 else out


def purcell_broadened_linewidth(c, detuning, kappa, gamma0):
    """Emitter linewidth with cavity enhancement: gamma0 * (1 + C * L(Delta))."""
    if gamma0 <= 0:
        raise InvalidParameterError("gamma0 must be positive")
    if c < 0:
        raise DomainError("cooperativity must be non-negative")
    return gamma0 * (1.0 + c * lorentz_filter(detuning, kappa))


def cooperativity_from_linewidths(gamma_on, gamma0, detuning, kappa):
    """Invert the Purcell broadening model: C = (gamma_on/gamma0 - 1) / L(Delta).

    Returns (c, ok). `ok` is False when gamma_on < gamma0, which can happen in
    noisy data; the returned C is then negative and the caller decides. A C
    that is not finite in float64 (from an infinite kappa, say) raises
    DomainError.
    """
    if gamma0 <= 0:
        raise InvalidParameterError("gamma0 must be positive")
    with np.errstate(invalid="ignore", over="ignore"):  # reported below instead
        filt = lorentz_filter(detuning, kappa)
    if filt == 0.0:
        raise DomainError(f"cavity filter L(Delta) is 0 in float64 at detuning/kappa "
                          f"= {detuning / kappa:.3g}: no cooperativity can be inferred")
    c = (gamma_on / gamma0 - 1.0) / filt
    if not math.isfinite(c):
        raise DomainError(f"cooperativity is {c} in float64 at gamma_on = "
                          f"{gamma_on:.3g} Hz, gamma0 = {gamma0:.3g} Hz, kappa = "
                          f"{kappa:.3g} Hz and detuning = {detuning:.3g} Hz")
    return c, c >= 0.0


def g_from_cooperativity(c, kappa, gamma0):
    """Single-photon Rabi frequency g = sqrt(C * kappa * gamma0 / 4)."""
    if c < 0:
        raise DomainError("cooperativity must be non-negative")
    if kappa <= 0 or gamma0 <= 0:
        raise InvalidParameterError("kappa and gamma0 must be positive")
    g = math.sqrt(c * kappa * gamma0 / 4.0)
    if not math.isfinite(g):
        raise DomainError(f"g is {g} in float64 at C = {c:.3g}, kappa = "
                          f"{kappa:.3g} Hz and gamma0 = {gamma0:.3g} Hz")
    return g


def single_excitation_linewidth(g, detuning, kappa, gamma0):
    """Exact emitter-like linewidth, Hz: -2 Im(lambda) of the eigenvalue
    lambda of the non-Hermitian Hamiltonian on {|e,0>, |g,1>},

        H = [[-i gamma0/2, g], [g, -detuning - i kappa/2]],

    that tends to -i gamma0/2 as g -> 0; for kappa > gamma0 it is the more
    slowly decaying one. A dense eigensolver resolves it only to about
    u * kappa (u the unit roundoff). Here it is det(H) over the cavity-like
    eigenvalue, the root of the characteristic quadratic that suffers no
    cancellation, with H scaled to unit size: full relative precision however
    far kappa exceeds gamma0.
    """
    scale = max(g, abs(detuning), kappa, gamma0)
    a = -0.5j * gamma0 / scale
    d = (-detuning - 0.5j * kappa) / scale
    gs = g / scale
    root = cmath.sqrt(0.25 * (a - d) ** 2 + gs * gs)
    if (root * (a - d).conjugate()).real < 0:
        root = -root  # along (a - d) / 2, so the cavity root keeps d's size
    cavity = 0.5 * (a + d) - root
    return -2.0 * ((a * d - gs * gs) / cavity).imag * scale
