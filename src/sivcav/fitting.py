"""Damped least-squares estimation of every model the analysis pipeline uses.

A small Levenberg-Marquardt trust region with multiplicative damping (factor
10 up/down, initial lambda 1e-3) drives all fits; each shipped model carries
an analytic Jacobian and a deterministic initial-guess heuristic, so the
default path contains no randomness. The CPT dip and the exponential recovery
are mirrors of the Lorentzian and the exponential decay (see `_mirror`).
Parameter uncertainties are 1-sigma values from the residual-scaled
covariance (J^T J)^-1. `lm_fit` is the one entry point: it flags a peak, dip
or exponential whose height is consistent with zero, since a flat trace
constrains no width or timescale, so every caller sees the same flags.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FitError, InvalidParameterError
from .spectrum import Spectrum

__all__ = [
    "Spectrum",
    "FitResult",
    "Model",
    "MODELS",
    "lm_fit",
    "LORENTZIAN",
    "EXP_DECAY",
    "EXP_RECOVERY",
    "SATURATION",
    "CPT_DIP",
    "LINEAR",
]

_LAMBDA0 = 1e-3
_LAMBDA_FACTOR = 10.0
_LAMBDA_MAX = 1e12
_GRAD_RTOL = 1e-10
_STEP_RTOL = 1e-12
_MAX_ITER = 200

# a flat peak, dip or exponential constrains no width or timescale: the index
# of each shape's height parameter, and the flag a fit gets when that height
# is consistent with zero
_NULL_HEIGHT = {
    "lorentzian": (2, "width_unidentifiable"),
    "cpt_dip": (2, "width_unidentifiable"),
    "exponential_decay": (0, "timescale_unidentifiable"),
    "exponential_recovery": (0, "timescale_unidentifiable"),
}


@dataclass(frozen=True)
class FitResult:
    model: str
    param_names: tuple
    params: np.ndarray
    sigmas: np.ndarray
    covariance: np.ndarray
    residual_norm: float
    converged: bool
    n_iterations: int
    flags: tuple = ()

    def __getitem__(self, name: str) -> float:
        return float(self.params[self.param_names.index(name)])

    def sigma_of(self, name: str) -> float:
        return float(self.sigmas[self.param_names.index(name)])

    def as_dict(self) -> dict:
        return {
            "model": self.model,
            "params": {n: {"value": float(v), "sigma": float(s)}
                       for n, v, s in zip(self.param_names, self.params, self.sigmas)},
            "residual_norm": float(self.residual_norm),
            "converged": bool(self.converged),
            "n_iterations": int(self.n_iterations),
            "flags": list(self.flags),
        }


@dataclass(frozen=True)
class Model:
    """Parametric curve: y = func(x, p), with analytic Jacobian d y / d p."""

    name: str
    param_names: tuple
    func: callable
    jac: callable
    guess: callable            # Spectrum -> p0
    lower: tuple = None        # optional per-parameter lower bounds


# overflow and invalid values (data near the float64 range, a step that clips
# a timescale to its tiny lower bound) surface as a rejected step, a flag or
# a singular covariance, never as a warning
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def lm_fit(model: Model, spectrum: Spectrum, p0=None) -> FitResult:
    """Levenberg-Marquardt fit of `model` to `spectrum`.

    Damping update is multiplicative (factor 10); convergence is declared
    when the gradient norm falls below 1e-10 relative to its initial value,
    or when an accepted step changes every parameter by at most 1e-12 of it.
    Steps are clipped to `model.lower`, for at most 200 iterations.
    Non-convergence returns the best parameters found with converged=False;
    so does a fit whose covariance is singular or not finite
    ('singular_covariance'), whose sigmas are then NaN. A Lorentzian or CPT
    dip whose height is consistent with zero (|value| below its own sigma or
    1e-12 of the data span, or a sigma that is not finite) is flagged
    'width_unidentifiable'; an exponential's amplitude likewise,
    'timescale_unidentifiable'.
    """
    x, y = spectrum.x, spectrum.y
    npar = len(model.param_names)
    if len(x) < npar + 1:
        raise FitError(
            f"model '{model.name}' needs at least {npar + 1} points, got {len(x)}")

    if p0 is None:
        p0 = model.guess(spectrum)
    p = np.asarray(p0, dtype=float).copy()
    if p.shape != (npar,):
        raise InvalidParameterError(f"expected {npar} initial parameters")

    lo = np.array(model.lower, dtype=float) if model.lower is not None \
        else np.full(npar, -np.inf)
    if np.any(p < lo):
        raise InvalidParameterError("initial parameters violate the bounds")

    def residuals(params):
        return y - model.func(x, params)

    def jacobian(params):
        return -model.jac(x, params)

    def trial(step):
        """(params, residuals, cost) at p + step clipped to the bounds, or
        None unless that cost is finite and no worse than the current one."""
        p_try = np.maximum(p + step, lo)
        r_try = residuals(p_try)
        cost_try = 0.5 * float(r_try @ r_try)
        if np.isfinite(cost_try) and cost_try <= cost:
            return p_try, r_try, cost_try
        return None

    r = residuals(p)
    cost = 0.5 * float(r @ r)
    jac = jacobian(p)
    if not np.all(np.isfinite(jac)):
        raise FitError(f"model '{model.name}' Jacobian is not finite at p0={p}")
    grad = jac.T @ r
    g0 = max(float(np.max(np.abs(grad))), 1e-300)
    lam = _LAMBDA0
    flags = []
    converged = float(np.max(np.abs(grad))) <= _GRAD_RTOL * g0
    it = 0
    while not converged and it < _MAX_ITER:
        it += 1
        jtj = jac.T @ jac
        diag = np.diag(jtj).copy()
        diag[diag <= 0] = 1.0
        accepted = None
        while lam <= _LAMBDA_MAX:
            damped = jtj + lam * np.diag(diag)
            try:
                step = np.linalg.solve(damped, -grad)
            except np.linalg.LinAlgError:
                step = np.linalg.lstsq(damped, -grad, rcond=None)[0]
            accepted = trial(step)
            if accepted:
                p_new = accepted[0]
                small_step = np.all(np.abs(p_new - p) <= _STEP_RTOL * np.abs(p_new))
                p, r, cost = accepted
                lam = max(lam / _LAMBDA_FACTOR, 1e-15)
                break
            lam *= _LAMBDA_FACTOR
        if not accepted:
            flags.append("damping_exhausted")
            break
        jac = jacobian(p)
        if not np.all(np.isfinite(jac)):
            flags.append("jacobian_overflow")
            break
        grad = jac.T @ r
        converged = small_step or float(np.max(np.abs(grad))) <= _GRAD_RTOL * g0

    if converged:
        # one undamped Gauss-Newton polish step; exact for linear models
        try:
            accepted = trial(np.linalg.solve(jac.T @ jac, -grad))
        except np.linalg.LinAlgError:
            accepted = None
        if accepted:
            p, r, cost = accepted
            jac = jacobian(p)

    jtj = jac.T @ jac
    dof = max(len(x) - npar, 1)
    s2 = 2.0 * cost / dof
    try:
        cov = np.linalg.inv(jtj) * s2
        singular = not np.all(np.isfinite(cov))
    except np.linalg.LinAlgError:
        cov, singular = np.linalg.pinv(jtj) * s2, True
    if singular:
        # a rank-deficient Jacobian, or one beyond the float64 range, leaves
        # some parameters unidentified: a vanishing gradient there is no
        # evidence of convergence, and the covariance's diagonal no uncertainty
        sigmas = np.full(npar, np.nan)
        flags.append("singular_covariance")
        converged = False
    else:
        sigmas = np.sqrt(np.maximum(np.diag(cov), 0.0))
    if model.name in _NULL_HEIGHT:
        k, flag = _NULL_HEIGHT[model.name]
        span = max(abs(np.max(y) - np.min(y)), 1e-300)
        if not math.isfinite(sigmas[k]) or abs(p[k]) < max(sigmas[k], 1e-12 * span):
            flags.append(flag)
    return FitResult(
        model=model.name,
        param_names=tuple(model.param_names),
        params=p,
        sigmas=sigmas,
        covariance=cov,
        residual_norm=math.sqrt(2.0 * cost),
        converged=bool(converged),
        n_iterations=it,
        flags=tuple(flags),
    )


# ---------------------------------------------------------------------------
# shipped models
# ---------------------------------------------------------------------------

def _lorentz(x, p):
    center, fwhm, amplitude, offset = p
    h = 0.5 * fwhm
    return amplitude * h * h / ((x - center) ** 2 + h * h) + offset


def _lorentz_jac(x, p):
    center, fwhm, amplitude, offset = p
    h = 0.5 * fwhm
    d2 = (x - center) ** 2
    den = d2 + h * h
    jac = np.empty((len(x), 4))
    jac[:, 0] = amplitude * h * h * 2.0 * (x - center) / den ** 2
    jac[:, 1] = amplitude * h * d2 / den ** 2  # d/d fwhm = (dh/dfwhm=0.5)*2h*d2/den^2
    jac[:, 2] = h * h / den
    jac[:, 3] = 1.0
    return jac


def _peak_width_guess(x, y, baseline, peak_idx):
    """Full width at half amplitude by linear scanning from the peak."""
    half = baseline + 0.5 * (y[peak_idx] - baseline)
    left = x[0]
    for i in range(peak_idx, 0, -1):
        if (y[i] - half) * (y[i - 1] - half) <= 0:
            left = x[i - 1]
            break
    right = x[-1]
    for i in range(peak_idx, len(x) - 1):
        if (y[i] - half) * (y[i + 1] - half) <= 0:
            right = x[i + 1]
            break
    return abs(right - left)


def _lorentz_guess(spec: Spectrum):
    x, y = spec.x, spec.y
    offset = float(np.min(y))
    peak = int(np.argmax(y))
    amplitude = float(y[peak] - offset)
    fwhm = _peak_width_guess(x, y, offset, peak)
    return np.array([x[peak], fwhm, amplitude, offset])


LORENTZIAN = Model(
    name="lorentzian",
    param_names=("center", "fwhm", "amplitude", "offset"),
    func=_lorentz,
    jac=_lorentz_jac,
    guess=_lorentz_guess,
    lower=(-np.inf, 1e-300, -np.inf, -np.inf),
)


def _exp_decay(t, p):
    amplitude, timescale, offset = p
    return amplitude * np.exp(-t / timescale) + offset


def _exp_decay_jac(t, p):
    amplitude, timescale, offset = p
    e = np.exp(-t / timescale)
    jac = np.empty((len(t), 3))
    jac[:, 0] = e
    jac[:, 1] = amplitude * e * t / timescale ** 2
    jac[:, 2] = 1.0
    return jac


def _exp_decay_guess(spec: Spectrum):
    t, y = spec.x, spec.y
    offset = float(np.mean(y[max(len(y) - max(len(y) // 10, 2), 1):]))
    amplitude = float(y[0] - offset)
    target = offset + amplitude / math.e
    timescale = (t[-1] - t[0]) / 3.0
    sgn = 1.0 if amplitude >= 0 else -1.0
    for i in range(1, len(t)):
        if sgn * (y[i] - target) <= 0:
            timescale = max(t[i] - t[0], (t[1] - t[0]) / 10.0)
            break
    return np.array([amplitude, timescale, offset])


EXP_DECAY = Model(
    name="exponential_decay",
    param_names=("amplitude", "timescale", "offset"),
    func=_exp_decay,
    jac=_exp_decay_jac,
    guess=_exp_decay_guess,
    lower=(-np.inf, 1e-300, -np.inf),
)


def _saturation(power, p):
    gamma0, p_sat = p
    return gamma0 * np.sqrt(1.0 + power / p_sat)


def _saturation_jac(power, p):
    gamma0, p_sat = p
    root = np.sqrt(1.0 + power / p_sat)
    jac = np.empty((len(power), 2))
    jac[:, 0] = root
    jac[:, 1] = -gamma0 * power / (2.0 * p_sat ** 2 * root)
    return jac


def _saturation_guess(spec: Spectrum):
    y = spec.y[np.argsort(spec.x)]
    p_hi = float(np.max(spec.x))
    # the lowest-power linewidth; noise can make it non-positive, and then
    # the first positive one, or the data's scale, stands in
    positive = y[y > 0]
    gamma0 = float(positive[0]) if positive.size \
        else max(float(np.max(np.abs(y))), 1e-300)
    ratio2 = (y[-1] / gamma0) ** 2 - 1.0
    # both stay inside the model's bounds, whatever the sign of the powers
    p_sat = max(p_hi / ratio2 if ratio2 > 0 else p_hi, 1e-300)
    return np.array([gamma0, p_sat])


SATURATION = Model(
    name="saturation",
    param_names=("gamma0", "p_sat"),
    func=_saturation,
    jac=_saturation_jac,
    guess=_saturation_guess,
    lower=(1e-300, 1e-300),
)


def _mirror(base: Model, name: str, param_names: tuple) -> Model:
    """`base` turned upside down: mirror(x, p) = -base(x, S p), where S
    negates the last (baseline) parameter, which must be unbounded.

    The Jacobian is -J_base(x, S p) S and the guess is S times the base
    guess on -y. IEEE negation is exact, so a mirror fit to y takes exactly
    the iterates of a base fit to -y, with the baseline negated.
    """
    flip = np.ones(len(param_names))
    flip[-1] = -1.0
    return Model(
        name=name,
        param_names=param_names,
        func=lambda x, p: -base.func(x, p * flip),
        jac=lambda x, p: -base.jac(x, p * flip) * flip,
        guess=lambda spec: flip * base.guess(Spectrum(spec.x, -spec.y)),
        lower=base.lower,
    )


# recovery(t; A, tau, o) = o - A exp(-t/tau)
EXP_RECOVERY = _mirror(EXP_DECAY, "exponential_recovery",
                       ("amplitude", "timescale", "offset"))
# dip(x; c, w, d, b) = b - d (w/2)^2 / ((x - c)^2 + (w/2)^2)
CPT_DIP = _mirror(LORENTZIAN, "cpt_dip",
                  ("dip_center", "dip_fwhm", "depth", "background"))


def _linear(x, p):
    a, b = p
    return a * x + b


def _linear_jac(x, p):
    jac = np.empty((len(x), 2))
    jac[:, 0] = x
    jac[:, 1] = 1.0
    return jac


LINEAR = Model(
    name="linear",
    param_names=("slope", "intercept"),
    func=_linear,
    jac=_linear_jac,
    guess=lambda s: np.array([
        (s.y[-1] - s.y[0]) / (s.x[-1] - s.x[0]) if s.x[-1] != s.x[0] else 0.0,
        float(np.mean(s.y)),
    ]),
)


MODELS = {m.name: m for m in
          (LORENTZIAN, EXP_DECAY, EXP_RECOVERY, SATURATION, CPT_DIP, LINEAR)}
