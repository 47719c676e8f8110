"""Analytic magnetostatics of uniformly magnetized cuboid permanent magnets.

Each cuboid is modeled with equivalent magnetic surface charge: a cuboid with
remanence J = mu0*M (tesla) carries charge density +-M on the two faces normal
to each magnetization component. Integrating the charge Coulomb kernel over a
rectangular face has the classic closed form with log and arctan terms; fields
of several magnets superpose linearly.

Coordinate convention for the shipped assembly: z is the chip normal, x the
cavity TE-dipole axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._table import csv_text
from .errors import DomainError, InvalidParameterError

__all__ = [
    "CuboidMagnet",
    "cuboid_field",
    "assembly_field",
    "field_angle",
    "field_map_grid",
    "field_map_to_csv",
    "SURFACE_MARGIN",
]

#: Evaluation closer than this to a magnet face is rejected (meters).
SURFACE_MARGIN = 1e-9


@dataclass(frozen=True)
class CuboidMagnet:
    """Uniformly magnetized block.

    center, dimensions in meters (full edge lengths); magnetization is the
    remanence mu0*M in tesla.
    """

    center: tuple
    dimensions: tuple
    magnetization: tuple

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float)
        d = np.asarray(self.dimensions, dtype=float)
        j = np.asarray(self.magnetization, dtype=float)
        if c.shape != (3,) or d.shape != (3,) or j.shape != (3,):
            raise InvalidParameterError("center, dimensions, magnetization must be 3-vectors")
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(d)) and np.all(np.isfinite(j))):
            raise InvalidParameterError("magnet parameters must be finite")
        if np.any(d <= 0):
            raise InvalidParameterError("all dimensions must be positive")
        object.__setattr__(self, "center", tuple(c))
        object.__setattr__(self, "dimensions", tuple(d))
        object.__setattr__(self, "magnetization", tuple(j))

    def surface_distance(self, points):
        """Distance from each point (one 3-vector, or the rows of an (N, 3)
        array) to the cuboid surface; negative inside."""
        gap = np.abs(np.asarray(points, float) - np.array(self.center)) \
            - 0.5 * np.array(self.dimensions)
        outside = np.linalg.norm(np.maximum(gap, 0.0), axis=-1)
        return np.where(np.all(gap <= 0, axis=-1), np.max(gap, axis=-1), outside)[()]


def _face_component_sums(u_lo, u_hi, v_lo, v_hi, w):
    """Alternating corner sums of the face antiderivatives.

    Returns (S_u, S_v, S_w) for one charged rectangle, where the field of the
    face with charge density sigma is (mu0*sigma/4pi) * (S_u, S_v, S_w) in the
    face-local axes (u, v in plane, w along the face normal). The coordinates
    are scalars or equal-shape arrays, one entry per evaluation point.
    """
    su = sv = sw = 0.0
    for u, sign_u in ((u_hi, 1.0), (u_lo, -1.0)):
        for v, sign_v in ((v_hi, 1.0), (v_lo, -1.0)):
            s = sign_u * sign_v
            r = np.sqrt(u * u + v * v + w * w)
            su += s * (-np.log(v + r))
            sv += s * (-np.log(u + r))
            # arctan2 keeps the solid-angle term continuous across w = 0
            sw += s * np.arctan2(u * v, w * r)
    return su, sv, sw


def _reject(points, bad, why):
    """Raise DomainError naming the first of `points` flagged in `bad`."""
    if np.any(bad):
        point = np.reshape(points, (-1, 3))[np.argmax(np.reshape(bad, -1))]
        raise DomainError(f"field evaluation at {tuple(point.tolist())} {why}")


def cuboid_field(magnet: CuboidMagnet, points) -> np.ndarray:
    """Analytic B field (tesla) of one cuboid at exterior points.

    `points` is one 3-vector (returns a 3-vector) or an (N, 3) array (returns
    (N, 3)). Raises DomainError if any point is inside or within
    SURFACE_MARGIN of a face, or on the extension of an edge line.
    """
    p = np.asarray(points, dtype=float)
    if p.ndim not in (1, 2) or p.shape[-1] != 3 or not np.all(np.isfinite(p)):
        raise InvalidParameterError("points must be finite, of shape (3,) or (N, 3)")
    _reject(p, magnet.surface_distance(p) < SURFACE_MARGIN,
            f"is inside or within {SURFACE_MARGIN} m of the magnet surface")
    return _exterior_field(magnet, p)


def _exterior_field(magnet: CuboidMagnet, p: np.ndarray) -> np.ndarray:
    """`cuboid_field` at finite points `p` known to lie outside the magnet."""
    d = p - np.array(magnet.center)
    half = 0.5 * np.array(magnet.dimensions)
    j = np.array(magnet.magnetization)
    b = np.zeros(p.shape)
    # component J[iw] charges the two faces normal to axis iw
    for iw in range(3):
        if j[iw] == 0.0:
            continue
        iu, iv = (iw + 1) % 3, (iw + 2) % 3
        u_lo, u_hi = d[..., iu] - half[iu], d[..., iu] + half[iu]
        v_lo, v_hi = d[..., iv] - half[iv], d[..., iv] + half[iv]
        for w_face, sigma_sign in ((d[..., iw] - half[iw], 1.0),
                                   (d[..., iw] + half[iw], -1.0)):
            with np.errstate(divide="ignore", invalid="ignore"):
                su, sv, sw = _face_component_sums(u_lo, u_hi, v_lo, v_hi, w_face)
            pref = sigma_sign * j[iw] / (4.0 * np.pi)
            b[..., iu] += pref * su
            b[..., iv] += pref * sv
            b[..., iw] += pref * sw
    _reject(p, ~np.all(np.isfinite(b), axis=-1), "lies on the extension of a "
            "magnet edge, where log(v + r) of the closed form is log(0)")
    return b


def assembly_field(magnets, points) -> np.ndarray:
    """Superposed field of several cuboid magnets at exterior points."""
    out = np.zeros(np.shape(points))
    for m in magnets:
        out += cuboid_field(m, points)
    return out


def field_angle(b, axis) -> float:
    """Signed angle (degrees) between field `b` and `axis`, in (-180, 180].

    The magnitude is the usual angle between the two vectors. The sign is the
    sign of the field component perpendicular to `axis` projected on the chip
    normal z (on x if `axis` is itself along z), so that a mostly-in-plane
    field dipping below the chip plane reports a negative angle.
    """
    b = np.asarray(b, dtype=float)
    axis = np.asarray(axis, dtype=float)
    nb, na = np.linalg.norm(b), np.linalg.norm(axis)
    if nb == 0.0 or na == 0.0:
        raise DomainError("field_angle requires two nonzero vectors")
    a_hat = axis / na
    b_par = float(np.dot(b, a_hat))
    b_perp = b - b_par * a_hat
    theta = math.degrees(math.atan2(np.linalg.norm(b_perp), b_par))
    ref = np.array([0.0, 0.0, 1.0])
    ref = ref - np.dot(ref, a_hat) * a_hat
    if np.linalg.norm(ref) < 1e-12:
        ref = np.array([1.0, 0.0, 0.0])
        ref = ref - np.dot(ref, a_hat) * a_hat
    sign = math.copysign(1.0, float(np.dot(b_perp, ref))) if theta > 0 else 1.0
    angle = sign * theta
    return 180.0 if angle == -180.0 else angle


def field_map_grid(magnets, x_values, y_values, z_values):
    """Evaluate the assembly field on a cartesian grid, row-major over (x, y, z).

    Returns (points, b, masked): the (N, 3) grid points, their (N, 3) fields in
    tesla and an (N,) bool mask. Points inside (or within SURFACE_MARGIN of)
    any magnet are masked instead of raising; their field is reported as zero.
    """
    axes = [np.atleast_1d(np.asarray(a, dtype=float))
            for a in (x_values, y_values, z_values)]
    if any(a.size == 0 or not np.all(np.isfinite(a)) for a in axes):
        raise InvalidParameterError("grid axes must be non-empty and finite")
    points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    masked = np.zeros(len(points), dtype=bool)
    for m in magnets:
        masked |= m.surface_distance(points) < SURFACE_MARGIN
    b = np.zeros(points.shape)
    # the mask holds every surface test; sum in magnet order, as assembly_field
    b[~masked] = sum(_exterior_field(m, points[~masked]) for m in magnets)
    return points, b, masked


def field_map_to_csv(points, b, masked) -> str:
    """Serialize a field map with header x_m,y_m,z_m,bx_t,by_t,bz_t,masked."""
    return csv_text(["x_m", "y_m", "z_m", "bx_t", "by_t", "bz_t", "masked"],
                    [*np.transpose(points), *np.transpose(b), masked],
                    ["%.9e"] * 6 + ["%d"])
