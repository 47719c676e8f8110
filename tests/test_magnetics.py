import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sivcav.constants import MU_0
from sivcav.errors import DomainError, InvalidParameterError
from sivcav.magnetics import (
    CuboidMagnet,
    assembly_field,
    cuboid_field,
    field_angle,
    field_map_grid,
    field_map_to_csv,
    SURFACE_MARGIN,
)

MAGNET = CuboidMagnet(center=(0.001, -0.002, 0.0005),
                      dimensions=(0.01, 0.006, 0.004),
                      magnetization=(0.3, -1.1, 0.7))

# two-magnet assembly shipped in configs/fig2_magnet_map.cfg
ASSEMBLY = [
    CuboidMagnet((-10.45e-3, 0.0, -4e-3), (10e-3, 10e-3, 10e-3), (1.35, 0.0, 0.0)),
    CuboidMagnet((+10.45e-3, 0.0, -4e-3), (10e-3, 10e-3, 10e-3), (1.35, 0.0, 0.0)),
]
PCC = np.array([1.1e-3, 0.0, 0.0])


def surface_integral_field(magnet, point, n=80):
    """Brute-force oracle: Gauss-Legendre quadrature of the magnetic surface
    charge (sigma = M.n) Coulomb kernel over all charged faces."""
    p = np.asarray(point, float)
    c = np.array(magnet.center)
    half = np.array(magnet.dimensions) / 2
    x_gl, w_gl = np.polynomial.legendre.leggauss(n)
    b = np.zeros(3)
    for axis in range(3):
        m_comp = magnet.magnetization[axis] / MU_0
        if m_comp == 0:
            continue
        for s in (+1.0, -1.0):
            sigma = s * m_comp
            ia, ib = [i for i in range(3) if i != axis]
            grid_a, grid_b = np.meshgrid(half[ia] * x_gl, half[ib] * x_gl,
                                         indexing="ij")
            weights = np.outer(w_gl, w_gl) * half[ia] * half[ib]
            pts = np.zeros((n, n, 3))
            pts[:, :, axis] = c[axis] + s * half[axis]
            pts[:, :, ia] = c[ia] + grid_a
            pts[:, :, ib] = c[ib] + grid_b
            d = p[None, None, :] - pts
            r3 = np.sum(d * d, axis=2) ** 1.5
            b += MU_0 * sigma / (4 * np.pi) * np.sum(
                weights[:, :, None] * d / r3[:, :, None], axis=(0, 1))
    return b


def dipole_field(magnet, point):
    volume = np.prod(magnet.dimensions)
    moment = np.array(magnet.magnetization) * volume / MU_0
    r = np.asarray(point, float) - np.array(magnet.center)
    rn = np.linalg.norm(r)
    rhat = r / rn
    return MU_0 / (4 * np.pi) * (3 * np.dot(moment, rhat) * rhat - moment) / rn ** 3


def random_exterior_point(rng, magnet, min_gap=3e-4):
    while True:
        d = rng.uniform(0.4, 3.0) * max(magnet.dimensions)
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        pt = np.array(magnet.center) + d * u
        if magnet.surface_distance(pt) > min_gap:
            return pt


class TestCuboidField:
    def test_zero_magnetization(self):
        m = CuboidMagnet((0, 0, 0), (0.01, 0.01, 0.01), (0, 0, 0))
        assert np.allclose(cuboid_field(m, (0.02, 0.01, -0.03)), 0.0)

    def test_matches_surface_integral_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            pt = random_exterior_point(rng, MAGNET)
            analytic = cuboid_field(MAGNET, pt)
            oracle = surface_integral_field(MAGNET, pt)
            assert np.linalg.norm(analytic - oracle) <= \
                1e-6 * np.linalg.norm(oracle)

    def test_shadow_and_in_plane_points(self):
        # directly above/below faces and level with a face: the arctan branch
        # handling must stay continuous there
        c = np.array(MAGNET.center)
        dim = np.array(MAGNET.dimensions)
        pts = [c + [0, 0, dim[2] / 2 + 1e-3], c - [0, 0, dim[2] / 2 + 0.8e-3],
               c + [dim[0] / 2 + 2e-3, 0, 0], c + [dim[0], 0, dim[2] / 2]]
        for pt in pts:
            analytic = cuboid_field(MAGNET, pt)
            oracle = surface_integral_field(MAGNET, pt, n=100)
            assert np.linalg.norm(analytic - oracle) <= \
                1e-6 * np.linalg.norm(oracle)

    def test_far_field_dipole_limit(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            pt = np.array(MAGNET.center) + 20 * max(MAGNET.dimensions) * u
            analytic = cuboid_field(MAGNET, pt)
            dip = dipole_field(MAGNET, pt)
            assert np.linalg.norm(analytic - dip) <= 0.01 * np.linalg.norm(dip)

    def test_linearity_in_magnetization(self):
        # linear to the last rounding step (the scale factor enters only the
        # prefactor, never the transcendental terms)
        scaled = CuboidMagnet(MAGNET.center, MAGNET.dimensions,
                              tuple(2.5 * np.array(MAGNET.magnetization)))
        pt = (0.015, 0.004, 0.01)
        assert np.allclose(cuboid_field(scaled, pt),
                           2.5 * cuboid_field(MAGNET, pt), rtol=1e-14, atol=0)

    def test_interior_and_surface_rejected(self):
        with pytest.raises(DomainError):
            cuboid_field(MAGNET, MAGNET.center)
        face_pt = np.array(MAGNET.center) + [MAGNET.dimensions[0] / 2, 0, 0]
        with pytest.raises(DomainError):
            cuboid_field(MAGNET, face_pt)

    def test_divergence_and_curl_free(self):
        h = 1e-6
        pt = np.array(MAGNET.center) + [0.012, 0.004, 0.006]
        grads = np.zeros((3, 3))
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            grads[:, i] = (cuboid_field(MAGNET, pt + e)
                           - cuboid_field(MAGNET, pt - e)) / (2 * h)
        bmag = np.linalg.norm(cuboid_field(MAGNET, pt))
        div = abs(np.trace(grads))
        curl = np.linalg.norm([grads[2, 1] - grads[1, 2],
                               grads[0, 2] - grads[2, 0],
                               grads[1, 0] - grads[0, 1]])
        assert div < 1e-6 * bmag / h
        assert curl < 1e-6 * bmag / h


class TestAssembly:
    def test_single_magnet_equals_cuboid_field(self):
        pt = (0.02, 0.01, 0.015)
        assert np.array_equal(assembly_field([MAGNET], pt), cuboid_field(MAGNET, pt))

    def test_superposition_exact(self):
        pt = (0.0, 0.004, 0.02)
        total = assembly_field(ASSEMBLY, pt)
        parts = sum(cuboid_field(m, pt) for m in ASSEMBLY)
        assert np.array_equal(total, parts)

    def test_mirror_pair_field_along_x_on_symmetry_plane(self):
        pair = [CuboidMagnet((-8e-3, 0, 0), (6e-3, 6e-3, 6e-3), (1.35, 0, 0)),
                CuboidMagnet((+8e-3, 0, 0), (6e-3, 6e-3, 6e-3), (1.35, 0, 0))]
        for pt in [(0, 0, 0), (0, 2e-3, 1e-3), (0, -1e-3, 3e-3)]:
            b = assembly_field(pair, pt)
            assert abs(b[1]) < 1e-15 and abs(b[2]) < 1e-15
            assert b[0] > 0

    def test_shipped_assembly_pcc_field(self):
        b = assembly_field(ASSEMBLY, PCC)
        assert np.linalg.norm(b) > 0.25
        assert abs(b[0]) > 5 * abs(b[2])  # x-dominant


class TestFieldAngle:
    def test_parallel_zero(self):
        assert field_angle((0.3, 0, 0), (1, 0, 0)) == pytest.approx(0.0)

    def test_perpendicular_ninety(self):
        assert abs(field_angle((0, 0, 1), (1, 0, 0))) == pytest.approx(90.0)

    def test_shipped_assembly_out_of_plane_angle(self):
        b = assembly_field(ASSEMBLY, PCC)
        assert field_angle(b, (1, 0, 0)) == pytest.approx(-10.0, abs=1.5)

    def test_zero_vector_rejected(self):
        with pytest.raises(DomainError):
            field_angle((0, 0, 0), (1, 0, 0))
        with pytest.raises(DomainError):
            field_angle((1, 0, 0), (0, 0, 0))


class TestFieldMap:
    def test_single_point_grid(self):
        points, b, masked = field_map_grid(ASSEMBLY, [PCC[0]], [PCC[1]], [PCC[2]])
        assert len(points) == 1
        assert np.allclose(b[0], assembly_field(ASSEMBLY, PCC))
        assert not masked[0]

    def test_mirror_symmetry_of_map(self):
        pair = [CuboidMagnet((-8e-3, 0, 0), (6e-3, 6e-3, 6e-3), (1.35, 0, 0)),
                CuboidMagnet((+8e-3, 0, 0), (6e-3, 6e-3, 6e-3), (1.35, 0, 0))]
        xs = np.array([-3e-3, -1e-3, 1e-3, 3e-3])
        zs = np.array([-2e-3, 0.0, 2e-3])
        points, b, _masked = field_map_grid(pair, xs, [0.0], zs)
        field = {(round(p[0], 9), round(p[2], 9)): bp for p, bp in zip(points, b)}
        for x in xs:
            for z in zs:
                b_pos = field[(round(x, 9), round(z, 9))]
                b_neg = field[(round(-x, 9), round(z, 9))]
                assert abs(b_pos[0] - b_neg[0]) < 1e-12
                assert abs(b_pos[1] + b_neg[1]) < 1e-12
                assert abs(b_pos[2] + b_neg[2]) < 1e-12

    def test_interior_points_masked(self):
        m = CuboidMagnet((0, 0, 0), (0.01, 0.01, 0.01), (1.0, 0, 0))
        _points, b, masked = field_map_grid([m], [0.0, 0.02], [0.0], [0.0])
        assert masked[0] and not masked[1]
        assert tuple(b[0]) == (0.0, 0.0, 0.0)

    def test_dipole_agreement_improves_with_distance(self):
        dists = np.array([3, 6, 12, 24]) * max(MAGNET.dimensions)
        direction = np.array([0.2, 0.5, 0.84])
        direction /= np.linalg.norm(direction)
        errs = []
        for d in dists:
            pt = np.array(MAGNET.center) + d * direction
            analytic = cuboid_field(MAGNET, pt)
            dip = dipole_field(MAGNET, pt)
            errs.append(np.linalg.norm(analytic - dip) / np.linalg.norm(dip))
        assert np.all(np.diff(errs) < 0)

    def test_empty_grid_rejected(self):
        with pytest.raises(InvalidParameterError):
            field_map_grid(ASSEMBLY, [], [0.0], [0.0])

    def test_csv_export(self):
        text = field_map_to_csv(*field_map_grid(ASSEMBLY, [0.0], [0.0], [0.0, 5e-3]))
        lines = text.strip().split("\n")
        assert lines[0] == "x_m,y_m,z_m,bx_t,by_t,bz_t,masked"
        assert len(lines) == 3
        assert lines[1].endswith(",0")

    def test_one_surface_distance_pass_per_magnet(self, monkeypatch):
        calls = []
        original = CuboidMagnet.surface_distance

        def counted(self, points):
            calls.append(self)
            return original(self, points)

        monkeypatch.setattr(CuboidMagnet, "surface_distance", counted)
        _points, _b, masked = field_map_grid(ASSEMBLY, np.linspace(-20e-3, 20e-3, 9),
                                             [0.0], np.linspace(-10e-3, 10e-3, 5))
        assert masked.any() and not masked.all()
        assert calls == ASSEMBLY

    def test_edge_line_extension_on_grid_rejected(self):
        m = CuboidMagnet((0, 0, 0), (0.01, 0.01, 0.01), (0, 0, 1.0))
        with pytest.raises(DomainError, match="edge") as on_grid:
            field_map_grid([m], [0.03, -0.02], [0.005], [0.005])
        with pytest.raises(DomainError) as direct:
            cuboid_field(m, (-0.02, 0.005, 0.005))
        assert str(on_grid.value) == str(direct.value)

    def test_non_finite_axis_rejected(self):
        with pytest.raises(InvalidParameterError):
            field_map_grid(ASSEMBLY, [np.nan], [0.0], [0.0])


def random_magnets(rng, n):
    return [CuboidMagnet(tuple(rng.uniform(-0.01, 0.01, 3)),
                         tuple(rng.uniform(1e-3, 1e-2, 3)),
                         tuple(rng.uniform(-1.5, 1.5, 3) * (rng.random(3) < 0.8)))
            for _ in range(n)]


def exterior_points(rng, magnets, n):
    """Random points from just outside the faces to a few magnet sizes away."""
    pts = rng.normal(size=(n, 3)) * rng.uniform(2e-3, 5e-2, (n, 1))
    gaps = np.array([m.surface_distance(pts) for m in magnets])
    return pts[np.all(gaps > 1e-6, axis=0)]


class TestArrayKernel:
    """One (N, 3) call must agree with N one-point calls."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_rows_equal_single_point_calls(self, seed):
        rng = np.random.default_rng(seed)
        (m,) = random_magnets(rng, 1)
        pts = exterior_points(rng, [m], 64)
        b = cuboid_field(m, pts)
        assert b.shape == pts.shape
        for p, row in zip(pts, b):
            single = cuboid_field(m, p)
            assert np.all(np.abs(row - single) <= 1e-15 * np.linalg.norm(single))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_magnets=st.integers(1, 3))
    def test_grid_mask_matches_surface_distance(self, seed, n_magnets):
        rng = np.random.default_rng(seed)
        magnets = random_magnets(rng, n_magnets)
        # random axes through the magnet centers, so some points lie inside;
        # one axis also holds the face planes normal to it, so some sit on a
        # surface (two such axes would put points on the extension of an
        # edge line, where the closed form is singular)
        axes = [np.concatenate([rng.uniform(-0.02, 0.02, 4),
                                [m.center[k] for m in magnets]]) for k in range(3)]
        k = rng.integers(3)
        axes[k] = np.concatenate([axes[k], [m.center[k] + s * 0.5 * m.dimensions[k]
                                            for m in magnets for s in (-1, 1)]])
        points, b, masked = field_map_grid(magnets, *axes)
        expected = [(x, y, z) for x in axes[0] for y in axes[1] for z in axes[2]]
        assert np.array_equal(points, expected)
        for i, p in enumerate(points):
            assert masked[i] == any(m.surface_distance(p) < SURFACE_MARGIN
                                    for m in magnets)
        assert np.all(b[masked] == 0.0)
        assert np.array_equal(b[~masked], assembly_field(magnets, points[~masked]))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_magnets=st.integers(1, 4))
    def test_superposition_over_point_arrays(self, seed, n_magnets):
        rng = np.random.default_rng(seed)
        magnets = random_magnets(rng, n_magnets)
        pts = exterior_points(rng, magnets, 64)
        total = assembly_field(magnets, pts)
        assert np.array_equal(total, sum(cuboid_field(m, pts) for m in magnets))

    def test_any_interior_point_rejects_the_array(self):
        pts = np.array([[0.05, 0.0, 0.0], MAGNET.center])
        with pytest.raises(DomainError):
            cuboid_field(MAGNET, pts)

    def test_edge_line_extension_rejected(self):
        # y and z on face planes, x outside: log(v + r) is log(0) there
        m = CuboidMagnet((0, 0, 0), (0.01, 0.01, 0.01), (0, 0, 1.0))
        for pts in [(-0.02, 0.005, 0.005), [(0.03, 0.0, 0.0), (-0.02, 0.005, 0.005)]]:
            with pytest.raises(DomainError, match="edge"):
                cuboid_field(m, pts)
        assert np.all(np.isfinite(cuboid_field(m, (-0.02, 0.005, 0.00500001))))


class TestValidation:
    def test_dimensions_positive(self):
        with pytest.raises(InvalidParameterError):
            CuboidMagnet((0, 0, 0), (0.01, -0.01, 0.01), (1, 0, 0))

    def test_finite_required(self):
        with pytest.raises(InvalidParameterError):
            CuboidMagnet((0, 0, np.nan), (0.01, 0.01, 0.01), (1, 0, 0))
        with pytest.raises(InvalidParameterError):
            cuboid_field(MAGNET, (np.inf, 0, 0))

    @pytest.mark.parametrize("bad", [np.zeros(2), np.zeros((4, 2)), np.zeros((2, 2, 3))])
    def test_point_shape_required(self, bad):
        with pytest.raises(InvalidParameterError):
            cuboid_field(MAGNET, bad)
