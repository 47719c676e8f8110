import math
import re

import numpy as np
import pytest

from sivcav.constants import MU_B_OVER_H
from sivcav.errors import DomainError, InvalidParameterError
from sivcav.siv_levels import (
    ManifoldParams,
    SivModel,
    build_hamiltonian,
    manifold_eigensystem,
    transition_table,
)

GROUND = ManifoldParams(lambda_so=46e9, quench_f=0.1, g_spin=2.0)
EXCITED = ManifoldParams(lambda_so=255e9, quench_f=0.1, g_spin=2.0)
ZPL = 406.8e12


def reference_hamiltonian(m, b):
    """Independent construction in the spin (x) orbit ordered basis.

    Same physics, different kron ordering and explicit matrix elements; used
    as the dense-diagonalization oracle for spectra and overlaps.
    """
    sx = np.array([[0, 1], [1, 0]], complex)
    sy = np.array([[0, -1j], [1j, 0]], complex)
    sz = np.array([[1, 0], [0, -1]], complex)
    eye = np.eye(2, dtype=complex)
    orb_z = np.kron(eye, sz)       # spin (x) orbit ordering
    spin = [np.kron(s, eye) for s in (sx, sy, sz)]
    strain = np.array([[0, m.strain_alpha - 1j * m.strain_beta],
                       [m.strain_alpha + 1j * m.strain_beta, 0]], complex)
    h = -m.lambda_so * 0.5 * np.kron(sz, sz)
    h += np.kron(eye, strain)
    h += m.quench_f * MU_B_OVER_H * b[2] * orb_z
    h += 0.5 * m.g_spin * MU_B_OVER_H * (
        b[0] * spin[0] + b[1] * spin[1] + b[2] * spin[2])
    return h


def overlap_oracle(v_ground, v_excited):
    """Independent route to the squared spin overlap.

    Reshape each orbit*spin eigenvector to a 2x2 matrix, form the reduced
    spin density by tracing the orbital index, and take Tr(rho_e rho_g);
    for product states this is |<chi_e|chi_g>|^2.
    """
    g = v_ground.reshape(2, 2)   # [orbit, spin]
    e = v_excited.reshape(2, 2)
    rho_g = np.einsum("os,ot->st", g, g.conj())
    rho_e = np.einsum("os,ot->st", e, e.conj())
    return float(np.real(np.trace(rho_e @ rho_g)))


class TestHamiltonian:
    def test_zero_field_doublets(self):
        m = ManifoldParams(lambda_so=46e9, quench_f=0.1, g_spin=2.0)
        w, _ = manifold_eigensystem(m, (0, 0, 0))
        assert np.allclose(w, [-23e9, -23e9, 23e9, 23e9])

    def test_strain_splitting_formula(self):
        m = ManifoldParams(lambda_so=46e9, strain_alpha=20e9, strain_beta=11e9)
        w, _ = manifold_eigensystem(m, (0, 0, 0))
        expected = np.sqrt(46e9 ** 2 + 4 * (20e9 ** 2 + 11e9 ** 2))
        assert w[2] - w[1] == pytest.approx(expected, rel=1e-12)

    def test_spectrum_matches_independent_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            m = ManifoldParams(
                lambda_so=rng.uniform(10e9, 300e9),
                strain_alpha=rng.uniform(-200e9, 200e9),
                strain_beta=rng.uniform(-200e9, 200e9),
                quench_f=rng.uniform(0, 1),
                g_spin=rng.uniform(1.5, 2.5))
            b = rng.uniform(-0.5, 0.5, 3)
            w = np.sort(np.linalg.eigvalsh(build_hamiltonian(m, b)))
            w_ref = np.sort(np.linalg.eigvalsh(reference_hamiltonian(m, b)))
            assert np.allclose(w, w_ref, rtol=1e-12, atol=1.0)

    def test_aligned_quarter_tesla_splitting(self):
        # 243 mT along the symmetry axis with g = 2: f_s = 6.8 GHz
        m = ManifoldParams(lambda_so=46e9, quench_f=0.0, g_spin=2.0)
        model = SivModel(m, ManifoldParams(lambda_so=255e9, quench_f=0.0),
                         ZPL, b_field=(0.243, 0.0, 0.0), axis=(1, 0, 0))
        out = transition_table(model)
        assert out.f_s_ground == pytest.approx(6.8e9, abs=0.05e9)
        assert out.f_s_excited == pytest.approx(out.f_s_ground, rel=1e-9)

    def test_hermiticity_random(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            m = ManifoldParams(
                lambda_so=rng.uniform(1e9, 500e9),
                strain_alpha=rng.uniform(-300e9, 300e9),
                strain_beta=rng.uniform(-300e9, 300e9),
                quench_f=rng.uniform(0, 1),
                g_spin=rng.uniform(0.5, 3.0))
            h = build_hamiltonian(m, rng.uniform(-1, 1, 3))
            norm = np.linalg.norm(h)
            assert np.linalg.norm(h - h.conj().T) < 1e-12 * norm
            w = np.linalg.eigvalsh(h)
            assert np.sum(w) == pytest.approx(np.trace(h).real,
                                              rel=1e-9, abs=1e-9 * norm)

    def test_rotation_about_symmetry_axis(self):
        m = ManifoldParams(lambda_so=46e9, strain_alpha=10e9, strain_beta=5e9,
                           quench_f=0.1, g_spin=2.0)
        b = np.array([0.1, 0.05, 0.2])
        w0 = np.linalg.eigvalsh(build_hamiltonian(m, b))
        for theta in (0.3, 1.2, 2.9):
            rot = np.array([[np.cos(theta), -np.sin(theta), 0],
                            [np.sin(theta), np.cos(theta), 0],
                            [0, 0, 1]])
            w = np.linalg.eigvalsh(build_hamiltonian(m, rot @ b))
            assert np.allclose(w, w0, rtol=1e-9)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidParameterError):
            build_hamiltonian(GROUND, (np.nan, 0, 0))
        with pytest.raises(InvalidParameterError):
            ManifoldParams(lambda_so=np.inf)
        with pytest.raises(InvalidParameterError):
            ManifoldParams(lambda_so=-1e9)
        with pytest.raises(InvalidParameterError):
            ManifoldParams(lambda_so=46e9, quench_f=1.2)
        with pytest.raises(InvalidParameterError, match="^g_spin must be positive$"):
            ManifoldParams(lambda_so=46e9, g_spin=0.0)


class TestTransitionTable:
    def test_zero_field_structure(self):
        model = SivModel(GROUND, EXCITED, ZPL)
        table = transition_table(model)
        assert not table.spin_resolved
        labels = [o.label for o in table.optical]
        assert labels == ["A", "B", "C", "D"]
        freqs = [o.frequency for o in table.optical]
        assert freqs == sorted(freqs, reverse=True)
        # A..D sit at zpl +- (delta_es +- delta_gs)/2
        des, dgs = 255e9, 46e9
        assert freqs[0] == pytest.approx(ZPL + (des + dgs) / 2)
        assert freqs[3] == pytest.approx(ZPL - (des + dgs) / 2)
        for parent in "ABCD":
            lines = table.lines_of(parent)
            assert len(lines) == 4
            assert all(t.spin_character == "undefined" for t in lines)
            # spin degenerate: all four sublevels coincide
            spread = max(t.frequency for t in lines) - min(t.frequency for t in lines)
            assert spread < 1e-6

    def test_weights_sum_to_one(self):
        model = SivModel(GROUND, EXCITED, ZPL, b_field=(0.05, 0.1, 0.2))
        table = transition_table(model)
        for parent in "ABCD":
            total = sum(t.dipole_weight for t in table.lines_of(parent))
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_aligned_field_suppresses_flipping(self):
        model = SivModel(GROUND, EXCITED, ZPL, b_field=(0, 0, 0.243))
        table = transition_table(model)
        for parent in "ABCD":
            lines = table.lines_of(parent)
            preserving = [t for t in lines if t.spin_character == "preserving"]
            flipping = [t for t in lines if t.spin_character == "flipping"]
            assert len(preserving) == 2 and len(flipping) == 2
            for t in preserving:
                assert t.dipole_weight == pytest.approx(0.5, abs=1e-9)
            for t in flipping:
                assert t.dipole_weight < 1e-6

    def test_tilted_field_weights_match_overlap_oracle(self):
        theta = np.radians(10)
        b = 0.243 * np.array([np.sin(theta), 0.0, np.cos(theta)])
        model = SivModel(GROUND, EXCITED, ZPL, b_field=tuple(b))
        table = transition_table(model)
        wg, vg = manifold_eigensystem(GROUND, b)
        we, ve = manifold_eigensystem(EXCITED, b)
        flipping = [t for t in table.sublevel if t.spin_character == "flipping"]
        assert flipping and all(t.dipole_weight > 0 for t in flipping)
        # raw weights against the independent reduced-overlap computation
        for t in table.sublevel:
            raw = overlap_oracle(vg[:, t.ground_state], ve[:, t.excited_state])
            norm = sum(overlap_oracle(vg[:, x.ground_state], ve[:, x.excited_state])
                       for x in table.lines_of(t.parent))
            assert t.dipole_weight == pytest.approx(raw / norm, rel=1e-9)

    def test_frequency_reconstruction(self):
        model = SivModel(GROUND, EXCITED, ZPL, b_field=(0.02, 0.01, 0.24))
        table = transition_table(model)
        b = model.b_field_defect_frame()
        wg, _ = manifold_eigensystem(GROUND, b)
        we, _ = manifold_eigensystem(EXCITED, b)
        for t in table.sublevel:
            assert t.frequency == pytest.approx(
                ZPL + t.excited_energy - t.ground_energy, abs=1e-3)
            assert wg[t.ground_state] == t.ground_energy
            assert we[t.excited_state] == t.excited_energy

    def test_preserving_pair_separation_equals_splitting_difference(self):
        # strained manifolds so the ground and excited splittings differ
        g = ManifoldParams(lambda_so=46e9, strain_alpha=15e9, strain_beta=8e9)
        e = ManifoldParams(lambda_so=255e9, strain_alpha=250e9, strain_beta=100e9)
        model = SivModel(g, e, ZPL, b_field=(0, 0, 0.25))
        table = transition_table(model)
        lines = sorted(table.lines_of("C"), key=lambda t: -t.frequency)
        sep = abs(lines[1].frequency - lines[2].frequency)
        assert sep > 1e8
        assert sep == pytest.approx(
            abs(table.f_s_excited - table.f_s_ground), rel=1e-6)

    def test_orbital_splitting_at_least_lambda_so(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            g = ManifoldParams(lambda_so=46e9,
                               strain_alpha=rng.uniform(-100e9, 100e9),
                               strain_beta=rng.uniform(-100e9, 100e9))
            e = ManifoldParams(lambda_so=255e9,
                               strain_alpha=rng.uniform(-100e9, 100e9),
                               strain_beta=rng.uniform(-100e9, 100e9))
            table = transition_table(SivModel(g, e, ZPL))
            assert table.delta_gs >= 46e9 * (1 - 1e-12)
            assert table.delta_es >= 255e9 * (1 - 1e-12)


class TestSpinSplitting:
    """The lower-branch spin splittings the transition table carries."""

    def test_zero_field_degenerate(self):
        out = transition_table(SivModel(GROUND, EXCITED, ZPL))
        assert out.spin_resolved is False
        assert out.f_s_ground == 0.0 and out.f_s_excited == 0.0

    def test_pure_spin_zeeman_analytic(self):
        # quench 0 and field along the symmetry axis: g * muB * B / h in both
        # manifolds regardless of the spin-orbit scale
        g = ManifoldParams(lambda_so=46e9, quench_f=0.0, g_spin=2.0)
        e = ManifoldParams(lambda_so=255e9, quench_f=0.0, g_spin=2.0)
        b_mag = 0.18
        model = SivModel(g, e, ZPL, b_field=(0, 0, b_mag))
        out = transition_table(model)
        expected = 2.0 * MU_B_OVER_H * b_mag
        assert out.f_s_ground == pytest.approx(expected, rel=1e-9)
        assert out.f_s_excited == pytest.approx(expected, rel=1e-9)

    def test_axial_field_orbital_contribution(self):
        # aligned field, no strain: lower-branch splitting (g + 2 f) muB B
        model = SivModel(GROUND, EXCITED, ZPL, b_field=(0, 0, 0.243))
        out = transition_table(model)
        expected = (2.0 + 2 * 0.1) * MU_B_OVER_H * 0.243
        assert out.f_s_ground == pytest.approx(expected, rel=1e-9)

    def test_ground_excited_differ_with_strain(self):
        g = ManifoldParams(lambda_so=46e9, strain_alpha=15e9, strain_beta=8e9)
        e = ManifoldParams(lambda_so=255e9, strain_alpha=250e9, strain_beta=100e9)
        model = SivModel(g, e, ZPL, b_field=(0, 0, 0.25))
        out = transition_table(model)
        assert abs(out.f_s_excited - out.f_s_ground) > 1e8


class TestModelValidation:
    def test_zpl_positive(self):
        with pytest.raises(InvalidParameterError):
            SivModel(GROUND, EXCITED, -1.0)

    @pytest.mark.parametrize("b_field", [(0.0, 0.0, math.nan), (0.0, 1.0),
                                         (0.0, 0.0, 0.0, 1.0)])
    def test_field_must_be_a_finite_3_vector(self, b_field):
        with pytest.raises(InvalidParameterError,
                           match="^b_field must be a finite 3-vector$"):
            SivModel(GROUND, EXCITED, ZPL, b_field=b_field)

    def test_axis_nonzero(self):
        with pytest.raises(InvalidParameterError):
            SivModel(GROUND, EXCITED, ZPL, axis=(0, 0, 0))

    def test_axis_normalized(self):
        model = SivModel(GROUND, EXCITED, ZPL, axis=(2, 0, 0))
        assert model.axis == (1.0, 0.0, 0.0)

    # the plain norm of these overflows to inf, which made the axis (0, 0, 0),
    # or underflows to 0, which rejected it as zero
    @pytest.mark.parametrize("axis, unit", [
        ((1e300, 0.46947, 0.0), (1.0, 4.6947e-301, 0.0)),
        ((1e-300, 0.0, 0.0), (1.0, 0.0, 0.0)),
        ((0.0, -5e-324, 5e-324), (0.0, -2 ** -0.5, 2 ** -0.5)),
        ((1e308, 1e308, 1e308), (3 ** -0.5,) * 3),
    ])
    def test_huge_or_tiny_axis_is_its_direction(self, axis, unit):
        model = SivModel(GROUND, EXCITED, ZPL, axis=axis)
        assert model.axis == pytest.approx(unit, rel=1e-15, abs=0.0)

    def test_frame_rotation_consistency(self):
        # spectra must agree between (field along lab x, axis x) and
        # (field along lab z, axis z)
        m1 = SivModel(GROUND, EXCITED, ZPL, b_field=(0.2, 0, 0), axis=(1, 0, 0))
        m2 = SivModel(GROUND, EXCITED, ZPL, b_field=(0, 0, 0.2), axis=(0, 0, 1))
        s1, s2 = transition_table(m1), transition_table(m2)
        assert s1.f_s_ground == pytest.approx(s2.f_s_ground, rel=1e-12)

    def test_overflowing_field_is_a_domain_error(self):
        # a finite lab-frame field whose defect-frame component overflows
        model = SivModel(GROUND, EXCITED, ZPL, b_field=(1.5e308, 1.5e308, 0.0),
                         axis=(1, 1, 0))
        with pytest.raises(DomainError, match="^defect-frame magnetic field overflows"):
            transition_table(model)

    @pytest.mark.parametrize("zpl, b", [
        (ZPL, (0.0, 0.0, 1e200)),  # Zeeman energies far beyond the optical line
        (150e9, (0.0, 0.0, 0.0)),  # spin-orbit energies beyond a 150 GHz "line"
    ])
    def test_manifold_energies_beyond_the_zpl_are_a_domain_error(self, zpl, b):
        model = SivModel(GROUND, EXCITED, zpl, b_field=b)
        limit = re.escape(f"not below the {zpl:.3g} Hz zero-phonon line")
        with pytest.raises(DomainError, match=f"^manifold energies reach .* {limit}"):
            transition_table(model)

    @pytest.mark.parametrize("lambda_so, g_spin, b, term", [
        (46e9, 1e300, (0.0, 0.0, 0.1), "spin Zeeman term"),
        (46e9, 2.0, (1e300, 0.0, 0.0), "spin Zeeman term"),
        (46e9, 1e-10, (0.0, 0.0, 1e300), "orbital Zeeman term"),
        (1.7e308, 2.0, (0.0, 0.0, 7e297), "manifold Hamiltonian"),
    ])
    def test_overflowing_hamiltonian_is_a_domain_error(self, lambda_so, g_spin, b, term):
        m = ManifoldParams(lambda_so=lambda_so, quench_f=0.1, g_spin=g_spin)
        with pytest.raises(DomainError, match=f"^{term} overflows float64"):
            build_hamiltonian(m, b)
