import scipy.constants as const

from sivcav import constants


def test_literals_equal_scipy_codata_values():
    assert constants.MU_B_OVER_H == const.value("Bohr magneton in Hz/T")
    assert constants.K_B_OVER_H == const.k / const.h
    assert constants.TWO_PI == 2.0 * const.pi
