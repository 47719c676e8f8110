"""Physical constants in the frequency-per-SI-unit form used throughout.

All spectroscopic quantities in this package are ordinary frequencies (Hz),
i.e. angular frequencies divided by 2*pi. Conversion to angular units happens
only inside the dynamics engine.

The values are CODATA 2022 (the exact SI defining constants where they
apply), written as literals equal to what `scipy.constants` returns, so that
importing the package does not pay for importing scipy.
"""

import math

#: Bohr magneton over Planck constant, Hz per tesla.
MU_B_OVER_H = 13996244917.1

#: Boltzmann constant over Planck constant, Hz per kelvin.
K_B_OVER_H = 1.380649e-23 / 6.62607015e-34

TWO_PI = 2.0 * math.pi
