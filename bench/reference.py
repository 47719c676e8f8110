"""Reference kernel: fixed work that uses no sivcav code, timed around each op.

On a shared host the speed of a core changes by up to 2x within tens of
seconds, with the load of other machines. Scaling each op's latency by the
latency of this kernel, run right before and right after it, cancels most
of that drift. The kernel mixes the kinds of work the program does: an
interpreter loop, small Kronecker products and SVDs, and a DOP853
integration of a small linear ODE with scipy. An op that starts a process
is scaled by a process that does the same: a fresh interpreter that imports
numpy.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np
import scipy.integrate

_RNG = np.random.default_rng(0)
_A = _RNG.standard_normal((4, 4))
_B = _RNG.standard_normal((4, 4))
_M = 1e6 * (_RNG.standard_normal((16, 16)) + 1j * _RNG.standard_normal((16, 16))) \
    - 3e7 * np.eye(16)
_Y0 = np.ones(16, complex)


def _work():
    s = 0
    for i in range(30000):
        s += i * i % 7
    for _ in range(30):
        np.linalg.svd(np.kron(_A, _B) - np.kron(_B.T, _A))
    scipy.integrate.solve_ivp(lambda t, y: _M @ y, (0.0, 2e-7), _Y0,
                              method="DOP853", rtol=1e-8, atol=1e-10)
    return s


#: kernel time that adjusted times are scaled to (s); the kernel's median on
#: the baseline host, a 2.1 GHz Xeon, was 8.7 ms, and it ranged from 5 to 11 ms
NOMINAL_S = 0.010
#: the same for `process_seconds`; its median on the baseline host was 0.17 s
NOMINAL_PROCESS_S = 0.2


def seconds() -> float:
    """Wall time of one run of the kernel."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


def process_seconds(cwd: str, env: dict) -> float:
    """Wall time of a fresh interpreter that imports numpy."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=cwd, env=env,
                   check=True, timeout=60)
    return time.perf_counter() - t0
