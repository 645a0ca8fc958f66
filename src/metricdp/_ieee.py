"""Portable IEEE-754 kernels: the same bits on every host.

``_logs`` is fdlibm's ``e_log.c`` (Sun, 1993) as a fixed sequence of numpy
ufunc calls, each correctly rounded, so its bits do not depend on the
host's libm or SIMD.  It needs only ``spaces``' block size, so
``mechanisms``, which ``audit`` imports, can use it too.
"""

from __future__ import annotations

import math

import numpy as np

from .spaces import _BLOCK_CELLS

# fdlibm's e_log.c constants: ln 2 split so that k * _LN2_HI is exact, and the
# coefficients Lg1..Lg7 of its polynomial in s**2.
_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10
_LG1, _LG2, _LG3 = 6.666666666666735130e-01, 3.999999999940941908e-01, 2.857142874366239149e-01
_LG4, _LG5 = 2.222219843214978396e-01, 1.818357216161805012e-01
_LG6, _LG7 = 1.531383769920937332e-01, 1.479819860511658591e-01


def _logs(probs) -> np.ndarray:
    """Entrywise natural log by fdlibm's e_log.c, within 1 ulp: frexp, then add,
    subtract, multiply and divide, each one correctly rounded ufunc call that cannot
    fuse, so the bits do not depend on the host.  -inf exactly at 0.0, 0.0 exactly at
    1.0, and a subnormal entry keeps its finite log.  Runs over chunks of the flat
    table, so one chunk's temporaries stay well under a block."""
    probs = np.asarray(probs, dtype=float)
    flat, logs, chunk = probs.ravel(), np.empty(probs.size), _BLOCK_CELLS // 16
    for c0 in range(0, flat.size, chunk):
        x = flat[c0:c0 + chunk]
        m, k = np.frexp(x)  # x = m * 2**k, m in [1/2, 1); move m into [sqrt(1/2), sqrt(2))
        low = m < math.sqrt(0.5)
        f = np.where(low, m + m, m) - 1.0  # exact
        k = (k - low).astype(float)
        s = f / (2.0 + f)
        z = s * s
        w = z * z
        r = z * (_LG1 + w * (_LG3 + w * (_LG5 + w * _LG7))) + w * (_LG2 + w * (_LG4 + w * _LG6))
        hfsq = 0.5 * f * f
        value = k * _LN2_HI - ((hfsq - (s * (hfsq + r) + k * _LN2_LO)) - f)
        logs[c0:c0 + chunk] = np.where(x == 0.0, -math.inf, value)
    return logs.reshape(probs.shape)
