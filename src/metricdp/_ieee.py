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

# Cells of the flat table _logs takes at a time; its temporaries stay within a block.
_LOG_CHUNK = _BLOCK_CELLS // 16


def _logs(probs) -> np.ndarray:
    """Entrywise natural log by fdlibm's e_log.c, within 1 ulp: frexp, then add,
    subtract, multiply and divide, each one correctly rounded ufunc call that cannot
    fuse, so the bits do not depend on the host.  -inf exactly at 0.0, 0.0 exactly at
    1.0, and a subnormal entry keeps its finite log.  Runs over chunks of
    ``_LOG_CHUNK`` cells of the flat table, in any memory layout; each step writes in
    place into a few chunk buffers and the last into the output, the same operations
    on the same operands as the expression written out, so the bits are its bits."""
    probs = np.asarray(probs, dtype=float)
    flat, logs = probs.ravel(), np.empty(probs.size)
    for c0 in range(0, flat.size, _LOG_CHUNK):
        x, out = flat[c0:c0 + _LOG_CHUNK], logs[c0:c0 + _LOG_CHUNK]
        f, k = np.frexp(x)  # x = f * 2**k, f in [1/2, 1); move f into [sqrt(1/2), sqrt(2))
        low = f < math.sqrt(0.5)
        np.ldexp(f, low, out=f)  # f + f where low, exact
        f -= 1.0  # exact
        k = np.subtract(k, low, dtype=float)
        s = f + 2.0
        np.divide(f, s, out=s)  # f / (2 + f)
        z = s * s
        w = z * z
        # r = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7))) + w * (LG2 + w * (LG4 + w * LG6))
        r = w * _LG7
        for c, by in ((_LG5, w), (_LG3, w), (_LG1, z)):
            r += c
            r *= by
        t = np.multiply(w, _LG6, out=z)
        for c in (_LG4, _LG2):
            t += c
            t *= w
        r += t
        hfsq = np.multiply(f, 0.5, out=w)
        hfsq *= f
        # k * LN2_HI - ((hfsq - (s * (hfsq + r) + k * LN2_LO)) - f)
        r += hfsq
        r *= s
        r += np.multiply(k, _LN2_LO, out=t)
        np.subtract(hfsq, r, out=r)
        r -= f
        np.multiply(k, _LN2_HI, out=out)
        out -= r
        out[x == 0.0] = -math.inf
    return logs.reshape(probs.shape)
