"""Strict-inequality evaluation with an extended-precision escape hatch.

Every analytic check in this package is a strict inequality between two
double-precision reals.  When the relative margin between the sides
drops below REL_MARGIN the double result is no longer trustworthy, so
the caller re-evaluates both sides in 80-bit extended precision
(np.longdouble on this platform) and decides there.  The formula
evaluators all preserve input dtype, which makes the re-evaluation a
matter of feeding them longdouble arguments.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

REL_MARGIN = 1e-9


def relative_margin(lhs: float, rhs: float) -> float:
    """(rhs - lhs) scaled by the larger magnitude; positive iff lhs < rhs."""
    scale = max(abs(lhs), abs(rhs), np.finfo(np.float64).tiny)
    return (rhs - lhs) / scale


def strictly_less(lhs: float, rhs: float,
                  extended: Callable[[], tuple] | None = None) -> bool:
    """Decide lhs < rhs, deferring to ``extended()`` when the margin is thin.

    ``extended`` recomputes (lhs, rhs) at >= 80-bit precision.  Without it,
    a thin margin falls back to the double verdict.
    """
    margin = relative_margin(lhs, rhs)
    if margin >= REL_MARGIN:
        return True
    if margin <= -REL_MARGIN:
        return False
    if extended is not None:
        e_lhs, e_rhs = extended()
        return bool(e_lhs < e_rhs)
    return bool(lhs < rhs)
