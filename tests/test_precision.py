"""Tests for the thin-margin inequality helper."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pstar.precision import REL_MARGIN, relative_margin, strictly_less


def test_wide_margins_skip_the_callback():
    calls = []

    def spy():
        calls.append(1)
        return np.longdouble(0), np.longdouble(1)

    assert strictly_less(1.0, 2.0, extended=spy) is True
    assert strictly_less(2.0, 1.0, extended=spy) is False
    assert not calls


def test_thin_margin_defers_to_extended():
    # both sides round to the same double; the callback decides
    lhs, rhs = 1.0, 1.0
    assert strictly_less(lhs, rhs, extended=lambda: (np.longdouble(1.0),
                                                     np.longdouble(1.0) + np.longdouble(1e-15)))
    assert not strictly_less(lhs, rhs, extended=lambda: (np.longdouble(1.0) + np.longdouble(1e-15),
                                                         np.longdouble(1.0)))


def test_thin_margin_without_callback_keeps_double_verdict():
    a = 1.0
    b = a * (1.0 + 1e-12)
    assert relative_margin(a, b) < REL_MARGIN
    assert strictly_less(a, b) is True
    assert strictly_less(b, a) is False


def test_relative_margin_sign_and_scale():
    assert relative_margin(1.0, 2.0) == pytest.approx(0.5)
    assert relative_margin(2.0, 1.0) == pytest.approx(-0.5)
    assert relative_margin(0.0, 0.0) == 0.0
    # scale-free: same margin at any magnitude
    assert relative_margin(1e300, 2e300) == pytest.approx(relative_margin(1.0, 2.0))


@given(st.floats(min_value=-1e12, max_value=1e12, allow_nan=False),
       st.floats(min_value=-1e12, max_value=1e12, allow_nan=False))
def test_agrees_with_exact_rational_comparison(a, b):
    # whatever the margin, the double fallback must agree with exact order
    got = strictly_less(a, b)
    assert got == (Fraction(a) < Fraction(b))
