import math

import numpy as np
import pytest

from transeig.basis import (ascending_branches, zero_eigenfunction,
                            zero_eigenvalue)
from transeig.model import BranchId, ModelError

# Rank-0 eigenvalues of the six lowest branches, frozen from independent
# closed-form evaluation: 4*pi^2*(sign*2/3 + 2n)^2 for family I and
# 4*pi^2*n^2 for family II.
SIX_LOWEST = [
    ("I_plus_0", 17.5459633797144),
    ("II_1", 39.4784176043574),
    ("I_minus_1", 70.1838535188575),
    ("II_2", 157.913670417429),
    ("I_plus_1", 280.735414075430),
    ("II_3", 355.305758439216),
]


def test_zero_eigenvalues_match_closed_forms():
    tags = {b.tag: b for b in ascending_branches(6)}
    for tag, lam in SIX_LOWEST:
        assert zero_eigenvalue(tags[tag]) == pytest.approx(lam, abs=5e-12)


def test_family_one_trig_identities():
    # omega = 2*pi*(2/3 + 2n) forces sin(w/2)**2 = 3/4 and cos(w/2) = -1/2
    for n, sign in [(0, 1), (1, 1), (1, -1), (3, -1)]:
        w = math.sqrt(zero_eigenvalue(BranchId("I", n, sign)))
        assert math.sin(w / 2.0) ** 2 == pytest.approx(0.75, abs=1e-10)
        assert math.cos(w / 2.0) == pytest.approx(-0.5, abs=1e-10)


def test_matching_defects_small_across_branches():
    branches = ascending_branches(50)
    assert max(zero_eigenvalue(b) for b in branches) > 1e4
    for b in branches:
        z = zero_eigenfunction(b)
        # u1(0), u2(1), [u](1/2) and [u'](1/2) - 1
        defects = [z.u1(0.0), z.u2(1.0), z.u2(0.5) - z.u1(0.5),
                   z.du2(0.5) - z.du1(0.5) - 1.0]
        assert max(abs(float(d)) for d in defects) < 1e-9, (b.tag, defects)


def test_family_two_odd_right_panel_vanishes():
    z = zero_eigenfunction(BranchId("II", 1))
    xs = np.linspace(0.5, 1.0, 50)
    assert np.max(np.abs(z.u2(xs))) == 0.0
    # u1 = sin(2*pi*x)/(2*pi), so u1'(1/2) = cos(pi) = -1 and the unit jump
    # is carried entirely by the vanishing right panel
    assert float(z.du1(0.5)) == pytest.approx(-1.0)


def test_family_two_even_right_panel():
    z = zero_eigenfunction(BranchId("II", 2))
    xs = np.linspace(0.5, 1.0, 7)
    expected = -np.sin(4.0 * math.pi * (1.0 - xs)) / (2.0 * math.pi)
    assert np.max(np.abs(z.u2(xs) - expected)) < 1e-14


def test_family_one_left_panel_peak():
    z = zero_eigenfunction(BranchId("I", 0, 1))
    xs = np.linspace(0.0, 0.5, 4001)
    # sup of sin(w*x)/w over the left panel is 1/w = 3/(4*pi)
    assert np.max(np.abs(z.u1(xs))) == pytest.approx(3.0 / (4.0 * math.pi),
                                                     abs=1e-6)


def test_ascending_order():
    branches = ascending_branches(6)
    assert [b.tag for b in branches] == [tag for tag, _ in SIX_LOWEST]
    lams = [zero_eigenvalue(b) for b in branches]
    assert all(a < b for a, b in zip(lams[:-1], lams[1:]))


def test_ascending_branches_rejects_zero():
    with pytest.raises(ModelError):
        ascending_branches(0)


def test_longer_prefix_is_consistent():
    assert ascending_branches(4) == ascending_branches(9)[:4]
