import math

import numpy as np
import pytest

from hirzebruch_kee import make_profile
from hirzebruch_kee._floats import geomspace, linspace, max_keep_nan


@pytest.mark.parametrize("where", [0, 2, 4])
def test_max_keep_nan_keeps_nan_anywhere(where):
    values = [0.5, 3.0, 1.0, 2.0, 0.25]
    values[where] = math.nan
    assert math.isnan(max_keep_nan(values))


def test_max_keep_nan_plain_maximum():
    assert max_keep_nan([1e-300, 4.5, 0.0, math.inf]) == math.inf
    assert max_keep_nan(iter([2.0, 7.0, 3.0])) == 7.0


def test_max_keep_nan_rejects_empty():
    # -inf would pass every threshold comparison
    with pytest.raises(ValueError):
        max_keep_nan([])


@pytest.mark.parametrize("start, stop, num", [
    (1.0, make_profile(1, 1.0).alpha2, 1002), (1.0, make_profile(3, 0.4).alpha2, 7),
    (0.2, 1.5, 5), (-2.0, 2.0, 3), (0.001, 0.995, 200), (0.3, 0.3, 4),
    (0.2, 1.5, 1), (5.0, 1.0, 2)])
def test_linspace_matches_numpy_bitwise(start, stop, num):
    assert linspace(start, stop, num) == np.linspace(start, stop, num).tolist()


@pytest.mark.parametrize("start, stop, num", [
    (1e-3, 0.995, 200), (0.0005, 0.001, 20), (0.123, 0.75, 37), (0.4, 0.4, 3),
    (0.25, 0.5, 1)])
def test_geomspace_exact_ends_and_numpy_interior(start, stop, num):
    # libm's log10 and pow may round differently from numpy's, and 10**e
    # turns an ulp of e into several of the result
    got = geomspace(start, stop, num)
    want = np.geomspace(start, stop, num).tolist()
    assert got[0] == start and got[-1] == (stop if num > 1 else start)
    assert all(abs(g - w) <= 4e-15 * w for g, w in zip(got, want))
    assert all(a <= b for a, b in zip(got, got[1:]))
