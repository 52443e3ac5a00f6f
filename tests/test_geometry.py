import numpy as np
import pytest

from modwrench.geometry import wrench


def test_wrench_stacking():
    w = wrench([1, 2, 3], [4, 5, 6])
    assert w.shape == (6,)
    assert np.allclose(w, [1, 2, 3, 4, 5, 6])
    with pytest.raises(ValueError):
        wrench([1, 2], [3, 4, 5, 6])
