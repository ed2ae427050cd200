"""The scaled-monomial kernel ``sfwg.basis.monomial_table``."""

import numpy as np

from sfwg.basis import monomial_exponents, monomial_table


def test_monomial_exponents_graded_lex():
    ax, ay = monomial_exponents(2)
    assert ax.tolist() == [0, 1, 0, 2, 1, 0]
    assert ay.tolist() == [0, 0, 1, 0, 1, 2]
    assert len(monomial_exponents(5)[0]) == 21


def test_python_table_values():
    pts = np.array([[0.5, 0.75]])
    v, gx, gy, lap = monomial_table(pts, 0.0, 0.0, 1.0, 2)
    # basis: 1, x, y, x^2, xy, y^2 at (0.5, 0.75)
    assert np.allclose(v[0], [1.0, 0.5, 0.75, 0.25, 0.375, 0.5625])
    assert np.allclose(gx[0], [0.0, 1.0, 0.0, 1.0, 0.75, 0.0])
    assert np.allclose(gy[0], [0.0, 0.0, 1.0, 0.0, 0.5, 1.5])
    assert np.allclose(lap[0], [0.0, 0.0, 0.0, 2.0, 0.0, 2.0])


def test_python_table_scaling():
    pts = np.array([[1.0, 2.0]])
    h = 0.5
    v, gx, gy, lap = monomial_table(pts, 0.5, 1.5, h, 1)
    # (x - xc)/h = 1, (y - yc)/h = 1
    assert np.allclose(v[0], [1.0, 1.0, 1.0])
    assert np.allclose(gx[0], [0.0, 1.0 / h, 0.0])
    assert np.allclose(gy[0], [0.0, 0.0, 1.0 / h])
