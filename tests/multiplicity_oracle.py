"""Test oracle for the multiplicity check of ``PlaneSystem``.

``PlaneSystem`` re-checks every assigned multiplicity by a Taylor shift at
each point.  The route here is the one it replaced: every iterated partial
derivative of order below m, evaluated at the point.  With p greater than
the degree (or over QQ) the two routes decide alike, so each judges the
other.

The replaced route always differentiated in x and y.  That is exact in
the chart z = 1, but at a point on z = 0 it misses the conditions in z
(it took the line z = 0 as double at (0, 1, 0)).  Here the two
differentiation variables are the affine ones of the point's chart: all
but its last nonzero coordinate, as in ``PlaneSystem``.
"""

from qmod.errors import InternalCheckError
from qmod.surface import PlaneSystem


def _partials(f, var_u, var_v, top):
    """All d^(a+b) f / du^a dv^b with a + b < top."""
    out = {(0, 0): f}
    for order in range(1, top):
        for a in range(order + 1):
            b = order - a
            if a > 0:
                out[(a, b)] = out[(a - 1, b)].partial(var_u)
            else:
                out[(a, b)] = out[(a, b - 1)].partial(var_v)
    return out


def partials_accept(cls, forms, points) -> bool:
    """True when every form has every partial of order below
    min(m, deg + 1) in its chart's affine variables vanishing at each
    point."""
    orders = min(max(cls.mults, default=0), cls.a + 1)
    for f in forms:
        tables = {}
        for pt, m in zip(points, cls.mults):
            top = min(m, cls.a + 1)
            chart = max(i for i in range(3) if pt[i])
            if chart not in tables:
                var_u, var_v = (i for i in range(3) if i != chart)
                tables[chart] = _partials(f, var_u, var_v, orders)
            for (a, b), g in tables[chart].items():
                if a + b < top and g.evaluate(*pt):
                    return False
    return True


def taylor_accept(field, cls, basis, config) -> bool:
    """True when ``PlaneSystem`` takes ``basis`` for ``cls`` on ``config``."""
    try:
        PlaneSystem(field, cls, basis, config)
    except InternalCheckError:
        return False
    return True
