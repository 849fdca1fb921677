"""Checks the tests share, written against the library's public API."""

from math import lcm

from svoa.modrep import CycMatrix


def agree(x, y):
    """The coefficients of the series x and y agree below their common
    truncation; the canonical slot form makes that an equality of the two
    series cut there."""
    t = min(x.trunc, y.trunc)
    return x.truncate(t) == y.truncate(t)


def denominator_profile(a):
    """Running lcm of coefficient denominators, in index order."""
    out = []
    acc = 1
    for c in a.coeffs.values():
        acc = lcm(acc, c.denominator)
        out.append(acc)
    return out


class Element(CycMatrix):
    """A CycMatrix that can key a map, as the group elements of the tests do."""

    __slots__ = ()

    def __hash__(self):
        return hash(self.rows)


def element_dets(G):
    """The map from each element of the MatrixGroup G, as an Element, to its
    determinant."""
    return {Element([[G.entries[e] for e in G.rows[r]] for r in m]): G.determinants[d]
            for m, d in G.elements.items()}
