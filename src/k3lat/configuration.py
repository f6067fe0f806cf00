"""The nine points and the splitting lines of w^2 = G, written once.

G has four D4 points p(ab) and five A1 points q(c).  A row of LINES lists the
D4 points of a splitting line L(lam), each with the leaf of the D4 diagram
that the line meets there (1, 2 or 4, never the centre node 3), and its A1
points.  On the cube locus s = c r the diagonal D(c) of DIAGONALS splits too.
Three readers share the rows: the lattice half builds the glue vector of each
line from its row, the surface half draws each standard line of a family
member through the points of its row and checks incidence against the rows,
and recognition labels the nine points of a configuration from them.
"""

from __future__ import annotations

P_LABELS = ("00", "01", "10", "11")
Q_LABELS = ("0", "1", "w", "wb", "inf")

LINES = {
    "inf": ((), Q_LABELS),
    "0*": ((("00", 1), ("01", 1)), ("inf",)),
    "1*": ((("10", 1), ("11", 1)), ("inf",)),
    "*0": ((("00", 4), ("10", 4)), ("0",)),
    "*1": ((("01", 4), ("11", 4)), ("0",)),
}
L_LABELS = tuple(LINES)

# every diagonal meets the two opposite fork points p(00) and p(11) at leaf 2
DIAGONAL_FORKS = (("00", 2), ("11", 2))
DIAGONALS = {c: (DIAGONAL_FORKS, (c,)) for c in ("1", "w", "wb")}


def point_labels(forks: tuple[tuple[str, int], ...], nodes: tuple[str, ...]) -> tuple[str, ...]:
    """The labels p(ab) of the D4 points and q(c) of the A1 points of a row."""
    return tuple(f"p({ab})" for ab, _ in forks) + tuple(f"q({c})" for c in nodes)
