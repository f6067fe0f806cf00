"""Exact-arithmetic toolkit for even lattices, ADE root systems,
glue-vector overlattices and characteristic-2 double planes attached to
supersingular K3 surfaces of small Artin invariant."""
