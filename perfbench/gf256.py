"""Independent GF(2^8) and trivariate-form arithmetic for the benchmark.

The benchmark builds its inputs and checks the program's outputs with this
module, never with the program's own kernels, so a kernel defect cannot
hide itself.  Field elements are ints whose bits are the coefficients of a
residue modulo x^8 + x^4 + x^3 + x + 1, the modulus the CLI uses for k = 8.
Forms are dicts mapping exponent triples to nonzero coefficients.
"""

from __future__ import annotations

import random

K = 8
Q = 1 << K
MODULUS = 0b100011011


def mul(a: int, b: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a & Q:
            a ^= MODULUS
    return out


def power(a: int, e: int) -> int:
    out = 1
    while e:
        if e & 1:
            out = mul(out, a)
        a = mul(a, a)
        e >>= 1
    return out


def inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("inversion of zero in GF(2^8)")
    return power(a, Q - 2)


def off_cube(r: int, s: int) -> bool:
    return r != 0 and s != 0 and power(r, 3) != power(s, 3)


# ---------------------------------------------------------------------------
# forms
# ---------------------------------------------------------------------------

def form_add(f: dict, g: dict) -> dict:
    out = dict(f)
    for e, c in g.items():
        v = out.get(e, 0) ^ c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def form_mul(f: dict, g: dict) -> dict:
    out: dict = {}
    for (a, b, c), x in f.items():
        for (d, e, h), y in g.items():
            key = (a + d, b + e, c + h)
            v = out.get(key, 0) ^ mul(x, y)
            if v:
                out[key] = v
            else:
                out.pop(key, None)
    return out


def schroeer_sextic(r: int, s: int) -> dict:
    """[x0*(x1^4 + s^2 x1^2 x2^2) + x1*(x0^4 + r^2 x0^2 x2^2)] * x2, expanded."""
    return {
        (1, 4, 1): 1,
        (1, 2, 3): mul(s, s),
        (4, 1, 1): 1,
        (2, 1, 3): mul(r, r),
    }


def substitute(g: dict, mat) -> dict:
    """g(mat . x): each variable x_i becomes the linear form sum_j mat[i][j] x_j."""
    units = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    linear = [{e: c for e, c in zip(units, row) if c} for row in mat]
    powers = [[{(0, 0, 0): 1}] for _ in range(3)]
    out: dict = {}
    for exps, c in g.items():
        term = {(0, 0, 0): c}
        for i, e in enumerate(exps):
            while len(powers[i]) <= e:
                powers[i].append(form_mul(powers[i][-1], linear[i]))
            term = form_mul(term, powers[i][e])
        out = form_add(out, term)
    return out


def det3(m) -> int:
    return (
        mul(m[0][0], mul(m[1][1], m[2][2]) ^ mul(m[1][2], m[2][1]))
        ^ mul(m[0][1], mul(m[1][0], m[2][2]) ^ mul(m[1][2], m[2][0]))
        ^ mul(m[0][2], mul(m[1][0], m[2][1]) ^ mul(m[1][1], m[2][0]))
    )


def random_off_cube_pair(rng: random.Random) -> tuple[int, int]:
    while True:
        r, s = rng.randrange(1, Q), rng.randrange(1, Q)
        if off_cube(r, s):
            return r, s


def dense_family_member(rng: random.Random) -> dict:
    """An off-cube family sextic moved through a random invertible frame.

    A sextic has 28 monomials; frames that leave any of them at zero are
    drawn again, so every input is fully dense.
    """
    r, s = random_off_cube_pair(rng)
    g = schroeer_sextic(r, s)
    while True:
        mat = [[rng.randrange(Q) for _ in range(3)] for _ in range(3)]
        if det3(mat) == 0:
            continue
        h = substitute(g, mat)
        if len(h) == 28:
            return h


def form_to_json_obj(g: dict, degree: int) -> dict:
    """The CLI's polynomial file format: binary coefficient strings."""
    return {
        "field": {"k": K, "modulus_bits": format(MODULUS, "b")},
        "degree": degree,
        "terms": [{"exp": list(e), "coeff": format(c, "b")} for e, c in sorted(g.items())],
    }


def form_from_terms(terms) -> dict:
    return {tuple(t["exp"]): int(t["coeff"], 2) for t in terms}


def normalize_line(line) -> tuple[int, int, int]:
    """Scale so the first nonzero coefficient is 1."""
    first = next(c for c in line if c)
    i = inv(first)
    return tuple(mul(i, c) for c in line)
