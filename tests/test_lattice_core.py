import itertools
import math
import random
from fractions import Fraction

import pytest

from k3lat import lattice_core
from k3lat.exact_arith import ExactArithError, IntMatrix, invert
from k3lat.lattice_core import (
    DualVector,
    Lattice,
    LatticeError,
    class_of,
    elementary_factors,
    is_even,
    lattice_A1,
    lattice_D4,
    lattice_hyperbolic2,
    pairing_numerator,
    ratio,
)
from k3lat.configuration import L_LABELS
from k3lat.ns_glue import (
    EXTRA_GLUE_CHOICES,
    build_lambda,
    build_overlattice,
    extra_glue_class,
    halfline_class,
)
from rational_oracles import (
    as_fractions,
    basis_vector,
    coords,
    f2_rank,
    invert_rational,
    negated,
    norm,
    orthogonal_complement,
    pairing,
    rat_mul,
    rat_transpose,
    rational_class,
    rational_gv,
    rational_pairing,
    smith_generators,
    snf,
    to_rational,
    vector,
)

BUILTINS = {"A1": lattice_A1, "D4": lattice_D4, "hyperbolic2": lattice_hyperbolic2}


def test_constructor_validation():
    # the symmetry check is the elimination's, which the determinant runs
    with pytest.raises(ExactArithError, match="symmetric elimination of a non-symmetric matrix"):
        Lattice(IntMatrix([[0, 1], [2, 0]]))
    with pytest.raises(LatticeError):
        Lattice(IntMatrix([[1, 1], [1, 1]]))  # degenerate


def test_named_constructors():
    assert lattice_A1().gram.entries == ((-2,),)
    assert lattice_hyperbolic2().gram.entries == ((2,),)
    assert lattice_D4().rank == 4


def test_pairing_examples():
    a1 = lattice_A1()
    a_dual = a1.dual_basis_vector(0)
    assert coords(a_dual) == (Fraction(-1, 2),)
    assert pairing(a_dual, a_dual) == Fraction(-1, 2)

    d4 = lattice_D4()
    d1_dual = d4.dual_basis_vector(0)
    assert pairing(d1_dual, d1_dual) == -1
    assert pairing(d4.zero(), d1_dual) == 0


def test_pairing_lattice_mismatch():
    with pytest.raises(LatticeError):
        pairing_numerator(basis_vector(lattice_A1(), 0), basis_vector(lattice_hyperbolic2(), 0))


def test_dual_basis_pairs_as_kronecker():
    d4 = lattice_D4()
    for i in range(4):
        for j in range(4):
            assert pairing(d4.dual_basis_vector(i), basis_vector(d4, j)) == (1 if i == j else 0)


def every_class(lattice: Lattice) -> set:
    """Oracle: the classes of G^-1 y for y in {0, ..., |det| - 1}^n, which
    meet every class, since |det| Z^n lies in G Z^n."""
    num, den = invert(lattice.gram)
    d = abs(lattice.det())
    classes = set()
    for y in itertools.product(range(d), repeat=lattice.rank):
        classes.add(class_of(DualVector(lattice, num.mul_vec(y), den)))
    return classes


def test_discriminant_group_a1():
    a1 = lattice_A1()
    # the dual basis vector represents the nonzero class
    cls = class_of(a1.dual_basis_vector(0))
    assert cls != class_of(a1.zero())
    assert cls.component == ((1,), 2)
    assert every_class(a1) == {cls, class_of(a1.zero())}
    assert class_of(a1.dual_basis_vector(0) + basis_vector(a1, 0)) == cls


def test_discriminant_group_d4():
    d4 = lattice_D4()
    c1 = class_of(d4.dual_basis_vector(0))
    c4 = class_of(d4.dual_basis_vector(3))
    zero = class_of(d4.zero())
    assert c1 != zero and c4 != zero and c1 != c4
    # d1-dual and d4-dual generate: their classes and the sum cover the nonzero classes
    c14 = class_of(d4.dual_basis_vector(0) + d4.dual_basis_vector(3))
    assert every_class(d4) == {zero, c1, c4, c14}
    # the center dual vector is integral, so its class vanishes
    assert class_of(d4.dual_basis_vector(2)) == zero


def test_discriminant_group_unimodular():
    u = Lattice(IntMatrix([[1, 0], [0, -1]]))
    assert every_class(u) == {class_of(u.zero())}
    assert {class_of(u.dual_basis_vector(j)) for j in range(2)} == {class_of(u.zero())}


def test_disc_class_examples():
    d4 = lattice_D4()
    assert class_of(basis_vector(d4, 1)) == class_of(d4.zero())
    v = d4.dual_basis_vector(0) + d4.dual_basis_vector(3)
    cls = class_of(v)
    # the second dual vector is the sum of the two leaf duals modulo D4
    assert cls == class_of(d4.dual_basis_vector(1))
    assert cls != class_of(d4.zero())


def test_disc_class_rejects_non_dual_vectors():
    a1 = lattice_A1()
    with pytest.raises(LatticeError, match="vector does not pair integrally with the lattice"):
        class_of(vector(a1, [Fraction(1, 3)]))
    with pytest.raises(LatticeError, match=r"^vector does not pair integrally with the lattice$"):
        DualVector(a1, [1], 4).integer_pairings()


def test_is_even():
    assert is_even(lattice_A1())
    assert not is_even(Lattice(IntMatrix([[1]])))
    assert is_even(lattice_D4())


def test_is_p_elementary():
    assert elementary_factors(lattice_A1()) == [2]
    assert elementary_factors(lattice_D4()) == [2, 2]
    a3 = Lattice(IntMatrix([[-2, 1, 0], [1, -2, 1], [0, 1, -2]]))
    assert elementary_factors(a3) is None  # discriminant Z/4
    assert elementary_factors(Lattice(IntMatrix([[1]]))) == []  # trivial group


def smith_elementary_factors(lattice: Lattice) -> list[int] | None:
    """The definition, read off the Smith form: the invariant factors above 1
    when every invariant factor is 1 or 2, and None otherwise."""
    factors = snf(lattice.gram).invariant_factors
    return [f for f in factors if f > 1] if all(f in (1, 2) for f in factors) else None


def test_is_p_elementary_matches_the_smith_form_on_the_paper_lattices():
    ls = build_lambda()
    halflines = tuple(halfline_class(ls, lam) for lam in L_LABELS)
    ns = build_overlattice(ls, halflines)
    lattices = {
        "base": ls.lattice,
        "sigma2": ns.lattice,
        "complement": orthogonal_complement(ns.lattice, ns.h_in_result()).lattice,
        "A1": lattice_A1(),
        "D4": lattice_D4(),
        "A3": Lattice(IntMatrix([[-2, 1, 0], [1, -2, 1], [0, 1, -2]])),
    }
    for c in EXTRA_GLUE_CHOICES:
        lattices[f"sigma1-{c}"] = build_overlattice(ls, halflines + (extra_glue_class(ls, c),)).lattice
    factors = {name: elementary_factors(lat) for name, lat in lattices.items()}
    for name, lat in lattices.items():
        assert factors[name] == smith_elementary_factors(lat), name
    # all but A3 (discriminant Z/4) are 2-elementary
    assert [name for name in lattices if factors[name] is None] == ["A3"]
    # the base lattice's discriminant witness in the lattice report
    assert factors["base"] == [2] * 14


def test_is_p_elementary_matches_the_smith_form_on_random_grams():
    # half the Grams are U^T D U with D of small primes and prime powers, so
    # both verdicts occur
    rng = random.Random(2)
    seen = set()
    done = 0
    while done < 150:
        n = rng.randrange(1, 7)
        if rng.random() < 0.5:
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    rows[i][j] = rows[j][i] = rng.randrange(-4, 5)
            gram = IntMatrix(rows)
        else:
            d = IntMatrix([[rng.choice([1, -1, 2, -2, 3, 4, -5, 9]) if i == j else 0 for j in range(n)]
                           for i in range(n)])
            u = [[int(i == j) for j in range(n)] for i in range(n)]
            for _ in range(2 * n):
                i, j = rng.randrange(n), rng.randrange(n)
                if i != j:
                    u[i] = [a + b for a, b in zip(u[i], u[j])]
            gram = IntMatrix(rat_mul(rat_mul(rat_transpose(u), d.entries), u))
        try:
            lat = Lattice(gram)
        except LatticeError:  # degenerate
            continue
        factors = elementary_factors(lat)
        assert factors == smith_elementary_factors(lat), gram.entries
        seen.add(factors is not None)
        done += 1
    assert seen == {False, True}


def test_orthogonal_complement_simple():
    l = Lattice(IntMatrix.block_diagonal([IntMatrix([[2]]), IntMatrix([[-2]])]))
    comp = orthogonal_complement(l, basis_vector(l, 0))
    assert comp.lattice.gram.entries == ((-2,),)


def test_orthogonal_complement_diagonal_vector():
    l = Lattice(IntMatrix.block_diagonal([IntMatrix([[-2]]), IntMatrix([[-2]])]))
    v = vector(l, [1, 1])
    comp = orthogonal_complement(l, v)
    assert comp.lattice.rank == 1
    assert comp.lattice.gram.entries == ((-4,),)
    emb = comp.basis_in_ambient.entries[0]
    assert sorted(abs(c) for c in emb) == [1, 1]


def test_orthogonal_complement_requires_membership():
    a1 = lattice_A1()
    with pytest.raises(LatticeError):
        orthogonal_complement(a1, vector(a1, [Fraction(1, 2)]))


def test_complement_is_saturated():
    l = Lattice(
        IntMatrix(
            [
                [2, 1, 0],
                [1, -2, 1],
                [0, 1, -4],
            ]
        )
    )
    comp = orthogonal_complement(l, basis_vector(l, 0))
    factors = snf(comp.basis_in_ambient).invariant_factors
    assert all(f == 1 for f in factors)


def test_disc_quadratic_well_defined_mod_2z():
    rng = random.Random(23)
    d4 = lattice_D4()
    v = d4.dual_basis_vector(0)
    base_norm = pairing(v, v)
    for _ in range(20):
        shift = vector(d4, [rng.randrange(-4, 5) for _ in range(4)])
        w = v + shift
        delta = pairing(w, w) - base_norm
        assert delta.denominator == 1 and int(delta) % 2 == 0


def test_order_matches_det_on_builtins():
    for build in BUILTINS.values():
        lat = build()
        assert len(every_class(lat)) == abs(lat.det())


@pytest.mark.parametrize("name", ["A1", "D4", "hyperbolic2", "Lambda"])
def test_discriminant_generators_match_inverse_oracle(name):
    # oracle: the columns of G^{-1} U^{-1} at the nontrivial invariant factors
    lat = build_lambda().lattice if name == "Lambda" else BUILTINS[name]()
    r = snf(lat.gram)
    ginv_uinv = rat_mul(as_fractions(invert(lat.gram)), as_fractions(invert(r.u)))
    expected = [
        tuple(row[i] for row in ginv_uinv)
        for i, f in enumerate(r.invariant_factors)
        if f > 1
    ]
    gens = smith_generators(lat)
    assert [coords(gen) for gen in gens] == expected
    # every lattice here is 2-elementary: the generators' classes have order
    # 2 and span (Z/2)^a, |det| = 2^a, in the coordinates mod 1
    rows = []
    for gen in gens:
        num, den = class_of(gen).component
        assert den == 2 and class_of(gen + gen) == class_of(lat.zero())
        rows.append(sum(c % 2 << i for i, c in enumerate(num)))
    assert 2 ** f2_rank(rows) == abs(lat.det())


def test_pairing_numerators_are_cached_and_match_gram_product():
    d4 = lattice_D4()
    rng = random.Random(5)
    for _ in range(10):
        u = vector(d4, [Fraction(rng.randint(-4, 4), rng.choice((1, 2))) for _ in range(4)])
        v = vector(d4, [Fraction(rng.randint(-4, 4), rng.choice((1, 2))) for _ in range(4)])
        gnum = v.pairing_numerators()
        assert v.pairing_numerators() is gnum
        expected = sum(
            coords(u)[i] * d4.gram.entries[i][j] * coords(v)[j] for i in range(4) for j in range(4)
        )
        assert pairing(u, v) == expected


def test_pairing_numerators_match_the_rational_product_on_glue_and_generators():
    ls = build_lambda()
    halflines = [halfline_class(ls, lam) for lam in L_LABELS]
    vectors = [gv.vector for gv in halflines]
    vectors += [extra_glue_class(ls, c).vector for c in EXTRA_GLUE_CHOICES]
    ns = build_overlattice(ls, tuple(halflines))
    for lat in (ls.lattice, ns.lattice, lattice_A1(), lattice_D4(), lattice_hyperbolic2()):
        vectors += smith_generators(lat)
        vectors += [lat.dual_basis_vector(j) for j in range(lat.rank)]
    assert len(vectors) == 5 + 3 + (14 + 4 + 1 + 2 + 1) + (22 + 22 + 1 + 4 + 1)
    for v in vectors:
        gv = tuple(Fraction(x, v.den) for x in v.pairing_numerators())
        assert gv == rational_gv(v.lattice.gram, coords(v))


def test_pairing_numerator_matches_the_rational_pairing():
    # u.v = pairing_numerator(u, v) / (den_u den_v) against the Fraction
    # oracle, on seeded rational vectors and on the glue vectors of the base
    rng = random.Random(29)
    ls = build_lambda()
    glue = [halfline_class(ls, lam).vector for lam in L_LABELS]
    glue += [extra_glue_class(ls, c).vector for c in EXTRA_GLUE_CHOICES]
    pairs = [(u, v) for u in glue for v in glue]
    for lat in (lattice_A1(), lattice_D4(), lattice_hyperbolic2(), ls.lattice):
        for _ in range(40):
            a, b = (
                [Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4))) for _ in range(lat.rank)]
                for _ in range(2)
            )
            pairs.append((vector(lat, a), vector(lat, b)))
    for u, v in pairs:
        expected = rational_pairing(u.lattice.gram, coords(u), coords(v))
        assert Fraction(pairing_numerator(u, v), u.den * v.den) == expected
        assert pairing_numerator(u, v) == pairing_numerator(v, u)


def test_ratio_prints_what_fraction_prints():
    # zero, d = +-1, negative d, common factors and big ints, seeded
    rng = random.Random(31)
    cases = [(0, 1), (0, -1), (0, 5), (0, -5), (7, 1), (7, -1), (-7, -1), (3, -6), (-4, 6)]
    cases += [(12, 4), (-12, -4), (2**130 * 3, -(2**128)), (-(10**40) - 1, 10**40)]
    for _ in range(400):
        bits = rng.choice((4, 16, 200))
        g = rng.randint(1, 2**bits)
        n, d = rng.randint(-(2**bits), 2**bits), rng.randint(1, 2**bits) * rng.choice((1, -1))
        cases += [(n, d), (n * g, d * g)]
    for n, d in cases:
        assert ratio(n, d) == str(Fraction(n, d)), (n, d)
    with pytest.raises(ZeroDivisionError):
        ratio(1, 0)
    with pytest.raises(ZeroDivisionError):
        ratio(0, 0)


def test_det_is_computed_once_per_lattice(monkeypatch):
    calls = []
    real = lattice_core.det

    def counting(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(lattice_core, "det", counting)
    lat = Lattice(IntMatrix([[-2, 1], [1, -2]]))
    assert [lat.det() for _ in range(3)] == [3, 3, 3]
    assert elementary_factors(lat) is None  # discriminant Z/3
    assert len(calls) == 1


def test_named_root_lattices_are_built_once(monkeypatch):
    lattice_A1.cache_clear()
    lattice_D4.cache_clear()
    lattice_hyperbolic2.cache_clear()
    calls = []
    real = lattice_core.det

    def counting(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(lattice_core, "det", counting)
    a1, d4, h = lattice_A1(), lattice_D4(), lattice_hyperbolic2()
    for _ in range(10):
        assert lattice_A1() is a1
        assert lattice_D4() is d4
        assert lattice_hyperbolic2() is h
    # one determinant per constructor instead of one per call
    assert len(calls) == 3


def test_dual_vectors_are_stored_in_lowest_terms():
    a1 = lattice_A1()
    half = vector(a1, [Fraction(1, 2)])
    assert (half.num, half.den) == ((1,), 2)
    for same in (vector(a1, [Fraction(2, 4)]), DualVector(a1, [2], 4), DualVector(a1, [-3], -6)):
        assert same == half and hash(same) == hash(half)
    assert DualVector(a1, [0], 7) == a1.zero()
    assert (half + half).den == 1 and half + negated(half) == a1.zero()
    with pytest.raises(LatticeError):
        DualVector(a1, [1], 0)
    with pytest.raises(LatticeError, match=r"^coordinate length must equal the rank$"):
        DualVector(a1, [1, 0])


@pytest.mark.parametrize("name", ["A1", "D4", "A1+A1", "A3", "Lambda"])
def test_dual_vector_arithmetic_matches_the_fraction_oracle(name):
    if name == "A1":
        lat = lattice_A1()
    elif name == "D4":
        lat = lattice_D4()
    elif name == "A1+A1":
        lat = Lattice(IntMatrix.block_diagonal([lattice_A1().gram, lattice_A1().gram]))
    elif name == "A3":
        # discriminant group Z/4, so classes of order 4 occur
        lat = Lattice(IntMatrix([[-2, 1, 0], [1, -2, 1], [0, 1, -2]]))
    else:
        lat = build_lambda().lattice
    n, gram = lat.rank, lat.gram
    dual_columns = list(zip(*invert_rational(to_rational(gram))))
    rng = random.Random(41)

    def rational_coords():
        if rng.random() < 0.5:
            # any rational vector, denominators mixed
            return [Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4, 6))) for _ in range(n)]
        # a dual vector: integers plus a few dual basis vectors
        coords = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        for _ in range(rng.randint(0, 3)):
            k, col = rng.randint(-2, 2), rng.choice(dual_columns)
            coords = [c + k * x for c, x in zip(coords, col)]
        return coords

    classes_seen = set()
    duals = []  # (vector, Smith-form class) of every dual vector drawn
    for _ in range(60):
        a, b = rational_coords(), rational_coords()
        u, v = vector(lat, a), vector(lat, b)
        assert u.den > 0 and math.gcd(u.den, *u.num) == 1
        assert coords(u) == tuple(a)
        assert coords(u + v) == tuple(x + y for x, y in zip(a, b))
        assert pairing(u, v) == rational_pairing(gram, a, b)
        assert norm(u) == rational_pairing(gram, a, a)
        assert tuple(Fraction(x, u.den) for x in u.pairing_numerators()) == rational_gv(gram, a)
        assert (u.den == 1) == all(x.denominator == 1 for x in a)
        assert u.is_dual_vector() == all(x.denominator == 1 for x in rational_gv(gram, a))
        for w, c in ((u, a), (v, b)):
            expected = rational_class(gram, c)
            if expected is None:
                with pytest.raises(LatticeError, match="does not pair integrally"):
                    class_of(w)
            else:
                duals.append((w, expected))
                classes_seen.add(expected)
    # coordinates mod 1 and the Smith form tell classes apart alike, on
    # every pair of dual vectors drawn
    agreements = set()
    for w, expected in duals:
        for x, other in duals:
            same = class_of(w) == class_of(x)
            assert same == (expected == other), (coords(w), coords(x))
            agreements.add(same)
    assert agreements == {False, True}
    # the dual draws reach more than the zero class
    assert len(classes_seen) > 1
    if name == "A3":
        assert 4 in {class_of(w).component[1] for w, _ in duals}
