"""The family plane, case by case and by recognition, against closed forms.

Every pair (r, s) of a small field runs through the CLI's family case: it
passes exactly when r*s != 0, with seven splitting lines on the cube locus
r^3 = s^3 and five off it.  The family member (r, s) with r*s != 0
recognizes, unframed, to t = s/r.  Moved through a frame, the labeling's
tie-breaks may pick another t, but every choice has the same t^3 + t^-3,
which on the family is (s/r)^3 + (r/s)^3.  The closed forms live here only.
"""

import random

import pytest

from goldens import seeded_frame
from k3lat import cli
from k3lat.char2_surfaces.field import BinaryField
from k3lat.char2_surfaces.recognize import recognize_surface
from k3lat.char2_surfaces.surfaces import schroeer_sextic


def cube_invariant(f, t):
    """t^3 + t^-3, the same for every labeling of a recognized configuration."""
    t3 = f.pow(t, 3)
    return t3 ^ f.inv(t3)


def nonzero_pairs(f, samples):
    """Every (r, s) with r*s != 0 when samples is None, else that many seeded pairs."""
    if samples is None:
        return [(r, s) for r in range(1, f.q) for s in range(1, f.q)]
    rng = random.Random(f.k)
    return [(rng.randrange(1, f.q), rng.randrange(1, f.q)) for _ in range(samples)]


@pytest.mark.parametrize("k", [2, 4], ids=["k2", "k4"])
def test_every_family_case_passes_exactly_off_the_axes(k):
    f = BinaryField(k)
    pairs = [(r, s) for r in range(f.q) for s in range(f.q)]
    checks = cli.Checks()
    for r, s in pairs:
        rx, sx = format(r, "x"), format(s, "x")
        checks.run(f"surface_r={rx}_s={sx}", lambda r=r, s=s: cli._surface_case(f, r, s), r=rx, s=sx)
    assert len(checks.results) == len(pairs)
    for (r, s), result in zip(pairs, checks.results):
        witness = result["witness"]
        assert result["pass"] == (r != 0 and s != 0), (r, s, witness)
        if result["pass"]:
            lines = 7 if f.pow(r, 3) == f.pow(s, 3) else 5
            assert len(witness["splitting_lines"]) == lines, (r, s)
        else:
            assert witness.get("findings") or witness.get("error_type"), (r, s)


@pytest.mark.parametrize(
    "k,modulus,samples",
    [(4, None, None), (8, None, 200), (16, 0x1002D, 10)],
    ids=["k4-every-pair", "k8-seeded", "k16-seeded"],
)
def test_recognition_reads_the_family_parameter(k, modulus, samples):
    f = BinaryField(k, modulus)
    for i, (r, s) in enumerate(nonzero_pairs(f, samples)):
        g = schroeer_sextic(f, r, s)
        u = f.div(s, r)
        assert recognize_surface(g).t == u, (r, s)
        t = recognize_surface(seeded_frame(g, i)).t
        assert cube_invariant(f, t) == cube_invariant(f, u), (r, s, i)
