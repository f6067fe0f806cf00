"""Recognition over the family plane, against a closed form.

The family member (r, s) with r*s != 0 recognizes, unframed, to t = s/r.
Moved through a frame, the labeling's tie-breaks may pick another t, but
every choice has the same t^3 + t^-3, which on the family is
(s/r)^3 + (r/s)^3.  The closed form lives here only.
"""

import random

import pytest

from goldens import seeded_frame
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


@pytest.mark.parametrize("k,samples", [(4, None), (8, 200)], ids=["k4-every-pair", "k8-seeded"])
def test_recognition_reads_the_family_parameter(k, samples):
    f = BinaryField(k)
    for i, (r, s) in enumerate(nonzero_pairs(f, samples)):
        g = schroeer_sextic(f, r, s)
        u = f.div(s, r)
        assert recognize_surface(g).t == u, (r, s)
        t = recognize_surface(seeded_frame(g, i)).t
        assert cube_invariant(f, t) == cube_invariant(f, u), (r, s, i)
