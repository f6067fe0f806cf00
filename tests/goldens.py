"""The k3lat command behind each report in tests/data.

Each golden is (id, arguments, exit code, report file).  The commands run
with tests/data as the working directory, so a ``--recognize`` input is
named by its bare file name, and that is the name the report's config
shows.  A report is pinned apart from its ``timing_ms`` block.
"""

import os
import random

from k3lat.char2_surfaces.field import BinaryField
from k3lat.char2_surfaces.recognize import RecognitionError, apply_frame, normal_form_sextic

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

LATTICE_GOLDENS = [
    ("default", ["lattice"], 0, "lattice_default.json"),
    ("inject-corrupt-glue", ["lattice", "--inject-corrupt-glue"], 1,
     "lattice_inject_corrupt_glue.json"),
]

EXTRA_GLUE_GOLDENS = [
    (extra, ["lattice", "--with-extra-glue", extra], 0, f"lattice_extra_glue_{extra}.json")
    for extra in ("1", "w", "wb")
]

# a sampled GF(256) run, a GF(16) member on the cube locus (6 is omega) with
# its 7 splitting lines, the GF(256) members on the cube-locus diagonals
# s = r and s = omega-bar r (omega is 0xbd), a GF(2^16) member, a whole `all`
# run over GF(16), and the recognition of a normal form moved through a
# seeded frame at k = 8 (the benchmark's recognize op shape) and k = 16; the
# normal form t = 1 lies on the cube locus, where three A1 points carry two
# side lines each, and recognition picks the anchors that read t = omega
SURFACE_GOLDENS = [
    ("k8-samples", ["surface", "--k", "8", "--samples", "4", "--seed", "12345"], 0,
     "surface_k8_samples4_seed12345.json"),
    ("k4-cube-locus", ["surface", "--k", "4", "--r", "1", "--s", "6", "--line-scan", "full"], 0,
     "surface_k4_r1_s6_full.json"),
    ("k8-cube-locus-1", ["surface", "--k", "8", "--r", "3", "--s", "3"], 0, "surface_k8_r3_s3.json"),
    ("k8-cube-locus-wb", ["surface", "--k", "8", "--r", "3", "--s", "df"], 0, "surface_k8_r3_sdf.json"),
    ("k16-member", ["surface", "--k", "16", "--modulus", "0x1002D", "--r", "3", "--s", "5"], 0,
     "surface_k16_r3_s5.json"),
    ("all-k4-samples3", ["all", "--k", "4", "--samples", "3"], 0, "all_k4_samples3.json"),
    ("k8-framed-recognition",
     ["surface", "--k", "8", "--recognize", "framed_k8_t53.json", "--line-scan", "full"], 0,
     "surface_k8_recognize_framed_t53.json"),
    ("k16-framed-recognition",
     ["surface", "--k", "16", "--recognize", "framed_k16_t123.json"], 0,
     "surface_k16_recognize_framed_t123.json"),
    ("k8-framed-cube-locus-recognition",
     ["surface", "--k", "8", "--recognize", "framed_k8_t1.json"], 0,
     "surface_k8_recognize_framed_t1.json"),
]

GOLDENS = LATTICE_GOLDENS + EXTRA_GLUE_GOLDENS + SURFACE_GOLDENS

# each --recognize input in tests/data: (k, modulus, t, frame seed)
FRAMED_INPUTS = {
    "framed_k8_t53.json": (8, None, 0x53, 8),
    "framed_k16_t123.json": (16, 0x1002D, 0x123, 16),
    "framed_k8_t1.json": (8, None, 0x1, 0),
}


def seeded_frame(g, seed):
    """g moved through the first invertible frame of entries drawn by
    random.Random(seed)."""
    q = g.field.q
    rng = random.Random(seed)
    while True:
        frame = tuple(tuple(rng.randrange(q) for _ in range(3)) for _ in range(3))
        try:
            return apply_frame(g, frame)
        except RecognitionError:  # a singular frame
            continue


def framed_normal_form(k, modulus, t, seed):
    """normal_form_sextic(GF(2^k), t) moved through the seeded frame."""
    return seeded_frame(normal_form_sextic(BinaryField(k, modulus), t), seed)
