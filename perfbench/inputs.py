"""Knot-point generators of the benchmark workloads.

The benchmark draws its own points from the workload seed and hands them to
the program through ``--points``, so a change to the program's own random
laws cannot change what is measured.
"""

import json

import numpy as np

# Interior points 1 - 2^-j for j = 1..NEAR_ONE_DEPTH lead the near-one law.
NEAR_ONE_DEPTH = 40


def uniform_iid(rng, n_interior):
    """Independent uniform draws on (0, 1); a repeat of any value is redrawn."""
    seen = set()
    out = []
    while len(out) < n_interior:
        x = float(rng.random())
        if x > 0.0 and x not in seen:
            seen.add(x)
            out.append(x)
    return out


def dyadic_shuffled(rng, n_interior):
    """Dyadic rationals level by level, each level in random order."""
    out = []
    level = 1
    while len(out) < n_interior:
        odd = np.arange(1, 2**level, 2) / 2.0**level
        out.extend(float(x) for x in odd[rng.permutation(len(odd))])
        level += 1
    return out[:n_interior]


def near_one(rng, n_interior):
    """1 - 2^-j for j = 1..40 first, then uniform draws distinct from them."""
    head = [1.0 - 2.0**-j for j in range(1, NEAR_ONE_DEPTH + 1)][:n_interior]
    tail = [x for x in uniform_iid(rng, n_interior) if x not in head]
    return head + tail[: n_interior - len(head)]


LAWS = {"uniform-iid": uniform_iid, "dyadic-shuffled": dyadic_shuffled, "near-one": near_one}


def points(law, seed, k, n, stream):
    """The {"k", "points"} document of a level-n sequence: 0, 1, then n - 1 interior points."""
    rng = np.random.default_rng([seed, stream])
    return {"k": k, "points": [0.0, 1.0] + LAWS[law](rng, n - 1)}


def write_points(path, doc):
    with open(path, "w") as handle:
        json.dump(doc, handle)
