"""Workload definitions: problem documents made from a seed, and the pinned
answers every run is checked against.

`universal`, `generic` and `cyclotomic` are one heavy CLI call each.
`corpus` is the small problem corpus, each member run cache-cold, cache-hot
and with the cache disabled.

The seed only changes inputs where that leaves the answer fixed:
- `generic` and `cyclotomic` conjugate their canonical representation by
  a diagonal sign matrix S drawn from the seed, and pass it as generator
  images. Generator degrees, Tor rows and s-values do not depend on the
  basis, so the pins hold on every seed. S has entries +-1 only: sign
  changes leave the sizes of the entries, and so the engine's work, as
  they are. Conjugating by integer unipotent matrices instead made the
  generic problem about 2.3 times and the cyclotomic one up to 1.5 times
  slower, depending on the matrix (2-core Intel Xeon, Python 3.11).
  Seed 0 gives the canonical documents.
- `corpus` runs its members in an order shuffled by the seed.
- `universal` has a single fixed document; the seed is unused.
"""

from __future__ import annotations

import hashlib
import json
import random

WORKLOADS = ("universal", "generic", "cyclotomic", "corpus")

# Z3: the image of the generator, P diag(zeta, zeta, zeta^2) P^-1 with
# P = I + superdiagonal ones; (a, b) means a + b*zeta_3.
_Z3_IMAGE = (
    ((0, 1), (0, 0), (0, 0)),
    ((0, 0), (0, 1), (-1, -2)),
    ((0, 0), (0, 0), (-1, -1)),
)

# S3 on sign + standard: images of the builtin generators (0 1), (0 1 2).
_S3_SIGN_STANDARD = (
    ((-1, 0, 0), (0, -1, 1), (0, 0, 1)),
    ((1, 0, 0), (0, 0, -1), (0, 1, -1)),
)

GENERIC_CANONICAL = {
    "group": "builtin:sym:3",
    "rep": {"multiplicities": [0, 1, 1]},
    "task": "syzygies",
    "p": 1,
    "p_max": 1,
    "mode": "minimal",
}

S3_INVARIANTS = {
    "group": "builtin:sym:3",
    "rep": {"multiplicities": [0, 1, 1]},
    "task": "invariants",
    "stop": 12,
    "exact_limit": 0,
}

# Every corpus file except z2_universal, which is the `universal` workload.
CORPUS_FILES = (
    "chain",
    "klein_custom_noether",
    "q8_group",
    "s3_group",
    "triv_sign_full_syzygies",
    "z2_antipodal_bounds",
    "z2_antipodal_syzygies",
    "z2_schur_rowbounds",
    "z2_stabilization",
    "z3_invariants",
    "z3_veronese_bounds",
)

# sha256 of the canonical JSON of each report's "results" object.
CORPUS_RESULTS_SHA256 = {
    "chain": "bfbb05961245e128ea4c18e13f7a5faae1b15c3e279bd7109731341e80e00ff6",
    "klein_custom_noether": "239cd5f52c8c2de929a217692f51e29b21521f35bc98dc70989632ce0841aca7",
    "q8_group": "d4849ad14728811ca994cb75c16e8577d4b4d8f2b9ac81b408437cf2ba27439c",
    "s3_group": "3159bfd571db69c0075b74923f34e907a7f3baaa69d4c9a96b585d235e14b457",
    "triv_sign_full_syzygies": "9287db147e219edfa98047e71cfc0e1781c71da04a13e203be89a70327fac741",
    "z2_antipodal_bounds": "978da86f39e037c8a05530c21e9b1024bf4e432463762e72783863a92638da4b",
    "z2_antipodal_syzygies": "c7e1ecf720640f1ec3baf6e0d854aedf200c871fdea24fc2eda9d1455de17a53",
    "z2_schur_rowbounds": "6195e411cdc4228b9316d48debb729c89cc68bc664c614f77b79d3f14b88faf0",
    "z2_stabilization": "13014789203aeccd621ee63113f5f170ed839afb69091decbfcb1d2d9b94de2d",
    "z3_invariants": "43e70d6edef46113347efb8ef3f7d96f8eb36c4f8e597ec7ae99491923906b59",
    "z3_veronese_bounds": "2f739abdb08839f735f0edd0246ca4c3afc2594d7fcd94dddd83a1bf88d70282",
    "s3_sign_standard_invariants": "6d0790c7bd7ef3fd411dcea0af91eb603ab13fb405fcd615f06e316d54ce331e",
}

# Change-of-basis-invariant parts of the heavy answers: (path, value).
EXPECTED = {
    "universal": ((("s_prime_universal",), 4), (("dimension",), 6)),
    "generic": (
        (("generators", "degrees"), [2, 2, 3, 4]),
        (("s",), {"1": 8}),
        (("tor_table", "rows"), [[0, 0, 1], [1, 8, 1]]),
    ),
    "cyclotomic": (
        (("generators", "degrees"), [2, 2, 3, 3, 3, 3, 3]),
        (("s",), {"1": 6}),
        (("tor_table", "rows"), [[0, 0, 1], [1, 5, 3], [1, 6, 7]]),
    ),
}


def results_digest(results) -> str:
    canon = json.dumps(results, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def check_heavy(workload: str, results: dict) -> str | None:
    """None when the answer matches the pins, else what differs."""
    for path, want in EXPECTED[workload]:
        got = results
        for key in path:
            got = got.get(key) if isinstance(got, dict) else None
        if got != want:
            return f"{'.'.join(path)} = {got!r}, expected {want!r}"
    return None


def signs(seed: int):
    """Diagonal of the sign matrix S for a seed; None for seed 0."""
    if seed == 0:
        return None
    rng = random.Random(seed)
    return tuple(rng.choice((-1, 1)) for _ in range(3))


def _sign_conjugate(m, s):
    """S m S^-1 for S = diag(s); entries are (a, b) pairs meaning a + b*zeta_3."""
    return [
        [(x[0] * s[i] * s[j], x[1] * s[i] * s[j]) for j, x in enumerate(row)]
        for i, row in enumerate(m)
    ]


def _encode(entry):
    re, im = entry
    if im == 0:
        return [re, 1]
    return {"conductor": 3, "coeffs": [[re, 1], [im, 1]]}


def _images_doc(group: str, images) -> dict:
    return {
        "group": group,
        "rep": {"generator_images": [[[_encode(x) for x in row] for row in m] for m in images]},
        "task": "syzygies",
        "p": 1,
        "p_max": 1,
        "mode": "minimal",
    }


def generic_doc(seed: int) -> dict:
    """S3 on sign + standard; seed 0 is the multiplicities form."""
    s = signs(seed)
    if s is None:
        return dict(GENERIC_CANONICAL)
    images = [_sign_conjugate([[(x, 0) for x in row] for row in m], s) for m in _S3_SIGN_STANDARD]
    return _images_doc("builtin:sym:3", images)


def cyclotomic_doc(seed: int) -> dict:
    """Z3 acting by P diag(zeta, zeta, zeta^2) P^-1 with P = I + superdiagonal
    ones, conjugated by the seed's signs."""
    s = signs(seed) or (1, 1, 1)
    return _images_doc("builtin:cyclic:3", [_sign_conjugate(_Z3_IMAGE, s)])


def load_problem(root, name: str) -> dict:
    with open(root / "problems" / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def corpus_members(root, seed: int):
    """(member, task, document) for the corpus, in the seed's order."""
    members = []
    for name in CORPUS_FILES:
        doc = load_problem(root, name)
        members.append((name, doc["task"], doc))
    members.append(("s3_sign_standard_invariants", "invariants", dict(S3_INVARIANTS)))
    random.Random(seed).shuffle(members)
    return members
