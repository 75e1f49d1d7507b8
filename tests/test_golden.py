"""Frozen certificate corpus: construction output stays byte-identical.

`data/golden_certificates.txt` holds one line `n seed king sha256` per
certificate, the hash taken over `dumps_certificate(t, build_chain(t, k))`
for `t = random_strong_tournament(n, seed)`. The grid is every king for
n = 3..12 with seeds 0..4, every king for n = 50 seed 0, and every 20th
king for n = 200 seed 0. The hashes were recorded before the construction
was refactored, and regenerated twice: when the spine's rear path became
Rédei's rule toward the exit tail, and when the exit tail became the lowest
last-block vertex with an in-set out-neighbor. Regenerating them changes the
certificate format and needs its own change, never a refactor that fails
this test.
"""

import hashlib
from pathlib import Path

from kingchain import build_chain, dumps_certificate, kings, random_strong_tournament

CORPUS = Path(__file__).parent / "data" / "golden_certificates.txt"

GRID = [(n, seed, 1) for n in range(3, 13) for seed in range(5)] + [(50, 0, 1), (200, 0, 20)]


def corpus_lines():
    """`n seed king sha256` for every grid entry, in corpus order."""
    for n, seed, stride in GRID:
        t = random_strong_tournament(n, seed)
        for k in kings(t)[::stride]:
            digest = hashlib.sha256(dumps_certificate(t, build_chain(t, k)).encode()).hexdigest()
            yield f"{n} {seed} {k} {digest}"


def test_certificates_match_frozen_corpus():
    frozen = [line for line in CORPUS.read_text().splitlines() if not line.startswith("#")]
    current = list(corpus_lines())
    for want, got in zip(frozen, current):
        assert got == want
    assert len(current) == len(frozen)
