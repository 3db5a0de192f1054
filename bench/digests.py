"""Stored digests of corpus artifacts, for byte-identity across commits.

A rerun inside one run shows that the same seed gives the same bytes; only a
digest stored with the benchmark shows that a later commit still gives the
bytes this one gave. The artifacts are made from fixed inputs, not from the
run's seed.

    python3 bench/digests.py          # compare with bench/expected_digests.json
    python3 bench/digests.py --write  # make the stored digests anew
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

import checks

EXPECTED = Path(__file__).resolve().parent / "expected_digests.json"
SEED = 20250524
COUNT = 1000
KEEP = 0.25
CKM_RATIO = 0.3


def serialise(corpus, records) -> bytes:
    """JSONL bytes of records, one sorted-key document per line."""
    return "".join(json.dumps(corpus.record_to_dict(r), sort_keys=True) + "\n" for r in records).encode()


def render_all(corpus, records, seeds) -> list[str]:
    return [corpus.render_exposure(record, seed) for record, seed in zip(records, seeds)]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def artifacts(mc) -> dict[str, str]:
    corpus = mc.corpus
    records = corpus.generate_synbio(COUNT, SEED)
    render_seeds = np.random.SeedSequence(SEED).generate_state(COUNT, dtype=np.uint64).tolist()
    texts, _, _, _ = corpus.ckm_augment(records, CKM_RATIO, SEED)
    return {
        "generate_synbio.jsonl": _sha(serialise(corpus, records)),
        "render_exposure.txt": _sha("\n".join(render_all(corpus, records, render_seeds)).encode()),
        "subsample_corpus.jsonl": _sha(serialise(corpus, corpus.subsample_corpus(records, KEEP, SEED))),
        "ckm_augment.txt": _sha("\n".join(texts).encode()),
    }


def verify(mc) -> None:
    expected = json.loads(EXPECTED.read_text())["sha256"]
    actual = artifacts(mc)
    changed = sorted(name for name in expected if actual.get(name) != expected[name])
    checks.require(not changed, f"bytes changed for {', '.join(changed)}")


def main(argv) -> int:
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    import mixcap

    if "--write" in argv:
        doc = {"seed": SEED, "count": COUNT, "keep": KEEP, "ckm_ratio": CKM_RATIO, "sha256": artifacts(mixcap)}
        EXPECTED.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"wrote {EXPECTED}")
        return 0
    try:
        verify(mixcap)
    except checks.CheckFailed as exc:
        print(f"digests differ: {exc}")
        return 1
    print("digests match")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
