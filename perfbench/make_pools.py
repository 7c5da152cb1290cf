"""Rebuild the word pools the `search` and `certify` workloads draw from.

    python3 perfbench/make_pools.py [search] [certify]   # default: both

The pools are committed, so a benchmark run never searches for its inputs.
Each entry records what the program answered when the pool was built
(witness degree, image order, NOTFOUND); the benchmark checks every run
against that record, so a later change that alters the first witness shows
as a failed job instead of a silently different workload.

Words are drawn from a fixed seed.  Strata keep the cost of a job nearly the
same whichever pool word a run's seed picks: NOTFOUND words are grouped by
length, found words by alphabet and image order, and a word whose timing at
build time falls outside its stratum's band is skipped.  The timings are
recorded only to document the band; nothing checks them.
"""

from __future__ import annotations

import json
import random
import signal
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from schreierkit import (  # noqa: E402
    Alphabet,
    FreeWord,
    Letter,
    Presentation,
    find_separating_quotient,
    image_closure,
    run_lemma,
)

POOL_SEED = 20180109


def random_reduced(rng: random.Random, alphabet: Alphabet, length: int) -> FreeWord:
    letters: list[Letter] = []
    while len(letters) < length:
        ell = Letter(rng.randrange(alphabet.size), rng.choice((1, -1)))
        if letters and letters[-1] == ell.inverse():
            continue
        letters.append(ell)
    return FreeWord(alphabet, tuple(letters))


def timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


class TooSlow(Exception):
    pass


def _too_slow(signum, frame):
    raise TooSlow


def search_within(seconds: float, presentation, word):
    """``find_separating_quotient`` at d<=5, or TooSlow after ``seconds``.
    Over three generators a NOTFOUND word takes about a minute; such words
    are not wanted in the certify pool, so they are cut short."""
    signal.signal(signal.SIGALRM, _too_slow)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return timed(find_separating_quotient, presentation, word, 5)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def search_pool(rng: random.Random) -> dict:
    ab = Alphabet.of("ab")
    free = Presentation(ab, ())
    notfound5: dict[str, list[str]] = {}
    found5: list[dict] = []
    for length in range(6, 15):
        words: list[str] = []
        while len(words) < 6:
            w = random_reduced(rng, ab, length)
            hom = find_separating_quotient(free, w, 5)
            if hom is None:
                if str(w) not in words:
                    words.append(str(w))
            elif hom.degree == 4 and len(found5) < 12 and len(image_closure(hom)) == 24:
                found5.append({"word": str(w), "degree": 4, "image_order": 24})
        notfound5[str(length)] = words
    candidates: list[tuple[str, float]] = []
    while len(candidates) < 8:
        w = random_reduced(rng, ab, 8)
        if find_separating_quotient(free, w, 5) is not None:
            continue
        hom, seconds = timed(find_separating_quotient, free, w, 6)
        if hom is None:
            candidates.append((str(w), seconds))
            print(f"d6 NOTFOUND {w} {seconds:.2f}s", flush=True)
    mid = statistics.median(s for _, s in candidates)
    notfound6 = [
        {"word": w, "build_s": round(s, 2)}
        for w, s in candidates
        if abs(s - mid) <= 0.1 * mid
    ]
    return {
        "alphabet": "ab",
        "notfound_d5_by_length": notfound5,
        "found_d5": found5,
        "notfound_d6": notfound6,
    }


CERTIFY_STRATA = (("ab", 24), ("ab", 60), ("ab", 120), ("abc", 24), ("abc", 120))


def certify_pool(seed: int) -> dict:
    strata: dict[str, list[dict]] = {}
    for names, order in CERTIFY_STRATA:
        rng = random.Random(f"{seed}:{names}:{order}")
        alphabet = Alphabet.of(names)
        free = Presentation(alphabet, ())
        rows: list[dict] = []
        while len(rows) < 12:
            w = random_reduced(rng, alphabet, rng.randrange(6, 13))
            try:
                hom, search_s = search_within(5.0, free, w)
            except TooSlow:
                continue
            if hom is None or len(image_closure(hom)) != order:
                continue
            cert, witness_s = timed(run_lemma, free, w, 5)
            letters = sum(len(u) for u in cert.basis.elements)
            rows.append(
                {
                    "word": str(w),
                    "degree": hom.degree,
                    "image_order": order,
                    "letters_in": letters,
                    "search_s": search_s,
                    "witness_s": witness_s,
                }
            )
        # keep the words whose fold size and search time sit near the median
        mid_letters = statistics.median(r["letters_in"] for r in rows)
        mid_search = statistics.median(r["search_s"] for r in rows)
        kept = [
            r
            for r in rows
            if abs(r["letters_in"] - mid_letters) <= 0.08 * mid_letters
            and r["search_s"] <= 2 * mid_search
        ]
        for r in kept:
            r["search_s"] = round(r["search_s"], 3)
            r["witness_s"] = round(r["witness_s"], 3)
        strata[f"{names}:{order}"] = kept
        print(f"certify {names}:{order} kept {len(kept)} of {len(rows)}", flush=True)
    return {"max_degree": 5, "strata": strata}


def main(names: list[str]) -> None:
    builders = {
        "search": lambda: search_pool(random.Random(POOL_SEED)),
        "certify": lambda: certify_pool(POOL_SEED),
    }
    pools = BENCH_DIR / "pools"
    pools.mkdir(exist_ok=True)
    note = f"built by make_pools.py with pool seed {POOL_SEED}"
    for name in names or sorted(builders):
        doc = {"note": note, **builders[name]()}
        (pools / f"{name}.json").write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
