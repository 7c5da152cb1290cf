"""Workload job lists.

A workload is a fixed list of CLI invocations generated from a seed.  The
program sees only the input files written here and the argv of each job.
Every job carries its own output check, so a job fails on a wrong exit code,
wrong output or an oracle failure (see ``oracles.py``).

Every workload runs each of the three timed commands (``witness``,
``verify``, ``surface``) at least once, so that no end-to-end metric is 0:
the commands a workload is not about run as small probe jobs.  Probes and
the largest job of a workload are the same for every seed, so that the
seed changes a run's inputs but hardly its cost; the benchmark's spread is
taken across seeds.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracles

POOLS = Path(__file__).resolve().parent / "pools"

HIGMAN = "gens: a b c d\nrel: abABB\nrel: bcBCC\nrel: cdCDD\nrel: daDAA\n"

# runs per pass of a job that takes milliseconds
PROBE_REPEAT = 8

# certify: how many words each pass draws from each pool stratum.  The
# largest job, the order-120 word over a b c, is the pool word of median fold
# size.
CERTIFY_DRAWS = (("ab:24", 2), ("ab:60", 1), ("ab:120", 1), ("abc:24", 2))


@dataclass
class Job:
    """One CLI call.  ``name`` identifies the call by its inputs, so equal
    names give equal output whatever the seed; references are keyed by it.
    ``check`` returns a failure reason or None; ``after`` writes the files
    later jobs read from this job's output.  A job that takes milliseconds
    runs ``repeat`` times a pass, so its median rests on enough samples."""

    name: str
    argv: list[str]
    check: Callable[[int, str], str | None]
    after: Callable[[str], None] | None = None
    repeat: int = 1

    @property
    def command(self) -> str:
        return self.argv[0]


def input_file(root: Path, name: str, text: str) -> str:
    """Write one input file under ``root`` (once) and return its path."""
    path = root / name
    if not path.exists():
        path.write_text(text)
    return str(path)


def load_pool(name: str) -> dict:
    return json.loads((POOLS / f"{name}.json").read_text())


def free_presentation(names: str) -> str:
    return "gens: " + " ".join(names) + "\n"


def witness_jobs(
    root: Path, names: str, word: str, degree: int | None, order: int | None,
    chain: bool = False, repeat: int = 1,
) -> list[Job]:
    """``witness`` for ``word`` over the free group on ``names``.  ``order``
    None expects NOTFOUND; otherwise the certificate's image order must
    equal it and ``verify`` must answer OK.  ``chain`` adds ``basis
    --through`` and ``rewrite`` on the certificate's regular table."""
    pres = input_file(root, f"free_{names}.pres", free_presentation(names))
    tag = f"{names} {word} d={degree if degree is not None else 'default'}"
    argv = ["witness", "--presentation", pres, "--relator", word]
    if degree is not None:
        argv += ["--max-degree", str(degree)]
    if order is None:
        return [Job(f"witness {tag}", argv, oracles.expect_notfound)]
    stem = f"{names}_{word}"
    cert_path = root / f"{stem}.cert.json"
    table_path = root / f"{stem}.table"
    facts: dict = {}

    def after(stdout: str) -> None:
        cert_path.write_text(stdout)
        doc = json.loads(stdout)
        facts["r_position"] = doc["r_position"]
        table_path.write_text(oracles.table_text(names, doc["table"]["action"]))

    jobs = [
        Job(f"witness {tag}", argv, oracles.expect_certificate(word, order), after, repeat),
        Job(
            f"verify {tag}", ["verify", "--certificate", str(cert_path)], oracles.expect_ok,
            repeat=repeat,
        ),
    ]
    if chain:
        rel_pres = input_file(root, f"{stem}.pres", free_presentation(names) + f"rel: {word}\n")
        jobs += [
            Job(
                f"basis {tag}",
                ["basis", "--table", str(table_path), "--through", word],
                oracles.expect_basis(order, len(names), facts),
            ),
            Job(
                f"rewrite {tag}",
                ["rewrite", "--presentation", rel_pres, "--table", str(table_path)],
                oracles.expect_rewrite(order, len(names), 1),
            ),
        ]
    return jobs


def surface_job(genus: int, index: int, repeat: int = 1) -> Job:
    return Job(
        f"surface g={genus} n={index}",
        ["surface", "--genus", str(genus), "--index", str(index)],
        oracles.expect_surface(genus, index),
        repeat=repeat,
    )


def search(seed: int, root: Path) -> list[Job]:
    rng = random.Random(f"search:{seed}")
    pool = load_pool("search")
    higman = input_file(root, "higman.pres", HIGMAN)
    jobs = [
        Job(
            "witness higman abABB d=5",
            ["witness", "--presentation", higman, "--relator", "abABB", "--max-degree", "5"],
            oracles.expect_notfound,
        )
    ]
    for _, words in sorted(pool["notfound_d5_by_length"].items(), key=lambda kv: int(kv[0])):
        for word in rng.sample(words, 2):
            jobs += witness_jobs(root, "ab", word, 5, None)
    for entry in pool["found_d5"][:3]:
        jobs += witness_jobs(
            root, "ab", entry["word"], 5, entry["image_order"], repeat=PROBE_REPEAT
        )
    # the d<=6 word is the largest job: the pool word of median cost
    d6 = sorted(pool["notfound_d6"], key=lambda entry: entry["build_s"])
    jobs += witness_jobs(root, "ab", d6[len(d6) // 2]["word"], None, None)
    jobs.append(surface_job(2, 2, PROBE_REPEAT))
    return jobs


def surface(seed: int, root: Path) -> list[Job]:
    rng = random.Random(f"surface:{seed}")
    probe = load_pool("certify")["strata"]["ab:24"][0]
    jobs = [surface_job(2, 4), surface_job(3, 3)]
    rng.shuffle(jobs)
    return jobs + witness_jobs(
        root, "ab", probe["word"], 5, probe["image_order"], repeat=PROBE_REPEAT
    )


def certify(seed: int, root: Path) -> list[Job]:
    rng = random.Random(f"certify:{seed}")
    strata = load_pool("certify")["strata"]
    jobs: list[Job] = []
    for stratum, count in CERTIFY_DRAWS:
        names = stratum.split(":")[0]
        for entry in rng.sample(strata[stratum], count):
            jobs += witness_jobs(root, names, entry["word"], 5, entry["image_order"], chain=True)
    largest = sorted(strata["abc:120"], key=lambda entry: entry["letters_in"])
    jobs += witness_jobs(root, "abc", largest[len(largest) // 2]["word"], 5, 120, chain=True)
    jobs.append(surface_job(2, 2, PROBE_REPEAT))
    return jobs


def smoke(seed: int, root: Path) -> list[Job]:
    """Tiny inputs for the benchmark's own tests: every command and check
    path in well under a second."""
    return (
        witness_jobs(root, "ab", "aa", 4, 2, chain=True)
        + witness_jobs(root, "ab", "abAB", 2, None)
        + [surface_job(2, 2)]
    )


WORKLOADS = {"search": search, "surface": surface, "certify": certify, "smoke": smoke}
