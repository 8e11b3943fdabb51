"""Golden hashes of the exact trace and every report format of a seeded corpus.

Seeds 0-49 at up to 18 cars cover every input event kind, belt faults, and
the Halted, TooLong, DuplicatePhone and UnknownPhone rejections. A change
that alters behaviour on purpose regenerates the file with
``PYTHONPATH=src python tests/test_golden_digests.py`` and says why.

A refactor that claims no behaviour change prints the digests of a wider
range on each commit and compares the outputs, without touching the file:
``PYTHONPATH=src python tests/test_golden_digests.py --seeds 0-999 --stdout``.
"""

import argparse
import hashlib
from pathlib import Path

from autopark.report import format_report
from autopark.scenario import random_scenario, run_scenario

GOLDEN = Path(__file__).parent / "golden" / "corpus_digests.txt"
SEEDS = range(50)
MAX_VEHICLES = 18
REPORT_FORMATS = ("csv", "json-lines", "table")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def corpus_digests(seeds=SEEDS) -> list[str]:
    """One line per seed: the seed, the trace hash, then the CSV, JSON-lines
    and table report hashes."""
    lines = []
    for seed in seeds:
        result = run_scenario(random_scenario(seed, MAX_VEHICLES))
        digests = [_sha256("\n".join(result.trace))]
        digests += [_sha256(format_report(result.report, fmt)) for fmt in REPORT_FORMATS]
        lines.append(" ".join([str(seed), *digests]))
    return lines


def test_corpus_traces_and_reports_match_golden_digests():
    assert corpus_digests() == GOLDEN.read_text(encoding="utf-8").splitlines()


def _seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Write or print the corpus digests.")
    parser.add_argument(
        "--seeds",
        type=_seed_range,
        default=SEEDS,
        metavar="A-B",
        help="inclusive seed range (default: the golden file's 0-49)",
    )
    parser.add_argument(
        "--stdout", action="store_true", help="print the digests; leave the golden file alone"
    )
    args = parser.parse_args()
    if args.stdout:
        for line in corpus_digests(args.seeds):
            print(line, flush=True)
    elif args.seeds != SEEDS:
        parser.error("the golden file holds seeds 0-49; use --stdout for other ranges")
    else:
        GOLDEN.write_text("\n".join(corpus_digests()) + "\n", encoding="utf-8")
