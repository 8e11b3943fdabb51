"""Golden hashes of the exact trace and CSV report of a seeded corpus.

Seeds 0-49 at up to 18 cars cover every input event kind, belt faults, and
the Halted, TooLong, DuplicatePhone and UnknownPhone rejections. A change
that alters behaviour on purpose regenerates the file with
``PYTHONPATH=src python tests/test_golden_digests.py`` and says why.
"""

import hashlib
from pathlib import Path

from autopark.report import format_report
from autopark.scenario import random_scenario, run_scenario

GOLDEN = Path(__file__).parent / "golden" / "corpus_digests.txt"
SEEDS = range(50)
MAX_VEHICLES = 18


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def corpus_digests() -> list[str]:
    """One line per seed: the seed, the trace hash, the CSV report hash."""
    lines = []
    for seed in SEEDS:
        result = run_scenario(random_scenario(seed, MAX_VEHICLES))
        trace = _sha256("\n".join(result.trace))
        report = _sha256(format_report(result.report, "csv"))
        lines.append(f"{seed} {trace} {report}")
    return lines


def test_corpus_traces_and_reports_match_golden_digests():
    assert corpus_digests() == GOLDEN.read_text(encoding="utf-8").splitlines()


if __name__ == "__main__":
    GOLDEN.write_text("\n".join(corpus_digests()) + "\n", encoding="utf-8")
