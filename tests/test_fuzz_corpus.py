"""Replay the committed fuzz-corpus schedules as regression tests.

Every schedule under ``tests/fuzz_corpus/`` once survived a fuzz campaign;
replaying it asserts the full fault pipeline (schedule -> injected faults ->
bounded run -> every checker) still passes on exactly that interleaving.
A failure here is a safety regression, not flakiness: trials are
deterministic functions of the serialized schedule.

``tests/fuzz_corpus/known_red/`` holds schedules a campaign found *violating*
and nobody has fixed yet: each is a strict ``xfail``, so the open finding is
a failing test rather than a sentence, and the fix flips it loudly. Corpus
loading and ``python -m repro.fuzz replay tests/fuzz_corpus`` glob one level
only, so they never pick these up.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.fuzz import load_corpus, run_trial

CORPUS_DIR = Path(__file__).parent / "fuzz_corpus"
CORPUS = load_corpus(CORPUS_DIR)
KNOWN_RED = load_corpus(CORPUS_DIR / "known_red")


def test_corpus_is_not_empty():
    assert CORPUS, f"no schedules committed under {CORPUS_DIR}"


@pytest.mark.parametrize(
    "name,schedule", CORPUS, ids=[name for name, _ in CORPUS]
)
def test_corpus_schedule_replays_clean(name, schedule):
    outcome = run_trial(schedule)
    assert outcome.error is None, outcome.error
    assert outcome.ok, (
        f"{name} ({schedule.describe()}) regressed: {outcome.violations}"
    )


def test_known_red_schedules_stay_out_of_the_green_corpus():
    assert KNOWN_RED
    assert not {name for name, _ in KNOWN_RED} & {name for name, _ in CORPUS}


@pytest.mark.xfail(
    strict=True,
    reason="open finding (ROADMAP item 'Turn the red test green, make refutation "
    "terminate, and put every verdict in the artifact'): not linearizable",
)
@pytest.mark.parametrize(
    "name,schedule", KNOWN_RED, ids=[name for name, _ in KNOWN_RED]
)
def test_known_red_schedule_replays_clean(name, schedule):
    outcome = run_trial(schedule)
    assert outcome.error is None, outcome.error
    assert outcome.ok, f"{name} ({schedule.describe()}): {outcome.violations}"
