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

Each replay also pins the trial's ``artifact_digest`` (every per-op record
the run observed), known-red entries included: a protocol or client change
that moves a replay must say which one moved, not only whether it still
passes.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.fuzz import load_corpus, run_trial

CORPUS_DIR = Path(__file__).parent / "fuzz_corpus"
CORPUS = load_corpus(CORPUS_DIR)
KNOWN_RED = load_corpus(CORPUS_DIR / "known_red")

#: ``TrialOutcome.artifact_digest`` of every committed schedule's replay.
DIGESTS = {
    "seed_1133730262": "48e7e2d94857efe5912dc97beaffd9ad6607706348d784ff8a9d95725b04e48a",
    "seed_1194890881": "c062222633cdf54a463cc22c52cb5612d216a4d713229f9719720ec00928184d",
    "seed_145908633": "8edde59a0cc5a9972b0c27b90fa07e174b9ad61cb5a95f97ebcee5c4732b7d11",
    "seed_1674203090": "cb955577c04e37fd62f1cbad3e3e22693e5a7372b62fe2ceb9363d04260bbf5b",
    "seed_1736614894": "deb26db5d88398563883e71b5adf8ff0cb896c4640c397ac6375f07cf34a6626",
    "seed_29391812": "a7bd611766bfb21a84c157a6d3f9b8372d87557df150a9e67cf718443cab6743",
    "seed_424242": "b39507574419010c19f856a75950a14cb90d26c08c21b22d51f15b0216ee8416",
    "seed_551435239": "9a1d2acd441fd663b8ff32a6f77540504f4e674c7d21760b8636fdefcbb4ed87",
    "seed_600081029": "9075685fb5c6a08c692a129948aef56c86742b3176c46a8ebb0343dd94756584",
    # known_red/
    "seed_1694661618": "f710ae8c90f5dbf517687a5925d4979e2d3e71972d5a125c370743655005c0e5",
}


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
    assert outcome.artifact_digest == DIGESTS[name]


def test_known_red_schedules_stay_out_of_the_green_corpus():
    assert KNOWN_RED
    assert not {name for name, _ in KNOWN_RED} & {name for name, _ in CORPUS}


@pytest.mark.parametrize(
    "name,schedule", KNOWN_RED, ids=[name for name, _ in KNOWN_RED]
)
def test_known_red_schedule_replay_is_pinned(name, schedule):
    outcome = run_trial(schedule)
    assert outcome.error is None, outcome.error
    assert outcome.artifact_digest == DIGESTS[name]


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
