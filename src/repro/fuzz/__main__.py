"""Fault-schedule fuzzing CLI.

Campaign (bounded trial budget, parallel across worker processes)::

    PYTHONPATH=src python -m repro.fuzz campaign --seed 1 --trials 50 \\
        --violations-out fuzz-violations/

Replay committed corpus entries (or any schedule JSON)::

    PYTHONPATH=src python -m repro.fuzz replay tests/fuzz_corpus/

Reproduce and shrink a single trial from its seed line::

    PYTHONPATH=src python -m repro.fuzz show --seed 123456
    PYTHONPATH=src python -m repro.fuzz shrink --seed 123456 --out min.json

Exit status is 0 when every trial/replay passed, 1 otherwise — CI treats a
violating nightly campaign as a failing job and uploads the schedules it
wrote to ``--violations-out`` as artifacts.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.fuzz.campaign import run_campaign, select_corpus
from repro.fuzz.corpus import load_schedule, save_schedule, schedule_to_dict
from repro.fuzz.schedule import FuzzConfig, generate_schedule
from repro.fuzz.shrink import shrink_schedule
from repro.fuzz.trial import run_trial


def _config_from_args(args: argparse.Namespace) -> FuzzConfig:
    overrides = {}
    if args.protocols:
        overrides["protocols"] = tuple(args.protocols.split(","))
    if args.fault_kinds:
        overrides["fault_kinds"] = tuple(args.fault_kinds.split(","))
    if args.max_faults is not None:
        overrides["max_faults"] = args.max_faults
    if args.autoscale_probability is not None:
        overrides["autoscale_probability"] = args.autoscale_probability
    return FuzzConfig(**overrides)


def _cmd_campaign(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    result = run_campaign(
        root_seed=args.seed,
        trials=args.trials,
        config=config,
        jobs=args.jobs,
        shrink=not args.no_shrink,
        log=print,
    )
    if args.corpus_out:
        corpus_dir = Path(args.corpus_out)
        for schedule in select_corpus(result.outcomes, limit=args.corpus_limit):
            path = save_schedule(schedule, corpus_dir / f"seed_{schedule.seed}.json")
            print(f"corpus: wrote {path}")
    if args.violations_out and not result.ok:
        out_dir = Path(args.violations_out)
        for outcome in result.violations:
            path = save_schedule(
                outcome.schedule, out_dir / f"violation_seed_{outcome.schedule.seed}.json"
            )
            print(f"violations: wrote {path}")
        for schedule in result.minimized:
            path = save_schedule(schedule, out_dir / f"minimized_seed_{schedule.seed}.json")
            print(f"violations: wrote {path}")
    return 0 if result.ok else 1


def _schedule_paths(arguments: List[str]) -> List[Path]:
    paths: List[Path] = []
    for argument in arguments:
        path = Path(argument)
        if path.is_dir():
            paths.extend(sorted(path.glob("*.json")))
        else:
            paths.append(path)
    return paths


def _cmd_replay(args: argparse.Namespace) -> int:
    status = 0
    for path in _schedule_paths(args.paths):
        outcome = run_trial(load_schedule(path))
        verdict = "PASS" if outcome.ok else "FAIL"
        print(f"{verdict} {path} ({outcome.describe()})")
        if not outcome.ok:
            status = 1
    return status


def _load_or_generate(args: argparse.Namespace) -> Optional[object]:
    if args.schedule:
        return load_schedule(args.schedule)
    if args.seed is not None:
        return generate_schedule(args.seed, _config_from_args(args))
    print("error: pass --seed or --schedule", file=sys.stderr)
    return None


def _cmd_show(args: argparse.Namespace) -> int:
    schedule = _load_or_generate(args)
    if schedule is None:
        return 2
    print(json.dumps(schedule_to_dict(schedule), indent=2, sort_keys=True))
    return 0


def _cmd_shrink(args: argparse.Namespace) -> int:
    schedule = _load_or_generate(args)
    if schedule is None:
        return 2
    outcome = run_trial(schedule)
    if outcome.ok:
        print("schedule does not violate; nothing to shrink")
        return 1
    minimized = shrink_schedule(schedule, log=print)
    if args.out:
        path = save_schedule(minimized, args.out)
        print(f"wrote {path}")
    else:
        print(json.dumps(schedule_to_dict(minimized), indent=2, sort_keys=True))
    return 0


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--protocols", help="comma-separated protocol names")
    parser.add_argument("--fault-kinds", help="comma-separated fault kinds to sample")
    parser.add_argument("--max-faults", type=int, help="max fault slots per schedule")
    parser.add_argument(
        "--autoscale-probability",
        type=float,
        default=None,
        help="chance a sharded cell runs the elastic resharding policy "
        "(plus node rejoin on Hermes) alongside its faults (default: 0)",
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.fuzz", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    campaign = sub.add_parser("campaign", help="run a bounded fuzz campaign")
    campaign.add_argument("--seed", type=int, default=1, help="campaign root seed")
    campaign.add_argument("--trials", type=int, default=50, help="trial budget")
    campaign.add_argument("--jobs", type=int, default=None, help="worker processes")
    campaign.add_argument("--no-shrink", action="store_true", help="skip shrinking")
    campaign.add_argument("--corpus-out", help="directory for survived corpus schedules")
    campaign.add_argument("--corpus-limit", type=int, default=8)
    campaign.add_argument("--violations-out", help="directory for violating schedules")
    _add_config_arguments(campaign)
    campaign.set_defaults(func=_cmd_campaign)

    replay = sub.add_parser("replay", help="replay schedule JSON files or directories")
    replay.add_argument("paths", nargs="+")
    replay.set_defaults(func=_cmd_replay)

    show = sub.add_parser("show", help="print the schedule a seed generates")
    show.add_argument("--seed", type=int)
    show.add_argument("--schedule", help="schedule JSON instead of a seed")
    _add_config_arguments(show)
    show.set_defaults(func=_cmd_show)

    shrink = sub.add_parser("shrink", help="shrink a violating schedule to a minimal repro")
    shrink.add_argument("--seed", type=int)
    shrink.add_argument("--schedule", help="schedule JSON instead of a seed")
    shrink.add_argument("--out", help="write the minimized schedule here")
    _add_config_arguments(shrink)
    shrink.set_defaults(func=_cmd_shrink)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
