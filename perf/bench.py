#!/usr/bin/env python3
"""The repo's benchmark: end-to-end and per-layer numbers for every workload.

    python3 perf/bench.py [--seed 3] [--repeats 5] [--out FILE]   every workload
    python3 perf/bench.py --quick                                  smoke run, < 30 s
    python3 perf/bench.py --compare A.json B.json                  two --out files
    python3 perf/bench.py --workload W --seed N --seconds S --trace 0|1
                                                                   (BENCHMARK.json's contract)

Every repeat is a fresh interpreter (``child.py``), one at a time. End-to-end
numbers come from untraced repeats only; one more repeat under cProfile and the
isolated drivers (``drivers.py``) give the per-layer numbers. Metric names, units, directions
and bounds are read from ``BENCHMARK.json``; see ``perf/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in CONTRACT["workloads"]]
END_TO_END = {entry["name"]: entry for entry in CONTRACT["end_to_end"]}
PER_LAYER = {entry["name"]: entry for entry in CONTRACT["per_layer"]}

QUICK_SCALE = 0.1
#: A repeat whose wall time exceeds its CPU time by more than this was
#: descheduled on the shared box; it is re-run (at most twice per workload).
DISTURBED_RATIO = 1.05
MAX_RERUNS = 2


def descheduled(child: Dict) -> bool:
    return child["region_s"] > DISTURBED_RATIO * child["region_cpu_s"]

NOTES = {
    "aggregated-open": "open loop: latency is timed from the scheduled arrival; the generator "
    "is itself simulated, so it never runs late (lateness 0 by construction)",
}


def _python(script: str, *args: str) -> Any:
    """Run one of this directory's scripts in a fresh interpreter; parse its JSON."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path for path in paths if path))
    # Let the warm-up child cache bytecode in the checkout: compiling src/ is
    # this program's build, not part of every repeat's set-up.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    proc = subprocess.run(
        [sys.executable, str(PERF / script), *args], env=env, stdout=subprocess.PIPE, text=True
    )
    if proc.returncode != 0:
        raise SystemExit(f"{script} {' '.join(args)}: exit code {proc.returncode}")
    return json.loads(proc.stdout) if proc.stdout else None


def run_repeat(workload: str, seed: Optional[int], scale: float, profile: bool = False) -> Dict:
    args = [workload, "--scale", repr(scale), "--t0", repr(time.perf_counter())]
    if seed is not None:
        args += ["--seed", str(seed)]
    if profile:
        args.append("--profile")
    return _python("child.py", *args)


def measure(
    workload: str, seed: Optional[int], scale: float, repeats: int, seconds: Optional[float]
) -> Tuple[List[Dict], int]:
    """Untraced repeats: ``repeats`` of them, or as many as start within ``seconds``."""
    started = time.perf_counter()
    steady: List[Dict] = []
    disturbed: List[Dict] = []
    while True:
        child = run_repeat(workload, seed, scale)
        (disturbed if descheduled(child) else steady).append(child)
        if seconds is not None:
            if time.perf_counter() - started >= seconds:
                return steady or disturbed, len(disturbed)
        elif len(steady) == repeats or len(disturbed) > MAX_RERUNS:
            return (steady + disturbed)[:repeats], len(disturbed)


def end_to_end_values(child: Dict) -> Dict[str, float]:
    # A descheduled repeat is only used when no steady one exists; the
    # program is single-threaded, so its CPU seconds are what the wall clock
    # would have read on a quiet box (2.01x wall, 1.02x CPU under 3 spinners).
    region_s = child["region_cpu_s"] if descheduled(child) else child["region_s"]
    return {
        "host_ops_per_s": child["counts"]["completed"] / region_s,
        "setup_s": child["setup_s"],
        "peak_rss_mb": child["peak_rss_mb"],
        **{name: child["sim"][name] for name in END_TO_END if name in child["sim"]},
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def count_values(counts: Dict[str, int]) -> Dict[str, float]:
    """The deterministic per-layer counts, per completed client request."""
    ops = counts["completed"]
    txns = counts["txns_committed"] + counts["txns_aborted"] + counts["txns_timedout"]
    return {
        "sim.engine.events_per_op": counts["events"] / ops,
        "sim.network.msgs_per_op": counts["messages"] / ops,
        "sim.network.bytes_per_op": counts["bytes"] / ops,
        "sim.network.dropped_fraction": _ratio(
            counts["dropped"], counts["messages"] + counts["duplicated"]
        ),
        "protocols.local_read_fraction": _ratio(
            counts["local_reads"], counts["local_reads"] + counts["remote_reads"]
        ),
        "core.replays_per_kop": 1e3 * counts["replays"] / ops,
        "core.inv_retransmissions_per_kop": 1e3 * counts["inv_retransmissions"] / ops,
        "cluster.txn.abort_fraction": _ratio(counts["txns_aborted"], txns),
        "cluster.txn.cross_shard_fraction": _ratio(counts["txns_cross_shard"], txns),
        "verification.states_per_op": _ratio(
            counts.get("explored_states", 0), counts.get("checked_ops", 0)
        ),
        "verification.max_key_ops": counts["max_key_ops"],
    }


def per_layer_values(samples: List[Dict], traced: Dict, rates: Dict) -> Dict[str, float]:
    values = {
        name: statistics.median(child["spans"][name] for child in samples)
        for name in samples[0]["spans"]
    }
    values.update(count_values(samples[0]["counts"]))
    values.update({f"{layer}.self_share": share for layer, share in traced["shares"].items()})
    untraced_s = statistics.median(child["region_s"] for child in samples)
    values["trace.overhead_ratio"] = traced["region_s"] / untraced_s
    values.update(rates)
    return values


def deterministic_part(child: Dict) -> Tuple:
    """What must repeat exactly for a fixed seed and size."""
    return child["sim_digest"], child["counts"], child["sim"]


def summarise(values: List[float]) -> Dict[str, float]:
    quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "median": statistics.median(values),
        "q1": quartiles[0],
        "q3": quartiles[2],
        "n": len(values),
    }


def run_workload(workload: str, args: argparse.Namespace, rates: Optional[Dict]) -> Dict:
    """Measure one workload; returns its report (see ``--out``)."""
    scale = QUICK_SCALE if args.quick else 1.0
    repeats = args.repeats if args.trace != 1 else 1
    seconds = args.seconds if args.trace != 1 else None
    samples, disturbed = measure(workload, args.seed, scale, repeats, seconds)
    errors = [error for child in samples for error in child["errors"]]
    if any(deterministic_part(child) != deterministic_part(samples[0]) for child in samples):
        errors.append("simulated results differ between repeats of one seed")
    first = samples[0]
    if any(child["counts"]["failed"] for child in samples):
        errors.append("requests ended without a definitive reply on a fault-free cell")
    report = {
        "seed": first["seed"],
        "inputs": first["inputs"],
        "sim_digest": first["sim_digest"],
        "latency_samples": first["sim"]["latency_samples"],
        "attempted": sum(child["counts"]["issued"] for child in samples),
        "failed": sum(child["counts"]["failed"] for child in samples),
        "disturbed_repeats": disturbed,
    }
    if args.trace != 1:
        columns = [end_to_end_values(child) for child in samples]
        report["end_to_end"] = {
            name: dict(summarise([column[name] for column in columns]), unit=END_TO_END[name]["unit"])
            for name in END_TO_END
        }
    if rates is not None:
        traced = run_repeat(workload, args.seed, scale, profile=True)
        errors += traced["errors"]
        if deterministic_part(traced) != deterministic_part(first):
            errors.append("traced run's simulated results differ from the untraced run's")
        values = per_layer_values(samples, traced, rates)
        report["per_layer"] = {
            name: {"value": values[name], "unit": PER_LAYER[name]["unit"]} for name in PER_LAYER
        }
    report["errors"] = errors
    return report


def print_report(workload: str, report: Dict) -> None:
    print(
        f"\n== {workload}: seed {report['seed']}, inputs: {report['inputs']}, "
        f"disturbed_repeats {report['disturbed_repeats']}, "
        f"sim_digest {report['sim_digest'][:16]}"
    )
    if workload in NOTES:
        print(f"   ({NOTES[workload]})")
    for name, row in report.get("end_to_end", {}).items():
        note = f"  ({report['latency_samples']} latency samples)" if name == "sim_p999_us" else ""
        print(
            f"  {name:<36} {row['median']:>16.6g} {row['unit']:<6} "
            f"[{row['q1']:.6g}, {row['q3']:.6g}] n={row['n']}{note}"
        )
    for name, row in report.get("per_layer", {}).items():
        print(f"  {name:<36} {row['value']:>16.6g} {row['unit']}")
    for error in report["errors"]:
        print(f"  ERROR {error}")


def fingerprint() -> Dict[str, Any]:
    cpu = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        models = [line for line in cpuinfo.read_text().splitlines() if line.startswith("model name")]
        cpu = models[0].split(":", 1)[1].strip() if models else ""
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": f"{platform.system()} {platform.machine()} {cpu}".strip(),
    }


def compare(path_a: str, path_b: str) -> int:
    """One row per workload x end-to-end metric; non-zero if any is worse."""
    a, b = (json.loads(Path(path).read_text()) for path in (path_a, path_b))
    if a["fingerprint"] != b["fingerprint"]:
        print(f"different machines: {a['fingerprint']} vs {b['fingerprint']}")
    shared = [name for name in a["workloads"] if name in b["workloads"]]
    for workload in shared:
        if a["workloads"][workload]["sim_digest"] != b["workloads"][workload]["sim_digest"]:
            print(f"model changed: {workload} sim_digest differs")
    print(f"{'workload':<16} {'metric':<22} {'A median [q1, q3]':>34} {'B median [q1, q3]':>34} "
          f"{'delta':>8} {'bound':>6}  verdict")
    worse = 0
    for workload in shared:
        for name, metric in END_TO_END.items():
            row_a = a["workloads"][workload]["end_to_end"][name]
            row_b = b["workloads"][workload]["end_to_end"][name]
            delta = (row_b["median"] - row_a["median"]) / row_a["median"]
            worsening = delta if metric["better"] == "lower" else -delta
            spread = max((row["q3"] - row["q1"]) / row["median"] for row in (row_a, row_b))
            if spread > metric["bound"]:
                verdict = "unresolved"
            elif worsening > metric["bound"]:
                verdict = "worse"
                worse += 1
            else:
                verdict = "better" if worsening < -metric["bound"] else "same"
            cells = [f"{r['median']:.6g} [{r['q1']:.6g}, {r['q3']:.6g}]" for r in (row_a, row_b)]
            print(f"{workload:<16} {name:<22} {cells[0]:>34} {cells[1]:>34} "
                  f"{delta:>+8.2%} {metric['bound']:>6.0%}  {verdict}")
    return 1 if worse else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, help="input seed (default 3: the frozen inputs)")
    parser.add_argument("--repeats", type=int, default=5, help="untraced repeats per workload")
    parser.add_argument("--seconds", type=float, help="start repeats for this long instead")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics only; 1: per-layer metrics only")
    parser.add_argument("--quick", action="store_true",
                        help="1/10 size, 1 repeat, no traced pass unless --trace 1")
    parser.add_argument("--out", help="write the full report here (input of --compare)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.quick:
        args.repeats = 1
        args.trace = 0 if args.trace is None else args.trace

    _python("child.py")  # page-cache warm-up: the first child's set-up reads 0.43 s, not 0.33 s
    rates = _python("drivers.py") if args.trace != 0 else None
    reports = {}
    for workload in [args.workload] if args.workload else WORKLOADS:
        reports[workload] = run_workload(workload, args, rates)
        print_report(workload, reports[workload])
    if args.out:
        document = {"fingerprint": fingerprint(), "quick": args.quick, "workloads": reports}
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n")

    correct = not any(report["errors"] for report in reports.values())
    if args.workload and args.trace is not None:
        report = reports[args.workload]
        metrics = report["per_layer"] if args.trace else {
            name: {"value": row["median"], "unit": row["unit"]}
            for name, row in report["end_to_end"].items()
        }
        print(json.dumps({
            "correct": correct,
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": metrics,
        }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
