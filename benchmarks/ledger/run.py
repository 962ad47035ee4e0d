#!/usr/bin/env python3
"""The performance ledger: one command, four workloads, every layer.

One run of one workload (what ``BENCHMARK.json``'s ``command`` starts)::

    python3 benchmarks/ledger/run.py --workload serve_tcp --seed 7 \\
        --seconds 10 --trace 0

prints every metric by name with its unit, checks the outputs, and ends
with one JSON line ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones plus a reconciliation of layer times against the traced
end-to-end time.

Without ``--workload`` the command runs the whole set — every workload
``--repeats`` times, interleaved, each run a fresh process, then one
traced run per workload — and writes ``ledger.json`` to ``--out``.
``--check-repeat`` does that twice and holds the two sets against the
bounds in ``BENCHMARK.json``.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional


def pin_string_hashing() -> None:
    """Start over with ``PYTHONHASHSEED=0`` unless already so.

    Python salts ``str`` hashes per process, which changes the layout and
    collision pattern of every set of package names; one replay was
    measured to run up to 20 % faster or slower, for the whole life of a
    process, depending on the salt alone.  The daemon and the cold
    recovery processes inherit the setting.
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)


if __name__ == "__main__":
    pin_string_hashing()  # before the imports below are paid for twice

import harness  # noqa: E402

harness.require_source_tree()

from harness import (  # noqa: E402
    ROOT, WORK_ROOT, MachineSpeed, Workspace, at_reference_speed, clock,
    generator_cap, median,
)
from durable import DurableRecover  # noqa: E402
from replay import ReplayWide, ReplayZone  # noqa: E402
from serve import ServeTcp  # noqa: E402

WORKLOADS = {cls.name: cls for cls in
             (ReplayZone, ReplayWide, ServeTcp, DurableRecover)}

SETUP_REPEATS = 3


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    spec = harness.load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run this one workload in this process "
                        "(default: the whole set, one process per run)")
    parser.add_argument("--seed", type=int, default=2020,
                        help="drives spec sampling and shuffle only")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run, report the per-layer metrics")
    parser.add_argument("--traced", action="store_const", const=1,
                        dest="trace", help="same as --trace 1")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="common factor on every workload's counts")
    parser.add_argument("--setups", type=int, default=SETUP_REPEATS,
                        help="times set-up is run; setup_s is the quickest")
    parser.add_argument("--repeats", type=int, default=3,
                        help="whole set: untraced runs per workload")
    parser.add_argument("--vary-seed", action="store_true",
                        help="whole set: repeat r runs with seed + r, as the "
                        "builder's steadiness rule does")
    parser.add_argument("--check-repeat", action="store_true",
                        help="run the whole set twice and compare the two")
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for ledger.json, run details, "
                        "trace-<workload>.jsonl and registry snapshots")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.scale <= 0 or args.setups < 1 or args.repeats < 1:
        parser.error("--seconds, --scale, --setups and --repeats must be positive")
    return args


# -- one run of one workload, in this process --------------------------------


def run_workload(args: argparse.Namespace, spec: dict) -> int:
    traced = bool(args.trace)
    work = Workspace()
    speed = MachineSpeed()
    workload = WORKLOADS[args.workload](args.seed, args.scale, traced, work,
                                        speed)
    setups: List[tuple] = []
    try:
        for attempt in range(args.setups):
            if attempt:
                workload.teardown()
            mark = speed.mark()
            speed.sample()
            t0, cpu = clock(), workload.cpu_s()
            workload.setup()
            wall, cpu = clock() - t0, workload.cpu_s() - cpu
            speed.sample()
            setups.append((wall, cpu, speed.factor(mark)))
        workload.measure(args.seconds)
        end_to_end = dict(workload.end_to_end(), setup_s=median(
            [at_reference_speed(*setup) for setup in setups]))
        per_layer = workload.per_layer()
        reconcile = workload.reconcile()
        out_dir = args.out or (WORK_ROOT / "out" if traced else None)
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            write_artifacts(out_dir, workload)
    finally:
        workload.teardown()
        work.close()

    checks = workload.checks
    attempted = workload.attempted + len(checks.results)
    failed = workload.failed_ops + checks.failed
    wanted = spec["per_layer"] if traced else spec["end_to_end"]
    measured = per_layer if traced else end_to_end
    metrics = {}
    for metric in wanted:
        if metric["name"] not in measured and not traced:
            raise SystemExit(f"ledger: {metric['name']} was not measured")
        # A layer a workload does not run did no work: 0, not absent.
        metrics[metric["name"]] = {
            "value": measured.get(metric["name"], 0.0), "unit": metric["unit"]}

    sizes = workload.sizes()
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"scale {args.scale:g} traced {int(traced)} laps {len(workload.laps)} "
          f"generator_threads {generator_cap()} nproc {os.cpu_count()}")
    print("sizes " + " ".join(f"{k}={v}" for k, v in sizes.items()))
    print("lap_rates " + " ".join(
        f"{lap['ops'] / lap['wall_s']:.5g}{'t' if lap['traced'] else ''}"
        for lap in workload.laps))
    print("lap_speed_factors " + " ".join(
        f"{lap['factor']:.3f}" for lap in workload.laps))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for kind, values in (("end_to_end", end_to_end), ("per_layer", per_layer)):
        if kind == "per_layer" and not traced:
            continue
        for name in sorted(values):
            print(f"{kind} {name} {values[name]:.6g} {units.get(name, '')}".rstrip())
    for name, value in sorted(workload.fingerprint().items()):
        print(f"fingerprint {name} {value:.12g}")
    if workload.state_digest() is not None:
        print(f"digest {workload.state_digest()}")
    if reconcile is not None:
        print(reconcile_line(args.workload, reconcile))
    print(f"checks {len(checks.results) - checks.failed} passed, "
          f"{checks.failed} failed; failed_share {failed / attempted:.6g} "
          f"({failed} of {attempted})")

    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    if args.out is not None:
        detail = dict(result, workload=args.workload, seed=args.seed,
                      seconds=args.seconds, scale=args.scale, traced=traced,
                      sizes=sizes, laps=len(workload.laps),
                      nproc=os.cpu_count(), generator_cap=generator_cap(),
                      end_to_end=end_to_end,
                      per_layer=per_layer if traced else {},
                      fingerprint=workload.fingerprint(),
                      digest=workload.state_digest(),
                      reconcile=reconcile, checks=checks.results,
                      setups_s=[wall for wall, *_ in setups])
        name = f"run-{args.workload}-{'traced' if traced else 'plain'}.json"
        (args.out / name).write_text(json.dumps(detail, indent=1))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def reconcile_line(workload: str, reconcile: dict) -> str:
    """Σ per-layer times against the traced end-to-end time, remainder named."""
    total = reconcile["total_s"]
    parts = reconcile["parts"]
    rest = total - sum(parts.values())
    share = rest / total if total else 0.0
    body = " + ".join(f"{name} {value:.4f}" for name, value in parts.items())
    return (f"reconcile {workload}: {reconcile['what']}: end_to_end "
            f"{total:.4f} s = {body} + unattributed {rest:.4f} "
            f"({share:.1%})")


def write_artifacts(out_dir: Path, workload) -> None:
    if workload.traced:
        workload.spans.write(out_dir / f"trace-{workload.name}.jsonl")
    for name, text in workload.artifacts.items():
        (out_dir / f"{workload.name}-{name}").write_text(text)


# -- the whole set, one process per run --------------------------------------


def run_child(args: argparse.Namespace, workload: str, seed: int,
              traced: bool, out: Path) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(int(traced)),
               "--scale", str(args.scale), "--setups", str(args.setups),
               "--out", str(out)]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    sys.stdout.write(done.stdout)
    detail = out / f"run-{workload}-{'traced' if traced else 'plain'}.json"
    if not detail.exists():
        raise SystemExit(f"ledger: {workload} run died with status "
                         f"{done.returncode}")
    return json.loads(detail.read_text())


def run_set(args: argparse.Namespace, spec: dict, out: Path) -> dict:
    """Every workload ``--repeats`` times, interleaved, then once traced."""
    names = [w["name"] for w in spec["workloads"]]
    seeds = [args.seed + (repeat if args.vary_seed else 0)
             for repeat in range(args.repeats)]
    runs: Dict[str, List[dict]] = {name: [] for name in names}
    for repeat, seed in enumerate(seeds):
        for name in names:
            runs[name].append(
                run_child(args, name, seed, False, out / f"r{repeat}"))
    traced = {name: run_child(args, name, args.seed, True, out)
              for name in names} if args.trace else {}

    ledger = {"claim": None, "seeds": seeds, "seconds": args.seconds,
              "scale": args.scale, "repeats": args.repeats,
              "nproc": os.cpu_count(), "generator_cap": generator_cap(),
              "workloads": {}}
    for name in names:
        plain = runs[name]
        entry = {"sizes": plain[0]["sizes"], "end_to_end": {},
                 "fingerprint": plain[0]["fingerprint"],
                 "digest": plain[0]["digest"],
                 "fingerprints_agree": fingerprints_agree(plain),
                 "attempted": sum(run["attempted"] for run in plain),
                 "failed": sum(run["failed"] for run in plain)}
        entry["failed_share"] = entry["failed"] / entry["attempted"]
        for metric in spec["end_to_end"]:
            values = [run["end_to_end"][metric["name"]] for run in plain]
            entry["end_to_end"][metric["name"]] = {
                "unit": metric["unit"], "better": metric["better"],
                "bound": metric["bound"], "median": median(values),
                "min": min(values), "max": max(values), "n": len(values),
                "quartile_spread": quartile_spread(values), "values": values}
        if name in traced:
            run = traced[name]
            entry["per_layer"] = {
                metric["name"]: {"value": run["per_layer"].get(metric["name"], 0.0),
                                 "unit": metric["unit"]}
                for metric in spec["per_layer"]}
            entry["reconcile"] = run["reconcile"]
            entry["failed"] += run["failed"]
            entry["attempted"] += run["attempted"]
            entry["failed_share"] = entry["failed"] / entry["attempted"]
        ledger["workloads"][name] = entry
    (out / "ledger.json").write_text(json.dumps(ledger, indent=1))
    print_ledger(ledger)
    return ledger


def fingerprints_agree(runs: List[dict]) -> bool:
    """Runs of one seed must count the same and reach the same state."""
    first: Dict[int, tuple] = {}
    return all(
        first.setdefault(run["seed"], (run["fingerprint"], run["digest"]))
        == (run["fingerprint"], run["digest"]) for run in runs)


def quartile_spread(values: List[float]) -> Optional[float]:
    """Third minus first quartile as a share of the median — what the
    builder's contract holds against a metric's bound over ten seeds."""
    if len(values) < 4:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)


def print_ledger(ledger: dict) -> None:
    print(f"\nledger: seeds {ledger['seeds']}, runs of "
          f"{ledger['seconds']:g} s per workload, nproc {ledger['nproc']}, "
          f"generator cap {ledger['generator_cap']}")
    for name, entry in ledger["workloads"].items():
        for metric, stat in entry["end_to_end"].items():
            spread = stat["quartile_spread"]
            print(f"  {name:16} {metric:16} median {stat['median']:.6g} "
                  f"{stat['unit']} (min {stat['min']:.6g}, max "
                  f"{stat['max']:.6g}, n {stat['n']}"
                  + (f", quartiles {spread:.3f} of median vs bound "
                     f"{stat['bound']:g}" if spread is not None else "")
                  + ")")
        print(f"  {name:16} failed_share     {entry['failed_share']:.6g} "
              f"digest {str(entry['digest'])[:12]}")


def ledger_ok(ledger: dict) -> bool:
    return all(entry["failed"] == 0 and entry["fingerprints_agree"]
               for entry in ledger["workloads"].values())


def check_repeat(args: argparse.Namespace, spec: dict, out: Path) -> int:
    """Two sets of runs of the same code must agree within the bounds."""
    from compare import compare_ledgers, render

    first = run_set(args, spec, out / "set-a")
    second = run_set(args, spec, out / "set-b")
    rows = compare_ledgers(first, second)
    print("\ncheck-repeat: set A vs set B of the same code")
    print(render(rows))
    exact = all(
        first["workloads"][name]["fingerprint"]
        == second["workloads"][name]["fingerprint"]
        and first["workloads"][name]["digest"]
        == second["workloads"][name]["digest"]
        for name in first["workloads"])
    print(f"exact counts and digests agree between the sets: {exact}")
    agree = all(row["within_bound"] for row in rows)
    print(f"every end-to-end median within its bound: {agree}")
    (out / "check-repeat.json").write_text(json.dumps(
        {"rows": rows, "exact_counts_agree": exact, "within_bounds": agree},
        indent=1))
    ok = exact and agree and ledger_ok(first) and ledger_ok(second)
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    # A terminated run must still stop its daemon and remove its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spec = harness.load_spec()
    if args.workload is not None:
        return run_workload(args, spec)
    out = args.out or ROOT / ".ledger_work" / "out"
    out.mkdir(parents=True, exist_ok=True)
    if args.check_repeat:
        return check_repeat(args, spec, out)
    return 0 if ledger_ok(run_set(args, spec, out)) else 1


if __name__ == "__main__":
    sys.exit(main())
