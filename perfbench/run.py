"""Benchmark for the bcgames library, measured from outside.

One workload per process, as a closed loop: a single client runs one
operation at a time, no threads.

    python3 perfbench/run.py --workload tree-large --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the process times passes over the workload's
instances for ``--seconds`` seconds and prints the end-to-end metrics;
with ``--trace 1`` it alternates untraced and traced passes and prints
the per-layer metrics from the traced ones.  Pass times are scaled to
a reference CPU speed (see ``clock.py``); set-up times are not.  Either
way the last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  A record of the run goes to
``perfbench/out/``, and a traced run also writes its spans there.

Without ``--workload`` the command runs every workload, timed and then
traced, each in a fresh process, checks that both runs of a workload
agree on every counter and rendered output, prints a table of
``setup_s``, ``wall_s``, ``peak_rss_mb`` and ``failed_frac`` per
workload, and writes a summary with the per-layer metrics.

The library is imported from ``src/`` next to this directory; without
it the benchmark stops with exit code 1 before printing anything.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("campaign", "tree-large", "reduction-large")
# Set-up samples taken before the first pass, and in a timed run one more
# before each later pass, so they meet the machine in more of its states.
FIRST_SETUP_SAMPLES = 2
DEFAULT_SECONDS = 30


def _import_library() -> None:
    src = ROOT / "src"
    if not (src / "bcgames" / "__init__.py").is_file():
        sys.exit(f"perfbench: no bcgames sources at {src}")
    sys.path.insert(0, str(src))
    import bcgames

    if Path(bcgames.__file__).resolve().parent != (src / "bcgames").resolve():
        sys.exit(f"perfbench: bcgames was imported from {bcgames.__file__}, not {src}")


def _setup_sample(workload: str, seed: int) -> None:
    """Child process: import the library, build the inputs, report a digest."""
    _import_library()
    import inputs

    print(inputs.digest(inputs.BUILDERS[workload](seed)), flush=True)


def _time_setups(workload: str, seed: int, count: int) -> tuple[list[float], set[str]]:
    """Process start to inputs built, measured from the parent.

    These times are not scaled: a loop timed in the parent does not track
    the speed the child gets, and one timed in the child, cold, is noisier
    than the set-up itself.
    """
    times, digests = [], set()
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-sample", "--workload", workload]
    for _ in range(count):
        start = perf_counter()
        with subprocess.Popen(argv + ["--seed", str(seed)], stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            times.append(perf_counter() - start)
            child.stdout.read()
        if child.returncode != 0 or not line.strip():
            sys.exit(f"perfbench: set-up sample for {workload} failed")
        digests.add(line.strip())
    return times, digests


def _run_info(seed: int) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = done.stdout.strip() or commit
    return {
        "seed": seed,
        "commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def _manifest_units(key: str) -> dict[str, str]:
    """Metric name to unit, as BENCHMARK.json lists them under ``key``."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in manifest[key]}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> int:
    _import_library()
    setup_times, setup_digests = _time_setups(workload, seed, FIRST_SETUP_SAMPLES)
    import inputs
    import workloads
    from clock import ScaledClock, calibrate, scaled
    from tracing import Tracer

    cases = inputs.BUILDERS[workload](seed)
    problems = []

    tracer = Tracer()
    # A traced run alternates untraced and traced passes.
    modes = [False, True] if trace else [False]
    passes: list[dict] = []
    durations: list[float] = []
    while True:
        if passes and not trace:
            more_times, more_digests = _time_setups(workload, seed, 1)
            setup_times += more_times
            setup_digests |= more_digests
        traced = modes[len(passes) % len(modes)]
        gc.collect()
        pass_start = perf_counter()
        if traced:
            first = len(tracer.spans)
            before = calibrate()
            result = workloads.run_pass(workload, cases, tracer)
            result["ref_s"] = scaled(result["wall_s"], before, calibrate())
            factor = result["ref_s"] / result["wall_s"]
            result["self_times"] = {k: v * factor for k, v in tracer.self_times(first).items()}
        else:
            clock = ScaledClock()
            result = workloads.run_pass(workload, cases, clock)
            clock.stop()
            result["wall_s"], result["ref_s"] = clock.raw_s, clock.ref_s
        result["traced"] = traced
        passes.append(result)
        durations.append(perf_counter() - pass_start)
        if len(passes) >= len(modes) and sum(durations) + median(durations) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probe_start = perf_counter()
    probes = workloads.run_probes(workload, seed)
    probe_s = perf_counter() - probe_start

    if setup_digests != {inputs.digest(cases)}:
        problems.append("inputs differ between processes for one seed")
    for key in ("counters", "digest"):
        if any(p[key] != passes[0][key] for p in passes):
            problems.append(f"{key} differ between passes of one seed")
    failures = [f for p in passes for f in p["failures"]]
    problems += [f"operation {name} failed: {cls}: {msg}" for name, cls, msg in failures]
    problems += [f"probe {name} gave wrong output" for name, outcome in probes if outcome == "CheckFailed"]
    attempted = sum(p["ops"] for p in passes)
    probe_failed = sum(outcome != "ok" for _, outcome in probes)

    untraced = [p for p in passes if not p["traced"]]
    if trace:
        values = workloads.layer_metrics([p for p in passes if p["traced"]], untraced)
    else:
        values = {
            "setup_s": median(setup_times),
            "wall_s": median(p["ref_s"] for p in untraced),
            "peak_rss_mb": peak_rss_mb,
        }
    units = _manifest_units("per_layer" if trace else "end_to_end")
    if sorted(units) != sorted(values):
        sys.exit(f"perfbench: metrics {sorted(values)} do not match BENCHMARK.json {sorted(units)}")

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    if trace:
        tracer.write(stem.with_suffix(".spans.jsonl"))
    record = {
        "run": _run_info(seed),
        "workload": workload,
        "seconds": seconds,
        "trace": trace,
        "setup_s_samples": setup_times,
        "raw_wall_s": median(p["wall_s"] for p in untraced),
        "passes": [{k: v for k, v in p.items() if k != "self_times"} for p in passes],
        "counters": passes[0]["counters"],
        "digest": passes[0]["digest"],
        "peak_rss_mb": peak_rss_mb,
        "probes": probes,
        "probe_s": probe_s,
        "failed_frac": (len(failures) + probe_failed) / (attempted + len(probes)),
        "metrics": values,
        "problems": problems,
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(
        f"{workload} seed={seed} passes={len(passes)} failed_frac={record['failed_frac']:.6f} "
        f"probes={' '.join(f'{n}:{o}' for n, o in probes) or 'none'}"
    )
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload, timed then traced, each in its own process."""
    script = str(Path(__file__).resolve())
    status = 0
    summary = {"run": _run_info(seed), "seconds": seconds, "workloads": {}}
    for workload in WORKLOADS:
        records = []
        for trace in (0, 1):
            argv = [sys.executable, script, "--workload", workload, "--seed", str(seed)]
            argv += ["--seconds", str(seconds), "--trace", str(trace)]
            record = OUT / f"{workload}-seed{seed}-trace{trace}.json"
            record.unlink(missing_ok=True)
            done = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
            status = status or done.returncode
            if not record.is_file():
                break
            records.append(json.loads(record.read_text(encoding="utf-8")))
        if len(records) < 2:
            print(f"perfbench: {workload}: a run ended without a record", file=sys.stderr)
            status = status or 1
            continue
        timed, traced = records
        for key in ("counters", "digest"):
            if timed[key] != traced[key]:
                print(f"perfbench: {workload}: {key} differ between the timed and traced runs", file=sys.stderr)
                status = status or 1
        untraced_wall = timed["metrics"]["wall_s"]
        summary["workloads"][workload] = {
            "end_to_end": timed["metrics"] | {"failed_frac": timed["failed_frac"]},
            "per_layer": traced["metrics"],
            "traced_wall_s": traced["metrics"]["trace.wall_s"],
            "untraced_wall_s": untraced_wall,
            "raw_wall_s": timed["raw_wall_s"],
            "probes": timed["probes"],
            "passes": len(timed["passes"]),
            "problems": timed["problems"] + traced["problems"],
        }
    summary["run"]["cpu"] = _cpu_model()

    print("wall_s is scaled to the reference CPU speed; raw wall is plain wall-clock.")
    print(f"{'workload':<16} {'setup_s':>12} {'wall_s':>12} {'raw wall':>12} {'peak_rss_mb':>14} {'failed_frac':>12}")
    for workload, row in summary["workloads"].items():
        e2e = row["end_to_end"]
        print(
            f"{workload:<16} {e2e['setup_s']:>10.4f} s {e2e['wall_s']:>10.4f} s {row['raw_wall_s']:>10.4f} s "
            f"{e2e['peak_rss_mb']:>11.1f} MB {e2e['failed_frac']:>12.6f}"
        )
    for workload, row in summary["workloads"].items():
        overhead = row["traced_wall_s"] / row["untraced_wall_s"] - 1
        probes = ", ".join(f"{n} {o}" for n, o in row["probes"]) or "none"
        print(
            f"{workload}: traced wall_s {row['traced_wall_s']:.4f} s vs untraced "
            f"{row['untraced_wall_s']:.4f} s ({overhead:+.1%}); probes: {probes}"
        )
    OUT.mkdir(exist_ok=True)
    summary_path = OUT / f"summary-seed{seed}.json"
    summary_path.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print(f"per-layer metrics written to {summary_path}")
    return status


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-sample", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_sample:
        _setup_sample(args.workload, args.seed)
        return 0
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    return measure(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
