"""The schurzeta benchmark: seeded CLI job streams, timed as a user runs them.

    python3 bench/run.py --workload float_eval --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seed 1 --seconds 30        # every workload, as a table

Run from the root of a checkout; the program is imported from src/. Each
workload runs in a fresh child process under an address-space limit, one job
at a time through schurzeta.cli.main (a closed loop with one client). After
the timed loop every report is checked (check.py) and the harness checks
itself: the job stream must repeat for the seed, and a corrupted report must
be rejected. The last line of output is one JSON object with the metrics:
with --trace 0 the end-to-end ones, with --trace 1 the per-layer ones from
spans, each deck run once untraced and once traced.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("float_eval", "exact_verify", "int_floating")
# the workload process may map this much; beyond it numpy raises MemoryError
ADDRESS_LIMIT = 3 << 30
# fresh interpreters timed per run for setup_s and setup.import_s, half of
# them before the workload and half after, so they straddle slow and fast
# spells of a shared machine
SETUP_SAMPLES = 5
SETUP_ARGV = ["-m", "schurzeta.cli", "eval-mzv", "--args", "2", "--M", "1"]
IMPORT_CODE = "import time; t = time.perf_counter(); import schurzeta.cli; print(time.perf_counter() - t)"
WORKER_TIMEOUT = 150.0

UNITS = {"jobs_per_s": "1/s", "job_p50_s": "s", "job_p90_s": "s", "peak_rss_mb": "MB",
         "setup_s": "s", "failed_frac": "1"}


class HarnessError(Exception):
    """The benchmark itself is broken; no result may be printed."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _fresh_interpreter(args: list[str]) -> tuple[float, str]:
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], env=_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - started
    if proc.returncode != 0:
        raise HarnessError(f"{' '.join(args)} exited {proc.returncode}: {proc.stderr.strip()}")
    return elapsed, proc.stdout


def setup_times() -> list[float]:
    """Cold start of the CLI as a user pays it, interpreter start to exit."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        elapsed, out = _fresh_interpreter(SETUP_ARGV)
        if json.loads(out)["results"]["value"] != 1.0:
            raise HarnessError("setup job returned a wrong value")
        samples.append(elapsed)
    return samples


def import_times() -> list[float]:
    return [float(_fresh_interpreter(["-c", IMPORT_CODE])[1]) for _ in range(SETUP_SAMPLES)]


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_LIMIT, ADDRESS_LIMIT))


def run_worker(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run the worker process and read back its job records."""
    OUT.mkdir(exist_ok=True)
    tag = f"{workload}-{seed}-{'traced' if trace else 'plain'}"
    log_path, spans_path = OUT / f"{tag}.jsonl", OUT / f"{tag}-spans.jsonl"
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(seconds),
           "1" if trace else "0", str(log_path), str(spans_path)]
    proc = subprocess.Popen(cmd, env=_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True, preexec_fn=_limit_address_space)
    try:
        _, stderr = proc.communicate(timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        _, stderr = proc.communicate()
    if not log_path.exists():
        raise HarnessError(f"worker exited {proc.returncode} before running a job: {stderr.strip()}")
    records, begun, done = [], {}, None
    with open(log_path) as fh:
        for line in fh:
            entry = json.loads(line)
            if "begin" in entry:
                begun[entry["begin"]] = entry["argv"]
            elif "done" in entry:
                done = entry
            else:
                records.append(entry)
    log_path.unlink()
    if done is None:
        # the process died or hung: the job in flight failed, the rest never ran
        lost = [begun[i] for i in sorted(begun) if i >= len(records)]
        records += [{"argv": argv, "code": None, "latency_s": float("inf"), "stdout": "", "stderr": "",
                     "error": f"worker exited {proc.returncode}: {stderr.strip()[-500:]}"} for argv in lost]
        # its own peak is lost; the largest child waited for is the best record left
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        done = {"deck_walls_s": [], "traced_walls_s": [], "peak_rss_kb": peak_kb}
    result = {"records": records, **done}
    if trace:
        from spans import load

        result["spans"] = load(spans_path) if spans_path.exists() else []
    return result


def check_records(records: list[dict]) -> list[str]:
    """Mark each record ok or not; returns the failures, argv first."""
    from check import CheckFailed, check

    failures = []
    for rec in records:
        try:
            if rec.get("error"):
                raise CheckFailed(rec["error"].strip().splitlines()[-1])
            if not rec["stdout"]:
                raise CheckFailed(f"exit {rec['code']}: {rec['stderr'].strip()}")
            check(rec["argv"], rec["code"], rec["stdout"])
            rec["ok"] = True
        except (CheckFailed, KeyError, ValueError, TypeError, ZeroDivisionError) as err:
            rec["ok"] = False
            failures.append(f"{' '.join(rec['argv'])}  ->  {type(err).__name__}: {err}")
    return failures


def self_check(workload: str, seed: int, records: list[dict]):
    """The job stream repeats for a seed, and a corrupted report of every
    command kind that passed is rejected."""
    from check import CheckFailed, check_report, corrupt
    from jobs import first_decks

    if first_decks(workload, seed, 2) != first_decks(workload, seed, 2):
        raise HarnessError("job generator is not deterministic")
    if first_decks(workload, seed, 1) == first_decks(workload, seed + 1, 1):
        raise HarnessError("job generator ignores the seed")
    seen = set()
    for rec in records:
        if not rec["ok"] or rec["argv"][0] in seen:
            continue
        seen.add(rec["argv"][0])
        try:
            check_report(rec["argv"], rec["code"], corrupt(json.loads(rec["stdout"])))
        except CheckFailed:
            continue
        raise HarnessError(f"checker accepted a corrupted report of {' '.join(rec['argv'])}")


def end_to_end(run: dict, setup: list[float]) -> tuple[dict, dict]:
    """Metrics and their sample counts. Throughput is checked-correct jobs per
    second of the loop's wall time. A failed job counts as missing every
    latency limit."""
    records = run["records"]
    lat = sorted(r["latency_s"] if r["ok"] else float("inf") for r in records)
    ok = sum(r["ok"] for r in records)
    wall = sum(run["deck_walls_s"])
    p90 = statistics.quantiles(lat, n=10)[8] if len(lat) >= 2 else lat[0]
    metrics = {
        "jobs_per_s": ok / wall if wall else 0.0,
        "job_p50_s": statistics.median(lat),
        "job_p90_s": p90,
        "peak_rss_mb": (run["peak_rss_kb"] or 0) / 1024,
        "setup_s": statistics.median(setup),
        "failed_frac": 1 - ok / len(records),
    }
    beyond = sum(x > p90 for x in lat)
    counts = {"jobs_per_s": len(records), "job_p50_s": len(lat), "job_p90_s": f"{len(lat)}, {beyond} beyond",
              "peak_rss_mb": 1, "setup_s": len(setup), "failed_frac": len(records)}
    return metrics, counts


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    _fresh_interpreter(SETUP_ARGV)  # bytecode is compiled once, by a first use
    setup_before = import_times() if trace else setup_times()
    run = run_worker(workload, seed, seconds, trace)
    setup = setup_before + (import_times() if trace else setup_times())
    records = run["records"]
    if not records:
        raise HarnessError("no job ran")
    failures = check_records(records)
    self_check(workload, seed, records)
    out = {"attempted": len(records), "failed": len(failures), "failures": failures}
    if trace:
        from spans import per_layer

        ratios = [b / a for a, b in zip(run["deck_walls_s"], run["traced_walls_s"])]
        metrics = per_layer(run["spans"], max(len(ratios), 1))
        if ratios:
            metrics["trace.overhead_frac"] = statistics.median(ratios) - 1
        metrics["setup.import_s"] = statistics.median(setup)
        out["metrics"] = metrics
        out["counts"] = {"trace.overhead_frac": len(ratios), "setup.import_s": len(setup)}
    else:
        out["metrics"], out["counts"] = end_to_end(run, setup)
    return out


def _result_line(out: dict, units: dict) -> str:
    return json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in out["metrics"].items() if k in units},
    })


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, help="one workload (default: all, as a table)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "schurzeta" / "cli.py").is_file():
        print(f"error: no schurzeta sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    config = json.loads((ROOT / "BENCHMARK.json").read_text()) if (ROOT / "BENCHMARK.json").is_file() else {}
    units = {m["name"]: m["unit"] for m in config.get("per_layer" if args.trace else "end_to_end", [])}
    if not units:
        units = UNITS
    try:
        outs = {}
        for workload in [args.workload] if args.workload else WORKLOADS:
            out = outs[workload] = run_workload(workload, args.seed, args.seconds, bool(args.trace))
            for line in out["failures"]:
                print(f"FAILED {workload}: {line}")
            for name, value in out["metrics"].items():
                unit = units.get(name) or UNITS.get(name, "")
                n = out["counts"].get(name)
                print(f"{workload:13s} {name:40s} {value:14.6g} {unit:6s}" + (f" n={n}" if n else ""))
    except HarnessError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if args.workload:
        print(_result_line(outs[args.workload], units))
    else:
        print(json.dumps({w: json.loads(_result_line(o, units)) for w, o in outs.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
