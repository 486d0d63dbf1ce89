"""Run one workload's jobs through schurzeta.cli.main, in process.

    python3 bench/worker.py WORKLOAD SEED SECONDS TRACE LOG SPANS

One client, no threads: each job starts when the previous one has returned.
The worker runs whole decks until SECONDS have passed and at least MIN_JOBS
jobs ran. Every job appends two lines to LOG, one before it starts (so a job
that kills the process is still known) and one with its exit code, captured
output and latency. The last line holds each deck's wall time, without the
time spent writing LOG, and the peak RSS.

With TRACE 1 every deck runs twice back to back, once untraced and once with
the layers wrapped, in alternating order, so the paired wall times give the
tracing overhead free of slow drift in machine speed. The spans of the traced
passes go to SPANS at exit.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import jobs  # noqa: E402

# p90 needs at least ten jobs beyond it
MIN_JOBS = 120


def run_job(cli, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    started = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except MemoryError:
        error = "MemoryError"
    except SystemExit as exc:
        code = exc.code
    except Exception:
        # the loop must go on; the job counts as failed with its traceback
        error = traceback.format_exc()
    latency = time.perf_counter() - started
    return {"code": code, "error": error, "latency_s": latency,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace, log_path, spans_path = argv
    seconds = float(seconds)
    tracer = None
    if trace == "1":
        from spans import Tracer

        tracer = Tracer()
    import schurzeta.cli as cli

    job_id = 0
    walls: dict[bool, list[float]] = {False: [], True: []}
    with open(log_path, "w") as log:

        def run_deck(deck, traced: bool) -> float:
            nonlocal job_id
            started, log_s = time.perf_counter(), 0.0
            for job in deck:
                t = time.perf_counter()
                log.write(json.dumps({"begin": job_id, "argv": job}) + "\n")
                log.flush()
                log_s += time.perf_counter() - t
                if traced:
                    tracer.job = job_id
                record = run_job(cli, job)
                t = time.perf_counter()
                record.update(id=job_id, argv=job, traced=traced)
                log.write(json.dumps(record) + "\n")
                log.flush()
                log_s += time.perf_counter() - t
                job_id += 1
            return time.perf_counter() - started - log_s

        started = time.perf_counter()
        for k, deck in enumerate(jobs.decks(workload, int(seed))):
            passes = [False] if tracer is None else [k % 2 == 1, k % 2 == 0]
            for traced in passes:
                if traced:
                    tracer.install()
                walls[traced].append(run_deck(deck, traced))
                if traced:
                    tracer.uninstall()
            if time.perf_counter() - started >= seconds and job_id >= MIN_JOBS:
                break
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        log.write(json.dumps({"done": True, "deck_walls_s": walls[False],
                              "traced_walls_s": walls[True], "peak_rss_kb": peak_kb}) + "\n")
    if tracer is not None:
        tracer.dump(spans_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
