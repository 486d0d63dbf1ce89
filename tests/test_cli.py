import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from schurzeta import cli
from schurzeta.cli import JobSpec, UsageError, run
from schurzeta.mzv import TruncationConfig


def test_verify_hook1_exact(capsys):
    code = cli.main(
        ["verify", "hook1", "--p", "1", "--q", "1", "--content", "0=2,1=2,-1=2",
         "--M", "6", "--exact"]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["results"]["equal"] is True
    assert out["results"]["comparison"] == "exact"
    assert out["status"] == "ok"


@pytest.mark.parametrize(
    "identity,extra",
    [
        ("hook2", ["--p", "2", "--q", "1", "--content", "0=2,1=1,2=2,-1=2"]),
        ("giambelli", ["--shape", "2,2", "--content", "0=3,1=2,-1=2"]),
        ("thm41", ["--shape", "2,2", "--content", "0=3,1=2,-1=2"]),
        ("thm41-reversed", ["--shape", "2,2", "--content", "0=3,1=2,-1=2"]),
        ("thm42", ["--shape", "2,1", "--content", "0=3,1=2,-1=2"]),
        ("antihook", ["--bottom", "2,2", "--column", "3"]),
    ],
)
def test_verify_all_identities_exact(identity, extra, capsys):
    code = cli.main(["verify", identity, *extra, "--M", "5", "--exact"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0, out
    assert out["results"]["equal"] is True


def test_verify_floating(capsys):
    code = cli.main(
        ["verify", "thm41", "--shape", "2,2", "--content", "0=3,1=2,-1=2", "--M", "300"]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["results"]["comparison"] == "tolerance"
    assert abs(out["results"]["difference"]) <= out["results"]["threshold"]


def test_eval_mzv(capsys):
    code = cli.main(["eval-mzv", "--args", "2", "--M", "100000"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["results"]["value"] == pytest.approx(1.6449340668, abs=1e-5)
    assert out["results"]["tail_bound"] <= 1e-4


def test_expand_term_count(capsys):
    code = cli.main(["expand", "giambelli", "--shape", "2,2"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["results"]["term_count"] == 4  # before collection

    code = cli.main(["expand", "giambelli", "--shape", "2,2", "--format", "latex"])
    latex = capsys.readouterr().out.strip()
    assert code == 0 and latex.startswith("\\zeta")

    cli.main(["expand", "giambelli", "--shape", "2,2", "--collected"])
    out = json.loads(capsys.readouterr().out)
    assert out["results"]["term_count"] == 2

    cli.main(["expand", "hook1", "--p", "0", "--q", "1"])
    out = json.loads(capsys.readouterr().out)
    assert out["results"]["term_count"] == 2


# sha256 of json.dumps(terms, sort_keys=True) for the expand jobs of the
# exact_verify benchmark deck: the order of uncollected terms is output too
EXPAND_TERMS_SHA256 = [
    ("hook1 --p 1 --q 2", "d763f0ba902c8ca22f7a0d0cad0a84302832f4cd3c73dde90ecc8fed6555d67a"),
    ("hook2 --p 3 --q 2", "6bd07d2f8ce88997386ef577141533c9dac5d1d15c0bc365e946b66c10a14685"),
    ("hook1 --p 4 --q 4", "08e836f04c1c7eebf207ee234d4e6c6abed63bc9045a5cb36ba1044dc81d9e30"),
    ("giambelli --shape 2,2", "3df28afe961041c19ca1e52db6b573670a4aba11e1c0b1acdc438f15ff8c06af"),
    ("giambelli --shape 3,2,1 --collected --reversed",
     "296800456dcd5b85133c7abeb10034782419a8478a40993f88aec6771e2ca1d8"),
    ("giambelli --shape 3,3,3 --collected", "d44ce9f4b69264693ca93ed7a394008970d768766657b18e47fd071e108fccbe"),
    ("giambelli --shape 4,4,4,4", "fc0aec69e7772f338dab128999fdc7ee909e2416f896ba3de2d626054bafd676"),
    ("giambelli --shape 4,3,2,2 --reversed", "d9c99bdd46fdaeaf8a125d3be5633102f30fa32c6cdb508a4ec904505c973ff2"),
    ("giambelli --shape 5,5,5,5,5 --collected",
     "35936f073875b3570e44a14b97fc7c32514fb5320ed77d827248986179df950e"),
]


@pytest.mark.parametrize("args,digest", EXPAND_TERMS_SHA256, ids=[a for a, _ in EXPAND_TERMS_SHA256])
def test_expand_terms_are_pinned(args, digest, capsys):
    assert cli.main(["expand", *args.split()]) == 0
    terms = json.loads(capsys.readouterr().out)["results"]["terms"]
    assert hashlib.sha256(json.dumps(terms, sort_keys=True).encode()).hexdigest() == digest


def test_report_round_trips_to_jobspec(capsys):
    code = cli.main(["eval-mzv", "--args", "2,3", "--star", "--M", "50", "--exact"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    spec = JobSpec.from_json(out["inputs"])
    assert spec.command == "eval-mzv"
    assert spec.params == {"args": [2, 3], "star": True}
    assert spec.cfg == TruncationConfig(M=50, mode="exact", tolerance=1e-8)


def test_exact_reports_are_deterministic(capsys):
    argv = ["verify", "hook1", "--p", "1", "--q", "1", "--content", "0=2,1=2,-1=2",
            "--M", "6", "--exact"]
    cli.main(argv)
    first = json.loads(capsys.readouterr().out)
    cli.main(argv)
    second = json.loads(capsys.readouterr().out)
    first.pop("wall_time_s")
    second.pop("wall_time_s")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_plain_format(capsys):
    code = cli.main(["eval-mzv", "--args", "2", "--M", "100", "--format", "plain"])
    out = capsys.readouterr().out
    assert code == 0
    assert "value:" in out and "status: ok" in out


def test_exit_codes_for_errors(capsys):
    # convergence violation
    assert cli.main(["eval-mzv", "--args", "2,1", "--M", "10"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "error" and "converge" in out["error"]
    # malformed flag value
    assert cli.main(["eval-mzv", "--args", "two"]) == 1
    # missing required parameter
    assert cli.main(["verify", "hook1", "--content", "0=2"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert "--p" in out["error"]
    # bad partition
    assert cli.main(["eval-schur", "--shape", "1,2", "--content", "0=2"]) == 1


def test_verification_failure_exits_two(monkeypatch):
    def fake_verify(spec):
        return {"results": {"equal": False}, "verified": False}

    monkeypatch.setitem(cli._RUNNERS, "verify", fake_verify)
    spec = JobSpec("verify", {"identity": "hook1"}, TruncationConfig(), "json")
    code, report = run(spec)
    assert code == 2
    assert report["status"] == "verification-failed"


def test_job_file(tmp_path, capsys):
    job = {
        "command": "verify",
        "params": {"identity": "hook1", "p": 1, "q": 1, "content": {"0": 2, "1": 2, "-1": 2}},
        "cfg": {"M": 5, "mode": "exact"},
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    assert cli.main(["job", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["results"]["equal"] is True


def test_job_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["job", str(bad)]) == 1
    assert "malformed JSON" in capsys.readouterr().err

    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"command": "verify", "wrong": 1}))
    assert cli.main(["job", str(unknown)]) == 1
    assert "wrong" in capsys.readouterr().err

    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"params": {}}))
    assert cli.main(["job", str(missing)]) == 1
    assert "command" in capsys.readouterr().err


def test_jobspec_rejects_unknown_params():
    with pytest.raises(UsageError):
        JobSpec("eval-mzv", {"bogus": 1})
    with pytest.raises(UsageError):
        JobSpec("nope", {})
    with pytest.raises(UsageError):
        JobSpec("eval-mzv", {}, output="yaml")


def test_env_defaults(monkeypatch, capsys):
    monkeypatch.setenv("SCHURZETA_M", "7")
    monkeypatch.setenv("SCHURZETA_MODE", "exact")
    cli.main(["eval-mzv", "--args", "2"])
    out = json.loads(capsys.readouterr().out)
    assert out["inputs"]["cfg"]["M"] == 7
    assert out["inputs"]["cfg"]["mode"] == "exact"
    # flags win over the environment
    cli.main(["eval-mzv", "--args", "2", "--M", "9"])
    out = json.loads(capsys.readouterr().out)
    assert out["inputs"]["cfg"]["M"] == 9


def test_out_of_memory_exits_one(monkeypatch):
    def exhausted(spec):
        raise MemoryError

    monkeypatch.setitem(cli._RUNNERS, "eval-schur", exhausted)
    code, report = run(JobSpec("eval-schur", {"shape": "3,3"}, TruncationConfig(M=5000)))
    assert code == 1
    assert report["status"] == "error" and "M=5000" in report["error"]


def test_verify_giambelli_follows_the_mode(capsys):
    for identity in ("giambelli", "thm42"):
        argv = ["verify", identity, "--shape", "2,2", "--content", "0=3,1=2,-1=2", "--M", "8"]
        assert cli.main(argv) == 0
        out = json.loads(capsys.readouterr().out)["results"]
        assert isinstance(out["lhs"], float) and isinstance(out["rhs"], float)
        assert out["comparison"] == "tolerance"
        assert cli.main([*argv, "--exact"]) == 0
        out = json.loads(capsys.readouterr().out)["results"]
        assert "/" in out["rhs"] and out["comparison"] == "exact"


@pytest.mark.parametrize("mode", [[], ["--exact"]], ids=["floating", "exact-falls-back"])
def test_verify_refuses_outside_the_region_when_floating(mode, capsys):
    # a non-integer content makes --exact fall back to floating arithmetic,
    # whose sides stand for series that diverge outside the region
    argv = ["verify", "thm41", "--shape", "2,2", "--content", "0=3,1=2,-1=0.5", "--M", "12"]
    assert cli.main([*argv, *mode]) == 1
    captured = capsys.readouterr()
    out = json.loads(captured.out)
    assert out["status"] == "error" and "convergence region" in out["error"]
    assert "Traceback" not in captured.err


def test_verify_threshold_is_the_tolerance(capsys):
    argv = ["verify", "thm41", "--shape", "3,2,1", "--content", "0=3,1=2,2=2,-1=2,-2=2",
            "--M", "300", "--tolerance", "1e-9"]
    assert cli.main(argv) == 0
    out = json.loads(capsys.readouterr().out)["results"]
    assert out["threshold"] == 1e-9
    assert abs(out["difference"]) <= 1e-12


def _scaled(fn, attr=None):
    """fn with its value, or its result's `attr`, scaled by 1 + 1e-6."""
    def wrapped(*args, **kwargs):
        res = fn(*args, **kwargs)
        if attr is None:
            return res * (1 + 1e-6)
        setattr(res, attr, getattr(res, attr) * (1 + 1e-6))
        return res
    return wrapped


@pytest.mark.parametrize(
    "argv,patch",
    [
        (["verify", "hook1", "--p", "1", "--q", "1", "--content", "0=2,1=2,-1=2"],
         ("evaluate_expr", "value")),
        (["verify", "thm42", "--shape", "2,2", "--content", "0=3,1=2,-1=2"],
         ("chain_determinant", None)),
    ],
    ids=["hook1", "thm42"],
)
def test_verify_catches_a_side_off_by_one_part_in_a_million(argv, patch, monkeypatch, capsys):
    name, attr = patch
    monkeypatch.setattr(cli, name, _scaled(getattr(cli, name), attr))
    assert cli.main([*argv, "--M", "50"]) == 2
    out = json.loads(capsys.readouterr().out)["results"]
    assert out["equal"] is False and out["comparison"] == "tolerance"


def test_eval_rootzeta(capsys):
    code = cli.main(["eval-rootzeta", "--first-row", "2,2", "--M", "20"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["results"]["heuristic"] is True

    code = cli.main(["eval-rootzeta", "--rank", "1", "--svars", "2", "--variant", "bulletH",
                     "--d", "1", "--x", "1", "--M", "10", "--exact"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0

    argv = ["eval-rootzeta", "--rank", "2", "--svars", "2,2,2", "--M", "30"]
    assert cli.main(argv) == 0
    floating = json.loads(capsys.readouterr().out)["results"]
    assert isinstance(floating["value"], float) and floating["tail_bound"] > 0
    assert cli.main([*argv, "--exact"]) == 0
    exact = json.loads(capsys.readouterr().out)["results"]
    assert "/" in exact["value"] and exact["tail_bound"] is None
    assert floating["value"] == pytest.approx(exact["value_float"], rel=1e-12)


def test_eval_schur_cli(tmp_path, capsys):
    code = cli.main(["eval-schur", "--shape", "2,2", "--content", "0=3,1=2,-1=2",
                     "--M", "4", "--exact"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert "/" in out["results"]["value"]  # exact rational rendered as a fraction
    assert out["results"]["path"] == "chain-determinant"
    code = cli.main(["eval-schur", "--shape", "2,2", "--inner", "1",
                     "--content", "0=3,1=2,-1=2", "--M", "50"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["results"]["path"] == "antihook"
    job = {
        "command": "eval-schur",
        "params": {"shape": "2,2", "cells": {"1,1": 3, "1,2": 2, "2,1": 2, "2,2": 2}},
        "cfg": {"M": 20},
    }
    path = tmp_path / "cells.json"
    path.write_text(json.dumps(job))
    assert cli.main(["job", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["results"]["path"] == "row-window"


BAD_INPUTS = [
    (["eval-mzv", "--args", "2", "--M", "0"], None),
    (["eval-mzv", "--args", "2", "--tolerance", "-1"], None),
    (["job", "{tmp}/missing.json"], None),
    (["job", "{tmp}/job.json"], {"command": "eval-mzv", "cfg": [1]}),
    (["job", "{tmp}/job.json"], {"command": "eval-mzv", "params": [1, 2]}),
    (["job", "{tmp}/job.json"], {"command": "eval-mzv", "cfg": {"M": [1]}}),
    (["job", "{tmp}/job.json"], {"command": ["eval-mzv"]}),
    (["job", "{tmp}/job.json"], {"command": "eval-mzv", "threads": 2}),
    (["eval-schur", "--shape", "2,2", "--z0", "2"], None),
    (["eval-mzv", "--args", "2", "--threads", "2"], None),
    (["job", "{tmp}/job.json"], {"command": "eval-mzv", "params": {"args": 5}}),
    (["job", "{tmp}/job.json"], {"command": "eval-rootzeta", "params": {"rank": [2]}}),
    (["job", "{tmp}/job.json"], {"command": "eval-mzv", "params": {"args": [2], "star": "no"}}),
]


@pytest.mark.parametrize("argv,job", BAD_INPUTS, ids=[f"argv{i}" for i in range(len(BAD_INPUTS))])
def test_bad_input_exits_one_without_traceback(argv, job, tmp_path, capsys):
    if job is not None:
        (tmp_path / "job.json").write_text(json.dumps(job))
    assert cli.main([a.format(tmp=tmp_path) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert captured.out == ""


def test_wrong_param_type_names_the_field(tmp_path, capsys):
    (tmp_path / "job.json").write_text(json.dumps({"command": "eval-mzv", "params": {"args": 5}}))
    assert cli.main(["job", str(tmp_path / "job.json")]) == 1
    assert "'args' must be an array, got 5" in capsys.readouterr().err


def test_bad_content_value_exits_one(tmp_path, capsys):
    job = {"command": "eval-schur", "params": {"shape": "2,2", "content": {"0": {}, "1": 2, "-1": 2}}}
    (tmp_path / "job.json").write_text(json.dumps(job))
    assert cli.main(["job", str(tmp_path / "job.json")]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "error" and "content" in out["error"]


def test_fraction_content_round_trips(capsys):
    argv = ["verify", "hook1", "--p", "1", "--q", "1", "--content", "0=5/2,1=2,-1=2", "--M", "6"]
    assert cli.main(argv) == 0
    first = json.loads(capsys.readouterr().out)
    code, again = run(JobSpec.from_json(first["inputs"]))
    assert code == 0 and again["results"] == first["results"]


def test_expand_plain_and_latex(capsys):
    assert cli.main(["expand", "hook1", "--p", "1", "--q", "1", "--format", "plain"]) == 0
    out = capsys.readouterr().out
    assert "plain: -zeta*(z-1,z0,z1) + zeta*(z0,z1)*zeta(z-1)\n" in out
    assert r"latex: -\zeta^{\star}(z_{-1}, z_{0}, z_{1}) + \zeta^{\star}(z_{0}, z_{1})\,\zeta(z_{-1})" in out


def test_closed_stdout_exits_without_traceback():
    read, write = os.pipe()
    os.close(read)
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "schurzeta.cli", "eval-mzv", "--args", "2", "--M", "10"],
            stdout=write, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write)
    assert proc.returncode == 1
    assert proc.stderr == b""
