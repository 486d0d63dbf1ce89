import hashlib
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from schurzeta import cli
from schurzeta.cli import JobSpec, UsageError, run
from schurzeta.mzv import ContentAssignment, TruncationConfig
from schurzeta.partitions import FrobeniusForm
from schurzeta.rootzeta import chain_determinant


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


# one argv per command with every flag it takes, and the params each report echoes
FLAG_ECHOES = [
    (["eval-mzv", "--args", "2,3+1j", "--star"], {"args": [2, [3.0, 1.0]], "star": True}),
    # --args is required, so its empty text is the empty sequence, not an absent field
    (["eval-mzv", "--args", ""], {"args": [], "star": False}),
    (["eval-schur", "--shape", "3,2", "--inner", "1", "--content", "0=2,1=3/2,2=2,-1=2.5"],
     {"content": {"-1": 2.5, "0": 2, "1": "3/2", "2": 2}, "inner": "1", "shape": "3,2"}),
    (["eval-rootzeta", "--rank", "2", "--svars", "2,2,3", "--variant", "bulletH", "--d", "1", "--x", "1/2"],
     {"d": 1, "rank": 2, "svars": [2, 2, 3], "variant": "bulletH", "x": "1/2"}),
    (["eval-rootzeta", "--first-row", "2,3", "--variant", "H", "--x", "1/2"],
     {"first_row": [2, 3], "variant": "H", "x": "1/2"}),
    (["expand", "giambelli", "--shape", "3,2,1", "--reversed", "--collected"],
     {"collected": True, "shape": "3,2,1", "target": "giambelli", "variant": "reversed"}),
    (["expand", "hook2", "--p", "1", "--q", "2"],
     {"collected": False, "p": 1, "q": 2, "target": "hook2", "variant": "standard"}),
    (["verify", "antihook", "--bottom", "2,3", "--column", "2.5"],
     {"bottom": [2, 3], "column": [2.5], "identity": "antihook"}),
    (["verify", "hook1", "--p", "1", "--q", "1", "--content", "0=2,1=3,-1=2"],
     {"content": {"-1": 2, "0": 2, "1": 3}, "identity": "hook1", "p": 1, "q": 1}),
    (["verify", "thm41", "--shape", "2,1", "--content", "0=2,1=3,-1=2"],
     {"content": {"-1": 2, "0": 2, "1": 3}, "identity": "thm41", "shape": "2,1"}),
]


@pytest.mark.parametrize("argv,params", FLAG_ECHOES, ids=[" ".join(a[:2]) for a, _ in FLAG_ECHOES])
def test_every_flag_is_echoed_as_its_job_field(argv, params, capsys):
    code = cli.main([*argv, "--M", "5"])
    out = json.loads(capsys.readouterr().out)
    assert out["inputs"]["params"] == params
    if params == {"args": [], "star": False}:
        assert (code, out["error"]) == (1, "empty exponent sequence")
    else:
        assert code == 0, out


UNREAD = [
    (["eval-rootzeta", "--rank", "1", "--svars", "2", "--first-row", "2"], "--rank, --svars"),
    (["eval-rootzeta", "--first-row", "2", "--variant", "plain", "--d", "1", "--x", "1/2"], "--d, --x"),
    (["eval-rootzeta", "--first-row", "2", "--variant", "H", "--d", "1", "--x", "1/2"], "--d"),
    (["eval-rootzeta", "--first-row", "2", "--variant", "bullet", "--d", "1", "--x", "1/2"], "--x"),
    (["verify", "thm41", "--shape", "2,1", "--content", "0=2,1=3,-1=2", "--p", "1", "--q", "1"], "--p, --q"),
    (["verify", "hook1", "--p", "1", "--q", "1", "--content", "0=2,1=2,-1=2", "--shape", "2,1"], "--shape"),
    (["verify", "antihook", "--bottom", "2,3", "--column", "2", "--shape", "5,5", "--content", "0=9,1=9"],
     "--shape, --content"),
    (["verify", "thm42", "--shape", "2,1", "--content", "0=2,1=3,-1=2", "--bottom", "2,3"], "--bottom"),
    (["expand", "hook1", "--p", "1", "--q", "1", "--shape", "3,3", "--reversed", "--collected"],
     "--shape, --reversed, --collected"),
    (["expand", "hook2", "--p", "1", "--q", "1", "--collected"], "--collected"),
    (["expand", "giambelli", "--shape", "2,1", "--p", "1", "--q", "2"], "--p, --q"),
]


@pytest.mark.parametrize("argv,flags", UNREAD, ids=[" ".join(a) for a, _ in UNREAD])
def test_a_parameter_the_route_does_not_read_is_refused(argv, flags, capsys):
    assert cli.main([*argv, "--M", "5"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "error" and out["error"].endswith(f"does not read {flags}")


def test_cells_and_content_together_are_refused(tmp_path, capsys):
    job = {"command": "eval-schur", "params": {"shape": "2,1", "cells": {"1,1": 3, "1,2": 2, "2,1": 2},
                                               "content": {"0": 3, "1": 2, "-1": 2}}, "cfg": {"M": 5}}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    assert cli.main(["job", str(path)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["error"] == "eval-schur with cells does not read --content"


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


def test_an_exact_value_past_the_int_digit_limit_is_reported(capsys):
    # p/q has about 10,000 digits here, past CPython's default int-to-string
    # limit of 4300; a reader lifts the limit to parse it back
    argv = ["eval-schur", "--shape", "2,1", "--content", "0=3,1=2,-1=2", "--M", "2000", "--exact"]
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    assert cli.main(argv) == 0
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit
    out = json.loads(capsys.readouterr().out)["results"]
    assert out["path"] == "chain-determinant" and len(out["value"]) > 4300
    want = chain_determinant(FrobeniusForm((1,), (1,)), ContentAssignment({0: 3, 1: 2, -1: 2}), 2000, True)
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        assert Fraction(out["value"]) == want
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


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


def test_verify_reports_the_fallback_note(capsys):
    argv = ["verify", "thm42", "--shape", "2,2", "--content", "0=2.5,1=2,-1=2", "--M", "50", "--exact"]
    assert cli.main(argv) == 0
    out = json.loads(capsys.readouterr().out)["results"]
    assert out["comparison"] == "tolerance"
    assert "fell back to floating" in out["note"]
    # no fallback, no note
    assert cli.main([*argv[:5], "0=3,1=2,-1=2", "--M", "8", "--exact"]) == 0
    out = json.loads(capsys.readouterr().out)["results"]
    assert out["comparison"] == "exact" and "note" not in out


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


@pytest.mark.parametrize(
    "argv",
    [
        ["antihook", "--bottom", "1,2", "--column", "2", "--M", "200"],
        ["thm42", "--shape", "2,1", "--content", "0=1,1=2,-1=2", "--M", "6", "--exact"],
        ["thm42", "--shape", "2,2", "--content", "0=3,1=2,-1=1", "--M", "200"],
    ],
    ids=["antihook-divergent-factor", "thm42-exact-z0-is-1", "thm42-divergent-leg-in-region"],
)
def test_verify_does_not_refuse_a_factor_whose_series_diverges(argv, capsys):
    # both sides are finite truncated sums; the anti-hook factor zeta(2, 2, 1),
    # the diagonal sum at z_0 = 1 and the leg chain zeta(1) diverge as series,
    # but exact mode sums no series and the floating inputs lie inside W_lambda
    assert cli.main(["verify", *argv]) == 0
    assert json.loads(capsys.readouterr().out)["verified"] is True


def test_verify_thm42_floating_refuses_by_the_region_rule(capsys):
    argv = ["verify", "thm42", "--shape", "2,2", "--content", "0=1,1=2,-1=2", "--M", "20"]
    assert cli.main(argv) == 1
    assert "convergence region" in json.loads(capsys.readouterr().out)["error"]


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
         ("truncated_value", None)),
        (["verify", "antihook", "--bottom", "2,2", "--column", "3"],
         ("truncated_value", None)),
        (["verify", "giambelli", "--shape", "2,2", "--content", "0=3,1=2,-1=2"],
         ("_giambelli_matrix_value", None)),
        (["verify", "thm42", "--shape", "2,2", "--content", "0=3,1=2,-1=2"],
         ("chain_determinant", None)),
    ],
    ids=["hook1", "antihook", "giambelli", "thm42"],
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


def test_eval_rootzeta_refuses_an_oversized_box(capsys):
    # rank 3 at the default M = 1000 would sum 1000^3 and then 2000^3 points
    assert cli.main(["eval-rootzeta", "--rank", "3", "--svars", "2,2,2,2,2,2"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "error"
    assert out["error"] == "job too large (predicted 9000000000 box points); lower M"


@pytest.mark.parametrize(
    "argv,predicted",
    [
        (["eval-mzv", "--args", "2"], "1000000 cells of 2997602-bit"),
        (["eval-rootzeta", "--first-row", "2"], "1000000 cells of 2997602-bit"),
        # a skew shape takes the row window; exponents 3 + 2 + 2
        (["eval-schur", "--shape", "2,2", "--inner", "1", "--content", "0=3,1=2,-1=2"], "3000000 cells of 10491607-bit"),
    ],
    ids=["chains", "box", "row-window"],
)
def test_an_exact_job_past_the_budget_is_refused_before_any_lcm(argv, predicted, capsys, monkeypatch):
    # lcm(1..10^6) alone runs for minutes, so the refusal must come first
    def no_lcm(*args):
        raise AssertionError("lcm computed before the refusal")

    monkeypatch.setattr(math, "lcm", no_lcm)
    assert cli.main([*argv, "--M", "1000000", "--exact"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "error"
    assert out["error"] == f"job too large (predicted {predicted} numerators); lower M"


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
    assert out["results"]["path"] == "row-window"
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
    # non-finite numbers, which a strict JSON report could not echo
    (["eval-mzv", "--args", "inf", "--M", "5"], None),
    (["eval-schur", "--shape", "2,2", "--content", "0=nan,1=2,-1=2"], None),
    (["eval-mzv", "--args", "2", "--tolerance", "inf"], None),
    (["eval-mzv", "--args", "2+infj", "--M", "5"], None),
    (["eval-mzv", "--args", "1/0", "--M", "5"], None),
    (["job", "{tmp}/job.json"], {"command": "eval-mzv", "params": {"args": [float("inf")]}}),
    (["job", "{tmp}/job.json"],
     {"command": "eval-schur", "params": {"shape": "2,2", "content": {"0": [3, float("nan")]}}}),
    (["job", "{tmp}/job.json"], {"command": "eval-mzv", "cfg": {"tolerance": float("nan")}}),
    # mistyped cfg fields
    (["job", "{tmp}/job.json"], {"command": "eval-mzv", "params": {"args": [2]}, "cfg": {"M": True}}),
    (["job", "{tmp}/job.json"], {"command": "eval-mzv", "params": {"args": [2]}, "cfg": {"M": 2.9}}),
    (["job", "{tmp}/job.json"],
     {"command": "eval-mzv", "params": {"args": [2]}, "cfg": {"tolerance": True}}),
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


JOB = ["job", "{tmp}/job.json"]
REFUSALS_NAMING_THE_VALUE = [
    (JOB, {"command": "eval-mzv", "params": {"args": [2]}, "cfg": {"M": True}},
     "cfg field 'M' must be an integer or a string, got True"),
    (JOB, {"command": "eval-mzv", "params": {"args": [2]}, "cfg": {"M": 2.9}},
     "cfg field 'M' must be an integer or a string, got 2.9"),
    (JOB, {"command": "eval-mzv", "params": {"args": [2]}, "cfg": {"tolerance": True}},
     "cfg field 'tolerance' must be"),
    (JOB, {"command": "eval-mzv", "params": {"args": [2]}, "cfg": {"tolerance": float("inf")}},
     "cfg field 'tolerance' must be finite, got inf"),
    (JOB, {"command": "eval-mzv", "params": {"args": [2, float("nan")]}},
     "eval-mzv field 'args' must be finite, got [2, nan]"),
    (["eval-mzv", "--args", "2,-inf", "--M", "5"], None, "number '-inf' is not finite"),
    (["eval-schur", "--shape", "2,2", "--content", "0=nan,1=2,-1=2"], None, "number 'nan' is not finite"),
    (["eval-mzv", "--args", "2", "--tolerance", "inf"], None, "tolerance must be positive and finite, got inf"),
]


@pytest.mark.parametrize("argv,job,message", REFUSALS_NAMING_THE_VALUE,
                         ids=[f"refusal{i}" for i in range(len(REFUSALS_NAMING_THE_VALUE))])
def test_refusal_names_the_field_and_value(argv, job, message, tmp_path, capsys):
    if job is not None:
        (tmp_path / "job.json").write_text(json.dumps(job))
    assert cli.main([a.format(tmp=tmp_path) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_integer_text_in_cfg_is_accepted(tmp_path, capsys):
    job = {"command": "eval-mzv", "params": {"args": [2]}, "cfg": {"M": "7", "tolerance": "1e-9"}}
    (tmp_path / "job.json").write_text(json.dumps(job))
    assert cli.main(["job", str(tmp_path / "job.json")]) == 0
    cfg = json.loads(capsys.readouterr().out)["inputs"]["cfg"]
    assert cfg["M"] == 7 and cfg["tolerance"] == 1e-9


def test_missing_content_value_reports_the_message_itself(capsys):
    assert cli.main(["eval-schur", "--shape", "2,2", "--content", "0=3,1=2"]) == 1
    assert json.loads(capsys.readouterr().out)["error"] == "no value assigned to z_-1"


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


@pytest.mark.parametrize(
    "argv",
    [
        ["eval-mzv", "--args", "3+1j,2", "--M", "10"],
        ["eval-rootzeta", "--rank", "2", "--svars", "2+1j,2,2", "--M", "8"],
        ["eval-rootzeta", "--first-row", "2,2-0.5j", "--M", "8"],
        ["verify", "antihook", "--bottom", "3+1j,2.5", "--column", "3", "--M", "10"],
        ["verify", "antihook", "--bottom", "3,2.5", "--column", "3+1j", "--M", "10"],
    ],
    ids=["args", "svars", "first_row", "bottom", "column"],
)
def test_complex_array_entries_round_trip_through_a_job_file(argv, tmp_path, capsys):
    # a complex entry is echoed as [re, im]; the job file must read it back
    assert cli.main(argv) == 0
    first = json.loads(capsys.readouterr().out)
    entries = [v for p in first["inputs"]["params"].values() if isinstance(p, list) for v in p]
    assert any(isinstance(v, list) for v in entries)
    path = tmp_path / "job.json"
    path.write_text(json.dumps(first["inputs"]))
    assert cli.main(["job", str(path)]) == 0
    again = json.loads(capsys.readouterr().out)
    assert again["inputs"] == first["inputs"] and again["results"] == first["results"]


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


# --- one parser per process -------------------------------------------------

def test_parser_is_built_once_across_jobs(monkeypatch, capsys):
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    cli._parser.cache_clear()
    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    for argv in (["eval-mzv", "--args", "2", "--M", "10"],
                 ["expand", "hook1", "--p", "1", "--q", "1"],
                 ["eval-mzv", "--args", "two"],
                 ["eval-rootzeta", "--rank", "1", "--svars", "2", "--M", "5"]):
        cli.main(argv)
    assert built.count("schurzeta") == 1
    assert len(built) == len(set(built))  # and each subcommand's parser once


def test_build_parser_returns_a_new_parser():
    assert cli.build_parser() is not cli.build_parser()
    assert cli._parser() is cli._parser()


# each flagged job runs between two runs of its plain twin
FLAGGED_AND_PLAIN = [
    (["eval-mzv", "--args", "2,3", "--star", "--M", "20", "--exact"],
     ["eval-mzv", "--args", "2,3", "--M", "20"]),
    (["eval-schur", "--shape", "2,2", "--inner", "1", "--content", "0=3,1=2,-1=2", "--M", "12"],
     ["eval-schur", "--shape", "2,2", "--content", "0=3,1=2,-1=2", "--M", "12"]),
    (["expand", "giambelli", "--shape", "3,2,1", "--collected", "--reversed"],
     ["expand", "giambelli", "--shape", "3,2,1"]),
    (["eval-mzv", "--args", "2", "--M", "100", "--format", "plain"],
     ["eval-mzv", "--args", "2", "--M", "100"]),
    (["verify", "thm41", "--shape", "2,2", "--content", "0=3,1=2,-1=2", "--M", "8", "--exact"],
     ["verify", "thm41", "--shape", "2,2", "--content", "0=3,1=2,-1=2", "--M", "8"]),
]


def test_no_state_leaks_from_one_job_to_the_next(capsys):
    def report(argv):
        code = cli.main(argv)
        out = json.loads(capsys.readouterr().out)
        out.pop("wall_time_s")
        return code, out

    cli._parser.cache_clear()
    first = [report(plain) for _, plain in FLAGGED_AND_PLAIN]
    for flagged, _ in FLAGGED_AND_PLAIN:
        assert cli.main(flagged) == 0
        capsys.readouterr()
    assert [report(plain) for _, plain in FLAGGED_AND_PLAIN] == first


def test_help_twice(capsys):
    cli._parser.cache_clear()
    texts = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1] and texts[0].startswith("usage: schurzeta")


# --- JobSpec fuzz, every example through the one cached parser ----------------

def _refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


_JUNK = st.one_of(st.none(), st.booleans(), st.integers(-3, 8), st.floats(-2, 2),
                  st.text(max_size=3), st.lists(st.integers(0, 3), max_size=2), st.just({}))


def _mostly(valid, other=_JUNK):
    """valid four times in five, else other; shrinks towards valid"""
    return st.integers(0, 4).flatmap(lambda k: other if k == 4 else valid)


_NUMBER = _mostly(
    st.one_of(st.integers(0, 5), st.floats(1.5, 6), st.sampled_from(["2", "5/2", "3+1j"]),
              st.lists(st.floats(1.5, 6), min_size=2, max_size=2)),
    st.one_of(st.sampled_from([-2, 1, 0.5, float("inf"), float("nan"), "1/0", "-inf", "x"]), _JUNK),
)
# at most 6 cells and M <= 8 keep every job small
_SHAPE = _mostly(
    st.lists(st.integers(1, 3), min_size=1, max_size=3)
    .filter(lambda parts: sum(parts) <= 6)
    .map(lambda parts: ",".join(map(str, sorted(parts, reverse=True)))),
    st.one_of(st.sampled_from(["1,2", "0", "", "a", 3]), st.none()),
)
_SMALL = _mostly(st.integers(0, 2), st.one_of(st.sampled_from(["1", -1]), st.none(), st.booleans()))
_CONTENT = _mostly(
    st.fixed_dictionaries({str(k): _NUMBER for k in range(-2, 3)}),
    st.sampled_from(["0=2,1=2,-1=2", "0=3,1=2", "0=", "x=1", {"a": 2}, None]),
)
_CELLS = st.dictionaries(st.sampled_from(["1,1", "1,2", "2,1", "2,2", "1,3", "1", "a,b"]), _NUMBER)


def _rootzeta_params(rank):
    count = rank * (rank + 1) // 2
    return st.fixed_dictionaries(
        {"rank": _mostly(st.just(rank)), "svars": st.lists(_NUMBER, min_size=count, max_size=count)},
        optional={"variant": _mostly(st.sampled_from(["plain", "bullet", "H", "bulletH"])),
                  "first_row": st.lists(_NUMBER, max_size=3), "d": _SMALL, "x": _NUMBER},
    )


_VERIFY_NEEDS = {"hook1": ("p", "q", "content"), "hook2": ("p", "q", "content"),
                 "antihook": ("bottom", "column")}


def _named(key, name, needs, **fields):
    """params for expand's target or verify's identity `name`: the fields it
    needs, and any of the others"""
    return st.fixed_dictionaries(
        {key: _mostly(st.just(name)), **{f: fields[f] for f in needs}},
        optional={f: s for f, s in fields.items() if f not in needs},
    )


_PARAMS = {
    "eval-mzv": st.fixed_dictionaries({"args": _mostly(st.lists(_NUMBER, min_size=1, max_size=4))},
                                      optional={"star": _mostly(st.booleans())}),
    "eval-schur": st.fixed_dictionaries({"shape": _SHAPE, "content": _CONTENT},
                                        optional={"inner": _SHAPE, "cells": _mostly(_CELLS)}),
    "eval-rootzeta": st.integers(1, 3).flatmap(_rootzeta_params),
    "expand": st.sampled_from(["hook1", "hook2", "giambelli"]).flatmap(lambda target: _named(
        "target", target, ("shape",) if target == "giambelli" else ("p", "q"),
        p=_SMALL, q=_SMALL, shape=_SHAPE,
        variant=st.sampled_from(["standard", "reversed", "other"]), collected=_mostly(st.booleans()),
    )),
    "verify": st.sampled_from(cli.VERIFY_IDENTITIES).flatmap(lambda identity: _named(
        "identity", identity, _VERIFY_NEEDS.get(identity, ("shape", "content")),
        p=_SMALL, q=_SMALL, shape=_SHAPE, content=_CONTENT,
        bottom=_mostly(st.lists(_NUMBER, min_size=1, max_size=3)),
        column=_mostly(st.lists(_NUMBER, min_size=1, max_size=3)),
    )),
}
# M is always given: the default, 1000, is far beyond a fuzz example's budget
_CFG = st.fixed_dictionaries({
    "M": _mostly(st.integers(1, 8), st.sampled_from([0, "7", "x", 2.9, True, float("inf")])),
}, optional={
    "mode": _mostly(st.sampled_from(["exact", "floating"])),
    "tolerance": _mostly(st.floats(1e-12, 1e-3),
                         st.sampled_from([0, -1, "1e-9", True, float("nan"), float("inf"), None])),
})
_JOB = _mostly(
    st.sampled_from(sorted(_PARAMS)).flatmap(lambda command: st.fixed_dictionaries(
        {"command": st.just(command), "params": _PARAMS[command], "cfg": _CFG},
        optional={"output": _mostly(st.just("json"), st.sampled_from(["yaml", 5]))})),
    st.fixed_dictionaries({"command": _JUNK}, optional={"params": _JUNK, "cfg": _JUNK, "extra": _JUNK}),
)


@pytest.fixture(scope="module")
def job_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "job.json"


@settings(max_examples=200, deadline=None)
@given(job=_JOB)
def test_fuzzed_job_files_exit_cleanly(job, job_path):
    job_path.write_text(json.dumps(job))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["job", str(job_path)])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in out + err
    if not out:
        assert code == 1 and err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert err == ""
        report = json.loads(out, parse_constant=_refuse_constant)
        assert report["status"] == {0: "ok", 1: "error", 2: "verification-failed"}[code]
