"""Command line contract: envelopes, exit codes, formats, determinism."""

import contextlib
import hashlib
import io
import itertools
import json
import subprocess
import sys
from dataclasses import fields
from importlib import resources

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from conedef import cones, p1
from conedef.cli import main, parse_variety, parse_window, UsageError
from conedef.cones import RationalNormalCurve, BlownUpPlane


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


@pytest.fixture(scope="module")
def envelope_schema():
    text = resources.files("conedef").joinpath("schemas/envelope.schema.json").read_text()
    return json.loads(text)


# ---- parsing -----------------------------------------------------------


def test_parse_variety_descriptors():
    assert parse_variety("rnc:4") == RationalNormalCurve(4)
    assert parse_variety("delpezzo:6") == BlownUpPlane(6)
    for bad in ("rnc", "rnc:x", "veronese:2", "plane:1", "segre:2:2"):
        with pytest.raises(UsageError):
            parse_variety(bad)


def test_parse_variety_round_trips_describe():
    for name, cls in cones.CATALOG.items():
        for values in itertools.product(range(1, 4), repeat=len(fields(cls))):
            v = cls(*values)
            assert v.describe().startswith(name + ":")
            assert parse_variety(v.describe()) == v


@given(
    command=st.sampled_from([("t1",), ("t1", "--order", "2"), ("rigidity",)]),
    name=st.sampled_from(["rnc", "veronese", "segre", "product", "delpezzo", "plane", "cubicsurface", ""]),
    values=st.lists(st.integers(-2, 4), max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_descriptor_fuzz_exits_cleanly(envelope_schema, command, name, values):
    """Any <name>:<ints> descriptor ends in exit 0 with a valid envelope,
    or in exit 2 or 3 with nothing on stdout."""
    descriptor = ":".join([name, *map(str, values)])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command[0], descriptor, *command[1:]])
    assert code in (0, 2, 3), err.getvalue()
    if code == 0:
        jsonschema.validate(json.loads(out.getvalue()), envelope_schema)
    else:
        assert out.getvalue() == ""
        assert err.getvalue().count("\n") == 1


def test_parse_window():
    assert parse_window("-6..3") == (-6, 3)
    assert parse_window("0..0") == (0, 0)
    for bad in ("3..-3", "1..", "a..b", "1-3"):
        with pytest.raises(UsageError):
            parse_window(bad)


# ---- t1 ----------------------------------------------------------------


def test_t1_rnc_table(capsys, envelope_schema):
    env = run_json(capsys, "t1", "rnc:4", "--weights", "-3..1")
    jsonschema.validate(env, envelope_schema)
    assert env["command"] == "t1"
    assert env["inputs"] == {"variety": "rnc:4", "weights": "-3..1", "order": 1}
    assert env["result"]["table"] == {"-3": 9, "-2": 5, "-1": 1, "0": 0, "1": 0}
    assert env["result"]["nonzero_weights"] == [-3, -2, -1]
    assert "trace" not in env


def test_t1_table_keys_ascend(capsys):
    env = run_json(capsys, "t1", "segre:2", "--weights", "-4..1")
    keys = list(env["result"]["table"])
    assert keys == ["-4", "-3", "-2", "-1", "0", "1"]
    assert env["result"]["table"]["-1"] == 2


def test_t1_csv_format(capsys):
    code, out, err = run_cli(capsys, "t1", "rnc:4", "--weights", "-3..-1", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["weight,dimension", "-3,9", "-2,5", "-1,1"]


def test_t1_second_order(capsys):
    env = run_json(capsys, "t1", "veronese:2:2", "--weights", "-3..-3", "--order", "2")
    assert env["result"]["table"] == {"-3": 8}


def test_t1_trace_flag(capsys, envelope_schema):
    env = run_json(capsys, "t1", "rnc:3", "--weights", "-2..0", "--trace")
    jsonschema.validate(env, envelope_schema)
    assert any("weight -2" in line for line in env["trace"])


def test_t1_trace_env_var(capsys, monkeypatch):
    monkeypatch.setenv("CONEDEF_TRACE", "1")
    env = run_json(capsys, "t1", "rnc:3", "--weights", "-2..0")
    assert "trace" in env


def test_t1_inverted_window_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "t1", "rnc:4", "--weights", "3..-3")
    assert code == 2
    assert "empty" in err


def test_t1_bad_descriptor_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "t1", "cubicsurface:3")
    assert code == 2
    assert "descriptor" in err


def test_t1_delpezzo_is_out_of_scope(capsys):
    code, _, err = run_cli(capsys, "t1", "delpezzo:6")
    assert code == 3
    assert "certificate" in err
    code2, _, _ = run_cli(capsys, "t1", "delpezzo:6", "--order", "2")
    assert code2 == 3


def test_t1_t2_higher_veronese_out_of_scope(capsys):
    code, _, _ = run_cli(capsys, "t1", "veronese:3:2", "--order", "2")
    assert code == 3
    # first-order is fine there
    env = run_json(capsys, "t1", "veronese:3:2", "--weights", "-2..0")
    assert env["result"]["table"] == {"-2": 0, "-1": 0, "0": 0}


# ---- rigidity ----------------------------------------------------------


def test_rigidity_segre1(capsys, envelope_schema):
    env = run_json(capsys, "rigidity", "segre:1")
    jsonschema.validate(env, envelope_schema)
    assert env["result"]["rigid"] is False
    assert env["result"]["witness"] == {"weight": -2, "dim": 2}
    assert env["result"]["window_independent"] is True


def test_rigidity_rnc2(capsys):
    env = run_json(capsys, "rigidity", "rnc:2")
    assert env["result"]["rigid"] is False
    assert env["result"]["witness"] == {"weight": -2, "dim": 1}


def test_rigidity_delpezzo_certificate(capsys, envelope_schema):
    env = run_json(capsys, "rigidity", "delpezzo:6")
    jsonschema.validate(env, envelope_schema)
    result = env["result"]
    assert result["rigid"] is None
    cert = result["certificate"]
    assert cert["verdict"] == "FAIL"
    assert cert["counts"]["CONTRADICTED"] > 0
    assert all(
        set(step) == {"term", "claimed", "computed", "rule", "anchor", "status"}
        for step in cert["steps"]
    )


def test_rigidity_delpezzo_clean_window(capsys):
    env = run_json(capsys, "rigidity", "delpezzo:6", "--weights", "0..2")
    assert env["result"]["certificate"]["verdict"] == "PASS_WITH_ASSERTIONS"


# ---- jacobian ----------------------------------------------------------


def test_jacobian_weight(capsys, envelope_schema):
    env = run_json(capsys, "jacobian", "--d", "4", "--weight", "-1")
    jsonschema.validate(env, envelope_schema)
    assert env["result"] == {"source_h0": 8, "target_h0": 9, "t1": 1, "exact": True}


def test_jacobian_dump(capsys):
    env = run_json(capsys, "jacobian", "--d", "4", "--dump-matrix")
    assert env["result"]["rows"] == 6
    assert env["result"]["cols"] == 5
    assert env["result"]["entries"][0] == ["z2", "-2*z1", "z0", "0", "0"]


def test_jacobian_degree_one_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "jacobian", "--d", "1", "--weight", "-1")
    assert code == 2


def test_jacobian_requires_exactly_one_mode(capsys):
    code, _, _ = run_cli(capsys, "jacobian", "--d", "4")
    assert code == 2
    code2, _, _ = run_cli(capsys, "jacobian", "--d", "4", "--weight", "-1", "--dump-matrix")
    assert code2 == 2


def test_jacobian_trace_includes_graded_route(capsys):
    env = run_json(capsys, "jacobian", "--d", "4", "--weight", "-1", "--trace")
    assert any("graded route: source 5, target 30" in line for line in env["trace"])


# ---- cech and atiyah ---------------------------------------------------


def test_cech_output(capsys, envelope_schema):
    env = run_json(capsys, "cech", "--i", "1", "--k", "-4")
    jsonschema.validate(env, envelope_schema)
    assert env["result"] == {"dim": 3, "basis": [[-1, -3], [-2, -2], [-3, -1]]}


def test_cech_level_validation(capsys):
    code, _, _ = run_cli(capsys, "cech", "--i", "2", "--k", "0")
    assert code == 2


def test_atiyah_output(capsys, envelope_schema):
    env = run_json(capsys, "atiyah", "--n", "3")
    jsonschema.validate(env, envelope_schema)
    assert env["result"] == {
        "n": 3,
        "triples_checked": 4,
        "multiplicative": True,
        "additive": True,
        "passed": True,
    }


def test_atiyah_n_validation(capsys):
    code, _, _ = run_cli(capsys, "atiyah", "--n", "1")
    assert code == 2


def test_internal_inconsistency_is_exit_4(capsys, monkeypatch):
    # the rnc cross-check compares the chase with the monomial count; an
    # empty basis makes the two disagree
    monkeypatch.setattr(p1, "basis", lambda i, k: [])
    code, out, err = run_cli(capsys, "t1", "rnc:4", "--weights", "-1..-1")
    assert code == 4
    assert out == ""
    assert err.startswith("internal error: rnc d=4, m=-1:")
    assert err.count("\n") == 1
    assert "Traceback" not in err


# ---- envelope discipline ----------------------------------------------


def test_envelope_key_order(capsys):
    code, out, _ = run_cli(capsys, "t1", "rnc:2", "--weights", "0..0")
    env = json.loads(out)
    assert list(env) == ["schema_version", "command", "inputs", "result"]
    assert env["schema_version"] == "1"


def test_subprocess_entry_point_matches_in_process(capsys):
    """python -m conedef must produce the identical envelope."""
    code, out, _ = run_cli(capsys, "rigidity", "rnc:2")
    proc = subprocess.run(
        [sys.executable, "-m", "conedef", "rigidity", "rnc:2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == out


def test_subprocess_exit_codes():
    usage = subprocess.run(
        [sys.executable, "-m", "conedef", "t1", "rnc:4", "--weights", "3..-3"],
        capture_output=True,
    )
    assert usage.returncode == 2
    scope = subprocess.run(
        [sys.executable, "-m", "conedef", "t1", "delpezzo:5"],
        capture_output=True,
    )
    assert scope.returncode == 3
    missing = subprocess.run(
        [sys.executable, "-m", "conedef", "t1"], capture_output=True
    )
    assert missing.returncode == 2  # argparse usage failure


# ---- golden output per catalog class ------------------------------------

# One descriptor per catalog class under the three traced commands: exit
# code, sha256 of stdout and the exact stderr.  Pins the per-class rule
# strings, rigidity notes and window_independent flags byte for byte.
GOLDEN = [
    ("t1 rnc:4 --trace", 0, "343568d188ec38e0e41705327d1a026c2dd9ee67a7380abb13f63342aec7db41", ""),
    ("t1 rnc:4 --order 2 --trace", 0, "c1b33607613101b788d92fc076fbf1ba544b07930b6544667626ed119f731c5e", ""),
    ("rigidity rnc:4 --trace", 0, "5c17e864943d45b0f5ade11c0c670e7cbebef77e6ac9d708251965b1f0974b4f", ""),
    ("t1 veronese:1:3 --trace", 0, "aa6c380d955b2a9b209c466b0a2cb68d87be9e2c057a7230e247293816983ace", ""),
    ("t1 veronese:1:3 --order 2 --trace", 0, "7e7f4f6613ad50c033cf63f580eab6842fbba05196555c16bd1178078baef2f5", ""),
    ("rigidity veronese:1:3 --trace", 0, "a3ba5c8e4522d2db244363f6690ff731fe7aee9c103a8127884b799dc23e35d3", ""),
    ("t1 veronese:2:3 --trace", 0, "800fd2adc8a039e59dc0d0a8ea1238d5b1d8006617650b9de931ff260645e7c0", ""),
    ("t1 veronese:2:3 --order 2 --trace", 0, "4c5fe7d074aceceabdd2c9723ced321204a7959ed7a50df5d694778e19f2f81a", ""),
    ("rigidity veronese:2:3 --trace", 0, "14a68c1bb4403d6e1eb02f84c4cb042be626168197c6cca4bf0d71428d535ff3", ""),
    ("t1 veronese:3:2 --trace", 0, "7d88d9c168173b06905787b0aa471435d61cca577da77e8219eb7645b457a81f", ""),
    ("t1 veronese:3:2 --order 2 --trace", 3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "out of scope: second-order counts cover n = 1 and n = 2 only\n"),
    ("rigidity veronese:3:2 --trace", 0, "f5342849de25287c48cdb8953a91bec8d46b7ed98aed01191944c012359121f4", ""),
    ("t1 segre:2 --trace", 0, "a021f1aaa73f3c7df0245ada57878033ba191a2cb3d8414c5fde89850cbb1489", ""),
    ("t1 segre:2 --order 2 --trace", 0, "28d9950e3b33a5ef48f16fd2c01daa58bcc4a17b205bfd0ca5d630abafe125d4", ""),
    ("rigidity segre:2 --trace", 0, "3ab3e402af42acee740142f59740aacff835831f8a22ce5f4c9472cb572ad9ed", ""),
    ("t1 product:2:3 --trace", 0, "55c07bea01e3d2981c84a2a5b4cd75c974df3aab3dcfe148afd0bba4df76c2a9", ""),
    ("t1 product:2:3 --order 2 --trace", 0, "2a09e22a60fea6ba6509c3aa5c3cc117f23f6b60ed13460bd2c844d20f8d121e", ""),
    ("rigidity product:2:3 --trace", 0, "4accfeef02778a7a6cd104078dc43ea5027b48d7374088ad7bec2f5563512178", ""),
    ("t1 delpezzo:6 --trace", 3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "out of scope: blown-up planes are certificate-only: use rigidity_verdict or delpezzo_certificate\n"),
    ("t1 delpezzo:6 --order 2 --trace", 3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "out of scope: blown-up planes are certificate-only: use rigidity_verdict or delpezzo_certificate\n"),
    ("rigidity delpezzo:6 --trace", 0, "0270764ab7f8f574c9e2d686e32fef8753a5add37dde230f97f2d1d6405298ab", ""),
]


@pytest.mark.parametrize("argv,code,digest,err", GOLDEN, ids=[row[0].replace(" ", "_") for row in GOLDEN])
def test_golden_output(capsys, argv, code, digest, err):
    got_code, out, got_err = run_cli(capsys, *argv.split())
    assert (got_code, got_err) == (code, err)
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out
