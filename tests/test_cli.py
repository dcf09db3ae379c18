"""Command line contract: envelopes, exit codes, formats, determinism."""

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import textwrap
from importlib import import_module, resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import Phase, assume, example, given, seed, settings, strategies as st

import conedef
from conedef import atiyah, cli, cones, p1, presentation, projective
from conedef.cli import main, parse_variety, parse_window
from conedef.projective import MAX_BASIS, MAX_COST, RequestError
from conedef.cones import BlownUpPlane, ProductPolarization, VeroneseSpace


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse ends a usage error itself
        code = exc.code
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
    assert parse_variety("rnc:4") == VeroneseSpace(1, 4)
    assert parse_variety("segre:2") == ProductPolarization(2, 2)
    assert parse_variety("delpezzo:6") == BlownUpPlane(6)
    for bad in ("rnc", "rnc:x", "veronese:2", "plane:1", "segre:2:2"):
        with pytest.raises(RequestError):
            parse_variety(bad)


# int() reads the first seven as an int, but cli.decimal reads an integer
# only as str(int(x)) writes it, and the last two are no number at all; one
# row per integer the command line reads: (input, argv with {} for the
# spelling, the end of the refusal's stderr).
_NOT_PLAIN = ["4_0", "+4", "04", "-0", " 4", "4 ", "\u0664", "x", ""]
_INTEGER_INPUTS = [
    ("descriptor-field", ["t1", "veronese:2:{}"], "error: bad variety descriptor 'veronese:2:{0}': {0!r} is not written as a plain decimal int, such as 4\n"),
    ("window-lo", ["t1", "rnc:4", "--weights={}..3"], "error: bad weight window '{0}..3' (expected lo..hi): {0!r} is not written as a plain decimal int, such as 4\n"),
    ("window-hi", ["rigidity", "rnc:4", "--weights=-3..{}"], "error: bad weight window '-3..{0}' (expected lo..hi): {0!r} is not written as a plain decimal int, such as 4\n"),
    ("order", ["t1", "rnc:4", "--order", "{}"], "conedef t1: error: argument --order: invalid decimal value: {0!r}\n"),
    ("d", ["jacobian", "--d", "{}", "--weight", "0"], "conedef jacobian: error: argument --d: invalid decimal value: {0!r}\n"),
    ("weight", ["jacobian", "--d", "4", "--weight", "{}"], "conedef jacobian: error: argument --weight: invalid decimal value: {0!r}\n"),
    ("i", ["cech", "--i", "{}", "--k", "3"], "conedef cech: error: argument --i: invalid decimal value: {0!r}\n"),
    ("k", ["cech", "--i", "0", "--k", "{}"], "conedef cech: error: argument --k: invalid decimal value: {0!r}\n"),
    ("n", ["atiyah", "--n", "{}"], "conedef atiyah: error: argument --n: invalid decimal value: {0!r}\n"),
]


@pytest.mark.parametrize("spelling", _NOT_PLAIN, ids=["underscore", "plus", "leading-zero", "minus-zero", "leading-space", "trailing-space", "arabic-indic", "not-a-number", "empty"])
@pytest.mark.parametrize("template,refusal", [row[1:] for row in _INTEGER_INPUTS], ids=[row[0] for row in _INTEGER_INPUTS])
def test_every_integer_input_is_read_only_in_plain_decimal(capsys, template, refusal, spelling):
    """Every integer of the command line goes through cli.decimal: a
    spelling that int() reads but str() does not write exits 2 with nothing
    on stdout, and the refusal names that spelling."""
    code, out, err = run_cli(capsys, *(arg.format(spelling) for arg in template))
    assert (code, out) == (2, "")
    assert err.endswith(refusal.format(spelling)), err


_TOO_LONG = "the value has more than {} digits, over this interpreter's limit for reading an int (PYTHONINTMAXSTRDIGITS=0 lifts it)"


@pytest.mark.parametrize("template", [row[1] for row in _INTEGER_INPUTS], ids=[row[0] for row in _INTEGER_INPUTS])
def test_an_integer_too_long_to_read_is_refused_for_its_length(capsys, int_print_limit, template):
    """A plain decimal of more digits than this interpreter reads into an
    int is refused in every input with one reason, which names the limit
    and how to lift it, not int()'s advice to call sys.set_int_max_str_digits;
    once the limit is lifted, cli.decimal reads it."""
    int_print_limit(640)  # the smallest limit Python accepts
    code, out, err = run_cli(capsys, *(arg.format("9" * 641) for arg in template))
    assert (code, out) == (2, "")
    assert err.endswith(f": {_TOO_LONG.format(640)}\n"), err
    assert cli.decimal("-" + "9" * 640) == -(10**640 - 1)
    int_print_limit(0)
    assert cli.decimal("9" * 641) == 10**641 - 1


def test_parse_variety_round_trips_each_entry():
    """Every registry name parses to its constructor's entry, and the entry's
    canonical descriptor (the name of its class's row, then its fields)
    parses back to an equal entry with the same hash: an alias builds the
    entry it names."""
    canonical = {make: name for name, (make, _) in cones.CATALOG.items() if isinstance(make, type)}
    assert parse_variety("rnc:4") == parse_variety("veronese:1:4")
    assert parse_variety("segre:2") == parse_variety("product:2:2")
    for name, (make, fields) in cones.CATALOG.items():
        for values in itertools.product(range(1, 4), repeat=len(fields)):
            v = parse_variety(":".join([name, *map(str, values)]))
            assert v == make(*values)
            again = parse_variety(":".join([canonical[type(v)], *(str(getattr(v, f)) for f in v._fields)]))
            assert again == v and hash(again) == hash(v)


# Integers small enough to be answered, near the budgets, and up to 10**18;
# a size (degree, level, n) is drawn mostly from the small nonnegative ones.
# Every admitted request drawn runs in at most about 0.25 s on a shared
# 2-core host, 8x under the fuzz's deadline.
_INTS = st.one_of(st.integers(-8, 8), st.integers(-150, 150), st.integers(-(10**18), 10**18))
_SIZES = st.one_of(st.integers(0, 12), _INTS)


@st.composite
def _requests(draw) -> list[str]:
    """An argv the parser accepts: any subcommand, each of its options
    present or not, in any order, with any integers."""

    def option(name: str, values) -> list[str]:
        return draw(st.one_of(st.just([]), values.map(lambda v: [f"--{name}", str(v)])))

    command = draw(st.sampled_from(["t1", "rigidity", "jacobian", "cech", "atiyah"]))
    opts = [draw(st.sampled_from([[], ["--trace"]]))]
    if command in ("t1", "rigidity"):
        name = draw(st.sampled_from([*cones.CATALOG, "plane", ""]))
        arity = len(cones.CATALOG.get(name, (None, ()))[1])
        fields = [st.lists(ints, min_size=arity, max_size=arity) for ints in (st.integers(1, 8), _SIZES)]
        values = draw(st.one_of(*fields, st.lists(_INTS, max_size=3)))
        head = [command, ":".join([name, *map(str, values)])]
        # mostly short windows, which are answered, and any lo..hi besides
        window = st.tuples(_INTS, st.one_of(st.integers(-1, 12), _INTS)).map(lambda w: f"{w[0]}..{w[0] + w[1]}")
        opts.append(option("weights", window))
        if command == "t1":
            opts += [option("order", st.sampled_from([1, 2])), option("format", st.sampled_from(["json", "csv"]))]
    elif command == "jacobian":
        head = [command, "--d", str(draw(_SIZES))]
        opts.append(draw(st.one_of(_INTS.map(lambda m: ["--weight", str(m)]), st.just(["--dump-matrix"]))))
    elif command == "cech":
        head = [command, "--i", str(draw(_SIZES)), "--k", str(draw(_INTS))]
    else:  # n = 10 and 11, admitted at 0.3-0.6 s, are left to the bounded-process rows
        head = [command, "--n", str(draw(_SIZES.filter(lambda n: not 10 <= n <= 11)))]
    return head + [token for opt in draw(st.permutations(opts)) for token in opt]


@given(argv=_requests())
@example(argv=["t1", "veronese:2:1", "--weights", "-142..857"])
@settings(max_examples=300, deadline=2000)
def test_grammar_fuzz_exits_cleanly(envelope_schema, argv):
    """Any request the parser accepts, small or huge integers, ends within
    the deadline in exit 0 with a valid envelope (or a csv table), or in
    exit 2 or 3 with nothing on stdout and one line on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), err.getvalue()
    if code == 0 and "csv" in argv:
        assert out.getvalue().startswith("weight,dimension\n")
    elif code == 0:
        jsonschema.validate(json.loads(out.getvalue()), envelope_schema)
    else:
        assert out.getvalue() == ""
        assert err.getvalue().count("\n") == 1


@st.composite
def _abbreviated(draw) -> list[str]:
    """A request of the grammar fuzz with one option spelled as a proper
    prefix of its name, at times joined to its value by "="."""
    argv = draw(_requests())
    flags = [i for i, token in enumerate(argv) if token.startswith("--") and len(token) > 3]
    assume(flags)
    i = draw(st.sampled_from(flags))
    # a prefix that is no option of the command: jacobian's --d is one of --dump-matrix
    argv[i] = draw(st.sampled_from([argv[i][:j] for j in range(3, len(argv[i])) if argv[i][:j] != "--d"]))
    if i + 1 < len(argv) and not argv[i + 1].startswith("--") and draw(st.booleans()):
        argv[i : i + 2] = [f"{argv[i]}={argv[i + 1]}"]
    return argv


@given(argv=_abbreviated())
@example(argv=["t1", "rnc:4", "--wei", "-3..1"])
@settings(max_examples=100, deadline=2000)
def test_grammar_fuzz_refuses_an_abbreviated_option(argv):
    """Each option has one spelling, the one ``--help`` prints: argparse
    refuses a prefix of it with exit 2 and nothing on stdout, whatever the
    rest of the request holds."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(argv)
    assert (exc.value.code, out.getvalue()) == (2, "")
    assert err.getvalue().startswith("usage: conedef"), err.getvalue()


def test_parse_window():
    """The parser reads the two ints; whether the window is empty is the
    library's rule, checked where the window is priced."""
    assert parse_window("-6..3") == (-6, 3)
    assert parse_window("0..0") == (0, 0)
    assert parse_window("3..-3") == (3, -3)
    for bad in ("1..", "a..b", "1-3", "1..2..3", "..", "12", "1...3", "+1..3", "3..04"):
        with pytest.raises(RequestError, match=f"^{re.escape(f'bad weight window {bad!r} (expected lo..hi): ')}"):
            parse_window(bad)


def _usage_forms() -> list[str]:
    """One usage form per catalog name, aliases included, e.g. "veronese:<n>:<d>"."""
    return [":".join([name, *(f"<{f}>" for f in fields)]) for name, (_, fields) in cones.CATALOG.items()]


def _variety_help(out: str) -> str:
    """The ``variety`` help in a subcommand's ``--help``, its lines joined."""
    positional = out.split("positional arguments:\n", 1)[1].split("\n\n", 1)[0]
    name, _, text = " ".join(positional.split()).partition(" ")
    assert name == "variety", out
    return text


def test_t1_help_names_the_quantity_it_prints(capsys):
    """``t1 --help`` says what each weight's dimension counts and what
    ``--order`` selects, not only ``conedef --help``'s one-line summary,
    and lists every usage form of the catalog, as an unknown descriptor's
    refusal does."""
    with pytest.raises(SystemExit) as exc:
        main(["t1", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    text = " ".join(out.split())  # argparse wraps to the terminal's width
    assert "weight table of h^q(T_Y (x) L^m): for each weight m of the window" in text
    assert "--order {1,2} q of h^q(T_Y (x) L^m)" in text
    *rest, last = forms = _usage_forms()
    assert _variety_help(out) == " | ".join(forms)
    assert run_cli(capsys, "t1", "bogus:1") == (
        2, "", f"error: unknown variety descriptor 'bogus:1' (expected {', '.join(rest)} or {last})\n"
    )


def test_rigidity_help_says_what_it_reads(capsys, monkeypatch):
    """``rigidity --help`` describes the variety and the window it reads, as
    ``t1 --help`` does: both subcommands declare them once, in one loop,
    and the variety's help is the catalog's usage forms, read from the
    catalog when the help is printed."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["rigidity", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    text = " ".join(out.split())
    assert "delpezzo:<r>" in text
    assert "--weights WEIGHTS inclusive weight window lo..hi (default -6..3)" in text
    *rest, last = forms = _usage_forms()
    assert _variety_help(out) == " | ".join(forms)
    assert run_cli(capsys, "rigidity", "bogus:1") == (
        2, "", f"error: unknown variety descriptor 'bogus:1' (expected {', '.join(rest)} or {last})\n"
    )


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


TRACED = {
    "t1": ("t1", "rnc:3", "--weights", "-2..0"),
    "rigidity": ("rigidity", "rnc:3"),
    "jacobian_weight": ("jacobian", "--d", "4", "--weight", "-1"),
    "jacobian_dump": ("jacobian", "--d", "4", "--dump-matrix"),
    "cech": ("cech", "--i", "1", "--k", "-4"),
    "atiyah": ("atiyah", "--n", "3"),
}


_UNTRACED = {**TRACED, "t1_csv": ("t1", "rnc:4", "--weights", "-2..-1", "--format", "csv")}


@pytest.mark.parametrize("argv", _UNTRACED.values(), ids=_UNTRACED.keys())
def test_the_environment_asks_for_no_trace(capsys, monkeypatch, argv):
    """The command line is the one input: with the retired CONEDEF_TRACE=1
    set, each command prints the same bytes as without it, untraced, and
    the csv table still answers."""
    before = run_cli(capsys, *argv)
    monkeypatch.setenv("CONEDEF_TRACE", "1")
    assert run_cli(capsys, *argv) == before
    code, out, err = before
    assert (code, err) == (0, "")
    assert out.startswith("weight,dimension\n") if "csv" in argv else "trace" not in json.loads(out)


@pytest.fixture
def int_print_limit():
    """``sys.set_int_max_str_digits`` for one test, restored afterwards."""
    before = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(before)


def test_a_count_too_long_to_print_is_refused_before_any_output(capsys, int_print_limit):
    """Every input fits the interpreter's limit for converting an int to a
    string, but a count can be the product of two inputs.  Such a count is
    refused with exit 2 and an empty stdout (no csv header either), and
    printed in full once the limit is lifted."""
    int_print_limit(640)  # the smallest limit Python accepts
    n = "9" * 400
    window = f"--weights=-{n}..-{n}"
    refusal = "over this interpreter's limit for printing an int (PYTHONINTMAXSTRDIGITS=0 lifts it)\n"
    for argv in (
        ("t1", f"rnc:{n}", window),
        ("t1", f"rnc:{n}", window, "--trace"),
        ("t1", f"rnc:{n}", window, "--format", "csv"),
        ("t1", f"product:{n}:{n}", window, "--order", "2"),
    ):
        assert run_cli(capsys, *argv) == (2, "", f"error: the count at weight -{n} has more than 640 digits, {refusal}"), argv
    # a product's witness is 2 (b - 1) at weight -1, one digit longer than b
    assert run_cli(capsys, "rigidity", "product:1:" + "9" * 640) == (2, "", f"error: the count at weight -1 has more than 640 digits, {refusal}")
    int_print_limit(0)
    assert run_json(capsys, "t1", f"rnc:{n}", window)["result"]["table"] == {f"-{n}": int(n) ** 2 - 3}


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
    # h^1 is computed there
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


ALIASES = [
    *((f"segre:{d}", f"product:{d}:{d}") for d in range(1, 7)),
    *((f"veronese:1:{d}", f"rnc:{d}") for d in (*range(1, 9), 10**9)),
]


@pytest.mark.parametrize("alias,twin", ALIASES, ids=[f"{a}={b}" for a, b in ALIASES])
def test_aliased_descriptors_print_the_same_verdict(capsys, alias, twin):
    """The symmetric product is the product in bidegree (d, d), and the line
    embedded by degree-d forms is the rational normal curve of degree d: the
    two descriptors of one entry print byte-identical stdout, trace
    included, apart from the variety named in the inputs."""
    for argv in (("t1", "--trace"), ("t1", "--order", "2", "--trace"), ("rigidity", "--trace")):
        code, out, err = run_cli(capsys, argv[0], alias, *argv[1:])
        assert (code, err) == (0, "")
        assert run_cli(capsys, argv[0], twin, *argv[1:]) == (0, out.replace(f'"variety": "{alias}"', f'"variety": "{twin}"', 1), "")
    assert json.loads(out)["result"]["window_independent"] is True


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
    """--weight and --dump-matrix are one required argparse group."""
    code, out, err = run_cli(capsys, "jacobian", "--d", "4")
    assert (code, out) == (2, "")
    assert err.endswith("conedef jacobian: error: one of the arguments --weight --dump-matrix is required\n")
    code2, out2, err2 = run_cli(capsys, "jacobian", "--d", "4", "--weight", "-1", "--dump-matrix")
    assert (code2, out2) == (2, "")
    assert err2.endswith("conedef jacobian: error: argument --dump-matrix: not allowed with argument --weight\n")


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


def _guard_the_enumerator(monkeypatch):
    """Patch the enumerator behind the basis check so that it raises for
    any basis over MAX_BASIS: a request that reaches it with such a basis
    got past the check."""
    enumerate_monomials = projective._pn_monomials

    def guarded(n, k, top):
        size = math.comb(n + k, n) if not top else math.comb(-k - 1, n) if k <= -n - 1 else 0
        if size > MAX_BASIS:
            raise AssertionError(f"an over-budget basis was enumerated: n={n}, k={k}, top={top}")
        return enumerate_monomials(n, k, top)

    monkeypatch.setattr(projective, "_pn_monomials", guarded)
    with pytest.raises(AssertionError, match="over-budget"):  # the guard is live
        projective._pn_monomials(1, MAX_BASIS, False)


def test_cech_budget_refuses_before_building(capsys, monkeypatch):
    _guard_the_enumerator(monkeypatch)
    at_budget = run_json(capsys, "cech", "--i", "0", "--k", str(MAX_BASIS - 1))
    assert at_budget["result"]["dim"] == MAX_BASIS == len(at_budget["result"]["basis"])
    for k in (MAX_BASIS, -MAX_BASIS - 2, 10**18, -(10**18)):
        i = 0 if k > 0 else 1
        code, out, err = run_cli(capsys, "cech", "--i", str(i), "--k", str(k))
        assert (code, out) == (2, "")
        size = k + 1 if i == 0 else -k - 1
        assert err == f"error: the level-{i} basis of O({k}) on P^1 has {size} monomials, over the basis budget of {MAX_BASIS}\n"


class _Priced(Exception):
    """Raised in place of the cost check: it carries the request's cost."""


# The library's bindings of projective.check_cost: the windows and verdicts of
# cones and delpezzo, the presentation, the line's curve grid and the cocycle check.
_PRICING = (projective, presentation, p1, atiyah)


def _priced(monkeypatch, price, call, *args) -> None:
    """call(*args) with ``price`` in place of every binding of the cost check."""
    with monkeypatch.context() as patch:
        for module in _PRICING:
            patch.setattr(module, "check_cost", price)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            call(*args)


def _price_of(monkeypatch, call, *args):
    """The closed-form cost of the first priced call that call(*args) makes,
    or None where it is refused before it is priced; nothing is built either
    way."""

    def price(cost):
        raise _Priced(cost)

    try:
        _priced(monkeypatch, price, call, *args)
    except _Priced as priced:
        return priced.args[0]
    return None


def _cost_of(monkeypatch, *argv: str):
    return _price_of(monkeypatch, main, list(argv))


def _forbid_building(monkeypatch):
    """Make building any matrix or polynomial fail the test."""
    from conedef.linalg import RationalMatrix
    from conedef.polynomials import Polynomial

    def refuse(*args):
        raise AssertionError("something was built for an over-budget request")

    monkeypatch.setattr(RationalMatrix, "__init__", refuse)
    monkeypatch.setattr(Polynomial, "__init__", refuse)


def _cost_error(cost: int) -> str:
    return f"error: the request costs {cost} units, over the cost budget of {MAX_COST}\n"


def _window_error(lo: int, hi: int) -> str:
    return f"error: weight window {lo}..{hi} has {hi - lo + 1} weights, over the cost budget of {MAX_COST}\n"


def _basis_error(n: int, k: int, level: int, size: int) -> str:
    return f"error: the level-{level} basis of O({k}) on P^{n} has {size} monomials, over the basis budget of {MAX_BASIS}\n"


def _assert_refused(capsys, argv, err):
    code, out, got = run_cli(capsys, *argv)
    assert (code, out, got) == (2, "", err), argv


def test_atiyah_budget_refuses_before_building(capsys, monkeypatch):
    # C(n + 1, 3) triple overlaps at 3 n^2 units each: n = 11 is the largest admitted
    assert _cost_of(monkeypatch, "atiyah", "--n", "11") == math.comb(12, 3) * 3 * 11**2 == 79860 <= MAX_COST
    assert _cost_of(monkeypatch, "atiyah", "--n", "12") == math.comb(13, 3) * 3 * 12**2 == 123552
    _forbid_building(monkeypatch)
    for n in (12, 10**18):
        _assert_refused(capsys, ("atiyah", "--n", str(n)), _cost_error(math.comb(n + 1, 3) * 3 * n**2))


def test_t1_and_rigidity_budgets_refuse_before_building(capsys, monkeypatch):
    _guard_the_enumerator(monkeypatch)
    # a weight of a closed form costs its table row alone: MAX_COST weights are admitted
    code, out, _ = run_cli(capsys, "t1", "segre:1", "--weights", f"{1 - MAX_COST}..0", "--format", "csv")
    assert code == 0 and out.count("\n") == MAX_COST + 1
    # the line's count is a closed form and builds no basis: in weight m its
    # level-1 group has -3 - m = MAX_BASIS + 1 monomials
    m = -4 - MAX_BASIS
    assert run_json(capsys, "t1", "rnc:1", "--weights", f"{m}..{m}")["result"]["table"] == {str(m): MAX_BASIS + 1}
    assert run_json(capsys, "rigidity", f"rnc:{10**18}")["result"]["witness"] == {"weight": -1, "dim": 10**18 - 3}
    # h^2 counts on a curve are a closed form and build nothing
    assert run_json(capsys, "t1", "rnc:1000000000", "--order", "2")["result"]["nonzero_weights"] == []
    # the plane's top-level basis in twist -142 has C(141, 2) = 9870 monomials, in -143 C(142, 2) = 10011,
    # in -144 C(143, 2) = 10153; its Euler top map adds 3 nonzeros per monomial to the weight's row
    assert run_json(capsys, "t1", "veronese:2:1", "--weights", "-142..-142")["result"]["table"] == {"-142": 0}
    assert _cost_of(monkeypatch, "t1", "veronese:2:1", "--weights", "-142..-142") == 1 + 3 * 9870
    assert _cost_of(monkeypatch, "t1", "veronese:2:1", "--weights", "-142..857") == 1000 + 3 * math.comb(142, 3) == 1402540
    assert _cost_of(monkeypatch, "t1", "veronese:2:1", "--weights", "-142..-140", "--order", "2") == 87576 <= MAX_COST
    assert _cost_of(monkeypatch, "t1", "veronese:2:1", "--weights", "-142..-139") == 115936
    # a certificate replays every weight of its window, step by step: 7 steps in each
    # twist m <= -2, 2 at m = -1 and 5 at m = 0 for six points
    assert _cost_of(monkeypatch, "rigidity", "delpezzo:6", "--weights", "-14285..0") == 99995 <= MAX_COST
    assert _cost_of(monkeypatch, "rigidity", "delpezzo:6", "--weights", "-14286..0") == 100002
    # t1 builds no certificate: its weights cost a row each, and a blown-up plane is out of scope
    assert run_cli(capsys, "t1", "delpezzo:6", "--weights", "-14286..0")[0] == 3
    # a numeric verdict reads its witness weight alone, whatever the window
    assert _cost_of(monkeypatch, "rigidity", "veronese:2:1", "--weights", f"{-(10**18)}..0") == 1 + 3 * 1
    assert _cost_of(monkeypatch, "rigidity", "veronese:2:2", "--weights", f"{-(10**18)}..0") == 0
    wide, narrow = (run_json(capsys, "rigidity", "rnc:4", "--weights", w)["result"] for w in ("-1000000000..0", "-6..3"))
    assert wide.pop("window") == "-1000000000..0" and narrow.pop("window") == "-6..3"
    assert wide == narrow and wide["witness"] == {"weight": -1, "dim": 1}

    def refuse(*args):
        raise AssertionError("something was built for an over-budget request")

    import conedef.delpezzo

    # a certificate builds its steps as CertSteps, from the canonical class
    monkeypatch.setattr(conedef.delpezzo, "CertStep", refuse)
    monkeypatch.setattr(projective.SurfaceDivisor, "canonical", refuse)
    over = [
        (("t1", "rnc:4", "--weights", f"{-MAX_COST}..0"), _window_error(-MAX_COST, 0)),
        (("t1", "segre:1", "--weights", f"{-(10**18)}..{10**18}"), _window_error(-(10**18), 10**18)),
        (("rigidity", "delpezzo:6", "--weights", f"{-MAX_COST}..0"), _window_error(-MAX_COST, 0)),
        (("rigidity", "delpezzo:6", "--weights", "-14286..0"), _cost_error(100002)),
        (("t1", "veronese:2:1", "--weights", "-142..857"), _cost_error(1402540)),
        (("t1", "veronese:2:1", "--weights", "-142..-139", "--order", "2"), _cost_error(115936)),
        (("t1", f"veronese:2:{10**18}", "--weights", "-1..-1"), _cost_error(1 + 3 * math.comb(10**18 - 1, 2))),
        # the cost budget admits these; the basis they would enumerate is refused
        (("t1", "veronese:2:2", "--weights", "-72..-72"), _basis_error(2, -144, 2, 10153)),
        (("t1", "veronese:2:1", "--weights", "-143..-143"), _basis_error(2, -143, 2, 10011)),
        (("t1", "veronese:2:1", "--weights", "-143..-143", "--order", "2"), _basis_error(2, -143, 2, 10011)),
        # the Euler block's source basis (2 * 5001 - 1 monomials) and the graded map's target grade (10001)
        (("jacobian", "--d", "2", "--weight", "-5001"), _basis_error(1, -10002, 1, 10001)),
        (("jacobian", "--d", "2", "--weight", "4998", "--trace"), _basis_error(1, 10000, 0, 10001)),
    ]
    for argv, err in over:
        _assert_refused(capsys, argv, err)


def test_jacobian_budget_refuses_before_building(capsys, monkeypatch):
    # the first priced call of a request: the C(d, 2)(d + 1) partials of
    # --dump-matrix, or the d + 1 Euler maps out of h^1(O(d m)) of the normal
    # route; a map with an empty source counts one entry
    priced = {
        ("--d", "58", "--dump-matrix"): math.comb(58, 2) * 59,
        ("--d", "59", "--dump-matrix"): math.comb(59, 2) * 60,
        ("--d", "58", "--weight", "-1", "--trace"): 59 * 57,
        ("--d", "9", "--weight", "-1111"): 10 * 9998,
        ("--d", "9", "--weight", "-1112"): 10 * 10007,
        ("--d", "16", "--weight", "2", "--trace"): 17,
        ("--d", "49999", "--weight", "0"): 50000,
    }
    for argv, cost in priced.items():
        assert _cost_of(monkeypatch, "jacobian", *argv) == cost, argv
    assert [cost <= MAX_COST for cost in priced.values()] == [True, False, True, True, False, True, True]
    # --trace makes a second priced call, the graded map, priced by what it
    # builds: C(d, 2)(d + 1) blocks out of each source monomial of grade m + 1,
    # or the C(d, 2) rows at most of the zero map out of an empty grade;
    # each call held to MAX_COST on its own
    graded = {
        (58, -1): math.comb(58, 2) * 59,
        (59, -1): math.comb(59, 2) * 60,
        (16, 2): math.comb(16, 2) * 17 * 49,
        (59, -2): math.comb(59, 2),
    }
    for (d, m), cost in graded.items():
        assert _price_of(monkeypatch, presentation.graded_jacobian_map, d, m) == cost, (d, m)
    assert [cost <= MAX_COST for cost in graded.values()] == [True, False, True, True]
    # the largest admitted requests run, and enumerate no basis over MAX_BASIS
    _guard_the_enumerator(monkeypatch)
    for d in (46, 58):
        dump = run_json(capsys, "jacobian", "--d", str(d), "--dump-matrix")["result"]
        assert (dump["rows"], dump["cols"]) == (math.comb(d, 2), d + 1)
    assert run_json(capsys, "jacobian", "--d", "46", "--weight", "-2", "--trace")["result"]["t1"] == 0
    assert run_json(capsys, "jacobian", "--d", "58", "--weight", "-1", "--trace")["result"]["t1"] == 55

    _forbid_building(monkeypatch)
    over = [
        (("--d", "2", "--weight", "-1000000000"), 3 * 1999999999),
        (("--d", "3", "--weight", "1000000000", "--trace"), 12 * 3000000004),
        (("--d", "27", "--weight", "300", "--trace"), math.comb(27, 2) * 28 * 8128),
        (("--d", "9", "--weight", "-1112"), 100070),
        (("--d", "59", "--weight", "-1", "--trace"), 102660),
        (("--d", "59", "--dump-matrix"), 102660),
        (("--d", "100000", "--dump-matrix"), math.comb(100000, 2) * 100001),
        (("--d", str(10**18), "--weight", "0"), 10**18 + 1),
    ]
    for argv, cost in over:
        _assert_refused(capsys, ("jacobian", *argv), _cost_error(cost))


def test_no_traced_jacobian_builds_its_euler_map_and_is_then_refused(monkeypatch):
    """Wherever the normal route admits a weight whose restricted Euler map
    has both sides, and so builds and ranks it, the graded map admits the
    request too: each price read from its own builder, nothing built."""
    admitted = 0
    for d in range(2, 461):
        for m in range(-30, 4):
            if not (p1.h_dim(1, d * m) and p1.h_dim(1, d * m + d)):
                continue
            if _price_of(monkeypatch, p1.euler_restricted_h0, d, m) <= MAX_COST:
                assert _price_of(monkeypatch, presentation.graded_jacobian_map, d, m) <= MAX_COST, (d, m)
                admitted += 1
    assert admitted > 1000


@pytest.mark.parametrize(
    "argv,code",
    [
        ("jacobian --d 224 --weight -2 --trace", 2),
        ("jacobian --d 183 --weight -3 --trace", 2),
        ("jacobian --d 59 --weight -1 --trace", 2),
        ("jacobian --d 59 --weight -2 --trace", 0),
    ],
)
def test_a_traced_jacobian_is_refused_before_it_builds(argv, code):
    """The normal route refuses (224, -2) and (183, -3) and the graded map
    (59, -1) before either builds, so no exact arithmetic is loaded; (59, -2),
    whose graded source is empty, is admitted."""
    loaded = _modules_loaded_by(argv, code=code)
    if code:
        assert not loaded & _EXACT_ARITHMETIC


def test_benchmark_commands_cost_far_under_the_budget(monkeypatch):
    """Every priced call that a command of the three benchmark workloads
    makes costs at most 2.5 * 10**3 units, so the cost budget refuses none of
    them."""
    from perfbench import workloads

    check, costs = projective.check_cost, []
    for workload in workloads.WORKLOADS:
        for seed in (1, 2, 3):
            for command in workloads.generate(workload, seed):
                _priced(monkeypatch, lambda cost: (costs.append(cost), check(cost)), main, list(command.argv))
    assert 1000 < max(costs) <= 2500


# ---- what each command loads ---------------------------------------------

# Runs one command in a fresh interpreter and prints its exit code (the
# code of the SystemExit that --help ends in), then the conedef modules it
# loaded, and dataclasses, inspect, json or the numeric tower (fractions and
# the decimal and numbers modules it imports) if the import of the package, the
# command or the prelude (the first argument, run after start-up) loaded
# them, not the interpreter's own start-up.
_LOADED = """
import sys
started = set(sys.modules)
import contextlib, io
exec(sys.argv[1])
from conedef import cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = cli.main(sys.argv[2:])
    except SystemExit as exc:
        code = exc.code
watched = {"dataclasses", "inspect", "fractions", "decimal", "numbers", "json"} - started
print(code, " ".join(sorted(m for m in sys.modules if m.startswith("conedef") or m in watched)))
"""


def _modules_loaded_by(argv: str, prelude: str = "", code: int = 0) -> set[str]:
    """The modules the probe reports for one command, which must exit with ``code``."""
    env = {**os.environ, "PYTHONPATH": str(Path(conedef.__file__).parent.parent)}
    proc = subprocess.run([sys.executable, "-c", _LOADED, prelude, *argv.split()], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    exit_code, *loaded = proc.stdout.split()
    assert int(exit_code) == code, (argv, exit_code)
    return set(loaded)


@pytest.mark.parametrize(
    "argv",
    ["t1 veronese:2:3", "t1 rnc:4", "jacobian --d 4 --weight 0 --trace", "cech --i 1 --k -4", "--help"],
)
def test_commands_leave_the_certificate_layers_unloaded(argv):
    loaded = _modules_loaded_by(argv)
    assert "conedef.cli" in loaded
    assert not loaded & {"conedef.delpezzo", "conedef.atiyah"}


@pytest.mark.parametrize("argv,module", [("rigidity delpezzo:6", "conedef.delpezzo"), ("atiyah --n 3", "conedef.atiyah")])
def test_commands_load_their_layer_on_demand(argv, module):
    assert module in _modules_loaded_by(argv)


@pytest.mark.parametrize(
    "argv",
    [
        "--help",
        "t1 rnc:4",
        "t1 veronese:2:3",
        "rigidity delpezzo:6",
        "jacobian --d 4 --weight 0 --trace",
        "cech --i 1 --k -4",
        "atiyah --n 3",
    ],
)
def test_commands_never_load_dataclasses(argv):
    """Records are plain slotted classes: no command pays for importing
    dataclasses, or the inspect module it pulls in."""
    loaded = _modules_loaded_by(argv)
    assert "conedef.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}


@pytest.mark.parametrize(
    "argv",
    [
        "--help",
        "t1 veronese:2:4 --weights=-6..1",
        "jacobian --d 11 --weight -1 --trace",
        "atiyah --n 4",
        "cech --i 1 --k -4",
        "rigidity delpezzo:6",
    ],
)
def test_commands_never_load_typing(argv):
    """Annotations are strings, and the names they use are imported for
    type checkers only (``TYPE_CHECKING = False``): no command pays for
    loading ``typing``.  Run with ``-S``, since a site hook of the
    interpreter may load typing before the command starts."""
    env = {**os.environ, "PYTHONPATH": str(Path(conedef.__file__).parent.parent)}
    cmd = [sys.executable, "-S", "-X", "importtime", "-m", "conedef", *argv.split()]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    loaded = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
    assert "conedef.cli" in loaded
    assert not loaded & {"typing", "_typing"}


# Each command loads the package root, the command line and the engine
# modules it runs, and no more: the help and argparse's refusals load the
# first two alone, a t1 or rigidity the catalog, cech the line and jacobian
# the presentation, each with the monomial model under it.
_FRONT = {"conedef", "conedef.cli"}
_CATALOG_LAYERS = _FRONT | {"conedef.cones", "conedef.projective", "conedef.records"}
_LINE_LAYERS = _FRONT | {"conedef.p1", "conedef.projective", "conedef.records"}
_CURVE_LAYERS = _LINE_LAYERS | {"conedef.presentation"}
_NUMERIC_TOWER = {"fractions", "decimal", "numbers"}
_EXACT_ARITHMETIC = {"conedef.linalg", "conedef.polynomials"} | _NUMERIC_TOWER


_CLOSED_FORM_COMMANDS = [  # (argv, exit code, the conedef modules it loads)
    ("--help", 0, _FRONT),
    ("jacobian --d 4", 2, _FRONT),  # argparse's usage error: neither --weight nor --dump-matrix
    ("t1 rnc:4", 0, _CATALOG_LAYERS),
    ("cech --i 1 --k -4", 0, _LINE_LAYERS),
    ("t1 delpezzo:3", 3, _CATALOG_LAYERS),
    # refused by the plane's basis budget after passing the cost budget, and by the cost budget
    ("t1 veronese:2:1 --weights -143..-143", 2, _CATALOG_LAYERS),
    ("t1 veronese:2:1 --weights -142..857", 2, _CATALOG_LAYERS),
    ("t1 bogus:1", 2, _CATALOG_LAYERS),  # the refusal lists the catalog's usage forms
    # every connecting map of these chases has an empty side, so none is built
    ("rigidity veronese:2:3", 0, _CATALOG_LAYERS),
    ("jacobian --d 6 --weight -1", 0, _CURVE_LAYERS),
]


@pytest.mark.parametrize("argv,code,modules", _CLOSED_FORM_COMMANDS, ids=[row[0] for row in _CLOSED_FORM_COMMANDS])
def test_closed_form_commands_load_no_exact_arithmetic(argv, code, modules):
    """Each command loads exactly its own modules of the package and no
    exact arithmetic; only a command that writes an envelope loads json."""
    loaded = _modules_loaded_by(argv, code=code)
    assert {m for m in loaded if m.startswith("conedef")} == modules
    assert not loaded & _EXACT_ARITHMETIC
    assert ("json" in loaded) == (code == 0 and argv != "--help")


@pytest.mark.parametrize(
    "argv",
    [
        "atiyah --n 12",
        "atiyah --n 1",
        "jacobian --d 1 --weight 0",
        "jacobian --d 1 --dump-matrix",
        "jacobian --d 59 --dump-matrix",
        "jacobian --d 9 --weight -1112 --trace",
        "jacobian --d 59 --weight -1 --trace",
        "jacobian --d 3 --weight 1000000000 --trace",
    ],
)
def test_refused_commands_load_no_exact_arithmetic(argv):
    """A refused ``atiyah`` or ``jacobian`` exits 2 and loads no exact
    arithmetic; a refused ``atiyah`` loads its own module, which prices the
    request."""
    loaded = _modules_loaded_by(argv, code=2)
    assert {m for m in loaded if m.startswith("conedef")} <= _CURVE_LAYERS | {"conedef.atiyah"}
    assert not loaded & _EXACT_ARITHMETIC


@pytest.mark.parametrize(
    "call",
    [
        "atiyah.atiyah_cocycle_check(12)",
        "atiyah.atiyah_cocycle_check(1)",
        "presentation.build_presentation(1)",
        "presentation.jacobian_matrix(59)",
        "presentation.graded_jacobian_map(1, 0)",
        "presentation.graded_jacobian_map(16, 3)",
        "presentation.t1_via_normal(500, -2)",
        "p1.euler_h1_block(500, -2)",
    ],
)
def test_refused_library_calls_load_no_exact_arithmetic(call):
    """Each builder checks its request and prices it before it imports
    polynomials or linalg, and refuses it as a RequestError."""
    prelude = textwrap.dedent(f"""
        from conedef import atiyah, p1, presentation
        from conedef.projective import RequestError
        try:
            {call}
        except RequestError:
            pass
        else:
            raise AssertionError("admitted")
    """)
    assert not _modules_loaded_by("--help", prelude) & _EXACT_ARITHMETIC


@pytest.mark.parametrize("argv", ["rigidity delpezzo:8 --weights -6..0", "rigidity delpezzo:7"])
def test_certificates_load_no_exact_arithmetic(argv):
    """A certificate's plane cotangent steps read a map from no sections
    as rank 0 by its shape, so replaying one builds no matrix."""
    loaded = _modules_loaded_by(argv)
    assert "conedef.delpezzo" in loaded
    assert not loaded & _EXACT_ARITHMETIC


def test_the_plane_chase_loads_the_kernel_only():
    """The plane's Euler chase multiplies by coordinates, an integer map:
    it loads linalg but neither polynomials nor fractions."""
    loaded = _modules_loaded_by("t1 veronese:2:4")
    assert "conedef.linalg" in loaded
    assert not loaded & ({"conedef.polynomials"} | _NUMERIC_TOWER)


def test_a_command_that_builds_a_matrix_loads_exact_arithmetic():
    # the graded Jacobian of a nonempty grade builds polynomials and a
    # matrix, and the probe sees the numeric tower once anything in the
    # command's process imports fractions, so the checks above and below
    # are not vacuous
    command = "jacobian --d 5 --weight 0 --trace"
    assert {"conedef.linalg", "conedef.polynomials"} <= _modules_loaded_by(command)
    assert _EXACT_ARITHMETIC <= _modules_loaded_by(command, prelude="import fractions")


@pytest.mark.parametrize("argv", ["jacobian --d 5 --weight 0 --trace", "jacobian --d 6 --dump-matrix", "atiyah --n 3"])
def test_polynomial_commands_load_no_fractions(argv):
    """Every coefficient the package makes is an int (the minors have
    coefficients +-1, derivatives and substitutions multiply integers, and
    rational functions cross-multiply), so building polynomials, and the
    graded Jacobian's integer matrix, loads none of the numeric tower."""
    loaded = _modules_loaded_by(argv)
    assert "conedef.polynomials" in loaded
    assert not loaded & _NUMERIC_TOWER


def test_every_exported_name_resolves():
    for name in conedef.__all__:
        assert getattr(conedef, name) is not None, name
    from conedef import Certificate, delpezzo_certificate  # through the package's lazy lookup
    from conedef.delpezzo import Certificate as direct

    assert Certificate is direct and callable(delpezzo_certificate)
    with pytest.raises(AttributeError):
        conedef.no_such_name


def test_the_root_loads_nothing_and_resolves_each_name_to_its_home():
    """``import conedef`` loads no module of the package; each export is
    the object of the module ``_EXPORTS`` keys it by, which defines it
    rather than re-exports it, but the three refusal classes of ``_OWN``,
    which the root defines itself, and ``__all__`` names each once."""
    env = {**os.environ, "PYTHONPATH": str(Path(conedef.__file__).parent.parent)}
    probe = "import sys, conedef; print(*(m for m in sys.modules if m.startswith('conedef.')))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "\n", "")
    assert len(set(conedef.__all__)) == len(conedef.__all__)
    assert set(conedef.__all__) <= set(dir(conedef))
    exported = [name for names in conedef._EXPORTS.values() for name in names]
    assert sorted(conedef.__all__) == sorted([*conedef._OWN, *exported, "__version__"])
    # the three refusal classes are the root's own, and every module that
    # binds one binds the root's class
    for name in conedef._OWN:
        value = getattr(conedef, name)
        assert value.__module__ == "conedef" and vars(conedef)[name] is value, name
        for module in ("cli", "cones", "projective", "p1", "presentation", "atiyah", "delpezzo"):
            assert getattr(import_module(f"conedef.{module}"), name, value) is value, (module, name)
    for module, names in conedef._EXPORTS.items():
        home = import_module(f"conedef.{module}")
        for name in names:
            value = getattr(conedef, name)
            assert value is getattr(home, name), name
            assert getattr(value, "__module__", home.__name__) == home.__name__, name  # CATALOG, a dict, has none


def test_bott_h1_spike_mismatch_is_exit_4(capsys, monkeypatch):
    # the Euler chase on the plane is checked against Bott's pair (h^1, h^2);
    # moving the h^1 spike from k = -3 to k = -4 makes the two disagree at -3
    bott = projective._bott_tangent_p2
    monkeypatch.setattr(projective, "_bott_tangent_p2", lambda k: (bott(k + 1)[0], bott(k)[1]))
    code, out, err = run_cli(capsys, "t1", "veronese:2:3")
    assert (code, out) == (4, "")
    assert err.startswith("internal error: tangent chase on the plane, k=-3:")
    assert err.count("\n") == 1


def test_bott_h2_mismatch_is_exit_4(capsys, monkeypatch):
    # the cokernel of the same chase is checked against Bott's h^2 form;
    # shifting j = -k-3 by one breaks it at the first weight, k = -18
    bott = projective._bott_tangent_p2
    monkeypatch.setattr(projective, "_bott_tangent_p2", lambda k: (bott(k)[0], bott(k - 1)[1]))
    code, out, err = run_cli(capsys, "t1", "veronese:2:3", "--order", "2")
    assert (code, out) == (4, "")
    assert err.startswith("internal error: tangent chase on the plane, k=-18:")
    assert err.count("\n") == 1


def test_closed_form_witness_without_a_count_is_exit_4(capsys, monkeypatch):
    # a closed form that names a weight whose count is zero is refused
    monkeypatch.setattr(cones.VeroneseSpace, "closed_form_rigidity", lambda self: (-2, "shifted"))
    code, out, err = run_cli(capsys, "rigidity", "veronese:2:3")
    assert (code, out) == (4, "")
    assert err.startswith("internal error: VeroneseSpace(n=2, d=3): the closed form puts a nonzero weight at -2")
    assert err.count("\n") == 1


def test_normal_route_mismatch_is_exit_4(capsys, monkeypatch):
    # at d = 4, m = -1 the chase is exact, so the normal route must equal
    # the line count; one section too many makes them disagree
    normal_bundle_h0 = presentation.normal_bundle_h0
    monkeypatch.setattr(presentation, "normal_bundle_h0", lambda d, m: normal_bundle_h0(d, m) + 1)
    code, out, err = run_cli(capsys, "jacobian", "--d", "4", "--weight", "-1")
    assert code == 4
    assert out == ""
    assert err.startswith("internal error: normal route d=4, m=-1:")
    assert err.count("\n") == 1


def test_graded_route_mismatch_is_exit_4(capsys, monkeypatch):
    # weight 1 is clean for the line (h^1(O(4)) = 0), so the graded route's
    # cokernel must equal the normal route; one rank too many makes them disagree
    rank = presentation.GradedJacobian.rank
    monkeypatch.setattr(presentation.GradedJacobian, "rank", lambda self: rank(self) + 1)
    code, out, err = run_cli(capsys, "jacobian", "--d", "4", "--weight", "1", "--trace")
    assert (code, out) == (4, "")
    assert err == "internal error: graded route d=4, m=1: h^0(N(m)) - rank = -1, normal route 0\n"


def test_the_two_routes_agree_at_every_clean_weight(capsys):
    """Weights 0..3 are clean for every curve degree: each traced jacobian
    compares the graded route with the normal route and answers."""
    for d in range(2, 13):
        for m in range(4):
            assert p1.h_dim(1, d * m) == 0
            run_json(capsys, "jacobian", "--d", str(d), "--weight", str(m), "--trace")


def test_basis_short_of_its_closed_form_is_exit_4(capsys, monkeypatch):
    # the enumeration behind every basis loses one monomial: the basis no
    # longer matches the closed-form size it was priced at
    enumerate_monomials = projective._pn_monomials
    monkeypatch.setattr(projective, "_pn_monomials", lambda n, k, top: enumerate_monomials(n, k, top)[1:])
    code, out, err = run_cli(capsys, "cech", "--i", "1", "--k", "-4")
    assert (code, out) == (4, "")
    assert err == "internal error: level-1 basis of O(-4) on P^1: enumerated 2 monomials, closed form 3\n"


# ---- the README's examples ------------------------------------------------


def _readme_cli_examples() -> list[list[str]]:
    """The argv of each ``conedef ...`` line in the README's CLI block."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
    examples = [line.partition("#")[0].split()[1:] for line in block.splitlines() if line.startswith("conedef ")]
    if not examples:
        raise ValueError("the README's CLI block has no conedef lines")
    return examples


README_EXAMPLES = _readme_cli_examples()


@pytest.mark.parametrize("argv", README_EXAMPLES, ids=[" ".join(argv) for argv in README_EXAMPLES])
def test_readme_cli_examples_run(capsys, envelope_schema, argv):
    """Every documented example exits 0 and every JSON reply is a valid
    envelope, so a descriptor the registry drops or renames fails here
    instead of rotting in the docs."""
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    if "csv" not in argv:
        jsonschema.validate(json.loads(out), envelope_schema)


# ---- envelope discipline ----------------------------------------------


def test_envelope_key_order(capsys):
    code, out, _ = run_cli(capsys, "t1", "rnc:2", "--weights", "0..0")
    env = json.loads(out)
    assert list(env) == ["schema_version", "command", "inputs", "result"]
    assert env["schema_version"] == "1"


def _writes_for(text: str) -> int:
    """The writes of an envelope: its encoder chunks and the newline, WRITE_BATCH to a write."""
    chunks = sum(1 for _ in json.JSONEncoder(indent=2).iterencode(json.loads(text))) + 1
    return -(-chunks // cli.WRITE_BATCH)


def test_a_certificate_envelope_is_streamed(monkeypatch):
    """main writes the envelope WRITE_BATCH encoder chunks at a time, never
    as one string, so a long certificate is not held in memory twice while
    it is printed, and an unbuffered stdout gets a few large writes instead
    of one per chunk."""
    sizes = []

    class Recorder(io.StringIO):
        def write(self, text):
            sizes.append(len(text))
            return super().write(text)

    out = Recorder()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["rigidity", "delpezzo:8", "--weights", "-600..0"]) == 0
    text = out.getvalue()
    assert len(json.loads(text)["result"]["certificate"]["steps"]) > 600
    assert len(sizes) == _writes_for(text) > 10
    assert max(sizes) * 10 < len(text)


# Under PYTHONUNBUFFERED=1 stdout writes through to the raw file, one system
# call per write.  The child checks that layout, rebuilds it over a raw file
# that counts its writes, and reports the count on stderr.
_COUNTED_WRITES = """
import io, sys
from conedef import cli
if sys.stdout.buffer.__class__ is not io.FileIO or not sys.stdout.write_through:
    sys.exit("stdout is buffered")
class Counted(io.FileIO):
    calls = 0
    def write(self, data):
        Counted.calls += 1
        return super().write(data)
sys.stdout = io.TextIOWrapper(Counted(sys.stdout.fileno(), "w", closefd=False), encoding="utf-8", write_through=True)
code = cli.main(sys.argv[1:])
sys.stderr.write(f"{Counted.calls}\\n")
sys.exit(code)
"""


def test_an_unbuffered_stdout_gets_few_large_writes(capsys):
    argv = ["rigidity", "delpezzo:8", "--weights", "-300..0"]
    code, out, _ = run_cli(capsys, *argv)
    env = {**os.environ, "PYTHONPATH": str(Path(conedef.__file__).parent.parent), "PYTHONUNBUFFERED": "1"}
    proc = subprocess.run([sys.executable, "-c", _COUNTED_WRITES, *argv], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (code, out)
    assert 1 < int(proc.stderr) <= _writes_for(out)  # against 50,377 encoder chunks


@pytest.mark.parametrize("unbuffered", ["0", "1"])
def test_a_closed_stdout_exits_quietly(unbuffered):
    """A reader that goes away early (``conedef ... | head``) ends the
    command with EXIT_CLOSED_STDOUT and nothing on stderr, not a
    BrokenPipeError traceback.  The envelope is far larger than a pipe's
    buffer, so the writer meets the closed pipe whatever the timing."""
    env = {**os.environ, "PYTHONPATH": str(Path(conedef.__file__).parent.parent)}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered == "1":
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "conedef", "rigidity", "delpezzo:8", "--weights", "-3000..0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (cli.EXIT_CLOSED_STDOUT, b"")


# One request per way the process can end, each run in process by main and
# as ``python -m conedef``: an envelope, --help, a RequestError, argparse's
# usage errors (no descriptor, no subcommand), out of scope, and an internal
# error.  The last is provoked by one section too many in the normal route
# (as in test_normal_route_mismatch_is_exit_4), patched before the child runs
# the package's __main__ through runpy.
_EXIT_PATHS = [
    ("envelope", ["rigidity", "rnc:2"], 0),
    ("help", ["--help"], 0),
    ("request-error", ["t1", "rnc:4", "--weights", "3..-3"], 2),
    ("usage-no-descriptor", ["t1"], 2),
    ("usage-no-subcommand", [], 2),
    ("out-of-scope", ["t1", "delpezzo:5"], 3),
    ("internal-error", ["jacobian", "--d", "4", "--weight", "-1"], 4),
]
_ONE_SECTION_TOO_MANY = """
import runpy
from conedef import presentation
normal_bundle_h0 = presentation.normal_bundle_h0
presentation.normal_bundle_h0 = lambda d, m: normal_bundle_h0(d, m) + 1
runpy.run_module("conedef", run_name="__main__")
"""


@pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv,code", [row[1:] for row in _EXIT_PATHS], ids=[row[0] for row in _EXIT_PATHS])
def test_the_process_entry_matches_main_byte_for_byte(capsys, monkeypatch, argv, code, unbuffered):
    """``python -m conedef`` ends through cli.run, which flushes stdout and
    stderr and skips interpreter teardown: its exit status, stdout and
    stderr equal main's in process, byte for byte, on every way out."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps --help and usage to the terminal's width
    if code == 4:
        normal_bundle_h0 = presentation.normal_bundle_h0
        monkeypatch.setattr(presentation, "normal_bundle_h0", lambda d, m: normal_bundle_h0(d, m) + 1)
    try:
        got = main(argv)
    except SystemExit as exc:  # argparse ends --help and a usage error itself
        got = exc.code
    captured = capsys.readouterr()
    assert got == code
    env = {**os.environ, "PYTHONPATH": str(Path(conedef.__file__).parent.parent), "COLUMNS": "80"}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    entry = ["-c", _ONE_SECTION_TOO_MANY] if code == 4 else ["-m", "conedef"]
    proc = subprocess.run([sys.executable, *entry, *argv], capture_output=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, captured.out.encode(), captured.err.encode())
    assert proc.stdout or proc.stderr


def test_the_console_script_is_the_process_entry():
    """``[project.scripts]`` names the ``conedef`` script's target, which
    resolves to cli.run, the entry ``python -m conedef`` runs too."""
    tomllib = pytest.importorskip("tomllib")  # the stdlib reads TOML from Python 3.11 on
    pyproject = tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml").read_text())
    module, _, attr = pyproject["project"]["scripts"]["conedef"].partition(":")
    assert getattr(import_module(module), attr) is cli.run


# ---- golden output per catalog class ------------------------------------

# Large requests the budgets admit, also replayed in a bounded process: the
# widest restricted Euler grid (d + 1 blocks, none built: the map's source
# is empty), a wide traced graded Jacobian, and the slowest request of each command near MAX_COST (0.4-1.6 s
# end to end on a shared 2-core host; the certificate prints 34 MB).
_LARGEST_ADMITTED = [
    ("jacobian --d 49999 --weight 0", 0, "0132f84cc947205949a0a29e1f4587e30c219cca3ccff3ad721887fc5b46bb9d", ""),
    ("jacobian --d 46 --weight -1 --trace", 0, "9cf7f70a7df766fe0b63e39b18b39068908f3f34690b5a0c2bb9ca805e7040c6", ""),
    ("jacobian --d 9 --weight -1100 --trace", 0, "ab1eb37e6cafe1e374cea30eb1ee43f89ef1c170bb4c5d9513f9a8b42a034a0b", ""),
    ("t1 veronese:2:1 --weights -142..-140", 0, "da413cfee09979ed1318337c58c28c5340ada6ae06456fa9cf84cc0b79034edd", ""),
    ("rigidity delpezzo:8 --weights -16667..0", 0, "69e814a9cd1fd23094e10f9db42117ddf4f5879e08789d4b05d8a84245ad0035", ""),
    ("atiyah --n 11", 0, "1be13b211ff0aadf52f5de51a0c3139705004524648a45386cb7af37c34ce967", ""),
]

_HUGE = "9" * 4300
_JACOBIAN_USAGE = "usage: conedef jacobian [-h] [--trace] --d D (--weight WEIGHT | --dump-matrix)\n"
_USAGE = "usage: conedef [-h] {t1,rigidity,jacobian,cech,atiyah} ...\n"


def _row_id(argv: str) -> str:
    return re.sub(r"9{100,}", lambda nines: f"9x{len(nines[0])}", argv.replace(" ", "_"))


# One descriptor per catalog class under the three traced commands, then
# the jacobian command in both modes, then every subcommand untraced or
# traced, the csv table, the exit-2 paths and the largest admitted
# requests: exit code, sha256 of stdout and the exact stderr.  Pins the
# per-class rule strings, rigidity notes, window_independent flags and the
# two-route jacobian trace byte for byte.
GOLDEN = [
    ("t1 rnc:4 --trace", 0, "c4645d86babfcb0247cc7bdfb93d298fa3a7d54939ba0a9afade2206399389d2", ""),
    ("t1 rnc:4 --order 2 --trace", 0, "d09465907d507ee317f167c838f5532d2e86d2c9f1d9a9c4712c79c9cc85c12f", ""),
    ("rigidity rnc:4 --trace", 0, "8869ad2411f9d0de87c2fcc917f36612957d5dfa3dd534e87a11a54c7f666fea", ""),
    ("t1 veronese:1:3 --trace", 0, "8a0f430b58bdd849a13327828c1329854def81628b2c34bc358d43944c6a9fe4", ""),
    ("t1 veronese:1:3 --order 2 --trace", 0, "4bc37db696f7b05a2aff53eabd7c62f8899128c2f5e20284fe24f571e584994a", ""),
    ("rigidity veronese:1:3 --trace", 0, "42dc6a548288fc3d7b28acf05828b8d63d2a0a8997793d0bce16871079fc8463", ""),
    ("t1 veronese:2:3 --trace", 0, "f731ae0bbeaec0979c4230e257f4f18e341c34fcd4f9b74693922eaeac01680c", ""),
    ("t1 veronese:2:3 --order 2 --trace", 0, "cc3078013985bb12a4b11315f7f805fb2b574c1b1082f8244492ef01f760ffea", ""),
    ("rigidity veronese:2:3 --trace", 0, "13f8f44131ddbb32b781dff8a86dbaa7741b7c7beb515838ee98e8256545df1a", ""),
    ("t1 veronese:3:2 --trace", 0, "82c5e43fd9fa35329d273e6757e89002f5c2d6055e874f9f51ef10a35b3fe7db", ""),
    ("t1 veronese:3:2 --order 2 --trace", 3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "out of scope: h^2(T_Y (x) L^m) is computed for n = 1 and n = 2 only\n"),
    ("rigidity veronese:3:2 --trace", 0, "f3ef44b6113ad2398bb0c4deb1d1b1f39784190abd3217b6e06229f663ace4fb", ""),
    ("t1 segre:2 --trace", 0, "b80ebdd2462688fe7bc0ae2cc40a33db53e4df2fe8b9e4b2d3e3ee20bf20a0dc", ""),
    ("t1 segre:2 --order 2 --trace", 0, "e1fddac24e0af16090bfd60c2f276d51b9802f52e25df4593e085e3bd3cd7eb1", ""),
    ("rigidity segre:2 --trace", 0, "50d1d559157c4d4aee96da45b2e61abc9923baf8dacce49bf059de717a4e5ddf", ""),
    ("t1 product:2:3 --trace", 0, "d50499b07a800910d0a24ae38cdd875c34f0de7259adb2565d13fcf96b057e27", ""),
    ("t1 product:2:3 --order 2 --trace", 0, "65a806780903f2501f0c721ae0770fa9465046eeb463489e2f32e5af608f9407", ""),
    ("rigidity product:2:3 --trace", 0, "6097f6f06b289dac55bd647d91da93d99d1fcc5bc44d4b3f3b47c55524bd4761", ""),
    ("t1 delpezzo:6 --trace", 3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "out of scope: blown-up planes are certificate-only: use rigidity_verdict or delpezzo_certificate\n"),
    ("t1 delpezzo:6 --order 2 --trace", 3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "out of scope: blown-up planes are certificate-only: use rigidity_verdict or delpezzo_certificate\n"),
    ("rigidity delpezzo:6 --trace", 0, "0270764ab7f8f574c9e2d686e32fef8753a5add37dde230f97f2d1d6405298ab", ""),
    # the r >= 7 negative block, with the empty blocks at m >= -1
    ("rigidity delpezzo:7 --trace", 0, "5f0ec9114df2de07f91910f3fb49b53c551789013dc626f102b7822627515cf1", ""),
    ("rigidity delpezzo:8 --weights -9..5 --trace", 0, "dd67e21fd288af76af46dfcd1f64c81c88e6b6e1ed37e32ae9a5bf1dfd317d79", ""),
    # the positive block alone, then the theorem steps
    ("rigidity delpezzo:2 --weights 0..4 --trace", 0, "22c96e00279961cb9fe75c2de65547bbd06fa1dadecc462dd43ba517c95fe330", ""),
    ("jacobian --d 4 --weight -1 --trace", 0, "744060bdaea791f30dced30dabf2634a8ecc74c6a26e242cf1c232eaeff394e3", ""),
    ("jacobian --d 6 --weight 2 --trace", 0, "d63682031a4a2eec15941948f22eaac05b208f068f7996e758b6c4317fb0434b", ""),
    ("jacobian --d 7 --weight -2 --trace", 0, "3f13c867a44179757d2f1a5c099df5f6bbccd7bbf1368b21dc95e5d5c37c05e5", ""),
    ("jacobian --d 4 --dump-matrix", 0, "7bdf127d07f8888a01b58c43cda1da32183362086cff16cbe1ad613fe4913214", ""),
    ("t1 rnc:4 --weights -3..-1 --format csv", 0, "39131b166c621e089364b2f47403772aa2dbaf7ec902676923381274123589e7", ""),
    ("t1 rnc:4", 0, "d18d5fbd33042e55bef5c5f86e453ce30dc725c592164bc4f64afa37f5974323", ""),
    ("rigidity rnc:4", 0, "ecb353164acaf33dadf89a1e14e9f47a919d348dfc73d4825ca5940c503c4d2a", ""),
    ("jacobian --d 4 --weight -1", 0, "b2a18dd7dc1eec8f9cc1ca82c1c07c565d60737125baf174e48b62dfec1147f4", ""),
    ("cech --i 1 --k -4 --trace", 0, "ba2645f42aeccb9764c8a42bebbe8c07e2b4af5374034323989b82ece6e9bb06", ""),
    ("cech --i 0 --k 3", 0, "75352b02e7ebdf7824d022ff3d69c37c80dc87ad4ac1b480e9e8a6101592a754", ""),
    ("atiyah --n 3 --trace", 0, "196031b1aeb633f48c9a43a6d2a7134bdb7ab5d4c12162e42ed2bcbccbb798a8", ""),
    ("cech --i 2 --k 0", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: cohomology level must be between 0 and 1, got 2\n"),
    ("jacobian --d 4", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", f"{_JACOBIAN_USAGE}conedef jacobian: error: one of the arguments --weight --dump-matrix is required\n"),
    ("jacobian --d 4 --weight 0 --dump-matrix", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", f"{_JACOBIAN_USAGE}conedef jacobian: error: argument --dump-matrix: not allowed with argument --weight\n"),
    ("atiyah --n 1", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: need n >= 2 for a triple overlap\n"),
    ("cech --i 1 --k -1000000000", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: the level-1 basis of O(-1000000000) on P^1 has 999999999 monomials, over the basis budget of 10000\n"),
    ("atiyah --n 12", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: the request costs 123552 units, over the cost budget of 100000\n"),
    ("t1 rnc:4 --weights -2..-1 --format csv --trace", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: --format csv cannot carry a trace (drop --trace, or use --format json)\n"),
    ("t1 rnc:1000000000", 0, "4ae3f178026613839b11d23a9a81a01e2854e058734d990524b57bf89a130626", ""),
    ("rigidity rnc:1000000000", 0, "3b54ca1739ea6cee6efc4a175310f185d7957ff03b30c45fac4f7f4a55af8a16", ""),
    ("t1 rnc:4 --weights -1000000000..0", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: weight window -1000000000..0 has 1000000001 weights, over the cost budget of 100000\n"),
    ("rigidity rnc:4 --weights -1000000000..0", 0, "4bff1a1b718a66b2d1e5aa1d4cc72f16828957a8402103a682b3b0fca3d95506", ""),
    ("t1 veronese:2:1 --weights -142..857", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: the request costs 1402540 units, over the cost budget of 100000\n"),
    ("t1 veronese:2:1 --weights -143..-143", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: the level-2 basis of O(-143) on P^2 has 10011 monomials, over the basis budget of 10000\n"),
    ("t1 veronese:2:1 --weights -2000..-2000", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: the request costs 5991004 units, over the cost budget of 100000\n"),
    ("t1 veronese:2:1 --weights -2000..-2000 --order 2", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: the request costs 5991004 units, over the cost budget of 100000\n"),
    ("cech --i 0 --k 1000000000", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: the level-0 basis of O(1000000000) on P^1 has 1000000001 monomials, over the basis budget of 10000\n"),
    ("jacobian --d 2 --weight -1000000000", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: the request costs 5999999997 units, over the cost budget of 100000\n"),
    ("jacobian --d 3 --weight 1000000000 --trace", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: the request costs 36000000048 units, over the cost budget of 100000\n"),
    ("jacobian --d 100000 --dump-matrix", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: the request costs 499999999950000 units, over the cost budget of 100000\n"),
    # a weight of 4300 digits, the most this interpreter parses: the price or
    # window length has 4301 and is shown by its order of magnitude
    (f"jacobian --d 3 --weight -{_HUGE}", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: the request costs at least 10^4300 units, over the cost budget of 100000\n"),
    (f"t1 rnc:4 --weights=-{_HUGE}..0", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", f"error: weight window -{_HUGE}..0 has at least 10^4300 weights, over the cost budget of 100000\n"),
    (f"rigidity delpezzo:3 --weights=-{_HUGE}..0", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", f"error: weight window -{_HUGE}..0 has at least 10^4300 weights, over the cost budget of 100000\n"),
    # a one-weight window the budget admits, whose certificate would print
    # the plane twist -3(1 - m), of 4301 digits: refused before any step
    (f"rigidity delpezzo:8 --weights=-{_HUGE}..-{_HUGE}", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", f"error: the plane twist -3(1 - m) of the certificate step at m = -{_HUGE} has more than 4300 digits, over this interpreter's limit for printing an int (PYTHONINTMAXSTRDIGITS=0 lifts it)\n"),
    # the same one-weight window one digit shorter, whose twist fits
    (f"rigidity delpezzo:8 --weights=-{_HUGE[1:]}..-{_HUGE[1:]}", 0, "84e86bf3f0614d8206021364bb1682befa65b7049de669b07353818ebcae6527", ""),
    # at most 6 points no step prints more than |m| + 1
    (f"rigidity delpezzo:3 --weights=-{_HUGE}..-{_HUGE}", 0, "c00aa15c9ac247c44f8eb8aa371032be5c437081f5124ae55b58ddfd64e25e09", ""),
    # one integer not in plain decimal per input: a descriptor field, each
    # window bound, and each integer option (argparse's usage at 80 columns)
    ("t1 rnc:+4", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: bad variety descriptor 'rnc:+4': '+4' is not written as a plain decimal int, such as 4\n"),
    ("t1 rnc:4 --weights=+1..0_3", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: bad weight window '+1..0_3' (expected lo..hi): '+1' is not written as a plain decimal int, such as 4\n"),
    ("rigidity rnc:4 --weights=-3..0_3", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: bad weight window '-3..0_3' (expected lo..hi): '0_3' is not written as a plain decimal int, such as 4\n"),
    ("t1 rnc:4 --order \u0661", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "usage: conedef t1 [-h] [--trace] [--weights WEIGHTS] [--order {1,2}]\n                  [--format {json,csv}]\n                  variety\nconedef t1: error: argument --order: invalid decimal value: '\u0661'\n"),
    ("jacobian --d \u0664 --weight +0", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", f"{_JACOBIAN_USAGE}conedef jacobian: error: argument --d: invalid decimal value: '\u0664'\n"),
    ("jacobian --d 4 --weight +0", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", f"{_JACOBIAN_USAGE}conedef jacobian: error: argument --weight: invalid decimal value: '+0'\n"),
    ("cech --i -0 --k 3", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "usage: conedef cech [-h] [--trace] --i I --k K\nconedef cech: error: argument --i: invalid decimal value: '-0'\n"),
    ("cech --i 0 --k 04", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "usage: conedef cech [-h] [--trace] --i I --k K\nconedef cech: error: argument --k: invalid decimal value: '04'\n"),
    ("atiyah --n 4_0", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "usage: conedef atiyah [-h] [--trace] --n N\nconedef atiyah: error: argument --n: invalid decimal value: '4_0'\n"),
    # no number at all, and a plain decimal of 4301 digits, one more than this
    # interpreter reads, in a descriptor field, a window bound and an option
    ("t1 rnc:x", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: bad variety descriptor 'rnc:x': 'x' is not written as a plain decimal int, such as 4\n"),
    ("t1 rnc:4 --weights=..", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: bad weight window '..' (expected lo..hi): '' is not written as a plain decimal int, such as 4\n"),
    ("t1 rnc:4 --weights=1..y", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: bad weight window '1..y' (expected lo..hi): 'y' is not written as a plain decimal int, such as 4\n"),
    (f"jacobian --d {_HUGE}9 --weight 0", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", f"{_JACOBIAN_USAGE}conedef jacobian: error: argument --d: {_TOO_LONG.format(4300)}\n"),
    (f"t1 rnc:{_HUGE}9", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", f"error: bad variety descriptor 'rnc:{_HUGE}9': {_TOO_LONG.format(4300)}\n"),
    (f"t1 rnc:4 --weights=-{_HUGE}9..0", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", f"error: bad weight window '-{_HUGE}9..0' (expected lo..hi): {_TOO_LONG.format(4300)}\n"),
    # the program's help and each subcommand's (argparse wraps them at 80 columns)
    ("--help", 0, "b1efbdfa356e1e7e5dc96ecc75e73c6171539835be64464e8ed2f9fd8bf8500b", ""),
    ("t1 --help", 0, "8cd74b57cb5656ad3398596d5daee6d9e5be146072267076b56e5d58c3efe7a3", ""),
    ("rigidity --help", 0, "96f73b5db20471f00fa7e3f816d0c84bd999da8042996ad48fc67fc12efa6f8f", ""),
    ("jacobian --help", 0, "e6a692fd592f2e59582c24151ff8bf9d2a16b1e249c3e6256b81534c70636c7e", ""),
    ("cech --help", 0, "21985a94f8c551df38e37e4705b97373514cc835b90980c2971edb999bbd4dc2", ""),
    ("atiyah --help", 0, "4cac168089402ef4e23b1403df234b85161021ee3448b34e39d119e5400bd112", ""),
    # each option has the one spelling the help prints: a prefix of it is
    # refused, with a window that starts below zero or not, joined by "=" or not
    ("t1 rnc:4 --wei -3..1", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", f"{_USAGE}conedef: error: unrecognized arguments: --wei -3..1\n"),
    ("t1 rnc:4 --wei=-3..1", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", f"{_USAGE}conedef: error: unrecognized arguments: --wei=-3..1\n"),
    ("t1 rnc:4 --tr --weights=-2..-1", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", f"{_USAGE}conedef: error: unrecognized arguments: --tr\n"),
    ("jacobian --d 3 --w 0", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", f"{_JACOBIAN_USAGE}conedef jacobian: error: one of the arguments --weight --dump-matrix is required\n"),
    *_LARGEST_ADMITTED,
]


@pytest.mark.parametrize("argv,code,digest,err", GOLDEN, ids=[_row_id(row[0]) for row in GOLDEN])
def test_golden_output(capsys, monkeypatch, argv, code, digest, err):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage to the terminal's width
    got_code, out, got_err = run_cli(capsys, *argv.split())
    assert (got_code, got_err) == (code, err)
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out


def _limit_address_space():
    import resource  # POSIX only, like the CI runners

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def _run_bounded(argv: list[str]) -> subprocess.CompletedProcess:
    """One command in its own interpreter, with 1 GiB of address space and 30 s."""
    env = {**os.environ, "PYTHONPATH": str(Path(conedef.__file__).parent.parent)}
    return subprocess.run(
        [sys.executable, "-m", "conedef", *argv],
        capture_output=True, text=True, env=env, timeout=30, preexec_fn=_limit_address_space,
    )


_BUDGET_ROWS = [row for row in GOLDEN if row[1] == 2 and "budget of" in row[3]]


@pytest.mark.parametrize("argv,code,digest,err", _BUDGET_ROWS, ids=[_row_id(row[0]) for row in _BUDGET_ROWS])
def test_budget_refusals_in_a_bounded_process(argv, code, digest, err):
    """Each refusal again in a bounded process: a budget that stops
    refusing fails here fast instead of exhausting the host."""
    proc = _run_bounded(argv.split())
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", err)


@given(sample=st.lists(_requests(), min_size=20, max_size=20))
@seed(20261018)
@settings(max_examples=1, deadline=None, database=None, phases=[Phase.generate])
def test_grammar_fuzz_sample_in_a_bounded_process(sample):
    """A fixed sample of 20 requests of the grammar fuzz, each in its own
    interpreter under the refusal rows' limits, where running out of
    memory or time is a crash, not a clean exit.  The generate phase
    starts from the minimal draw, 20 copies of ``t1 rnc:1``; assume()
    rejects it, so the one example run is a random draw."""
    assume(len({tuple(argv) for argv in sample}) > 1)
    for argv in sample:
        proc = _run_bounded(argv)
        assert proc.returncode in (0, 2, 3), (argv, proc.stderr)
        if proc.returncode:
            assert proc.stdout == "" and proc.stderr.count("\n") == 1, (argv, proc.stderr)


@pytest.mark.parametrize(
    "argv,code,digest,err", _LARGEST_ADMITTED, ids=[_row_id(row[0]) for row in _LARGEST_ADMITTED]
)
def test_largest_admitted_requests_in_a_bounded_process(argv, code, digest, err):
    proc = _run_bounded(argv.split())
    assert (proc.returncode, proc.stderr) == (code, err)
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest
