"""The command line's option table against the argparse parser it
replaced (`tests/cli_oracle.py`), its help text and its start-up cost."""

import os
import pathlib
import subprocess
import sys

import pytest

from fibercurve import cli
from fibercurve.cli import main

import cli_oracle

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def oracle_args(argv):
    return vars(cli_oracle.build_parser().parse_args(argv))


def oracle_exit_code(argv, capsys):
    with pytest.raises(SystemExit) as info:
        cli_oracle.build_parser().parse_args(argv)
    capsys.readouterr()
    return info.value.code


# the shapes perfbench's request_argv sends, with and without --cache
SENT = (
    [["fiber", "--family", family, "--prime", "97", "--format", "json"]
     for family in cli.FAMILIES]
    + [["drinfeld", "--family", family, "--prime", "97", "--format", "json"]
       for family in ("ns", "ns+", "s", "s+")]
    + [[command, "--group", kind, "--prime", "97", "--format", "json"]
       for command in ("drinfeld", "orbits") for kind in ("a4", "s4", "a5")]
    + [["neron", "--family", family, "--prime", "97", "--format", "json"]
       for family in ("ns", "ns+", "s", "s+")]
)
# each subcommand with all its options, and the same in reverse order
FULL = [
    ["fiber", "--family", "s4", "--prime", "73", "--format", "dot", "--cache", "d"],
    ["drinfeld", "--family", "ns+", "--prime", "17", "--format", "text", "--cache", "d"],
    ["drinfeld", "--group", "a4", "--prime", "13", "--orbit-pair", "0,inf",
     "--format", "json", "--cache", "d"],
    ["orbits", "--group", "a5", "--prime", "61", "--format", "text", "--cache", "d"],
    ["neron", "--family", "s", "--prime", "11", "--format", "json", "--cache", "d"],
    ["verify", "--suite", "paper", "--primes", "5..40", "--jobs", "2"],
]


def reversed_options(argv):
    pairs = [argv[i:i + 2] for i in range(1, len(argv), 2)]
    return argv[:1] + [token for pair in reversed(pairs) for token in pair]


CORPUS = (
    SENT
    + [argv + ["--cache", "/tmp/cache dir"] for argv in SENT]
    + FULL
    + [reversed_options(argv) for argv in FULL]
    # --opt=value, the defaults, a repeated option, values that look odd
    + [["fiber", "--family=ns", "--prime=13"],
       ["drinfeld", "--group=a4", "--prime", "13", "--orbit-pair=-1,3"],
       ["orbits", "--group", "s4", "--prime", "73", "--cache="],
       ["neron", "--family", "ns", "--family", "s+", "--prime", "29", "--prime", "31"],
       ["neron", "--family", "ns", "--prime", "-5"],
       ["fiber", "--family", "ns", "--prime", " 0013 "],
       ["verify", "--suite", "paper", "--primes", "5..8"],
       ["verify", "--primes", "x", "--suite=paper", "--jobs=-3"]]
)


@pytest.mark.parametrize("argv", CORPUS, ids=[" ".join(argv) for argv in CORPUS])
def test_parse_gives_argparse_namespace(argv):
    assert cli.parse_args(argv) == oracle_args(argv)


REJECTED = {
    "no subcommand": [],
    "unknown subcommand": ["atlas", "--family", "ns", "--prime", "13"],
    "option before the subcommand": ["--prime", "13", "fiber", "--family", "ns"],
    "unknown option": ["fiber", "--family", "ns", "--prime", "13", "--group", "a4"],
    "stray argument": ["fiber", "--family", "ns", "--prime", "13", "json"],
    "missing value": ["fiber", "--family", "ns", "--prime"],
    "missing value of =": ["orbits", "--group", "a4", "--prime="],
    "missing required option": ["neron", "--prime", "13"],
    "missing prime": ["orbits", "--group", "a4"],
    "missing suite": ["verify", "--primes", "5..40"],
    "bad choice": ["neron", "--family", "a4", "--prime", "13"],
    "bad format": ["orbits", "--group", "a4", "--prime", "13", "--format", "dot"],
    "non-integer prime": ["fiber", "--family", "ns", "--prime", "13.0"],
    "non-integer jobs": ["verify", "--suite", "paper", "--primes", "5..40", "--jobs", "two"],
    "family with group": ["drinfeld", "--family", "ns", "--group", "a4", "--prime", "13"],
    "neither family nor group": ["drinfeld", "--prime", "13"],
}


@pytest.mark.parametrize("argv", list(REJECTED.values()), ids=list(REJECTED))
def test_both_parsers_reject_with_code_2(capsys, argv):
    assert oracle_exit_code(argv, capsys) == 2
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_option_prefixes_are_rejected(capsys):
    # argparse took an unambiguous prefix; the table takes full names only
    argv = ["fiber", "--fam", "ns", "--pr", "13"]
    assert oracle_args(argv)["family"] == "ns"
    code, _, err = run_cli(capsys, *argv)
    assert code == 2 and err == "error: fiber: unrecognized argument '--fam'\n"


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["fiber", "--help"],
                                  ["drinfeld", "--group", "a4", "-h"]])
def test_help_prints_usage_and_exits_0(capsys, argv):
    assert run_cli(capsys, *argv) == (0, cli.USAGE, "")


def test_readme_cli_block_is_the_usage_text():
    assert cli.USAGE in README.read_text()
    assert len(cli.USAGE.splitlines()) == 6


def test_import_leaves_argparse_unloaded():
    script = "import sys, fibercurve.cli; print('argparse' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout == "False\n"


@pytest.fixture
def int_digit_limit():
    """Python's default int-string limit, set for the test and restored."""
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this Python has no int-string limit")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(limit)


def test_neron_request_restores_the_int_string_limit(capsys, int_digit_limit):
    # the order of s at 6287 has more than 4300 digits
    code, out, err = run_cli(capsys, "neron", "--family", "s", "--prime", "6287",
                             "--format", "json")
    assert (code, err) == (0, "") and len(out) > 4300
    assert sys.get_int_max_str_digits() == int_digit_limit


@pytest.mark.parametrize("after_a_long_order", [False, True], ids=["fresh", "after"])
def test_prime_past_the_int_string_limit_exits_2_without_its_digits(capsys, int_digit_limit,
                                                                    after_a_long_order):
    if after_a_long_order:
        assert run_cli(capsys, "neron", "--family", "s", "--prime", "6287")[0] == 0
    digits = "7" * 5000
    code, out, err = run_cli(capsys, "fiber", "--family", "ns", "--prime", digits)
    assert (code, out) == (2, "")
    assert err == "error: --prime has more than %d digits\n" % int_digit_limit


@pytest.mark.parametrize("primes", ["100..5", "1..4"])
def test_verify_range_without_a_prime_exits_2(capsys, primes):
    code, out, err = run_cli(capsys, "verify", "--suite", "paper", "--primes", primes)
    assert (code, out) == (2, "")
    assert err == "error: --primes %s holds no prime > 3\n" % primes
