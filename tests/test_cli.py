import dataclasses
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import weakref

import pytest

import fibercurve
from fibercurve import cli, exceptional, neron
from fibercurve.cli import main
from fibercurve.ffield import is_prime


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_drinfeld_group_text_worked_example(capsys):
    code, out, _ = run_cli(capsys, "drinfeld", "--group", "a4", "--prime", "13",
                           "--format", "text")
    assert code == 0
    assert out == "u^7 = t^5 (t-1)^5\n"


def test_drinfeld_orbit_pair_override(capsys):
    code, out, _ = run_cli(capsys, "drinfeld", "--group", "a4", "--prime", "13",
                           "--orbit-pair", "0,1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["N"] == 7
    # a different pair moves the branch values but keeps the genus
    assert payload["genus"] == 3


def test_parse_point_reads_infinity_and_reduces_residues():
    for token in ("inf", "oo", "infinity"):
        assert cli._parse_point(13, token) == 13
    assert cli._parse_point(13, "13") == 0
    assert cli._parse_point(13, "15") == 2
    assert cli._parse_point(13, "-1") == 12
    assert cli._parse_point(13, "12") == 12


def test_drinfeld_orbit_pair_reduces_mod_p(capsys):
    outputs = []
    for pair in ("13,1", "0,1"):
        code, out, err = run_cli(capsys, "drinfeld", "--group", "a4", "--prime", "13",
                                 "--orbit-pair", pair, "--format", "json")
        assert code == 0 and err == ""
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_parser_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_drinfeld_family_closed_forms(capsys):
    code, out, _ = run_cli(capsys, "drinfeld", "--family", "ns+", "--prime", "17",
                           "--format", "text")
    assert code == 0
    assert "e=1: Y^2 = X(X^9 + 1)" in out
    assert "e=3: Y^2 = X(X^3 + 1)" in out


def test_fiber_json_nsplus_13(capsys):
    code, out, _ = run_cli(capsys, "fiber", "--family", "ns+", "--prime", "13",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["toric_rank"] == 0
    assert len(payload["horizontal"]) == 1
    assert payload["horizontal"][0]["genus"] == 3
    assert payload["total_genus"] == 3


def test_fiber_dot(capsys):
    code, out, _ = run_cli(capsys, "fiber", "--family", "ns", "--prime", "13",
                           "--format", "dot")
    assert code == 0
    assert out.startswith("graph fiber {")
    assert '[label="2"]' in out


def test_orbits_text(capsys):
    code, out, _ = run_cli(capsys, "orbits", "--group", "a4", "--prime", "13")
    assert code == 0
    assert "N_p = 3" in out
    assert "{0, 9, 10, oo}" in out


def test_neron_text(capsys):
    code, out, _ = run_cli(capsys, "neron", "--family", "ns+", "--prime", "29")
    assert code == 0
    assert "Z/8 x Z/56" in out
    assert "[match]" in out


def test_neron_json_sorted_invariants(capsys):
    code, out, _ = run_cli(capsys, "neron", "--family", "ns+", "--prime", "41",
                           "--format", "json")
    payload = json.loads(out)
    assert payload["invariants"] == sorted(payload["invariants"]) == [8, 8, 80]


def test_usage_errors_exit_2(capsys):
    code, _, err = run_cli(capsys, "fiber", "--family", "ns", "--prime", "15")
    assert code == 2 and "prime" in err
    code, _, err = run_cli(capsys, "drinfeld", "--group", "s4", "--prime", "13")
    assert code == 2 and "mod 8" in err
    code, _, err = run_cli(capsys, "verify", "--suite", "paper", "--primes", "510")
    assert code == 2


def test_benchmark_style_invalid_requests_exit_2(capsys):
    # the request shapes the benchmark sends to the primality and
    # congruence gates, and the orbit-pair arguments that name no pair
    requests = []
    for family in ("ns", "ns+", "s", "s+"):
        requests += [("neron", "--family", family, n) for n in (1, 9, 91, 221, 323)]
        requests += [("drinfeld", "--family", family, n) for n in (25, 49, 77, 143, 1001)]
    requests += [("orbits", "--group", "a5", p) for p in range(7, 500)
                 if is_prime(p) and p % 5 in (2, 3)]
    requests += [("fiber", "--family", "s4", p) for p in range(5, 500)
                 if is_prime(p) and p % 8 in (3, 5)]
    requests += [("drinfeld", "--group", "a4", 5), ("drinfeld", "--group", "a5", 59)]
    for cmd, flag, sel, n in requests:
        code, out, err = run_cli(capsys, cmd, flag, sel, "--prime", str(n), "--format", "json")
        assert (code, out) == (2, ""), (cmd, sel, n)
        assert err.startswith("error: ") and err.count("\n") == 1
    for sel, pair in ((("--group", "a4"), "1,1"), (("--group", "a4"), "x,1"),
                      (("--group", "a4"), ""),
                      (("--family", "ns"), "foo,bar"), (("--family", "ns"), "0,1")):
        code, out, _ = run_cli(capsys, "drinfeld", *sel, "--prime", "13",
                               "--orbit-pair", pair)
        assert (code, out) == (2, ""), (sel, pair)


@pytest.mark.parametrize("error", [ValueError("internal"), neron.GraphError("internal"),
                                   fibercurve.ffield.FieldError("internal")])
def test_internal_value_error_exits_4(capsys, monkeypatch, error):
    def raising(*args):
        raise error

    monkeypatch.setattr(cli.atlas, "special_fiber", raising)
    code, out, err = run_cli(capsys, "fiber", "--family", "ns", "--prime", "13")
    assert (code, out, err) == (4, "", "error: internal\n")


PRIME_BOUND_MESSAGE = "p = 1048583 is not below the accepted bound 2^20 = 1048576"


@pytest.mark.parametrize("argv,message", [
    (("fiber", "--family", "ns+", "--prime", "1048583"), PRIME_BOUND_MESSAGE),
    (("drinfeld", "--family", "ns", "--prime", "1048583"), PRIME_BOUND_MESSAGE),
    (("drinfeld", "--group", "a4", "--prime", "1048583"), PRIME_BOUND_MESSAGE),
    (("orbits", "--group", "s4", "--prime", "1048583"), PRIME_BOUND_MESSAGE),
    (("neron", "--family", "s", "--prime", "1048583"), PRIME_BOUND_MESSAGE),
    (("verify", "--suite", "paper", "--primes", "1048573..1048584"),
     "--primes HI = 1048584 is above the accepted bound 2^20 = 1048576"),
], ids=["fiber", "drinfeld-family", "drinfeld-group", "orbits", "neron", "verify"])
def test_prime_at_or_above_2_to_the_20_exits_2(capsys, argv, message):
    # 1048583 is the first prime above 2^20 = MAX_CHAR
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: %s\n" % message


def count_primality_tests(monkeypatch):
    calls = []
    real = cli.is_prime
    monkeypatch.setattr(cli, "is_prime", lambda n: calls.append(n) or real(n))
    return calls


def test_prime_past_the_bound_is_rejected_before_a_primality_test(monkeypatch):
    calls = count_primality_tests(monkeypatch)
    with pytest.raises(exceptional.UsageError, match="not below the accepted bound"):
        cli._require_prime(10 ** 3000 + 7)
    # a composite past the bound gets the bound message too
    with pytest.raises(exceptional.UsageError, match="not below the accepted bound"):
        cli._require_prime(1048577)
    assert calls == []


@pytest.mark.parametrize("primes", ["5..1048600",
                                    "%d..%d" % (10 ** 3000, 10 ** 3000 + 100)],
                         ids=["past-the-bound", "huge-lo"])
def test_verify_range_past_the_bound_tests_no_number(capsys, monkeypatch, primes):
    calls = count_primality_tests(monkeypatch)
    code, out, err = run_cli(capsys, "verify", "--suite", "paper", "--primes", primes)
    assert (code, out) == (2, "") and "is above the accepted bound 2^20" in err
    assert calls == []


def test_largest_prime_below_2_to_the_20_is_accepted(capsys):
    assert cli._require_prime(1048573) == 1048573
    code, out, _ = run_cli(capsys, "drinfeld", "--family", "ns", "--prime", "1048573")
    assert code == 0 and out.startswith("e=1: U^2 = V^1048574 + 1")


# the rule with its first orbit dropped, or with a4's O2 added where
# 4 does not divide p - 1
def drop_an_orbit(real):
    return lambda kind, p: real(kind, p)[1:]


def add_o2(real):
    return lambda kind, p: [("O2", 6, 2)] + real(kind, p)


ADDED_O2_MESSAGE = ("orbit table: exceptional orbits (size, isotropy) [(4, 3), (4, 3)] "
                    "computed, the rule 2h | p - 1 gives [(6, 2), (4, 3), (4, 3)] "
                    "(kind a4, p = %d)")


def patch_rule(monkeypatch, mutation):
    monkeypatch.setattr(exceptional, "rational_orbits", mutation(exceptional.rational_orbits))


def test_wrong_orbit_table_fails_its_battery_row(monkeypatch):
    patch_rule(monkeypatch, drop_an_orbit)
    # 37 has only a4, and no worked equation that would rebuild its table
    rows = [r for r in cli.checks_for_prime(37) if r[0].startswith("orbit-table")]
    assert rows == [("orbit-table-a4", 37, False, "orbit table: 5 orbits computed, "
                     "the closed form gives 4 (kind a4, p = 37)")]


def test_wrong_orbit_table_fails_the_worked_equation_row(monkeypatch):
    # at 13 the worked equation reads the a4 table of the orbit-table row
    patch_rule(monkeypatch, drop_an_orbit)
    rows = {r[0]: r[2:] for r in cli.checks_for_prime(13)}
    message = "orbit table: 3 orbits computed, the closed form gives 2 (kind a4, p = 13)"
    assert rows["orbit-table-a4"] == rows["worked-equation-a4"] == (False, message)


def test_rule_with_an_absent_orbit_fails_the_orbit_table_and_worked_equation_rows(
        monkeypatch):
    # at 43 and 103 = 7 mod 12 the orbit count still matches, so the
    # profile check fails; 43 has only a4, and 103 a worked a4 equation
    patch_rule(monkeypatch, add_o2)
    rows = [r for r in cli.checks_for_prime(43) if r[0].startswith("orbit-table")]
    assert rows == [("orbit-table-a4", 43, False, ADDED_O2_MESSAGE % 43)]
    rows = {r[0]: r[2:] for r in cli.checks_for_prime(103)}
    assert (rows["orbit-table-a4"] == rows["worked-equation-a4"]
            == (False, ADDED_O2_MESSAGE % 103))


def test_argparse_usage_exit_2(capsys):
    code, out, err = run_cli(capsys, "fiber", "--family", "bogus", "--prime", "13")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cache_stale_fingerprint_recomputed(tmp_path, capsys):
    args = ["neron", "--family", "ns+", "--prime", "17", "--format", "json",
            "--cache", str(tmp_path)]
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    path = next(tmp_path.iterdir())
    good = path.read_bytes()
    head, key, _, _ = good.split(b"\n", 3)
    assert head == b"fibercurve 3 " + cli.source_digest().encode()

    def tampered(digest):
        return b"fibercurve 3 %s\n%s\n8\ntampered" % (digest, key)

    path.write_bytes(tampered(cli.source_digest().encode()))
    assert run_cli(capsys, *args)[1] == "tampered\n"  # a hit prints the body as it is
    path.write_bytes(tampered(b"0" * 64))
    code, out2, _ = run_cli(capsys, *args)
    assert code == 0 and out2 == out  # recomputed, not reinterpreted
    assert path.read_bytes() == good


CACHED_REQUESTS = {
    "fiber": ("fiber", "--family", "ns+", "--prime", "17"),
    "drinfeld": ("drinfeld", "--group", "a4", "--prime", "13"),
    "orbits": ("orbits", "--group", "a4", "--prime", "13"),
    "neron": ("neron", "--family", "ns+", "--prime", "29"),
}


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("command", sorted(CACHED_REQUESTS))
def test_cache_hit_prints_the_cold_bytes_and_computes_nothing(tmp_path, capsys, monkeypatch,
                                                               command, fmt):
    argv = CACHED_REQUESTS[command] + ("--format", fmt)
    _, uncached, _ = run_cli(capsys, *argv)
    calls = []
    for name in ("%s_payload" % command, "%s_text" % command, "_emit_json"):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name,
                            lambda *a, real=real, name=name: calls.append(name) or real(*a))
    argv += ("--cache", str(tmp_path))
    code, cold, _ = run_cli(capsys, *argv)
    assert code == 0 and len(list(tmp_path.iterdir())) == 1
    cold_calls = list(calls)
    # a hit decodes no JSON and takes one digest, the entry's file name
    digests = []
    real_sha256 = hashlib.sha256
    monkeypatch.setattr(hashlib, "sha256", lambda *a: digests.append(a) or real_sha256(*a))
    for name in ("load", "loads"):
        monkeypatch.setattr(json, name, lambda *a, **k: pytest.fail("a hit decoded JSON"))
    code, warm, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert cold == warm == uncached
    assert "%s_payload" % command in cold_calls and calls == cold_calls  # the hit calls none
    assert len(digests) == 1


def schema_2_entry(good, body):
    return json.dumps({"fingerprint": "0" * 64, "output": body.decode(), "schema_version": 2},
                      sort_keys=True).encode()


# the bytes of a bad entry, from the good entry and its body
MALFORMED_ENTRIES = {
    "empty": lambda good, body: b"",
    "header-only": lambda good, body: good[:-len(body)],
    "schema-2-json": schema_2_entry,
    "schema-2-header": lambda good, body: b"fibercurve 2" + good[len(b"fibercurve 3"):],
    "body-short": lambda good, body: good[:-1],
    "body-long": lambda good, body: good + b"\n",
    "body-not-utf8": lambda good, body: good[:-len(body)] + b"\xff" * len(body),
}


@pytest.mark.parametrize("entry", sorted(MALFORMED_ENTRIES))
def test_malformed_cache_entry_recomputed_and_overwritten(tmp_path, capsys, entry):
    args = ["fiber", "--family", "ns", "--prime", "13", "--format", "json",
            "--cache", str(tmp_path)]
    _, out, _ = run_cli(capsys, *args)
    (path,) = tmp_path.iterdir()
    good = path.read_bytes()
    body = out[:-1].encode()  # print's newline is not stored
    assert good.endswith(b"\n%d\n%s" % (len(body), body))
    path.write_bytes(MALFORMED_ENTRIES[entry](good, body))
    code, again, err = run_cli(capsys, *args)
    assert (code, again, err) == (0, out, "")
    assert path.read_bytes() == good


def test_entry_of_other_arguments_under_the_name_recomputed(tmp_path, capsys):
    # the name carries 48 bits of the arguments' digest; an entry of other
    # arguments found under it, as a collision would leave it, is not printed
    argv = ("orbits", "--group", "a4", "--prime", "13", "--cache", str(tmp_path))
    _, text, _ = run_cli(capsys, *argv, "--format", "text")
    (path,) = tmp_path.iterdir()
    good = path.read_bytes()
    _, as_json, _ = run_cli(capsys, *argv, "--format", "json")
    (other,) = set(tmp_path.iterdir()) - {path}
    assert as_json != text
    path.write_bytes(other.read_bytes())
    code, out, err = run_cli(capsys, *argv, "--format", "text")
    assert (code, out, err) == (0, text, "")
    assert path.read_bytes() == good


def counting(monkeypatch, name):
    """Calls of cli.name, recorded as they happen."""
    calls = []
    real = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda *a: calls.append(a) or real(*a))
    return calls


def test_cache_entry_of_one_format_never_printed_for_the_other(tmp_path, capsys,
                                                               monkeypatch):
    argv = ("orbits", "--group", "a4", "--prime", "13")
    expected = {fmt: run_cli(capsys, *argv, "--format", fmt)[1] for fmt in ("json", "text")}
    assert expected["json"] != expected["text"]
    computed = counting(monkeypatch, "orbits_payload")
    # each format has its own file, so only the first request of each computes
    for fmt in ("json", "text", "json", "text", "text"):
        code, out, _ = run_cli(capsys, *argv, "--format", fmt, "--cache", str(tmp_path))
        assert (code, out) == (0, expected[fmt])
    assert len(computed) == 2 and len(list(tmp_path.iterdir())) == 2


def test_each_orbit_pair_has_its_own_cache_entry(tmp_path, capsys, monkeypatch):
    argv = ("drinfeld", "--group", "a4", "--prime", "13", "--format", "json")
    expected = {pair: run_cli(capsys, *argv, "--orbit-pair", pair)[1]
                for pair in ("0,1", "1,3")}
    assert expected["0,1"] != expected["1,3"]
    computed = counting(monkeypatch, "drinfeld_payload")
    for pair in ("0,1", "1,3", "0,1", "1,3"):
        code, out, _ = run_cli(capsys, *argv, "--orbit-pair", pair, "--cache", str(tmp_path))
        assert (code, out) == (0, expected[pair])
    assert [call[3] for call in computed] == [(0, 1), (1, 3)]  # repeats hit
    assert len(list(tmp_path.iterdir())) == 2


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FIBERCURVE_CACHE", str(tmp_path))
    code, _, _ = run_cli(capsys, "orbits", "--group", "a4", "--prime", "13",
                         "--format", "json")
    assert code == 0
    assert any(f.name.startswith("orbits_a4_13") for f in tmp_path.iterdir())


@pytest.mark.parametrize("through_env", [False, True], ids=["option", "env"])
def test_unusable_cache_warns_and_prints_the_answer(tmp_path, capsys, monkeypatch,
                                                     through_env):
    argv = ["fiber", "--family", "ns", "--prime", "13"]
    _, expected, _ = run_cli(capsys, *argv)
    (tmp_path / "F").write_text("")
    cache = str(tmp_path / "F" / "sub")
    if through_env:
        monkeypatch.setenv("FIBERCURVE_CACHE", cache)
    else:
        argv += ["--cache", cache]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and out == expected
    assert err.startswith("warning: ") and len(err.splitlines()) == 1


def test_failed_cache_write_removes_its_temp_file(tmp_path, capsys):
    argv = ("fiber", "--family", "ns", "--prime", "13", "--cache", str(tmp_path))
    run_cli(capsys, *argv)
    (entry,) = tmp_path.iterdir()
    assert entry.name.startswith("fiber_ns_13_")
    # a directory where the entry goes makes the final rename fail
    entry.unlink()
    entry.mkdir()
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and out.startswith("special fiber: family ns, p = 13")
    assert err.startswith("warning: ") and len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == [entry] and entry.is_dir()


def test_verify_small_range_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "paper", "--primes", "5..15")
    assert code == 0
    assert "failures: 0" in out
    assert "toric-rank-ns" in out


def test_verify_rejects_malformed_range(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "paper",
                           "--primes", "a..b")
    assert code == 2


def test_verify_jobs_clamped_to_primes_and_cores(capsys, monkeypatch):
    import concurrent.futures

    created = []

    class RecordingPool:
        """Records max_workers and maps in-process."""

        def __init__(self, max_workers):
            created.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    code, _, _ = run_cli(capsys, "verify", "--suite", "paper", "--primes", "5..8",
                         "--jobs", "1000")
    assert code == 0 and created == [2]  # two primes, 5 and 7
    code, _, _ = run_cli(capsys, "verify", "--suite", "paper", "--primes", "5..6",
                         "--jobs", "1000")
    assert code == 0 and created == [2]  # one prime runs in-process
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    code, _, _ = run_cli(capsys, "verify", "--suite", "paper", "--primes", "5..20",
                         "--jobs", "1000")
    assert code == 0 and created == [2, 3]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    code, _, _ = run_cli(capsys, "verify", "--suite", "paper", "--primes", "5..20",
                         "--jobs", "1000")
    assert code == 0 and created == [2, 3]  # unknown core count: in-process


def test_battery_builds_each_family_once_per_prime(monkeypatch):
    # at p = 53 the reports of ns and s, and of ns+ and s+, share a
    # quotient label
    calls = []
    real = cli.atlas.total_genus

    def counting(family, p):
        calls.append((family, p))
        return real(family, p)

    monkeypatch.setattr(cli.atlas, "total_genus", counting)
    results = cli.checks_for_prime(53)
    assert sorted(calls) == [(f, 53) for f in ("ns", "ns+", "s", "s+")]
    assert [r[2] for r in results if r[0].startswith("consistency-")] == [True] * 4


@pytest.mark.parametrize("kind, p", [("a4", 13), ("s4", 73)])
def test_exceptional_fiber_builds_its_group_once(capsys, monkeypatch, kind, p):
    calls = []
    real = exceptional.build_exceptional

    def counting(*args):
        calls.append(args)
        return real(*args)

    for module in (exceptional, cli.atlas):
        monkeypatch.setattr(module, "build_exceptional", counting)
    for fmt in ("json", "text"):
        code, _, _ = run_cli(capsys, "fiber", "--family", kind, "--prime", str(p),
                             "--format", fmt)
        assert code == 0
    assert calls == [(kind, p)] * 2


def test_battery_builds_each_cartan_fiber_once_per_prime(monkeypatch):
    # the toric-rank rows reuse the fibers the consistency reports build,
    # and the ns+ prediction builds none: it reads the e list and widths
    calls = []
    real = cli.atlas._cartan_fiber

    def counting(family, p):
        calls.append((family, p))
        return real(family, p)

    monkeypatch.setattr(cli.atlas, "_cartan_fiber", counting)
    results = cli.checks_for_prime(1999)
    assert sorted(calls) == [(f, 1999) for f in ("ns", "ns+", "s", "s+")]
    names = {r[0]: r[2] for r in results}
    assert all(names["toric-rank-%s" % f] for f in ("ns", "ns+", "s", "s+"))
    assert names["neron-prediction"]


@pytest.mark.parametrize("p,kept", [(73, ["s4"]), (97, [])])
def test_battery_keeps_only_the_worked_equations_orbit_table(monkeypatch, p, kept):
    # 73 and 97 build the a4 and s4 tables, and 73 has s4's worked
    # equation; while the Cartan reports are built only that table lives
    alive, seen = {}, []
    real_table, real_report = cli.orbit_table, cli.atlas.consistency_report

    def tracked(kind, q):
        table = real_table(kind, q)
        alive[kind] = weakref.ref(table)
        return table

    def report(family, q):
        seen.append(sorted(kind for kind, ref in alive.items() if ref() is not None))
        return real_report(family, q)

    monkeypatch.setattr(cli, "orbit_table", tracked)
    monkeypatch.setattr(cli.atlas, "consistency_report", report)
    results = cli.checks_for_prime(p)
    assert sorted(alive) == ["a4", "s4"] and seen == [kept] * 4
    assert all(ok for _, _, ok, _ in results)


def test_battery_checks_supersingular_data_with_the_walk_once_per_prime(monkeypatch):
    walked, old = [], []
    real = cli.atlas.isogeny_supersingular_data

    def counting(p):
        walked.append(p)
        return real(p)

    monkeypatch.setattr(cli.atlas, "isogeny_supersingular_data", counting)
    for name in ("brute_supersingular_data", "hasse_supersingular_data"):
        monkeypatch.setattr(cli.atlas, name, lambda p, name=name: old.append((name, p)))
    primes = [p for p in range(5, cli.SS_ORACLE_MAX_P + 12) if is_prime(p)]
    for p in primes:
        rows = [r for r in cli.checks_for_prime(p) if r[0] == "supersingular-oracle"]
        assert rows == ([("supersingular-oracle", p, True, "")]
                        if p < cli.SS_ORACLE_MAX_P else []), p
    assert cli.SS_ORACLE_MAX_P == 100
    assert walked == [p for p in primes if p < 100]
    assert old == []


def test_wrong_walk_fails_the_supersingular_row(monkeypatch, capsys):
    real = cli.atlas.isogeny_supersingular_data

    def wrong(p):
        data = real(p)
        return dataclasses.replace(data, s=data.s + 1)

    monkeypatch.setattr(cli.atlas, "isogeny_supersingular_data", wrong)
    rows = [r for r in cli.checks_for_prime(23) if r[0] == "supersingular-oracle"]
    assert rows == [("supersingular-oracle", 23, False, "")]
    code, out, _ = run_cli(capsys, "verify", "--suite", "paper", "--primes", "23..24")
    assert code == 1
    assert "FAILURE supersingular-oracle at p=23" in out
    assert "failures: 1" in out


@pytest.fixture
def restore_int_digit_limit():
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    yield
    if limit is not None:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("family,p", [("s", 6287), ("s+", 10501)])
def test_neron_orders_past_4300_digits_render(family, p, tmp_path, capsys, monkeypatch,
                                              restore_int_digit_limit):
    # the first prime of each family whose group order has more than
    # 4300 digits, Python's default limit for int-to-str conversion
    argv = ("neron", "--family", family, "--prime", str(p), "--format", "json")
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    # and a cold and a warm cached run print the same bytes
    computed = counting(monkeypatch, "neron_payload")
    for _ in range(2):
        assert run_cli(capsys, *argv, "--cache", str(tmp_path)) == (0, out, "")
    assert len(computed) == 1
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # for the test's own parsing
    order = json.loads(out)["order"]
    es = cli.atlas.supersingular_data(p).e_values()
    ws = [v.width for v in cli.atlas.cartan_verticals(family, p)]
    assert order == neron.spanning_tree_count(es, ws)
    assert len(str(order)) > 4300
    code, out, err = run_cli(capsys, "neron", "--family", family, "--prime", str(p),
                             "--format", "text")
    assert (code, err) == (0, "")
    assert str(order) in out


def indented_json(payload):
    """The reference rendering the json writer must reproduce byte for byte."""
    return json.dumps(payload, indent=2, sort_keys=True)


def exceptional_fiber_payload():
    payload = cli.fiber_payload("a4", 13)
    # the shape only an exceptional kind has: no genus, no toric rank, no edge
    assert payload["toric_rank"] is None and payload["edges"] == []
    assert payload["vertical"][0]["genus"] is None
    return payload


def big_neron_payload():
    payload = cli.neron_payload("s", 6287)
    assert len(str(payload["order"])) > 4300
    return payload


def with_int_order(payload):
    """The payload json.dumps can spell: a Neron order's Decimal as its int."""
    if isinstance(payload, dict) and "order" in payload:
        return {**payload, "order": int(payload["order"])}
    return payload


@pytest.mark.parametrize("build", [
    lambda: cli.fiber_payload("ns+", 13),
    exceptional_fiber_payload,
    lambda: cli.drinfeld_payload("s", None, 29, None),
    lambda: cli.drinfeld_payload(None, "a5", 241, None),
    lambda: cli.orbits_payload("s4", 241),
    lambda: cli.neron_payload("ns+", 101),
    big_neron_payload,
    lambda: {},
    lambda: [],
    lambda: {"b": {}, "a": [], "c": [[], [{}], {"x": [[]]}]},
    lambda: {"z": [1, [2, [3, {"y": None}]]], "a": True, "m": False, "n": -0},
    lambda: [True, False, None, 0, -7, 10 ** 40, "", (1, "a tuple")],
    lambda: {"caf\u00e9": "\u2013 \U0001d11e \u00ff", "\x01": "tab\tnew\nnul\x00\x1f\"\\/",
             "": "\x7f\u2028"},
], ids=["fiber-cartan", "fiber-exceptional", "drinfeld-family", "drinfeld-group", "orbits",
        "neron", "neron-past-4300-digits", "empty-dict", "empty-list", "nested-empties", "nesting",
        "scalars", "strings"])
def test_json_writer_is_json_dumps_byte_for_byte(build, restore_int_digit_limit):
    payload = build()
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # for json.dumps of an order past 4300 digits
    assert cli._emit_json(payload) == indented_json(with_int_order(payload))


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int-string limit in this Python")
def test_json_writer_renders_an_order_past_the_int_string_limit(restore_int_digit_limit):
    # the writer spells the order's Decimal with str(), which the limit
    # does not bind; json.dumps of the same order as an int meets it
    payload = big_neron_payload()
    sys.set_int_max_str_digits(0)
    expected = indented_json(with_int_order(payload))
    sys.set_int_max_str_digits(4300)
    assert cli._emit_json(payload) == expected
    with pytest.raises(ValueError, match="4300"):
        indented_json(with_int_order(payload))


@pytest.mark.parametrize("payload", [
    object(), 1.5, {"a": {1, 2}}, [b"bytes"], {1: "an int key"},
], ids=["object", "float", "set", "bytes", "int-key"])
def test_json_writer_rejects_what_it_does_not_spell(payload):
    with pytest.raises(TypeError):
        cli._emit_json(payload)


def test_battery_runs_the_consistency_identities_above_200():
    rows = [(r[0], r[2]) for r in cli.checks_for_prime(211)
            if r[0].startswith("consistency-")]
    assert rows == [("consistency-%s" % f, True) for f in ("ns", "ns+", "s", "s+")]


def test_verify_jobs_leave_the_output_unchanged(capsys, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # so the pool really runs
    argv = ("verify", "--suite", "paper", "--primes", "5..32")
    code1, out1, _ = run_cli(capsys, *argv, "--jobs", "1")
    code2, out2, _ = run_cli(capsys, *argv, "--jobs", "2")
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize("family,prime", [("s", "41"), ("s+", "59")])
def test_neron_largest_seed_laplacians(capsys, family, prime):
    code, out, _ = run_cli(capsys, "neron", "--family", family, "--prime", prime,
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == math.prod(payload["invariants"]) > 1


def test_cache_entry_of_other_code_recomputed(tmp_path, capsys, monkeypatch):
    calls = []
    real = cli.fiber_payload

    def counting(family, p):
        calls.append((family, p))
        return real(family, p)

    monkeypatch.setattr(cli, "fiber_payload", counting)
    args = ["fiber", "--family", "ns", "--prime", "13", "--format", "json",
            "--cache", str(tmp_path)]
    _, out, _ = run_cli(capsys, *args)
    _, again, _ = run_cli(capsys, *args)
    assert len(calls) == 1 and again == out
    monkeypatch.setattr(cli, "source_digest", lambda: "other code")
    _, recomputed, _ = run_cli(capsys, *args)
    assert len(calls) == 2 and recomputed == out


def test_uncached_run_never_loads_hashlib():
    # only a cache takes a digest; a run without one skips the import
    script = ("import sys\n"
              "before = 'hashlib' in sys.modules\n"
              "from fibercurve import cli\n"
              "imported = 'hashlib' in sys.modules\n"
              "cli.main(['orbits', '--group', 'a4', '--prime', '13'])\n"
              "print(before, imported, 'hashlib' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], env=package_env(),
                          capture_output=True, text=True, check=True)
    before, imported, ran = proc.stdout.split()[-3:]
    assert before == "True" or imported == ran == "False"


def test_uncached_request_skips_source_digest(capsys, monkeypatch):
    monkeypatch.delenv("FIBERCURVE_CACHE", raising=False)
    monkeypatch.setattr(cli, "source_digest",
                        lambda: pytest.fail("source digest taken without a cache"))
    code, _, _ = run_cli(capsys, "orbits", "--group", "a4", "--prime", "13")
    assert code == 0


def test_source_digest_tracks_a_payload_builder(tmp_path, monkeypatch):
    same, edited = tmp_path / "same", tmp_path / "edited"
    for copy in (same, edited):
        shutil.copytree(cli.PACKAGE_DIR, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
    source = (edited / "cli.py").read_text()
    changed = source.replace('"order": invariants.order,',
                             '"order": invariants.order + 0,')
    assert changed != source
    (edited / "cli.py").write_text(changed)
    digest = cli.source_digest()
    uncached = cli.source_digest.__wrapped__
    monkeypatch.setattr(cli, "PACKAGE_DIR", str(same))
    assert uncached() == digest
    monkeypatch.setattr(cli, "PACKAGE_DIR", str(edited))
    assert uncached() != digest


# `neron --family ns+ --format json` output
NSPLUS_NERON = {
    13: {"family": "ns+", "group": "trivial", "invariants": [], "order": 1,
         "p": 13, "verdict": "vacuous-trivial"},
    101: {"family": "ns+", "group": "Z/8 x " * 7 + "Z/200",
          "invariants": [8] * 7 + [200], "order": 419430400, "p": 101,
          "verdict": "match"},
    401: {"family": "ns+", "group": "Z/8 x " * 32 + "Z/800",
          "invariants": [8] * 32 + [800],
          "order": 63382530011411470074835160268800, "p": 401,
          "verdict": "match"},
}


def count_group_calls(monkeypatch):
    """Record the calls to the component group and its tree count by name."""
    calls = []
    for name in ("component_group", "spanning_tree_count"):
        real = getattr(neron, name)

        def counting(*args, name=name, real=real):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(neron, name, counting)
    return calls


@pytest.mark.parametrize("p", sorted(NSPLUS_NERON))
def test_neron_nsplus_computes_the_group_once(capsys, monkeypatch, p):
    calls = count_group_calls(monkeypatch)
    code, out, _ = run_cli(capsys, "neron", "--family", "ns+", "--prime", str(p),
                           "--format", "json")
    assert code == 0 and calls == ["component_group", "spanning_tree_count"]
    assert out == json.dumps(NSPLUS_NERON[p], indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("family", ["ns", "ns+", "s", "s+"])
def test_neron_request_skips_the_relation_matrix(capsys, monkeypatch, family):
    calls = count_group_calls(monkeypatch)
    code, _, _ = run_cli(capsys, "neron", "--family", family, "--prime", "29")
    assert code == 0 and calls == ["component_group", "spanning_tree_count"]


@pytest.mark.parametrize("family", ["ns", "ns+", "s", "s+"])
def test_neron_request_takes_the_order_once(capsys, monkeypatch, family):
    # one exact product for the order, shared by its check and the
    # payload, and one for the tree count
    calls = []
    real = neron.power_product
    monkeypatch.setattr(neron, "power_product", lambda runs: calls.append(runs) or real(runs))
    code, _, _ = run_cli(capsys, "neron", "--family", family, "--prime", "29",
                         "--format", "json")
    assert code == 0 and len(calls) == 2


def refuse(*args, **kwargs):
    raise AssertionError("a fiber was built")


@pytest.mark.parametrize("family,p", [(family, p) for p in (29, 101)
                                      for family in ("ns", "ns+", "s", "s+")])
def test_neron_request_builds_no_fiber(capsys, monkeypatch, family, p):
    # the group reads the e list and the vertical widths alone: no fiber
    # graph and no horizontal equation
    expected = {fmt: run_cli(capsys, "neron", "--family", family, "--prime", str(p),
                             "--format", fmt) for fmt in ("json", "text")}
    for module, name in ((cli.atlas, "special_fiber"), (cli.atlas, "FiberGraph"),
                         (cli.atlas, "cartan_drinfeld"), (cli.drinfeld, "cartan_drinfeld")):
        monkeypatch.setattr(module, name, refuse)
    for fmt, (code, out, err) in expected.items():
        assert code == 0 and out and err == ""
        assert run_cli(capsys, "neron", "--family", family, "--prime", str(p),
                       "--format", fmt) == (code, out, err)


def package_env():
    env = dict(os.environ)
    env.pop("FIBERCURVE_CACHE", None)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(fibercurve.__file__))
    return env


def run_cli_process(*argv, optimize=False):
    flags = ["-O"] if optimize else []
    return subprocess.run(
        [sys.executable, *flags, "-m", "fibercurve.cli", *argv],
        env=package_env(), capture_output=True, check=False,
    )


@pytest.mark.parametrize("argv", [
    ("fiber", "--family", "ns+", "--prime", "13", "--format", "json"),
    ("neron", "--family", "s", "--prime", "11"),
    ("verify", "--suite", "paper", "--primes", "5..40"),
    ("neron", "--family", "s+", "--prime", "1997"),
], ids=["fiber", "neron", "verify", "neron-s+1997"])
def test_output_unchanged_under_python_O(argv):
    # -O strips every assert; the checks must not carry the output
    plain = run_cli_process(*argv)
    optimized = run_cli_process(*argv, optimize=True)
    assert plain.returncode == optimized.returncode == 0, optimized.stderr
    assert plain.stdout == optimized.stdout
    assert plain.stdout


# sha256 of the stdout of `verify --suite paper --primes 5..200 --jobs 2`:
# a change that declares new battery bytes updates it
BATTERY_ARGV = ("verify", "--suite", "paper", "--primes", "5..200", "--jobs", "2")
BATTERY_DIGEST = "657bbeab59553ab148be66f38a5c4c83cb8dcd9dfd40b73fc2e20dadb188fe92"


def test_battery_output_digest_in_process(capsys):
    code, out, err = run_cli(capsys, *BATTERY_ARGV)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == BATTERY_DIGEST


def test_battery_output_digest_under_python_O():
    proc = run_cli_process(*BATTERY_ARGV, optimize=True)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert hashlib.sha256(proc.stdout).hexdigest() == BATTERY_DIGEST


def run_patched_under_python_O(module, name, argv, result="real(*args) + 1"):
    """Run the CLI under -O with module.name returning `result`, an
    expression in the unpatched function `real` and its `args` and
    `kwargs`; by default one more than it does.  A builtin the module
    calls, such as pow, is shadowed in that module alone."""
    script = (
        "import sys\n"
        "from fibercurve import cli, %s as module\n"
        "real = eval(%r, vars(module))\n"
        "module.%s = lambda *args, **kwargs: %s\n"
        "sys.exit(cli.main(%r))\n" % (module, name, name, result, list(argv))
    )
    return subprocess.run([sys.executable, "-O", "-c", script], env=package_env(),
                          capture_output=True, text=True, check=False)


@pytest.mark.parametrize("p", [11, 6287])
def test_failed_cross_check_exits_3_under_python_O(p):
    # the order check must survive -O and end in one diagnostic line, of
    # runs and not of orders: at 6287 the order has more than 4300 digits
    proc = run_patched_under_python_O(
        "neron", "banana_order", ["neron", "--family", "s", "--prime", str(p)])
    assert proc.returncode == 3 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: component group:")
    assert "family s, p = %d" % p in lines[0] and "Traceback" not in proc.stderr
    assert len(lines[0]) < 1000


@pytest.mark.parametrize("argv,family", [
    (["fiber", "--family", "s", "--prime", "11"], "s"),
    (["neron", "--family", "s", "--prime", "11"], "s"),
    (["verify", "--suite", "paper", "--primes", "11..12"], "ns"),
], ids=["fiber", "neron", "verify"])
def test_failed_toric_rank_check_exits_3_under_python_O(argv, family):
    # the check runs on every path that reads the vertical inventory,
    # whether or not it builds the fiber
    proc = run_patched_under_python_O("atlas", "toric_rank_closed_form", argv)
    assert proc.returncode == 3 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: toric rank:")
    assert "family %s, p = 11" % family in lines[0] and "Traceback" not in proc.stderr


def test_wrong_square_root_exits_3_under_python_O():
    # sqrt_in_field squares its root back, so a wrong root ends in one
    # diagnostic line under -O; here the isogeny walk at p = 5 meets it
    proc = run_patched_under_python_O(
        "ffield", "GF.sqrt", ["verify", "--suite", "paper", "--primes", "5..6"],
        "args[0].add(real(*args), (1, 0))")
    assert proc.returncode == 3 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: square root:")
    assert "p = 5" in lines[0] and "Traceback" not in proc.stderr


@pytest.mark.parametrize("module,name,argv,result,check", [
    ("atlas", "genus_closed_form", ["fiber", "--family", "ns", "--prime", "13",
                                    "--format", "json"],
     "real(*args) + 1", "total genus:"),
    # every orbit maps to infinity, so no finite branch value is left
    ("drinfeld", "evaluate_projective", ["drinfeld", "--group", "a4", "--prime", "13"],
     "args[0]", "branch values:"),
    # every orbit maps to 0, so two distinct orbits share a branch value
    ("drinfeld", "evaluate_projective", ["drinfeld", "--group", "a4", "--prime", "13"],
     "0", "branch values: distinct orbits share"),
    # a group table one element short of the group its generators make
    ("exceptional", "build_exceptional", ["orbits", "--group", "a4", "--prime", "13"],
     "(lambda H: module.SubgroupTable(H.p, H.elements[1:], H.gens))(real(*args))",
     "orbit-stabilizer:"),
    # a group table with one element that is not in the group
    ("exceptional", "build_exceptional", ["orbits", "--group", "a4", "--prime", "13"],
     "(lambda H: module.SubgroupTable(H.p, H.elements + (module.transform(13, 1, 1, 0, 1),),"
     " H.gens))(real(*args))",
     "orbit-stabilizer:"),
    # one branch root of exponent 2 makes 2g - 2 = -4 for u^2 = f; the
    # count-0 exponent 1 gets it past the reducibility check
    ("drinfeld", "cartan_drinfeld", ["drinfeld", "--family", "ns", "--prime", "13"],
     "(lambda c: setattr(c, 'branch_exponents', lambda: {1: 0, 2: 1}) or c)"
     "(real(*args))", "cyclic cover genus:"),
    # a second unknown quotient label would leave the identity with two
    # unknowns; under -O an assert would have solved for the first
    ("atlas", "_cartan_fiber", ["verify", "--suite", "paper", "--primes", "13..14"],
     "(lambda g: setattr(g.verticals()[-1], 'label', 'X') or g)(real(*args))",
     "consistency identity:"),
    # a rule that drops one of the orbits the group has
    ("exceptional", "rational_orbits", ["orbits", "--group", "a4", "--prime", "13"],
     "real(*args)[1:]", "orbit table:"),
    # a closure one element short fails every solved candidate; a4 at
    # 11 = 2 mod 3 has no explicit generators
    ("exceptional", "generate_subgroup", ["orbits", "--group", "a4", "--prime", "11"],
     "module.SubgroupTable(args[0], real(*args, **kwargs).elements[1:])",
     "generator pair: no solved pair generates a group of order 12 (kind a4, p = 11)"),
    # a nonsplit image that skips its first element reads one short of
    # |H| in the genus pass
    ("atlas", "cartan_nonsplit", ["fiber", "--family", "ns+", "--prime", "13"],
     "(g for i, g in enumerate(real(*args, **kwargs)) if i)", "group order:"),
    # the p = 3 mod 4 root a^((p+1)/4), one off; s4 at 23 solves for its
    # generators from sqrt(2)
    ("ffield", "pow", ["orbits", "--group", "s4", "--prime", "23"],
     "real(*args) + 1 if args[1:] == ((args[2] + 1) // 4, args[2]) else real(*args)",
     "square root:"),
    # a root from Tonelli-Shanks' loop, one off: s4 at 17 = 1 + 2^4 takes
    # sqrt(2) and i for its explicit generators
    ("exceptional", "sqrt_mod_p", ["orbits", "--group", "s4", "--prime", "17"],
     "real(*args) + 1", "square root:"),
    # a squares table with every residue a square counts all of H as H'
    ("projline", "square_table", ["fiber", "--family", "ns", "--prime", "13"],
     "bytearray([1]) * args[0]", "coset cycle counts:"),
    # a squares table with its last entry flipped counts an H' that is
    # neither H nor half of it, rather than one that does not divide |PSL_2|
    ("projline", "square_table", ["fiber", "--family", "ns", "--prime", "13"],
     "(lambda t: t[:-1] + bytearray([t[-1] ^ 1]))(real(*args))",
     "coset cycle counts: |H'| = 5 is neither |H| = 14"),
], ids=["total-genus", "branch-values", "shared-branch-value", "orbit-stabilizer",
        "orbit-stabilizer-non-member", "cover-genus", "identity-unknowns", "orbit-table",
        "generator-pair", "group-order", "fp-square-root", "fp-square-root-loop",
        "squares-table", "squares-flip"])
def test_failed_paper_check_exits_3_under_python_O(module, name, argv, result, check):
    proc = run_patched_under_python_O(module, name, argv, result)
    assert proc.returncode == 3 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: " + check)
    prime = next(argv[i + 1] for i, arg in enumerate(argv) if arg.startswith("--prime"))
    assert "p = %s" % prime.split("..")[0] in lines[0] and "Traceback" not in proc.stderr


def test_orbit_rule_with_an_absent_orbit_exits_3_under_python_O():
    # at 43 = 7 mod 12 the count still matches, so the profile check raises
    proc = run_patched_under_python_O("exceptional", "rational_orbits",
                                      ["orbits", "--group", "a4", "--prime", "43"],
                                      "[('O2', 6, 2)] + real(*args)")
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == "error: %s\n" % ADDED_O2_MESSAGE % 43


def test_wrong_quotient_closed_form_fails_the_consistency_rows_under_python_O():
    proc = run_patched_under_python_O(
        "atlas", "igusa_genus", ["verify", "--suite", "paper", "--primes", "5..20"])
    assert proc.returncode == 1 and proc.stderr == ""
    failures = [line for line in proc.stdout.splitlines() if "FAILURE" in line]
    assert failures and all(line.startswith("  FAILURE consistency-") for line in failures)
    assert len(failures) == 4 * 6  # four families at the six primes 5..19


@pytest.mark.parametrize("module,name,result,check", [
    # an inverse one more than the true one puts a draw's
    # B' = (A'B - 1)/A off A'B - AB' = 1
    ("ffield", "GF.inv", "args[0].add(real(*args), (1, 0))", "quotient maps:"),
    # a square root inside the prime field is no admissible twist
    ("drinfeld", "sqrt_in_field", "(real(*args)[0], 0)", "admissible twist:"),
], ids=["inverse", "twist"])
def test_failed_drinfeld_check_exits_3_under_python_O(module, name, result, check):
    proc = run_patched_under_python_O(
        module, name, ["verify", "--suite", "paper", "--primes", "5..6"], result)
    assert proc.returncode == 3 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: " + check)
    assert "p = 5" in lines[0] and "Traceback" not in proc.stderr


@pytest.mark.parametrize("family,p", [("s", 997), ("s+", 1997)])
def test_neron_request_skips_kirchhoff_and_large_matrices(capsys, monkeypatch, family, p):
    # the Smith form is taken twice, on the e list and on the width list,
    # and never on a matrix
    lists = [cli.atlas.supersingular_data(p).e_values(),
             [v.width for v in cli.atlas.cartan_verticals(family, p)]]
    calls = []
    real_snf = neron.smith_normal_form_diagonal

    def listed_snf(lengths):
        calls.append(list(lengths))
        return real_snf(lengths)

    monkeypatch.setattr(neron, "smith_normal_form_diagonal", listed_snf)
    code, out, _ = run_cli(capsys, "neron", "--family", family, "--prime", str(p))
    assert code == 0 and out.startswith("component group (%s, p = %d):" % (family, p))
    assert calls == lists
    assert all(isinstance(x, int) for lengths in calls for x in lengths)


# the layers perfbench/tracer.py reads from sys.modules after `import
# fibercurve`; the command line is imported by whoever runs it
PACKAGE_MODULES = {"atlas", "drinfeld", "exceptional", "ffield", "neron", "projline"}


def test_package_root_loads_every_layer_and_binds_nothing_else():
    script = ("import json, sys, fibercurve\n"
              "json.dump({'loaded': sorted(m for m in sys.modules\n"
              "                            if m.startswith('fibercurve.')),\n"
              "           'public': sorted(n for n in vars(fibercurve)\n"
              "                            if not n.startswith('_'))}, sys.stdout)\n")
    proc = subprocess.run([sys.executable, "-c", script], env=package_env(),
                          capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout)
    assert result["loaded"] == sorted("fibercurve." + m for m in PACKAGE_MODULES)
    assert result["public"] == sorted(PACKAGE_MODULES)
    assert fibercurve.__version__
