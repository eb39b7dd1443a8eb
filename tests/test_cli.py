import json
import math
import os

import pytest

from fibercurve.cli import main


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


def test_argparse_usage_exit_2():
    with pytest.raises(SystemExit) as info:
        main(["fiber", "--family", "bogus", "--prime", "13"])
    assert info.value.code == 2


def test_cache_round_trip_is_byte_identical(tmp_path, capsys):
    args = ["fiber", "--family", "ns+", "--prime", "17", "--format", "json",
            "--cache", str(tmp_path)]
    code1, out1, _ = run_cli(capsys, *args)
    files = list(tmp_path.iterdir())
    assert len(files) == 1
    code2, out2, _ = run_cli(capsys, *args)
    assert (code1, code2) == (0, 0)
    assert out1 == out2


def test_cache_stale_fingerprint_recomputed(tmp_path, capsys):
    args = ["neron", "--family", "ns+", "--prime", "17", "--format", "json",
            "--cache", str(tmp_path)]
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    path = next(tmp_path.iterdir())
    entry = json.loads(path.read_text())
    entry["fingerprint"] = "stale"
    entry["payload"] = {"tampered": True}
    path.write_text(json.dumps(entry))
    code, out2, _ = run_cli(capsys, *args)
    assert code == 0 and out2 == out  # recomputed, not reinterpreted


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FIBERCURVE_CACHE", str(tmp_path))
    code, _, _ = run_cli(capsys, "orbits", "--group", "a4", "--prime", "13",
                         "--format", "json")
    assert code == 0
    assert any(f.name.startswith("orbits_a4_13") for f in tmp_path.iterdir())


def test_verify_small_range_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "paper", "--primes", "5..15")
    assert code == 0
    assert "failures: 0" in out
    assert "toric-rank-ns" in out


def test_verify_rejects_malformed_range(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "paper",
                           "--primes", "a..b")
    assert code == 2


@pytest.mark.parametrize("family,prime", [("s", "41"), ("s+", "59")])
def test_neron_largest_seed_laplacians(capsys, family, prime):
    code, out, _ = run_cli(capsys, "neron", "--family", family, "--prime", prime,
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == math.prod(payload["invariants"]) > 1
