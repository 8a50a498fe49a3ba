"""Command-line surface: output values, JSON schema, exit codes."""

import json
from fractions import Fraction

import burnside.semican as semican
from burnside.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_can_example(capsys):
    code, out, _ = run(capsys, "can", "a^900")
    assert code == 0
    assert out.strip() == "a^-286"


def test_can_rejects_rank_below_one(capsys):
    for rank in ("0", "-1"):
        code, out, err = run(capsys, "can", "a^900", "--rank", rank)
        assert code == 1
        assert out == "" and "rank" in err


def test_compress_powers_can_be_turned_off(capsys):
    code, out, _ = run(capsys, "--no-compress-powers", "can", "a^900")
    assert code == 0 and out.strip() == "A" * 286
    code, out, _ = run(capsys, "--compress-powers", "can", "a^900")
    assert code == 0 and out.strip() == "a^-286"


def test_rank_example(capsys):
    code, out, _ = run(capsys, "rank", "ab")
    assert code == 0
    assert out.split()[0] == "2"


def test_reduce(capsys):
    code, out, _ = run(capsys, "reduce", "abBA a")
    assert code == 0 and out.strip() == "a"


def test_json_schema_field(capsys):
    code, out, _ = run(capsys, "--format", "json", "can", "a^900")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["result"] == "a^-286"


def test_occurrences_json(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "occurrences", "aa(ab)^400aa",
        "--rank", "2", "--min-measure", "16",
    )
    assert code == 0
    payload = json.loads(out)
    (item,) = payload["occurrences"]
    assert item["offset"] == 2
    assert item["length"] == 801
    assert item["period"] == "ab"
    assert item["k"] == 400
    assert item["a1"] == "a"
    assert item["measure"] == "801/2"


def test_turn_subcommand(capsys):
    code, out, _ = run(capsys, "turn", "ba^600b", "--rank", "1", "--at", "1")
    assert code == 0
    assert out.startswith("ba^7b")


def test_semican_subcommand(capsys):
    code, out, _ = run(capsys, "semican", "a^1200", "--rank", "1")
    assert code == 0 and out.strip() == "a^14"


def test_mult_subcommand(capsys):
    code, out, _ = run(capsys, "mult", "a^296", "a^296", "--rank", "1")
    assert code == 0 and out.strip() == "A"


def test_usage_error_exit_code(capsys):
    code, _, err = run(capsys, "rank", "a%b")
    assert code == 1


def test_missing_occurrence_exit_code(capsys):
    code, _, err = run(capsys, "turn", "ab", "--rank", "1", "--at", "0")
    assert code == 1


def test_deterministic_output(capsys):
    _, first, _ = run(capsys, "--format", "json", "can", "aa(ab)^400aa")
    _, second, _ = run(capsys, "--format", "json", "can", "aa(ab)^400aa")
    assert first == second


def test_verify_lemmas_control(capsys):
    code, out, _ = run(capsys, "verify-lemmas", "--suite", "control")
    assert code == 0
    assert "0 violations" in out


def test_witness_infinity_small(capsys):
    code, out, _ = run(capsys, "witness-infinity", "--count", "10")
    assert code == 0
    lines = [l for l in out.strip().splitlines() if not l.startswith("#")]
    assert len(lines) == 10
    assert len(set(lines)) == 10


def test_lab_mode_flags(capsys):
    code, out, _ = run(
        capsys, "--n", "3", "--mode", "lab", "--tau", "1", "can", "a^2", "--rank", "1"
    )
    assert code == 0 and out.strip() == "A"


def test_deep_nesting_is_a_usage_error(capsys):
    word = "(" * 3000 + "a" + ")" * 3000
    code, out, err = run(capsys, "can", word)
    assert code == 1
    assert out == "" and "nested" in err


def test_invariant_violation_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(semican, "potential_d", lambda *args: Fraction(0))
    code, out, err = run(capsys, "semican", "a^1200", "--rank", "1")
    assert code == 2
    assert out == "" and "potential" in err
