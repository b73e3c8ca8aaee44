"""Command line behaviour: outputs, exit codes, determinism, formats."""

import json
import os

import pytest

from barloop.cli import main
from barloop.weqcheck import bundled_complexes, bundled_monoids


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_homology_of_sphere2(capsys):
    code, r = run_json(capsys, ["homology", "sphere2", "--window", "0..4"])
    assert code == 0
    assert r["outputs"]["homology"] == {
        "0": "Z", "1": "0", "2": "Z", "3": "0", "4": "0 (partial)",
    }
    assert r["params"]["window"] == "0..4"
    assert r["tool"]["name"] == "barloop"


def test_homology_of_cyclic_nerve(capsys):
    code, r = run_json(capsys, ["homology", "z2", "--window", "0..5"])
    assert code == 0
    h = r["outputs"]["homology"]
    assert [h[str(n)] for n in range(5)] == ["Z", "Z/2", "0", "Z/2", "0"]


def test_homology_of_contractible_nerve(capsys):
    code, r = run_json(capsys, ["homology", "idempotent", "--window", "0..4"])
    assert code == 0
    h = r["outputs"]["homology"]
    assert h["0"] == "Z"
    assert all(h[str(n)] == "0" for n in range(1, 4))


def test_homology_table_round_trips(capsys):
    code, r = run_json(capsys, ["homology", "sphere3", "--window", "0..4"])
    assert code == 0

    def entry(free_rank, exact=True):
        return {"free_rank": free_rank, "torsion": [], "exact": exact}

    assert r["outputs"]["table"] == {
        "0": entry(1), "1": entry(0), "2": entry(0), "3": entry(1),
        "4": entry(0, exact=False),
    }


def test_bar_of_free_generator(capsys):
    code, r = run_json(capsys, ["bar", "free-t", "--window", "0..4"])
    assert code == 0
    assert r["outputs"]["ranks"] == {"0": 1, "1": 0, "2": 1, "3": 1, "4": 2}
    h = r["outputs"]["homology"]
    assert [h[str(n)] for n in range(4)] == ["Z", "0", "Z", "0"]


def test_cobar_of_sphere2(capsys):
    code, r = run_json(capsys, ["cobar", "sphere2", "--window", "0..5"])
    assert code == 0
    assert r["outputs"]["generators"] == [{"label": "e", "degree": 1}]
    h = r["outputs"]["homology"]
    assert [h[str(n)] for n in range(5)] == ["Z", "Z", "Z", "Z", "Z"]


def test_cobar_of_circle_skips_infinite_homology(capsys):
    code, r = run_json(capsys, ["cobar", "sphere1", "--window", "0..3"])
    assert code == 0
    assert r["outputs"]["homology"] is None
    assert "note" in r["outputs"]


def test_extended_cobar_of_circle(capsys):
    code, r = run_json(capsys, ["extended-cobar", "sphere1", "--window", "0..3"])
    assert code == 0
    assert r["outputs"]["localized_at"] == ["t + 1"]
    assert r["outputs"]["h0_complete"] is True
    # Laurent ring: irreducible words are all powers, not enumerable
    assert r["outputs"]["h0_basis"] is None


def test_extended_cobar_of_collapsed_boundary(capsys):
    code, r = run_json(
        capsys,
        ["extended-cobar", "boundary-delta3-collapsed", "--window", "0..3"],
    )
    assert code == 0
    assert r["outputs"]["h0_basis"] == ["1"]


def test_loopgroup_circle_level_zero(capsys):
    code, r = run_json(capsys, ["loopgroup", "sphere1", "--hi", "0"])
    assert code == 0
    assert r["outputs"]["ranks"] == {"0": 1}
    assert r["outputs"]["levels"][0]["generators"] == ["t"]


def test_pi1_of_projective_plane(capsys):
    code, r = run_json(capsys, ["pi1", "rp2"])
    assert code == 0
    assert r["outputs"]["completion"]["order"] == 2


def test_pi1_reports_a_spent_budget_as_exhausted(capsys):
    code, r = run_json(capsys, ["pi1", "point", "--budget", "0"])
    assert code == 0
    assert r["outputs"]["completion"] == {
        "status": "exhausted", "reason": "completion budget exhausted",
    }


def test_weq_exit_codes(capsys):
    code, r = run_json(capsys, ["weq", "z2", "trivial", "--window", "0..4"])
    assert code == 1
    assert r["outputs"]["verdict"]["verdict"] == "distinguished"
    assert r["outputs"]["verdict"]["witness"]["degree"] == 1

    code, r = run_json(capsys, ["weq", "idempotent", "trivial", "--window", "0..4"])
    assert code == 0
    assert r["outputs"]["verdict"]["verdict"] == "certified-equivalent"

    code, r = run_json(capsys, ["weq", "z3", "z3", "--window", "0..3"])
    assert code == 0


def test_weq_with_explicit_images(capsys):
    code, r = run_json(
        capsys,
        ["weq", "z2", "z2", "--images", "0,0", "--window", "0..4"],
    )
    assert code == 1
    assert r["outputs"]["verdict"]["verdict"] == "distinguished"


# identity and collapse maps of the bundled monoids, by name
WEQ_MAPS = [(name, name) for name in sorted(bundled_monoids())] + [
    (name, "trivial") for name in sorted(bundled_monoids()) if name != "trivial"
]


@pytest.mark.parametrize("window", ["0..1", "0..2", "0..3", "0..5"])
def test_weq_reads_neither_budget_nor_cap(capsys, window):
    for source, target in WEQ_MAPS:
        argv = ["weq", source, target, "--window", window]
        code, r = run_json(capsys, argv)
        want = (code, r["outputs"]["verdict"])
        for flags in (["--budget", "0"], ["--budget", "5"], ["--cap", "0"]):
            code, r = run_json(capsys, argv + flags)
            assert (code, r["outputs"]["verdict"]) == want, argv + flags


@pytest.mark.parametrize(
    "argv",
    [
        ["weq", "z2", "z2", "--cap", "0", "--window", "0..2"],
        ["weq", "idempotent", "trivial", "--budget", "5", "--window", "0..3"],
    ],
    ids=["z2-cap-0", "idempotent-budget-5"],
)
def test_weq_certifies_at_any_budget_or_cap(capsys, argv):
    code, r = run_json(capsys, argv)
    assert code == 0
    assert r["outputs"]["verdict"]["verdict"] == "certified-equivalent"


@pytest.mark.parametrize("name", sorted(bundled_complexes()))
def test_pi1_does_not_read_the_cap(capsys, name):
    """A presented group's order is counted from the completed rules, so
    no enumeration cap can hide it."""
    code, r = run_json(capsys, ["pi1", name])
    want = (code, r["outputs"]["completion"])
    for cap in ("0", "1"):
        code, r = run_json(capsys, ["pi1", name, "--cap", cap])
        assert (code, r["outputs"]["completion"]) == want, cap


def test_invalid_input_exits_2(capsys):
    code, r = run_json(capsys, ["homology", "nosuch"])
    assert code == 2
    assert r["error"]["kind"] == "invalid-input"
    code, r = run_json(capsys, ["weq", "z2", "z3"])
    assert code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bar", "exterior", "--window", "0..6"],
         "unknown algebra 'exterior'; choose from "),
        (["homology", "nosuch"], "unknown complex 'nosuch'; choose from "),
        (["weq", "z2", "nosuch"], "unknown monoid 'nosuch'; choose from "),
    ],
    ids=["algebra", "complex", "monoid"],
)
def test_unknown_input_names_are_reported_unquoted(capsys, argv, message):
    code, r = run_json(capsys, argv)
    assert code == 2
    assert r["error"]["kind"] == "invalid-input"
    assert r["error"]["message"].startswith(message)


def test_bad_window_exits_2(capsys):
    code, r = run_json(capsys, ["homology", "sphere2", "--window", "2..4"])
    assert code == 2
    assert r["error"]["kind"] == "invalid-input"


@pytest.mark.parametrize(
    "argv, code, kind",
    [
        (["homology", "z4", "--window", "0"], 2, "invalid-input"),
        (["homology", "z4", "--window", "0..0"], 2, "invalid-input"),
        (["weq", "z4", "z2", "--images", "0,9,0,1"], 2, "invalid-input"),
        (["bar", "z3", "--window", "0..3", "--budget", "1"], 1,
         "check-failed"),
        (["paper-suite", "--budget", "1"], 1, "check-failed"),
        (["loopgroup", "sphere1", "--hi", "-1"], 2, "invalid-input"),
        (["homology", "z2", "--budget", "x"], 2, "invalid-input"),
        (["bogus"], 2, "invalid-input"),
        (["homology", "z2", "--format", "xml"], 2, "invalid-input"),
        (["weq", "z2"], 2, "invalid-input"),
    ],
    ids=["window-0", "window-0..0", "image-out-of-range", "bar-budget",
         "paper-suite-budget", "loopgroup-negative-hi", "budget-not-int",
         "unknown-command", "unknown-format", "weq-missing-target"],
)
def test_failures_end_in_a_report(capsys, argv, code, kind):
    got, r = run_json(capsys, argv)
    assert got == code
    assert r["exit_code"] == code
    assert r["error"]["kind"] == kind
    assert r["error"]["message"]


def test_the_bar_word_cap_ends_in_a_check_failure(capsys):
    code, r = run_json(
        capsys, ["bar", "z3", "--window", "0..9", "--cap", "100"]
    )
    assert code == 1 and r["exit_code"] == 1
    assert r["error"] == {
        "kind": "check-failed",
        "message": "more than 100 bar words in degree 7",
    }
    assert r["outputs"] == {}


def test_rejected_argv_reports_the_parser_message(capsys):
    code = main(["weq", "z2"])
    out, err = capsys.readouterr()
    r = json.loads(out)
    assert code == 2 and err == ""
    assert r["command"] is None and r["params"] is None
    assert r["outputs"] == {} and r["certificates"] == []
    assert r["error"] == {
        "kind": "invalid-input",
        "message": "the following arguments are required: target",
    }


def test_help_exits_0_with_the_help_text(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--help"])
    assert e.value.code == 0
    assert capsys.readouterr().out.startswith("usage: barloop")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["bar", "z4", "--window", "0..2", "--cap", "-1"], "--cap"),
        (["homology", "z2", "--window", "0..2", "--cap", "-3"], "--cap"),
        (["extended-cobar", "sphere1", "--window", "0..2", "--cap", "-1"],
         "--cap"),
        (["bar", "z4", "--window", "0..2", "--budget", "-5"], "--budget"),
    ],
    ids=["bar-cap", "homology-cap", "extended-cobar-cap", "bar-budget"],
)
def test_negative_budget_or_cap_is_invalid_input(capsys, argv, flag):
    code, r = run_json(capsys, argv)
    assert code == r["exit_code"] == 2
    assert r["error"] == {
        "kind": "invalid-input", "message": f"{flag} must not be negative",
    }
    assert r["outputs"] == {}


@pytest.mark.parametrize("flag", ["--budget", "--cap"])
def test_zero_budget_or_cap_is_valid_input(capsys, flag):
    argv = ["homology", "z2", "--window", "0..2", flag, "0"]
    code, r = run_json(capsys, argv)
    assert code == 0
    assert "error" not in r


def test_paper_suite_all_cases_pass(capsys):
    code, r = run_json(capsys, ["paper-suite"])
    assert code == 0
    assert r["outputs"]["failed"] == 0
    assert {c["case"] for c in r["outputs"]["cases"]} == {
        "lemma31", "ex43", "ex46", "prop34", "loop-s2", "weq",
    }
    assert all(c["ok"] for c in r["outputs"]["cases"])


@pytest.mark.parametrize("case", ["lemma31", "ex43", "ex46", "prop34",
                                  "loop-s2", "weq"])
def test_paper_suite_single_cases(capsys, case):
    code, r = run_json(capsys, ["paper-suite", "--case", case])
    assert code == 0
    assert r["outputs"]["cases"] == [{"case": case, "ok": True}]


def test_reports_are_deterministic_modulo_timings(capsys):
    argv = ["paper-suite", "--case", "lemma31", "--seed", "7"]
    _, first = run_json(capsys, argv)
    _, second = run_json(capsys, argv)
    first.pop("timings")
    second.pop("timings")
    assert first == second


def test_seed_is_echoed_and_respected(capsys):
    ca, a = run_json(capsys, ["paper-suite", "--case", "lemma31", "--seed", "1"])
    cb, b = run_json(capsys, ["paper-suite", "--case", "lemma31", "--seed", "2"])
    assert (ca, cb) == (0, 0)
    assert a["params"]["seed"] == 1
    assert b["params"]["seed"] == 2


def test_global_flags_before_subcommand(capsys):
    code, r = run_json(capsys, ["--window", "0..4", "homology", "sphere2"])
    assert code == 0
    assert r["params"]["window"] == "0..4"
    assert "4" in r["outputs"]["homology"]


def test_out_file_and_csv(tmp_path, capsys):
    target = tmp_path / "report.csv"
    code = main([
        "homology", "sphere2", "--window", "0..3",
        "--format", "csv", "--out", str(target),
    ])
    assert code == 0
    assert capsys.readouterr().out == ""
    lines = target.read_text().splitlines()
    assert lines[0] == "key,value"
    assert any(line.startswith("command,homology") for line in lines)
    assert any("outputs.homology.2,Z" in line for line in lines)


# one cheap command for each of the eight subcommands
JSON_TEXT_CASES = {
    "homology": ["homology", "z2", "--window", "0..3"],
    "bar": ["bar", "free-t", "--window", "0..3"],
    "cobar": ["cobar", "sphere2", "--window", "0..3"],
    "extended-cobar": ["extended-cobar", "sphere1", "--window", "0..3"],
    "loopgroup": ["loopgroup", "sphere1", "--window", "0..2"],
    "pi1": ["pi1", "rp2"],
    "weq": ["weq", "z2", "trivial", "--window", "0..3"],
    "paper-suite": ["paper-suite", "--case", "ex43"],
}


@pytest.mark.parametrize(
    "argv", JSON_TEXT_CASES.values(), ids=JSON_TEXT_CASES.keys()
)
def test_json_report_text_is_indented_sorted_and_ends_in_a_newline(
    capsys, argv
):
    # the golden tests compare parsed reports; this pins the bytes
    main(argv)
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def test_json_out_file_parses(tmp_path):
    target = tmp_path / "report.json"
    code = main(["pi1", "sphere1", "--out", str(target)])
    assert code == 0
    text = target.read_text()
    r = json.loads(text)
    assert text == json.dumps(r, indent=2, sort_keys=True) + "\n"
    assert r["outputs"]["presentation"]["gens"] == ["t"]
    assert r["outputs"]["completion"]["status"] == "completed"


def test_unwritable_out_path_reports_on_stdout(tmp_path, capsys):
    target = tmp_path / "missing" / "r.json"
    code, r = run_json(
        capsys, ["homology", "z2", "--window", "0..2", "--out", str(target)]
    )
    assert code == 2
    assert r["exit_code"] == 2
    assert r["error"]["kind"] == "invalid-input"
    assert str(target) in r["error"]["message"]
    assert r["outputs"]["homology"]["1"] == "Z/2"
    assert not target.parent.exists()


# The CLI cases behind the benchmark's golden reports: perfbench/golden
# holds each report with timings dropped and the paper-suite seed nulled.
GOLDEN_DIR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench",
    "golden",
)
GOLDEN_CASES = {
    "homology-z4": ["homology", "z4", "--window", "0..5"],
    "extended-cobar-sphere1": ["extended-cobar", "sphere1", "--window", "0..3"],
    "cobar-rp2": ["cobar", "rp2", "--window", "0..4"],
    "pi1-rp2": ["pi1", "rp2"],
    "extended-cobar-delta3": ["extended-cobar", "boundary-delta3-collapsed"],
    "paper-suite": ["paper-suite", "--seed", "1"],
}


def test_golden_cases_cover_every_golden_report():
    names = {f[: -len(".json")] for f in os.listdir(GOLDEN_DIR)
             if f.endswith(".json")}
    assert names == set(GOLDEN_CASES)


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_report_matches_golden(capsys, name):
    code, r = run_json(capsys, GOLDEN_CASES[name])
    with open(os.path.join(GOLDEN_DIR, f"{name}.json")) as fh:
        golden = json.load(fh)
    r.pop("timings")
    if name == "paper-suite":
        r["params"]["seed"] = None
    assert code == golden["exit_code"]
    assert r == golden
