"""Seeded command line fuzzing: every argv ends in exactly one report.

Argument vectors are drawn from a small grammar over every subcommand,
every bundled input name and some unknown ones, windows valid and not,
numbers huge, negative and not numbers, and the --format, --images and
--case options.  Each call must return 0, 1 or 2, write nothing to
stderr, print one parseable report whose exit code matches, and raise
nothing.  Windows and --hi stay at 3 or below so every call is quick.
"""

import csv
import io
import json
import random

from barloop.cli import main
from barloop.weqcheck import bundled_complexes, bundled_monoids

COMMANDS = (
    "homology", "bar", "cobar", "extended-cobar", "loopgroup", "pi1", "weq",
    "paper-suite",
)
MONOIDS = sorted(bundled_monoids())
NAMES = {
    "bar": ["free-t"] + MONOIDS,
    "weq": MONOIDS,
    "complex": sorted(bundled_complexes()) + MONOIDS,
}
UNKNOWN_NAMES = ("nosuch", "Z3", "", "nerve-")
WINDOWS = ("0..3", "0..2", "0..1", "3", "1")
BAD_WINDOWS = ("0..0", "0", "2..1", "1..3", "a..b", "-1", "0..-2", "..",
               "0..3..4")
NUMBERS = ("0", "1", "3", "100", "100000", str(10**12))
BAD_NUMBERS = ("-1", "-7", "x", "1.5", "")
HIS = ("0", "1", "2", "3")
BAD_HIS = ("-1", "x")
CASES = ("lemma31", "ex43", "ex46", "prop34", "loop-s2", "weq", "all")
IMAGES = ("0,0", "0,1", "0,1,2", "0,0,0,0", "0,2,1", "0,3,2,1")
BAD_IMAGES = ("0,9", "a,b", "", "0,-1")


def pick(rng, good, bad):
    """Mostly a valid value, sometimes an invalid one."""
    return rng.choice(good if rng.random() < 0.85 else bad)


def draw_argv(rng):
    """One argv: global options, a subcommand or a bogus one, its
    positional names, and its own options; the global options go before
    or after the subcommand."""
    # Always a window: the default 0..6 is slow for some inputs.
    options = ["--window", pick(rng, WINDOWS, BAD_WINDOWS)]
    for flag in ("--budget", "--cap", "--seed"):
        if rng.random() < 0.3:
            options += [flag, pick(rng, NUMBERS, BAD_NUMBERS)]
    if rng.random() < 0.3:
        options += ["--format", pick(rng, ("json", "csv"), ("xml",))]
    command = pick(rng, COMMANDS, ("bogus",))
    args = [command]
    positional = {"weq": 2, "paper-suite": 0, "bogus": 0}.get(command, 1)
    if rng.random() < 0.05:
        positional += rng.choice((-1, 1))
    names = NAMES.get(command, NAMES["complex"])
    args += [pick(rng, names, UNKNOWN_NAMES) for _ in range(positional)]
    if command == "loopgroup" and rng.random() < 0.7:
        args += ["--hi", pick(rng, HIS, BAD_HIS)]
    if command == "weq" and rng.random() < 0.5:
        args += ["--images", pick(rng, IMAGES, BAD_IMAGES)]
    if command == "paper-suite":
        args += ["--case", pick(rng, CASES, ("nosuch",))]
    if rng.random() < 0.05:
        args.append("--no-such-flag")
    split = rng.randrange(len(options) // 2 + 1) * 2
    return options[:split] + args + options[split:]


def parse_report(out):
    """The exit code of the one report in out, JSON or CSV."""
    if out.startswith("{"):
        return json.loads(out)["exit_code"]
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["key", "value"]
    assert ["key", "value"] not in rows[1:]
    values = dict(rows[1:])
    assert "tool.name" in values
    return int(values["exit_code"])


def test_every_argv_ends_in_one_report(capsys):
    codes = set()
    for seed in range(6):
        rng = random.Random(seed)
        for _ in range(50):
            argv = draw_argv(rng)
            code = main(argv)
            out, err = capsys.readouterr()
            assert code in (0, 1, 2), argv
            assert err == "", argv
            assert parse_report(out) == code, argv
            codes.add(code)
    assert codes == {0, 1, 2}
