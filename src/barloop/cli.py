"""Command line front end.

Subcommands operate on bundled named inputs (reduced simplicial sets,
finite monoids, and a free generator algebra) and emit a machine
readable run report in JSON or CSV.  Reports are deterministic given the
same inputs, parameters, and seed, except for the timing block.

Exit codes: 0 when the computation or check passed, 1 when a check
failed or could not be certified within budget, 2 when the input was
invalid.
"""

import argparse
import csv
import hashlib
import json
import sys
import time

from . import __version__
from .barcobar import (
    bar,
    cobar,
    counit_check,
    extended_cobar,
    nerve_bar_iso_check,
    unit_check,
)
from .dgcoalg import chains
from .errors import (
    BarloopError,
    MalformedTable,
    NotACycle,
    NotAHomomorphism,
    NotCoaugmented,
    NotConnected,
    NotReduced,
    NotSimplyConnected,
    WindowTooSmall,
)
from .exactlin import homology_window
from .loopgroup import kan_loop_group, pi1_presentation
from .monoids import (
    Exhausted,
    FiniteMonoid,
    MonoidMap,
    group_completion,
    monoid_algebra,
    random_monoid,
)
from .rewrite import (
    PresentedDgAlgebra,
    adjoin_inverses,
    basis_in_degree,
    complete,
    complex_window,
    h0_ring,
)
from .simplicial import collapsed_boundary_delta3, minimal_sphere, nerve
from .weqcheck import bundled_complexes, bundled_monoids, weq_verdict

__all__ = ["main", "build_parser", "run"]

_INVALID_INPUT = (
    MalformedTable,
    NotACycle,
    NotAHomomorphism,
    NotCoaugmented,
    NotConnected,
    NotReduced,
    NotSimplyConnected,
    WindowTooSmall,
    ValueError,
    KeyError,
)


def _free_t():
    return PresentedDgAlgebra([("t", 1)], [], {}, {0: 0})


def _algebra_inputs():
    out = {"free-t": _free_t()}
    for name, m in bundled_monoids().items():
        out[name] = monoid_algebra(m)
    return out


def _sha(d):
    return hashlib.sha256(
        json.dumps(d, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def _parse_window(text):
    """Top degree of a window written A..B or B; A must be 0."""
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
    else:
        lo, hi = 0, int(text)
    if lo != 0:
        raise ValueError("windows must start at degree 0")
    if hi < 0:
        raise ValueError("empty window")
    return hi


def _resolve(kind, name, hi):
    """Look up a named input and a hashable description of it."""
    if kind == "complex":
        table = bundled_complexes()
        if name in table:
            k = table[name]
            return k, {"name": name, "data": k.to_json_dict(min(hi, 3))}
        monoids = bundled_monoids()
        if name in monoids:
            k = nerve(monoids[name])
            return k, {"name": name, "monoid": monoids[name].to_json_dict()}
        raise KeyError(
            f"unknown complex {name!r}; choose from "
            f"{sorted(table) + sorted(monoids)}"
        )
    if kind == "monoid":
        table = bundled_monoids()
        if name not in table:
            raise KeyError(
                f"unknown monoid {name!r}; choose from {sorted(table)}"
            )
        return table[name], {"name": name, "data": table[name].to_json_dict()}
    if kind == "algebra":
        table = _algebra_inputs()
        if name not in table:
            raise KeyError(
                f"unknown algebra {name!r}; choose from {sorted(table)}"
            )
        return table[name], {"name": name, "data": table[name].to_json_dict()}
    raise KeyError(kind)


# -- subcommands --------------------------------------------------------------


def _homology_outputs(window, hi):
    """Ranks and homology of a coalgebra window on degrees 0..hi."""
    table = homology_window(window.complex)
    return {
        "ranks": {str(n): window.rank(n) for n in range(hi + 1)},
        "homology": {
            str(n): table[n].describe() for n in sorted(table.entries)
        },
        "table": table.to_json_dict(),
    }


def cmd_homology(args, hi):
    k, desc = _resolve("complex", args.input, hi)
    cw = chains(k, hi)
    return 0, _homology_outputs(cw, hi), [], {args.input: desc}


def cmd_bar(args, hi):
    alg, desc = _resolve("algebra", args.input, hi)
    bw = bar(alg, hi, budget=args.budget, cap=args.cap)
    return 0, _homology_outputs(bw, hi), [], {args.input: desc}


def _cobar_outputs(om, hi, budget, cap):
    outputs = {
        "generators": [
            {"label": lbl, "degree": deg} for lbl, deg in om.generators
        ],
        "differential": {
            om.gen_label(g): om.poly_str(p)
            for g, p in sorted(om.differential.items())
        },
    }
    try:
        w = complex_window(om, hi, budget=budget, cap=cap)
        table = homology_window(w)
        outputs["homology"] = {
            str(n): table[n].describe() for n in sorted(table.entries)
        }
    except BarloopError as e:
        outputs["homology"] = None
        outputs["note"] = f"homology window skipped: {e}"
    return outputs


def cmd_cobar(args, hi):
    k, desc = _resolve("complex", args.input, hi)
    om = cobar(chains(k, hi))
    return 0, _cobar_outputs(om, hi, args.budget, args.cap), [], {
        args.input: desc
    }


def cmd_extended_cobar(args, hi):
    k, desc = _resolve("complex", args.input, hi)
    om = extended_cobar(k, hi)
    outputs = {
        "generators": [
            {"label": lbl, "degree": deg} for lbl, deg in om.generators
        ],
        "localized_at": om.provenance.get("localized_at", []),
    }
    h0 = h0_ring(om)
    rsys = complete(h0, args.budget)
    outputs["h0_complete"] = rsys.complete
    outputs["h0_rules"] = rsys.describe()
    try:
        words = basis_in_degree(rsys, 0, cap=args.cap)
        outputs["h0_basis"] = [h0.word_str(w) for w in words]
    except BarloopError as e:
        outputs["h0_basis"] = None
        outputs["note"] = f"degree-0 basis not enumerable: {e}"
    return 0, outputs, [], {args.input: desc}


def cmd_loopgroup(args, hi):
    k, desc = _resolve("complex", args.input, hi)
    top = args.hi if args.hi is not None else hi
    levels = kan_loop_group(k, top)
    outputs = {
        "ranks": {str(lv.n): lv.rank() for lv in levels},
        "levels": [lv.to_json_dict() for lv in levels],
    }
    return 0, outputs, [], {args.input: desc}


def cmd_pi1(args, hi):
    k, desc = _resolve("complex", args.input, hi)
    pres = pi1_presentation(k)
    comp = group_completion(pres, budget=args.budget)
    if isinstance(comp, Exhausted):
        completion = {"status": "exhausted", "reason": comp.reason}
    else:
        completion = {
            "status": "completed",
            "presentation": comp.presentation.to_json_dict(),
            "order": comp.order,
        }
    outputs = {"presentation": pres.to_json_dict(), "completion": completion}
    return 0, outputs, [], {args.input: desc}


def cmd_weq(args, hi):
    src, sdesc = _resolve("monoid", args.source, hi)
    dst, ddesc = _resolve("monoid", args.target, hi)
    if args.images is not None:
        images = [int(x) for x in args.images.split(",")]
        f = MonoidMap(src, dst, images)
    elif args.source == args.target:
        f = MonoidMap.identity(src)
    elif dst.order() == 1:
        f = MonoidMap(src, dst, [0] * src.order())
    else:
        raise ValueError(
            "--images is required unless the map is an identity or the "
            "target is trivial"
        )
    verdict = weq_verdict(f, hi=hi)
    code = 0 if verdict.kind == "certified-equivalent" else 1
    outputs = {"verdict": verdict.to_json_dict(), "images": f.images}
    return code, outputs, [verdict.to_json_dict()], {
        args.source: sdesc,
        f"{args.target}#target": ddesc,
    }


# -- verification suite --------------------------------------------------------


def _case_lemma31(budget, cap, seed):
    base = 20260814 if seed is None else seed
    cases = [(name, m) for name, m in sorted(bundled_monoids().items())]
    cases += [(f"random-{i}", random_monoid(base + i)) for i in range(6)]
    checked = []
    for name, m in cases:
        cert = nerve_bar_iso_check(m, 3, budget=budget, cap=cap)
        checked.append({"monoid": name, "ok": cert.ok})
    return True, {"checked": checked, "window_hi": 3}


def _case_ex43(budget, cap, seed):
    om = cobar(chains(collapsed_boundary_delta3(), 3))
    degrees = sorted(d for _, d in om.generators)
    if degrees != [0, 0, 0, 1, 1, 1, 1]:
        return False, {"generator_degrees": degrees}
    want = {
        om.word("12"): -1,
        om.word("13"): 1,
        om.word("23"): -1,
        om.word("12", "23"): -1,
    }
    got = om.differential.get(om.gen_index("123"), {})
    if dict(got) != want:
        return False, {"differential_123": om.poly_str(got)}
    h0 = h0_ring(om)
    rsys = complete(h0, budget)
    words = basis_in_degree(rsys, 0, cap=cap)
    ok = rsys.complete and words == [()]
    return ok, {
        "generator_degrees": degrees,
        "differential_123": om.poly_str(got),
        "h0_basis": ["1"] if words == [()] else [str(w) for w in words],
    }


def _case_ex46(budget, cap, seed):
    m = FiniteMonoid.idempotent_pair()
    at_b = adjoin_inverses(monoid_algebra(m), [{(0,): 1}])
    rb = complete(at_b, budget)
    basis_b = basis_in_degree(rb, 0, cap=cap)
    at_2mb = adjoin_inverses(monoid_algebra(m), [{(): 2, (0,): -1}])
    r = complete(at_2mb, budget)
    rules = sorted(r.describe())
    want = ["2*inv0 -> b + 1", "b*b -> b", "b*inv0 -> b", "inv0*b -> b"]
    mod2 = adjoin_inverses(monoid_algebra(m, modulus=2), [{(): 2, (0,): -1}])
    r2 = complete(mod2, budget)
    basis_mod2 = basis_in_degree(r2, 0, cap=cap)
    ok = (
        rb.complete
        and basis_b == [()]
        and r.complete
        and rules == want
        and r2.complete
        and basis_mod2 == [()]
    )
    return ok, {
        "inverted_at_b_basis": ["1"] if basis_b == [()] else len(basis_b),
        "inverted_at_2_minus_b_rules": rules,
        "mod2_basis": ["1"] if basis_mod2 == [()] else len(basis_mod2),
    }


def _case_prop34(budget, cap, seed):
    ext = PresentedDgAlgebra(
        [("x", 1)], [({(0, 0): 1}, {})], {}, {0: 0}
    )
    down = counit_check(ext, 3, budget=budget, cap=cap)
    up = unit_check(chains(minimal_sphere(2), 3), budget=budget, cap=cap)
    ok = bool(down) and bool(up)
    return ok, {
        "counit_on_exterior": down.to_json_dict(),
        "unit_on_sphere2": up.to_json_dict(),
    }


def _case_loop_s2(budget, cap, seed):
    levels = kan_loop_group(minimal_sphere(2), 2)
    ranks = [lv.rank() for lv in levels]
    circle = kan_loop_group(minimal_sphere(1), 0)
    ok = ranks == [0, 1, 2] and circle[0].rank() == 1
    return ok, {"sphere2_ranks": ranks, "sphere1_level0_rank": circle[0].rank()}


def _case_weq(budget, cap, seed):
    squash = weq_verdict(
        MonoidMap.collapse(FiniteMonoid.idempotent_pair()), hi=4
    )
    refute = weq_verdict(MonoidMap.collapse(FiniteMonoid.cyclic(2)), hi=4)
    keep = weq_verdict(MonoidMap.identity(FiniteMonoid.cyclic(3)), hi=3)
    ok = (
        squash.kind == "certified-equivalent"
        and refute.kind == "distinguished"
        and refute.witness.get("degree") == 1
        and keep.kind == "certified-equivalent"
    )
    return ok, {
        "idempotent_collapse": squash.to_json_dict(),
        "z2_collapse": refute.to_json_dict(),
        "z3_identity": keep.to_json_dict(),
    }


_CASES = {
    "lemma31": _case_lemma31,
    "ex43": _case_ex43,
    "ex46": _case_ex46,
    "prop34": _case_prop34,
    "loop-s2": _case_loop_s2,
    "weq": _case_weq,
}


def cmd_paper_suite(args, hi):
    names = list(_CASES) if args.case == "all" else [args.case]
    results = []
    certificates = []
    code = 0
    for name in names:
        ok, detail = _CASES[name](args.budget, args.cap, args.seed)
        results.append({"case": name, "ok": ok})
        certificates.append({"case": name, "ok": ok, "detail": detail})
        if not ok and code == 0:
            code = 1
    outputs = {
        "cases": results,
        "passed": sum(1 for r in results if r["ok"]),
        "failed": sum(1 for r in results if not r["ok"]),
    }
    if code:
        outputs["first_failure"] = next(
            c for c in certificates if not c["ok"]
        )
    return code, outputs, certificates, {"suite": {"cases": names}}


# -- report handling ----------------------------------------------------------


def _flatten(prefix, value, rows):
    if isinstance(value, dict):
        for k in sorted(value, key=str):
            _flatten(f"{prefix}.{k}" if prefix else str(k), value[k], rows)
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            _flatten(f"{prefix}[{i}]", v, rows)
    else:
        rows.append((prefix, "" if value is None else value))


def _write(report, fmt, fh):
    # json.dump streams its chunks to fh; dumps would join them first
    if fmt == "json":
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
        return
    rows = []
    _flatten("", report, rows)
    writer = csv.writer(fh)
    writer.writerow(["key", "value"])
    writer.writerows(rows)


_DEFAULTS = {
    "out": None,
    "window": "0..6",
    "budget": 100_000,
    "cap": 10_000,
    "seed": None,
    "format": "json",
}


class _RejectedArgv(Exception):
    """argparse rejected the command line; the message is its own."""


class _Parser(argparse.ArgumentParser):
    # Raise instead of exiting, so a rejected argv still gets a report;
    # subparsers are built from this class too.
    def error(self, message):
        raise _RejectedArgv(message)


def build_parser():
    # SUPPRESS keeps a subparser from clobbering globals given before the
    # subcommand; missing values are filled from _DEFAULTS after parsing.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--out", default=argparse.SUPPRESS,
        help="write the report to this file",
    )
    common.add_argument(
        "--window", default=argparse.SUPPRESS,
        help="degree window, e.g. 0..6 or 4 (default 0..6)",
    )
    common.add_argument("--budget", type=int, default=argparse.SUPPRESS)
    common.add_argument("--cap", type=int, default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument(
        "--format", choices=("json", "csv"), default=argparse.SUPPRESS
    )

    p = _Parser(
        prog="barloop", description=__doc__, parents=[common],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        sp = sub.add_parser(name, parents=[common], help=help_text)
        sp.set_defaults(fn=fn)
        return sp

    sp = add("homology", cmd_homology, "homology of the chains of a complex")
    sp.add_argument("input")
    sp = add("bar", cmd_bar, "bar construction of a named algebra")
    sp.add_argument("input")
    sp = add("cobar", cmd_cobar, "cobar construction of the chains")
    sp.add_argument("input")
    sp = add(
        "extended-cobar", cmd_extended_cobar,
        "cobar with the 1-simplex group-likes inverted",
    )
    sp.add_argument("input")
    sp = add("loopgroup", cmd_loopgroup, "loop group levels of a complex")
    sp.add_argument("input")
    sp.add_argument("--hi", type=int, default=None, help="top level")
    sp = add("pi1", cmd_pi1, "fundamental group presentation and completion")
    sp.add_argument("input")
    sp = add("weq", cmd_weq, "equivalence verdict for a monoid map")
    sp.add_argument("source")
    sp.add_argument("target")
    sp.add_argument(
        "--images", help="comma separated image indices defining the map"
    )
    sp = add("paper-suite", cmd_paper_suite, "run the bundled checks")
    sp.add_argument(
        "--case", default="all", choices=["all"] + sorted(_CASES),
    )
    return p


def _report(command, params, inputs, outputs, certificates, code, error,
            elapsed_ms):
    report = {
        "tool": {
            "name": "barloop",
            "version": __version__,
        },
        "command": command,
        "params": params,
        "inputs": {k: _sha(v) for k, v in inputs.items()},
        "outputs": outputs,
        "certificates": certificates,
        "exit_code": code,
        "timings": {"total_ms": round(elapsed_ms, 3)},
    }
    if error is not None:
        report["error"] = error
    return report


def run(argv):
    t0 = time.perf_counter()
    try:
        args = build_parser().parse_args(argv)
    except _RejectedArgv as e:
        error = {"kind": "invalid-input", "message": str(e)}
        elapsed_ms = (time.perf_counter() - t0) * 1000.0
        report = _report(None, None, {}, {}, [], 2, error, elapsed_ms)
        _write(report, "json", sys.stdout)
        return 2
    for key, value in _DEFAULTS.items():
        if not hasattr(args, key):
            setattr(args, key, value)
    try:
        for name in ("budget", "cap"):
            if getattr(args, name) < 0:
                raise ValueError(f"--{name} must not be negative")
        hi = _parse_window(args.window)
        code, outputs, certificates, inputs = args.fn(args, hi)
        error = None
    except _INVALID_INPUT as e:
        code, outputs, certificates, inputs = 2, {}, [], {}
        # str() of a KeyError is the repr of its message
        keyed = isinstance(e, KeyError) and e.args
        error = {"kind": "invalid-input",
                 "message": str(e.args[0] if keyed else e)}
    except BarloopError as e:
        code, outputs, certificates, inputs = 1, {}, [], {}
        error = {"kind": "check-failed", "message": str(e)}
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    params = {
        "window": args.window,
        "budget": args.budget,
        "cap": args.cap,
        "seed": args.seed,
    }
    report = _report(args.command, params, inputs, outputs, certificates,
                     code, error, elapsed_ms)
    if args.out:
        # An unwritable --out is invalid input; the report goes to stdout.
        try:
            with open(args.out, "w") as fh:
                _write(report, args.format, fh)
        except OSError as e:
            code = report["exit_code"] = 2
            report["error"] = {
                "kind": "invalid-input",
                "message": f"cannot write the report to {args.out}: "
                f"{e.strerror or e}",
            }
        else:
            return code
    _write(report, args.format, sys.stdout)
    return code


def main(argv=None):
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
