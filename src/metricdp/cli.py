"""Command-line front end: load spaces, maps, and measures, build and
calibrate mechanisms, sample, audit, and emit JSON reports.

Exit status contract:
  0  success (and the audited quantity passed --threshold, if given)
  1  the audited quantity failed the user-supplied --threshold
  2  parse or schema errors (bad flags, unreadable or malformed files,
     a report that cannot be written); no report is written
  3  domain precondition errors (invalid metric, degenerate measure,
     unmet audit hypotheses, an input too large to build in memory); an
     error report is written

Every report is a JSON envelope {"command", "version", "params",
"result"} echoing the full configuration, so identical invocations
produce byte-identical files and any report can be fed back into a
later command (loaders unwrap the envelope).
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from dataclasses import asdict

from . import __version__
from . import formats
from .audit import audit_privacy, audit_utility, impossibility_lower_bound
from .covering import covering_measure, greedy_net
from .errors import DomainError, InvalidMetricError, SchemaError
from .measures import uniform_measure
from .mechanisms import (
    MAX_DRAWS,
    ExpMechParams,
    calibrate_beta,
    privacy_bound,
    sample_many,
    tabulate,
    tradeoff_upper_bound,
)
from .spaces import discrete_space, grid_space, identity_map

DEMO_SPACES = {
    "grid3": lambda: grid_space(3),
    "grid5": lambda: grid_space(5),
    "grid9": lambda: grid_space(9),
    "discrete4": lambda: discrete_space(4),
    "discrete8": lambda: discrete_space(8),
    "singleton": lambda: grid_space(1),
}


def _float(text: str) -> float:
    """Type of every float flag: a float, infinities included, never NaN."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if math.isnan(value):
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process and shared
    by every ``main`` call: do not mutate it."""
    p = argparse.ArgumentParser(
        prog="metricdp",
        description="Build, calibrate, sample, and audit distance-scaled "
        "private mechanisms on finite metric spaces.",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True, metavar="command")

    def cmd(name, help_text, handler):
        sp = sub.add_parser(name, help=help_text)
        # argparse reads a token this private pattern matches as a value; its
        # own misses "-inf".  Checked on CPython 3.10 to 3.13, which use it so;
        # TestNegativeFlagValues.test_the_next_token_form fails if one does not.
        sp._negative_number_matcher = re.compile(r"-\.?\d|-inf|-nan", re.IGNORECASE)
        sp.add_argument("--out", help="write the JSON report here (default: stdout)")
        sp.set_defaults(handler=handler)
        return sp

    sp = cmd("validate", "check a space file against the metric axioms", cmd_validate)
    sp.add_argument("--space", required=True, help="space file or generator JSON")

    sp = cmd("net", "greedy covering net at a given radius", cmd_net)
    sp.add_argument("--space", required=True)
    sp.add_argument("--r", type=_float, required=True, help="covering radius")

    sp = cmd("build-measure", "hierarchical base measure that is positive on every ball", cmd_build_measure)
    sp.add_argument("--space", required=True)
    sp.add_argument("--L", type=int, help="number of levels (default: resolve the space)")

    sp = cmd("calibrate", "noise parameter beta meeting a (gamma, delta) utility target", cmd_calibrate)
    sp.add_argument("--gamma", type=_float, required=True, help="target output radius")
    sp.add_argument("--delta", type=_float, required=True, help="allowed failure probability")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--m", type=_float, help="ball-mass floor of the normalized base at gamma/2")
    group.add_argument("--measure", help="measure file; its normalized modulus at gamma/2 is used")

    sp = cmd("tabulate", "exact mechanism table for a map, base measure, and beta", cmd_tabulate)
    sp.add_argument("--map", required=True, help="map file (domain, codomain, table)")
    sp.add_argument("--measure", required=True, help="base measure file")
    sp.add_argument("--beta", type=_float, required=True)

    sp = cmd("sample", "seeded draws from the mechanism at one input", cmd_sample)
    sp.add_argument("--map", required=True)
    sp.add_argument("--measure", required=True)
    sp.add_argument("--beta", type=_float, required=True)
    sp.add_argument("--input", required=True, help="input label to run the mechanism at")
    sp.add_argument("--seed", type=int, required=True, help="generator seed (no silent default)")
    sp.add_argument("--count", type=int, default=1, help=f"number of draws, at most {MAX_DRAWS}")

    sp = cmd("audit-privacy", "exact smallest epsilon a mechanism table satisfies", cmd_audit_privacy)
    sp.add_argument("--mech", required=True, help="mechanism table file")
    sp.add_argument("--space", required=True, help="input space file (supplies the metric)")
    sp.add_argument("--per-pair", action="store_true",
                    help="add the full per-pair maxima matrix (0 where a pair constrains "
                         "nothing, inf where x's row exceeds its zero-distance twin z's); "
                         "epsilon_max and witness are unchanged")
    sp.add_argument("--threshold", type=_float, help="pass iff epsilon_max <= threshold")

    sp = cmd("audit-utility", "worst-case in-ball mass at radius gamma", cmd_audit_utility)
    sp.add_argument("--mech", required=True)
    sp.add_argument("--map", required=True)
    sp.add_argument("--gamma", type=_float, required=True)
    sp.add_argument("--threshold", type=_float, help="pass iff min_mass >= threshold")

    sp = cmd("lower-bound", "privacy floor forced by disjoint well-served balls", cmd_lower_bound)
    sp.add_argument("--mech", required=True)
    sp.add_argument("--map", required=True)
    sp.add_argument("--centers", required=True, help="comma-separated input labels; first is the reference")
    sp.add_argument("--r", type=_float, required=True, help="target ball radius")
    sp.add_argument("--utility-threshold", type=_float, default=0.5,
                    help="required per-ball mass (default 0.5)")
    sp.add_argument("--threshold", type=_float, help="pass iff eps_lower >= threshold")

    sp = cmd("tradeoff", "privacy level sufficient for a (gamma, delta) target on a base", cmd_tradeoff)
    sp.add_argument("--measure", required=True)
    sp.add_argument("--gamma", type=_float, required=True)
    sp.add_argument("--delta", type=_float, required=True)

    sp = cmd("demo", "end-to-end pipeline on a built-in space, plus the "
                     "discrete-family lower-bound table", cmd_demo)
    sp.add_argument("--space", choices=sorted(DEMO_SPACES), default="grid5")
    sp.add_argument("--gamma", type=_float, default=0.5)
    sp.add_argument("--delta", type=_float, default=0.1)

    return p


def cmd_validate(args):
    try:
        return {"ok": True, "points": len(formats.space_from_doc(args.space)), "violations": []}, 0
    except InvalidMetricError as exc:
        # Generators pass the validator; only an explicit document, which has labels, fails it.
        labels = formats.load_doc(args.space)["labels"]
        violations = [
            {"axiom": v.axiom, "witness": [labels[i] for i in v.witness], "detail": v.detail}
            for v in exc.report.violations
        ]
    return {"ok": False, "points": len(labels), "violations": violations}, 3


def cmd_net(args):
    space = formats.space_from_doc(args.space)
    centers = greedy_net(space, args.r)
    return {"radius": args.r, "size": len(centers), "centers": centers}, 0


def cmd_build_measure(args):
    space = formats.space_from_doc(args.space)
    measure, hier = covering_measure(space, depth=args.L)
    result = formats.measure_to_doc(measure)
    result["total_mass"] = measure.total_mass
    result["hierarchy"] = formats.hierarchy_to_doc(hier)
    return result, 0, (formats.measure_from_doc, measure)


def cmd_calibrate(args):
    modulus = args.m
    if modulus is not None and modulus > 1:  # a floor of a normalized measure's mass
        raise ValueError(f"--m must be at most 1, got {modulus}")
    if modulus is None:
        base = formats.measure_from_doc(args.measure)
        modulus = tradeoff_upper_bound(base, args.gamma, args.delta).modulus
    beta = calibrate_beta(args.gamma, args.delta, modulus)
    return {"beta": beta, "modulus": modulus}, 0


def _mechanism_params(args):
    lmap = formats.map_from_doc(args.map)
    base = formats.measure_from_doc(args.measure, space=lmap.codomain)
    return ExpMechParams(base=base, beta=args.beta, query=lmap), lmap


def cmd_tabulate(args):
    params, lmap = _mechanism_params(args)
    mech = tabulate(params)
    result = formats.table_to_doc(mech)
    result["lipschitz_c"] = lmap.constant
    result["privacy_bound"] = privacy_bound(args.beta, lmap.constant)
    rows = list(mech.input_space.labels), list(mech.output_space.labels), mech.probs
    return result, 0, (formats._table_rows, rows)


def cmd_sample(args):
    params, _ = _mechanism_params(args)
    outputs = sample_many(params, args.input, args.seed, args.count)
    return {"input": args.input, "outputs": outputs}, 0


def _thresholded(result, passed, threshold):
    if threshold is None:
        return result, 0
    result["threshold"] = threshold
    result["passed"] = bool(passed)
    return result, (0 if passed else 1)


def cmd_audit_privacy(args):
    space = formats.space_from_doc(args.space)
    mech = formats.table_from_doc(args.mech, input_space=space)
    rep = audit_privacy(mech, include_per_pair=args.per_pair)
    result = asdict(rep)
    if not args.per_pair:
        del result["per_pair_max"]
    ok = args.threshold is None or rep.epsilon_max <= args.threshold
    return _thresholded(result, ok, args.threshold)


def _map_and_table(args):
    lmap = formats.map_from_doc(args.map)
    mech = formats.table_from_doc(args.mech, input_space=lmap.domain,
                                  output_space=lmap.codomain)
    return lmap, mech


def cmd_audit_utility(args):
    lmap, mech = _map_and_table(args)
    rep = audit_utility(mech, lmap, args.gamma)
    result = asdict(rep)
    ok = args.threshold is None or rep.min_mass >= args.threshold
    return _thresholded(result, ok, args.threshold)


def cmd_lower_bound(args):
    lmap, mech = _map_and_table(args)
    centers = [c for c in args.centers.split(",") if c]
    rep = impossibility_lower_bound(mech, lmap, centers, args.r,
                                    utility_threshold=args.utility_threshold)
    result = asdict(rep)
    result["witness_center"] = centers[rep.witness_index]
    ok = args.threshold is None or rep.eps_lower >= args.threshold
    return _thresholded(result, ok, args.threshold)


def cmd_tradeoff(args):
    base = formats.measure_from_doc(args.measure)
    return asdict(tradeoff_upper_bound(base, args.gamma, args.delta)), 0


def pipeline_demo(space_name: str, gamma: float, delta: float) -> dict:
    """End-to-end composition on one built-in space: build the hierarchical
    base, read off its modulus, calibrate beta, tabulate the identity
    mechanism, and audit both guarantees.  Always appends the lower-bound
    table for the discrete family, showing the audited floor beating
    ln(n/2) once per size."""
    space = DEMO_SPACES[space_name]()
    measure, hier = covering_measure(space)
    bound = tradeoff_upper_bound(measure, gamma, delta)
    query = identity_map(space)
    mech = tabulate(ExpMechParams(base=measure, beta=bound.beta, query=query))
    priv = audit_privacy(mech)
    util = audit_utility(mech, query, gamma)

    lower_rows = []
    for n in (4, 8, 16, 32):
        sp = discrete_space(n)
        q = identity_map(sp)
        b = math.log(2 * (n - 1))  # keeps every self-ball mass at 2/3
        tab = tabulate(ExpMechParams(base=uniform_measure(sp), beta=b, query=q))
        rep = impossibility_lower_bound(tab, q, list(sp.labels), 0.5)
        lower_rows.append({
            "n": n,
            "beta": b,
            "eps_lower": rep.eps_lower,
            "floor": math.log(n / 2),
        })

    return {
        "space": space_name,
        "hierarchy": formats.hierarchy_to_doc(hier),
        "measure": {"weights": measure.as_dict(), "total_mass": measure.total_mass},
        "modulus": bound.modulus,
        "beta": bound.beta,
        "privacy_bound": privacy_bound(bound.beta, query.constant),
        "epsilon_audited": priv.epsilon_max,
        "utility_min_mass": util.min_mass,
        "lower_bound_table": lower_rows,
    }


def cmd_demo(args):
    return pipeline_demo(args.space, args.gamma, args.delta), 0


def _envelope(args, result: dict) -> dict:
    params = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("command", "handler", "out") and v is not None
    }
    return {
        "command": args.command,
        "version": __version__,
        "params": params,
        "result": result,
    }


def _emit(args, result: dict, code: int, built=None) -> int:
    """Write the report; return ``code``, or 2 if it cannot be written.
    ``built`` pairs a loader with the object it would build from the
    report, filed for that loader once the report is written with --out."""
    doc = _envelope(args, result)
    try:
        if args.out:
            text = formats.write_doc(args.out, doc)
            if built:
                loader, obj = built
                loader.keep(text, obj)
        else:
            sys.stdout.write(formats.dump_doc(doc))
    except OSError as exc:
        print(f"metricdp: error: cannot write {args.out or 'stdout'}: {exc.strerror}", file=sys.stderr)
        return 2
    return code


def main(argv=None) -> int:
    """Run one command; repeated calls in one process share one parser."""
    args = build_parser().parse_args(argv)
    try:
        # A handler may add what the report's loader would build from it.
        result, code, *built = args.handler(args)
    except SchemaError as exc:
        # Malformed input: report nothing, mirror argparse's own exit code.
        print(f"metricdp: error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, ValueError, MemoryError) as exc:
        print(f"metricdp: error: {exc}", file=sys.stderr)
        result, code, built = {"error": str(exc), "error_kind": type(exc).__name__}, 3, ()
    return _emit(args, result, code, *built)


if __name__ == "__main__":
    sys.exit(main())
