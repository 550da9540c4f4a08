"""Command-line surface: solve, verify, gen, compare.

Exit codes: 0 success, 2 malformed or unreadable input (including a
``--config-budget`` below 1, a negative ``--exact-limit``, a ``gen
--param`` name the family does not take, reported with the names it does
take, a cost table that ``afptas`` cannot normalize, such as an all-zero
one, and a number too long for ``sys.get_int_max_str_digits()``), 3 infeasible
or failed verification (including a claimed cost that does not match, an
infeasible master program, a numerical failure of the LP solver or a broken
invariant of the scheme), 4 solver limit exceeded (including running out of
memory, reported as one ``solver limit: out of memory`` line).  Every
failure is reported on stderr; stdout carries results only.  ``compare``
exits 2 on a negative ``--exact-limit`` or a malformed ``--eps`` before
writing any row, as ``solve`` does; it reports every other failure in the
row's ``error`` field and carries on, a packing that fails verification
against every item of the instance included.

``compare`` computes each exact optimum once per (instance, cost spec): the
``exact`` row and the ratio of every row of that instance and spec share the
one solve, and the ``exact`` row's ``runtime_s`` is the time of that solve.
An instance over ``--exact-limit`` or over the exact solver's hard cap gets
no exact baseline.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from . import generators
from .afptas import run_afptas
from .core import (
    COST_TOL,
    CostFunction,
    FractionalPacking,
    eval_cost,
    eval_fractional_cost,
    verify_packing,
    violation_lines,
)
from .errors import (
    InfeasibleMasterError,
    InvariantError,
    NumericalFailureError,
    SolverLimitError,
)
from .exact import DEFAULT_LIMIT_N, HARD_LIMIT_N, exact_opt
from .fractional import fnfi
from .heuristics import best_fit, first_fit, lower_bound_fk, match_half, next_fit
from .serialize import (
    ParseError,
    instance_digest,
    parse_cost_spec,
    read_instance,
    read_solution,
    write_instance,
    write_solution,
)
from .structures import DEFAULT_CONFIG_BUDGET

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_VERIFY_FAILED = 3
EXIT_SOLVER_LIMIT = 4

ALGORITHMS = (
    "nf-inc", "nf-dec", "ff-inc", "ff-dec", "bf-inc", "bf-dec",
    "mh", "fnfi", "exact", "afptas",
)
SOLVER_FAILURES = (InfeasibleMasterError, NumericalFailureError, InvariantError)


def parse_eps(text: str) -> Fraction:
    parts = text.split("/")
    if len(parts) != 2 or parts[0] != "1" or not parts[1].isdecimal():
        raise ParseError('eps must look like "1/k" with integer k >= 3')
    try:
        k = int(parts[1])
    except ValueError as exc:  # more digits than sys.get_int_max_str_digits()
        raise ParseError(f"eps: {exc}") from exc
    if k < 3:
        raise ParseError("eps must be at most 1/3")
    return Fraction(1, k)


def _run_algorithm(name, inst, f, eps, exact_limit, config_budget=DEFAULT_CONFIG_BUDGET):
    """Returns (packing, cost, provenance-or-None)."""
    simple = {
        "nf-inc": lambda: next_fit(inst, "increasing"),
        "nf-dec": lambda: next_fit(inst, "decreasing"),
        "ff-inc": lambda: first_fit(inst, "increasing"),
        "ff-dec": lambda: first_fit(inst, "decreasing"),
        "bf-inc": lambda: best_fit(inst, "increasing"),
        "bf-dec": lambda: best_fit(inst, "decreasing"),
        "mh": lambda: match_half(inst),
    }
    if name in simple:
        packing = simple[name]()
        return packing, eval_cost(f, packing), None
    if name == "fnfi":
        packing = fnfi(inst)
        return packing, eval_fractional_cost(f, packing), None
    if name == "exact":
        packing, cost = exact_opt(inst, f, exact_limit)
        return packing, cost, None
    if name == "afptas":
        if eps is None:
            raise ParseError("afptas needs --eps")
        try:
            result = run_afptas(inst, f, eps, config_budget=config_budget)
        except ValueError as exc:  # input the scheme rejects, e.g. an all-zero table
            raise ParseError(str(exc)) from exc
        return result.packing, eval_cost(f, result.packing), result.provenance
    raise ParseError(f"unknown algorithm {name!r}")


def _check_exact_limit(limit: int) -> None:
    if limit < 0:
        raise ParseError("--exact-limit must be at least 0")


def _over_all_items(inst, packing):
    """The packing declared over every item of the instance, so that
    verification reports an item the packing left out as missing."""
    return replace(packing, items=frozenset(range(inst.n)))


def _verification_failure(verdict) -> str:
    return "solver output failed verification: " + "; ".join(violation_lines(verdict)[:3])


def cmd_solve(args) -> int:
    if args.config_budget < 1:
        raise ParseError("--config-budget must be at least 1")
    _check_exact_limit(args.exact_limit)
    with open(args.instance) as fh:
        inst = read_instance(fh)
    f = parse_cost_spec(args.cost, inst.n)
    eps = parse_eps(args.eps) if args.eps else None
    started = time.perf_counter()
    packing, cost, provenance = _run_algorithm(
        args.alg, inst, f, eps, args.exact_limit, args.config_budget
    )
    elapsed = time.perf_counter() - started
    verdict = verify_packing(inst, _over_all_items(inst, packing))
    if not verdict.ok:
        print(f"internal error: {_verification_failure(verdict)}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    out_path = args.out or (args.instance + f".{args.alg}.solution")
    with open(out_path, "w") as fh:
        write_solution(packing, inst, args.alg, args.cost, cost, fh)
    if provenance is not None:
        prov_path = args.provenance_out or (out_path + ".provenance.json")
        with open(prov_path, "w") as fh:
            json.dump(provenance.to_dict(), fh, indent=2, default=str)
        print(f"provenance: {prov_path}")
    print(f"algorithm: {args.alg}")
    print(f"cost: {cost}")
    print(f"bins: {packing.num_bins}")
    print(f"runtime_s: {elapsed:.3f}")
    print(f"solution: {out_path}")
    return EXIT_OK


def cmd_verify(args) -> int:
    with open(args.instance) as fh:
        inst = read_instance(fh)
    with open(args.solution) as fh:
        sol = read_solution(fh)
    if sol["digest"] != instance_digest(inst):
        print("verification failed: instance digest mismatch", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    spec = args.cost or sol["cost_spec"]
    f = parse_cost_spec(spec, inst.n)
    packing = _over_all_items(inst, sol["packing"])
    if isinstance(packing, FractionalPacking):
        recomputed = eval_fractional_cost(f, packing)
    else:
        recomputed = eval_cost(f, packing)
    verdict = verify_packing(inst, packing)
    if not verdict.ok:
        for line in violation_lines(verdict):
            print(f"violation: {line}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    if not abs(recomputed - sol["cost"]) <= COST_TOL:  # also rejects a claimed NaN
        print(
            f"verification failed: claimed cost {sol['cost']} but recomputed {recomputed}",
            file=sys.stderr,
        )
        return EXIT_VERIFY_FAILED
    print(f"ok: cost {recomputed}, bins {packing.num_bins}")
    return EXIT_OK


def cmd_gen(args) -> int:
    params: dict[str, int] = {}
    for kv in args.param or []:
        key, _, val = kv.partition("=")
        if not val:
            raise ParseError(f"--param needs key=value, got {kv!r}")
        try:
            params[key] = int(val)
        except ValueError as exc:
            raise ParseError(f"parameter {key!r} must be an integer") from exc
    try:
        inst = generators.generate(args.family, params, args.seed)
    except KeyError as exc:
        raise ParseError(f"family {args.family!r} is missing parameter {exc}") from exc
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    out = args.out or f"{args.family}.instance"
    with open(out, "w") as fh:
        write_instance(inst, fh)
    print(f"wrote {out} ({inst.n} items)")
    return EXIT_OK


def _split_cost_specs(text: str) -> list[str]:
    """Split a comma-separated list of cost specs.  A token that starts with
    neither ``fq:`` nor ``table:`` continues the preceding ``table:`` spec,
    so ``fq:3,table:0,1,2`` is two specs."""
    specs: list[str] = []
    for tok in text.split(","):
        if specs and specs[-1].startswith("table:") and not tok.startswith(("fq:", "table:")):
            specs[-1] += "," + tok
        else:
            specs.append(tok)
    return specs


def _compare_rows(args, eps):
    algs = args.algs.split(",")
    costs = _split_cost_specs(args.costs)
    for path in args.instances:
        try:
            with open(path) as fh:
                inst = read_instance(fh)
        except (OSError, ParseError) as exc:
            for alg in algs:
                for spec in costs:
                    yield {"instance": path, "algorithm": alg, "cost_spec": spec,
                           "error": str(exc)}
            continue
        optima: dict[str, tuple] = {}
        tables: dict[str, CostFunction | Exception] = {}
        for alg in algs:
            for spec in costs:
                row = {"instance": path, "algorithm": alg, "cost_spec": spec}
                try:
                    f = _cost_table(tables, spec, inst.n)
                    _fill_row(row, args, inst, alg, spec, f, optima, eps)
                except (ParseError, ValueError, SolverLimitError, *SOLVER_FAILURES) as exc:
                    row["error"] = str(exc)
                except MemoryError as exc:
                    row["error"] = _out_of_memory(exc)
                yield row


def _out_of_memory(exc: MemoryError) -> str:
    return f"out of memory: {exc}" if str(exc) else "out of memory"


def _cost_table(tables, spec, n):
    """The cost table of ``spec``, parsed on the first request and shared by
    every later row of the same instance; a spec that does not parse fails
    each of its rows with the same error."""
    if spec not in tables:
        try:
            tables[spec] = parse_cost_spec(spec, n)
        except ValueError as exc:  # a ParseError among them
            tables[spec] = exc
    found = tables[spec]
    if isinstance(found, Exception):
        raise found.with_traceback(None)
    return found


def _exact_optimum(optima, inst, spec, f, limit):
    """(packing, cost, seconds) of the exact optimum under ``spec``, solved on
    the first request and shared by every later row of the same instance."""
    if spec not in optima:
        started = time.perf_counter()
        packing, cost = exact_opt(inst, f, limit)
        optima[spec] = (packing, cost, time.perf_counter() - started)
    return optima[spec]


def _fill_row(row, args, inst, alg, spec, f, optima, eps) -> None:
    """Fill one compare row in place; what it raises becomes the row's error."""
    if alg == "exact":
        packing, cost, seconds = _exact_optimum(optima, inst, spec, f, args.exact_limit)
    else:
        started = time.perf_counter()
        packing, cost, _ = _run_algorithm(alg, inst, f, eps, args.exact_limit)
        seconds = time.perf_counter() - started
    verdict = verify_packing(inst, _over_all_items(inst, packing))
    if not verdict.ok:
        row["error"] = _verification_failure(verdict)
        return
    row["cost"] = cost
    row["bins"] = packing.num_bins
    row["runtime_s"] = round(seconds, 6)
    baseline = None
    if inst.n <= min(args.exact_limit, HARD_LIMIT_N):
        _, baseline, _ = _exact_optimum(optima, inst, spec, f, args.exact_limit)
        row["baseline"] = "exact"
    elif spec.startswith("fq:"):
        baseline = lower_bound_fk(inst, int(spec[3:]))
        row["baseline"] = "overflowed-lower-bound"
    if baseline:
        row["ratio"] = cost / baseline


def _aggregate_rows(rows):
    grouped: dict[tuple[str, str], list[float]] = {}
    for row in rows:
        if "ratio" in row:
            grouped.setdefault((row["algorithm"], row["cost_spec"]), []).append(
                row["ratio"]
            )
    out = []
    for (alg, spec), ratios in grouped.items():
        out.append(
            {
                "instance": "(aggregate)",
                "algorithm": alg,
                "cost_spec": spec,
                "baseline": f"mean-ratio/{len(ratios)}",
                "ratio": sum(ratios) / len(ratios),
            }
        )
        out.append(
            {
                "instance": "(aggregate)",
                "algorithm": alg,
                "cost_spec": spec,
                "baseline": "max-ratio",
                "ratio": max(ratios),
            }
        )
    return out


def cmd_compare(args) -> int:
    _check_exact_limit(args.exact_limit)
    eps = parse_eps(args.eps) if args.eps else None
    rows = list(_compare_rows(args, eps))
    rows.extend(_aggregate_rows(rows))
    fields = ["instance", "algorithm", "cost_spec", "cost", "bins", "runtime_s",
              "baseline", "ratio", "error"]
    if args.format == "json":
        text = json.dumps(rows, indent=2, default=str)
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=fields, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out} ({len(rows)} rows)")
    else:
        print(text, end="")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: its groups, actions
    and formatters refer to each other, so each new one would be garbage
    only the cycle collector frees."""
    ap = argparse.ArgumentParser(
        prog="concavebp",
        description="Bin packing with concave, cardinality-dependent bin costs",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="pack one instance with one algorithm")
    p.add_argument("instance")
    p.add_argument("--alg", required=True, choices=ALGORITHMS)
    p.add_argument("--cost", required=True, help="fq:<q> or table:<v0,v1,...>")
    p.add_argument("--eps", help='accuracy for afptas, e.g. "1/3"')
    p.add_argument("--out")
    p.add_argument("--provenance-out")
    p.add_argument("--exact-limit", type=int, default=DEFAULT_LIMIT_N)
    p.add_argument(
        "--config-budget",
        type=int,
        default=DEFAULT_CONFIG_BUDGET,
        help="cap on enumerated bin configurations for afptas",
    )
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="re-verify a solution file")
    p.add_argument("instance")
    p.add_argument("solution")
    p.add_argument("--cost", help="override the cost spec stored in the solution")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="generate an instance")
    p.add_argument("family", choices=generators.FAMILIES)
    p.add_argument("--param", action="append", help="key=value, e.g. K=4")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("compare", help="cost/ratio table over instances x algorithms")
    p.add_argument("--instances", nargs="+", required=True)
    p.add_argument("--algs", required=True, help="comma-separated algorithm names")
    p.add_argument("--costs", required=True, help="comma-separated fq:/table: cost specs")
    p.add_argument("--eps", help="accuracy for afptas rows")
    p.add_argument("--exact-limit", type=int, default=DEFAULT_LIMIT_N)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_compare)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except SolverLimitError as exc:
        print(f"solver limit: {exc}", file=sys.stderr)
        return EXIT_SOLVER_LIMIT
    except MemoryError as exc:
        print(f"solver limit: {_out_of_memory(exc)}", file=sys.stderr)
        return EXIT_SOLVER_LIMIT
    except SOLVER_FAILURES as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED


if __name__ == "__main__":
    sys.exit(main())
