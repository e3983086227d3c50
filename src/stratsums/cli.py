"""Command-line front end.

Subcommands (one per capability): sum, grid, verify, weights, catalog,
discrepancy, sieve, dual.  Exit codes: 0 success/PASS, 1 check failed,
2 parse error, 3 cap exceeded, 4 invalid chain, 5 recurrence rank too high.
All emitted JSON carries a "schema": 1 field; CSV columns are documented in
--help strings.  Randomized spot checks seed from --seed (default 0), so
output is deterministic for a fixed configuration.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import random
import sys

from .applications import (
    DiscrepancySpec,
    SieveSpec,
    erdos_turan_rhs,
    et_terms_to_csv,
    sieve_buckets_to_csv,
    sieve_double_sum,
)
from .catalog import CATALOG, build_entry
from .errors import (
    CapExceeded,
    ChainContainmentError,
    DEFAULT_GRID_CAP,
    ParseError,
    RankTooHigh,
)
from .ffield import FieldCtx, is_prime
from .polyring import AffineVariety, parse_poly
from .spectral import extension_sum, extension_sums, fit_recurrence, weight_check
from .strat import KLDatum, VarietyChain, verify_kl
from .sumengine import SumSpec, complete_grid, eval_sum

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_CHAIN = 4
EXIT_RANK = 5


def _parse_int_list(text: str):
    return tuple(int(t) for t in text.split(",") if t.strip() != "")


def _parse_float_list(text: str):
    return tuple(float(t) for t in text.split(",") if t.strip() != "")


def _parse_primes(text: str):
    primes = _parse_int_list(text)
    for p in primes:
        if not is_prime(p):
            raise ParseError(f"{p} is not prime")
    return primes


def _check_config(args, tol: float | None = None):
    if args.cap <= 0:
        raise ParseError("--cap must be positive")
    if tol is not None and not (0 < tol < 1):
        raise ParseError("--tol must lie in (0, 1)")


def _build_spec(args) -> SumSpec:
    variety = None
    nvars = args.n
    if getattr(args, "variety", None):
        gens = [g for g in args.variety.split(",") if g.strip()]
        if nvars is None:
            nvars = max(parse_poly(g).nvars for g in gens)
        # a generator in more variables than --n is a parse error, as for --f
        variety = AffineVariety(nvars, [parse_poly(g, nvars=nvars) for g in gens])
    f = None
    if getattr(args, "f", None):
        f = parse_poly(args.f, nvars=nvars)
        nvars = f.nvars
    twist = None
    if getattr(args, "g", None):
        if not args.chi_order:
            raise ParseError("--g needs --chi-order")
        g = parse_poly(args.g, nvars=nvars)
        nvars = g.nvars
        twist = (g, args.chi_order, args.chi_index)
    if nvars is None:
        raise ParseError("cannot infer the number of variables; pass --n")
    return SumSpec(nvars=nvars, variety=variety, additive_phase=f,
                   mult_twist=twist, torus=getattr(args, "torus", False))


def cmd_sum(args) -> int:
    spec = _build_spec(args)
    _check_config(args)
    ctx = FieldCtx(args.p, args.m, cap=args.cap)
    h = _parse_int_list(args.h) if args.h else None
    if h is not None and len(h) != spec.nvars:
        raise ParseError(f"--h needs {spec.nvars} components")
    out = extension_sum(dataclasses.replace(spec, linear_form=h), ctx, cap=args.cap)
    if out.cyclo is not None:
        print(f"exact: {out.cyclo}  (zeta_{args.p} counts {out.cyclo.counts})")
    print(f"value: {out.value.real:.12g} + {out.value.imag:.12g}i")
    print(f"abs:   {abs(out.value):.12g}")
    print(f"points: {out.n_points}  twist_zeros: {out.twist_zeros}")
    if args.json:
        payload = {
            "schema": 1, "p": args.p, "m": args.m,
            "value": {"re": out.value.real, "im": out.value.imag},
            "abs": abs(out.value),
            "cyclo_counts": list(out.cyclo.counts) if out.cyclo else None,
            "points": out.n_points, "twist_zeros": out.twist_zeros,
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=1)
    return EXIT_OK


def cmd_grid(args) -> int:
    spec = _build_spec(args)
    _check_config(args)
    grid = complete_grid(spec, args.p, sign=args.sign, cap=args.cap)
    absv = grid.abs_values()
    print(f"grid {args.p}^{spec.nvars}: max|S| = {absv.max():.6g}, "
          f"nonzero at {(absv > 1e-9).sum()} of {absv.size} parameters")
    if args.spot_check:
        rng = random.Random(args.seed)
        ctx = FieldCtx(args.p)
        worst = 0.0
        for _ in range(args.spot_check):
            h = tuple(rng.randrange(args.p) for _ in range(spec.nvars))
            ref = eval_sum(spec, ctx, h=h)
            worst = max(worst, abs(grid.value_at(h) - ref.value)
                        / max(1.0, abs(ref.value)))
        print(f"spot check ({args.spot_check} random h): max rel err {worst:.3g}")
        if worst > 1e-6:
            return EXIT_FAIL
    if args.csv:
        grid.to_csv(args.csv)
        print(f"wrote {args.csv}")
    if args.bin:
        grid.to_binary(args.bin)
        print(f"wrote {args.bin}")
    return EXIT_OK


def cmd_verify(args) -> int:
    primes = _parse_primes(args.p)
    chain = VarietyChain.load(args.chain, check_primes=primes)
    spec = _build_spec(args)
    if spec.nvars != chain.ambient:
        raise ParseError("spec and chain ambient dimensions differ")
    datum = KLDatum(chain=chain, N=args.N, C=args.C, d=args.d)
    all_pass = True
    for p in primes:
        grid = complete_grid(spec, p, cap=args.cap)
        report = verify_kl(datum, grid)
        print(report.table())
        if args.out:
            path = f"{args.out}.p{p}.json"
            report.save(path)
            print(f"wrote {path}")
        all_pass &= report.passed
    return EXIT_OK if all_pass else EXIT_FAIL


def cmd_weights(args) -> int:
    if args.kloosterman is not None:
        spec = SumSpec(nvars=1, trace_weight=("kloosterman_phase", args.kloosterman),
                       torus=True)
    else:
        spec = _build_spec(args)
        if args.half_twist:
            spec = dataclasses.replace(spec, half_twist=args.half_twist)
    _check_config(args, tol=args.tol)
    seq = extension_sums(spec, args.p, args.N, cap=args.cap)
    profile = fit_recurrence(seq, tol=args.tol)
    payload = profile.to_json_dict()
    print(json.dumps(payload, indent=1))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=1)
    if args.w_max is not None:
        passed, offenders = weight_check(profile, args.w_max)
        for rt, w, why in offenders:
            print(f"offender: root {rt:.6g}, weight {w}: {why}")
        print("weight check:", "PASS" if passed else "FAIL")
        return EXIT_OK if passed else EXIT_FAIL
    return EXIT_OK


def cmd_catalog(args) -> int:
    if args.action == "list":
        for name in sorted(CATALOG):
            print(name)
        return EXIT_OK
    params = {}
    if args.params:
        for kv in args.params.split(","):
            k, _, v = kv.partition("=")
            if ":" in v:
                params[k.strip()] = [int(t) for t in v.split(":")]
            else:
                try:
                    params[k.strip()] = int(v)
                except ValueError:
                    params[k.strip()] = v.strip()
    entry = build_entry(args.name, params)
    print(f"{entry.name}: ambient {entry.ambient}, d={entry.d}, "
          f"C={entry.C}, N={entry.N}")
    if entry.flagged:
        print(f"flagged: {entry.flagged}")
    if args.chain_out:
        if entry.chain is None:
            print("entry has no polynomial chain (mask-defined strata)")
        else:
            entry.chain.save(args.chain_out)
            print(f"wrote {args.chain_out}")
    all_pass = True
    if args.p:
        for p in _parse_primes(args.p):
            report = entry.verify(p)
            ok, rows = entry.check_expected(report)
            print(report.table())
            print(f"expected-exponent table at p={p}: "
                  + ("OK" if ok else f"MISMATCH {rows}"))
            if args.report_out:
                path = f"{args.report_out}.p{p}.json"
                report.save(path)
                print(f"wrote {path}")
            all_pass &= report.passed and ok
    return EXIT_OK if all_pass else EXIT_FAIL


def cmd_discrepancy(args) -> int:
    polys = [parse_poly(t) for t in args.polys.split(";") if t.strip()]
    nv = max(f.nvars for f in polys)
    polys = tuple(parse_poly(t, nvars=nv) for t in args.polys.split(";") if t.strip())
    spec = DiscrepancySpec(polys=polys, p=args.p, w=args.w,
                           alpha=_parse_float_list(args.alpha),
                           beta=_parse_float_list(args.beta))
    report = erdos_turan_rhs(spec, args.K)
    print(f"D = {report.D:.6g}")
    print(f"ET rhs (constant 1) = {report.rhs:.6g} "
          f"(leading {report.leading:.6g} + sums)")
    if report.classical_r1_bound is not None:
        print(f"classical r=1 bound = {report.classical_r1_bound:.6g}: "
              + ("holds" if report.classical_holds else "VIOLATED"))
    if args.csv:
        et_terms_to_csv(report, args.csv)
        print(f"wrote {args.csv}")
    if report.classical_holds is False:
        return EXIT_FAIL
    return EXIT_OK


def _default_sieve_chain(n: int) -> VarietyChain:
    prod = parse_poly("*".join(f"x{i + 1}" for i in range(n)), nvars=n)
    coords = [parse_poly(f"x{i + 1}", nvars=n) for i in range(n)]
    return VarietyChain(n, [AffineVariety(n, [prod]), AffineVariety(n, coords)])


def cmd_sieve(args) -> int:
    F = parse_poly(args.F)
    spec = SieveSpec(F=F, p=args.p, q=args.q, u_bound=args.u_bound)
    chain = VarietyChain.load(args.chain) if args.chain \
        else _default_sieve_chain(spec.nvars)
    result = sieve_double_sum(spec, chain)
    print(f"direct total    = {result.direct_total!r}")
    print(f"regrouped total = {result.regrouped_total!r}")
    print(f"partition identity: {'exact' if result.exact_match else 'BROKEN'}")
    print("j,k buckets (count, total, max, C^2-reference):")
    for b in result.buckets:
        print(f"  ({b.j},{b.k}): n={b.count}, total={b.total:.6g}, "
              f"max={b.max_term:.6g}, ref={b.reference:.6g}")
    if args.csv:
        sieve_buckets_to_csv(result, args.csv)
        print(f"wrote {args.csv}")
    return EXIT_OK if result.exact_match else EXIT_FAIL


def cmd_dual(args) -> int:
    from .strat import dual_variety_membership
    F = parse_poly(args.F)
    v = _parse_int_list(args.v)
    verdict = dual_variety_membership(F, v, args.p, max_ext=args.max_ext,
                                      sufficient_ext=args.sufficient_ext)
    print(verdict)
    return EXIT_OK


@functools.cache  # parse_args does not change the parser; one per process
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="stratsums",
        description="Exact exponential sums over finite fields: evaluation, "
                    "stratified bound verification, weight recovery.")
    ap.add_argument("--seed", type=int, default=0,
                    help="seed for randomized spot checks (default 0)")
    ap.add_argument("--cap", type=int, default=DEFAULT_GRID_CAP,
                    help="size cap for enumerations, grids and extensions "
                         "(default 2^26)")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_spec_flags(sp, with_twist=True):
        sp.add_argument("--n", type=int, default=None,
                        help="ambient dimension (inferred from polynomials "
                             "when omitted)")
        sp.add_argument("--f", default=None, help="additive phase polynomial")
        sp.add_argument("--variety", default=None,
                        help="comma-separated generator polynomials")
        sp.add_argument("--torus", action="store_true",
                        help="restrict to nonzero coordinates")
        if with_twist:
            sp.add_argument("--g", default=None,
                            help="multiplicative twist polynomial")
            sp.add_argument("--chi-order", type=int, default=None,
                            dest="chi_order")
            sp.add_argument("--chi-index", type=int, default=1,
                            dest="chi_index")

    sp = sub.add_parser("sum", help="evaluate one exponential sum exactly")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--m", type=int, default=1, help="extension degree")
    sp.add_argument("--h", default=None, help="linear form, e.g. 1,0,0")
    add_spec_flags(sp)
    sp.add_argument("--json", default=None, help="write result JSON here")
    sp.set_defaults(func=cmd_sum)

    sp = sub.add_parser("grid", help="complete S(h) grid over all h "
                                     "(CSV columns: h1..hn,re,im,abs)")
    sp.add_argument("--p", type=int, required=True)
    add_spec_flags(sp)
    sp.add_argument("--sign", type=int, default=1, choices=(1, -1),
                    help="transform sign convention")
    sp.add_argument("--spot-check", type=int, default=0, dest="spot_check",
                    help="compare this many random h against enumeration")
    sp.add_argument("--csv", default=None)
    sp.add_argument("--bin", default=None)
    sp.set_defaults(func=cmd_grid)

    sp = sub.add_parser("verify", help="check a chain file against sum grids")
    sp.add_argument("--chain", required=True, help="chain JSON file")
    sp.add_argument("--p", required=True, help="comma-separated primes")
    add_spec_flags(sp)
    sp.add_argument("--C", type=float, default=1.0)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--N", type=int, default=1)
    sp.add_argument("--out", default=None, help="report path prefix")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("weights", help="extension power sums -> weight profile")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--N", type=int, default=6, help="number of extensions")
    sp.add_argument("--kloosterman", type=int, default=None,
                    help="use the Kloosterman summand with this parameter")
    add_spec_flags(sp, with_twist=False)
    sp.add_argument("--half-twist", type=int, default=0, dest="half_twist")
    sp.add_argument("--w-max", type=float, default=None, dest="w_max")
    sp.add_argument("--tol", type=float, default=1e-6)
    sp.add_argument("--json", default=None)
    sp.set_defaults(func=cmd_weights)

    sp = sub.add_parser("catalog", help="list or build stock sum families")
    sp.add_argument("action", choices=("list", "build"))
    sp.add_argument("name", nargs="?", default=None)
    sp.add_argument("--params", default=None,
                    help="k=v pairs, e.g. n=3,coeffs=1:2:1")
    sp.add_argument("--p", default=None, help="primes to verify at")
    sp.add_argument("--chain-out", default=None, dest="chain_out")
    sp.add_argument("--report-out", default=None, dest="report_out")
    sp.set_defaults(func=cmd_catalog)

    sp = sub.add_parser("discrepancy",
                        help="box discrepancy and Erdos-Turan bound "
                             "(CSV columns: A1..Ar,abs_sum)")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--w", type=int, required=True)
    sp.add_argument("--polys", required=True,
                    help="semicolon-separated polynomials")
    sp.add_argument("--alpha", required=True)
    sp.add_argument("--beta", required=True)
    sp.add_argument("--K", type=int, default=5)
    sp.add_argument("--csv", default=None)
    sp.set_defaults(func=cmd_discrepancy)

    sp = sub.add_parser("sieve", help="double sum over a u-box with stratum "
                                      "regrouping (CSV: j,k,count,total,"
                                      "max_term,reference)")
    sp.add_argument("--F", required=True, help="polynomial in y, x1..xn")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--u-bound", type=int, default=3, dest="u_bound")
    sp.add_argument("--chain", default=None, help="chain JSON (default: "
                    "coordinate-product chain)")
    sp.add_argument("--csv", default=None)
    sp.set_defaults(func=cmd_sieve)

    sp = sub.add_parser("dual", help="dual-hypersurface membership by "
                                     "bounded extension search")
    sp.add_argument("--F", required=True)
    sp.add_argument("--v", required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--max-ext", type=int, default=2, dest="max_ext")
    sp.add_argument("--sufficient-ext", type=int, default=None,
                    dest="sufficient_ext")
    sp.set_defaults(func=cmd_dual)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.command == "catalog" and args.action == "build" and not args.name:
        print("catalog build needs a name", file=sys.stderr)
        return EXIT_PARSE
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ChainContainmentError as exc:
        print(f"invalid chain: {exc}", file=sys.stderr)
        return EXIT_CHAIN
    except RankTooHigh as exc:
        print(f"rank too high: {exc}", file=sys.stderr)
        return EXIT_RANK
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
