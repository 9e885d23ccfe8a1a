"""Command-line front end.

Every subcommand reads JSON (inline or @path), computes deterministically,
and prints a machine-readable JSON report (pretty-printed with --pretty).

Exit codes: 0 success, 1 mathematical verdict "false"/"diverging",
2 input or schema error, 3 precision exhaustion.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import gallery, serialize
from .ring import INFINITY, PrecisionExhausted, RingDescriptor, arith, val
from .serialize import SchemaError, fraction_str

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_PRECISION = 3


def _load_json(blob: str):
    """Inline JSON, or @path to read a file."""
    if blob.startswith("@"):
        with open(blob[1:], "r", encoding="utf-8") as fh:
            return json.load(fh)
    return json.loads(blob)


def _ring_from_args(args) -> RingDescriptor:
    if args.p is not None and args.q is not None:
        raise SchemaError("give either --p or --q, not both")
    if args.p is not None:
        return RingDescriptor("padic", args.p, args.precision)
    if args.q is not None:
        return RingDescriptor("eqchar", args.q, args.precision)
    raise SchemaError("a ring is required: pass --p or --q")


def _matrix_lattice(ring, blob, ctx):
    """A lattice of d x d matrices given as a JSON list of matrices."""
    from .spectral import lattice_from_elements
    obj = _load_json(blob)
    if not isinstance(obj, list):
        raise SchemaError("expected a JSON list of matrices")
    mats = [serialize.matrix_from_json(ring, m) for m in obj]
    for m in mats:
        if (m.rows, m.cols) != (ctx.d, ctx.d):
            raise SchemaError("matrix generators must all be d x d")
    return lattice_from_elements(ctx, mats)


# -- subcommand handlers: each returns (payload, exit_code) and imports
# only the modules it runs, so a query compiles no others --


def cmd_scalar(args):
    ring = _ring_from_args(args)
    x = serialize.parse_scalar(ring, _load_json(args.x))
    if args.op == "val":
        v = val(x)
        return {"valuation": "inf" if v == INFINITY else v}, EXIT_OK
    if args.op == "div":
        y = serialize.parse_scalar(ring, _load_json(args.y))
        return {"result": serialize.scalar_to_json(x / y)}, EXIT_OK
    if args.op == "pow":
        out = arith("pow", x, exponent=args.e)
    else:
        y = serialize.parse_scalar(ring, _load_json(args.y)) \
            if args.y is not None else None
        out = arith(args.op, x, y)
    return {"result": serialize.scalar_to_json(out)}, EXIT_OK


def cmd_snf(args):
    from .linalg import snf
    ring = _ring_from_args(args)
    A = serialize.matrix_from_json(ring, _load_json(args.matrix))
    if not A.cols:  # rows like [] parse, as for a zero lattice's generators
        raise SchemaError("snf needs a matrix with at least one column")
    res = snf(A)
    payload = {
        "U": serialize.matrix_to_json(res.U),
        "D": serialize.matrix_to_json(res.D),
        "W": serialize.matrix_to_json(res.W),
        "diagonal_exponents": res.diagonal_exponents,
        "valid_at_precision": not res.flagged,
    }
    return payload, EXIT_OK


def cmd_torsion(args):
    from .linalg import ModulePresentation
    ring = _ring_from_args(args)
    A = serialize.matrix_from_json(ring, _load_json(args.relations))
    P = ModulePresentation(ring, A.rows, A)
    torsion, free = P.cokernel_invariants()
    tf = not torsion
    payload = {"torsion_free": tf, "torsion_exponents": torsion,
               "free_rank": free}
    return payload, EXIT_OK if tf else EXIT_FALSE


def cmd_series_mul(args):
    from .series import mul as series_mul
    ring = _ring_from_args(args)
    a = serialize.series_from_json(_load_json(args.a), ring)
    b = serialize.series_from_json(_load_json(args.b), ring)
    cocycle = serialize.cocycle_from_json(
        ring, _load_json(args.cocycle) if args.cocycle else None)
    return {"product": serialize.series_to_json(
        series_mul(a, b, cocycle))}, EXIT_OK


def cmd_certify(args):
    from .series import best_certificate, certify, membership_filtration
    ring = _ring_from_args(args)
    a = serialize.series_from_json(_load_json(args.series), ring)
    ok, k = certify(a, args.c)
    payload = {"c": fraction_str(args.c), "ok": ok, "minimal_offset": k}
    if not a.is_zero:
        env = best_certificate(a)
        payload["envelope_vertices"] = [[L, m] for L, m in env.vertices]
    if args.filtration:
        payload["filtration_membership"] = {
            str(n): membership_filtration(a, int(n))
            for n in args.filtration.split(",")}
    return payload, EXIT_OK if ok else EXIT_FALSE


def cmd_monoid(args):
    from .monoid import compose, length_ge1
    monoid = serialize.monoid_from_json(_load_json(args.monoid))
    s = serialize.element_from_json(monoid, _load_json(args.s))
    if args.op == "compose":
        if args.t is None:
            raise SchemaError("monoid compose needs --t")
        t = serialize.element_from_json(monoid, _load_json(args.t))
        prod = compose(s, t)
        return {"product": serialize.element_to_json(prod),
                "length": prod.length}, EXIT_OK
    if args.op == "length":
        return {"length": s.length}, EXIT_OK
    return {"length_ge1": length_ge1(s)}, EXIT_OK


def cmd_lattice(args):
    ring = _ring_from_args(args)
    L = serialize.lattice_from_json(ring, _load_json(args.lattice))
    op = args.op
    if op in ("sum", "intersect", "equal"):
        if args.other is None:
            raise SchemaError(f"lattice {op} needs --other")
        M = serialize.lattice_from_json(ring, _load_json(args.other))
        if op == "equal":
            eq = L == M
            return {"equal": eq}, EXIT_OK if eq else EXIT_FALSE
        out = L.sum(M) if op == "sum" else L.intersect(M)
    elif op == "membership":
        if args.vector is None:
            raise SchemaError("lattice membership needs --vector")
        vec = [serialize.parse_scalar(ring, x)
               for x in _load_json(args.vector)]
        member = L.membership(vec)
        return {"member": member}, EXIT_OK if member else EXIT_FALSE
    elif op == "intersect-standard":
        out = L.intersect_with_standard()
    elif op == "scale":
        out = L.scale_by_pi(args.e)
    elif op == "preimage":
        out = L.preimage_pi(args.e)
    elif op == "star-scale":
        from .spectral import star_scale
        out = star_scale(args.t, L)
    else:
        g = L.gauge_exponent()
        return {"gauge_exponent": "inf" if g == INFINITY else g}, EXIT_OK
    return {"lattice": serialize.lattice_to_json(out)}, EXIT_OK


def cmd_ubprobe(args):
    from .crossed import uniform_boundedness_probe
    from .spectral import SeriesAlgebraContext, lattice_from_elements
    ring = _ring_from_args(args)
    alpha = serialize.action_from_json(ring, _load_json(args.action),
                                       strict=not args.unchecked)
    ctx = SeriesAlgebraContext(ring, alpha.monoid, args.D)
    U = lattice_from_elements(ctx, [serialize.series_from_json(s, ring)
                                    for s in _load_json(args.lattice)])
    rep = uniform_boundedness_probe(alpha, U, ctx, depth=args.depth)
    payload = {
        "verdict": rep.verdict,
        "steps": rep.steps,
        "gauge_exponents": [fraction_str(g) for g in rep.gauges],
        "condition_verified": rep.condition_verified,
    }
    if rep.lattice is not None:
        payload["invariant_lattice"] = serialize.lattice_to_json(rep.lattice)
    code = EXIT_FALSE if rep.verdict == "diverging" else EXIT_OK
    return payload, code


def cmd_nctorus(args):
    from .series import (DaggerSeries, add_scale, mul as series_mul,
                         nc_torus, torus_monomial)
    ring = _ring_from_args(args)
    if args.lam is not None:
        lam = serialize.parse_scalar(ring, _load_json(args.lam))
    else:
        import random
        rng = random.Random(args.seed)
        u = rng.randrange(1, ring.base)
        u += ring.base * rng.randrange(ring.base ** (ring.precision - 1))
        lam = ring.from_valuation_unit(0, u)
    cap = args.D
    u1, u2, cocycle, monoid = nc_torus(ring, lam, cap)
    prod21 = series_mul(u2, u1, cocycle)
    prod12 = series_mul(u1, u2, cocycle)
    zero = DaggerSeries.zero(ring, monoid, cap)
    relation = prod21 == add_scale(zero, prod12, lam)
    powers_ok = True
    table = []
    for s1 in range(-cap, cap + 1):
        for s2 in range(abs(s1) - cap, cap - abs(s1) + 1):
            mono = torus_monomial(ring, monoid, cocycle, s1, s2, cap)
            expected = DaggerSeries.delta(ring, monoid,
                                          monoid.element((s1, s2)), cap)
            agree = mono == expected
            powers_ok = powers_ok and agree
            table.append({"s": [s1, s2], "monomial_matches_delta": agree})
    ok = relation and powers_ok
    payload = {
        "lambda": serialize.scalar_to_json(lam),
        "commutation_relation_holds": relation,
        "all_monomials_match": powers_ok,
        "table": table,
    }
    return payload, EXIT_OK if ok else EXIT_FALSE


def cmd_cocycle_check(args):
    from .monoid import cocycle_check
    ring = _ring_from_args(args)
    cocycle = serialize.cocycle_from_json(ring, _load_json(args.cocycle))
    monoid = serialize.monoid_from_json(_load_json(args.monoid))
    if args.s is not None and args.t is not None:
        s = serialize.element_from_json(monoid, _load_json(args.s))
        t = serialize.element_from_json(monoid, _load_json(args.t))
        value = cocycle.value(s, t)
        return {"value": serialize.scalar_to_json(value)}, EXIT_OK
    ok = cocycle_check(cocycle, monoid, sample_count=args.samples,
                       seed=args.seed)
    return {"cocycle_identity_holds": ok}, EXIT_OK if ok else EXIT_FALSE


def cmd_specrad(args):
    from .spectral import (MatrixAlgebraContext, lattice_from_elements,
                           newton_polygon_rho, rho1_estimate)
    ring = _ring_from_args(args)
    A = serialize.matrix_from_json(ring, _load_json(args.matrix))
    ctx = MatrixAlgebraContext(ring, A.rows)
    S = lattice_from_elements(ctx, [A])
    report = rho1_estimate(S, ctx, args.nmax)
    slope = newton_polygon_rho(A)
    payload = {
        "estimates": [{"n": n, "nu_over_n": fraction_str(f)}
                      for n, f in report.exponent_estimates],
        "rho_exponent": fraction_str(report.rho_exponent),
        "rho1_exponent": fraction_str(report.rho1_exponent),
        "verdict": report.verdict,
        "newton_polygon_slope": fraction_str(slope),
    }
    return payload, EXIT_OK


def cmd_closure(args):
    from .spectral import MatrixAlgebraContext, lgb_closure, pi_multiplicative
    ring = _ring_from_args(args)
    ctx = MatrixAlgebraContext(ring, args.d)
    S = _matrix_lattice(ring, args.lattice, ctx)
    chain, stabilized = lgb_closure(S, ctx, args.imax)
    final = chain[-1]
    payload = {
        "chain_gauge_exponents": [fraction_str(L.gauge_exponent())
                                  for L in chain],
        "stabilized_at": stabilized,
        "final_lattice": serialize.lattice_to_json(final),
        "pi_UU_in_U": pi_multiplicative(ctx, final)
        if stabilized is not None else None,
    }
    code = EXIT_OK if stabilized is not None else EXIT_FALSE
    return payload, code


def cmd_probe(args):
    from .spectral import MatrixAlgebraContext, semi_dagger_probe
    ring = _ring_from_args(args)
    ctx = MatrixAlgebraContext(ring, args.d)
    S = _matrix_lattice(ring, args.lattice, ctx)
    j_list = [int(j) for j in args.j.split(",")]
    reports = semi_dagger_probe(S, ctx, args.m, j_list, l_max=args.lmax)
    payload = {"verdicts": {str(j): r.verdict for j, r in reports.items()},
               "gauge_exponents": {str(j): [fraction_str(g) for g in r.gauges]
                                   for j, r in reports.items()}}
    diverging = any(r.verdict == "diverging" for r in reports.values())
    return payload, EXIT_FALSE if diverging else EXIT_OK


def cmd_crossed(args):
    from .crossed import crossed_certify, crossed_mul
    ring = _ring_from_args(args)
    alpha = serialize.action_from_json(ring, _load_json(args.action))
    u = serialize.crossed_from_json(_load_json(args.u), ring)
    v = serialize.crossed_from_json(_load_json(args.v), ring)
    prod = crossed_mul(u, v, alpha, z_cap=args.Dz)
    payload = {"product": serialize.crossed_to_json(prod)}
    code = EXIT_OK
    if args.c is not None:
        ok, k = crossed_certify(prod, args.c)
        payload["certify"] = {"c": fraction_str(args.c), "ok": ok,
                              "minimal_offset": k}
        code = EXIT_OK if ok else EXIT_FALSE
    return payload, code


def cmd_gallery(args):
    ring = _ring_from_args(args)
    payload = gallery.run(args.name, ring, args.D)
    return payload, EXIT_OK if payload["pass"] else EXIT_FALSE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="daggerkit",
        description="Exact arithmetic over a complete discrete valuation "
                    "ring at finite truncation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_ring=True, seeded=False):
        if need_ring:
            p.add_argument("--p", type=int, default=None,
                           help="prime for the padic backend")
            p.add_argument("--q", type=int, default=None,
                           help="prime power for the eqchar backend")
            p.add_argument("--precision", type=int, default=40,
                           help="pi-adic absolute precision N")
        p.add_argument("--pretty", action="store_true",
                       help="indent the JSON report")
        if seeded:
            p.add_argument("--seed", type=int, default=0,
                           help="seed for sampled values")

    p = sub.add_parser("scalar", help="ring arithmetic on scalars")
    common(p)
    p.add_argument("--op", required=True,
                   choices=["add", "sub", "mul", "neg", "pow", "div", "val"])
    p.add_argument("--x", required=True)
    p.add_argument("--y", default=None)
    p.add_argument("--e", type=int, default=None, help="exponent for pow")
    p.set_defaults(handler=cmd_scalar)

    p = sub.add_parser("snf", help="Smith normal form U A W = D")
    common(p)
    p.add_argument("--matrix", required=True)
    p.set_defaults(handler=cmd_snf)

    p = sub.add_parser("torsion",
                       help="torsion-freeness of a finitely presented module")
    common(p)
    p.add_argument("--relations", required=True)
    p.set_defaults(handler=cmd_torsion)

    p = sub.add_parser("series-mul", help="twisted convolution of series")
    common(p)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--cocycle", default=None)
    p.set_defaults(handler=cmd_series_mul)

    p = sub.add_parser("certify",
                       help="growth certificate of a series at constant c")
    common(p)
    p.add_argument("--series", required=True)
    p.add_argument("--c", required=True, help="rational like 1 or 1/2")
    p.add_argument("--filtration", default=None,
                   help="also report filtration membership at these levels "
                        "(comma-separated)")
    p.set_defaults(handler=cmd_certify)

    p = sub.add_parser("monoid", help="monoid composition and word lengths")
    common(p, need_ring=False)
    p.add_argument("--monoid", required=True)
    p.add_argument("--op", required=True,
                   choices=["compose", "length", "length-ge1"])
    p.add_argument("--s", required=True)
    p.add_argument("--t", default=None)
    p.set_defaults(handler=cmd_monoid)

    p = sub.add_parser("lattice", help="lattice operations")
    common(p)
    p.add_argument("--op", required=True,
                   choices=["sum", "intersect", "intersect-standard",
                            "membership", "equal", "scale", "preimage",
                            "star-scale", "gauge"])
    p.add_argument("--lattice", required=True)
    p.add_argument("--other", default=None)
    p.add_argument("--vector", default=None)
    p.add_argument("--e", type=int, default=1,
                   help="pi exponent for scale/preimage")
    p.add_argument("--t", default="0",
                   help="rational exponent for star-scale")
    p.set_defaults(handler=cmd_lattice)

    p = sub.add_parser("ubprobe",
                       help="uniform boundedness of an affine action")
    common(p)
    p.add_argument("--action", required=True)
    p.add_argument("--lattice", required=True,
                   help="JSON list of polynomial series generators")
    p.add_argument("--D", type=int, default=4, help="degree cap")
    p.add_argument("--depth", type=int, default=8)
    p.add_argument("--unchecked", action="store_true",
                   help="allow action matrices outside GL(V)")
    p.set_defaults(handler=cmd_ubprobe)

    p = sub.add_parser("nctorus",
                       help="twisted Z^2 algebra: U2 U1 = lambda U1 U2")
    common(p, seeded=True)
    p.add_argument("--D", type=int, default=6, help="degree cap")
    p.add_argument("--lambda", dest="lam", default=None,
                   help="unit scalar (random unit when omitted)")
    p.set_defaults(handler=cmd_nctorus)

    p = sub.add_parser("cocycle-check",
                       help="sampled 2-cocycle identity, or a single "
                            "evaluation with --s/--t")
    common(p, seeded=True)
    p.add_argument("--cocycle", required=True)
    p.add_argument("--monoid", required=True)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--s", default=None)
    p.add_argument("--t", default=None)
    p.set_defaults(handler=cmd_cocycle_check)

    p = sub.add_parser("specrad",
                       help="truncated spectral radius of one matrix")
    common(p)
    p.add_argument("--matrix", required=True)
    p.add_argument("--nmax", type=int, default=16)
    p.set_defaults(handler=cmd_specrad)

    p = sub.add_parser("closure", help="linear-growth closure chain")
    common(p)
    p.add_argument("--lattice", required=True,
                   help="JSON list of d x d generator matrices")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--imax", type=int, default=8)
    p.set_defaults(handler=cmd_closure)

    p = sub.add_parser("probe", help="boundedness of powers of pi^m S^j")
    common(p)
    p.add_argument("--lattice", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--j", default="1,2,3", help="comma-separated list")
    p.add_argument("--lmax", type=int, default=8)
    p.set_defaults(handler=cmd_probe)

    p = sub.add_parser("crossed",
                       help="crossed-product multiplication and certification")
    common(p)
    p.add_argument("--action", required=True)
    p.add_argument("--u", required=True)
    p.add_argument("--v", required=True)
    p.add_argument("--c", default=None,
                   help="re-certify the product at this constant")
    p.add_argument("--Dz", type=int, default=None,
                   help="support cap of the product: terms with "
                        "|n| > Dz are dropped and flagged truncated")
    p.set_defaults(handler=cmd_crossed)

    p = sub.add_parser("gallery", help="finite-precision regressions")
    common(p)
    p.add_argument("name", choices=list(gallery.GALLERY_NAMES))
    p.add_argument("--D", type=int, default=8)
    p.set_defaults(handler=cmd_gallery)

    return parser


def dispatch(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, code = args.handler(args)
    except PrecisionExhausted as exc:
        payload, code = {"error": "precision_exhausted",
                         "detail": str(exc)}, EXIT_PRECISION
    except (OSError, ZeroDivisionError, ValueError) as exc:
        payload, code = {"error": "input", "detail": str(exc)}, EXIT_INPUT
    text = json.dumps(payload, sort_keys=True,
                      indent=2 if args.pretty else None,
                      separators=None if args.pretty else (",", ":"))
    print(text)
    return code


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
