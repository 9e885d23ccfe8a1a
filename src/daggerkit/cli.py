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
    """Inline JSON, or @path to read a file; nesting too deep for the
    parser is a SchemaError."""
    try:
        if blob.startswith("@"):
            with open(blob[1:], "r", encoding="utf-8") as fh:
                return json.load(fh)
        return json.loads(blob)
    except RecursionError as exc:
        raise SchemaError(f"JSON nested too deeply: {exc}") from exc


def _ring_from_args(args) -> RingDescriptor:
    if args.p is not None and args.q is not None:
        raise SchemaError("give either --p or --q, not both")
    if args.p is not None:
        return RingDescriptor("padic", args.p, args.precision)
    if args.q is not None:
        return RingDescriptor("eqchar", args.q, args.precision)
    raise SchemaError("a ring is required: pass --p or --q")


def _load_list(blob: str, what: str) -> list:
    obj = _load_json(blob)
    if not isinstance(obj, list):
        raise SchemaError(f"expected a JSON list of {what}")
    return obj


def _matrix_lattice(ring, blob, ctx):
    """A lattice of d x d matrices given as a JSON list of matrices."""
    from .spectral import lattice_from_elements
    mats = [serialize.matrix_from_json(ring, m)
            for m in _load_list(blob, "matrices")]
    for m in mats:
        if (m.rows, m.cols) != (ctx.d, ctx.d):
            raise SchemaError("matrix generators must all be d x d")
    return lattice_from_elements(ctx, mats)


# -- subcommand handlers: each takes the parsed arguments and their ring,
# returns (payload, exit_code) and imports only the modules it runs, so a
# query compiles no others --


def cmd_scalar(args, ring):
    x = serialize.parse_scalar(ring, _load_json(args.x))
    if args.op == "val":
        v = val(x)
        return {"valuation": "inf" if v == INFINITY else v}, EXIT_OK
    y = serialize.parse_scalar(ring, _load_json(args.y)) \
        if args.y is not None else None
    out = arith(args.op, x, y, exponent=args.e)
    return {"result": serialize.scalar_to_json(out)}, EXIT_OK


def cmd_snf(args, ring):
    from .linalg import snf
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


def cmd_torsion(args, ring):
    from .linalg import ModulePresentation
    A = serialize.matrix_from_json(ring, _load_json(args.relations))
    P = ModulePresentation(ring, A.rows, A)
    torsion, free = P.cokernel_invariants()
    tf = not torsion
    payload = {"torsion_free": tf, "torsion_exponents": torsion,
               "free_rank": free}
    return payload, EXIT_OK if tf else EXIT_FALSE


def cmd_series_mul(args, ring):
    from .series import mul as series_mul
    a = serialize.series_from_json(_load_json(args.a), ring)
    b = serialize.series_from_json(_load_json(args.b), ring)
    cocycle = serialize.cocycle_from_json(
        ring, _load_json(args.cocycle) if args.cocycle else None)
    return {"product": serialize.series_to_json(
        series_mul(a, b, cocycle))}, EXIT_OK


def cmd_certify(args, ring):
    from .series import best_certificate, certify, membership_filtration
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


def cmd_monoid(args, _ring):
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


def cmd_lattice(args, ring):
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
               for x in _load_list(args.vector, "scalars")]
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


def cmd_ubprobe(args, ring):
    from .crossed import uniform_boundedness_probe
    from .spectral import SeriesAlgebraContext, lattice_from_elements
    alpha = serialize.action_from_json(ring, _load_json(args.action),
                                       strict=not args.unchecked)
    ctx = SeriesAlgebraContext(ring, alpha.monoid, args.D)
    U = lattice_from_elements(ctx, [
        serialize.series_from_json(s, ring)
        for s in _load_list(args.lattice, "series")])
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


def cmd_nctorus(args, ring):
    from .series import (DaggerSeries, add_scale, mul as series_mul,
                         nc_torus, torus_monomial)
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


def cmd_cocycle_check(args, ring):
    from .monoid import cocycle_check
    cocycle = serialize.cocycle_from_json(ring, _load_json(args.cocycle))
    monoid = serialize.monoid_from_json(_load_json(args.monoid))
    if (args.s is None) != (args.t is None):
        missing = "--t" if args.t is None else "--s"
        raise SchemaError(f"cocycle-check evaluation needs {missing}")
    if args.s is not None:
        s = serialize.element_from_json(monoid, _load_json(args.s))
        t = serialize.element_from_json(monoid, _load_json(args.t))
        value = cocycle.value(s, t)
        return {"value": serialize.scalar_to_json(value)}, EXIT_OK
    ok = cocycle_check(cocycle, monoid, sample_count=args.samples,
                       seed=args.seed)
    return {"cocycle_identity_holds": ok}, EXIT_OK if ok else EXIT_FALSE


def cmd_specrad(args, ring):
    from .spectral import (MatrixAlgebraContext, lattice_from_elements,
                           newton_polygon_rho, rho1_estimate)
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


def cmd_closure(args, ring):
    from .spectral import MatrixAlgebraContext, lgb_closure, pi_multiplicative
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


def cmd_probe(args, ring):
    from .spectral import MatrixAlgebraContext, semi_dagger_probe
    ctx = MatrixAlgebraContext(ring, args.d)
    S = _matrix_lattice(ring, args.lattice, ctx)
    j_list = [int(j) for j in args.j.split(",")]
    reports = semi_dagger_probe(S, ctx, args.m, j_list, l_max=args.lmax)
    payload = {"verdicts": {str(j): r.verdict for j, r in reports.items()},
               "gauge_exponents": {str(j): [fraction_str(g) for g in r.gauges]
                                   for j, r in reports.items()}}
    diverging = any(r.verdict == "diverging" for r in reports.values())
    return payload, EXIT_FALSE if diverging else EXIT_OK


def cmd_crossed(args, ring):
    from .crossed import crossed_certify, crossed_mul
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


def cmd_gallery(args, ring):
    payload = gallery.run(args.name, ring, args.D)
    return payload, EXIT_OK if payload["pass"] else EXIT_FALSE


RING = [("--p", dict(type=int, help="prime for the padic backend")),
        ("--q", dict(type=int, help="prime power for the eqchar backend")),
        ("--precision", dict(type=int, default=40,
                             help="pi-adic absolute precision N"))]
PRETTY = ("--pretty", dict(action="store_true", help="indent the JSON report"))
SEED = ("--seed", dict(type=int, default=0, help="seed for sampled values"))
REQUIRED = dict(required=True)

# name: (help, handler, arguments in --help order); dispatch hands the
# handler the ring of a row that declares RING, and None otherwise
COMMANDS = {
    "scalar": ("ring arithmetic on scalars", cmd_scalar, [
        *RING, PRETTY,
        ("--op", dict(required=True, choices=["add", "sub", "mul", "neg",
                                              "pow", "div", "val"])),
        ("--x", REQUIRED), ("--y", {}),
        ("--e", dict(type=int, help="exponent for pow"))]),
    "snf": ("Smith normal form U A W = D", cmd_snf,
            [*RING, PRETTY, ("--matrix", REQUIRED)]),
    "torsion": ("torsion-freeness of a finitely presented module",
                cmd_torsion, [*RING, PRETTY, ("--relations", REQUIRED)]),
    "series-mul": ("twisted convolution of series", cmd_series_mul, [
        *RING, PRETTY, ("--a", REQUIRED), ("--b", REQUIRED),
        ("--cocycle", {})]),
    "certify": ("growth certificate of a series at constant c", cmd_certify, [
        *RING, PRETTY, ("--series", REQUIRED),
        ("--c", dict(required=True, help="rational like 1 or 1/2")),
        ("--filtration", dict(help="also report filtration membership at "
                                   "these levels (comma-separated)"))]),
    "monoid": ("monoid composition and word lengths", cmd_monoid, [
        PRETTY, ("--monoid", REQUIRED),
        ("--op", dict(required=True,
                      choices=["compose", "length", "length-ge1"])),
        ("--s", REQUIRED), ("--t", {})]),
    "lattice": ("lattice operations", cmd_lattice, [
        *RING, PRETTY,
        ("--op", dict(required=True,
                      choices=["sum", "intersect", "intersect-standard",
                               "membership", "equal", "scale", "preimage",
                               "star-scale", "gauge"])),
        ("--lattice", REQUIRED), ("--other", {}), ("--vector", {}),
        ("--e", dict(type=int, default=1,
                     help="pi exponent for scale/preimage")),
        ("--t", dict(default="0", help="rational exponent for star-scale"))]),
    "ubprobe": ("uniform boundedness of an affine action", cmd_ubprobe, [
        *RING, PRETTY, ("--action", REQUIRED),
        ("--lattice", dict(required=True,
                           help="JSON list of polynomial series generators")),
        ("--D", dict(type=int, default=4, help="degree cap")),
        ("--depth", dict(type=int, default=8)),
        ("--unchecked", dict(action="store_true",
                             help="allow action matrices outside GL(V)"))]),
    "nctorus": ("twisted Z^2 algebra: U2 U1 = lambda U1 U2", cmd_nctorus, [
        *RING, PRETTY, SEED,
        ("--D", dict(type=int, default=6, help="degree cap")),
        ("--lambda", dict(dest="lam",
                          help="unit scalar (random unit when omitted)"))]),
    "cocycle-check": ("sampled 2-cocycle identity, or a single evaluation "
                      "with --s/--t", cmd_cocycle_check, [
        *RING, PRETTY, SEED, ("--cocycle", REQUIRED), ("--monoid", REQUIRED),
        ("--samples", dict(type=int, default=50)), ("--s", {}), ("--t", {})]),
    "specrad": ("truncated spectral radius of one matrix", cmd_specrad, [
        *RING, PRETTY, ("--matrix", REQUIRED),
        ("--nmax", dict(type=int, default=16))]),
    "closure": ("linear-growth closure chain", cmd_closure, [
        *RING, PRETTY,
        ("--lattice", dict(required=True,
                           help="JSON list of d x d generator matrices")),
        ("--d", dict(type=int, required=True)),
        ("--imax", dict(type=int, default=8))]),
    "probe": ("boundedness of powers of pi^m S^j", cmd_probe, [
        *RING, PRETTY, ("--lattice", REQUIRED),
        ("--d", dict(type=int, required=True)),
        ("--m", dict(type=int, default=1)),
        ("--j", dict(default="1,2,3", help="comma-separated list")),
        ("--lmax", dict(type=int, default=8))]),
    "crossed": ("crossed-product multiplication and certification",
                cmd_crossed, [
        *RING, PRETTY, ("--action", REQUIRED), ("--u", REQUIRED),
        ("--v", REQUIRED),
        ("--c", dict(help="re-certify the product at this constant")),
        ("--Dz", dict(type=int, help="support cap of the product: terms "
                                     "with |n| > Dz are dropped and flagged "
                                     "truncated"))]),
    "gallery": ("finite-precision regressions", cmd_gallery, [
        *RING, PRETTY, ("name", dict(choices=list(gallery.GALLERY_NAMES))),
        ("--D", dict(type=int, default=8))]),
}


def build_parser(names=tuple(COMMANDS)) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="daggerkit",
        description="Exact arithmetic over a complete discrete valuation "
                    "ring at finite truncation.")
    # a parser built for fewer rows still names every one in its usage line
    every = {"metavar": "{" + ",".join(COMMANDS) + "}"} \
        if len(names) < len(COMMANDS) else {}
    sub = parser.add_subparsers(dest="command", required=True, **every)
    for name in names:
        help_, _, arguments = COMMANDS[name]
        p = sub.add_parser(name, help=help_)
        for flag, kwargs in arguments:
            p.add_argument(flag, **kwargs)
    return parser


def dispatch(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # build only the subparser argv[0] names, or every one when it names
    # none (no command, -h, an unknown name)
    named = argv[:1] if argv and argv[0] in COMMANDS else tuple(COMMANDS)
    args = build_parser(named).parse_args(argv)
    try:
        ring = _ring_from_args(args) if "p" in args else None
        payload, code = COMMANDS[args.command][1](args, ring)
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
    # a valid query can print or parse a unit of more decimal digits than
    # CPython's int/str limit (4,300 by default; over Z_5 from N = 6,152
    # on), so the process entry lifts it; ``dispatch`` does not, since
    # tests and other callers share it in-process (3.10 builds lack it)
    lift = getattr(sys, "set_int_max_str_digits", None)
    if lift is not None:
        lift(0)
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
