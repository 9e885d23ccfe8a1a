"""JSON encodings for every public value type.

Schemas:
  ring     {"backend": "padic"|"eqchar", "p"|"q": int, "precision": int}
  scalar   {"v": int | "inf", "u": "<decimal digits of unit residue>"}
  matrix   [[scalar, ...], ...]
  lattice  {"ambient_rank": r >= 1, "pi_exponent": e, "generators": matrix
           of r rows, r empty rows [[], ...] for the zero lattice}
  monoid   {"kind": "N"|"Z"|"free", "rank": int}
  element  [int, ...] (exponents) or "word" in the first rank letters of a..z
  cocycle  {"kind": "trivial"} or
           {"kind": "bicharacter", "lambda": scalar, "Q": [[int, ...], ...]}
  series   {"monoid": monoid, "ring": ring, "D": int,
            "terms": [{"s": element, "x": scalar}, ...],
            "certificate": {"c": "p/q", "k": int} | null, "truncated": bool}
  crossed  {"Dz": int, "terms": [{"n": int, "series": series}, ...],
            "certificate": ..., "truncated": bool}
  action   {"a": matrix, "b": [scalar, ...]}
"""

from __future__ import annotations

import re

from .ring import INFINITY, RingDescriptor, ScalarElem


class SchemaError(ValueError):
    """Input does not match the published JSON schemas."""


def _int(value, what: str) -> int:
    """An integer field: a JSON integer or a string of decimal digits.  A
    boolean or a float (1.5, 1e400, even 2.0) is a SchemaError."""
    if isinstance(value, str) and re.fullmatch(r"-?[0-9]+", value) \
            or isinstance(value, int) and not isinstance(value, bool):
        return int(value)
    kind = "a JSON boolean" if isinstance(value, bool) else repr(value)
    raise SchemaError(f"{what} must be an integer, not {kind}")


def ring_to_json(ring: RingDescriptor) -> dict:
    key = "p" if ring.backend == "padic" else "q"
    return {"backend": ring.backend, key: ring.base,
            "precision": ring.precision}


def ring_from_json(obj) -> RingDescriptor:
    try:
        backend = obj["backend"]
        key = "p" if backend == "padic" else "q"
        return RingDescriptor(backend, _int(obj[key], key),
                              _int(obj["precision"], "precision"))
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad ring descriptor: {exc}") from exc


def scalar_to_json(x: ScalarElem) -> dict:
    if x.is_zero:
        return {"v": "inf", "u": "0"}
    return {"v": x.valuation, "u": str(x.unit_encoded())}


def scalar_from_json(ring: RingDescriptor, obj) -> ScalarElem:
    try:
        v, u = obj["v"], obj.get("u")
        if v == "inf" and not isinstance(u, bool):
            return ring.zero()
        u = _int(u, "u")
        return ring.from_valuation_unit(_int(v, "v"), u)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad scalar: {exc}") from exc


_PI_EXPR = re.compile(
    r"^\s*(-?\d+)?\s*\*?\s*pi(?:\^(-?\d+))?\s*$")


def parse_scalar(ring: RingDescriptor, value) -> ScalarElem:
    """Accept a scalar object, an integer, or a shorthand like "pi^2",
    "3*pi", "2*pi^-1"."""
    if isinstance(value, dict):
        return scalar_from_json(ring, value)
    if isinstance(value, bool):
        raise SchemaError(f"a JSON boolean is not a scalar: {value!r}")
    if isinstance(value, int):
        return ring.scalar(value)
    if isinstance(value, str):
        s = value.strip()
        if re.fullmatch(r"-?\d+", s):
            return ring.scalar(int(s))
        m = _PI_EXPR.match(s)
        if m:
            coeff = int(m.group(1)) if m.group(1) else 1
            exp = int(m.group(2)) if m.group(2) else 1
            return ring.scalar(coeff).scaled_by_pi(exp)
    raise SchemaError(f"cannot parse scalar {value!r}")


def matrix_to_json(a: MatrixV) -> list:
    return [[scalar_to_json(x) for x in row] for row in a.entries]


def matrix_from_json(ring: RingDescriptor, obj) -> MatrixV:
    from .linalg import MatrixV
    if not isinstance(obj, list) or not obj \
            or not all(isinstance(row, list) for row in obj):
        raise SchemaError("matrix must be a nonempty nested array")
    return MatrixV(ring, [[parse_scalar(ring, x) for x in row]
                          for row in obj])


def lattice_to_json(L: Lattice) -> dict:
    return {"ambient_rank": L.ambient_rank, "pi_exponent": L.pi_exponent,
            "generators": matrix_to_json(L.gens)}


def lattice_from_json(ring: RingDescriptor, obj) -> Lattice:
    from .linalg import Lattice
    try:
        rank = _int(obj["ambient_rank"], "ambient_rank")
        e = _int(obj.get("pi_exponent", 0), "pi_exponent")
        gens = matrix_from_json(ring, obj["generators"])
        if rank < 1:
            raise SchemaError(f"ambient_rank must be at least 1, not {rank}")
        # from_columns checks the length of each column there is
        if not gens.cols and gens.rows != rank:
            raise SchemaError(f"a lattice with no generators has {rank} "
                              f"empty rows, not {gens.rows}")
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad lattice: {exc}") from exc
    cols = [gens.column(j) for j in range(gens.cols)]
    return Lattice.from_columns(ring, rank, cols).scale_by_pi(e)


def monoid_to_json(m: MonoidDescriptor) -> dict:
    return {"kind": m.kind, "rank": m.rank}


def monoid_from_json(obj) -> MonoidDescriptor:
    from .monoid import MonoidDescriptor
    try:
        return MonoidDescriptor(obj["kind"], _int(obj["rank"], "rank"))
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad monoid descriptor: {exc}") from exc


def element_to_json(s):
    return s.data if isinstance(s.data, str) else list(s.data)


def element_from_json(monoid: MonoidDescriptor, obj):
    """A word for a free monoid, else a list of exponents, each read by
    ``_int``."""
    if monoid.kind != "free":
        if not isinstance(obj, list):
            raise SchemaError(f"bad monoid element: {obj!r} is not a list")
        obj = [_int(c, "a monoid exponent") for c in obj]
    try:
        return monoid.element(obj)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"bad monoid element: {exc}") from exc


def cocycle_from_json(ring: RingDescriptor, obj) -> Cocycle:
    from .monoid import BicharacterCocycle, TrivialCocycle
    if not isinstance(obj, (dict, type(None))):
        raise SchemaError(f"a cocycle is a JSON object, not {obj!r}")
    if obj is None or obj.get("kind") == "trivial":
        return TrivialCocycle(ring)
    if obj.get("kind") == "bicharacter" or "lambda" in obj:
        try:
            lam = parse_scalar(ring, obj["lambda"])
            return BicharacterCocycle(lam, obj["Q"])
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"bad cocycle: {exc}") from exc
    raise SchemaError(f"unknown cocycle kind in {obj!r}")


def certificate_to_json(cert: GrowthCertificate | None):
    if cert is None:
        return None
    return {"c": str(cert.c), "k": cert.k}


def certificate_from_json(obj) -> GrowthCertificate | None:
    from .series import GrowthCertificate
    if obj is None:
        return None
    try:
        return GrowthCertificate(obj["c"], _int(obj["k"], "k"))
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad certificate: {exc}") from exc


def series_to_json(a: DaggerSeries) -> dict:
    return {
        "monoid": monoid_to_json(a.monoid),
        "ring": ring_to_json(a.ring),
        "D": a.degree_cap,
        "terms": [{"s": element_to_json(s), "x": scalar_to_json(x)}
                  for s, x in sorted(a.terms.items(),
                                     key=lambda kv: (kv[0].length,
                                                     str(kv[0].data)))],
        "certificate": certificate_to_json(a.certificate),
        "truncated": a.truncated,
    }


def series_from_json(obj, ring: RingDescriptor | None = None) -> DaggerSeries:
    from .series import DaggerSeries
    try:
        if ring is None:
            ring = ring_from_json(obj["ring"])
        monoid = monoid_from_json(obj["monoid"])
        cap = _int(obj["D"], "D")
        terms = {}
        for item in obj.get("terms", []):
            s = element_from_json(monoid, item["s"])
            terms[s] = parse_scalar(ring, item["x"])
        cert = certificate_from_json(obj.get("certificate"))
        return DaggerSeries(ring, monoid, terms, cap, cert,
                            truncated=bool(obj.get("truncated", False)))
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"bad series: {exc}") from exc


def crossed_to_json(u: CrossedElem) -> dict:
    return {
        "Dz": u.z_cap,
        "terms": [{"n": n, "series": series_to_json(series)}
                  for n, series in sorted(u.terms.items())],
        "certificate": certificate_to_json(u.certificate),
        "truncated": u.truncated,
    }


def crossed_from_json(obj, ring: RingDescriptor) -> CrossedElem:
    from .crossed import CrossedElem
    try:
        z_cap = _int(obj["Dz"], "Dz")
        terms, monoid, degree_cap = {}, None, None
        for item in obj.get("terms", []):
            series = series_from_json(item["series"], ring)
            terms[_int(item["n"], "n")] = series
            monoid = series.monoid
            degree_cap = series.degree_cap
        if not terms:
            raise SchemaError("empty crossed element: no term to read caps")
        cert = certificate_from_json(obj.get("certificate"))
        return CrossedElem(ring, monoid, terms, z_cap, degree_cap, cert,
                           truncated=bool(obj.get("truncated", False)))
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"bad crossed element: {exc}") from exc


def action_to_json(alpha: AffineAction) -> dict:
    return {"a": matrix_to_json(alpha.a),
            "b": [scalar_to_json(x) for x in alpha.b]}


def action_from_json(ring: RingDescriptor, obj,
                     strict: bool = True) -> AffineAction:
    from .crossed import AffineAction
    try:
        a = matrix_from_json(ring, obj["a"])
        b = [parse_scalar(ring, x) for x in obj["b"]]
        return AffineAction(a, b, strict=strict)
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"bad action: {exc}") from exc


def fraction_str(x) -> str:
    from fractions import Fraction
    if x == INFINITY:
        return "inf"
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 \
        else str(f.numerator)
