"""cli: one child process per query, run one after another.

Why: interpreter start and import dominate, so only this workload shows
import, argparse and JSON costs.  Mix per cycle of 40 argv lists: all 15
subcommands at the reference scale on p = 5 and q in {4, 5} (36 queries),
plus four malformed or edge inputs of the kinds the CLI contract must
survive: a flat --matrix, lattice membership without --vector, probe
--j 0 and a crossed --Dz override.  Each query's exit code is checked
against the contract.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import selectors
import subprocess
import sys
import traceback
from fractions import Fraction

from common import (SPAWN_REF_S, base_of, companion, matrix, ring_json,
                    scalar, spawn_slice)

LAUNCH = "from daggerkit.cli import main; main()"
CONTRACT = {0, 1, 2, 3}
TIMEOUT_S = 60

# The queries here spend most of their time in process start-up, which moves
# with the host's kernel load: ``python_slice`` does not see that
# and left 7-19 % run-to-run spread, against 2-5 % with the spawn slice.
calibration_slice, CAL_REF_S = spawn_slice, SPAWN_REF_S


# (subcommand, variant) in cycle order; malformed inputs are marked "bad-*"
_SLOTS = [
    ("scalar", "mul"), ("scalar", "div"), ("scalar", "val"),
    ("snf", 3), ("snf", 4), ("snf", 3), ("torsion", 3), ("torsion", 4),
    ("series-mul", "bicharacter"), ("series-mul", "trivial"),
    ("certify", 1), ("certify", 2), ("monoid", "compose"),
    ("monoid", "length"), ("lattice", "sum"), ("lattice", "intersect"),
    ("lattice", "membership"), ("lattice", "equal"),
    ("cocycle-check", "sampled"), ("cocycle-check", "value"),
    ("nctorus", 6), ("nctorus", 8), ("specrad", 2), ("specrad", 3),
    ("specrad", 4), ("closure", 2), ("closure", 2), ("probe", 2),
    ("probe", 2), ("ubprobe", 3), ("ubprobe", 4), ("crossed", 1),
    ("crossed", 2), ("gallery", "nonseparated"),
    ("gallery", "nonclosed-image"), ("gallery", "nonseparated"),
    ("snf", "bad-flat"), ("lattice", "bad-no-vector"),
    ("probe", "bad-j0"), ("crossed", "bad-dz"),
]
_ELIMINATING = ("snf", "torsion", "specrad", "closure", "probe", "ubprobe",
                "gallery", "lattice")


def cycle(tiny: bool = False):
    slots = _SLOTS
    if tiny:
        seen, slots = set(), []
        for slot in _SLOTS:
            if slot[0] not in seen or str(slot[1]).startswith("bad"):
                seen.add(slot[0])
                slots.append(slot)
    # rings rotate p = 5, q = 5, q = 4; GF(4) residues cost milliseconds per
    # product, so the elimination-heavy subcommands take q = 5 instead
    rings = (("padic", 5), ("eqchar", 5), ("eqchar", 4))
    out = []
    for i, (cmd, variant) in enumerate(slots):
        ring = rings[i % 3]
        if ring == ("eqchar", 4) and cmd in _ELIMINATING:
            ring = ("eqchar", 5)
        out.append((cmd, variant, ring, 12 if tiny else 40))
    return out


def _j(x) -> str:
    return json.dumps(x, separators=(",", ":"))


def _ring_args(ring):
    flag = "--p" if ring["backend"] == "padic" else "--q"
    return [flag, str(base_of(ring)),
            "--precision", str(ring["precision"])]


def _series(rng, ring, kind, rank, cap, count):
    terms = {}
    for _ in range(count):
        data = [0] * rank
        for _ in range(rng.randint(0, cap)):
            data[rng.randrange(rank)] += rng.choice((1, -1)) \
                if kind == "Z" else 1
        terms[tuple(data)] = scalar(rng, ring, rng.randint(0, 3))
    return {"monoid": {"kind": kind, "rank": rank}, "ring": ring, "D": cap,
            "terms": [{"s": list(s), "x": x} for s, x in terms.items()]}


def _lattice(rng, ring, rank, count):
    return {"ambient_rank": rank,
            "generators": matrix(rng, ring, rank, count, vmax=2)}


def generate(rng, slot) -> dict:
    cmd, variant, (backend, base), precision = slot
    ring = ring_json(backend, base, precision)
    args = [cmd] + _ring_args(ring)
    codes, expect = [0], {}
    if cmd == "scalar":
        x = scalar(rng, ring, rng.randint(0, 4))
        args += ["--op", variant, "--x", _j(x)]
        if variant == "val":
            expect["valuation"] = x["v"]
        else:
            y = scalar(rng, ring, rng.randint(0, 4))
            args += ["--y", _j(y)]
            expect["valuation"] = x["v"] + y["v"] if variant == "mul" \
                else x["v"] - y["v"]
    elif cmd in ("snf", "torsion"):
        if variant == "bad-flat":
            args += ["--matrix", "[1,2]"]
            codes = [2]
        else:
            key = "--matrix" if cmd == "snf" else "--relations"
            args += [key, _j(matrix(rng, ring, variant, variant, vmax=2))]
            codes = [0] if cmd == "snf" else [0, 1]
    elif cmd == "series-mul":
        kind = "Z" if variant == "bicharacter" else "N"
        args += ["--a", _j(_series(rng, ring, kind, 2, 6, 5)),
                 "--b", _j(_series(rng, ring, kind, 2, 6, 5))]
        if variant == "bicharacter":
            args += ["--cocycle", _j({"kind": "bicharacter",
                                      "lambda": scalar(rng, ring, 0),
                                      "Q": [[0, 0], [1, 0]]})]
    elif cmd == "certify":
        args += ["--series", _j(_series(rng, ring, "Z", 2, 8, 10)),
                 "--c", str(Fraction(variant, 2))]
        if variant == 2:
            args += ["--filtration", "1,2,3"]
        codes = [0, 1]
    elif cmd == "monoid":
        args = [cmd, "--monoid", _j({"kind": "Z", "rank": 3})]
        s = [rng.randint(-3, 3) for _ in range(3)]
        t = [rng.randint(-3, 3) for _ in range(3)]
        args += ["--op", variant, "--s", _j(s)]
        if variant == "compose":
            args += ["--t", _j(t)]
            expect["product"] = [a + b for a, b in zip(s, t)]
        else:
            expect["length"] = sum(abs(a) for a in s)
    elif cmd == "lattice":
        rank = 3
        lat = _lattice(rng, ring, rank, 3)
        args += ["--op", variant.replace("bad-no-vector", "membership"),
                 "--lattice", _j(lat)]
        if variant in ("sum", "intersect"):
            args += ["--other", _j(_lattice(rng, ring, rank, 2))]
        elif variant == "equal":
            gens = lat["generators"]
            perm = [[row[j] for j in (2, 0, 1)] for row in gens]
            args += ["--other", _j({"ambient_rank": rank,
                                    "generators": perm})]
        elif variant == "membership":
            column = rng.randrange(3)
            args += ["--vector", _j([row[column] for row in
                                     lat["generators"]])]
        else:
            codes = [2]
    elif cmd == "cocycle-check":
        args += ["--cocycle", _j({"kind": "bicharacter",
                                  "lambda": scalar(rng, ring, 0),
                                  "Q": [[rng.randint(-2, 2) for _ in range(2)]
                                        for _ in range(2)]}),
                 "--monoid", _j({"kind": "Z", "rank": 2})]
        if variant == "value":
            args += ["--s", _j([rng.randint(-2, 2), rng.randint(-2, 2)]),
                     "--t", _j([rng.randint(-2, 2), rng.randint(-2, 2)])]
    elif cmd == "nctorus":
        args += ["--D", str(variant), "--lambda", _j(scalar(rng, ring, 0))]
    elif cmd == "specrad":
        k = rng.choice([k for k in range(1, 2 * variant) if k % variant])
        args += ["--matrix", _j(companion(rng, ring, variant, k))]
        expect["rho"] = str(Fraction(k, variant))
    elif cmd in ("closure", "probe"):
        d = 2 if variant == "bad-j0" else variant
        args += ["--d", str(d), "--lattice",
                 _j([matrix(rng, ring, d, d, vmax=1)])]
        codes = [0, 1]
        if cmd == "probe":
            args += ["--j", "0" if variant == "bad-j0" else "1,2"]
        if variant == "bad-j0":
            codes = [2]
    elif cmd == "ubprobe":
        args += ["--action", _j({"a": [["1", "1"], ["0", "1"]],
                                 "b": [str(rng.randint(-2, 2)), "1"]}),
                 "--lattice", _j([_series(rng, ring, "N", 2, variant, 2)]),
                 "--D", str(variant)]
        codes = [0, 1]
    elif cmd == "crossed":
        dz = 3
        inner = 4
        u = {"Dz": dz, "terms": [{"n": n, "series": _series(
            rng, ring, "N", 1, inner, 2)} for n in (-1, 1)]}
        v = {"Dz": dz, "terms": [{"n": n, "series": _series(
            rng, ring, "N", 1, inner, 2)} for n in (0, 2)]}
        args += ["--action", _j({"a": [["1"]], "b": [str(rng.randint(1, 3))]}),
                 "--u", _j(u), "--v", _j(v)]
        if variant == 2:
            args += ["--c", "1/2"]
            codes = [0, 1]
        if variant == "bad-dz":
            args += ["--Dz", "1"]
            codes = [0, 2]
            expect["Dz"] = 1
    else:
        args += [variant, "--D", "8" if precision > 8 else "4"]
    return {"cmd": cmd, "variant": variant, "ring": ring, "argv": args,
            "codes": codes, "expect": expect,
            "malformed": str(variant).startswith("bad")}


def parse(inputs, env):
    child_env = dict(os.environ, PYTHONPATH=env.src)
    return [{"input": inp, "env": child_env,
             "cmd": [sys.executable, "-c", LAUNCH, *inp["argv"]]}
            for inp in inputs]


def _drain(proc, timeout):
    """Read stdout and stderr to the end without letting either pipe fill."""
    chunks = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as sel:
        for f in chunks:
            sel.register(f, selectors.EVENT_READ)
        while sel.get_map():
            ready = sel.select(timeout)
            if not ready:
                proc.kill()
                break
            for key, _ in ready:
                data = os.read(key.fd, 65536)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    for f in chunks:
        f.close()
    return [b"".join(chunks[f]).decode(errors="replace") for f in chunks]


def run(q):
    proc = subprocess.Popen(q["cmd"], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=q["env"])
    out, err = _drain(proc, TIMEOUT_S)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "stdout": out, "stderr": err,
            "rss_kb": usage.ru_maxrss}


def replay(q):
    """The same query in-process through cli.dispatch, for the traced run."""
    from daggerkit import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.dispatch(q["input"]["argv"])
        except SystemExit as exc:
            code = exc.code
        except Exception:  # an uncaught error is what the child would show
            code = 1
            err.write(traceback.format_exc())
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _windowed(obj, ring):
    """JSON payload with unit digits cut to the precision window and the
    precision flags removed."""
    base, n = base_of(ring), ring["precision"]
    if isinstance(obj, dict):
        if set(obj) == {"v", "u"}:
            if obj["v"] == "inf":
                return "0"
            return [obj["v"], str(int(obj["u"]) % base ** (n - max(obj["v"], 0)))]
        return {k: _windowed(v, ring) for k, v in obj.items()
                if k != "valid_at_precision"}
    if isinstance(obj, list):
        return [_windowed(v, ring) for v in obj]
    return obj


def _payload(res):
    try:
        return json.loads(res["stdout"])
    except ValueError:
        return None


def content(q, res):
    payload = _payload(res)
    if res["code"] not in (0, 1) or payload is None:
        return {"code": res["code"]}
    return {"code": res["code"], "out": _windowed(payload, q["input"]["ring"])}


def check(q, res, full: bool):
    inp, code = q["input"], res["code"]
    if "Traceback" in res["stderr"]:
        last = res["stderr"].strip().splitlines()[-1]
        return [f"traceback ({last})"]
    if code not in CONTRACT:
        return [f"exit code {code} outside the contract"]
    if code not in inp["codes"]:
        return [f"exit code {code}, expected one of {inp['codes']}"]
    payload = _payload(res)
    if payload is None:
        return ["stdout is not JSON"] if code != 2 or res["stdout"] else []
    if code == 2:
        return []
    return _check_payload(inp, payload, code, full)


def _check_payload(inp, out, code, full):
    cmd, expect = inp["cmd"], inp["expect"]
    problems = []
    if cmd == "scalar" and out.get("valuation", out.get("result", {})
                                   .get("v")) != expect["valuation"]:
        problems.append("scalar valuation is wrong")
    if cmd == "snf" and full:
        from daggerkit import serialize
        ring = serialize.ring_from_json(inp["ring"])
        A = serialize.matrix_from_json(ring, json.loads(inp["argv"][
            inp["argv"].index("--matrix") + 1]))
        U, D, W = (serialize.matrix_from_json(ring, out[k]) for k in "UDW")
        if U * A * W != D:
            problems.append("U A W != D")
    if cmd == "torsion" and (code == 0) != out["torsion_free"]:
        problems.append("torsion exit code disagrees with torsion_free")
    if cmd == "certify" and (code == 0) != out["ok"]:
        problems.append("certify exit code disagrees with ok")
    if cmd == "monoid" and any(out[k] != v for k, v in expect.items()):
        problems.append("monoid answer is wrong")
    if cmd == "lattice" and inp["variant"] in ("membership", "equal") \
            and code != 0:
        problems.append(f"lattice {inp['variant']} answered false")
    if cmd == "cocycle-check" and out.get("cocycle_identity_holds") is False:
        problems.append("bicharacter cocycle failed the identity")
    if cmd == "nctorus" and not (out["commutation_relation_holds"]
                                 and out["all_monomials_match"]):
        problems.append("torus relation fails")
    if cmd == "specrad" and (out["rho_exponent"] != expect["rho"]
                             or out["newton_polygon_slope"] != expect["rho"]):
        problems.append("spectral exponent differs from the companion's")
    if cmd == "closure" and (code == 0) != (out["stabilized_at"] is not None):
        problems.append("closure exit code disagrees with stabilized_at")
    if cmd == "probe" and (code == 1) != ("diverging" in
                                          out["verdicts"].values()):
        problems.append("probe exit code disagrees with its verdicts")
    if cmd == "ubprobe" and (code == 1) != (out["verdict"] == "diverging"):
        problems.append("ubprobe exit code disagrees with its verdict")
    if cmd == "crossed" and out["product"]["Dz"] != expect.get("Dz", 3):
        problems.append("crossed product ignores the support cap")
    if cmd == "gallery" and not out["pass"]:
        problems.append("gallery entry failed")
    return problems

