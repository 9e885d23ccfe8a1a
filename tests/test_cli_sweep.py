"""The exit-code contract under wrong-typed JSON: each subcommand's
known-good argv keeps exiting 0, 1, 2 or 3 with one JSON object on stdout
when any one of its JSON arguments is replaced by a value of the wrong
type.  A hypothesis test then varies each known-good argv further: a JSON
argument or any part of it, an integer option, a free-text option.  Every
argv runs in-process through ``dispatch``."""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from daggerkit import cli, serialize
from daggerkit.cli import dispatch

R = ["--p", "5", "--precision", "8"]
Z2 = '{"kind":"Z","rank":2}'
SERIES = '{"monoid":' + Z2 + ',"D":3,"terms":[{"s":[1,0],"x":"2"}]}'
N1_SERIES = '{"monoid":{"kind":"N","rank":1},"D":3,"terms":[{"s":[1],"x":"1"}]}'
LATTICE = '{"ambient_rank":2,"generators":[["1","0"],["pi","pi^2"]]}'
BICHARACTER = '{"kind":"bicharacter","lambda":"2","Q":[[0,1],[-1,2]]}'
ACTION = '{"a":[["1"]],"b":["1"]}'
CROSSED = '{"Dz":2,"terms":[{"n":1,"series":' + N1_SERIES + '}]}'
MATRICES = '[[["pi","0"],["0","1"]]]'

# row: [(the other arguments, {JSON-valued flag: known-good value})], with a
# second form where the --op decides which JSON arguments are read
GOOD = {
    "scalar": [([*R, "--op", "div"], {"--x": '"3"', "--y": '"pi"'})],
    "snf": [(R, {"--matrix": '[["1","pi"],["pi^2","3"]]'})],
    "torsion": [(R, {"--relations": '[["pi"]]'})],
    "series-mul": [(R, {"--a": SERIES, "--b": SERIES,
                        "--cocycle": BICHARACTER})],
    "certify": [([*R, "--c", "1/2"], {"--series": SERIES})],
    "monoid": [(["--op", "compose"], {"--monoid": Z2, "--s": "[1,0]",
                                      "--t": "[0,1]"})],
    "lattice": [([*R, "--op", "sum"], {"--lattice": LATTICE,
                                       "--other": LATTICE}),
                ([*R, "--op", "membership"], {"--lattice": LATTICE,
                                              "--vector": '["1","pi"]'})],
    "ubprobe": [([*R, "--D", "3", "--depth", "2"],
                 {"--action": ACTION, "--lattice": f"[{N1_SERIES}]"})],
    "nctorus": [([*R, "--D", "2"], {"--lambda": '"7"'})],
    "cocycle-check": [([*R, "--samples", "3"],
                       {"--cocycle": BICHARACTER, "--monoid": Z2}),
                      (R, {"--cocycle": BICHARACTER, "--monoid": Z2,
                           "--s": "[1,0]", "--t": "[0,1]"})],
    "specrad": [([*R, "--nmax", "4"], {"--matrix": '[["0","1"],["pi","0"]]'})],
    "closure": [([*R, "--d", "2", "--imax", "2"], {"--lattice": MATRICES})],
    "probe": [([*R, "--d", "2", "--lmax", "2", "--j", "1"],
               {"--lattice": MATRICES})],
    "crossed": [(R, {"--action": ACTION, "--u": CROSSED, "--v": CROSSED})],
    "gallery": [(["nonseparated", *R, "--D", "4"], {})],
}

WRONG = ["5", '"x"', "[]", "{}", "[5]", "null", "true", "[[]]", "[{}]", "1.5",
         '[["x"]]']


def argv_of(name, others, blobs):
    return [name, *others, *(x for item in blobs.items() for x in item)]


def contract_breach(argv, capsys):
    """None if ``argv`` keeps the contract, else what broke it."""
    try:
        code = dispatch(argv)
    except (Exception, SystemExit) as exc:  # argparse exits too
        capsys.readouterr()
        return f"{type(exc).__name__}: {exc}"
    out, err = capsys.readouterr()
    if code not in (0, 1, 2, 3):
        return f"exit {code}"
    if "Traceback" in err:
        return f"traceback on stderr: {err!r}"
    if out.count("\n") != 1 or not isinstance(json.loads(out), dict):
        return f"stdout is not one JSON object: {out!r}"
    return None


def test_every_row_has_a_known_good_argv():
    assert set(GOOD) == set(cli.COMMANDS)


@pytest.mark.parametrize("name", sorted(GOOD))
def test_wrong_typed_json_keeps_the_contract(name, capsys):
    breaches = []
    for others, blobs in GOOD[name]:
        argv = argv_of(name, others, blobs)
        assert dispatch(argv) in (0, 1), argv
        capsys.readouterr()
        for flag in blobs:
            for wrong in WRONG:
                argv = argv_of(name, others, {**blobs, flag: wrong})
                breach = contract_breach(argv, capsys)
                if breach:
                    breaches.append((flag, wrong, breach))
    assert not breaches, breaches


def _field(blob, **fields):
    return json.dumps({**json.loads(blob), **fields})


# an integer field takes a JSON integer or a string of decimal digits only:
# a float there (1.5, 1e400, 2.0) is bad input, never truncated or a crash
BAD_INTEGERS = {
    "v overflow": ["scalar", *R, "--op", "val",
                   "--x", '{"v":1e400,"u":"1"}'],
    "v fraction": ["scalar", *R, "--op", "val", "--x", '{"v":1.5,"u":"1"}'],
    "u fraction": ["scalar", *R, "--op", "val", "--x", '{"v":1,"u":1.9}'],
    "pi_exponent overflow": ["lattice", *R, "--op", "scale", "--e", "0",
                             "--lattice", _field(LATTICE, pi_exponent=1e400)],
    "ambient_rank fraction": ["lattice", *R, "--op", "scale", "--e", "0",
                              "--lattice", _field(LATTICE, ambient_rank=2.7)],
    "D fraction": ["certify", *R, "--c", "1/2",
                   "--series", _field(SERIES, D=3.9)],
    "monoid rank": ["monoid", "--op", "compose", "--s", "[1,0]",
                    "--t", "[0,1]", "--monoid", '{"kind":"Z","rank":2.0}'],
    "certificate k": ["series-mul", *R, "--b", SERIES, "--a", _field(
        SERIES, certificate={"c": "1/2", "k": 1.5})],
    "Dz fraction": ["crossed", *R, "--action", ACTION, "--v", CROSSED,
                    "--u", _field(CROSSED, Dz=2.5)],
    "n fraction": ["crossed", *R, "--action", ACTION, "--v", CROSSED,
                   "--u", CROSSED.replace('"n":1', '"n":1.0')],
    "monoid exponent fraction": ["monoid", "--op", "compose", "--monoid", Z2,
                                 "--s", "[1.5,0]", "--t", "[0,1]"],
    "monoid exponent boolean": ["monoid", "--op", "compose", "--monoid", Z2,
                                "--s", "[true,0]", "--t", "[0,1]"],
    "series exponent fraction": ["series-mul", *R, "--b", SERIES, "--a",
                                 SERIES.replace('"s":[1,0]', '"s":[1.7,0]')],
}


@pytest.mark.parametrize("name", sorted(BAD_INTEGERS))
def test_integer_fields_take_integers_only(name, capsys):
    code = dispatch(BAD_INTEGERS[name])
    out, err = capsys.readouterr()
    assert code == 2
    assert out.count("\n") == 1 and json.loads(out)["error"] == "input"
    assert "Traceback" not in err


def test_ring_fields_take_integers_only():
    ring = {"backend": "padic", "p": "5", "precision": 8}
    assert serialize.ring_from_json(ring).base == 5
    for bad in ({"p": 5.0}, {"precision": 8.5}, {"precision": True}):
        with pytest.raises(serialize.SchemaError):
            serialize.ring_from_json({**ring, **bad})


def test_deeply_nested_json_is_bad_input(tmp_path, capsys):
    deep = "[" * 100000 + "]" * 100000
    path = tmp_path / "deep.json"
    path.write_text(deep)
    for blob in (deep, f"@{path}"):
        assert dispatch(["snf", *R, "--matrix", blob]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["error"] == "input" and "nested" in out["detail"]


# -- a fuzz test of the contract over every row --

# the keys of the JSON schemas, so generated objects reach past the
# first missing key
KEYS = ["v", "u", "kind", "rank", "monoid", "D", "terms", "s", "x",
        "ambient_rank", "generators", "pi_exponent", "lambda", "Q", "a", "b",
        "Dz", "n", "series", "certificate", "c", "k", "truncated", "word",
        "backend", "p", "q", "precision", "ring"]
# leaves: small integers (sizes stay small), floats with their extremes,
# and strings the scalar and rational parsers read
LEAVES = (st.none() | st.booleans() | st.integers(-3, 9)
          | st.sampled_from([10**20, -10**20, 0.5, 1e400, -1e400])
          | st.floats(allow_nan=True, allow_infinity=True)
          | st.sampled_from(["pi", "pi^2", "pi^-1", "1", "-1", "0", "7",
                             "1/2", "1/0", "inf", "Z", "N", "free",
                             "bicharacter", "trivial", "padic", "", "x"]))
JSON_VALUES = st.recursive(
    LEAVES, lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.sampled_from(KEYS), kids, max_size=3),
    max_leaves=6)
# free text stays short: a long run of digits given to probe --j asks
# for that many lattice powers
TEXT = st.text(alphabet="0123456789-/,.pi^ x", max_size=3)
FUZZ_SETTINGS = settings(max_examples=20, deadline=None, derandomize=True,
                         database=None,
                         suppress_health_check=[HealthCheck.too_slow])


def options(name):
    """(integer flags, free-text flags) of a row: text flags are the ones
    no known-good argv passes JSON to."""
    blobs = {flag for _, b in GOOD[name] for flag in b}
    ints, texts = [], []
    for flag, kwargs in cli.COMMANDS[name][2]:
        if not flag.startswith("--") or "action" in kwargs \
                or "choices" in kwargs or flag in blobs:
            continue
        (ints if kwargs.get("type") is int else texts).append(flag)
    return ints, texts


def replaced(draw, obj, value):
    """obj with one part, drawn by a walk from the root, set to value."""
    if isinstance(obj, (list, dict)) and obj and draw(st.booleans()):
        key = draw(st.sampled_from(range(len(obj)) if isinstance(obj, list)
                                   else sorted(obj)))
        out = obj.copy()
        out[key] = replaced(draw, obj[key], value)
        return out
    return value


@st.composite
def fuzzed_argv(draw, name):
    """A known-good argv of the row with one argument changed, passed again
    at the end (argparse keeps the last) as --flag=value, so that a value
    that starts with "-" is not read as an option: a usage error has its
    own pinned output (``test_cli_pins``)."""
    others, blobs = draw(st.sampled_from(GOOD[name]))
    ints, texts = options(name)
    kinds = ["json"] * bool(blobs) + ["int"] * bool(ints) \
        + ["text"] * bool(texts)
    kind = draw(st.sampled_from(kinds))
    if kind == "json":
        flag = draw(st.sampled_from(sorted(blobs)))
        value = json.dumps(replaced(draw, json.loads(blobs[flag]),
                                    draw(JSON_VALUES)))
    elif kind == "int":
        flag = draw(st.sampled_from(ints))
        value = str(draw(st.integers(-2, 4)))
    else:
        flag, value = draw(st.sampled_from(texts)), draw(TEXT)
    return [*argv_of(name, others, blobs), f"{flag}={value}"]


@pytest.mark.parametrize("name", sorted(GOOD))
def test_fuzzed_argv_keeps_the_contract(name, capsys):
    """Exit 0, 1, 2 or 3, one JSON object on stdout and no traceback on
    stderr, for argv near a known-good one."""
    breaches = []

    @FUZZ_SETTINGS
    @given(fuzzed_argv(name))
    def run(argv):
        breach = contract_breach(argv, capsys)
        if breach:
            breaches.append((argv, breach))

    run()
    assert not breaches, breaches
