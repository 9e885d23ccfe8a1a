"""Byte pins of CLI stdout: the sha256 of what ``dispatch`` prints,
trailing newline included, and its exit code.

The bytes were recorded before the twisted-series one-term products and
chain reads were made lean, before F_q[[t]] inverses ran at doubling
precision and Smith forms dropped unread transforms, before lattice sums
returned a lattice that nothing is added to and products skipped zero
pairs, and while sums that grow still rebuilt their Hermite form.  The
last three stdout pins were recorded once every lattice was built in the
canonical form, one truncation window for all, and the two F_q[[t]]
``nctorus`` pins before the twisted-series products, basis series,
equalities and chain reads paid only for their terms.

The help pins were recorded while the CLI still imported every module at
start-up; the parser's text and choices must not depend on what is loaded.
"""

import hashlib

import pytest

from daggerkit.cli import dispatch

Z2 = '{"kind":"Z","rank":2}'
N1 = '{"monoid":{"kind":"N","rank":1},"D":6,"terms":'
# the companion matrix of x^3 - 2 pi
C3 = '[[["0","0","2*pi"],["1","0","0"],["0","1","0"]]]'
# over Z_5 at N = 3, an entry of W that is zero at N reaches no pivot
W = '{"ambient_rank":2,"generators":[["11*pi^2","11"],["5*pi^-1","pi^-1"]]}'
# M = pi^3 e1 is zero at N = 3, so it lies in L, though L's frame sees pi^2
L = '{"ambient_rank":2,"pi_exponent":1,"generators":[["pi^2"],["1"]]}'
M = '{"ambient_rank":2,"pi_exponent":3,"generators":[["1"],["0"]]}'
Q = ('{"ambient_rank":3,"generators":[["pi",{"v":2,"u":"777"}],'
     '["pi^2",{"v":1,"u":"5551"}],'
     '[{"v":1,"u":"123456"},{"v":1,"u":"12345"}]]}')
P5_20 = ["--p", "5", "--precision", "20"]
P5_3 = ["--p", "5", "--precision", "3"]
Q9_12 = ["--q", "9", "--precision", "12"]

PINS = [
    ("33c9083cc065de9c9aba10dd631dca786c72279702670e7918f45b69134fc4ed", 0,
     ["nctorus", *P5_20, "--D", "6", "--lambda", '"7"']),
    ("3f21da406289182543f56343e49af959965532dc4bc48e2c014ff1d95beda0a7", 0,
     ["series-mul", *P5_20,
      "--a", '{"monoid":' + Z2 + ',"D":4,"terms":[{"s":[1,0],"x":"2"},'
             '{"s":[0,-1],"x":"3"},{"s":[2,1],"x":"1"}]}',
      "--b", '{"monoid":' + Z2 + ',"D":4,"terms":[{"s":[-1,1],"x":"1"},'
             '{"s":[0,2],"x":"4"},{"s":[2,0],"x":"-2"}]}',
      "--cocycle", '{"kind":"bicharacter","lambda":"2","Q":[[0,1],[-1,2]]}']),
    ("4cad436f3f4ce1f44a605734874f7d88ba9550d23004e036aa4491b74f342868", 0,
     ["series-mul", *P5_20,
      "--a", '{"monoid":' + Z2 + ',"D":3,"terms":[{"s":[2,1],"x":"3"}]}',
      "--b", '{"monoid":' + Z2 + ',"D":3,"terms":[{"s":[-1,-1],"x":"7"}]}',
      "--cocycle", '{"kind":"bicharacter","lambda":"2","Q":[[0,1],[-1,2]]}']),
    ("b3d881c98e01cc0706b48b2898a1139fec32ba6b05e489dcccbaa41fab4b15f4", 0,
     ["crossed", *P5_20, "--action", '{"a":[["1"]],"b":["1"]}',
      "--u", '{"Dz":3,"terms":[{"n":0,"series":' + N1 + '[{"s":[1],"x":"1"},'
             '{"s":[2],"x":"3"}]}},{"n":1,"series":' + N1
             + '[{"s":[0],"x":"2"}]}}]}',
      "--v", '{"Dz":3,"terms":[{"n":-1,"series":' + N1
             + '[{"s":[3],"x":"1"}]}},{"n":2,"series":' + N1
             + '[{"s":[1],"x":"4"},{"s":[0],"x":"1"}]}}]}']),
    ("66c90ef189dc05d04abdf033c4ca77936c71568d595dad8d04d4a432cfc2b5bf", 0,
     ["snf", *Q9_12,
      "--matrix", '[["7","pi","3"],["pi^2","5","1"],["2","4","pi"]]']),
    ("2125adef5010effe6ad332eff63e9d8f162de077737b08915b83d51f8f1221c7", 0,
     ["lattice", "--op", "intersect", *Q9_12,
      "--lattice", '{"ambient_rank":3,"generators":[[{"v":0,"u":"123456"},'
                   '"pi","3"],["0",{"v":1,"u":"98765"},"4"],'
                   '["pi^2","pi",{"v":0,"u":"5551"}]]}',
      "--other", '{"ambient_rank":3,"generators":[["5","1","pi"],'
                 '["pi",{"v":0,"u":"77777"},"1"],'
                 '["2","pi^2",{"v":2,"u":"40404"}]]}']),
    ("d3e14b7f1d19ab9320605f80232ed60aab851bae73946d32275a6816a064d9c1", 0,
     ["closure", "--p", "5", "--precision", "40", "--d", "3", "--imax", "8",
      "--lattice", C3]),
    ("3a5b52125efecc35385ca77267c0dda49d417324fcb42fd7395d3a332f45c490", 0,
     ["probe", "--p", "5", "--precision", "40", "--d", "3", "--m", "1",
      "--j", "1,2,3", "--lattice", C3]),
    ("3a65e3104f6ecf521786604164b148bc263b078c7408d7f1c6cc61dba9788e51", 0,
     ["lattice", "--op", "sum", *P5_3, "--lattice", W, "--other", W]),
    ("da9993dc6554eaaf914946b9708c10e02c7fa86ae33b150afacdc0d9ace92677", 0,
     ["lattice", "--op", "sum", *P5_3, "--lattice", L, "--other", M]),
    ("da9993dc6554eaaf914946b9708c10e02c7fa86ae33b150afacdc0d9ace92677", 0,
     ["lattice", "--op", "sum", *P5_3, "--lattice", M, "--other", L]),
    # over F_9[[t]], a sum that adds nothing and one that grows
    ("a265b51ffb353b5da5203410a2d8df72dd1ba9f586311810a31b5e2ddb145cdd", 0,
     ["lattice", "--op", "sum", *Q9_12, "--lattice", Q,
      "--other", '{"ambient_rank":3,"generators":[[{"v":2,"u":"777"}],'
                 '[{"v":1,"u":"5551"}],[{"v":1,"u":"12345"}]]}']),
    ("21bd40ad44d0e37ea7d6bbe91d47f5335028234505a49282ddb769815a9f01e6", 0,
     ["lattice", "--op", "sum", *Q9_12, "--lattice", Q,
      "--other", '{"ambient_rank":3,"generators":[["pi^3"],["pi^2"],["0"]]}']),
    # a new column inserted at a row no pivot takes: an earlier column is
    # reduced at the new pivot, then both at the later pivot pi^2
    ("3228739de0749893200dd83327f05f747520f50b810a28a0f79c107e9e6090d2", 0,
     ["lattice", "--op", "sum", "--p", "5", "--precision", "12",
      "--lattice", '{"ambient_rank":4,"generators":[["1","0"],["8","0"],'
                   '["2","0"],["7","pi^2"]]}',
      "--other", '{"ambient_rank":4,"generators":[["0"],["pi"],["1"],'
                 '["30"]]}']),
    ("7c92454b23a851221e5853c3bdf01d5433d977b458452fad05f94fbb4754cefa", 0,
     ["lattice", "--op", "sum", *Q9_12,
      "--lattice", '{"ambient_rank":4,"generators":[["1","0"],'
                   '[{"v":0,"u":"123456"},"0"],[{"v":1,"u":"5"},"0"],'
                   '[{"v":0,"u":"4321"},"pi^2"]]}',
      "--other", '{"ambient_rank":4,"generators":[["0"],["pi"],'
                 '[{"v":0,"u":"77"}],[{"v":1,"u":"60"}]]}']),
    # a module with torsion exits 1
    ("4e524bc4eee806483ec8b58c7f7add8d613396d3f32614d83559a502cb355146", 1,
     ["torsion", "--q", "4", "--precision", "12",
      "--relations",
      '[["pi","1","pi^2"],["0","pi^3","pi"],["pi^2","0","1"]]']),
    # W as stored prints the pivot "u":"1", as the sum of W with itself
    ("3a65e3104f6ecf521786604164b148bc263b078c7408d7f1c6cc61dba9788e51", 0,
     ["lattice", "--op", "scale", "--e", "0", *P5_3, "--lattice", W]),
    # pi^3 e1 lies in L, and pi^2 L is the zero lattice
    ("b446d5b4871bdc8847b0fc5ac514fba90a8d299be8249b8d10c517884a0154d1", 0,
     ["lattice", "--op", "membership", *P5_3, "--lattice", L,
      "--vector", '["pi^3","0"]']),
    ("2b4168426f80a22396c89b2ecaa2d1d4b41858eb848ea2540738e42f8ab6f258", 0,
     ["lattice", "--op", "scale", "--e", "2", *P5_3, "--lattice", L]),
    # over F_4[[t]] and F_9[[t]], lambda = 6 is not 1 (7 is 1 in
    # characteristic 2 and 3): the p = 2 lanes and the odd-p lanes.  The
    # output is verdicts only, so both print the same bytes
    ("72e10b33cc193896027d2a574d84ab9ffe5553da08efb61fcf59fc3ddc9b7965", 0,
     ["nctorus", "--q", "4", "--precision", "20", "--D", "6",
      "--lambda", '{"v":0,"u":"6"}']),
    ("72e10b33cc193896027d2a574d84ab9ffe5553da08efb61fcf59fc3ddc9b7965", 0,
     ["nctorus", "--q", "9", "--precision", "20", "--D", "6",
      "--lambda", '{"v":0,"u":"6"}']),
]


@pytest.mark.parametrize("digest,code,argv", PINS,
                         ids=[f"{i:02d}-{a[0]}" for i, (_, _, a)
                              in enumerate(PINS)])
def test_stdout_bytes_are_pinned(digest, code, argv, capsys):
    assert dispatch(argv) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out


HELP_PINS = [
    ("e66fb5ba91f40005744a7a96ab8582777c63caada486ecd358d1a84dbecadd69",
     ["--help"]),
    ("f3c5bbae87d3e56c034a71f93739ef4188c0ec3c4727065e25fcada7a142a32a",
     ["gallery", "--help"]),
]


@pytest.mark.parametrize("digest,argv", HELP_PINS,
                         ids=["help", "gallery-help"])
def test_help_bytes_are_pinned(digest, argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to this width
    with pytest.raises(SystemExit) as exc:
        dispatch(argv)
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out


def test_unknown_gallery_name_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        dispatch(["gallery", "bogus", "--p", "5"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


# Usage errors, help and bare subcommands, pinned as (stdout sha256, stderr
# sha256, exit code) at COLUMNS=80; recorded while every subparser was still
# built on every call, so argparse's text must not depend on how many are.
USAGE_ARGVS = {
    "no-command": [],
    "unknown-command": ["bogus"],
    "dash-h": ["-h"],
    "option-before-command": ["--pretty", "scalar"],
    "extra-positional": ["scalar", "--p", "5", "--op", "neg", "--x", "1",
                         "extra"],
    "invalid-op": ["scalar", "--p", "5", "--op", "bogus", "--x", "1"],
    "non-integer-p": ["scalar", "--p", "x", "--op", "neg", "--x", "1"],
    "unknown-gallery-name": ["gallery", "bogus", "--p", "5"],
    "unrecognized-option": ["snf", "--p", "5", "--matrix", '[["1"]]',
                            "--bogus"],
    "abbreviated-option": ["scalar", "--p", "5", "--prec", "10", "--op",
                           "val", "--x", '"pi^2"'],
}
for _name in ("scalar", "snf", "torsion", "series-mul", "certify", "monoid",
              "lattice", "ubprobe", "nctorus", "cocycle-check", "specrad",
              "closure", "probe", "crossed", "gallery"):
    USAGE_ARGVS[f"{_name}-help"] = [_name, "--help"]
    USAGE_ARGVS[f"{_name}-bare"] = [_name]

USAGE_PINS = {
    "abbreviated-option": (
        "d15b888c7da4873596b989d20f1c920ab6d4d2ff31d07b8610f130f28a2fd5f5",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "certify-bare": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "ab1b17eecf13f5233e425c90202a683c1cdf7b98f93af2d0bd2e477082bf92c6", 2),
    "certify-help": (
        "399e75f3d54e5b5688fb3343c1fae780d579c5abdcb3f575dfcd6113308531b4",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "closure-bare": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "ca0c93bc046461b3d78580ed2d40ac2d0d89c3c297aea6cb5048d08bf5390714", 2),
    "closure-help": (
        "57e15956ba665012fe74affc48c19ee42e6a8964d23bb7beb94dc6bafed0ad36",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "cocycle-check-bare": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e2c023473be1c5eec2b440bc1b8c30b5e7b4fe027b312593fd1c4e13d12ee425", 2),
    "cocycle-check-help": (
        "f42be5f9735d4f9e7187e4e251bdb0efd1330790984927a715fed893710a4719",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "crossed-bare": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "0bfd1798802dac13b59f932d373e5e9a072c6fa6a11e447c67c0b9cb8ce3f969", 2),
    "crossed-help": (
        "a0ca5ed50414f7375ab3c2a3b573407be4d9ab3825cde3b4c4a64282d555316d",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "dash-h": (
        "e66fb5ba91f40005744a7a96ab8582777c63caada486ecd358d1a84dbecadd69",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "extra-positional": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "dc7018811443cf47052b1e5a8c9dfb80719a10950b135b6974336d7018691621", 2),
    "gallery-bare": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "033b9c829a9d939cadb20f07c143268f4a81153fb49c145b6ea5aba670ba49cd", 2),
    "gallery-help": (
        "f3c5bbae87d3e56c034a71f93739ef4188c0ec3c4727065e25fcada7a142a32a",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "invalid-op": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "96a614aaad44c79ba14768854511048305c0c522bd323b6e7f019a666c050367", 2),
    "lattice-bare": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "309f650882d1b40da9e691e84f868d3258f4170f84b3945c44c757854e7ee37f", 2),
    "lattice-help": (
        "fce0e177de85992a5f5e2006d630890f6bb2a8818d4538f525538b036dee007d",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "monoid-bare": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "d98924f026663bd2cfc2ab11cd64d34ed9044fe183983facdbfee99bccb44cee", 2),
    "monoid-help": (
        "c19a46c9f9cec2fa9a0663a8ec22cedb0332f63bbe4c47560c79c0b36b26c567",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "nctorus-bare": (
        "5b1efdf4dea77482d9eb386be191c6a8d0bc1e9610c350cf12b896be8e6f8813",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "nctorus-help": (
        "09ad151b6795a22f1afffad48932cfee03f3b816f29f5895db8f2eff3416936d",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "no-command": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "681527382e3405490f38e804f6dc1163ea2c2b25882948e88c2e20da7283e563", 2),
    "non-integer-p": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "376a6d3b3ca63928aea6685102a0d9d812570a76880d9bb81c3a1bed2215daac", 2),
    "option-before-command": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "40c63d123f3c5f6eba9f7aed0857a76772b8588b2de7e1f8b86f99928a623698", 2),
    "probe-bare": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "9afdd464b587e53c7d4682f93bb6f8bb123fd2a57841f2a0e1b6413946a6c3fe", 2),
    "probe-help": (
        "5cfedb9f2490ccb14e381964cf3eb5e528bde462bc1cf7d4298fa62128a75db6",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "scalar-bare": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "40c63d123f3c5f6eba9f7aed0857a76772b8588b2de7e1f8b86f99928a623698", 2),
    "scalar-help": (
        "50f3d982ec44f3eb8d6ab732304ff1a34da9d16e595774bf16783d2393d9c435",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "series-mul-bare": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "109f62cf26186a745c2864191b73f32bcb2a521b79c74d76c3b0bb073949afa0", 2),
    "series-mul-help": (
        "720d69aed93b46a310be4ca4e3389b1c21a6bd556bdacba5900fba32f7f5ba41",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "snf-bare": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "c63c15ce3e7afb7671de8ad95974309f5e284d6da0f933a696ab859fb682204d", 2),
    "snf-help": (
        "24f34573e95ef9b4b84d6246aae6b772daa1aa6b9e79d0b3c07c5f1552d1a5e8",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "specrad-bare": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "461c2376a7225db25d7b23a876f5de07e9171f638c8e4e6340b526a3ba15fc11", 2),
    "specrad-help": (
        "8ea06cd47a4d51e4670f8fd11cf1aebd1044eb275bb21c38c72eab0fc55c05a6",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "torsion-bare": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "f8bc8f3bc5792defa6e999ef18a4583ee54df2a734239646c1eea16ae4cbc13b", 2),
    "torsion-help": (
        "2b93270d73db8326c0b3fac1d1e0a60d1598c98e2f63dd070b37c81eb10110dc",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "ubprobe-bare": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "2461ce8dc14ac75fd94279c9b9f28128b42e5bd0c07371511d4451026e8f92d3", 2),
    "ubprobe-help": (
        "78ddcb5a94fac6f7d62b09f8587fcf4f97477e0dfc3831bc1bc39f46d020f09c",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "unknown-command": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "1b1129e8f8edcce2b67d44fbfc50d99293bcd764aa76ad61fbed7b0c46290e47", 2),
    "unknown-gallery-name": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "2e7d130bf59274e65ff045044189460fe05111134c55f47b8428f864b2513210", 2),
    "unrecognized-option": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "70063ecc56cded2c72c38824f40fb61c24bdcedd69e39792188f65d212687461", 2),
}


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def usage_run(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = dispatch(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return _sha(out), _sha(err), code


def test_every_usage_argv_is_pinned():
    assert set(USAGE_PINS) == set(USAGE_ARGVS)


@pytest.mark.parametrize("key", sorted(USAGE_ARGVS))
def test_usage_bytes_are_pinned(key, capsys, monkeypatch):
    assert usage_run(USAGE_ARGVS[key], capsys, monkeypatch) == \
        USAGE_PINS[key]
