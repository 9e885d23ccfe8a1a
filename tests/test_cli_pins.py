"""Byte pins of CLI stdout: the sha256 of what ``dispatch`` prints,
trailing newline included, and its exit code.

The bytes were recorded before the twisted-series one-term products and
chain reads were made lean, before F_q[[t]] inverses ran at doubling
precision and Smith forms dropped unread transforms, before lattice sums
returned a lattice that nothing is added to and products skipped zero
pairs, and while sums that grow still rebuilt their Hermite form.

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
# over Z_5 at N = 3, W's pivot carries digits above the window
W = '{"ambient_rank":2,"generators":[["11*pi^2","11"],["5*pi^-1","pi^-1"]]}'
# M = pi^3 e1 is zero at N = 3 but not in L's frame
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
