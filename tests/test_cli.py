"""CLI dispatch, exit codes, schema round-trips, report determinism."""

import json
import os
import subprocess
import sys

import pytest

import daggerkit
from daggerkit import serialize
from daggerkit.cli import dispatch
from daggerkit.crossed import CrossedElem, shift_action
from daggerkit.linalg import Lattice, MatrixV
from daggerkit.monoid import BicharacterCocycle, MonoidDescriptor
from daggerkit.ring import RingDescriptor
from daggerkit.series import DaggerSeries, GrowthCertificate


def run(capsys, argv):
    code = dispatch(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


RING = ["--p", "5", "--precision", "20"]


def run_child(argv):
    """Run the CLI in a fresh interpreter, as a shell user would."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(daggerkit.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", "from daggerkit.cli import main; main()",
         *argv], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src))
    assert "Traceback" not in proc.stderr, proc.stderr
    return proc.returncode, json.loads(proc.stdout)


class TestScalar:
    def test_add(self, capsys):
        code, out = run(capsys, ["scalar", *RING, "--op", "add",
                                 "--x", '"pi^2"', "--y", '"3*pi^2"'])
        assert code == 0
        assert out["result"] == {"v": 2, "u": "4"}

    def test_val(self, capsys):
        code, out = run(capsys, ["scalar", *RING, "--op", "val",
                                 "--x", '"2*pi^3"'])
        assert code == 0
        assert out["valuation"] == 3

    def test_div_negative_valuation(self, capsys):
        code, out = run(capsys, ["scalar", *RING, "--op", "div",
                                 "--x", '"pi^2"', "--y", '"pi^3"'])
        assert code == 0
        assert out["result"]["v"] == -1

    def test_division_by_zero_is_input_error(self, capsys):
        code, out = run(capsys, ["scalar", *RING, "--op", "div",
                                 "--x", "1", "--y", "0"])
        assert code == 2
        assert out["error"] == "input"

    def test_missing_ring(self, capsys):
        code, out = run(capsys, ["scalar", "--op", "val", "--x", "1"])
        assert code == 2


class TestSnfAndTorsion:
    def test_snf_report(self, capsys):
        code, out = run(capsys, ["snf", *RING, "--matrix",
                                 '[["1","1"],["1","pi"]]'])
        assert code == 0
        assert out["diagonal_exponents"] == [0, 0]

    def test_valid_at_precision(self, capsys):
        # nothing cancels in the identity, so its form is exact at N
        code, out = run(capsys, ["snf", *RING, "--matrix",
                                 '[["1","0"],["0","1"]]'])
        assert code == 0
        assert out["valid_at_precision"] is True
        # the second row of [[1,1],[1,1]] cancels to zero
        code, out = run(capsys, ["snf", *RING, "--matrix",
                                 '[["1","1"],["1","1"]]'])
        assert code == 0
        assert out["diagonal_exponents"] == [0]
        assert out["valid_at_precision"] is False

    def test_torsion_false_exit_one(self, capsys):
        code, out = run(capsys, ["torsion", *RING, "--relations",
                                 '[["pi"]]'])
        assert code == 1
        assert out == {"torsion_free": False, "torsion_exponents": [1],
                       "free_rank": 0}

    def test_torsion_free(self, capsys):
        code, out = run(capsys, ["torsion", *RING, "--relations",
                                 '[["1","0"],["0","0"]]'])
        assert code == 0
        assert out["torsion_free"] is True


class TestSeriesCommands:
    SERIES = json.dumps({
        "monoid": {"kind": "N", "rank": 1},
        "ring": {"backend": "padic", "p": 5, "precision": 20},
        "D": 4,
        "terms": [{"s": [0], "x": {"v": 0, "u": "1"}},
                  {"s": [3], "x": {"v": 0, "u": "2"}}],
        "certificate": None,
        "truncated": False,
    })

    def test_mul(self, capsys):
        code, out = run(capsys, ["series-mul", *RING, "--a", self.SERIES,
                                 "--b", self.SERIES])
        assert code == 0
        degrees = {tuple(t["s"]) for t in out["product"]["terms"]}
        assert degrees == {(0,), (3,)}  # degree 6 truncated away
        assert out["product"]["truncated"] is True

    def test_certify_failure_exit_one(self, capsys):
        code, out = run(capsys, ["certify", *RING, "--series", self.SERIES,
                                 "--c", "1"])
        assert code == 1
        assert out["minimal_offset"] == 2
        assert out["envelope_vertices"] == [[0, 1], [3, 1]]

    def test_certify_success(self, capsys):
        code, out = run(capsys, ["certify", *RING, "--series", self.SERIES,
                                 "--c", "1/4"])
        assert code == 0
        assert out["ok"] is True


class TestTorusAndCocycles:
    def test_nctorus_fixed_lambda(self, capsys):
        code, out = run(capsys, ["nctorus", "--p", "5", "--precision", "20",
                                 "--D", "3", "--lambda", '"7"'])
        assert code == 0
        assert out["commutation_relation_holds"] is True
        assert out["all_monomials_match"] is True

    def test_nctorus_random_lambda_deterministic(self, capsys):
        code1, out1 = run(capsys, ["nctorus", "--p", "5", "--D", "2",
                                   "--seed", "5"])
        code2, out2 = run(capsys, ["nctorus", "--p", "5", "--D", "2",
                                   "--seed", "5"])
        assert (code1, out1) == (code2, out2)

    def test_cocycle_check_bad_table_rejected(self, capsys):
        cocycle = json.dumps({"kind": "bicharacter",
                              "lambda": {"v": 1, "u": "1"},
                              "Q": [[0, 0], [1, 0]]})
        code, out = run(capsys, ["cocycle-check", *RING,
                                 "--cocycle", cocycle,
                                 "--monoid", '{"kind":"Z","rank":2}'])
        assert code == 2  # non-unit lambda is a schema violation


class TestSpectralCommands:
    def test_specrad_report(self, capsys):
        code, out = run(capsys, ["specrad", "--p", "5", "--precision", "40",
                                 "--matrix", '[["0","1"],["pi","0"]]',
                                 "--nmax", "16"])
        assert code == 0
        assert out["rho_exponent"] == "1/2"
        assert out["rho1_exponent"] == "0"
        assert out["newton_polygon_slope"] == "1/2"

    def test_closure(self, capsys):
        code, out = run(capsys, ["closure", *RING, "--d", "2", "--lattice",
                                 '[[["0","1"],["0","0"]]]', "--imax", "4"])
        assert code == 0
        assert out["stabilized_at"] == 0
        assert out["pi_UU_in_U"] is True

    def test_probe_diverging_exit_one(self, capsys):
        lattice = '[[["pi^-1","0"],["0","1"]]]'
        code, out = run(capsys, ["probe", "--p", "5", "--precision", "40",
                                 "--d", "2", "--lattice", lattice,
                                 "--m", "1", "--j", "1,2"])
        assert code == 1
        assert out["verdicts"] == {"1": "bounded", "2": "diverging"}


class TestCrossedCommand:
    def test_product_and_certify(self, capsys):
        ring = RingDescriptor("padic", 5, 20)
        n1 = MonoidDescriptor("N", 1)
        x = DaggerSeries(ring, n1, {n1.element((1,)): ring.one()}, 6)
        u = CrossedElem(ring, n1, {0: x}, 4, 6, GrowthCertificate(1, 0))
        v = CrossedElem(ring, n1, {1: DaggerSeries.unit(ring, n1, 6)}, 4, 6,
                        GrowthCertificate(1, 0))
        alpha = shift_action(ring)
        action_json = json.dumps(serialize.action_to_json(alpha))
        code, out = run(capsys, [
            "crossed", *RING,
            "--action", action_json,
            "--u", json.dumps(serialize.crossed_to_json(u)),
            "--v", json.dumps(serialize.crossed_to_json(v)),
            "--c", "1"])
        # x delta_1 needs offset 1 at c = 1, so the verdict is "false"
        assert code == 1
        assert out["certify"] == {"c": "1", "ok": False, "minimal_offset": 1}
        assert out["product"]["certificate"] == {"c": "1", "k": 1}


class TestExitCodeContract:
    """Malformed or edge inputs exit 0/1/2/3 with JSON and no traceback."""

    LATTICE = json.dumps({"ambient_rank": 2,
                          "generators": [["1", "0"], ["0", "pi"]]})

    def test_flat_matrix_is_schema_error(self):
        code, out = run_child(["snf", "--p", "5", "--precision", "10",
                               "--matrix", "[1,2]"])
        assert code == 2
        assert out["error"] == "input"

    def test_json_booleans_are_not_scalars(self, capsys):
        # int(True) is 1, so a boolean used to read as the scalar 1
        code, out = run_child(["snf", "--p", "5", "--precision", "10",
                               "--matrix", "[[true]]"])
        assert code == 2
        assert out["error"] == "input"
        for blob in ('[[false, 1]]', '[[{"v": true, "u": "1"}]]',
                     '[[{"v": 0, "u": true}]]'):
            code, out = run(capsys, ["snf", *RING, "--matrix", blob])
            assert code == 2, blob
            assert "boolean" in out["detail"]
        # the zero lattice's generators [[], []] (empty rows) still parse
        zero = serialize.lattice_to_json(
            Lattice.zero(RingDescriptor("padic", 5, 20), 2))
        assert zero["generators"] == [[], []]
        code, out = run(capsys, ["lattice", *RING, "--op", "intersect",
                                 "--lattice", json.dumps(zero),
                                 "--other", self.LATTICE])
        assert code == 0
        assert out["lattice"] == zero

    def test_module_entry_point_keeps_the_contract(self):
        # ``python -m daggerkit.cli`` used to define main() and exit 0
        # without running it, printing nothing
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            daggerkit.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "daggerkit.cli", "snf", "--p", "5",
             "--matrix", "[[true]]"], capture_output=True, text=True,
            timeout=120, env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "input"

    def test_snf_of_a_matrix_without_columns_is_schema_error(self, capsys):
        # [[]] parses as a 1 x 0 matrix, which snf used to accept (exit 0)
        for blob in ("[[]]", "[[], []]"):
            code, out = run(capsys, ["snf", *RING, "--matrix", blob])
            assert code == 2, blob
            assert "at least one column" in out["detail"]
        code, out = run_child(["snf", *RING, "--matrix", "[[]]"])
        assert code == 2
        assert out["error"] == "input"
        # rows like [] still parse: a relation matrix without columns
        # presents a free module
        code, out = run(capsys, ["torsion", *RING, "--relations", "[[]]"])
        assert code == 0
        assert out["free_rank"] == 1

    def test_membership_without_vector_is_schema_error(self):
        code, out = run_child(["lattice", *RING, "--op", "membership",
                               "--lattice", self.LATTICE])
        assert code == 2
        assert "--vector" in out["detail"]

    def test_wrong_length_generators_are_input_errors(self):
        # an all-zero generator of the wrong length is as bad as any other
        for entry in ("0", "1"):
            lattice = json.dumps({"ambient_rank": 2,
                                  "generators": [[entry, "0", "0"]]})
            code, out = run_child(["lattice", *RING, "--op", "gauge",
                                   "--lattice", lattice])
            assert code == 2
            assert out["error"] == "input"
            assert "wrong ambient rank" in out["detail"]

    def test_probe_j_zero_is_input_error(self):
        code, out = run_child(["probe", *RING, "--d", "2", "--j", "0",
                               "--lattice", '[[["pi","0"],["0","1"]]]'])
        assert code == 2
        assert out["error"] == "input"

    def test_cocycle_that_is_not_an_object_is_schema_error(self, capsys):
        a = TestSeriesCommands.SERIES
        for blob in ("[]", "1", '"x"'):
            for argv in (["cocycle-check", *RING, "--cocycle", blob,
                          "--monoid", '{"kind":"Z","rank":2}'],
                         ["series-mul", *RING, "--a", a, "--b", a,
                          "--cocycle", blob]):
                code, out = run(capsys, argv)
                assert code == 2
                assert "JSON object" in out["detail"]

    def test_bicharacter_q_that_is_not_square_is_schema_error(self, capsys):
        # [[1], [2]] used to end in an IndexError traceback (exit 1), and
        # [[1, 0, 0], [2, 1, 0]] used to drop a column and exit 0
        z2 = '{"kind":"Z","rank":2}'
        a = json.dumps({"monoid": json.loads(z2), "D": 3,
                        "terms": [{"s": [1, 0], "x": "1"}]})
        b = json.dumps({"monoid": json.loads(z2), "D": 3,
                        "terms": [{"s": [0, 1], "x": "1"}]})
        for Q in ([[1], [2]], [[1, 0, 0], [2, 1, 0]]):
            cocycle = json.dumps({"kind": "bicharacter", "lambda": "2",
                                  "Q": Q})
            for argv in (["series-mul", *RING, "--a", a, "--b", b,
                          "--cocycle", cocycle],
                         ["cocycle-check", *RING, "--monoid", z2,
                          "--cocycle", cocycle]):
                code, out = run(capsys, argv)
                assert code == 2, argv
                assert "square matrix of integers" in out["detail"]
        code, out = run_child(["series-mul", "--p", "5", "--a", a, "--b", b,
                               "--cocycle", '{"kind":"bicharacter",'
                               '"lambda":"2","Q":[[1],[2]]}'])
        assert code == 2
        assert out["error"] == "input"

    def test_negative_degree_cap_is_input_error(self, capsys):
        # an empty lattice under --D -1 used to give a zero-dimensional
        # context and exit 0
        for lattice in ("[]", f"[{TestSeriesCommands.SERIES}]"):
            code, out = run(capsys, ["ubprobe", *RING, "--action",
                                     '{"a":[["1"]],"b":["1"]}',
                                     "--lattice", lattice, "--D", "-1"])
            assert code == 2, lattice
            assert out["error"] == "input"

    def test_monoid_compose_without_t_is_schema_error(self, capsys):
        code, out = run(capsys, ["monoid", "--monoid", '{"kind":"N","rank":1}',
                                 "--op", "compose", "--s", "[1]"])
        assert code == 2
        assert "--t" in out["detail"]

    def test_div_without_y_is_input_error(self, capsys):
        # div used to read --y unchecked: an AttributeError traceback, exit 1
        code, out = run(capsys, ["scalar", *RING, "--op", "div",
                                 "--x", "1"])
        assert code == 2
        assert out == {"error": "input", "detail": "div needs two operands"}

    def test_non_list_json_lists_are_schema_errors(self, capsys):
        # ubprobe --lattice and membership --vector used to iterate any
        # JSON value, so these raised TypeError out of dispatch
        ubprobe = ["ubprobe", *RING, "--action", '{"a":[["1"]],"b":["1"]}',
                   "--lattice"]
        membership = ["lattice", *RING, "--op", "membership",
                      "--lattice", self.LATTICE, "--vector"]
        closure = ["closure", *RING, "--d", "1", "--lattice"]
        for blob in ("5", "1.5", "true", "null", '{}', '"x"'):
            for argv, what in ((ubprobe, "series"), (membership, "scalars"),
                               (closure, "matrices")):
                code, out = run(capsys, argv + [blob])
                assert code == 2, (argv, blob)
                assert out["detail"] == f"expected a JSON list of {what}"

    def test_cocycle_check_needs_both_s_and_t(self, capsys):
        # one of them alone used to run the sampled check and exit 0
        argv = ["cocycle-check", *RING, "--monoid", '{"kind":"Z","rank":2}',
                "--cocycle", '{"kind":"trivial"}']
        for given, missing in (("--s", "--t"), ("--t", "--s")):
            code, out = run(capsys, argv + [given, "[1,0]"])
            assert code == 2
            assert missing in out["detail"]
        code, out = run(capsys, argv + ["--s", "[1,0]", "--t", "[0,1]"])
        assert code == 0
        assert out == {"value": {"v": 0, "u": "1"}}

    def test_ubprobe_term_above_degree_cap_is_input_error(self, capsys):
        ring = RingDescriptor("padic", 5, 20)
        n1 = MonoidDescriptor("N", 1)
        gen = DaggerSeries(ring, n1, {n1.element((3,)): ring.one()}, 4)
        lattice = json.dumps([serialize.series_to_json(gen)])
        argv = ["ubprobe", *RING, "--action", '{"a":[["1"]],"b":["1"]}',
                "--lattice", lattice]
        code, out = run(capsys, argv + ["--D", "2"])
        assert code == 2
        assert out["error"] == "input"
        code, out = run(capsys, argv + ["--D", "3"])
        assert code == 0

    def test_iteration_budgets_below_one_are_input_errors(self, capsys):
        ubprobe = ["ubprobe", *RING, "--action", '{"a":[["1"]],"b":["1"]}',
                   "--lattice", json.dumps([serialize.series_to_json(
                       DaggerSeries.unit(RingDescriptor("padic", 5, 20),
                                         MonoidDescriptor("N", 1), 4))])]
        lattice = '[[["pi","0"],["0","1"]]]'
        probe = ["probe", *RING, "--d", "2", "--lattice", lattice]
        closure = ["closure", *RING, "--d", "2", "--lattice", lattice]
        # matrix sizes and sample counts below 1 too
        cocycle = ["cocycle-check", *RING, "--monoid", '{"kind":"Z","rank":2}',
                   "--cocycle", '{"kind":"trivial"}']
        for argv in (ubprobe + ["--depth", "-1"], ubprobe + ["--depth", "0"],
                     probe + ["--lmax", "0"], closure + ["--imax", "0"],
                     probe + ["--lmax", "-1"], closure + ["--imax", "-1"],
                     ["closure", *RING, "--d", "-1", "--lattice", "[]"],
                     ["closure", *RING, "--d", "0", "--lattice", "[]"],
                     ["probe", *RING, "--d", "-1", "--lattice", "[]"],
                     ["probe", *RING, "--d", "0", "--lattice", "[]"],
                     cocycle + ["--samples", "0"],
                     cocycle + ["--samples", "-1"]):
            code, out = run(capsys, argv)
            assert code == 2, argv
            assert "at least 1" in out["detail"]
        for argv in (ubprobe + ["--depth", "1"], probe + ["--lmax", "1"],
                     closure + ["--imax", "1"], cocycle + ["--samples", "1"],
                     ["closure", *RING, "--d", "1", "--lattice", "[]"]):
            code, out = run(capsys, argv)
            assert code in (0, 1), argv

    def test_crossed_dz_caps_the_product(self):
        ring = RingDescriptor("padic", 5, 20)
        n1 = MonoidDescriptor("N", 1)
        x = DaggerSeries(ring, n1, {n1.element((1,)): ring.one()}, 4)
        u = CrossedElem(ring, n1, {-1: x, 1: x}, 3, 4)
        v = CrossedElem(ring, n1, {0: x, 2: x}, 3, 4)
        argv = ["crossed", *RING,
                "--action", json.dumps(serialize.action_to_json(
                    shift_action(ring))),
                "--u", json.dumps(serialize.crossed_to_json(u)),
                "--v", json.dumps(serialize.crossed_to_json(v))]
        code, full = run_child(argv)
        assert code == 0
        assert sorted(t["n"] for t in full["product"]["terms"]) == [-1, 1, 3]
        assert full["product"]["truncated"] is False
        code, out = run_child(argv + ["--Dz", "1"])
        assert code == 0
        assert out["product"]["Dz"] == 1
        assert sorted(t["n"] for t in out["product"]["terms"]) == [-1, 1]
        assert out["product"]["truncated"] is True
        code, out = run_child(argv + ["--Dz", "-1"])
        assert code == 2


class TestGalleryCommand:
    def test_nonseparated_passes(self, capsys):
        code, out = run(capsys, ["gallery", "nonseparated", "--p", "5",
                                 "--precision", "12", "--D", "8"])
        assert code == 0
        assert out["pass"] is True

    def test_nonclosed_image_passes(self, capsys):
        code, out = run(capsys, ["gallery", "nonclosed-image", "--p", "5",
                                 "--precision", "12", "--D", "8"])
        assert code == 0

    def test_cap_too_small(self, capsys):
        code, out = run(capsys, ["gallery", "nonseparated", "--p", "5",
                                 "--D", "1"])
        assert code == 2
        assert out == {"error": "input",
                       "detail": "nonseparated gallery needs cap >= 2"}


class TestRemainingOps:
    """Paths no other case runs in-process: exit 3, the lattice ops scale,
    preimage, intersect-standard and star-scale, scalar pow and monoid
    length-ge1."""

    E = '{"ambient_rank":2,"generators":[["1"],["pi"]]}'  # span(e1 + pi e2)

    def lattice(self, capsys, op, *extra):
        return run(capsys, ["lattice", "--op", op, *RING,
                            "--lattice", self.E, *extra])

    def test_specrad_below_minus_n_is_precision_exhausted(self, capsys):
        code, out = run(capsys, ["specrad", "--p", "5", "--precision", "40",
                                 "--matrix", '[["pi^-30"]]'])
        assert code == 3
        assert out == {"error": "precision_exhausted",
                       "detail": "gauge exponent -60 of the 2-th power is "
                                 "below -N"}

    def test_closure_below_minus_n_is_precision_exhausted(self, capsys):
        code, out = run(capsys, ["closure", "--p", "5", "--d", "1",
                                 "--lattice", '[[["pi^-30"]]]'])
        assert code == 3
        assert out["error"] == "precision_exhausted"

    def test_scale_and_preimage(self, capsys):
        gens = [[{"u": "1", "v": 0}], [{"u": "1", "v": 1}]]
        for op, e, exponent in (("scale", "2", 2), ("preimage", "2", -2)):
            code, out = self.lattice(capsys, op, "--e", e)
            assert code == 0
            assert out["lattice"] == {"ambient_rank": 2, "generators": gens,
                                      "pi_exponent": exponent}

    def test_preimage_at_zero_is_input_error(self, capsys):
        code, out = self.lattice(capsys, "preimage", "--e", "0")
        assert code == 2
        assert out == {"error": "input", "detail": "j must be positive"}

    def test_star_scale(self, capsys):
        code, out = self.lattice(capsys, "star-scale", "--t", "3/2")
        assert code == 0
        assert out["lattice"]["pi_exponent"] == 2

    def test_intersect_standard(self, capsys):
        # span(pi^-1 e1 + e2) meets V^2 in span(e1 + pi e2)
        code, out = run(capsys, ["lattice", "--op", "intersect-standard",
                                 *RING, "--lattice", '{"ambient_rank":2,'
                                 '"generators":[["pi^-1"],["1"]]}'])
        assert code == 0
        assert out["lattice"] == {
            "ambient_rank": 2, "pi_exponent": 0,
            "generators": [[{"u": "1", "v": 0}], [{"u": "1", "v": 1}]]}

    def test_scalar_pow(self, capsys):
        code, out = run(capsys, ["scalar", *RING, "--op", "pow",
                                 "--x", '"2*pi"', "--e", "3"])
        assert code == 0
        assert out["result"] == {"v": 3, "u": "8"}

    def test_monoid_length_ge1(self, capsys):
        for s, length in (("[1,-2]", 3), ("[0,0]", 1)):
            code, out = run(capsys, ["monoid", "--monoid", '{"kind":"Z",'
                                     '"rank":2}', "--op", "length-ge1",
                                     "--s", s])
            assert code == 0
            assert out == {"length_ge1": length}

    def test_seed_is_read_only_where_it_is_used(self, capsys):
        with pytest.raises(SystemExit) as exc:
            dispatch(["snf", *RING, "--matrix", '[["1"]]', "--seed", "1"])
        assert exc.value.code == 2
        code, _ = run(capsys, ["cocycle-check", *RING, "--seed", "3",
                               "--cocycle", '{"kind":"trivial"}',
                               "--monoid", '{"kind":"Z","rank":2}'])
        assert code == 0


class TestDeterminism:
    def test_identical_invocations_identical_bytes(self, capsys):
        argv = ["specrad", "--p", "5", "--precision", "40",
                "--matrix", '[["2","1"],["pi","3"]]', "--nmax", "8"]
        dispatch(argv)
        first = capsys.readouterr().out
        dispatch(argv)
        second = capsys.readouterr().out
        assert first == second


class TestRoundTrips:
    def test_scalar_round_trip(self):
        ring = RingDescriptor("padic", 7, 10)
        for x in (ring.zero(), ring.one(), ring.scalar(42).scaled_by_pi(-2)):
            obj = serialize.scalar_to_json(x)
            assert serialize.scalar_from_json(ring, obj) == x

    def test_eqchar_scalar_round_trip(self):
        ring = RingDescriptor("eqchar", 9, 6)
        x = ring.from_valuation_unit(2, 7)
        obj = serialize.scalar_to_json(x)
        assert serialize.scalar_from_json(ring, obj) == x

    def test_ring_round_trip(self):
        for ring in (RingDescriptor("padic", 5, 40),
                     RingDescriptor("eqchar", 4, 8)):
            assert serialize.ring_from_json(serialize.ring_to_json(ring)) \
                == ring

    def test_series_round_trip(self):
        ring = RingDescriptor("padic", 5, 20)
        z2 = MonoidDescriptor("Z", 2)
        a = DaggerSeries(ring, z2,
                         {z2.element((1, -2)): ring.scalar(3),
                          z2.element((0, 0)): ring.pi(2)}, 5,
                         GrowthCertificate("1/2", 1))
        back = serialize.series_from_json(serialize.series_to_json(a))
        assert back == a
        assert back.certificate == a.certificate

    def test_lattice_round_trip(self):
        ring = RingDescriptor("padic", 5, 20)
        L = Lattice.from_columns(
            ring, 2, [[ring.pi(-1), ring.zero()],
                      [ring.one(), ring.pi(2)]])
        back = serialize.lattice_from_json(ring, serialize.lattice_to_json(L))
        assert back == L

    def test_cocycle_round_trip(self):
        # cocycles are read, never written: the JSON of lambda = 7 and
        # Q = [[0, 0], [1, 0]] gives that cocycle back
        ring = RingDescriptor("padic", 5, 20)
        c = BicharacterCocycle(ring.scalar(7), [[0, 0], [1, 0]])
        back = serialize.cocycle_from_json(ring, json.loads(
            '{"kind": "bicharacter", "lambda": {"v": 0, "u": "7"}, '
            '"Q": [[0, 0], [1, 0]]}'))
        assert isinstance(back, BicharacterCocycle)
        assert back.lam == c.lam and back.Q == c.Q

    def test_crossed_round_trip(self):
        ring = RingDescriptor("padic", 5, 20)
        n1 = MonoidDescriptor("N", 1)
        u = CrossedElem(
            ring, n1,
            {-1: DaggerSeries(ring, n1, {n1.element((2,)): ring.pi(3)}, 6),
             2: DaggerSeries.unit(ring, n1, 6)}, 4, 6)
        back = serialize.crossed_from_json(serialize.crossed_to_json(u), ring)
        assert back == u

    def test_bad_schema(self):
        ring = RingDescriptor("padic", 5, 20)
        with pytest.raises(serialize.SchemaError):
            serialize.scalar_from_json(ring, {"v": 1})
        with pytest.raises(serialize.SchemaError):
            serialize.parse_scalar(ring, "pie")
        with pytest.raises(serialize.SchemaError):
            serialize.ring_from_json({"backend": "padic"})
