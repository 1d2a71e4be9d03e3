import contextlib
import io
import json
import time

import pytest

from orlicalc.cli import build_parser, _run_one, main
from orlicalc.young import young_from_json


def run(argv):
    """One query through ``main``, with the parser it keeps for the process."""
    stream = io.StringIO()
    with contextlib.redirect_stdout(stream):
        code = main(argv)
    return code, stream.getvalue()


DIAG_SPACE = '{"family":"lebesgue","params":{"p":2}}'
DIAG = f"--json diag --space '{DIAG_SPACE}'"
UNDECIDED_DIAG = ("--json diag --space "
                  "'{\"family\":\"lambda\",\"params\":{\"generator\":{\"class\":\"power-log\",\"p\":1}}}'")


class TestSubcommands:
    def test_conj_self_dual(self):
        code, out = run(["--json", "conj",
                         "--young", '{"class":"power-log","p":2,"coef":0.5}',
                         "--at", "1,4"])
        assert code == 0
        payload = json.loads(out)
        assert payload["outcome"]["values"]["1.0"] == pytest.approx(0.5)
        assert payload["outcome"]["values"]["4.0"] == pytest.approx(8.0)

    def test_conj_table_output_loads_back(self):
        code, out = run(["--json", "conj",
                         "--young", '{"class":"linfty","threshold":2}',
                         "--at", "0.001,1,10"])
        assert code == 0
        outcome = json.loads(out)["outcome"]
        expected = [0.002, 2.0, 20.0]
        assert list(outcome["values"].values()) == pytest.approx(expected)
        C = young_from_json(outcome["function"])
        assert [C(x) for x in (0.001, 1.0, 10.0)] == pytest.approx(expected, rel=1e-12)
        # the reported function is accepted as input again
        code, again = run(["--json", "inverse", "--young",
                           json.dumps(outcome["function"]), "--at", "0.002"])
        assert code == 0
        assert json.loads(again)["outcome"]["values"]["0.002"] == pytest.approx(0.001)

    def test_inverse(self):
        code, out = run(["--json", "inverse", "--young",
                         '{"class":"power-log","p":2}', "--at", "4"])
        assert code == 0
        assert json.loads(out)["outcome"]["values"]["4.0"] == pytest.approx(2.0)

    def test_dominates_exit_codes(self):
        code, _ = run(["dominates", "--young", '{"class":"power-log","p":3}',
                       "--below", '{"class":"power-log","p":2}',
                       "--regime", "near-infinity"])
        assert code == 0

    def test_dominates_reads_the_power_a_table_extrapolates_with(self):
        # the samples of t^2 extrapolate as t^2 past their grid, which no
        # dilation of t^1.2 bounds: B(1e4) = 1e8 against A(4e4) = 3.3e5
        code, out = run(["--json", "dominates", "--young", '{"class":"power-log","p":1.2}',
                         "--below", '{"class":"table","grid":[[1,1],[2,4],[4,16],[8,64]]}'])
        assert code == 0
        assert json.loads(out)["outcome"]["status"] == "fails"

    def test_norm_from_inline_fn(self):
        code, out = run(["--json", "norm",
                         "--space", '{"family":"lebesgue","params":{"p":2}}',
                         "--fn", '{"pieces":[[2,3]]}'])
        assert code == 0
        assert json.loads(out)["outcome"]["value"] == pytest.approx(12 ** 0.5)

    def test_orlicz_norm_of_a_tail_far_below_the_table(self):
        # the tail's u0 lies four decades below the generator's first node;
        # the norm was "inf".  The value is 40-digit mpmath
        code, out = run(["--json", "norm", "--space",
                         '{"family":"orlicz","params":{"young":{"class":"power-log","p":1.3}}}',
                         "--fn", '{"pieces":[[1e-12,0.001]],"tail":{"coef":9.120108393559097e-13,'
                         '"expo":0.02,"width":0.01}}'])
        assert code == 0
        assert json.loads(out)["outcome"]["value"] == pytest.approx(3.172409414193040e-14,
                                                                    rel=1e-9)

    def test_marcinkiewicz_norm_of_a_steep_tail_is_inf(self):
        code, out = run(["--json", "norm", "--space",
                         '{"family":"marcinkiewicz","params":{"generator":{"class":"power-log","p":2}}}',
                         "--fn", '{"pieces":[],"tail":{"coef":1,"expo":0.6,"width":0.5}}'])
        assert code == 0
        assert json.loads(out)["outcome"]["value"] == "inf"

    def test_alternative_target(self):
        code, out = run(["--json", "alternative", "target", "--space",
                         '{"family":"lorentz","params":{"p":4,"q":2}}'])
        assert code == 0
        payload = json.loads(out)
        assert payload["outcome"]["result"] == "optimal"
        assert payload["outcome"]["space"]["family"] == "lebesgue"
        assert payload["outcome"]["space"]["params"]["p"] == 4

    def test_sobolev_linfty_target(self):
        code, out = run(["--json", "sobolev", "domain", "--target", "linfty",
                         "--m", "1", "--n", "3"])
        assert code == 0
        payload = json.loads(out)
        assert payload["outcome"]["result"] == "no-optimal"
        assert payload["outcome"]["witness_data"]["index"] == pytest.approx(3.0)

    def test_sobolev_limiting_scale(self):
        code, out = run(["--json", "sobolev", "domain", "--target",
                         '{"family":"lorentz-zygmund","params":{"p":"inf","q":3,"alpha":-1}}',
                         "--m", "1", "--n", "3"])
        assert code == 0
        payload = json.loads(out)
        assert payload["outcome"]["result"] == "no-optimal"
        assert payload["rule"] == "weak-companion-route"

    def test_maximal_no_target_path(self):
        code, out = run(["--json", "maximal", "target", "--young",
                         '{"class":"power-log","p":1}'])
        assert code == 0
        payload = json.loads(out)
        assert payload["outcome"]["result"] == "no-optimal"
        assert payload["outcome"]["witness_data"]["reason"] == "no Orlicz target exists"

    def test_maximal_target_just_above_the_linear_log_class(self):
        # the transform's own table used to fail a midpoint-convexity scan
        code, out = run(["--json", "maximal", "target", "--young",
                         '{"class":"power-log","p":1,"alpha_zero":-1.5,"alpha_inf":1.01}'])
        assert code == 0
        assert json.loads(out)["outcome"]["result"] == "optimal"

    def test_conj_of_sampled_square(self):
        # the samples of t^2 at 1, 2 and 4: below them the derivative is 2t,
        # so the conjugate is s^2 / 4 up to s = 2
        code, out = run(["--json", "conj", "--young",
                         '{"class":"table","grid":[[1,1],[2,4],[4,16]]}', "--at", "0.5,1,2"])
        assert code == 0
        vals = list(json.loads(out)["outcome"]["values"].values())
        assert vals == pytest.approx([0.0625, 0.25, 1.0], rel=1e-12, abs=0)

    def test_laplace_dichotomy(self):
        code, out = run(["--json", "laplace", "target", "--young",
                         '{"class":"power-log","p":3}'])
        assert code == 0
        assert json.loads(out)["outcome"]["result"] == "no-optimal"

    def test_sobolev_target_without_a_power_descriptor(self):
        # L^inf's profile is flat, a limit-const end: the contraction is
        # searched over sigma = 2**-k, and no constant below 1 exists
        code, out = run(["--json", "sobolev", "target", "--space",
                         '{"family":"lebesgue","params":{"p":"inf"}}', "--m", "1", "--n", "3"])
        assert code == 2
        payload = json.loads(out)
        assert payload["outcome"]["condition"] == {
            "reason": "no contraction constant found on the sigma grid",
            "status": "undecided", "witness": None}

    def test_laplace_sufficient_holds(self):
        # t**1.5 doubles with a sub-quadratic profile: the condition holds
        # and the report carries the target's table, which loads back
        code, out = run(["--json", "laplace", "sufficient", "--young",
                         '{"class":"power-log","p":1.5}'])
        assert code == 0
        payload = json.loads(out)["outcome"]
        assert payload["verdict"]["status"] == "holds"
        assert payload["verdict"]["reason"] == "doubling with sub-quadratic profile"
        assert payload["verdict"]["witness"] == pytest.approx(3.0 * 2.0 ** 0.5, rel=1e-12)
        assert young_from_json(payload["target"]).recipe == {"class": "table"}

    def test_diag(self):
        code, out = run(["--json", "diag", "--space",
                         '{"family":"lorentz","params":{"p":3,"q":2}}'])
        assert code == 0
        assert json.loads(out)["outcome"]["status"] == "uniformly-sub-diagonal"

    def test_witness_and_lift_roundtrip(self, tmp_path):
        csv = tmp_path / "f.csv"
        csv.write_text("value,width\n2.0,0.5\n1.0,1.5\n")
        code, out = run(["--json", "witness", "--generator",
                         '{"class":"power-log","p":2}', "--samples", str(csv)])
        assert code == 0
        payload = json.loads(out)
        assert payload["outcome"]["certificate_at_unit_scale"] <= 1.0 + 1e-9
        code, out = run(["--json", "lift", "--young", '{"class":"power-log","p":2}',
                         "--space", '{"family":"lorentz","params":{"p":2,"q":1}}',
                         "--samples", str(csv)])
        assert code == 0
        assert json.loads(out)["outcome"]["value"] > 0


class TestErrorsAndModes:
    def test_lift_with_tail_is_exit_1(self):
        code, out = run(["--json", "lift", "--young", '{"class":"power-log","p":2}',
                         "--space", '{"family":"lebesgue","params":{"p":2}}',
                         "--fn", '{"pieces":[[1,1]],"tail":{"coef":2,"expo":0.3,"width":0.01}}'])
        assert code == 1
        assert out.startswith("error:") and "tail" in out

    @pytest.mark.parametrize("fn", [
        '{"pieces":[[1]]}', '{"pieces":[null]}', '{"pieces":[[1,0.5,7]]}',
        '{"pieces":[[1,"nan"]]}', '{"pieces":[[1,"inf"]]}', '{"pieces":[[1,2],[3]]}',
        '{"pieces":[[-1,1]]}', '{"pieces":[[1,0]]}', '{"pieces":[[1,{}]]}',
        '{"pieces":7}', '[[1,1]]', '{}', '{"pieces":[],"tail":{"coef":null,"expo":1,"width":1}}',
        '{"pieces":[],"tail":[1,2]}', '{"pieces":[],"tail":{"coef":"inf","expo":1,"width":1}}',
        '{"pieces":[[1,1]],"length":"nan"}'])
    def test_malformed_step_function_is_exit_1(self, fn, capfd):
        code, out = run(["--json", "norm", "--space", '{"family":"lebesgue","params":{"p":2}}',
                         "--fn", fn])
        assert code == 1
        assert out.startswith("error: bad sampled function") and "NaN" not in out
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("weight", ['{"pieces":[[1]]}', '{"pieces":[[1,"nan"]]}',
                                        '{"pieces":[],"tail":3}', '5'])
    def test_malformed_weight_is_exit_1(self, weight):
        space = '{"family":"classical-lorentz","params":{"weight":%s,"q":2}}' % weight
        code, out = run(["--json", "norm", "--space", space, "--fn", '{"pieces":[[1,1]]}'])
        assert code == 1
        assert out.startswith("error: bad space description")

    @pytest.mark.parametrize("text, line", [
        ("value,width\n1,0.5\n2\n", 3), ("1,0.5\n1,abc\n0.5,0.3\n", 2), ("2\n", 1)])
    def test_malformed_csv_row_is_exit_1_naming_its_line(self, tmp_path, text, line):
        path = tmp_path / "f.csv"
        path.write_text(text)
        code, out = run(["--json", "norm", "--space", '{"family":"lebesgue","params":{"p":2}}',
                         "--samples", str(path)])
        assert code == 1
        assert out.startswith("error: bad sampled function") and f"line {line}:" in out

    def test_csv_comments_blank_lines_and_header_are_skipped(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("# f\n\nvalue,width\n2,0.5\n\n# the rest\n1,1.5\n")
        code, out = run(["--json", "norm", "--space", '{"family":"lebesgue","params":{"p":2}}',
                         "--samples", str(path)])
        assert code == 0
        assert json.loads(out)["outcome"]["value"] == pytest.approx(3.5 ** 0.5)

    @pytest.mark.parametrize("argv", [
        ["conj", "--young", '{"class":"table","grid":[[1]]}'],
        ["conj", "--young", '{"class":"table","grid":[[1,1]],"derivative_grid":[1]}'],
        ["conj", "--young", '{"class":"power-log","p":null}'],
        ["conj", "--young", "[1]"],
        ["conj", "--young", '{"class":"exponential","gamma":1e-9}'],
        ["conj", "--young", '{"class":"exponential","gamma":"inf"}'],
        ["conj", "--young", '{"class":"linfty","threshold":-1}'],
        ["conj", "--young", '{"class":"linfty","threshold":0}'],
        ["conj", "--young", '{"class":"linfty","threshold":"inf"}'],
        ["norm", "--space", "[]", "--fn", '{"pieces":[[1,1]]}'],
        ["norm", "--space", '{"family":"lebesgue","params":[]}', "--fn", '{"pieces":[[1,1]]}'],
        ["norm", "--space", '{"family":5,"params":{}}', "--fn", '{"pieces":[[1,1]]}'],
        ["norm", "--space", '{"family":"lambda","params":{"generator":[1]}}',
         "--fn", '{"pieces":[[1,1]]}'],
        ["sobolev", "domain", "--m", "1", "--n", "3"],
        ["sobolev", "domain", "--m", "1", "--n", "3", "--target", "[]"],
        ["sobolev", "domain", "--m", "1", "--n", "3", "--target", "5"],
        ["sobolev", "domain", "--m", "1", "--n", "3", "--target", '{"class":"power-log","p":null}'],
    ])
    def test_malformed_description_is_exit_1(self, argv, capfd):
        code, out = run(["--json"] + argv)
        assert code == 1
        assert out.startswith("error:") and "NaN" not in out
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("argv, name", [
        (["norm", "--space", '{"family":"orlicz","params":{"young":'
          '{"class":"power-log","p":"nan"}}}', "--fn", '{"pieces":[[1,0.5]]}'], "exponent p"),
        (["dominates", "--young", '{"class":"power-log","p":"inf"}',
          "--below", '{"class":"power-log","p":2}'], "exponent p"),
        (["dominates", "--young", '{"class":"power-log","p":2,"coef":-1}',
          "--below", '{"class":"power-log","p":2}'], "coef"),
        (["dominates", "--young", '{"class":"power-log","p":2,"coef":"nan"}',
          "--below", '{"class":"power-log","p":2}'], "coef"),
        (["conj", "--young", '{"class":"power-log","p":2,"alpha_inf":"nan"}'], "alpha_inf"),
        (["norm", "--space", '{"family":"lorentz-zygmund","params":{"p":2,"q":2,"alpha":"nan"}}',
          "--fn", '{"pieces":[[1,0.5]]}'], "alpha"),
        (["norm", "--space", '{"family":"lorentz-zygmund","params":{"p":2,"q":2,"alpha":"inf"}}',
          "--fn", '{"pieces":[[1,0.5]]}'], "alpha"),
    ])
    def test_malformed_parameter_is_exit_1_naming_it(self, argv, name, capfd):
        # these once ended in a number, a verdict or NaN
        code, out = run(["--json"] + argv)
        assert code == 1
        assert out.startswith("error:") and name in out
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("fn, value", [('{"pieces":[[1e299,100000]]}', 1e304),
                                           ('{"pieces":[[1e-300,1]]}', 1e-300)])
    def test_norms_at_the_ends_of_the_scale_range(self, fn, value):
        # the scale search once answered +inf past 1e300 and 0 below 1e-300
        young = '{"class":"power-log","p":1}'
        for argv in (["norm", "--space", '{"family":"orlicz","params":{"young":%s}}' % young],
                     ["lift", "--young", young,
                      "--space", '{"family":"lebesgue","params":{"p":1}}']):
            code, out = run(["--json"] + argv + ["--fn", fn])
            assert code == 0
            assert value <= json.loads(out)["outcome"]["value"] <= value * (1 + 1e-9)

    @pytest.mark.parametrize("young, node", [
        # the values of t^2 on a grid that is not the derivative's
        ('{"class":"table","grid":[[1,1],[2,4],[4,16],[8,64]],'
         '"derivative_grid":[[2,4],[4,8],[8,16]]}', "t=1"),
        # one value off the integral of 2t
        ('{"class":"table","grid":[[1,1],[2,5],[4,16]],'
         '"derivative_grid":[[1,2],[2,4],[4,8]]}', "t=2"),
        # samples whose slope falls
        ('{"class":"table","grid":[[1,1],[2,4],[4,5]]}', "t=2"),
    ])
    def test_inconsistent_table_is_exit_1_naming_the_node(self, young, node, capfd):
        code, out = run(["--json", "conj", "--young", young])
        assert code == 1
        assert out.startswith("error:") and node in out
        assert capfd.readouterr().err == ""

    def test_witness_with_tail_is_exit_1(self):
        for pieces in ("[]", "[[1,1]]"):
            code, out = run(["--json", "witness", "--generator", '{"class":"power-log","p":2}',
                             "--fn", '{"pieces":%s,"tail":{"coef":2,"expo":0.3,"width":0.5}}'
                             % pieces])
            assert code == 1
            assert out.startswith("error:") and "tail" in out

    def test_norm_infinite_at_every_scale_is_quick_and_quiet(self, capfd):
        # the modular of exp(t) along the s^-0.3 tail is infinite at every
        # scale, so the scale search runs out to its cap
        start = time.perf_counter()
        code, out = run(["--json", "norm", "--space",
                         '{"family":"orlicz","params":{"young":{"class":"exponential","gamma":1}}}',
                         "--fn", '{"pieces":[[3,0.01],[1,0.4]],'
                                 '"tail":{"coef":2,"expo":0.3,"width":0.01}}'])
        elapsed = time.perf_counter() - start
        assert code == 0
        assert json.loads(out)["outcome"]["value"] == "inf"
        assert capfd.readouterr().err == ""
        assert elapsed < 0.1

    def test_bad_json_is_exit_1(self):
        code, out = run(["norm", "--space", "{not json", "--fn",
                         '{"pieces":[[1,1]]}'])
        assert code == 1
        assert "error" in out

    def test_missing_subcommand_usage(self):
        code, _ = run([])
        assert code == 1

    def test_undecided_exit_2(self):
        # endpoint generator without reverse doubling: uniformity unknown
        code, out = run(["--json", "diag", "--space",
                         '{"family":"lambda","params":{"generator":{"class":"power-log","p":1}}}'])
        assert code == 2
        assert json.loads(out)["outcome"]["status"] == "unknown"

    def test_determinism(self):
        argv = ["--json", "alternative", "domain", "--space",
                '{"family":"lorentz","params":{"p":3,"q":1}}']
        out1 = run(argv)[1]
        out2 = run(argv)[1]
        assert out1 == out2

    def test_batch(self, tmp_path):
        batch = tmp_path / "queries.txt"
        batch.write_text(
            "--json alternative target --space "
            "'{\"family\":\"lorentz\",\"params\":{\"p\":4,\"q\":2}}'\n"
            "# a comment\n"
            "--json diag --space '{\"family\":\"lebesgue\",\"params\":{\"p\":2}}'\n")
        code, out = run(["--batch", str(batch)])
        assert code == 0
        assert out.count("\n") == 2

    def test_missing_batch_file_is_exit_1(self, tmp_path):
        path = tmp_path / "missing.txt"
        code, out = run(["--batch", str(path)])
        assert code == 1
        assert out.startswith("error: ") and f"'{path}'" in out and out.count("\n") == 1

    def test_batch_line_with_an_unbalanced_quote_is_exit_1_and_the_batch_goes_on(
            self, tmp_path):
        batch = tmp_path / "queries.txt"
        batch.write_text(f"{DIAG}\nconj --young '{{\"class\"\n{DIAG}\n")
        code, out = run(["--batch", str(batch)])
        assert code == 1
        first, error, last = out.splitlines()
        assert error == "error: line 2: No closing quotation"
        assert json.loads(first) == json.loads(last)

    def test_usage_error_is_exit_1_and_the_batch_goes_on(self, tmp_path):
        code, out = run(["conj", "--young", '{"class":"power-log","p":2}', "--frobnicate"])
        assert (code, out) == (1, "error: orlicalc: unrecognized arguments: --frobnicate\n")
        # an input error on any line makes the batch's code 1, above the 2
        # of an undecided line; without one the largest code is the batch's
        batch = tmp_path / "queries.txt"
        batch.write_text(f"{DIAG}\n{UNDECIDED_DIAG}\n")
        assert run(["--batch", str(batch)])[0] == 2
        batch.write_text(f"conj --frobnicate\n\n{DIAG}\nbogus\n{UNDECIDED_DIAG}\n")
        code, out = run(["--batch", str(batch)])
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "error: line 1: orlicalc conj: the following arguments are " \
                           "required: --young"
        assert json.loads(lines[1])["outcome"]["status"] == "uniformly-sub-diagonal"
        assert lines[2].startswith("error: line 4: orlicalc: argument cmd: invalid choice: "
                                   "'bogus'")
        assert json.loads(lines[3])["outcome"]["status"] == "unknown"
        assert len(lines) == 4
        # the shared parser comes through: it answers as a fresh one does
        argv, fresh = ["--json", "diag", "--space", DIAG_SPACE], io.StringIO()
        assert _run_one(build_parser(), argv, fresh) == 0
        assert run(argv) == (0, fresh.getvalue())

    def test_help_is_exit_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["-h"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: orlicalc")

    def test_main_entry(self, capsys):
        code = main(["--json", "fundamental", "--space",
                     '{"family":"lebesgue","params":{"p":2}}', "--at", "0.25"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["outcome"]["values"]["0.25"] == pytest.approx(0.5)
