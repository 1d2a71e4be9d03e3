import io
import json
import time

import pytest

from orlicalc.cli import build_parser, _run_one, main
from orlicalc.young import young_from_json


def run(argv):
    parser = build_parser()
    stream = io.StringIO()
    code = _run_one(parser, argv, stream)
    return code, stream.getvalue()


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

    def test_norm_from_inline_fn(self):
        code, out = run(["--json", "norm",
                         "--space", '{"family":"lebesgue","params":{"p":2}}',
                         "--fn", '{"pieces":[[2,3]]}'])
        assert code == 0
        assert json.loads(out)["outcome"]["value"] == pytest.approx(12 ** 0.5)

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

    def test_laplace_dichotomy(self):
        code, out = run(["--json", "laplace", "target", "--young",
                         '{"class":"power-log","p":3}'])
        assert code == 0
        assert json.loads(out)["outcome"]["result"] == "no-optimal"

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

    def test_main_entry(self, capsys):
        code = main(["--json", "fundamental", "--space",
                     '{"family":"lebesgue","params":{"p":2}}', "--at", "0.25"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["outcome"]["values"]["0.25"] == pytest.approx(0.5)
