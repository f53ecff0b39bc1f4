import io
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema

from qdissect import cli, partitions
from qdissect.identities import JSON_REPORT_SCHEMA, perturb_entry
from qdissect.registry import build_registry


def run(argv):
    out = io.StringIO()
    code = cli.run_cli(argv, out=out)
    return code, out.getvalue()


def test_expand_partition_series():
    code, out = run(["expand", "pq", "--prec", "5"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "ring=integer min_exp=0 prec=5"
    assert [ln.split(": ")[1] for ln in lines[1:]] == ["1", "1", "2", "3", "5"]


def test_expand_theta_and_g_targets():
    code, out = run(["expand", "J", "1", "4", "--prec", "6"])
    assert code == 0 and "q^1: -1" in out
    code, out = run(["expand", "Jbar", "0", "8", "--prec", "3"])
    assert code == 0 and out.splitlines()[1] == "q^0: 2"
    code, out = run(["expand", "g", "2", "16", "--neg", "--prec", "5"])
    assert code == 0 and "min_exp=-2" in out
    code, out = run(["expand", "f1", "--prec", "4"])
    assert code == 0


def test_expand_json_mode():
    code, out = run(["expand", "pq", "--prec", "5", "--json"])
    obj = json.loads(out)
    assert obj["coeffs"] == [1, 1, 2, 3, 5]


def test_dissect_subcommand():
    code, out = run(["dissect", "pq", "--prec", "20", "--t", "5", "--r", "4",
                     "--deflate", "--json"])
    assert code == 0
    obj = json.loads(out)
    assert all(c % 5 == 0 for c in obj["coeffs"])


def test_table_equinumerous_row():
    code, out = run(["table", "rank", "--modulus", "5", "--max-n", "4", "--tsv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n\ta=0\ta=1\ta=2\ta=3\ta=4\tp(n)"
    assert lines[-1] == "4\t1\t1\t1\t1\t1\t5"
    code, out = run(["table", "rank", "--modulus", "5", "--max-n", "4"])
    assert code == 0 and out.splitlines()[-1].split() == ["4", "1", "1", "1", "1", "1", "5"]


def test_table_equal_rows_on_ramanujan_progression():
    for stat in ("rank", "crank"):
        code, out = run(["table", stat, "--modulus", "5", "--max-n", "19", "--tsv"])
        assert code == 0
        for line in out.splitlines()[1:]:
            cells = line.split("\t")
            if int(cells[0]) % 5 == 4:
                assert len(set(cells[1:6])) == 1


def test_deviation_dump():
    code, out = run(["deviation", "rank", "--modulus", "4", "--a", "0",
                     "--prec", "3"])
    assert code == 0
    assert "q^0: 3/4" in out


def test_verify_single_id_and_json_schema(tmp_path):
    report_file = tmp_path / "report.json"
    code, out = run(["verify", "--id", "NC-8", "--prec", "60", "--json",
                     "--report", str(report_file)])
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, JSON_REPORT_SCHEMA)
    assert payload["results"][0]["id"] == "NC-8"
    assert payload["results"][0]["status"] == "pass"
    assert json.loads(report_file.read_text()) == payload
    # with text on stdout the report file is still the JSON report
    code, out = run(["verify", "--id", "rearr-2", "--prec", "50",
                     "--report", str(report_file)])
    assert code == 0
    assert out.split()[:2] == ["PASS", "rearr-2"]
    payload = json.loads(report_file.read_text())
    jsonschema.validate(payload, JSON_REPORT_SCHEMA)
    assert payload["results"][0]["id"] == "rearr-2"


def test_json_report_gives_the_precision_each_entry_ran_at():
    code, out = run(["verify", "--id", "rearr-1", "--json"])
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, JSON_REPORT_SCHEMA)
    assert payload["results"][0]["prec"] == 200
    assert payload["results"][0]["notes"] == []


def test_run_header_gives_the_precision_range_that_ran():
    for argv, expected in (
        (["verify", "--json"], [76, 200]),
        (["verify", "--id", "rearr-1", "--json"], [200, 200]),
        (["verify", "--id", "rearr-*", "--prec", "150", "--json"], [150, 150]),
    ):
        code, out = run(argv)
        assert code == 0, argv
        payload = json.loads(out)
        jsonschema.validate(payload, JSON_REPORT_SCHEMA)
        assert payload["run"]["prec_range"] == expected, argv
        assert payload["run"]["prec_default"] == (150 if "--prec" in argv else 120)


def test_verify_exit_code_on_failure(monkeypatch):
    entry = next(e for e in build_registry() if e.id == "rearr-2")
    broken = perturb_entry(entry, 42)
    monkeypatch.setattr(cli, "build_registry", lambda: [broken])
    code, out = run(["verify"])
    assert code == cli.EXIT_VERIFY_FAILED
    assert "mismatch at q^42" in out


def test_check_congruence():
    for modulus in ("5", "7"):
        code, out = run(["check-congruence", modulus, "--max", "60"])
        assert code == 0 and out.strip().endswith("ok")
    code, out = run(["check-congruence", "11", "--max", "50"])
    assert code == 0
    # the smallest --max reaches the first argument of the progression
    code, out = run(["check-congruence", "5", "--max", "4"])
    assert code == 0 and "1 arguments up to 4: ok" in out


def test_check_congruence_reports_a_failing_count(monkeypatch):
    monkeypatch.setattr(partitions, "_count_cache", {})
    with partitions._count_lock:
        partitions._table("rank", 5, 10).rows[0][4] += 1  # N(0,5;4) off by one
    code, out = run(["check-congruence", "5", "--max", "9"])
    assert code == 1
    assert out.splitlines() == [
        "FAIL rank counts at n=4 are not all p(n)/5: (2, 1, 1, 1, 1)",
        "congruence mod 5 on 5n+4: 2 arguments up to 9: FAILED",
    ]


def test_usage_errors_exit_2():
    code, _ = run(["no-such-command"])
    assert code == cli.EXIT_USAGE
    code, _ = run(["table", "rank", "--modulus", "5"])  # missing --max-n
    assert code == cli.EXIT_USAGE


def test_bad_input_exits_2(capsys):
    for argv in (
        ["expand", "J", "1"],  # wrong arity
        ["expand", "J", "1", "0"],  # base exponent m must be positive
        ["table", "rank", "--modulus", "0", "--max-n", "5"],
        ["verify", "--prec", "5", "--id", "rearr-1"],
        ["deviation", "rank", "--a", "9", "--modulus", "4", "--prec", "10"],
        ["dissect", "pq", "--prec", "10", "--t", "5", "--r", "5"],
        ["verify", "--id", "no-such-entry"],  # an empty selection is no pass
        ["table", "rank", "--modulus", "5", "--max-n", "-1"],
        ["table", "rank", "--modulus", "5", "--max-n", "-1", "--json"],
        ["check-congruence", "5", "--max", "-3"],
        ["check-congruence", "7", "--max", "4"],  # below 5, the first 7n+5
        ["check-congruence", "11", "--max", "5"],  # below 6, the first 11n+6
        ["expand", "J", "1", "5", "--neg"],  # --neg applies to g only
        ["dissect", "Jbar", "1", "4", "--neg", "--t", "2", "--r", "0"],
    ):
        code, _ = run(argv)
        assert code == cli.EXIT_USAGE, argv
        assert capsys.readouterr().err.startswith("error: "), argv
    # two output formats at once: argparse rejects the pair with its usage line
    code, out = run(["table", "rank", "--modulus", "5", "--max-n", "3", "--tsv", "--json"])
    assert code == cli.EXIT_USAGE and out == ""
    err = capsys.readouterr().err
    assert err.startswith("usage: qdissect table")
    assert "error: argument --json: not allowed with argument --tsv" in err


def test_unwritable_report_path_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "no-such-dir" / "r.json"
    code, out = run(["verify", "--id", "rearr-1", "--report", str(path)])
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert capsys.readouterr().err == (
        f"error: cannot write --report {path}: No such file or directory\n")


def test_closed_stdout_is_not_an_internal_error():
    # the reader takes one line (or none) and closes the pipe; the rest of
    # the output has nowhere to go, which is no fault of the command.
    # Buffered, what is left fails again at the flush on exit.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for unbuffered in ("", "1"):
        env["PYTHONUNBUFFERED"] = unbuffered
        for prec, head in (("3000", b"ring=integer min_exp=0 prec=3000\n"), ("100", b"")):
            proc = subprocess.Popen(
                [sys.executable, "-m", "qdissect", "expand", "pq", "--prec", prec],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
            if head:
                assert proc.stdout.readline() == head
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
            assert (proc.returncode, err) == (cli.EXIT_OK, b""), (unbuffered, prec)


def test_closed_stdout_keeps_the_verify_verdict(monkeypatch):
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    entry = next(e for e in build_registry() if e.id == "rearr-2")
    monkeypatch.setattr(cli, "build_registry", lambda: [perturb_entry(entry, 42)])
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert cli.run_cli(["verify"]) == cli.EXIT_VERIFY_FAILED
    monkeypatch.setattr(cli, "build_registry", lambda: [entry])
    assert cli.run_cli(["verify", "--json"]) == cli.EXIT_OK


def test_internal_error_exit_3(monkeypatch, capsys):
    def broken_registry():
        raise RuntimeError("injected fault")

    monkeypatch.setattr(cli, "build_registry", broken_registry)
    code, _ = run(["verify"])
    assert code == cli.EXIT_INTERNAL
    assert "internal error: RuntimeError: injected fault" in capsys.readouterr().err


def test_settings_come_from_flags_alone(tmp_path, monkeypatch):
    conf = tmp_path / "qdissect.conf"
    conf.write_text(f"default_prec = 17\nreport_path = {tmp_path / 'out.json'}\n")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("QDISSECT_CONFIG", str(conf))
    code, out = run(["expand", "pq"])
    assert code == 0
    assert out.splitlines()[0] == "ring=integer min_exp=0 prec=120"
    code, _ = run(["verify", "--id", "rearr-2", "--prec", "50"])
    assert code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["qdissect.conf"]
    code, _ = run(["--config", str(conf), "expand", "pq"])
    assert code == cli.EXIT_USAGE
