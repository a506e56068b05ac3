import json

import pytest
from click.testing import CliRunner

from polycert import PROTOCOL_IDS
from polycert.cli import main
from polycert.ff import DEFAULT_MODULUS
from test_transcript import HOSTILE_JSON


def test_gen_is_deterministic(tmp_path):
    runner = CliRunner()
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        res = runner.invoke(main, [
            "gen", "--kind", "random", "--m", "4", "--n", "4", "--d", "3",
            "--seed", "1", "--out", str(out),
        ])
        assert res.exit_code == 0, res.output
    assert a.read_bytes() == b.read_bytes()


def test_gen_reads_no_environment_defaults(tmp_path):
    """--seed and --modulus default to 0 and DEFAULT_MODULUS whatever the
    environment holds, and --help shows both defaults."""
    runner = CliRunner()
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out, env in ((a, {}), (b, {"POLYCERT_SEED": "5", "POLYCERT_MODULUS": "97"})):
        res = runner.invoke(main, ["gen", "--out", str(out)], env=env)
        assert res.exit_code == 0, res.output
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert (doc["seed"], doc["p"]) == (0, str(DEFAULT_MODULUS))
    res = runner.invoke(main, ["gen", "--help"])
    assert f"[default: {DEFAULT_MODULUS}]" in res.output and "[default: 0]" in res.output


def test_gen_planted_kinds(tmp_path):
    runner = CliRunner()
    out = tmp_path / "r.json"
    res = runner.invoke(main, [
        "gen", "--kind", "planted-rank", "--m", "4", "--n", "5", "--d", "2",
        "--r", "2", "--seed", "3", "--out", str(out),
    ])
    assert res.exit_code == 0, res.output
    doc = json.loads(out.read_text())
    assert doc["witness"]["rank"] == 2
    res = runner.invoke(main, [
        "gen", "--kind", "planted-membership", "--m", "3", "--n", "4",
        "--d", "2", "--seed", "4", "--out", str(tmp_path / "m.json"),
    ])
    assert res.exit_code == 0, res.output


def test_prove_verify_roundtrip_and_tamper(tmp_path):
    runner = CliRunner()
    inst = tmp_path / "inst.json"
    transcript = tmp_path / "t.json"
    assert runner.invoke(main, [
        "gen", "--kind", "planted-membership", "--m", "3", "--n", "4",
        "--d", "2", "--seed", "5", "--out", str(inst),
    ]).exit_code == 0
    res = runner.invoke(main, [
        "prove", "--protocol", "rsm", "--instance", str(inst),
        "--sigma", str(1 << 16), "--out", str(transcript),
    ])
    assert res.exit_code == 0, res.output
    res = runner.invoke(main, ["verify", str(transcript)])
    assert res.exit_code == 0, res.output
    # tamper one prover field element, keep the digest honest, expect reject
    doc = json.loads(transcript.read_text())
    for msg in doc["messages"]:
        if msg["sender"] == "P" and msg["payload"]["kind"] == "poly":
            coeffs = msg["payload"]["coeffs"]
            if coeffs:
                coeffs[0] = str((int(coeffs[0]) + 1) % (2**31 - 1))
                break
    else:
        raise AssertionError("no polynomial prover message found")
    from polycert.transcript import Transcript

    t = Transcript.from_json_dict({**doc, "digest": None})
    doc["digest"] = t.digest()
    transcript.write_text(json.dumps(doc))
    res = runner.invoke(main, ["verify", str(transcript)])
    assert res.exit_code == 1, res.output


def test_verify_refuses_a_v1_certificate(tmp_path):
    """A certificate in the format before markers left the file is a file
    error (exit 2) that names its format, not a rejection."""
    runner = CliRunner()
    inst, cert = tmp_path / "inst.json", tmp_path / "t.json"
    assert runner.invoke(main, [
        "gen", "--kind", "planted-membership", "--m", "3", "--n", "4",
        "--d", "2", "--seed", "5", "--out", str(inst),
    ]).exit_code == 0
    assert runner.invoke(main, [
        "prove", "--protocol", "rsm", "--instance", str(inst), "--out", str(cert),
    ]).exit_code == 0
    doc = json.loads(cert.read_text())
    doc["format"] = "polycert-transcript/v1"
    cert.write_text(json.dumps(doc))
    res = runner.invoke(main, ["verify", str(cert)])
    assert res.exit_code == 2, res.output
    assert "polycert-transcript/v1" in res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)


def test_prove_hermite_from_oracle(tmp_path):
    runner = CliRunner()
    inst = tmp_path / "inst.json"
    transcript = tmp_path / "t.json"
    assert runner.invoke(main, [
        "gen", "--kind", "random", "--m", "3", "--n", "3", "--d", "2",
        "--seed", "6", "--out", str(inst),
    ]).exit_code == 0
    res = runner.invoke(main, [
        "prove", "--protocol", "hermite", "--instance", str(inst),
        "--sigma", str(1 << 16), "--out", str(transcript),
    ])
    assert res.exit_code == 0, res.output
    assert runner.invoke(main, ["verify", str(transcript)]).exit_code == 0


def test_run_reports_communication(tmp_path):
    runner = CliRunner()
    inst = tmp_path / "inst.json"
    assert runner.invoke(main, [
        "gen", "--kind", "random", "--m", "4", "--n", "4", "--d", "2",
        "--seed", "7", "--out", str(inst),
    ]).exit_code == 0
    res = runner.invoke(main, [
        "run", "--protocol", "matmul", "--instance", str(inst),
        "--mode", "interactive", "--seed", "9",
    ])
    assert res.exit_code == 0, res.output
    assert "communication:" in res.output
    assert "ACCEPT" in res.output


def test_run_exit_code_on_reject(tmp_path):
    runner = CliRunner()
    inst = tmp_path / "inst.json"
    assert runner.invoke(main, [
        "gen", "--kind", "random", "--m", "3", "--n", "3", "--d", "2",
        "--seed", "8", "--out", str(inst),
    ]).exit_code == 0
    # a random matrix is almost surely nonsingular: singularity rejects
    res = runner.invoke(main, [
        "run", "--protocol", "singularity", "--instance", str(inst),
        "--permissive",
    ])
    assert res.exit_code == 1, res.output


def test_prove_exits_1_on_a_false_saturation_claim(tmp_path):
    """[x] has full row rank but is not saturated: the honest Prover's
    frrsm answer on A itself is rejected (exit 1), not given up on."""
    runner = CliRunner()
    inst, transcript = tmp_path / "inst.json", tmp_path / "t.json"
    assert runner.invoke(main, [
        "gen", "--kind", "random", "--m", "1", "--n", "1", "--d", "1",
        "--seed", "7", "--out", str(inst),
    ]).exit_code == 0
    doc = json.loads(inst.read_text())
    doc["objects"]["A"]["entries"] = [["0", "1"]]
    inst.write_text(json.dumps(doc))
    res = runner.invoke(main, [
        "prove", "--protocol", "saturated", "--instance", str(inst),
        "--out", str(transcript),
    ])
    assert res.exit_code == 1 and "REJECT" in res.output, res.output
    res = runner.invoke(main, ["verify", str(transcript)])
    assert res.exit_code == 1 and "frrsm: evaluation_check_failed" in res.output


def test_usage_errors_exit_2(tmp_path):
    runner = CliRunner()
    res = runner.invoke(main, [
        "gen", "--kind", "planted-rank", "--m", "3", "--n", "3", "--d", "1",
        "--out", str(tmp_path / "x.json"),
    ])
    assert res.exit_code == 2  # missing --r
    inst = tmp_path / "inst.json"
    assert runner.invoke(main, [
        "gen", "--kind", "random", "--m", "2", "--n", "2", "--d", "1",
        "--seed", "1", "--out", str(inst),
    ]).exit_code == 0
    res = runner.invoke(main, [
        "prove", "--protocol", "rsm", "--instance", str(inst),
        "--out", str(tmp_path / "t.json"),
    ])
    assert res.exit_code == 2  # rsm needs a planted membership vector
    for args in (
        ["--protocol", "rsm", "--trials", "50"],  # soundness needs 100 trials
        ["--protocol", "rsm", "--trials", "0"],
        ["--suite", "completeness", "--trials", "0"],
        ["--suite", "acceptance", "--trials", "50"],
        ["--protocol", "rsm", "--modulus", "10"],  # not prime
        ["--suite", "completeness", "--modulus", "10"],
        ["--protocol", "rsm", "--sigma", "200", "--modulus", "97"],
        ["--suite", "soundness", "--modulus", "31"],  # #S 32 > p
        # a suite runs its own protocols at #S 32 and 64
        ["--suite", "completeness", "--protocol", "rsm", "--trials", "1"],
        ["--suite", "completeness", "--sigma", "99999", "--trials", "1"],
        ["--suite", "soundness", "--sigma", "64"],
        ["--suite", "acceptance", "--protocol", "nosuch"],
    ):
        res = runner.invoke(main, ["experiment"] + args)
        assert res.exit_code == 2, (args, res.output)
        assert res.exception is None or isinstance(res.exception, SystemExit), args


_MATRIX = {"kind": "poly_matrix", "m": 1, "n": 1, "entries": [["1"]]}


@pytest.mark.parametrize("doc", [
    {"format": "polycert-instance/v1", "objects": {"A": _MATRIX}},
    {"format": "polycert-instance/v1", "p": 91, "objects": {"A": _MATRIX}},
    {"format": "polycert-instance/v1", "p": 97, "objects": {"A": {"kind": "tensor"}}},
    [{"format": "polycert-instance/v1", "p": 97}],
    *HOSTILE_JSON.values(),
], ids=["no-modulus", "composite-modulus", "unknown-payload-kind", "json-list",
        *HOSTILE_JSON])
def test_malformed_instance_file_is_a_usage_error(tmp_path, doc):
    inst = tmp_path / "inst.json"
    inst.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
    res = CliRunner().invoke(main, ["run", "--protocol", "rank", "--instance", str(inst)])
    assert res.exit_code == 2, res.output
    assert "instance file" in res.output


@pytest.mark.parametrize("raw", HOSTILE_JSON.values(), ids=list(HOSTILE_JSON))
def test_verify_refuses_hostile_bytes(tmp_path, raw):
    path = tmp_path / "t.json"
    path.write_bytes(raw)
    res = CliRunner().invoke(main, ["verify", str(path)])
    assert res.exit_code == 2, res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)


def test_experiment_single_protocol(tmp_path):
    runner = CliRunner()
    res = runner.invoke(main, [
        "experiment", "--protocol", "matmul", "--trials", "150",
        "--sigma", "32", "--out-dir", str(tmp_path / "reports"),
    ])
    assert res.exit_code == 0, res.output
    assert "[pass]" in res.output
    files = list((tmp_path / "reports").glob("*.json"))
    assert files
    doc = json.loads(files[0].read_text())
    assert doc["passed"] is True


def test_experiment_runs_every_protocol_with_a_false_instance():
    """field_det has a false instance and a cheat, so it has a single-protocol
    experiment; a protocol without one is a usage error naming those that do."""
    runner = CliRunner()
    res = runner.invoke(main, [
        "experiment", "--protocol", "field_det", "--trials", "200", "--sigma", "32",
    ])
    assert res.exit_code == 0, res.output
    assert "[pass] soundness field_det (sigma=32)" in res.output
    res = runner.invoke(main, ["experiment", "--protocol", "rank", "--trials", "200"])
    assert res.exit_code == 2, res.output
    assert "field_det" in res.output and "rank," not in res.output


def test_run_interactive_transcript_saves_and_verifies(tmp_path):
    runner = CliRunner()
    inst = tmp_path / "inst.json"
    out = tmp_path / "interactive.json"
    assert runner.invoke(main, [
        "gen", "--kind", "random", "--m", "3", "--n", "3", "--d", "2",
        "--seed", "21", "--out", str(inst),
    ]).exit_code == 0
    res = runner.invoke(main, [
        "run", "--protocol", "determinant", "--instance", str(inst),
        "--mode", "interactive", "--seed", "77", "--permissive",
        "--out", str(out),
    ])
    assert res.exit_code == 0, res.output
    # interactive transcripts carry their seed, so they re-verify offline too
    res = runner.invoke(main, ["verify", str(out)])
    assert res.exit_code == 0, res.output


@pytest.mark.parametrize("kind", ["random", "planted-membership"])
def test_every_protocol_exits_cleanly_on_generated_instances(tmp_path, kind):
    """Each protocol on a 3 x 4 instance accepts, rejects or is a usage error;
    no exception leaks, whatever the instance lacks (a square A, a vector v)."""
    runner = CliRunner()
    inst = tmp_path / "inst.json"
    assert runner.invoke(main, [
        "gen", "--kind", kind, "--m", "3", "--n", "4", "--d", "2",
        "--seed", "1", "--out", str(inst),
    ]).exit_code == 0
    codes = {}
    for pid in PROTOCOL_IDS:
        res = runner.invoke(main, ["run", "--protocol", pid, "--instance", str(inst)])
        assert res.exception is None or isinstance(res.exception, SystemExit), (
            pid, repr(res.exception))
        codes[pid] = res.exit_code
    assert set(codes.values()) <= {0, 1, 2}, codes
    assert codes["determinant"] == 2
    res = runner.invoke(main, ["prove", "--protocol", "determinant", "--instance",
                               str(inst), "--out", str(tmp_path / "t.json")])
    assert res.exit_code == 2 and "square" in res.output, res.output
    res = runner.invoke(main, ["run", "--protocol", "field_det", "--instance", str(inst)])
    assert res.exit_code == 2 and "supported: singularity, " in res.output, res.output
