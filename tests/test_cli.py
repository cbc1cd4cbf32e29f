"""Command-line interface: subcommand behavior and exit codes."""

from __future__ import annotations

import io
import json
import subprocess
import sys

import pytest

from batchpay.chainlog import ChainLog, Withdrawn
from batchpay.cli import main
from batchpay.state import Params, TokenAdapter, instantiate
from batchpay.sim.report import parse_report, report_digest

HONEST_CFG = """\
[scenario]
seed = 7
blocks = 15
payment_probability = 0.8

[roles]
buyers = 3
sellers = 6

[params]
unlock_period = 3
challenge_period = 4
response_period = 3
"""


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(HONEST_CFG)
    return str(path)


def test_cost_prints_the_breakdown(capsys):
    assert main(["cost", "--n", "1000", "--gwei", "1", "--ethusd", "1125"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "n 1000",
        "register_payment_gas 228255",
        "collect_gas 167440",
        "amortized_gas_per_payment 397",
        "gas_price_gwei 1.0",
        "eth_usd 1125.0",
        "usd_per_payment 0.00045",
        "ratio_to_transfer 52.9",
        "payments_per_second 1679",
    ]


def test_cost_pins_the_paper_claim_rows(capsys):
    # The abstract's "around 1700 transactions per second" at n = 1000 and
    # "three orders of magnitude" only at n = 100,000, under the assumed
    # 10M-gas, 15 s blocks.
    argv = ["cost", "--n", "1000", "10000", "100000", "--gwei", "5", "--ethusd", "225"]
    assert main(argv) == 0
    rows = {}
    for line in capsys.readouterr().out.splitlines():
        key, value = line.split()
        if key == "n":
            n = int(value)
        elif key in ("amortized_gas_per_payment", "ratio_to_transfer", "payments_per_second"):
            rows.setdefault(n, []).append(value)
    assert rows == {
        1000: ["397", "52.9", "1679"],
        10000: ["55", "381.8", "12121"],
        100000: ["21", "1000.0", "31746"],
    }


@pytest.mark.parametrize("flag", ["--gwei", "--ethusd"])
@pytest.mark.parametrize("value", ["inf", "nan", "0", "-5"])
def test_cost_rejects_prices_that_are_not_positive_and_finite(flag, value, capsys):
    argv = ["cost", "--n", "1000", "--gwei", "5", "--ethusd", "225"]
    argv[argv.index(flag) + 1] = value
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{flag} must be positive and finite" in captured.err


def test_cost_rejects_zero_batch(capsys):
    assert main(["cost", "--n", "0", "--gwei", "1", "--ethusd", "1000"]) == 3
    assert "error" in capsys.readouterr().err


def test_cost_rejects_a_batch_past_u32_ids(capsys):
    assert main(["cost", "--n", str(2**32), "--gwei", "1", "--ethusd", "1000"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: payee count must be in [1, 4294967295], got 4294967296\n"


def test_run_single_to_stdout(cfg_path, capsys):
    assert main(["run", "--config", cfg_path]) == 0
    report = parse_report(capsys.readouterr().out.encode())
    assert report.seed == 7
    assert report.blocks_requested == 15
    assert report.payments["registered"] > 0


def test_run_writes_report_and_chainlog(cfg_path, tmp_path, capsys):
    out = tmp_path / "report.json"
    log_path = tmp_path / "chain.log"
    code = main(
        [
            "run",
            "--config",
            cfg_path,
            "--out",
            str(out),
            "--chainlog",
            str(log_path),
        ]
    )
    assert code == 0
    line = capsys.readouterr().out.strip()
    report = parse_report(out.read_bytes())
    assert f"seed {report.seed}" in line
    assert f"state_digest {report.state_digest}" in line

    assert main(["replay", "--log", str(log_path)]) == 0
    replay_out = capsys.readouterr().out
    assert f"state_digest {report.state_digest}" in replay_out


def test_run_seed_override(cfg_path, capsys):
    assert main(["run", "--config", cfg_path, "--seed", "99"]) == 0
    report = parse_report(capsys.readouterr().out.encode())
    assert report.seed == 99


def test_run_lines_format(cfg_path, capsys):
    assert main(["run", "--config", cfg_path, "--format", "lines"]) == 0
    out = capsys.readouterr().out
    kinds = {json.loads(line)["kind"] for line in out.splitlines()}
    assert {"meta", "games", "payments", "cost"} <= kinds


def test_run_multi_seeds(cfg_path, tmp_path, capsys):
    out = tmp_path / "rep"
    code = main(
        ["run", "--config", cfg_path, "--out", str(out), "--runs", "3", "--seed", "20"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    digests = {}
    for seed, line in zip((20, 21, 22), lines):
        assert line.startswith(f"seed {seed} ")
        report = parse_report((tmp_path / f"rep.{seed}").read_bytes())
        assert report.seed == seed
        assert report.generated_at
        digests[seed] = line.split()[3]
        # Each swept report is the report a single run of that seed gives.
        assert main(["run", "--config", cfg_path, "--seed", str(seed)]) == 0
        single = parse_report(capsys.readouterr().out.encode())
        assert report_digest(report) == report_digest(single) == line.split()[5]
    assert len(set(digests.values())) == 3


@pytest.mark.parametrize("runs", ["0", "-1"])
def test_run_rejects_fewer_than_one_run(cfg_path, runs, capsys):
    assert main(["run", "--config", cfg_path, "--runs", runs]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--runs must be >= 1" in captured.err


def test_run_chainlog_needs_single_run(cfg_path, tmp_path, capsys):
    code = main(
        [
            "run",
            "--config",
            cfg_path,
            "--runs",
            "2",
            "--chainlog",
            str(tmp_path / "x.log"),
        ]
    )
    assert code == 3
    assert "single runs" in capsys.readouterr().err


def test_run_bad_config_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[scenario]\nwarp_speed = 9\n")
    assert main(["run", "--config", str(bad)]) == 3
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, keys",
    [
        ("[amounts]\npayees_max = 20\n[params]\nmax_payments_per_batch = 10\n",
         ("payees_max", "max_payments_per_batch")),
        ("[params]\nmax_account_count = 5\n", ("buyers + sellers", "max_account_count")),
        ("[amounts]\nbuyer_deposit = 18446744073709551616\n", ("buyer_deposit",)),
        ("[params]\ncollect_stake = 18446744073709551616\n", ("collect_stake",)),
        (
            "[scenario]\ncheating_delegate_fraction = 1.0\n[amounts]\n"
            "overstatement_min = 18446744073709551615\noverstatement_max = 18446744073709551615\n",
            ("buyer_deposit", "overstatement_max"),
        ),
        ("[scenario]\nblocks = 10\n[params]\nunlock_period = 200000\n", ("unlock_period", "drain cap")),
        (
            "[scenario]\ncheating_delegate_fraction = 1.0\n[params]\n"
            "challenge_period = 60000\nresponse_period = 50000\n",
            ("challenge_period", "response_period", "drain cap"),
        ),
    ],
    ids=["batch-limit", "account-table", "amount-past-u64", "params-past-u64", "claim-past-u64",
         "unlock-past-drain-cap", "game-past-drain-cap"],
)
def test_run_refuses_a_config_the_engine_would_refuse_mid_run(tmp_path, text, keys, capsys):
    cfg = tmp_path / "limits.cfg"
    cfg.write_text(text)
    assert main(["run", "--config", str(cfg)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert all(key in captured.err for key in keys), captured.err


@pytest.mark.parametrize("key", ["base_tx", "per_zero_byte", "per_nonzero_byte", "per_storage_write"])
def test_run_refuses_a_gas_model_key(tmp_path, key, capsys):
    # The gas model's scalars are constants its anchors are solved for.
    cfg = tmp_path / "gas.cfg"
    cfg.write_text(f"[costs]\n{key} = 1\n")
    assert main(["run", "--config", str(cfg)]) == 3
    assert capsys.readouterr().err == f"error: [costs] {key}: unknown key\n"


def test_run_missing_config_file(capsys):
    assert main(["run", "--config", "/nonexistent/path.cfg"]) == 3
    assert "error" in capsys.readouterr().err


def test_non_utf8_text_input_is_unparseable(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe[scenario]\n")
    for argv in (
        ["run", "--config", str(bad)],
        ["codec", "encode", "--in", str(bad), "--out", "-"],
        ["merkle", "prove", "--addresses", str(bad), "--index", "0", "--out", "-"],
    ):
        assert main(argv) == 3, argv
        assert "is not UTF-8 text" in capsys.readouterr().err


def test_replay_rejects_garbage(tmp_path, capsys):
    bad = tmp_path / "bad.log"
    bad.write_bytes(b"not a chain log at all")
    assert main(["replay", "--log", str(bad)]) == 3
    assert "error" in capsys.readouterr().err


def test_replay_rejects_missing_trailer(cfg_path, tmp_path, capsys):
    log_path = tmp_path / "chain.log"
    assert (
        main(
            ["run", "--config", cfg_path, "--out", str(tmp_path / "r.json"),
             "--chainlog", str(log_path)]
        )
        == 0
    )
    capsys.readouterr()
    log = ChainLog.load(log_path.read_bytes())
    stripped = ChainLog()
    for rec in log.records[:-1]:
        stripped.append(rec)
    log_path.write_bytes(stripped.dump())
    assert main(["replay", "--log", str(log_path)]) == 4
    assert "invariant" in capsys.readouterr().err


def test_replay_of_an_op_the_engine_refuses_exits_4(tmp_path, capsys):
    log = instantiate(Params(), TokenAdapter()).log
    log.append(Withdrawn(0, 5, "out", "nobody"))          # there is no account 0
    path = tmp_path / "refused.log"
    path.write_bytes(log.dump())
    assert main(["replay", "--log", str(path)]) == 4
    assert capsys.readouterr().err == "error: record 1 (Withdrawn): account 0 does not exist\n"


def test_codec_decode_reads_stdin(monkeypatch, capsys):
    stdin = io.TextIOWrapper(io.BytesIO(bytes.fromhex("03000000050000000203")))
    monkeypatch.setattr(sys, "stdin", stdin)
    assert main(["codec", "decode", "--in", "-", "--out", "-"]) == 0
    assert capsys.readouterr().out == "5\n7\n10\n"


def test_codec_round_trip_through_files(tmp_path, capsys):
    ids_in = tmp_path / "ids.txt"
    ids_in.write_text("5 7 10\n")
    blob = tmp_path / "payees.bin"
    assert main(["codec", "encode", "--in", str(ids_in), "--out", str(blob)]) == 0
    assert blob.read_bytes() == bytes.fromhex("03000000050000000203")
    assert main(["codec", "decode", "--in", str(blob), "--out", "-"]) == 0
    assert capsys.readouterr().out == "5\n7\n10\n"


def test_codec_encode_rejects_non_integers(tmp_path, capsys):
    bad = tmp_path / "ids.txt"
    bad.write_text("5 seven 10\n")
    assert main(["codec", "encode", "--in", str(bad), "--out", "-"]) == 3
    assert "integers" in capsys.readouterr().err


def test_codec_encode_rejects_decreasing_ids(tmp_path, capsys):
    bad = tmp_path / "ids.txt"
    bad.write_text("10 5\n")
    assert main(["codec", "encode", "--in", str(bad), "--out", "-"]) == 3


def test_codec_decode_rejects_garbage(tmp_path, capsys):
    bad = tmp_path / "payees.bin"
    bad.write_bytes(b"\xff\xff\xff\xff\x80")
    assert main(["codec", "decode", "--in", str(bad), "--out", "-"]) == 3


def test_merkle_prove_and_verify(tmp_path, capsys):
    addresses = tmp_path / "addrs.txt"
    addresses.write_text("alice\nbob\ncarol\ndave\neve\n")
    proof_path = tmp_path / "proof.bin"
    code = main(
        ["merkle", "prove", "--addresses", str(addresses), "--index", "2",
         "--out", str(proof_path)]
    )
    assert code == 0
    fields = dict(
        line.split(maxsplit=1) for line in capsys.readouterr().out.splitlines()
    )
    assert fields["leaf_index"] == "2"

    code = main(
        ["merkle", "verify", "--root", fields["root"], "--address", "carol",
         "--proof", str(proof_path)]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "ok"

    code = main(
        ["merkle", "verify", "--root", fields["root"], "--address", "mallory",
         "--proof", str(proof_path)]
    )
    assert code == 4
    assert "does not verify" in capsys.readouterr().err


def test_merkle_verify_rejects_non_hex_root(tmp_path, capsys):
    proof_path = tmp_path / "proof.bin"
    proof_path.write_bytes(b"\x00" * 8)
    code = main(
        ["merkle", "verify", "--root", "zz", "--address", "a", "--proof", str(proof_path)]
    )
    assert code == 3


def test_merkle_prove_index_out_of_range(tmp_path, capsys):
    addresses = tmp_path / "addrs.txt"
    addresses.write_text("alice\nbob\n")
    code = main(
        ["merkle", "prove", "--addresses", str(addresses), "--index", "5", "--out", "-"]
    )
    assert code == 3


def test_merkle_prove_empty_address_file(tmp_path, capsys):
    addresses = tmp_path / "addrs.txt"
    addresses.write_text("\n\n")
    code = main(
        ["merkle", "prove", "--addresses", str(addresses), "--index", "0", "--out", "-"]
    )
    assert code == 3


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["run"])                      # missing --config
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])               # unknown subcommand
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", "x", "--format", "xml"])
    assert exc.value.code == 2


def test_module_entry_point(cfg_path):
    proc = subprocess.run(
        [sys.executable, "-m", "batchpay", "cost", "--n", "300", "--gwei", "2",
         "--ethusd", "500"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("n 300\n")
