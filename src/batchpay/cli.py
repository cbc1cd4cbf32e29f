"""Command-line entry point.

Five subcommands: run (scenarios, one or a sweep of consecutive seeds),
cost (the two-transaction gas breakdown, with the ratio to a plain
transfer and the payments per second, for one or more batch sizes),
codec (payee bytes encode/decode), merkle (proofs over address lists),
replay (re-execute a chain log and check its digest). Everything runs in
this one process.

Machine-readable output goes to stdout, diagnostics to stderr. Exit
codes: 0 success, 2 usage (argparse), 3 unparseable input, 4 protocol or
verification failure.
"""

from __future__ import annotations

import argparse
import sys
from datetime import datetime, timezone

from .chainlog import ChainLog, FinalDigest
from .codec import decode_pay_data, encode_pay_data
from .costmodel import check_price, cost_summary
from .errors import CodecError, InvalidParameter, InvariantViolation, ProtocolError
from .merkle import MerkleProof, merkle_prove, merkle_root, merkle_verify
from .replay import verify_log
from .sim.config import parse_scenario_config
from .sim.report import emit_report, report_digest
from .sim.scenario import run_scenario_full


def _read_bytes(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def _write_bytes(path: str, data: bytes) -> None:
    if path == "-":
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
        return
    with open(path, "wb") as fh:
        fh.write(data)


def _read_text(path: str) -> str:
    try:
        return _read_bytes(path).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidParameter(f"{path} is not UTF-8 text: {exc}") from None


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


# -- run ------------------------------------------------------------------------


def cmd_run(args) -> int:
    if args.runs < 1:
        raise InvalidParameter("--runs must be >= 1")
    if args.chainlog and args.runs > 1:
        raise InvalidParameter("--chainlog applies to single runs only")
    config = parse_scenario_config(_read_text(args.config))
    base_seed = args.seed if args.seed is not None else config.seed
    for seed in range(base_seed, base_seed + args.runs):
        config.seed = seed
        report, run = run_scenario_full(config)
        report.generated_at = _timestamp()
        blob = emit_report(report, args.format)
        if args.out:
            _write_bytes(args.out if args.runs == 1 else f"{args.out}.{seed}", blob)
        if args.out or args.runs > 1:
            print(
                f"seed {seed} state_digest {report.state_digest} "
                f"report_digest {report_digest(report)}"
            )
        else:
            sys.stdout.buffer.write(blob)
            sys.stdout.buffer.flush()
        if args.chainlog:
            run.log.append(FinalDigest(run.state.digest()))
            _write_bytes(args.chainlog, run.log.dump())
    return 0


# -- cost -------------------------------------------------------------------------


def cmd_cost(args) -> int:
    check_price("--gwei", args.gwei)
    check_price("--ethusd", args.ethusd)
    # Every size is checked before the first block prints.
    for summary in [cost_summary(n, args.gwei, args.ethusd) for n in args.n]:
        print(f"n {summary['n']}")
        print(f"register_payment_gas {summary['register_gas']}")
        print(f"collect_gas {summary['collect_gas']}")
        print(f"amortized_gas_per_payment {summary['amortized_gas_per_payment']}")
        print(f"gas_price_gwei {args.gwei}")
        print(f"eth_usd {args.ethusd}")
        print(f"usd_per_payment {summary['usd_per_payment']}")
        print(f"ratio_to_transfer {summary['ratio_to_transfer']:.1f}")
        print(f"payments_per_second {summary['payments_per_second']}")
    return 0


# -- codec -------------------------------------------------------------------------


def cmd_codec(args) -> int:
    if args.mode == "encode":
        words = _read_text(args.infile).split()
        try:
            ids = [int(w, 0) for w in words]
        except ValueError as exc:
            raise CodecError(f"payee ids must be integers: {exc}") from None
        _write_bytes(args.outfile, encode_pay_data(ids))
    else:
        ids = decode_pay_data(_read_bytes(args.infile))
        _write_bytes(args.outfile, ("\n".join(str(i) for i in ids) + "\n").encode("ascii"))
    return 0


# -- merkle ------------------------------------------------------------------------


def _address_lines(path: str) -> list[str]:
    addresses = [line.strip() for line in _read_text(path).splitlines() if line.strip()]
    if not addresses:
        raise InvalidParameter("address file is empty")
    return addresses


def cmd_merkle(args) -> int:
    if args.mode == "prove":
        addresses = _address_lines(args.addresses)
        proof = merkle_prove(addresses, args.index)
        _write_bytes(args.out, proof.to_bytes())
        print(f"root {merkle_root(addresses).hex()}")
        print(f"leaf_index {proof.leaf_index}")
        print(f"siblings {len(proof.siblings)}")
        return 0
    try:
        root = bytes.fromhex(args.root)
    except ValueError:
        raise InvalidParameter("root must be hex") from None
    proof = MerkleProof.from_bytes(_read_bytes(args.proof))
    if not merkle_verify(root, args.address, proof):
        print("proof does not verify", file=sys.stderr)
        return 4
    print("ok")
    return 0


# -- replay -------------------------------------------------------------------------


def cmd_replay(args) -> int:
    log = ChainLog.load(_read_bytes(args.log))
    digest = verify_log(log)
    print(f"records {len(log.records)}")
    print(f"state_digest {digest.hex()}")
    return 0


# -- parser -------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="batchpay",
        description="Batch micropayment protocol simulator and tooling.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_run = sub.add_parser("run", help="run a scenario from a config file")
    p_run.add_argument("--config", required=True, help="scenario config path")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--out", default=None, help="report output path (default stdout)")
    p_run.add_argument("--runs", type=int, default=1, help="consecutive seeds to run")
    p_run.add_argument(
        "--format", choices=("json", "lines"), default="json", help="report format"
    )
    p_run.add_argument("--chainlog", default=None, help="also write the chain log here")
    p_run.set_defaults(func=cmd_run)

    p_cost = sub.add_parser("cost", help="two-transaction gas and USD breakdown")
    p_cost.add_argument(
        "--n", type=int, nargs="+", required=True, help="payments per batch, one or more"
    )
    p_cost.add_argument("--gwei", type=float, required=True, help="gas price in gwei")
    p_cost.add_argument("--ethusd", type=float, required=True, help="token price in USD")
    p_cost.set_defaults(func=cmd_cost)

    p_codec = sub.add_parser("codec", help="encode or decode payee bytes")
    p_codec.add_argument("mode", choices=("encode", "decode"))
    p_codec.add_argument("--in", dest="infile", required=True, help="input path or -")
    p_codec.add_argument("--out", dest="outfile", required=True, help="output path or -")
    p_codec.set_defaults(func=cmd_codec)

    p_merkle = sub.add_parser("merkle", help="build or check address inclusion proofs")
    m_sub = p_merkle.add_subparsers(dest="mode", required=True)
    m_prove = m_sub.add_parser("prove", help="prove one address of a list")
    m_prove.add_argument("--addresses", required=True, help="file with one address per line")
    m_prove.add_argument("--index", type=int, required=True, help="leaf index to prove")
    m_prove.add_argument("--out", required=True, help="proof output path or -")
    m_verify = m_sub.add_parser("verify", help="check a proof against a root")
    m_verify.add_argument("--root", required=True, help="hex root digest")
    m_verify.add_argument("--address", required=True, help="claimed leaf address")
    m_verify.add_argument("--proof", required=True, help="proof file path or -")
    p_merkle.set_defaults(func=cmd_merkle)

    p_replay = sub.add_parser("replay", help="re-execute a chain log and verify it")
    p_replay.add_argument("--log", required=True, help="chain log file path or -")
    p_replay.set_defaults(func=cmd_replay)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CodecError, InvalidParameter, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 4
    except ProtocolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
