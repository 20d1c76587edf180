"""Command-line verification driver.

Subcommands replay the checked claims; exit code is 0 iff no check failed,
and 2 on a usage error or a report that could not be written.
Reports go to stdout as a summary table (suppress with --quiet) and,
optionally, to a JSON-lines file via --json.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import verifier
from .report import summarize, write_json_lines
from .scalars import field_from_spec

FIELD_ENV_VAR = "AFFMOD_FIELD"


def json_path(text: str) -> str:
    """argparse type of --json: a path that can be opened for writing, tried
    before any check runs, else a usage error.  A file the trial creates is
    removed again, so only a finished run leaves a report."""
    existed = os.path.lexists(text)
    try:
        open(text, "a").close()
    except OSError as e:
        raise argparse.ArgumentTypeError(f"cannot write {text!r}: {e.strerror}")
    if not existed:
        os.remove(text)
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affmod",
        description="Replay the machine-checkable computations for the "
        "affine modification surface rings.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--field",
        default=os.environ.get(FIELD_ENV_VAR, "rational"),
        type=field_from_spec,
        help="coefficient field: 'rational' or 'fp:PRIME' "
        f"(default from ${FIELD_ENV_VAR} or rational)",
    )
    common.add_argument("--json", metavar="PATH", type=json_path,
                        help="write JSON-lines report")
    common.add_argument("--quiet", action="store_true", help="suppress the summary")

    sub = parser.add_subparsers(dest="command", required=True)
    for check in verifier.CHECKS.values():
        p = sub.add_parser(check.name, parents=[common], help=check.help)
        for param in check.params:
            p.add_argument(param.flag, dest=param.dest, type=param.type,
                           default=param.default, action=param.action,
                           help=param.help)
    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    reports = verifier.CHECKS[args.command].run(args, args.field)

    if not args.quiet:
        print(summarize(reports))
    if args.json:
        try:
            write_json_lines(reports, args.json)
        except OSError as e:
            print(f"affmod: cannot write {args.json!r}: {e.strerror}", file=sys.stderr)
            return 2
    return 0 if all(r.ok for r in reports) else 1


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
