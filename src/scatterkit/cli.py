"""Command-line surface over the library.

Every invocation prints exactly one JSON document on stdout; human-readable
diagnostics go to stderr.  Exit codes: 0 success, 1 I/O or parse failure,
2 validation or argument error, 3 collision under the error policy.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import fixtures
from .analysis import _read_in_bounds, detect_collisions, slicing_impossibility
from .engine import CollisionPolicy, scatter_nd_update, scatter_x, torch_scatter
from .errors import ArgumentError, CollisionError, FormatError
from .serialize import (
    _read_document,
    analysis_to_json,
    dump_document,
    iter_document,
    provision_from_json,
    scatter_report_to_json,
    spec_from_json,
    tensor_from_json,
    write_document,
)
from .transform import compose_provision

POLICY_NAMES = [p.value for p in CollisionPolicy]


def _load_tensor(path):
    return tensor_from_json(_read_document(path))


def _load_index_tensor(path):
    arr = _load_tensor(path)
    if arr.dtype.kind != "i":
        raise ArgumentError(f"{path}: expected an i64 tensor")
    return arr


def _parse_shape(text):
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ArgumentError(f"bad shape {text!r}: expected comma-separated ints") from exc


def _result_doc(result, report, args):
    doc = {"report": scatter_report_to_json(report)}
    in_place = args.background if getattr(args, "in_place", False) else None
    out = getattr(args, "out", None) or in_place
    if out:
        write_document(out, result)
        doc["out"] = out
    else:
        doc["result"] = result
    return doc


def cmd_scatter(args):
    doc = _read_document(args.provision)
    updates = _load_tensor(args.updates)
    background = _load_tensor(args.background)
    provision = provision_from_json(doc, target_shape=background.shape)
    result, report = scatter_x(
        background, updates, provision, CollisionPolicy(args.policy)
    )
    return _result_doc(result, report, args)


def cmd_tf_scatter(args):
    ts = _load_tensor(args.tensor)
    indices = _load_index_tensor(args.indices)
    updates = _load_tensor(args.updates)
    result, report = scatter_nd_update(
        ts, indices, updates, CollisionPolicy(args.policy)
    )
    return _result_doc(result, report, args)


def cmd_torch_scatter(args):
    self_t = _load_tensor(args.self)
    index = _load_index_tensor(args.index)
    src = _load_tensor(args.src)
    result, report = torch_scatter(
        self_t, args.dim, index, src, CollisionPolicy(args.policy)
    )
    return _result_doc(result, report, args)


def cmd_analyze(args):
    doc = _read_document(args.provision)
    shape = None if args.target_shape is None else _parse_shape(args.target_shape)
    provision = provision_from_json(doc, shape)
    read = _read_in_bounds(provision)  # read and bounds-checked once, for both
    collisions = detect_collisions(read)
    return analysis_to_json(slicing_impossibility(read), collisions)


def cmd_compose(args):
    spec = spec_from_json(_read_document(args.spec))
    table = compose_provision(spec).table
    if args.out:
        write_document(args.out, table)
        return {"out": args.out}
    return table


def cmd_fixtures(args):
    names = fixtures.write_fixtures(args.dir)
    return {"dir": args.dir, "files": names}


def _add_policy(parser):
    parser.add_argument(
        "--policy", choices=POLICY_NAMES, default="last",
        help="collision policy (default: last)",
    )


def _add_out(parser):
    parser.add_argument("--out", help="write the result tensor to this file")


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as ArgumentError, which :func:`main` prints as
    its one document, where argparse would exit 2 with nothing on stdout.
    Subparsers are built by this class too; ``-h`` still exits 0."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ArgumentError(message)


@functools.cache  # parse_args reads the parser and fills a new namespace
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="scatterkit",
        description="tensor scatter engine and sliceability analyzer",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scatter", help="scatter updates through a provision table")
    p.add_argument("--provision", required=True)
    p.add_argument("--updates", required=True)
    p.add_argument("--background", required=True)
    _add_policy(p)
    _add_out(p)
    p.add_argument(
        "--in-place", action="store_true",
        help="overwrite the background file with the result (on success only)",
    )
    p.set_defaults(handler=cmd_scatter)

    p = sub.add_parser("tf-scatter", help="tensorflow-style scatter_nd_update")
    p.add_argument("--tensor", required=True)
    p.add_argument("--indices", required=True)
    p.add_argument("--updates", required=True)
    _add_policy(p)
    _add_out(p)
    p.set_defaults(handler=cmd_tf_scatter)

    p = sub.add_parser("torch-scatter", help="torch-style scatter along one axis")
    p.add_argument("--self", required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--index", required=True)
    p.add_argument("--src", required=True)
    _add_policy(p)
    _add_out(p)
    p.set_defaults(handler=cmd_torch_scatter)

    p = sub.add_parser("analyze", help="collision and sliceability report")
    p.add_argument("--provision", required=True)
    p.add_argument(
        "--target-shape",
        help='comma-separated extents, e.g. "2,2,2,2" (default: inferred)',
    )
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser("compose", help="flatten a factored transformer spec")
    p.add_argument("--spec", required=True)
    _add_out(p)
    p.set_defaults(handler=cmd_compose)

    p = sub.add_parser("fixtures", help="write the built-in example tensors")
    p.add_argument("--dir", required=True)
    p.set_defaults(handler=cmd_fixtures)

    return parser


def _fail(code, exc):
    print(f"error: {exc}", file=sys.stderr)
    sys.stdout.write(dump_document({"error": str(exc), "exit_code": code}))
    return code


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # a document's tensors are checked before its first piece is written
        pieces = iter_document(args.handler(args))
    except CollisionError as exc:
        return _fail(3, exc)
    except (FormatError, OSError) as exc:
        return _fail(1, exc)
    except ArgumentError as exc:
        return _fail(2, exc)
    for piece in pieces:
        sys.stdout.write(piece)
    return 0


if __name__ == "__main__":
    sys.exit(main())
