"""Command-line front end: combinatorics, diagram algebra, quotient checks, caching."""

import argparse
import csv
import functools
import io
import json
import sys

from .cache import ResultCache
from .combi import Partition, enumerate_gt_patterns, schur_weights, weight_of_partition
from .cyclo import (
    CAPPED,
    EXACT,
    cyc_reduce,
    gdim_hom,
    gt_idempotent,
    gt_orthogonality_check,
    gt_orthogonality_reach,
    hom_record,
    make_context,
    sl2_vanishing_check,
    weyl_vanishing_check,
)
from .klr import (
    KLRElement,
    KLRWord,
    coeff_to_json,
    factor_general,
    idempotent,
    multiply,
    normal_form,
)
from .uqmod import branching_character_check, gram_entry, shapovalov_gram


class UsageError(Exception):
    """Bad command-line input that argparse cannot catch by itself."""


def parse_partition(text):
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise UsageError(
            f"malformed partition {text!r}: expected comma-separated integers"
        ) from None
    try:
        return Partition(parts)
    except ValueError as exc:
        raise UsageError(f"malformed partition {text!r}: {exc}") from None


def parse_labels(text, what="sequence"):
    if text == "":
        return ()
    try:
        seq = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise UsageError(
            f"malformed {what} {text!r}: expected comma-separated integers"
        ) from None
    if any(v < 1 for v in seq):
        raise UsageError(f"malformed {what} {text!r}: labels start at 1")
    return seq


def check_labels(seq, rank):
    if any(v > rank for v in seq):
        raise UsageError(f"sequence label exceeds rank {rank}")


def parse_beta(text):
    try:
        beta = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise UsageError(
            f"malformed multiplicity vector {text!r}: expected comma-separated integers"
        ) from None
    if any(v < 0 for v in beta):
        raise UsageError(f"malformed multiplicity vector {text!r}: entries must be >= 0")
    return beta


def cap_kwargs(args):
    """The degree cap as keyword arguments; `--dot-cap` is validated, then ignored."""
    for flag, value in (("--deg-cap", args.deg_cap), ("--dot-cap", args.dot_cap)):
        if value is not None and value < 1:
            raise UsageError(f"{flag} must be >= 1")
    return {} if args.deg_cap is None else {"degree_cap": args.deg_cap}


def hom_cache_key(command, lam, e, e2, ctx):
    """The cache key of a Hom command.  Its last field is the dot cap the library used to
    default to, whatever `--dot-cap` says, so that entries written before keep their key."""
    dot_cap = max(1, lam.size() + max(ctx.weight, default=0))
    return [command, list(lam), list(e), list(e2), ctx.degree_cap, dot_cap]


def fetch_cached(args, key, compute):
    """The cached payload for key, computed and stored on a miss; a cache that cannot be
    written is a usage error."""
    cache = ResultCache(getattr(args, "cache_dir", None))
    try:
        return cache.fetch(key, compute)
    except OSError as exc:
        raise UsageError(f"cannot write the cache in {cache.directory!r}: {exc}") from None


def load_element(args):
    from_stdin = args.infile in (None, "-")
    try:
        if from_stdin:
            data = json.load(sys.stdin)
        else:
            with open(args.infile, "r", encoding="utf-8") as fh:
                data = json.load(fh)
    except (OSError, ValueError) as exc:
        source = "stdin" if from_stdin else repr(args.infile)
        raise UsageError(f"cannot read element from {source}: {exc}") from None
    try:
        return KLRElement.from_json(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"bad element document: {exc}") from None


def payload_to_csv(payload):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")

    def cell(v):
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, (int, float, str)):
            return v
        return json.dumps(v)

    if isinstance(payload, list) and payload and all(isinstance(r, dict) for r in payload):
        header = list(payload[0].keys())
        writer.writerow(header)
        for row in payload:
            writer.writerow([cell(row.get(h)) for h in header])
    elif isinstance(payload, list):
        for row in payload:
            if isinstance(row, (list, tuple)):
                writer.writerow([cell(v) for v in row])
            else:
                writer.writerow([cell(row)])
    elif isinstance(payload, dict):
        for k, v in payload.items():
            writer.writerow([k, cell(v)])
    else:
        writer.writerow([cell(payload)])
    return buf.getvalue()


def emit(payload, args):
    if args.format == "csv":
        text = payload_to_csv(payload)
    else:
        text = json.dumps(payload) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {args.out!r}: {exc}") from None
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# command handlers: each returns (payload, exit_code)


def cmd_gt_enum(args):
    lam = parse_partition(args.partition)
    return [p.to_json() for p in enumerate_gt_patterns(lam)], 0


def cmd_gt_idem(args):
    lam = parse_partition(args.partition)
    out = []
    for pat in enumerate_gt_patterns(lam):
        g = gt_idempotent(pat)
        out.append(
            {
                "pattern": pat.to_json(),
                "rank": g.rank,
                "sequence": list(g.sequence),
                "layers": [list(layer) for layer in g.layers],
                "spans": [list(span) for span in g.layer_spans],
            }
        )
    return out, 0


def cmd_branch_check(args):
    lam = parse_partition(args.partition)
    if lam.part_count < 2:
        raise UsageError("branch check needs a partition with at least two parts")
    result = branching_character_check(lam)
    return result, 0 if result["ok"] else 1


def cmd_weights_schur(args):
    if args.rank < 1:
        raise UsageError("--rank must be >= 1")
    if args.degree < 0:
        raise UsageError("--degree must be >= 0")
    weights = schur_weights(args.rank, args.degree, dominant_only=args.dominant)
    return [w.to_json() for w in weights], 0


def cmd_klr_nf(args):
    x = load_element(args)
    return normal_form(x).to_json(), 0


def cmd_klr_degree(args):
    x = load_element(args)
    degs = sorted({w.degree() for w in x.terms})
    payload = {
        "degrees": degs,
        "homogeneous": len(degs) <= 1,
        "degree": degs[0] if len(degs) == 1 else None,
    }
    return payload, 0


def cmd_klr_factor(args):
    seq = parse_labels(args.seq)
    if not seq:
        raise UsageError("--seq must name at least one strand")
    rank = args.rank if args.rank is not None else max(seq)
    check_labels(seq, rank)
    k = args.blocks if args.blocks is not None else seq.count(rank)
    try:
        terms = factor_general(seq, k, rank)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    acc = KLRElement(rank, {})
    rows = []
    for coeff, left, spec, right in terms:
        mid = idempotent(rank, spec.bottom())
        acc = acc + multiply(KLRElement(rank, {left: coeff}), multiply(mid, right))
        rows.append(
            {
                "coeff": coeff_to_json(coeff),
                "left": left.to_json(),
                "middle": spec.to_json(),
                "right": right.to_json(),
            }
        )
    ok = normal_form(acc) == idempotent(rank, seq)
    payload = {
        "sequence": list(seq),
        "rank": rank,
        "blocks": k,
        "terms": rows,
        "ok": ok,
    }
    return payload, 0 if ok else 1


def cmd_cyc_reduce(args):
    lam = parse_partition(args.partition)
    ctx = make_context(lam, **cap_kwargs(args))
    x = load_element(args)
    check_labels([v for w in x.terms for v in w.bottom], ctx.rank)
    if x.rank != ctx.rank:
        raise UsageError(
            f"element rank {x.rank} does not match the quotient's rank {ctx.rank}"
        )
    red, status = cyc_reduce(x, ctx)
    payload = {"lambda": list(lam), "element": red.to_json(), "status": status}
    code = 1 if args.require_exact and status != EXACT else 0
    return payload, code


def cmd_cyc_gdim(args):
    lam = parse_partition(args.partition)
    e = parse_labels(args.seq)
    e2 = parse_labels(args.seq2) if args.seq2 is not None else e
    ctx = make_context(lam, **cap_kwargs(args))
    check_labels(e + e2, ctx.rank)
    key = hom_cache_key("cyc gdim", lam, e, e2, ctx)

    def compute():
        poly, status = gdim_hom(e, e2, ctx)
        return hom_record(ctx, e, e2, poly, status)

    payload = fetch_cached(args, key, compute)
    code = 1 if args.require_exact and payload["status"] != EXACT else 0
    return payload, code


def cmd_cyc_compare(args):
    lam = parse_partition(args.partition)
    e = parse_labels(args.seq)
    e2 = parse_labels(args.seq2) if args.seq2 is not None else e
    ctx = make_context(lam, **cap_kwargs(args))
    check_labels(e + e2, ctx.rank)
    hw = weight_of_partition(lam).entries
    key = hom_cache_key("cyc compare", lam, e, e2, ctx)

    def compute():
        poly, status = gdim_hom(e, e2, ctx)
        gram = gram_entry(hw, e, e2)
        return {
            "gdim": poly.to_pairs(),
            "shapovalov": gram.to_pairs(),
            "ok": poly == gram,
            "status": status,
        }

    record = dict(fetch_cached(args, key, compute))
    status = record.pop("status")
    code = 0
    if not record["ok"] or (args.require_exact and status != EXACT):
        code = 1
    return record, code


def cmd_cyc_sl2_vanish(args):
    lam = parse_partition(args.partition)
    if lam.part_count != 2:
        raise UsageError("sl2-vanish expects a two-part partition")
    lam1 = weight_of_partition(lam).entries[0]
    ok = sl2_vanishing_check(lam1, **cap_kwargs(args))
    return {"lambda1": lam1, "ok": ok}, 0 if ok else 1


def cmd_cyc_weyl_vanish(args):
    lam = parse_partition(args.partition)
    seq = parse_labels(args.seq)
    ctx = make_context(lam, **cap_kwargs(args))
    check_labels(seq, ctx.rank)
    ok = weyl_vanishing_check(seq, ctx)
    payload = {"lambda": list(lam), "idempotent": list(seq), "ok": ok}
    return payload, 0 if ok else 1


def cmd_cyc_gt_ortho(args):
    lam = parse_partition(args.partition)
    deg_cap = cap_kwargs(args).get("degree_cap", 2 * lam.size() + 4)
    # None where the dot cap was: no computation reads it, and entries written without
    # the flag keep their key.
    key = ["cyc gt-ortho", list(lam), deg_cap, None]

    def compute():
        ok = gt_orthogonality_check(lam, degree_cap=deg_cap)
        payload = {
            "lambda": list(lam),
            "patterns": len(enumerate_gt_patterns(lam)),
            "ok": ok,
        }
        # A certified check reached every pair's range, so only a failure can be capped.
        reach = None if ok else gt_orthogonality_reach(lam)
        if reach is not None and reach > deg_cap:
            payload["status"] = CAPPED
            payload["reason"] = (
                f"degree cap {deg_cap} is below degree {reach}, "
                "where the graded-symmetry range of some pattern pair ends"
            )
        return payload

    payload = fetch_cached(args, key, compute)
    return payload, 0 if payload["ok"] else 1


def cmd_oracle_gram(args):
    lam = parse_partition(args.partition)
    beta = parse_beta(args.beta)
    if len(beta) != lam.part_count - 1:
        raise UsageError(f"--beta needs {lam.part_count - 1} entries, one per node")
    hw = weight_of_partition(lam).entries
    key = ["oracle gram", list(lam), list(beta)]
    payload = fetch_cached(args, key, lambda: shapovalov_gram(hw, beta).to_json())
    return payload, 0


def cmd_suite_acceptance(args):
    from .acceptance import run_suite

    results = run_suite(stream=sys.stderr)
    ok = all(r["ok"] for r in results)
    return {"results": results, "ok": ok}, 0 if ok else 1


# ---------------------------------------------------------------------------
# parser assembly


def _add_output_flags(p):
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", metavar="FILE", default=None)


def _add_cap_flags(p):
    p.add_argument(
        "--deg-cap", type=int, default=None,
        help="highest degree computed; a piece above it makes the result capped",
    )
    p.add_argument(
        "--dot-cap", type=int, default=None,
        help="accepted (must be >= 1) but ignored: every graded piece is computed in"
        " full, so a result is cached once for every value",
    )
    p.add_argument("--require-exact", action="store_true")


def _add_cache_flag(p):
    p.add_argument("--cache-dir", default=None)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="klrlab",
        description="Exact computations in type-A diagram algebras and their quotients.",
    )
    groups = parser.add_subparsers(dest="group", required=True)

    gt = groups.add_parser("gt", help="Gelfand-Tsetlin patterns").add_subparsers(
        dest="verb", required=True
    )
    p = gt.add_parser("enum", help="enumerate the patterns under a partition")
    p.add_argument("--partition", required=True)
    _add_output_flags(p)
    p.set_defaults(func=cmd_gt_enum)
    p = gt.add_parser("idem", help="idempotent data attached to each pattern")
    p.add_argument("--partition", required=True)
    _add_output_flags(p)
    p.set_defaults(func=cmd_gt_idem)

    branch = groups.add_parser("branch", help="restriction checks").add_subparsers(
        dest="verb", required=True
    )
    p = branch.add_parser("check", help="compare a module against its restriction")
    p.add_argument("--partition", required=True)
    _add_output_flags(p)
    p.set_defaults(func=cmd_branch_check)

    weights = groups.add_parser("weights", help="weight enumeration").add_subparsers(
        dest="verb", required=True
    )
    p = weights.add_parser("schur", help="integer weights of given rank and size")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--dominant", action="store_true")
    _add_output_flags(p)
    p.set_defaults(func=cmd_weights_schur)

    klr = groups.add_parser("klr", help="diagram algebra operations").add_subparsers(
        dest="verb", required=True
    )
    p = klr.add_parser("nf", help="normal form of an element document")
    p.add_argument("--in", dest="infile", metavar="FILE", default=None)
    _add_output_flags(p)
    p.set_defaults(func=cmd_klr_nf)
    p = klr.add_parser("degree", help="degrees of the terms of an element document")
    p.add_argument("--in", dest="infile", metavar="FILE", default=None)
    _add_output_flags(p)
    p.set_defaults(func=cmd_klr_degree)
    p = klr.add_parser("factor", help="pull sorted runs out of an idempotent")
    p.add_argument("--seq", required=True)
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--blocks", type=int, default=None)
    _add_output_flags(p)
    p.set_defaults(func=cmd_klr_factor)

    cyc = groups.add_parser("cyc", help="cyclotomic quotient checks").add_subparsers(
        dest="verb", required=True
    )
    p = cyc.add_parser("reduce", help="reduce an element document in the quotient")
    p.add_argument("--partition", required=True)
    p.add_argument("--in", dest="infile", metavar="FILE", default=None)
    _add_cap_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_cyc_reduce)
    p = cyc.add_parser("gdim", help="graded Hom dimension between two idempotents")
    p.add_argument("--partition", required=True)
    p.add_argument("--seq", required=True)
    p.add_argument("--seq2", default=None)
    _add_cap_flags(p)
    _add_cache_flag(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_cyc_gdim)
    p = cyc.add_parser("compare", help="graded Hom dimension against the bilinear-form oracle")
    p.add_argument("--partition", required=True)
    p.add_argument("--seq", required=True)
    p.add_argument("--seq2", default=None)
    _add_cap_flags(p)
    _add_cache_flag(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_cyc_compare)
    p = cyc.add_parser("sl2-vanish", help="one-row vanishing certificate")
    p.add_argument("--partition", required=True)
    _add_cap_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_cyc_sl2_vanish)
    p = cyc.add_parser("weyl-vanish", help="negative region-weight vanishing")
    p.add_argument("--partition", required=True)
    p.add_argument("--seq", required=True)
    _add_cap_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_cyc_weyl_vanish)
    p = cyc.add_parser("gt-ortho", help="pairwise vanishing between pattern idempotents")
    p.add_argument("--partition", required=True)
    _add_cap_flags(p)
    _add_cache_flag(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_cyc_gt_ortho)

    oracle = groups.add_parser("oracle", help="quantum-module oracles").add_subparsers(
        dest="verb", required=True
    )
    p = oracle.add_parser("gram", help="bilinear-form matrix on a weight space")
    p.add_argument("--partition", required=True)
    p.add_argument("--beta", required=True)
    _add_cache_flag(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_oracle_gram)

    suite = groups.add_parser("suite", help="batch verification").add_subparsers(
        dest="verb", required=True
    )
    p = suite.add_parser("acceptance", help="run every acceptance criterion")
    _add_output_flags(p)
    p.set_defaults(func=cmd_suite_acceptance)

    return parser


@functools.cache
def _parser():
    """The process's one parser, built on the first `main` call.  Reuse is safe: every
    `parse_args` fills a fresh namespace, and `build_parser()` still returns a new one."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        payload, code = args.func(args)
        emit(payload, args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
