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
    DEFAULT_DEGREE_CAP,
    EXACT,
    cyc_reduce,
    gdim_hom,
    gt_idempotent,
    gt_orthogonality_cap,
    gt_orthogonality_check,
    gt_orthogonality_reach,
    hom_record,
    make_context,
    sl2_vanishing_check,
    weyl_vanishing_check,
)
from .klr import (
    KLRElement,
    coeff_to_json,
    factor_general,
    idempotent,
    multiply,
    normal_form,
)
from .uqmod import branching_character_check, gram_entry, shapovalov_gram


class UsageError(Exception):
    """Bad command-line input that argparse cannot catch by itself."""


def _parse_ints(text, what):
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise UsageError(
            f"malformed {what} {text!r}: expected comma-separated integers"
        ) from None


def parse_partition(text):
    parts = _parse_ints(text, "partition")
    try:
        return Partition(parts)
    except ValueError as exc:
        raise UsageError(f"malformed partition {text!r}: {exc}") from None


def parse_labels(text):
    if text == "":
        return ()
    seq = _parse_ints(text, "sequence")
    if any(v < 1 for v in seq):
        raise UsageError(f"malformed sequence {text!r}: labels start at 1")
    return seq


def check_labels(seq, rank):
    if any(v > rank for v in seq):
        raise UsageError(f"sequence label exceeds rank {rank}")


def parse_beta(text):
    beta = _parse_ints(text, "multiplicity vector")
    if any(v < 0 for v in beta):
        raise UsageError(f"malformed multiplicity vector {text!r}: entries must be >= 0")
    return beta


def cap_kwargs(args):
    """The degree cap as keyword arguments."""
    if args.deg_cap is not None and args.deg_cap < 1:
        raise UsageError("--deg-cap must be >= 1")
    return {} if args.deg_cap is None else {"degree_cap": args.deg_cap}


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

    if isinstance(payload, dict):
        for k, v in payload.items():
            writer.writerow([k, cell(v)])
    elif payload and all(isinstance(r, dict) for r in payload):
        header = list(payload[0].keys())
        writer.writerow(header)
        for row in payload:
            writer.writerow([cell(row.get(h)) for h in header])
    else:
        for row in payload:
            writer.writerow([cell(v) for v in row])
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


def hom_inputs(args):
    """The partition, the two sequences (`--seq2` defaults to `--seq`), the degree cap
    and the cache key of `cyc gdim` and `cyc compare`.  A cache hit needs no quotient
    context, so `compute` builds one."""
    lam = parse_partition(args.partition)
    e = parse_labels(args.seq)
    e2 = parse_labels(args.seq2) if args.seq2 is not None else e
    cap = cap_kwargs(args).get("degree_cap", DEFAULT_DEGREE_CAP)
    check_labels(e + e2, lam.part_count - 1)
    key = [f"cyc {args.verb}", list(lam), list(e), list(e2), cap]
    return lam, e, e2, cap, key


def cmd_cyc_gdim(args):
    lam, e, e2, cap, key = hom_inputs(args)

    def compute():
        ctx = make_context(lam, cap)
        poly, status = gdim_hom(e, e2, ctx)
        return hom_record(ctx, e, e2, poly, status)

    payload = fetch_cached(args, key, compute)
    code = 1 if args.require_exact and payload["status"] != EXACT else 0
    return payload, code


def cmd_cyc_compare(args):
    lam, e, e2, cap, key = hom_inputs(args)
    if lam.part_count < 2:
        raise UsageError("cyc compare needs a partition with at least two parts")

    def compute():
        poly, status = gdim_hom(e, e2, make_context(lam, cap))
        gram = gram_entry(weight_of_partition(lam).entries, e, e2)
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
    ok = sl2_vanishing_check(lam1)
    return {"lambda1": lam1, "ok": ok}, 0 if ok else 1


def cmd_cyc_weyl_vanish(args):
    lam = parse_partition(args.partition)
    seq = parse_labels(args.seq)
    ctx = make_context(lam)
    check_labels(seq, ctx.rank)
    ok = weyl_vanishing_check(seq, ctx)
    payload = {"lambda": list(lam), "idempotent": list(seq), "ok": ok}
    return payload, 0 if ok else 1


def cmd_cyc_gt_ortho(args):
    lam = parse_partition(args.partition)
    deg_cap = cap_kwargs(args).get("degree_cap", gt_orthogonality_cap(lam))
    key = ["cyc gt-ortho", list(lam), deg_cap]

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
# the command table

# Each flag a verb can take, by name: its option string and add_argument keywords.
FLAGS = {
    "partition": ("--partition", {"required": True}),
    "seq": ("--seq", {"required": True}),
    "seq2": ("--seq2", {}),
    "beta": ("--beta", {"required": True}),
    "rank": ("--rank", {"type": int, "required": True}),
    "degree": ("--degree", {"type": int, "required": True}),
    "dominant": ("--dominant", {"action": "store_true"}),
    "in": ("--in", {"dest": "infile", "metavar": "FILE"}),
    "optional-rank": ("--rank", {"type": int}),
    "blocks": ("--blocks", {"type": int}),
    "deg-cap": ("--deg-cap", {
        "type": int,
        "help": "highest degree computed; a piece above it makes the result capped "
                f"(default {DEFAULT_DEGREE_CAP}, or twice the partition's size plus 4 "
                "for gt-ortho)",
    }),
    "require-exact": ("--require-exact", {"action": "store_true"}),
    "cache-dir": ("--cache-dir", {}),
}
CAPS = ("deg-cap", "require-exact")

# Every command: group -> (help, [(verb, handler, names of its flags in order, help)]).
# Each verb also takes --format and --out, after its own flags.
COMMANDS = {
    "gt": ("Gelfand-Tsetlin patterns", [
        ("enum", cmd_gt_enum, ["partition"], "enumerate the patterns under a partition"),
        ("idem", cmd_gt_idem, ["partition"], "idempotent data attached to each pattern"),
    ]),
    "branch": ("restriction checks", [
        ("check", cmd_branch_check, ["partition"], "compare a module against its restriction"),
    ]),
    "weights": ("weight enumeration", [
        ("schur", cmd_weights_schur, ["rank", "degree", "dominant"],
         "integer weights of given rank and size"),
    ]),
    "klr": ("diagram algebra operations", [
        ("nf", cmd_klr_nf, ["in"], "normal form of an element document"),
        ("degree", cmd_klr_degree, ["in"], "degrees of the terms of an element document"),
        ("factor", cmd_klr_factor, ["seq", "optional-rank", "blocks"],
         "pull sorted runs out of an idempotent"),
    ]),
    "cyc": ("cyclotomic quotient checks", [
        ("reduce", cmd_cyc_reduce, ["partition", "in", *CAPS],
         "reduce an element document in the quotient"),
        ("gdim", cmd_cyc_gdim, ["partition", "seq", "seq2", *CAPS, "cache-dir"],
         "graded Hom dimension between two idempotents"),
        ("compare", cmd_cyc_compare, ["partition", "seq", "seq2", *CAPS, "cache-dir"],
         "graded Hom dimension against the bilinear-form oracle"),
        ("sl2-vanish", cmd_cyc_sl2_vanish, ["partition"],
         "one-row vanishing certificate"),
        ("weyl-vanish", cmd_cyc_weyl_vanish, ["partition", "seq"],
         "negative region-weight vanishing"),
        ("gt-ortho", cmd_cyc_gt_ortho, ["partition", "deg-cap", "cache-dir"],
         "pairwise vanishing between pattern idempotents"),
    ]),
    "oracle": ("quantum-module oracles", [
        ("gram", cmd_oracle_gram, ["partition", "beta", "cache-dir"],
         "bilinear-form matrix on a weight space"),
    ]),
    "suite": ("batch verification", [
        ("acceptance", cmd_suite_acceptance, [], "run every acceptance criterion"),
    ]),
}


def add_verb_arguments(parser, func, flags):
    """Give a verb's parser its flags, then --format and --out, and its handler."""
    for name in flags:
        option, kwargs = FLAGS[name]
        parser.add_argument(option, **kwargs)
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--out", metavar="FILE", default=None)
    parser.set_defaults(func=func)
    return parser


def build_parser():
    parser = argparse.ArgumentParser(
        prog="klrlab",
        description="Exact computations in type-A diagram algebras and their quotients.",
    )
    groups = parser.add_subparsers(dest="group", required=True)
    for group, (group_help, verbs) in COMMANDS.items():
        subparsers = groups.add_parser(group, help=group_help).add_subparsers(
            dest="verb", required=True
        )
        for verb, func, flags, verb_help in verbs:
            add_verb_arguments(subparsers.add_parser(verb, help=verb_help), func, flags)
    return parser


@functools.cache
def _verb_parser(group, verb):
    """One verb's parser, the one `build_parser()` nests under `klrlab group verb`, built
    on the first command that names the verb and reused by later ones: one entry per
    verb.  Reuse is safe: every parse fills a fresh namespace."""
    ((func, flags),) = [(f, fl) for v, f, fl, _ in COMMANDS[group][1] if v == verb]
    parser = argparse.ArgumentParser(prog=f"klrlab {group} {verb}")
    return add_verb_arguments(parser, func, flags)


def parse_args(argv):
    """The namespace `build_parser().parse_args(argv)` gives, with the same output and
    exit on help or error.  A known group and verb take the rest from the verb's own
    parser; anything else, leftover arguments included, goes to the whole tree, which
    reports it as before."""
    group, verb = (*argv[:2], None, None)[:2]
    if any(v == verb for v, *_ in COMMANDS.get(group, ("", ()))[1]):
        args, extras = _verb_parser(group, verb).parse_known_args(
            argv[2:], argparse.Namespace(group=group, verb=verb)
        )
        if not extras:
            return args
    return build_parser().parse_args(argv)


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        payload, code = args.func(args)
        emit(payload, args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
