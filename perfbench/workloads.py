"""Seeded workload generators, the ops they issue and the reference checks on the results.

A workload's `prepare(seed, workdir)` returns the op list of one round.  Every input is
generated here and the program only receives the generated inputs.  The module, hom and
reduce rounds issue whole fixed families, so that every run measures the same work on
a noisy machine, and the seed orders their ops; the cli round also draws its command
arguments from the seed.  Each op carries a key.  An op is `kept` when the program keeps
its answer (a module-level memo, a quotient context or the result cache); each kept key
is issued exactly twice, and its first issue is cold, its second warm.  Ops that are
not kept are issued once.

An op's result is turned into a small record right after the op (outside its timed
span), and `check(ops, records)` runs once all ops of the round are done, so reference
work never warms a memo that a later op would use.
"""

import collections
import contextlib
import hashlib
import io
import itertools
import json
import os
import random

from klrlab import cli, combi, cyclo, klr, uqmod

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")


class Op:
    """One closed-loop call into the program.

    `call()` is timed; `capture(result)` keeps what the checks need; `key` names the
    input for the cold/warm split and for the reference lookup; `kept` says whether the
    program keeps the answer, so that a second issue is warm."""

    __slots__ = ("name", "key", "call", "capture", "kept")

    def __init__(self, name, key, call, capture=None, kept=True):
        self.name = name
        self.key = key
        self.call = call
        self.capture = capture or (lambda result: result)
        self.kept = kept


def digest(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def load_reference():
    with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _weyl_dim(parts):
    num = den = 1
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            num *= parts[i] - parts[j] + j - i
            den *= j - i
    return num // den


def _partition_of(hw):
    """The partition with a trailing zero part whose successive differences are hw."""
    parts = [0]
    for x in reversed(hw):
        parts.append(parts[-1] + x)
    return tuple(reversed(parts))


def _multinomial(beta):
    out = 1
    total = 0
    for b in beta:
        for k in range(1, b + 1):
            total += 1
            out = out * total // k
    return out


def _max_repeat(seq):
    return max(collections.Counter(seq).values()) if seq else 0


def _then_warm(rng, ops):
    """The ops, then every kept op issued once more, in a second seeded order."""
    warm = [op for op in ops if op.kept]
    rng.shuffle(warm)
    return ops + warm


# ---------------------------------------------------------------------------
# module: quantum-module construction, relations and Gram ranks (qint, uqmod)

MODULE_MAX_DIM = 30
MODULE_GRAM_WORDS = 12


def module_family():
    """Dominant highest weights of rank 1-4 whose module has Weyl dimension <= 30,
    sorted by (dimension, rank, weight).  Rank 1 keeps every sl2 string up to (29,)."""
    out = [(m,) for m in range(MODULE_MAX_DIM)]
    for rank in range(2, 5):
        for hw in itertools.product(range(8), repeat=rank):
            if _weyl_dim(_partition_of(hw)) <= MODULE_MAX_DIM:
                out.append(hw)
    return sorted(out, key=lambda hw: (_weyl_dim(_partition_of(hw)), len(hw), hw))


def _gram_betas(hw):
    """Root contents whose weight space has at most MODULE_GRAM_WORDS monomial words and
    whose gl weight stays inside the box [0, lambda_1]."""
    lam = _partition_of(hw)
    rank = len(hw)
    out = []
    for beta in itertools.product(range(lam[0] + 1), repeat=rank):
        if not any(beta) or _multinomial(beta) > MODULE_GRAM_WORDS:
            continue
        ext = (0,) + beta + (0,)
        mu = [lam[j] - ext[j + 1] + ext[j] for j in range(rank + 1)]
        if all(0 <= v <= lam[0] for v in mu):
            out.append(beta)
    return out


def _ef_digest(module):
    mats = []
    for side in (module.e_mats, module.f_mats):
        for i in sorted(side):
            mats.append([[v.to_record() for v in row] for row in side[i]])
    return digest([list(w) for w in module.basis] + mats)


def _gt_multiplicity(hw, beta):
    lam = _partition_of(hw)
    ext = (0,) + tuple(beta) + (0,)
    mu = tuple(lam[j] - ext[j + 1] + ext[j] for j in range(len(lam)))
    return sum(
        1 for p in combi.enumerate_gt_patterns(combi.Partition(lam)) if combi.gt_weight(p).entries == mu
    )


class Workload:
    name = None

    def layer_counts(self, ops, records):
        """Per-layer counts that only the workload's records show."""
        return {}


class ModuleWorkload(Workload):
    """Every weight of the module family, in seeded order; for each module: build,
    verify, and the Gram rank on each small weight space.  The Gram ops are the kept
    ones (their second issue finds every entry in the contravariant-form memo and only
    recomputes the rank); build and verify keep nothing and are issued once."""

    name = "module"

    def prepare(self, seed, workdir):
        rng = random.Random(f"module:{seed}")
        family = module_family()
        rng.shuffle(family)
        built = {}
        ops = []
        for hw in family:
            ops.append(Op("build_irreducible", ("build", hw), self._build(built, hw),
                          capture=lambda m: {"dim": m.dim(), "ef": _ef_digest(m)},
                          kept=False))
            ops.append(Op("verify_relations", ("verify", hw), self._verify(built, hw),
                          kept=False))
            for beta in _gram_betas(hw):
                ops.append(Op("shapovalov_gram", ("gram", hw, beta), self._gram(hw, beta)))
        return _then_warm(rng, ops)

    @staticmethod
    def _build(built, hw):
        def call():
            built[hw] = uqmod.build_irreducible(hw)
            return built[hw]

        return call

    @staticmethod
    def _verify(built, hw):
        return lambda: uqmod.verify_relations(built.pop(hw))

    @staticmethod
    def _gram(hw, beta):
        return lambda: uqmod.shapovalov_gram(hw, beta).rank()

    def check(self, ops, records, reference):
        refs = reference["module"]
        for i, (op, rec) in enumerate(zip(ops, records)):
            kind, hw = op.key[0], op.key[1]
            if kind == "build":
                if rec["dim"] != _weyl_dim(_partition_of(hw)):
                    yield i, f"dim {rec['dim']} != Weyl dimension at {hw}"
                elif rec["ef"] != refs.get(str(list(hw))):
                    yield i, f"E/F digest differs from the reference at {hw}"
            elif kind == "verify":
                if rec is not True:
                    yield i, f"relations fail at {hw}"
            else:
                want = _gt_multiplicity(hw, op.key[2])
                if rec != want:
                    yield i, f"Gram rank {rec} != GT multiplicity {want} at {hw} {op.key[2]}"

    def layer_counts(self, ops, records):
        dims = [rec["dim"] for op, rec in zip(ops, records) if op.key[0] == "build" and rec]
        return {"uqmod.basis_dim": sum(dims)}


# ---------------------------------------------------------------------------
# hom: graded Hom dimensions between idempotents (cyclo rank path, klr rows)

HOM_LAMBDAS = [(2, 1, 0), (1, 1, 0), (2, 0, 0), (3, 1, 0), (3, 0), (2, 1, 1, 0)]
HOM_MAX_REPEAT = 2
# (3,1,0) on four strands runs into the equal-label cost cliff: single pairs take from
# seconds to minutes, more than a whole run can hold.
HOM_MAX_STRANDS = {(3, 1, 0): 3}
# Pairs on which gdim_hom is known to be wrong.  Its degree sweep stops after two
# consecutive zero degrees (ROADMAP item 4): for these self pairs the two lowest
# compatible degrees, -2 and -1, are zero, so it returns 0 as exact where the
# contravariant form gives 1 in degree 0.  The benchmark measures inputs on which the
# program is right; test_bench.py keeps these pairs failing in a strict xfail test until
# the sweep is certified, and then they come back into the family.
HOM_KNOWN_WRONG = frozenset([
    ((2, 1, 0), (1, 2, 1, 2), (1, 2, 1, 2)),
    ((2, 1, 0), (2, 1, 2, 1), (2, 1, 2, 1)),
])


def _hom_groups(lam, strands):
    """Label sequences on 1..strands strands with at most HOM_MAX_REPEAT equal labels,
    grouped by content."""
    rank = len(lam) - 1
    groups = collections.defaultdict(list)
    for m in range(1, strands + 1):
        for seq in itertools.product(range(1, rank + 1), repeat=m):
            if _max_repeat(seq) <= HOM_MAX_REPEAT:
                groups[tuple(sorted(seq))].append(seq)
    return [groups[c] for c in sorted(groups, key=lambda c: (len(c), c))]


def _hom_defect(weight, content):
    """d = (Lambda, beta) - (beta, beta)/2 for the root content of a sequence."""
    rank = len(weight)
    beta = [content.count(i) for i in range(1, rank + 1)]
    pair = sum(weight[i] * beta[i] for i in range(rank))
    norm = sum(2 * b * b for b in beta) - 2 * sum(beta[i] * beta[i + 1] for i in range(rank - 1))
    return pair - norm // 2


class HomWorkload(Workload):
    """Every same-content idempotent pair on 1-4 strands with at most two equal labels,
    but those in HOM_KNOWN_WRONG, in seeded order; one quotient context per partition
    serves all of its pairs.  Every pair is then issued once more (warm: the context
    holds every graded piece it needs)."""

    name = "hom"

    def prepare(self, seed, workdir):
        rng = random.Random(f"hom:{seed}")
        ops = []
        for lam in HOM_LAMBDAS:
            ctx = cyclo.make_context(lam)
            for group in _hom_groups(lam, HOM_MAX_STRANDS.get(lam, 4)):
                for a in group:
                    for b in group:
                        if (lam, a, b) in HOM_KNOWN_WRONG:
                            continue
                        ops.append(Op("gdim_hom", (lam, a, b), self._gdim(ctx, a, b),
                                      capture=lambda r: (r[0].to_pairs(), r[1])))
        rng.shuffle(ops)
        return _then_warm(rng, ops)

    @staticmethod
    def _gdim(ctx, a, b):
        return lambda: cyclo.gdim_hom(a, b, ctx)

    def check(self, ops, records, reference):
        got = {}
        for i, (op, rec) in enumerate(zip(ops, records)):
            lam, a, b = op.key
            pairs, status = rec
            want = uqmod.gram_entry(_hw_of(lam), a, b).to_pairs()
            if status != cyclo.EXACT:
                yield i, f"status {status} at {lam} {a} {b}"
            elif pairs != want:
                yield i, f"gdim {pairs} != form {want} at {lam} {a} {b}"
            got[op.key] = (i, pairs)
        for (lam, a, b), (i, pairs) in got.items():
            back = got.get((lam, b, a))
            if back is None:
                continue
            shift = 2 * _hom_defect(_hw_of(lam), a)
            mirrored = sorted([shift - e, c] for e, c in back[1])
            if pairs != mirrored:
                yield i, f"graded symmetry fails at {lam} {a} {b}"


def _hw_of(lam):
    return tuple(lam[i] - lam[i + 1] for i in range(len(lam) - 1))


# ---------------------------------------------------------------------------
# reduce: membership reduction and projection (cyclo remainder path)

REDUCE_LAMBDAS = [
    (1, 0), (2, 0), (3, 0), (1, 0, 0), (1, 1, 0), (2, 0, 0), (2, 1, 0), (3, 1, 0), (1, 1, 1, 0)
]
REDUCE_MAX_REPEAT = 3
REDUCE_MAX_OPS = 5
REDUCE_POOL_SEED = 1309
REDUCE_POOL_PER_LAMBDA = 12
PI_LAMBDA = (2, 1, 0)
PI_XI = (2,)
PI_POOL = 12
# Criterion 8's anchor: four equal labels at lambda = (3, 0).  The pool allows at most
# three equal labels per sequence, because one four-label draw can take 29 s (a random
# word at (2,0,0)) or 138 s (e(1,1,1,1) at (4,0)); the anchor keeps that cost cliff in
# every run, whatever the seed.
REDUCE_ANCHOR = ((3, 0), (1, 1, 1, 1))
# e(1^{lambda_1 + 1}) vanishes in the one-row quotient (criterion 8).
REDUCE_SL2 = [((1, 0), (1, 1)), ((2, 0), (1, 1, 1)), REDUCE_ANCHOR]


def _random_ops(rng, m, max_ops):
    ops = []
    for _ in range(rng.randrange(max_ops + 1)):
        if m > 1 and rng.random() < 0.6:
            ops.append(("cross", rng.randrange(1, m)))
        else:
            ops.append(("dot", rng.randrange(1, m + 1)))
    return ops


def reduce_pool():
    """The fixed input pool, without repeats; reference.json holds its seed-code
    results.  Per partition: idempotents and words with at most five ops; then
    products of two endomorphism words for the projection."""
    rng = random.Random(REDUCE_POOL_SEED)
    pool = []
    for lam in REDUCE_LAMBDAS:
        rank = len(lam) - 1
        for i in range(REDUCE_POOL_PER_LAMBDA):
            max_m = 4 if rank > 1 else REDUCE_MAX_REPEAT
            m = rng.randint(1, max_m)
            while True:
                bottom = tuple(rng.randint(1, rank) for _ in range(m))
                if _max_repeat(bottom) <= REDUCE_MAX_REPEAT:
                    break
            ops = [] if i % 3 == 0 else _random_ops(rng, m, REDUCE_MAX_OPS)
            pool.append(("reduce", lam, {"rank": rank, "bottom": list(bottom),
                                          "ops": [list(o) for o in ops]}))
    block = klr.SpecialIdempotentSpec(2, PI_XI).bottom()
    bottom = block + (1, 1)
    for _ in range(PI_POOL):
        g = _endo_ops(rng, bottom)
        h = _endo_ops(rng, bottom)
        pool.append(("pi", PI_LAMBDA, {"bottom": list(bottom), "g": g, "h": h}))
    unique = {reduce_input_key(*item): item for item in pool}
    return list(unique.values())


def _endo_ops(rng, bottom):
    """A word whose top equals its bottom (criterion 9's endomorphisms)."""
    m = len(bottom)
    while True:
        ops = _random_ops(rng, m, REDUCE_MAX_OPS)
        if klr.KLRWord(2, bottom, ops).top() == bottom:
            return [list(o) for o in ops]


def _word(rank, bottom, ops):
    return klr.KLRWord(rank, bottom, [tuple(o) for o in ops])


def _element_record(result):
    elem, status = result if isinstance(result, tuple) else (result, cyclo.EXACT)
    return {"element": elem.to_json(), "status": status}


def reduce_input_key(kind, lam, spec):
    return digest([kind, list(lam), spec])


class ReduceWorkload(Workload):
    """Every input of the reduce pool, in seeded order: idempotents and short words
    per partition, projections of products in the style of criterion 9, the sl2
    vanishing idempotents and the fixed criterion-8 anchor.  Each input gets a quotient
    context of its own, so an op's cost does not depend on which ops ran before it.
    Every input is then issued once more (warm: its context already holds the echelon
    state)."""

    name = "reduce"

    def prepare(self, seed, workdir):
        rng = random.Random(f"reduce:{seed}")
        ops = []
        for kind, lam, spec in reduce_pool():
            key = (kind, lam, reduce_input_key(kind, lam, spec))
            ctx = cyclo.make_context(lam)
            if kind == "reduce":
                word = _word(spec["rank"], spec["bottom"], spec["ops"])
                ops.append(Op("cyc_reduce", key + (word.bottom,), self._reduce(ctx, word),
                              capture=_element_record))
            else:
                g = _word(2, spec["bottom"], spec["g"])
                h = _word(2, spec["bottom"], spec["h"])
                ops.append(Op("pi_project", key, self._project(ctx, g, h),
                              capture=_element_record))
        for lam, seq in REDUCE_SL2:
            word = klr.KLRWord(1, seq)
            ops.append(Op("cyc_reduce", ("vanish", lam, seq),
                          self._reduce(cyclo.make_context(lam), word), capture=_element_record))
        rng.shuffle(ops)
        return _then_warm(rng, ops)

    @staticmethod
    def _reduce(ctx, word):
        return lambda: cyclo.cyc_reduce(word, ctx)

    @staticmethod
    def _project(ctx, g, h):
        return lambda: cyclo.pi_project(klr.multiply(g, h), PI_XI, ctx)

    def check(self, ops, records, reference):
        refs = reference["reduce"]
        for i, (op, rec) in enumerate(zip(ops, records)):
            kind, lam = op.key[0], op.key[1]
            zero = not rec["element"]["terms"]
            if rec["status"] != cyclo.EXACT:
                yield i, f"status {rec['status']} for {op.key}"
            elif kind == "vanish":
                if not zero:
                    yield i, f"e{op.key[2]} does not vanish at {lam}"
            elif refs.get(op.key[2]) != digest(rec):
                yield i, f"result differs from the reference for {op.key}"
            elif kind == "reduce" and not zero:
                _, flags = klr.decorate_regions(op.key[3], combi.GlWeight(lam))
                if any(flags):
                    yield i, f"nonzero result below a negative region weight for {op.key}"


# ---------------------------------------------------------------------------
# cli: an in-process command session against a fresh result cache (cli, cache)

CLI_GDIM_LAMBDAS = [(2, 1, 0), (1, 1, 0), (2, 0, 0), (2, 0), (1, 0, 0)]
CLI_GRAM_LAMBDAS = [(2, 1, 0), (1, 1, 0), (2, 0, 0), (3, 1, 0), (2, 1, 1, 0)]
CLI_ORTHO_LAMBDAS = [(1, 0), (2, 0), (1, 1, 0), (2, 1, 0)]
CLI_ENUM_LAMBDAS = [(2, 1, 0), (3, 1, 0), (2, 2, 0), (3, 2, 0), (2, 1, 1, 0), (3, 2, 1, 0)]
CLI_BRANCH_LAMBDAS = [(1, 0, 0), (1, 1, 0), (2, 0, 0), (2, 1, 0), (1, 1, 0, 0)]


def _csv(seq):
    return ",".join(str(v) for v in seq)


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class CliWorkload(Workload):
    """Cached commands (cyc gdim, cyc compare, oracle gram, cyc gt-ortho) on small
    inputs, each key issued once cold and once warm, interleaved with uncached commands
    (gt enum, branch check, klr nf, klr factor), which are issued once."""

    name = "cli"

    def prepare(self, seed, workdir):
        rng = random.Random(f"cli:{seed}")
        cache_dir = os.path.join(workdir, "cache")
        os.makedirs(cache_dir)
        pairs = []
        for lam in CLI_GDIM_LAMBDAS:
            for group in _hom_groups(lam, 3):
                pairs += [(lam, a, b) for a in group for b in group]
        cached = []
        for lam, a, b in rng.sample(pairs, 28):
            cached.append(["cyc", "gdim", "--partition", _csv(lam), "--seq", _csv(a),
                           "--seq2", _csv(b), "--cache-dir", cache_dir])
        for lam, a, b in rng.sample(pairs, 20):
            cached.append(["cyc", "compare", "--partition", _csv(lam), "--seq", _csv(a),
                           "--seq2", _csv(b), "--cache-dir", cache_dir])
        grams = [(lam, beta) for lam in CLI_GRAM_LAMBDAS for beta in _small_betas(len(lam) - 1)]
        for lam, beta in rng.sample(grams, 16):
            cached.append(["oracle", "gram", "--partition", _csv(lam), "--beta", _csv(beta),
                           "--cache-dir", cache_dir])
        for lam in CLI_ORTHO_LAMBDAS:
            cached.append(["cyc", "gt-ortho", "--partition", _csv(lam), "--cache-dir", cache_dir])
        uncached = []
        for lam in rng.sample(CLI_ENUM_LAMBDAS, 5):
            uncached.append(["gt", "enum", "--partition", _csv(lam)])
        for lam in rng.sample(CLI_BRANCH_LAMBDAS, 4):
            uncached.append(["branch", "check", "--partition", _csv(lam)])
        for i in range(16):
            rank = rng.randint(1, 3)
            m = rng.randint(1, 4)
            bottom = [rng.randint(1, rank) for _ in range(m)]
            word = klr.KLRWord(rank, bottom, _random_ops(rng, m, REDUCE_MAX_OPS))
            path = os.path.join(workdir, f"element-{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(klr.KLRElement(rank, {word: 1}).to_json(), fh)
            uncached.append(["klr", "nf", "--in", path])
        for _ in range(12):
            seq = [rng.randint(1, 3) for _ in range(rng.randint(1, 5))]
            blocks = min(seq.count(3), rng.randint(0, 2))
            uncached.append(["klr", "factor", "--seq", _csv(seq), "--rank", "3",
                             "--blocks", str(blocks)])
        issues = cached + cached + uncached
        rng.shuffle(issues)
        return [Op(" ".join(argv[:2]), tuple(argv), self._call(argv),
                   kept=argv in cached) for argv in issues]

    @staticmethod
    def _call(argv):
        return lambda: _run_cli(argv)

    def check(self, ops, records, reference):
        first = {}
        for i, (op, (code, out)) in enumerate(zip(ops, records)):
            if code != 0:
                yield i, f"exit {code} for {' '.join(op.key)}"
            elif op.key in first and first[op.key][1] != out:
                yield i, f"repeat output differs for {' '.join(op.key)}"
            first.setdefault(op.key, (i, out))
        for key, (i, out) in first.items():
            direct = _direct(key)
            if direct is not None and out != direct:
                yield i, f"output differs from the library call for {' '.join(key)}"


def _small_betas(rank):
    return [b for b in itertools.product(range(3), repeat=rank) if any(b) and _multinomial(b) <= 6]


def _direct(argv):
    """The same command's output, computed by calling the library directly."""
    args = dict(zip(argv[2::2], argv[3::2]))

    def labels(flag):
        return tuple(int(v) for v in args[flag].split(","))

    lam = combi.Partition(labels("--partition")) if "--partition" in args else None
    group = tuple(argv[:2])
    if group == ("cyc", "gdim"):
        ctx = cyclo.make_context(lam)
        e, e2 = labels("--seq"), labels("--seq2")
        payload = cyclo.hom_record(ctx, e, e2, *cyclo.gdim_hom(e, e2, ctx))
    elif group == ("cyc", "compare"):
        ctx = cyclo.make_context(lam)
        e, e2 = labels("--seq"), labels("--seq2")
        poly, _ = cyclo.gdim_hom(e, e2, ctx)
        gram = uqmod.gram_entry(combi.weight_of_partition(lam).entries, e, e2)
        if poly.is_zero() or gram.is_zero():
            ok = poly.is_zero() and gram.is_zero()
        else:
            ok = poly == gram.shift(poly.min_exp() - gram.min_exp())
        payload = {"gdim": poly.to_pairs(), "shapovalov": gram.to_pairs(), "ok": ok}
    elif group == ("oracle", "gram"):
        hw = combi.weight_of_partition(lam).entries
        payload = uqmod.shapovalov_gram(hw, labels("--beta")).to_json()
    elif group == ("cyc", "gt-ortho"):
        ok = cyclo.gt_orthogonality_check(lam, degree_cap=2 * lam.size() + 4)
        payload = {"lambda": list(lam), "patterns": len(combi.enumerate_gt_patterns(lam)),
                   "ok": ok}
    elif group == ("gt", "enum"):
        payload = [p.to_json() for p in combi.enumerate_gt_patterns(lam)]
    elif group == ("branch", "check"):
        payload = uqmod.branching_character_check(lam)
    elif group == ("klr", "nf"):
        with open(args["--in"], "r", encoding="utf-8") as fh:
            payload = klr.normal_form(klr.KLRElement.from_json(json.load(fh))).to_json()
    else:
        return None
    return json.dumps(payload) + "\n"


WORKLOADS = {w.name: w for w in (ModuleWorkload(), HomWorkload(), ReduceWorkload(), CliWorkload())}
