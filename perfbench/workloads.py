"""The four workloads: seeded input catalogues, the timed item of each kind,
and the canonical summary each item's digest is taken from.

Every workload owns a fixed catalogue of ``STRATA * per_stratum`` inputs.
Input ``i`` is built from ``random.Random(salt + i)`` alone and belongs to
stratum ``i % STRATA``; a stratum fixes the item kind and size.  A run's
``--seed`` only chooses which catalogue inputs it uses and in which order:
every stream cycles through the strata in a fixed order, so all seeds see
the same mix of kinds and sizes, and the reference digest of every input is
known in advance (``reference/<workload>.txt.gz``, one line per index).

Input generation calls only the library's constructors and make_theory;
sizes are screened with the oracles module, never with the code under test.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

import oracles

SEMANTICS = ("admissible", "complete", "grounded", "preferred", "stable")


def digest(summary: str) -> str:
    return hashlib.blake2b(summary.encode(), digest_size=6).hexdigest()


def members(completions) -> tuple:
    """A library completion set as the oracles' canonical tuple."""
    return tuple(sorted((af.args, af.defeats) for af in completions))


def _sample_edges(rng: random.Random, names, density: float) -> list:
    return [(s, t) for s in names for t in names if rng.random() < density]


@dataclass(frozen=True)
class Workload:
    name: str
    salt: int
    strata: tuple          # one (kind, size) pair per stratum
    per_stratum: int       # catalogue inputs per stratum
    warmup: int            # warm-up items per worker process
    trace_items: int       # items in each list of the traced run
    make: Callable         # (uarg, rng, kind, size) -> input
    run: Callable          # (uarg, input) -> (certified, output)
    summary: Callable      # (input, output) -> canonical text
    oracle: Callable       # (uarg, input, output) -> summary, by the oracles

    @property
    def size(self) -> int:
        return len(self.strata) * self.per_stratum

    def kind(self, index: int) -> str:
        return self.strata[index % len(self.strata)][0]

    def item(self, uarg, index: int):
        kind, size = self.strata[index % len(self.strata)]
        return self.make(uarg, random.Random(self.salt + index), kind, size)

    def stream(self, seed: int, part: int, parts: int):
        """Catalogue indices for one of ``parts`` disjoint parts of the
        seed's order; each part cycles through the strata.  The seed's
        order within a stratum is the permutation k -> (a*k + b) mod n
        with a coprime to n, which costs nothing to set up."""
        rng = random.Random(seed)
        n = self.per_stratum
        perms = []
        for _ in self.strata:
            a = rng.randrange(1, n)
            while math.gcd(a, n) != 1:
                a = rng.randrange(1, n)
            perms.append((a, rng.randrange(n)))
        block = n // parts
        strata = len(self.strata)
        for step in range(part * block, (part + 1) * block):
            for stratum, (a, b) in enumerate(perms):
                yield (a * step + b) % n * strata + stratum


# --- encode_sweep ------------------------------------------------------------

def _make_encode(uarg, rng, kind, n):
    names = "abcde"[:n]
    uncertain = [a for a in names if rng.random() < 0.5]
    return uarg.ArgIAF(set(names) - set(uncertain), uncertain,
                       _sample_edges(rng, names, 0.35))


def _run_encode(uarg, iaf):
    source = uarg.completions_arg_iaf(iaf)
    rul, witness_r = uarg.arg_iaf_to_rul_isaf(iaf)
    rul_set = uarg.completions_rul(rul)
    ok = uarg.check_witness(source, rul_set, witness_r)
    prem, witness_p = uarg.arg_iaf_to_prem_isaf(iaf)
    prem_set = uarg.completions_prem(prem)
    ok = uarg.check_witness(source, prem_set, witness_p) and ok
    return ok, (source, rul_set, prem_set)


def _summary_encode(iaf, out):
    return repr(tuple((len(cs), members(cs)) for cs in out))


def _oracle_encode(uarg, iaf, out):
    rul, _ = uarg.arg_iaf_to_rul_isaf(iaf)
    prem, _ = uarg.arg_iaf_to_prem_isaf(iaf)
    sets = (oracles.arg_iaf_completions(iaf.fixed_args, iaf.uncertain_args,
                                        iaf.defeats),
            oracles.rul_isaf_completions(rul),
            oracles.prem_isaf_completions(prem))
    return repr(tuple((len(cs), cs) for cs in sets))


# --- structured_wide ---------------------------------------------------------

ATOMS = "abcdef"
LITERALS = [a for a in ATOMS] + ["~" + a for a in ATOMS]


def _literal(rng, below: int) -> str:
    atom = ATOMS[rng.randrange(below)]
    return "~" + atom if rng.random() < 0.35 else atom


def _layered_rules(rng, count: int) -> list:
    """Rule triples whose bodies only use atoms below the head's atom, so
    argument generation terminates."""
    rules = {}
    while len(rules) < count:
        level = rng.randrange(len(ATOMS))
        head = ("~" if rng.random() < 0.35 else "") + ATOMS[level]
        if level == 0 or rng.random() < 0.25:
            body = frozenset()
        else:
            body = frozenset(_literal(rng, level)
                             for _ in range(rng.randint(1, min(2, level))))
        kind = "strict" if rng.random() < 0.3 else "defeasible"
        rules.setdefault((body, head, kind), None)
    return list(rules)


def _rule_key(rule) -> tuple:
    return (sorted(rule[0]), rule[1], rule[2])


def _rule_load(arg) -> frozenset:
    return frozenset(p.rule for p in arg.parts.values() if p.rule is not None)


# The implicative abstraction of a framework has one uncertain argument per
# argument that depends on the uncertain part.  Up to this width the library
# answers completions_dep by a 2^n dependency scan, above it (the translation
# targets being implicative) by Horn closure; the rul_wide stratum keeps the
# second path in every cycle through the strata.
SCAN_WIDTH = 14


def _make_structured(uarg, rng, kind, k):
    """A rule- or premise-incomplete framework with k uncertain elements
    whose maximal completion has 10..24 arguments, of which 1..24 depend
    on the uncertain part; for ``rul_wide`` more than SCAN_WIDTH do."""
    premise_side = kind in ("prem", "c09")
    while True:
        rules = _layered_rules(rng, rng.randint(max(8, k), 16))
        if premise_side:
            kb = rng.sample(LITERALS, k + rng.randint(0, 2))
        else:
            kb = rng.sample(LITERALS, rng.randint(1, 4))
        if kind == "c09":  # an untidy framework: a premise is also the
            head = rng.choice(kb)  # head of a premiseless rule
            rules.append((frozenset(), head, rng.choice(("strict",
                                                         "defeasible"))))
            rules = list(dict.fromkeys(rules))
        n_axioms = rng.randint(0, min(2, len(kb) - 1))
        axioms, premises = kb[:n_axioms], kb[n_axioms:]
        try:
            args = oracles.arguments(rules, kb, limit=24)
        except OverflowError:
            continue
        if len(args) < 10:
            continue
        if premise_side:
            uncertain = set(rng.sample(sorted(kb), k))
            loaded = [a for a in args.values() if a.premises & uncertain]
        else:
            uncertain = set(rng.sample(sorted(rules, key=_rule_key), k))
            loaded = [a for a in args.values() if _rule_load(a) & uncertain]
        if not loaded or kind == "rul_wide" and len(loaded) <= SCAN_WIDTH:
            continue
        break
    rule_of = {r: uarg.Rule(r[0], r[1], r[2]) for r in rules}
    naming = {rule_of[r]: rng.choice(LITERALS) for r in rules
              if r[2] == "defeasible" and rng.random() < 0.3}
    theory = uarg.make_theory(rules=rule_of.values(), naming=naming,
                              axioms=axioms, premises=premises,
                              close_negation=True)
    texts = sorted(args)
    preferences = frozenset(tuple(rng.sample(texts, 2))
                            for _ in range(rng.randint(0, 2)))
    if premise_side:
        return kind, uarg.PremISAF(
            theory,
            uncertain_axioms=frozenset(uncertain & set(axioms)),
            uncertain_premises=frozenset(uncertain & set(premises)),
            preferences=preferences)
    return kind, uarg.RulISAF(theory, frozenset(rule_of[r] for r in uncertain),
                              preferences)


def _run_structured(uarg, item):
    kind, x = item
    if kind in ("rul", "rul_wide"):
        source = uarg.completions_rul(x)
        target, witness = uarg.rul_isaf_to_imp_arg_iaf(x)
        target_set = uarg.completions_dep(target)
    elif kind == "prem":
        source = uarg.completions_prem(x)
        target, witness = uarg.prem_isaf_to_imp_arg_iaf(x)
        target_set = uarg.completions_dep(target)
    else:  # c09: tidy, then premises become premiseless rules
        source = uarg.completions_prem(x)
        target, witness = uarg.prem_isaf_to_rul_isaf(x)
        target_set = uarg.completions_rul(target)
    ok = uarg.check_witness(source, target_set, witness)
    return ok, (source, target, target_set)


def _summary_structured(item, out):
    source, _, target_set = out
    return repr((len(source), members(source),
                 len(target_set), members(target_set)))


def _dep_triples(deps) -> list:
    out = []
    for dep in deps:
        name = type(dep).__name__
        if name == "ImplyDisj":
            out.append(("imply", dep.all_of, dep.any_of))
        elif name == "Or":
            out.append(("or", dep.any_of, frozenset()))
        else:
            out.append(("nand", dep.not_all_of, frozenset()))
    return out


def _oracle_structured(uarg, item, out):
    x = item[1]
    _, target, _ = out
    if isinstance(x, uarg.RulISAF):
        source = oracles.rul_isaf_completions(x)
    else:
        source = oracles.prem_isaf_completions(x)
    if isinstance(target, uarg.RulISAF):
        target_set = oracles.rul_isaf_completions(target)
    else:
        base = target.base
        target_set = oracles.dep_completions(
            base.fixed_args, base.uncertain_args, base.defeats,
            _dep_triples(target.deps))
    return repr((len(source), source, len(target_set), target_set))


# --- abstract_reasoning ------------------------------------------------------

def _af_text(args, defeats) -> str:
    lines = [f"arg({a})." for a in args] + [f"att({s},{t})." for s, t in defeats]
    return "".join(line + "\n" for line in lines)


def _iaf_text(fixed, uncertain, defeats, deps=()) -> str:
    lines = [f"arg({a})." for a in fixed] + [f"?arg({a})." for a in uncertain]
    lines += [f"att({s},{t})." for s, t in defeats]
    for kind, first, second in deps:
        lists = [first] + ([second] if kind == "imply" else [])
        lines.append(kind + "(" + ",".join(
            "[" + ",".join(sorted(part)) + "]" for part in lists) + ").")
    return "".join(line + "\n" for line in lines)


def _make_abstract(uarg, rng, kind, size):
    if kind == "extensions":
        names = [f"a{i}" for i in range(size)]
        defeats = _sample_edges(rng, names, rng.uniform(0.10, 0.25))
        return kind, (_af_text(names, defeats),)
    fixed = [f"f{i}" for i in range(rng.randint(1, 2))]
    uncertain = [f"u{i}" for i in range(size)]
    if kind == "dependencies":
        defeats = _sample_edges(rng, fixed + uncertain, 0.2)
        deps = []
        for _ in range(rng.randint(size // 2, size)):
            dep_kind = rng.choice(("imply", "or", "nand"))
            if dep_kind == "imply":
                first = frozenset(rng.sample(uncertain, rng.randint(1, 2)))
                second = frozenset(rng.sample(uncertain, rng.randint(1, 2)))
            else:
                first, second = frozenset(rng.sample(uncertain,
                                                     rng.randint(2, 3))), None
            deps.append((dep_kind, first, second))
        return kind, (_iaf_text(fixed, uncertain, defeats, deps), deps)
    defeats = _sample_edges(rng, fixed + uncertain, 0.3)
    completions = oracles.arg_iaf_completions(fixed, uncertain, defeats)
    chosen = [m for m in completions if rng.random() < 0.5] or [completions[0]]
    target = "".join(_af_text(*m) + "---\n" for m in chosen)
    return kind, (_iaf_text(fixed, uncertain, defeats), target, tuple(chosen))


def _run_abstract(uarg, item):
    kind, data = item
    if kind == "extensions":
        af = uarg.parse_af(data[0])
        answer = {sigma: uarg.extensions(af, sigma) for sigma in SEMANTICS}
        text = json.dumps({sigma: [sorted(e) for e in exts]
                           for sigma, exts in answer.items()}, sort_keys=True)
        return True, (answer, text)
    from uarg import documents
    if kind == "dependencies":
        completions = uarg.completions_dep(uarg.parse_iaf(data[0]))
        return True, (completions, documents.serialize_completion_set(
            completions))
    iaf = uarg.parse_iaf(data[0]).base
    target = documents.parse_completion_set(data[1])
    deps = uarg.synthesize_dependencies(iaf, target, minimize=True)
    text = uarg.serialize_iaf(uarg.DepArgIAF(iaf, deps))
    ok = uarg.completions_dep(uarg.parse_iaf(text)) == target
    return ok, (deps, text)


def _summary_abstract(item, out):
    kind = item[0]
    if kind == "extensions":
        answer = out[0]
        return repr(tuple((sigma, len(answer[sigma]),
                           tuple(sorted(tuple(sorted(e))
                                        for e in answer[sigma])))
                          for sigma in SEMANTICS))
    if kind == "dependencies":
        return repr((len(out[0]), members(out[0])))
    return out[1]


def _oracle_abstract(uarg, item, out):
    kind, data = item
    if kind == "extensions":
        af = uarg.parse_af(data[0])
        answer = {sigma: oracles.extensions(af.args, af.defeats, sigma)
                  for sigma in SEMANTICS}
        return repr(tuple((sigma, len(answer[sigma]), answer[sigma])
                          for sigma in SEMANTICS))
    base = uarg.parse_iaf(data[0]).base
    if kind == "dependencies":
        cs = oracles.dep_completions(base.fixed_args, base.uncertain_args,
                                     base.defeats, data[1])
        return repr((len(cs), cs))
    # Synthesis: the produced dependencies must cut the completions down to
    # exactly the target, and none of them may be redundant.
    deps = _dep_triples(out[0])
    target = oracles.completion_set(data[2])

    def filtered(chosen):
        return oracles.dep_completions(base.fixed_args, base.uncertain_args,
                                       base.defeats, chosen)

    if filtered(deps) != target:
        return "dependencies do not reproduce the target"
    for i in range(len(deps)):
        if filtered(deps[:i] + deps[i + 1:]) == target:
            return "a synthesized dependency is redundant"
    return out[1]


# --- equiv_search ------------------------------------------------------------

def _completion_set(uarg, cs):
    return uarg.CompletionSet(uarg.AbstractAF(args, defeats)
                              for args, defeats in cs)


def _swap_edges(rng, member):
    """The member with two defeats (a,b),(c,d) replaced by (a,d),(c,b):
    every argument keeps its in- and out-degree, so occurrence signatures
    cannot tell the sets apart.  None if no such swap exists."""
    args, defeats = member
    edges = [e for e in defeats if e[0] != e[1]]
    pairs = [(e, f) for e in edges for f in edges
             if e < f and len({e[0], e[1], f[0], f[1]}) == 4
             and (e[0], f[1]) not in defeats and (f[0], e[1]) not in defeats]
    if not pairs:
        return None
    (a, b), (c, d) = rng.choice(pairs)
    swapped = set(defeats) - {(a, b), (c, d)} | {(a, d), (c, b)}
    return (args, tuple(sorted(swapped)))


def _perturb(rng, cs):
    """Swap two defeats in one member; failing that, toggle one defeat in a
    member that is not the largest."""
    cs = list(cs)
    order = list(range(len(cs)))
    rng.shuffle(order)
    for i in order:
        swapped = _swap_edges(rng, cs[i])
        if swapped is not None:
            cs[i] = swapped
            return oracles.completion_set(cs)
    largest = max(len(args) for args, _ in cs)
    i = rng.choice([j for j in order if len(cs[j][0]) < largest
                    and cs[j][0]])
    args, defeats = cs[i]
    edge = (rng.choice(args), rng.choice(args))
    cs[i] = (args, tuple(sorted(set(defeats) ^ {edge})))
    return oracles.completion_set(cs)


def _make_equiv(uarg, rng, kind, n):
    names = [f"v{i}" for i in range(n)]
    if kind in ("relabelled", "near_miss"):
        uncertain = rng.sample(names, 4 + n % 4)
        defeats = _sample_edges(rng, names, 0.2)
    else:
        uncertain = rng.sample(names, rng.randint(1, n - 1))
        defeats = _sample_edges(rng, names, 0.35)
    fixed = [a for a in names if a not in uncertain]
    source = oracles.arg_iaf_completions(fixed, uncertain, defeats)
    fresh = [f"w{i}" for i in range(n)]
    rng.shuffle(fresh)
    rename = dict(zip(names, fresh))
    target = oracles.arg_iaf_completions(
        [rename[a] for a in fixed], [rename[a] for a in uncertain],
        [(rename[s], rename[t]) for s, t in defeats])
    if kind in ("near_miss", "negcert_perturbed"):
        target = _perturb(rng, target)
    return kind, n, (source, target), _completion_set(uarg, source), \
        _completion_set(uarg, target)


def _run_equiv(uarg, item):
    kind, n, _, source, target = item
    if kind.startswith("negcert"):
        verdict = uarg.no_equivalent_arg_iaf(target, n)
        # a relabelled completion set has an equivalent framework
        return kind != "negcert_relabelled" or not verdict, verdict
    result = uarg.equivalent(source, target)
    if result.equivalent:
        ok = uarg.check_witness(source, target, result.witness)
    else:
        ok = kind != "relabelled"
    return ok, result.verdict


def _summary_equiv(item, out):
    kind, _, (source, target), _, _ = item
    return repr((kind, len(source), len(target), str(out)))


def _oracle_equiv(uarg, item, out):
    kind, n, (source, target), _, _ = item
    if kind.startswith("negcert"):
        union = {a for args, _ in target for a in args}
        answer = not (len(union) <= n
                      and oracles.is_arg_iaf_completion_set(target))
    else:
        answer = "equivalent" if oracles.equivalent(source, target) \
            else "not_equivalent"
    return repr((kind, len(source), len(target), str(answer)))


# --- registry -----------------------------------------------------------------

def _abstract_strata() -> tuple:
    out = []
    for step in range(7):
        out += [("extensions", 12 + step), ("dependencies", 10 + step % 5),
                ("synthesis", 4 + step % 3)]
    return tuple(out)


def _equiv_strata() -> tuple:
    # Perturbed negative certifications at n=5 are the slowest items, and
    # their cost is bimodal.  Two of the 28 strata (7% of the items) keep
    # the 90th percentile below them, inside the tight cluster of
    # relabelled pairs at n=15, instead of between their two modes.
    out = []
    for step in range(7):
        n = 5 if step in (2, 5) else 4
        out += [("relabelled", 10 + step), ("near_miss", 10 + step),
                ("negcert_relabelled", n), ("negcert_perturbed", n)]
    return tuple(out)


WORKLOADS = {w.name: w for w in (
    Workload("encode_sweep", 10_000_000,
             tuple(("encode", n) for n in range(1, 6)),
             per_stratum=20_000, warmup=25, trace_items=1000,
             make=_make_encode, run=_run_encode, summary=_summary_encode,
             oracle=_oracle_encode),
    Workload("structured_wide", 20_000_000,
             tuple([("rul", k) for k in (6, 7)]
                   + [("rul_wide", 7)]
                   + [("rul", k) for k in (8, 9, 10)]
                   + [("prem", k) for k in range(6, 10)]
                   + [("c09", k) for k in range(6, 9)]),
             per_stratum=240, warmup=1, trace_items=24,
             make=_make_structured, run=_run_structured,
             summary=_summary_structured, oracle=_oracle_structured),
    Workload("abstract_reasoning", 30_000_000, _abstract_strata(),
             per_stratum=240, warmup=3, trace_items=42,
             make=_make_abstract, run=_run_abstract,
             summary=_summary_abstract, oracle=_oracle_abstract),
    Workload("equiv_search", 40_000_000, _equiv_strata(),
             per_stratum=300, warmup=4, trace_items=56,
             make=_make_equiv, run=_run_equiv, summary=_summary_equiv,
             oracle=_oracle_equiv),
)}
