"""Independent brute-force oracles.

Everything here is definition-literal and set-based, deliberately avoiding
the package's bitmask kernels and search machinery so the two routes stay
independent checks of each other.  The exceptions are kept slow paths:
``recheck_equivalent`` follows the search order of ``uarg.equivalent``, with
the tuple-valued occurrence signatures of ``tuple_signatures`` that the
library's integer codes must order and group the same way, so that it can
check the search counters too,
``enumerated_no_equivalent_arg_iaf`` calls ``uarg.equivalent``, and
``scanned_dependency_masks`` and ``fixpoint_horn_closed_masks`` take the
(pos, neg) clauses of ``uarg.kernels.dependency_masks`` and
``uarg.incomplete._horn_closed_masks`` and return the same mask lists,
``dict_induced_completions`` and ``table_induced_completions`` take the
arguments of ``uarg.incomplete._induced_completions`` (a graph and a
load, as the completion model ``uarg.incomplete._Model`` holds them, and
any masks), the second through ``uarg.incomplete._or_images`` one mask
at a time, ``digit_member_order`` sorts keys as
``uarg.incomplete._member_order`` does, by one digit string per key,
``regenerated_completion_items`` regenerates each completion of a
structured framework from its own theory, and returns what
``uarg.isaf._completion_items`` reads from the load model, under the
uncertainty bound that ``uarg.incomplete._masks`` checks, restated here,
``pairwise_defeat_coherence`` compares every pair of those regenerated
completions, ``minimized_by_completions``
calls ``uarg.completions_dep``, ``covering_imp_arg_iaf`` builds the
implicative abstraction from the public structured-layer functions,
``applied_check_witness`` relabels through ``uarg.Witness.apply``, and
``charwise_is_valid_argument_id`` and ``charwise_is_valid_formula`` test
one character at a time, ``per_member_serialize_completion_set`` selects
each member's lines of the union graph through its own decoder of the
keys, ``gone_selectors`` over ``uarg.incomplete._or_images``, rather than
the library's ``_entry_columns``, ``linewise_parse_af`` and
``linewise_parse_iaf`` take one line at a time apart with string methods
and build through the public constructors,
``sectioned_parse_completion_set`` reads each section of a document with
``linewise_parse_af``, ``sorted_completion_set`` keys members through
``uarg.incomplete._key_coder``, and ``walked_premises``,
``walked_sub_arguments``, ``walked_rules_used``,
``walked_argument_of_theory`` and ``leaf_built_attacks`` walk the
inference tree of a ``uarg.StructuredArgument`` that the library builds,
``definitional_defeats`` filters those attacks by preference,
and ``generated_tidy`` and ``two_pass_prem_isaf_to_rul_isaf`` tidy by
generating the tidied theory's arguments and convert premises to rules by
a second rewrite over them, composing the two witnesses.

Some definitions are stated here only, because no library path needs
them: ``satisfies`` reads each dependency kind in turn, where the library
reads only the kind's ``clause``, and ``is_premise``, ``is_premiseless``
and ``is_simple`` are the argument predicates of ASPIC+ (Modgil & Prakken,
"The ASPIC+ framework for structured argumentation: a tutorial", Argument
& Computation 5, 2014), read from the argument's tree.
"""

from dataclasses import replace
from itertools import chain, combinations, compress, permutations

from uarg import (
    DEFAULT_LIMITS,
    DEFEASIBLE,
    STRICT,
    AbstractAF,
    ArgIAF,
    AttackInstance,
    CompletionSet,
    DepArgIAF,
    ImplyDisj,
    Nand,
    Or,
    PremISAF,
    Rule,
    RulISAF,
    SAF,
    StructuredArgument,
    Witness,
    associated_af,
    completions_arg_iaf,
    completions_dep,
    equivalent,
    generate_arguments,
    inference_argument,
    is_tidy,
    premise_argument,
    saf_max,
    uncertain_premises_of,
    uncertain_rules_of,
)
from uarg.equivalence import EQUIVALENT, NOT_EQUIVALENT, EquivalenceResult
from uarg.core import is_valid_argument_id
from uarg.errors import (
    DomainMismatchError,
    InvalidTheoryError,
    ParseError,
    SearchBoundExceededError,
    UncertaintyBoundExceededError,
    UndeclaredArgumentError,
)
from uarg.incomplete import (
    _entry_columns,
    _key_coder,
    _or_images,
    serialize_dependency,
)
from uarg.isaf import _model
from uarg.translate import PRIME_SUFFIX


def powerset(items):
    items = list(items)
    return chain.from_iterable(combinations(items, k)
                               for k in range(len(items) + 1))


def naive_conflict_free(af: AbstractAF, ext: frozenset) -> bool:
    return not any(s in ext and t in ext for s, t in af.defeats)


def naive_admissible(af: AbstractAF, ext: frozenset) -> bool:
    if not naive_conflict_free(af, ext):
        return False
    for s, t in af.defeats:
        if t in ext:
            if not any((z, s) in af.defeat_set for z in ext):
                return False
    return True


def naive_extensions(af: AbstractAF, sigma: str) -> set[frozenset]:
    """Definition-literal semantics: grounded as the subset-least complete
    extension, preferred as subset-maximal admissible sets."""
    subsets = [frozenset(e) for e in powerset(af.args)]
    admissible = {e for e in subsets if naive_admissible(af, e)}
    if sigma == "admissible":
        return admissible
    if sigma == "stable":
        out = set()
        for e in subsets:
            if not naive_conflict_free(af, e):
                continue
            attacked = {t for s, t in af.defeats if s in e}
            if set(af.args) - e <= attacked:
                out.add(e)
        return out
    complete = set()
    for e in admissible:
        attacked = {t for s, t in af.defeats if s in e}
        defended = {a for a in af.args
                    if all(s in attacked for s, t in af.defeats if t == a)}
        if defended <= e:
            complete.add(e)
    if sigma == "complete":
        return complete
    if sigma == "grounded":
        return {e for e in complete if all(e <= other for other in complete)}
    if sigma == "preferred":
        return {e for e in admissible
                if not any(e < other for other in admissible)}
    raise ValueError(sigma)


def naive_completions(fixed, uncertain, defeats) -> set[tuple]:
    """Completions as (frozenset args, frozenset defeats) pairs."""
    fixed = frozenset(fixed)
    out = set()
    for chosen in powerset(uncertain):
        args = fixed | set(chosen)
        out.add((frozenset(args),
                 frozenset((s, t) for s, t in defeats
                           if s in args and t in args)))
    return out


def satisfies(args_present, dep) -> bool:
    """Whether the arguments present satisfy ``dep``, by the definition of
    each dependency kind in turn rather than through its clause."""
    present = frozenset(args_present)
    if isinstance(dep, ImplyDisj):
        return not dep.all_of <= present or bool(dep.any_of & present)
    if isinstance(dep, Or):
        return bool(dep.any_of & present)
    if isinstance(dep, Nand):
        return not dep.not_all_of <= present
    raise TypeError(f"unknown dependency type: {dep!r}")


def naive_dep_completions(fixed, uncertain, defeats, deps) -> set[tuple]:
    fixed = frozenset(fixed)
    out = set()
    for chosen in powerset(uncertain):
        args = fixed | set(chosen)
        if all(satisfies(args, dep) for dep in deps):
            out.add((frozenset(args),
                     frozenset((s, t) for s, t in defeats
                               if s in args and t in args)))
    return out


def as_pairs(completion_set) -> set[tuple]:
    return {(af.arg_set, af.defeat_set) for af in completion_set}


def brute_force_equivalent(source, target) -> dict | None:
    """Try every bijection between the argument unions; return a witnessing
    mapping or None."""
    src = sorted(source.argument_union())
    tgt = sorted(target.argument_union())
    if len(src) != len(tgt) or len(source) != len(target):
        return None
    source_pairs = as_pairs(source)
    for image in permutations(tgt):
        mapping = dict(zip(src, image))
        mapped = {(frozenset(mapping[a] for a in args),
                   frozenset((mapping[s], mapping[t]) for s, t in defs))
                  for args, defs in source_pairs}
        if mapped == as_pairs(target):
            return mapping
    return None


def applied_check_witness(source, target, witness) -> bool:
    """check_witness by its definition: a bijection from the source union
    onto the target union whose relabelled source set is the target."""
    if witness.domain != source.argument_union():
        raise DomainMismatchError(
            "witness domain differs from the union of source arguments")
    if witness.codomain != target.argument_union():
        raise DomainMismatchError(
            "witness codomain differs from the union of target arguments")
    if not witness.is_bijective:
        return False
    return witness.apply(source) == target


def charwise_is_valid_argument_id(name) -> bool:
    """Non-empty, printable, and no whitespace or any of ``(),.``."""
    if not name or not name.isprintable():
        return False
    return not any(ch.isspace() or ch in "(),." for ch in name)


def charwise_is_valid_formula(token) -> bool:
    """A string, non-empty, printable, and no whitespace or any of
    ``(),.[];``."""
    if not isinstance(token, str) or not token or not token.isprintable():
        return False
    return not any(ch.isspace() or ch in "(),.[];" for ch in token)


def tuple_signatures(completions) -> dict[str, tuple]:
    """Per-argument occurrence signature as a sorted tuple of
    ``((|args|, |defeats|), in-degree, out-degree, self-defeats)`` entries,
    one per member holding the argument."""
    sigs: dict[str, list] = {}
    for af in completions:
        shape = (len(af.args), len(af.defeats))
        indeg: dict[str, int] = dict.fromkeys(af.args, 0)
        outdeg: dict[str, int] = dict.fromkeys(af.args, 0)
        selfdef: dict[str, int] = dict.fromkeys(af.args, 0)
        for s, t in af.defeats:
            outdeg[s] += 1
            indeg[t] += 1
            if s == t:
                selfdef[s] += 1
        for a in af.args:
            sigs.setdefault(a, []).append(
                (shape, indeg[a], outdeg[a], selfdef[a]))
    return {a: tuple(sorted(entries)) for a, entries in sigs.items()}


def members_in_key_order(completions) -> list:
    """The members in the order the set's keys iterate, which is how
    ``uarg.equivalence._KeyTables`` numbers them."""
    key = _key_coder(completions._graph)
    by_key = {key(af.args, af.defeats): af for af in completions}
    return [by_key[k] for k in completions._keys]


def member_masks(completions) -> tuple[dict[str, int], dict[tuple, int]]:
    """For each argument and each defeat, the members holding it, as a
    bitmask over member positions."""
    has: dict[str, int] = {}
    defeats: dict[tuple, int] = {}
    for i, af in enumerate(completions):
        for a in af.args:
            has[a] = has.get(a, 0) | 1 << i
        for d in af.defeats:
            defeats[d] = defeats.get(d, 0) | 1 << i
    return has, defeats


def recheck_equivalent(source, target, limits=DEFAULT_LIMITS):
    """The equivalence search that re-checks every source member against
    every target member at each node, from scratch, ordered by
    ``tuple_signatures``.  Same order and same counting as
    ``uarg.equivalent``, so verdict, witness, nodes and prunes must all
    agree with it."""
    src_union = source.argument_union()
    tgt_union = target.argument_union()
    if max(len(src_union), len(tgt_union)) > limits.max_equiv_args:
        raise SearchBoundExceededError(
            f"argument union exceeds max_equiv_args={limits.max_equiv_args}")
    if len(source) != len(target) or len(src_union) != len(tgt_union):
        return EquivalenceResult(NOT_EQUIVALENT, None)
    shapes = sorted((len(af.args), len(af.defeats)) for af in source)
    if shapes != sorted((len(af.args), len(af.defeats)) for af in target):
        return EquivalenceResult(NOT_EQUIVALENT, None)

    src_sig = tuple_signatures(source)
    tgt_sig = tuple_signatures(target)
    tgt_by_sig: dict[tuple, list[str]] = {}
    for name in sorted(tgt_union):
        tgt_by_sig.setdefault(tgt_sig[name], []).append(name)
    src_by_sig: dict[tuple, list[str]] = {}
    for name in sorted(src_union):
        src_by_sig.setdefault(src_sig[name], []).append(name)
    if {sig: len(v) for sig, v in src_by_sig.items()} != \
            {sig: len(v) for sig, v in tgt_by_sig.items()}:
        return EquivalenceResult(NOT_EQUIVALENT, None)

    order = sorted(src_union, key=lambda a: (src_sig[a], a))
    target_afs = list(target)
    assignment: dict[str, str] = {}
    used: set[str] = set()
    stats = {"nodes": 0, "prunes": 0}

    def partial_consistent() -> bool:
        assigned = set(assignment)
        mapped = set(assignment.values())
        for af in source:
            pres = [a for a in af.args if a in assigned]
            img = {assignment[a] for a in pres}
            img_edges = {(assignment[s], assignment[t]) for s, t in af.defeats
                         if s in assigned and t in assigned}
            shape = (len(af.args), len(af.defeats))
            for caf in target_afs:
                if (len(caf.args), len(caf.defeats)) != shape:
                    continue
                if caf.arg_set & mapped != img:
                    continue
                if {(s, t) for s, t in caf.defeats
                        if s in mapped and t in mapped} == img_edges:
                    break
            else:
                return False
        return True

    def search(pos: int) -> Witness | None:
        if pos == len(order):
            witness = Witness(assignment)
            if witness.apply(source) == target:
                return witness
            stats["prunes"] += 1
            return None
        name = order[pos]
        for candidate in tgt_by_sig.get(src_sig[name], ()):
            if candidate in used:
                continue
            stats["nodes"] += 1
            assignment[name] = candidate
            used.add(candidate)
            if partial_consistent():
                found = search(pos + 1)
                if found is not None:
                    return found
            else:
                stats["prunes"] += 1
            del assignment[name]
            used.discard(candidate)
        return None

    witness = search(0)
    if witness is None:
        return EquivalenceResult(NOT_EQUIVALENT, None,
                                 stats["nodes"], stats["prunes"])
    return EquivalenceResult(EQUIVALENT, witness,
                             stats["nodes"], stats["prunes"])


#: The enumeration visits up to max_args! relabellings, each with every
#: choice of uncertain arguments, so it refuses larger frameworks.
ENUMERATION_MAX_ARGS = 6


def enumerated_no_equivalent_arg_iaf(target, max_args,
                                     limits=DEFAULT_LIMITS) -> bool:
    """Negative certification by enumeration: every relabelling of the
    target's one full member onto the target's names, with every choice
    of uncertain arguments, is checked with the equivalence search."""
    if max_args > ENUMERATION_MAX_ARGS:
        raise SearchBoundExceededError(
            f"max_args={max_args} exceeds ENUMERATION_MAX_ARGS="
            f"{ENUMERATION_MAX_ARGS}")
    if len(target) == 0:
        return True  # completion sets are never empty
    union = sorted(target.argument_union())
    n = len(union)
    if n > max_args:
        return True
    count = len(target)
    if count & (count - 1):
        return True  # completion counts of plain frameworks are powers of two
    k = count.bit_length() - 1
    if k > n:
        return True
    max_members = [af for af in target if len(af.args) == n]
    if len(max_members) != 1:
        return True
    max_member = max_members[0]

    seen: set[tuple] = set()
    for perm in permutations(range(n)):
        relabel = {max_member.args[i]: union[perm[i]] for i in range(n)}
        defeats = tuple(sorted((relabel[s], relabel[t])
                               for s, t in max_member.defeats))
        if defeats in seen:
            continue
        seen.add(defeats)
        for uncertain in combinations(union, k):
            candidate = ArgIAF(set(union) - set(uncertain), uncertain, defeats)
            completions = completions_arg_iaf(candidate, limits)
            if equivalent(completions, target, limits).equivalent:
                return False
    return True


def scanned_dependency_masks(n: int, clauses: list[tuple[int, int]]
                             ) -> list[int]:
    """Every one of the 2^n masks tested against every clause (pos, neg),
    false iff the mask holds all of pos and none of neg, in ascending
    order."""
    out = []
    for mask in range(1 << n):
        for pos, neg in clauses:
            if (mask & pos) == pos and not (mask & neg):
                break
        else:
            out.append(mask)
    return out


def fixpoint_horn_closed_masks(n: int, rules: list[tuple[int, int]],
                               max_uncertain: int) -> list[int]:
    """Closed sets of definite Horn rules by re-closing, from scratch with
    full passes over the rules, every closed set plus every free bit; a
    seen set removes repeats.  At most 2^max_uncertain subsets are
    enumerated."""
    cap = 1 << max_uncertain

    def close(mask: int) -> int:
        changed = True
        while changed:
            changed = False
            for xmask, ymask in rules:
                if mask & xmask == xmask and mask & ymask != ymask:
                    mask |= ymask
                    changed = True
        return mask

    start = close(0)
    seen = {start}
    stack = [start]
    full = (1 << n) - 1
    while stack:
        mask = stack.pop()
        free = full & ~mask
        while free:
            low = free & -free
            free ^= low
            closed = close(mask | low)
            if closed not in seen:
                seen.add(closed)
                if len(seen) > cap:
                    raise UncertaintyBoundExceededError(
                        f"more than 2^{max_uncertain} = {cap} dependency-"
                        f"satisfying subsets (bound {max_uncertain}); raise "
                        "it with --max-uncertain or UARG_MAX_UNCERTAIN")
                stack.append(closed)
    return sorted(seen)


def dict_induced_completions(full_af: AbstractAF, load: dict[str, int],
                             masks) -> CompletionSet:
    """One restriction of ``full_af`` per mask, each argument and defeat
    filtered by load, deduplicated and sorted by
    ``sorted_completion_set``."""
    args = [(a, load[a]) for a in full_af.args]
    defeats = [(d, load[d[0]] | load[d[1]]) for d in full_af.defeats]
    graphs: dict[tuple[str, ...], AbstractAF] = {}
    for mask in masks:
        kept = tuple(a for a, need in args if not need & ~mask)
        if kept not in graphs:
            graphs[kept] = AbstractAF._canonical(
                kept, tuple(d for d, need in defeats if not need & ~mask))
    return sorted_completion_set(graphs.values())


def table_induced_completions(full_af: AbstractAF, load: dict[str, int],
                              masks) -> CompletionSet:
    """``uarg.incomplete._induced_completions`` one mask at a time:
    ``drop[b]`` holds the arguments whose load has bit b, a mask drops
    the union of ``drop[b]`` over its clear bits (``_or_images``), and
    when no mask keeps every argument the union graph is rescanned from
    the argument masks' entry columns and the kept arguments' bits
    renumbered."""
    args = full_af.args
    masks = list(masks)
    drop: dict[int, int] = {}
    for i, a in enumerate(args):
        need = load[a]
        while need:
            low = need & -need
            need ^= low
            drop[low] = drop.get(low, 0) | 1 << i
    bits = sum(drop)
    dropped = set(_or_images(
        [drop.get(1 << b, 0) for b in range(bits.bit_length())],
        [bits & ~m for m in masks]))
    full = (1 << len(args)) - 1
    kept_masks = frozenset(map(full.__xor__, dropped))
    if full not in kept_masks:
        column = _entry_columns(full_af, kept_masks)
        kept = tuple(compress(args, column))
        if len(kept) < len(args):  # renumber the bits of the kept args
            place = dict.fromkeys(args, 0)
            place.update((a, 1 << k) for k, a in enumerate(kept))
            kept_masks = _or_images([place[a] for a in args], kept_masks)
        full_af = AbstractAF._canonical(kept, tuple(
            compress(full_af.defeats, column[len(args):])))
    return CompletionSet._keyed(full_af, kept_masks)


_DIGITS = bytes.maketrans(b"\0\1", b"01")


def digit_member_order(graph: AbstractAF, keys) -> tuple[int, ...]:
    """The distinct ``keys`` over ``graph`` in member order, each sorted
    by a digit string: its argument mask's binary digits from entry 0 up
    to its last kept entry (1 kept, 0 dropped), behind a constant 1 that
    keeps the empty mask first and before a closing 2, in descending
    order.  A kept entry comes before a dropped one, and a mask that
    closes before one that goes on, just as a tuple that ends sorts
    first.  Keys with a lack bit append the digits of the defeats held,
    read entry-major from the defeats' columns."""
    n = len(graph.args)
    full = (1 << n) - 1
    keys = [*keys]
    if max(keys, default=0) > full:  # some key has a lack bit
        count = len(keys)
        held = b"".join([column.to_bytes(count, "little") for column
                         in _entry_columns(graph, keys)[n:]]
                        ).translate(_DIGITS).decode()
        digits = [bin((k & full) << 1 | 1)[:1:-1] + "21" +
                  held[r::count].rstrip("0") + "2"
                  for r, k in enumerate(keys)]
    else:
        digits = [bin(k << 1 | 1)[:1:-1] + "2" for k in keys]
    return tuple(map(keys.__getitem__, sorted(
        range(len(keys)), key=digits.__getitem__, reverse=True)))


def regenerated_completion_items(x, limits=DEFAULT_LIMITS) -> list:
    """One (completion, generated arguments) pair per uncertainty subset,
    in subset-mask order, each generated from its own theory, with
    naming restricted to the kept rules and preferences to the generated
    arguments.  ``saf_max`` raises what the load model refuses."""
    saf_max(x, limits)
    elements = (sorted(x.uncertain_rules, key=Rule.sort_key)
                if isinstance(x, RulISAF) else sorted(x.uncertain_knowledge))
    if len(elements) > limits.max_uncertain:
        raise UncertaintyBoundExceededError(
            f"{len(elements)} uncertain elements exceed the bound "
            f"{limits.max_uncertain} (2^{len(elements)} subsets); raise it "
            "with --max-uncertain or UARG_MAX_UNCERTAIN")
    items = []
    for mask in range(1 << len(elements)):
        chosen = frozenset(e for i, e in enumerate(elements) if mask >> i & 1)
        if isinstance(x, RulISAF):
            rules = x.fixed_rules | chosen
            naming = {rule: name for rule, name in x.theory.naming.items()
                      if rule in rules}
            theory = replace(x.theory, rules=frozenset(rules), naming=naming)
        else:
            theory = replace(
                x.theory,
                axioms=frozenset(x.fixed_axioms | (chosen & x.uncertain_axioms)),
                premises=frozenset(
                    x.fixed_premises | (chosen & x.uncertain_premises)))
        arguments = generate_arguments(theory, limits)
        texts = {arg.text for arg in arguments}
        preferences = frozenset((a, b) for a, b in x.preferences
                                if a in texts and b in texts)
        items.append((SAF(theory, preferences), arguments))
    return items


def pairwise_defeat_coherence(x, limits=DEFAULT_LIMITS) -> bool:
    """Every two regenerated completions agree on the defeats between the
    arguments they share."""
    afs = [associated_af(saf, arguments, limits)
           for saf, arguments in regenerated_completion_items(x, limits)]
    for i, left in enumerate(afs):
        for right in afs[i + 1:]:
            shared = left.arg_set & right.arg_set
            if ({d for d in left.defeats if set(d) <= shared}
                    != {d for d in right.defeats if set(d) <= shared}):
                return False
    return True


def minimized_by_completions(iaf: ArgIAF, deps, target,
                             limits=DEFAULT_LIMITS) -> frozenset:
    """Greedy minimization in the order of the dependencies' lines: a
    dependency is dropped when the framework without it still has exactly
    the target's completions, built as a whole completion set for every
    trial."""
    kept = sorted(deps, key=serialize_dependency)
    for dep in list(kept):
        trial = [d for d in kept if d != dep]
        if completions_dep(DepArgIAF(iaf, trial), limits) == target:
            kept = trial
    return frozenset(kept)


def covering_imp_arg_iaf(x, limits=DEFAULT_LIMITS) -> DepArgIAF:
    """Implicative abstraction of a rule- or premise-incomplete framework
    with one dependency per covering antecedent: every non-empty set of
    uncertain arguments whose uncertain rules or premises include all of
    those of the argument it implies.  The 2^n form that the library's
    subset-minimal antecedents must entail."""
    saf = saf_max(x, limits)
    arguments = generate_arguments(saf.theory, limits)
    af = associated_af(saf, arguments, limits)
    load_of = (uncertain_rules_of if isinstance(x, RulISAF)
               else uncertain_premises_of)
    load = {arg.text: load_of(x, arg) for arg in arguments}
    uncertain = [a for a in af.args if load[a]]
    deps = []
    for implied in uncertain:
        for antecedent in powerset(uncertain):
            carried = set().union(*(load[a] for a in antecedent))
            if antecedent and load[implied] <= carried:
                deps.append(ImplyDisj(antecedent, (implied,)))
    fixed = [a for a in af.args if not load[a]]
    return DepArgIAF(ArgIAF(fixed, uncertain, af.defeats), deps)


def gone_selectors(completions: CompletionSet):
    """Per key, in member order, one byte per entry of the graph's
    ``args + defeats``: 1 where the member holds it, else 0.  Each entry
    a member lacks takes its byte away, and each argument lacked takes
    its defeats' bytes along; a lack bit takes away the byte of its
    defeat alone."""
    graph = completions._graph
    entries = graph.args + graph.defeats
    width = len(entries)
    # gone[x]: the bytes a member loses without entry x (key bit i for
    # entry i)
    gone = {x: 1 << 8 * (width - 1 - i) for i, x in enumerate(entries)}
    for s, t in graph.defeats:
        gone[s] |= gone[s, t]
        gone[t] |= gone[s, t]
    every = int.from_bytes(b"\x01" * width, "big")
    full = (1 << len(graph.args)) - 1  # flips arguments to dropped
    return ((every ^ lost).to_bytes(width, "big")
            for lost in _or_images([*gone.values()],
                                   [full ^ k for k in
                                    completions._ordered().keys]))


def per_member_serialize_completion_set(completions: CompletionSet) -> str:
    """The completion-set document one member at a time: every arg(..)
    and att(..) line of the union graph is formatted once, and each
    member's key selects its lines, so no member is built."""
    graph = completions._graph
    lines = [f"arg({a}).\n" for a in graph.args]
    lines += [f"att({s},{t}).\n" for s, t in graph.defeats]
    parts: list[str] = []
    for keep in gone_selectors(completions):
        parts += compress(lines, keep)
        parts.append("---\n")
    return "".join(parts)


def _linewise_lines(text: str, kinds: tuple[str, ...], first_line: int = 1):
    """(line, column, kind, body) for each kind(body). line of ``text``,
    skipping blank lines and % comments; a ParseError for any other line
    or a kind outside ``kinds``.  Lines are numbered from first_line and
    columns point at the first character that is not whitespace."""
    for lineno, line in enumerate(text.splitlines(), start=first_line):
        stripped = line.strip()
        if not stripped or stripped.startswith("%"):
            continue
        column = line.index(stripped[0]) + 1
        kind, paren, rest = stripped.partition("(")
        if not paren or kind not in kinds:
            raise ParseError(f"unrecognized line: {stripped!r}", lineno, column)
        if not rest.endswith(")."):
            raise ParseError(f"line does not end with ').': {stripped!r}",
                             lineno, column)
        yield lineno, column, kind, rest[:-2]


def _linewise_split_ids(body: str, lineno: int, column: int) -> list[str]:
    """The comma-separated identifiers of ``body``, stripped of the
    whitespace around them; a ParseError if one is not valid."""
    names = [name.strip() for name in body.split(",")]
    if not all(map(is_valid_argument_id, names)):
        raise ParseError(f"invalid identifier in {body!r}", lineno, column)
    return names


def _linewise_graph_line(kind: str, body: str, lineno: int,
                         column: int) -> list[str]:
    """The identifier of an arg-like line, taken verbatim, or the two
    names of an att line."""
    if kind != "att":
        if not is_valid_argument_id(body):
            raise ParseError(f"invalid identifier {body!r}", lineno, column)
        return [body]
    names = _linewise_split_ids(body, lineno, column)
    if len(names) != 2:
        raise ParseError(f"att needs two identifiers: {body!r}",
                         lineno, column)
    return names


def _linewise_defeats(atts, declared) -> set[tuple[str, str]]:
    for lineno, s, t in atts:
        for name in (s, t):
            if name not in declared:
                raise UndeclaredArgumentError(f"line {lineno}: att references "
                                              f"undeclared argument {name!r}")
    return {(s, t) for _, s, t in atts}


def linewise_parse_af(text: str, first_line: int = 1) -> AbstractAF:
    """``uarg.parse_af`` one line at a time: every line is taken apart
    with string methods and checked on its own, and the framework is
    built through the public constructor."""
    args: set[str] = set()
    atts: list[tuple[int, str, str]] = []
    for lineno, column, kind, body in _linewise_lines(text, ("arg", "att"),
                                                      first_line):
        names = _linewise_graph_line(kind, body, lineno, column)
        if kind == "arg":
            args.add(names[0])
        else:
            atts.append((lineno, *names))
    return AbstractAF(args, _linewise_defeats(atts, args))


def linewise_parse_iaf(text: str) -> DepArgIAF:
    """``uarg.parse_iaf`` one line at a time, in the order of its checks:
    every line's kind and every arg and att line as it comes, then an
    argument declared both fixed and uncertain, undeclared att endpoints,
    the dependency lines, and last their arguments, line by line."""
    fixed: set[str] = set()
    uncertain: set[str] = set()
    atts: list[tuple[int, str, str]] = []
    dep_lines: list[tuple[int, int, str, str]] = []
    clash_at = None  # the first line re-declaring an argument
    for lineno, column, kind, body in _linewise_lines(
            text, ("arg", "?arg", "att", "imply", "or", "nand")):
        if kind in ("imply", "or", "nand"):
            dep_lines.append((lineno, column, kind, body))
            continue
        names = _linewise_graph_line(kind, body, lineno, column)
        if kind == "att":
            atts.append((lineno, *names))
            continue
        same, other = ((uncertain, fixed) if kind == "?arg"
                       else (fixed, uncertain))
        if names[0] in other and clash_at is None:
            clash_at = (lineno, column)
        same.add(names[0])

    if clash_at:
        raise ParseError(
            "arguments declared both fixed and uncertain: "
            f"{sorted(fixed & uncertain)}", *clash_at)
    base = ArgIAF(fixed, uncertain, _linewise_defeats(atts, fixed | uncertain))

    deps = []
    for lineno, column, kind, body in dep_lines:
        if not body.startswith("[") or not body.endswith("]"):
            raise ParseError(
                f"{kind} arguments must be bracketed lists: {body!r}",
                lineno, column)
        if kind == "imply":
            mark = "],,[" if "],,[" in body else "],["
            lists = body[1:-1].split(mark)
            if len(lists) != 2:
                raise ParseError("imply needs exactly two lists", lineno,
                                 column)
            lists = [_linewise_split_ids(part, lineno, column)
                     for part in lists]
            deps.append((lineno, ImplyDisj(*lists)))
        else:
            items = _linewise_split_ids(body[1:-1], lineno, column)
            deps.append((lineno, Or(items) if kind == "or" else Nand(items)))
    for lineno, dep in deps:
        stray = set().union(*dep.clause()) - uncertain
        if stray:
            raise UndeclaredArgumentError(
                f"line {lineno}: dependency mentions arguments that are not "
                f"uncertain: {sorted(stray)}")
    return DepArgIAF(base, (dep for _, dep in deps))


def sectioned_parse_completion_set(text: str) -> CompletionSet:
    """The document cut at its ``---`` lines, each section read with
    ``linewise_parse_af`` numbering its lines from where it starts; the
    text after the last ``---`` is a section iff it is not blank."""
    sections: list[tuple[int, str]] = []  # (first line, section text)
    current: list[str] = []
    first = 1
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.strip() == "---":
            sections.append((first, "\n".join(current)))
            current = []
            first = lineno + 1
        else:
            current.append(line)
    tail = "\n".join(current)
    if tail.strip():
        sections.append((first, tail))
    return sorted_completion_set(linewise_parse_af(section, first_line=first)
                                 for first, section in sections)


def sorted_completion_set(members) -> CompletionSet:
    """The completion set of ``members`` with no member order of the
    library's: deduplicated on (args, defeats) pairs and sorted by them,
    over the union graph taken with ``set().union``."""
    unique = {(af.args, af.defeats): af for af in members}
    ordered = tuple(unique[pair] for pair in sorted(unique))
    graph = AbstractAF._canonical(
        tuple(sorted(set().union(*(af.args for af in ordered)))),
        tuple(sorted(set().union(*(af.defeats for af in ordered)))))
    key = _key_coder(graph)
    out = object.__new__(CompletionSet)
    out._graph, out._members, out._coder = graph, ordered, None
    out._keys = frozenset(key(af.args, af.defeats) for af in ordered)
    return out


def is_premise(argument) -> bool:
    """A bare premise: a leaf of an inference tree."""
    return argument.premise is not None


def is_premiseless(argument) -> bool:
    """No leaf of the argument is a premise."""
    return not walked_premises(argument)


def is_simple(argument) -> bool:
    """A bare premise, or a single empty-body rule application."""
    return is_premise(argument) or not argument.subs


def walked_premises(argument) -> frozenset[str]:
    """The premises of a structured argument: the formulas of its leaves."""
    if is_premise(argument):
        return frozenset((argument.premise,))
    out: set[str] = set()
    for sub in argument.subs:
        out.update(walked_premises(sub))
    return frozenset(out)


def walked_sub_arguments(argument) -> frozenset:
    """Sub(A): the argument and all its nested sub-arguments."""
    out = {argument}
    for sub in argument.subs:
        out.update(walked_sub_arguments(sub))
    return frozenset(out)


def walked_rules_used(argument) -> frozenset:
    return frozenset(sub.rule for sub in walked_sub_arguments(argument)
                     if sub.rule is not None)


def walked_argument_of_theory(theory, argument) -> bool:
    """Every leaf premise is in the knowledge base and every rule applied
    is a rule of the theory."""
    if is_premise(argument):
        return argument.premise in theory.knowledge_base
    if argument.rule not in theory.rules:
        return False
    return all(walked_argument_of_theory(theory, sub)
               for sub in argument.subs)


def leaf_built_attacks(theory, attacker, attacked) -> frozenset:
    """The attack instances of attacker on attacked by definition: it
    undermines on an ordinary premise phi at a fresh premise_argument(phi),
    rebuts on the conclusion of a defeasible sub-argument, and undercuts one
    through its rule's name."""
    contrary = theory.contrary_sets()
    loci = [("undermine", premise_argument(phi), phi)
            for phi in walked_premises(attacked) if phi in theory.premises]
    for part in walked_sub_arguments(attacked):
        if part.rule is not None and not part.rule.is_strict:
            loci.append(("rebut", part, part.conc))
            name = theory.naming.get(part.rule)
            if name is not None:
                loci.append(("undercut", part, name))
    return frozenset(AttackInstance(attacker, attacked, kind, locus)
                     for kind, locus, guard in loci
                     if attacker.conc in contrary.get(guard, ()))


def definitional_defeats(saf, arguments) -> frozenset:
    """The defeats among ``arguments`` by definition: A defeats B iff some
    attack instance of A on B (``leaf_built_attacks``) is an undercut, or
    its attacker is not strictly less preferred than its locus."""
    pref = saf.preferences

    def strictly_less(a: str, b: str) -> bool:
        return (a, b) in pref and (b, a) not in pref

    return frozenset(
        (attacker, attacked) for attacker in arguments
        for attacked in arguments
        if any(attack.kind == "undercut"
               or not strictly_less(attacker.text, attack.locus.text)
               for attack in leaf_built_attacks(saf.theory, attacker,
                                                attacked)))


def _called_leaf_rewrite(arguments, leaf) -> dict[str, str]:
    """Each argument's text -> its image's text: every leaf becomes
    ``leaf(argument)``, every rule application is rebuilt over its
    rewritten sub-arguments."""
    cache: dict[str, StructuredArgument] = {}

    def rewrite(argument):
        out = cache.get(argument.text)
        if out is None:
            if argument.subs:
                subs = tuple(rewrite(sub) for sub in argument.subs)
                rule = Rule((sub.conc for sub in subs), argument.rule.head,
                            argument.rule.kind)
                out = inference_argument(rule, subs)
            else:
                out = leaf(argument)
            cache[argument.text] = out
        return out

    return {arg.text: rewrite(arg).text for arg in arguments}


def generated_tidy(p, limits=DEFAULT_LIMITS):
    """``uarg.tidy`` by generate-and-filter, plus the arguments of the
    tidied theory: the tidied theory's arguments are generated, and each
    preference keeps every pair of its source and image texts that the
    tidied theory generates."""
    theory = p.theory
    args_max = _model(p, limits).arguments
    premiseless_heads = {rule.head for rule in theory.rules if not rule.body}
    rep = theory.knowledge_base & premiseless_heads
    if not rep:
        return p, Witness.identity(arg.text for arg in args_max), args_max

    def prime(phi):
        return phi + PRIME_SUFFIX

    primed_language = {prime(phi) for phi in theory.formulas}
    clash = primed_language & theory.formulas
    if clash:
        raise InvalidTheoryError(
            f"priming is not fresh for this language: {sorted(clash)}")
    contraries = set(theory.contraries)
    for phi, psi in theory.contraries:
        contraries.update({(phi, prime(psi)), (prime(phi), psi),
                           (prime(phi), prime(psi))})

    def patched_variants(rule):
        if not rule.body:
            if rule.head in rep:
                return [Rule((), prime(rule.head), rule.kind)]
            return [rule]
        clashing = sorted(rule.body & rep)
        return [Rule((rule.body - set(subset)) | {prime(phi)
                                                   for phi in subset},
                     rule.head, rule.kind)
                for size in range(len(clashing) + 1)
                for subset in combinations(clashing, size)]

    new_rules, naming = set(), {}
    for rule in theory.rules:
        variants = patched_variants(rule)
        new_rules.update(variants)
        name = theory.naming.get(rule)
        if name is not None:
            naming.update((variant, name) for variant in variants)
    new_theory = replace(
        theory, formulas=frozenset(theory.formulas | primed_language),
        contraries=frozenset(contraries), rules=frozenset(new_rules),
        naming=naming)

    def leaf(argument):
        rule = argument.rule
        if rule is not None and rule.head in rep:
            return StructuredArgument(None, Rule((), prime(rule.head),
                                                 rule.kind), ())
        return argument

    tau = _called_leaf_rewrite(args_max, leaf)
    new_args_max = generate_arguments(new_theory, limits)
    new_texts = {arg.text for arg in new_args_max}
    preferences = {(left, right) for a, b in p.preferences
                   for left in (a, tau[a]) for right in (b, tau[b])
                   if left in new_texts and right in new_texts}
    result = PremISAF(new_theory, uncertain_axioms=p.uncertain_axioms,
                      uncertain_premises=p.uncertain_premises,
                      preferences=frozenset(preferences))
    assert is_tidy(result)
    return result, Witness(tau), new_args_max


def two_pass_prem_isaf_to_rul_isaf(p, limits=DEFAULT_LIMITS):
    """``uarg.prem_isaf_to_rul_isaf`` as ``generated_tidy`` followed by a
    second rewrite of the tidied arguments, the witnesses composed."""
    tidied, first, args_max = generated_tidy(p, limits)
    theory = tidied.theory
    new_rules = frozenset(
        {Rule((), phi, STRICT) for phi in tidied.uncertain_axioms}
        | {Rule((), phi, DEFEASIBLE) for phi in tidied.uncertain_premises})
    assert not new_rules & theory.rules
    target_theory = replace(theory, rules=frozenset(theory.rules | new_rules),
                            axioms=frozenset(tidied.fixed_axioms),
                            premises=frozenset(tidied.fixed_premises))

    def leaf(argument):
        phi = argument.premise
        if phi in tidied.uncertain_axioms:
            return StructuredArgument(None, Rule((), phi, STRICT), ())
        if phi in tidied.uncertain_premises:
            return StructuredArgument(None, Rule((), phi, DEFEASIBLE), ())
        return argument

    tau = _called_leaf_rewrite(args_max, leaf)
    preferences = frozenset((tau[a], tau[b]) for a, b in tidied.preferences)
    target = RulISAF(target_theory, uncertain_rules=new_rules,
                     preferences=preferences)
    return target, first.compose(Witness(tau))
