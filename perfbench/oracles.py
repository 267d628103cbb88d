"""Definition-literal oracles, independent of the code under test.

Nothing here imports ``uarg``.  Frameworks are plain tuples: an abstract
framework is ``(args, defeats)`` with both sorted, a completion set is the
sorted tuple of its distinct members.  The oracles read the attributes of
library objects handed to them (theories, dependency sets) but never call
library functions, so a reference digest confirmed by an oracle was
computed twice by unrelated code.
"""

from __future__ import annotations

from itertools import combinations, product


def powerset(items):
    items = list(items)
    for size in range(len(items) + 1):
        yield from combinations(items, size)


def induced(args, defeats, keep) -> tuple:
    keep = set(keep)
    return (tuple(sorted(a for a in args if a in keep)),
            tuple(sorted((s, t) for s, t in defeats
                         if s in keep and t in keep)))


def completion_set(members) -> tuple:
    return tuple(sorted(set(members)))


# --- abstract frameworks -------------------------------------------------

def arg_iaf_completions(fixed, uncertain, defeats) -> tuple:
    args = sorted(set(fixed) | set(uncertain))
    return completion_set(induced(args, defeats, set(fixed) | set(chosen))
                          for chosen in powerset(sorted(uncertain)))


def _satisfied(present: frozenset, dep) -> bool:
    kind, first, second = dep
    if kind == "imply":
        return not first <= present or bool(second & present)
    if kind == "or":
        return bool(first & present)
    return not first <= present  # nand


def dep_completions(fixed, uncertain, defeats, deps) -> tuple:
    """deps: (kind, set, set) triples with kind in imply/or/nand."""
    args = sorted(set(fixed) | set(uncertain))
    out = []
    for chosen in powerset(sorted(uncertain)):
        present = frozenset(chosen)
        if all(_satisfied(present, dep) for dep in deps):
            out.append(induced(args, defeats, set(fixed) | present))
    return completion_set(out)


def extensions(args, defeats, sigma: str) -> tuple:
    """Sorted extensions (each a sorted tuple) by brute force over subsets."""
    attackers = {a: {s for s, t in defeats if t == a} for a in args}
    subsets = [frozenset(c) for c in powerset(args)]

    def conflict_free(ext):
        return not any(s in ext and t in ext for s, t in defeats)

    def attacked_by(ext):
        return {t for s, t in defeats if s in ext}

    def defended(ext):
        hit = attacked_by(ext)
        return {a for a in args if attackers[a] <= hit}

    cf = [e for e in subsets if conflict_free(e)]
    admissible = [e for e in cf if e <= defended(e)]
    complete = [e for e in admissible if defended(e) <= e]
    if sigma == "admissible":
        chosen = admissible
    elif sigma == "complete":
        chosen = complete
    elif sigma == "grounded":
        chosen = [e for e in complete if all(e <= o for o in complete)]
    elif sigma == "preferred":
        chosen = [e for e in admissible if not any(e < o for o in admissible)]
    elif sigma == "stable":
        chosen = [e for e in cf if set(args) - e <= attacked_by(e)]
    else:
        raise ValueError(sigma)
    return tuple(sorted(tuple(sorted(e)) for e in chosen))


def is_arg_iaf_completion_set(members: tuple) -> bool:
    """True iff the set is, under its own names, the completion set of some
    argument-incomplete framework: a unique member holds every argument and
    the members are exactly its restrictions to fixed part plus any subset
    of the rest."""
    if not members:
        return False
    union = sorted({a for args, _ in members for a in args})
    fixed = set(union)
    for args, _ in members:
        fixed &= set(args)
    full = [d for args, d in members if len(args) == len(union)]
    if len(full) != 1:
        return False
    uncertain = [a for a in union if a not in fixed]
    return members == arg_iaf_completions(fixed, uncertain, full[0])


def equivalent(left: tuple, right: tuple) -> bool:
    """Completion-set equivalence: some bijection of argument names maps
    the left set exactly onto the right one.  A bijection must carry the
    left's largest members onto the right's, so candidates are the
    isomorphisms between one largest member of each side, extended by
    argument-membership profiles."""
    if len(left) != len(right):
        return False
    l_union = sorted({a for args, _ in left for a in args})
    r_union = sorted({a for args, _ in right for a in args})
    if len(l_union) != len(r_union):
        return False

    def profile(members, name):
        return tuple(sorted((len(args), len(d), name in args,
                             sum(1 for s, t in d if s == name),
                             sum(1 for s, t in d if t == name))
                            for args, d in members))

    l_prof = {a: profile(left, a) for a in l_union}
    r_prof = {a: profile(right, a) for a in r_union}
    if sorted(l_prof.values()) != sorted(r_prof.values()):
        return False
    right_set = set(right)
    order = sorted(l_union, key=lambda a: (l_prof[a], a))
    mapping: dict[str, str] = {}
    used: set[str] = set()

    def maps_exactly() -> bool:
        image = set()
        for args, d in left:
            image.add((tuple(sorted(mapping[a] for a in args)),
                       tuple(sorted((mapping[s], mapping[t]) for s, t in d))))
        return image == right_set

    def edges_agree(name: str) -> bool:
        # every member's defeats between mapped names must reappear in some
        # right member of the same size that contains the mapped names
        for args, d in left:
            inside = [a for a in args if a in mapping]
            img_args = {mapping[a] for a in inside}
            img_edges = {(mapping[s], mapping[t]) for s, t in d
                         if s in mapping and t in mapping}
            for r_args, r_d in right:
                if len(r_args) != len(args) or len(r_d) != len(d):
                    continue
                if {a for a in r_args if a in used} != img_args:
                    continue
                if {(s, t) for s, t in r_d if s in used and t in used} \
                        == img_edges:
                    break
            else:
                return False
        return True

    def search(pos: int) -> bool:
        if pos == len(order):
            return maps_exactly()
        name = order[pos]
        for cand in r_union:
            if cand in used or r_prof[cand] != l_prof[name]:
                continue
            mapping[name] = cand
            used.add(cand)
            if edges_agree(name) and search(pos + 1):
                return True
            del mapping[name]
            used.discard(cand)
        return False

    return search(0)


# --- structured frameworks -------------------------------------------------

def _contrary_sets(contraries) -> dict[str, set[str]]:
    out: dict[str, set[str]] = {}
    for phi, psi in contraries:
        out.setdefault(psi, set()).add(phi)
    return out


class _Arg:
    __slots__ = ("text", "conc", "premises", "parts", "rule")

    def __init__(self, text, conc, premises, parts, rule):
        self.text = text
        self.conc = conc
        self.premises = premises  # knowledge-base formulas used
        self.parts = parts        # texts -> _Arg of every sub-argument
        self.rule = rule          # (body, head, kind) of the top rule or None


def arguments(rules, knowledge, limit: int = 5000) -> dict[str, _Arg]:
    """Least fixpoint of argument formation.

    rules: (body frozenset, head, kind) triples, kind 'strict' or
    'defeasible'; knowledge: formulas usable as premises.  Text follows the
    canonical form: a premise is its formula, an inference is
    '[' + sorted sub-texts joined by ';' + ']' + '=s>' or '=d>' + head."""
    known: dict[str, _Arg] = {}
    for phi in knowledge:
        arg = _Arg(phi, phi, frozenset((phi,)), {}, None)
        arg.parts[phi] = arg
        known[phi] = arg
    changed = True
    while changed:
        changed = False
        by_conc: dict[str, list[_Arg]] = {}
        for arg in known.values():
            by_conc.setdefault(arg.conc, []).append(arg)
        for rule in rules:
            body, head, kind = rule
            pools = [by_conc.get(phi, []) for phi in sorted(body)]
            if not all(pools):
                continue
            for combo in product(*pools):
                texts = sorted(sub.text for sub in combo)
                arrow = "=s>" if kind == "strict" else "=d>"
                text = "[" + ";".join(texts) + "]" + arrow + head
                if text in known:
                    continue
                premises = frozenset().union(*(s.premises for s in combo))
                parts = {}
                for sub in combo:
                    parts.update(sub.parts)
                arg = _Arg(text, head, premises, parts, rule)
                arg.parts[text] = arg
                known[text] = arg
                changed = True
                if len(known) > limit:
                    raise OverflowError("argument limit exceeded")
    return known


def structured_af(rules, axioms, premises, contraries, naming,
                  preferences) -> tuple:
    """Abstract framework of one structured framework, by definition:
    undercuts always defeat; undermining (on ordinary premises) and
    rebutting (on conclusions of defeasible rules) defeat unless the
    attacker is strictly less preferred than the attacked sub-argument."""
    args = arguments(rules, set(axioms) | set(premises))
    contrary = _contrary_sets(contraries)
    pref = set(preferences)

    def strictly_less(a, b):
        return (a, b) in pref and (b, a) not in pref

    edges = set()
    for b in args.values():
        loci = [(phi, phi, "undermine") for phi in b.premises
                if phi in premises]
        for part in b.parts.values():
            if part.rule is not None and part.rule[2] == "defeasible":
                loci.append((part.conc, part.text, "rebut"))
                name = naming.get(part.rule)
                if name is not None:
                    loci.append((name, part.text, "undercut"))
        for guard, locus, kind in loci:
            for a in args.values():
                if a.conc in contrary.get(guard, ()):
                    if kind == "undercut" or not strictly_less(a.text, locus):
                        edges.add((a.text, b.text))
    return (tuple(sorted(args)), tuple(sorted(edges)))


def _rule_triple(rule) -> tuple:
    return (frozenset(rule.body), rule.head, rule.kind)


def theory_parts(theory) -> dict:
    """Plain data read off a library theory object."""
    return {
        "rules": [_rule_triple(r) for r in theory.rules],
        "axioms": set(theory.axioms),
        "premises": set(theory.premises),
        "contraries": set(theory.contraries),
        "naming": {_rule_triple(r): name for r, name in theory.naming.items()},
    }


def rul_isaf_completions(isaf) -> tuple:
    parts = theory_parts(isaf.theory)
    uncertain = sorted((_rule_triple(r) for r in isaf.uncertain_rules),
                       key=repr)
    fixed = [r for r in parts["rules"] if r not in set(uncertain)]
    return completion_set(
        structured_af(fixed + list(chosen), parts["axioms"], parts["premises"],
                      parts["contraries"], parts["naming"], isaf.preferences)
        for chosen in powerset(uncertain))


def prem_isaf_completions(isaf) -> tuple:
    parts = theory_parts(isaf.theory)
    u_ax = set(isaf.uncertain_axioms)
    u_pr = set(isaf.uncertain_premises)
    out = []
    for chosen in powerset(sorted(u_ax | u_pr)):
        chosen = set(chosen)
        axioms = (parts["axioms"] - u_ax) | (chosen & u_ax)
        premises = (parts["premises"] - u_pr) | (chosen & u_pr)
        out.append(structured_af(parts["rules"], axioms, premises,
                                 parts["contraries"], parts["naming"],
                                 isaf.preferences))
    return completion_set(out)
