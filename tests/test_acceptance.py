"""Acceptance suite.

One test per criterion, each at its stated scale with exact expectations
(no tolerances anywhere: results are combinatorial).  Every criterion
prints a single pass/fail line; run with `pytest tests/test_acceptance.py -v -s`
to see them.
"""

import random
from contextlib import contextmanager
from itertools import combinations, permutations

from uarg import (
    AbstractAF,
    ArgIAF,
    CompletionSet,
    DepArgIAF,
    Witness,
    arg_iaf_to_prem_isaf,
    arg_iaf_to_rul_isaf,
    check_witness,
    completion_set_of,
    completions_arg_iaf,
    completions_dep,
    completions_prem,
    completions_rul,
    defeat_coherence_check,
    defeats,
    equivalent,
    extensions,
    fixtures,
    generate_arguments,
    is_tidy,
    no_equivalent_arg_iaf,
    prem_isaf_to_imp_arg_iaf,
    prem_isaf_to_rul_isaf,
    rul_isaf_to_imp_arg_iaf,
    rule_completions,
    synthesize_dependencies,
    tidy,
    uncertain_premises_of,
    uncertain_rules_of,
)

from framework_gen import random_prem_isaf, random_rul_isaf
from oracles import covering_imp_arg_iaf, pairwise_defeat_coherence, powerset


@contextmanager
def report(num: int, text: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} FAIL - {text}")
        raise
    print(f"criterion {num:02d} PASS - {text}")


def test_c01_single_framework_completions():
    with report(1, "two uncertain defeaters yield exactly the four expected "
                   "graphs"):
        iaf = fixtures.get("example1")
        assert completions_arg_iaf(iaf) == CompletionSet([
            AbstractAF(["a", "b", "c"], [("b", "a"), ("c", "a")]),
            AbstractAF(["a", "b"], [("b", "a")]),
            AbstractAF(["a", "c"], [("c", "a")]),
            AbstractAF(["a"]),
        ])


def test_c02_dependency_filtering():
    with report(2, "imply([b],[c]) removes exactly the b-only completion; "
                   "or([b,c]) exactly the empty choice"):
        base = fixtures.get("example1")
        all_four = completions_arg_iaf(base)
        with_imply = completions_dep(fixtures.get("example2"))
        assert set(all_four) - set(with_imply) == {
            AbstractAF(["a", "b"], [("b", "a")])}
        with_or = completions_dep(fixtures.get("example2_or"))
        assert set(all_four) - set(with_or) == {AbstractAF(["a"])}


def test_c03_structured_framework_lifting():
    with report(3, "the six-formula framework has 8 arguments, the 4 "
                   "expected defeats, and no preference-blocked defeat"):
        saf = fixtures.get("example3")
        arguments = generate_arguments(saf.theory)
        assert len(arguments) == 8
        pairs = {(a.text, b.text) for a, b in defeats(saf, arguments)}
        assert pairs == {
            ("[u]=s>~s", "s"),
            ("[u]=s>~s", "[s]=d>~r"),
            ("[w]=d>r", "[s]=d>~r"),
            ("[s]=d>~r", "[p]=d>q"),
        }
        assert ("[s]=d>~r", "[w]=d>r") not in pairs


def test_c04_incomplete_structured_completion_sets():
    with report(4, "rule-incomplete variant has exactly 4 abstract "
                   "completions, premise-incomplete exactly 2, with the "
                   "expected node and edge sets"):
        s, snr, pq, p, u, uns, w, wr = ("s", "[s]=d>~r", "[p]=d>q", "p", "u",
                                        "[u]=s>~s", "w", "[w]=d>r")
        ex4 = completions_rul(fixtures.get("example4"))
        assert ex4 == CompletionSet([
            AbstractAF([s, snr, p, u, w, wr], [(wr, snr)]),
            AbstractAF([s, snr, p, pq, u, w, wr], [(wr, snr), (snr, pq)]),
            AbstractAF([s, snr, p, u, uns, w, wr],
                       [(wr, snr), (uns, s), (uns, snr)]),
            AbstractAF([s, snr, p, pq, u, uns, w, wr],
                       [(wr, snr), (snr, pq), (uns, s), (uns, snr)]),
        ])
        ex5 = completions_prem(fixtures.get("example5"))
        assert ex5 == CompletionSet([
            AbstractAF([s, snr, p, pq, u, uns, w, wr],
                       [(wr, snr), (snr, pq), (uns, s), (uns, snr)]),
            AbstractAF([s, snr, p, pq, u, uns],
                       [(snr, pq), (uns, s), (uns, snr)]),
        ])


def _canonical_defeat_masks(n: int) -> list[tuple[int, list]]:
    """Defeat relations on n labeled nodes that are lexicographically least
    in their renaming orbit, with the automorphisms that fix them."""
    perms = list(permutations(range(n)))
    tables = []
    for perm in perms:
        table = [0] * (n * n)
        for i in range(n):
            for j in range(n):
                table[i * n + j] = 1 << (perm[i] * n + perm[j])
        tables.append((perm, table))
    out = []
    for dmask in range(1 << (n * n)):
        canonical = True
        automorphisms = []
        for perm, table in tables:
            permuted = 0
            rest = dmask
            while rest:
                bit = rest & -rest
                rest ^= bit
                permuted |= table[bit.bit_length() - 1]
            if permuted < dmask:
                canonical = False
                break
            if permuted == dmask:
                automorphisms.append(perm)
        if canonical:
            out.append((dmask, automorphisms))
    return out


def _arg_iafs_up_to_renaming(max_n: int):
    """All argument-incomplete frameworks with at most max_n arguments,
    one representative per renaming class (partitions reduced modulo the
    defeat relation's automorphisms)."""
    names = "abcdef"
    for n in range(max_n + 1):
        for dmask, automorphisms in _canonical_defeat_masks(n):
            defeat_pairs = [(names[i], names[j]) for i in range(n)
                            for j in range(n) if dmask >> (i * n + j) & 1]
            seen_partitions = set()
            for kmask in range(1 << n):
                canon = min(
                    sum(1 << perm[i] for i in range(n) if kmask >> i & 1)
                    for perm in automorphisms)
                if canon in seen_partitions:
                    continue
                seen_partitions.add(canon)
                uncertain = {names[i] for i in range(n) if kmask >> i & 1}
                yield ArgIAF(set(names[:n]) - uncertain, uncertain,
                             defeat_pairs)


def test_c05_structured_encodings_certified_exhaustively():
    with report(5, "both structured encodings certified on every framework "
                   "with at most 4 arguments modulo renaming"):
        count = 0
        for iaf in _arg_iafs_up_to_renaming(4):
            source = completions_arg_iaf(iaf)
            rul, witness_r = arg_iaf_to_rul_isaf(iaf)
            assert check_witness(source, completions_rul(rul), witness_r)
            prem, witness_p = arg_iaf_to_prem_isaf(iaf)
            assert check_witness(source, completions_prem(prem), witness_p)
            count += 1
        assert count > 10_000


def test_c06_implicative_abstractions_certified():
    with report(6, "implicative abstractions certified on 200 randomized "
                   "structured frameworks; minimal antecedents match the "
                   "full dependency set on every narrow instance"):
        rng = random.Random(2024)
        narrow_checked = 0
        for i in range(200):
            if i % 2 == 0:
                isaf = random_rul_isaf(rng, max_uncertain=4)
                target, witness = rul_isaf_to_imp_arg_iaf(isaf)
                source_set = completions_rul(isaf)
            else:
                isaf = random_prem_isaf(rng, max_uncertain=4)
                target, witness = prem_isaf_to_imp_arg_iaf(isaf)
                source_set = completions_prem(isaf)
            target_set = completions_dep(target)
            assert check_witness(source_set, target_set, witness)
            if len(target.base.uncertain_args) <= 4:
                full = covering_imp_arg_iaf(isaf)
                assert completions_dep(full) == target_set
                narrow_checked += 1
        assert narrow_checked >= 50


def test_c07_negative_certification():
    with report(7, "no framework over 3 arguments matches the chained-rule "
                   "set, the uncertain-premise set, or the five-completion "
                   "set"):
        t3 = completion_set_of(fixtures.get("thm3_rul"))
        assert sorted(tuple(af.args) for af in t3) == [
            ("[[p]=d>q]=d>r", "[p]=d>q", "p"), ("p",)]
        assert no_equivalent_arg_iaf(t3, 3)
        t7 = completion_set_of(fixtures.get("thm7_prem"))
        assert sorted(tuple(af.args) for af in t7) == [
            ("[q]=d>r", "p", "q"), ("p",)]
        assert no_equivalent_arg_iaf(t7, 3)
        t9 = completion_set_of(fixtures.get("thm9_imp"))
        assert len(t9) == 5
        assert no_equivalent_arg_iaf(t9, 3)


def test_c08_rule_completion_collapse_and_equivalence():
    with report(8, "8 rule-completions collapse to 5 graphs, equivalent to "
                   "the five-completion dependency framework with an "
                   "explicit witness"):
        t10 = fixtures.get("thm10_rul")
        assert len(rule_completions(t10)) == 8
        source = completions_rul(t10)
        assert len(source) == 5
        target = completion_set_of(fixtures.get("thm9_imp"))
        result = equivalent(source, target)
        assert result.equivalent
        assert check_witness(source, target, result.witness)
        explicit = Witness({
            "[]=d>p_b": "b",
            "[[]=d>p_b]=d>p_a": "a",
            "[[]=d>p_b]=d>p_c": "c",
        })
        assert check_witness(source, target, explicit)


def test_c09_tidying_and_premise_to_rule_translation():
    with report(9, "tidying and the premise-to-rule translation preserve "
                   "completion-set equivalence on 100 randomized "
                   "frameworks including untidy ones"):
        rng = random.Random(9090)
        untidy_seen = 0
        for i in range(100):
            source = random_prem_isaf(rng, max_uncertain=3,
                                      force_clash=(i % 2 == 0))
            source_set = completions_prem(source)
            tidied, tidy_witness = tidy(source)
            assert is_tidy(tidied)
            assert check_witness(source_set, completions_prem(tidied),
                                 tidy_witness)
            target, witness = prem_isaf_to_rul_isaf(source)
            assert check_witness(source_set, completions_rul(target), witness)
            if not is_tidy(source):
                untidy_seen += 1
        assert untidy_seen >= 50


def test_c10_defeat_coherence_property():
    with report(10, "all 500 randomized incomplete structured frameworks "
                    "have defeat-coherent completions"):
        rng = random.Random(1010)
        for i in range(500):
            if i % 2 == 0:
                framework = random_rul_isaf(rng, max_uncertain=3)
            else:
                framework = random_prem_isaf(rng, max_uncertain=3)
            assert defeat_coherence_check(framework)
            assert pairwise_defeat_coherence(framework)


def _characterization_holds(isaf, completion_afs, loads, max_group) -> bool:
    """Both directions of: a group forces an argument in every completion
    iff the argument's uncertain load is covered by the group's."""
    names = sorted(loads)
    index = {name: i for i, name in enumerate(names)}
    af_masks = []
    for af in completion_afs:
        mask = 0
        for node in af.args:
            mask |= 1 << index[node]
        af_masks.append(mask)
    full = (1 << len(names)) - 1
    for size in range(1, min(max_group, len(names)) + 1):
        for group in combinations(names, size):
            group_mask = sum(1 << index[g] for g in group)
            group_load = frozenset().union(*(loads[g] for g in group))
            forced = full
            for mask in af_masks:
                if mask & group_mask == group_mask:
                    forced &= mask
            expected = 0
            for name in names:
                if loads[name] <= group_load:
                    expected |= 1 << index[name]
            if forced != expected:
                return False
    return True


def test_c11_uncertain_load_characterizations():
    with report(11, "the uncertain-load characterization holds in both "
                    "directions for every group of up to 3 arguments on "
                    "100 randomized frameworks"):
        rng = random.Random(1111)
        for i in range(100):
            if i % 2 == 0:
                isaf = random_rul_isaf(rng, max_uncertain=4)
                afs = list(completions_rul(isaf))
                arguments = generate_arguments(isaf.theory)
                loads = {a.text: uncertain_rules_of(isaf, a)
                         for a in arguments}
            else:
                isaf = random_prem_isaf(rng, max_uncertain=4)
                afs = list(completions_prem(isaf))
                arguments = generate_arguments(isaf.theory)
                loads = {a.text: uncertain_premises_of(isaf, a)
                         for a in arguments}
            assert _characterization_holds(isaf, afs, loads, 3)


def test_c12_dependency_synthesis_round_trip():
    with report(12, "synthesized dependencies reproduce every target subset "
                    "exactly (exhaustive over all frameworks with up to 3 "
                    "arguments, randomized at 4 and 5 uncertain)"):
        for iaf in _arg_iafs_up_to_renaming(3):
            completions = list(completions_arg_iaf(iaf))
            for chosen in powerset(completions):
                target = CompletionSet(chosen)
                if not iaf.uncertain_args and len(target) == 0:
                    continue  # not representable: nothing to exclude with
                deps = synthesize_dependencies(iaf, target)
                assert completions_dep(DepArgIAF(iaf, deps)) == target
        rng = random.Random(1212)
        for k in (4, 5):
            names = [f"u{i}" for i in range(k)]
            defeats_pool = [(s, t) for s in names for t in names]
            for _ in range(40):
                edges = [e for e in defeats_pool if rng.random() < 0.3]
                iaf = ArgIAF(["f"], names,
                             [e for e in edges] + [(names[0], "f")])
                completions = list(completions_arg_iaf(iaf))
                chosen = [af for af in completions if rng.random() < 0.5]
                target = CompletionSet(chosen)
                deps = synthesize_dependencies(iaf, target)
                assert completions_dep(DepArgIAF(iaf, deps)) == target


def test_c13_semantics_lattice_on_all_small_frameworks():
    with report(13, "grounded/complete/preferred/stable inclusions hold on "
                    "all frameworks with up to 4 arguments"):
        names = ("a", "b", "c", "d")
        for n in range(5):
            for dmask in range(1 << (n * n)):
                defeat_pairs = [(names[i], names[j]) for i in range(n)
                                for j in range(n) if dmask >> (i * n + j) & 1]
                af = AbstractAF(names[:n], defeat_pairs)
                admissible = set(extensions(af, "admissible"))
                complete = set(extensions(af, "complete"))
                preferred = set(extensions(af, "preferred"))
                stable = set(extensions(af, "stable"))
                grounded = extensions(af, "grounded")
                assert len(grounded) == 1
                assert grounded[0] in admissible
                assert all(grounded[0] <= e for e in complete)
                assert stable <= preferred <= complete <= admissible
