"""The bitmask kernels against the definition-literal oracle."""

import random
import time

from uarg import AbstractAF, extensions, kernels
from uarg.core import SEMANTICS

from oracles import naive_extensions, scanned_dependency_masks

NAMES = "abcdefghij"


def random_af(rng, n, density):
    defeats = [(NAMES[i], NAMES[j]) for i in range(n) for j in range(n)
               if rng.random() < density]
    return AbstractAF(NAMES[:n], defeats)


def shaped_afs():
    """Frameworks of up to 10 arguments whose shape the pruned search must
    get right: odd and even cycles (an odd one has no non-empty admissible
    set), chains, self-attackers and attack-free graphs (every subset
    admissible)."""
    for n in range(1, 11):
        names = NAMES[:n]
        ring = [(names[i], names[(i + 1) % n]) for i in range(n)]
        chain = ring[:-1]
        yield AbstractAF(names, ring)
        yield AbstractAF(names, chain)
        yield AbstractAF(names, [(t, s) for s, t in chain])
        yield AbstractAF(names)
        yield AbstractAF(names, [(a, a) for a in names[::2]] + chain)
        yield AbstractAF(names, [(names[0], names[0])]
                         + [(names[0], a) for a in names[1:]])


def random_masks(rng, n, density=0.3):
    attackers = [0] * n
    targets = [0] * n
    for i in range(n):
        for j in range(n):
            if rng.random() < density:
                targets[i] |= 1 << j
                attackers[j] |= 1 << i
    return attackers, targets


def random_clause(rng, n):
    """The (pos, neg) clause of one IMPLY, OR or NAND dependency over bits
    0..n-1; an IMPLY may have several consequents and may overlap its
    antecedent."""
    def some_bits():
        return sum(1 << i for i in rng.sample(range(n),
                                              rng.randint(1, min(n, 4))))

    kind = rng.choice(("imply", "or", "nand"))
    xmask, ymask = some_bits(), some_bits() if kind == "imply" else 0
    return ((xmask, ymask) if kind == "imply" else (0, xmask) if kind == "or"
            else (xmask, 0))


class TestKernelCorrectness:
    def test_against_definition_literal_oracle(self):
        # density 0 gives attack-free frameworks, the enumerator's widest
        # case; the diagonal of the dense ones gives self-attackers.
        rng = random.Random(109)
        for trial in range(60):
            n = 0 if trial == 0 else rng.randint(1, 8)
            af = random_af(rng, n, rng.choice((0.0, 0.15, 0.3, 0.5)))
            for sigma in SEMANTICS:
                assert set(extensions(af, sigma)) == \
                    naive_extensions(af, sigma), (af, sigma)
        for af in shaped_afs():
            for sigma in SEMANTICS:
                assert set(extensions(af, sigma)) == \
                    naive_extensions(af, sigma), (af, sigma)

    def test_masks_ascending(self):
        # three ascending, duplicate-free lists, each nested in the last
        rng = random.Random(127)
        for _ in range(40):
            n = rng.randint(0, 10)
            attackers, targets = random_masks(rng, n, rng.random() * 0.4)
            admissible, complete, stable = kernels.semantics_masks(
                n, attackers, targets)
            for masks in (admissible, complete, stable):
                assert masks == sorted(set(masks))
            assert set(stable) <= set(complete) <= set(admissible)

    def test_one_search_per_framework(self, monkeypatch):
        calls = []
        search = kernels.semantics_masks

        def counted(*args):
            calls.append(args[0])
            return search(*args)

        monkeypatch.setattr(kernels, "semantics_masks", counted)
        rng = random.Random(137)
        for trial in range(20):
            af = random_af(rng, rng.randint(0, 8), 0.2)
            for sigma in SEMANTICS + SEMANTICS:
                extensions(af, sigma)
            assert len(calls) == trial + 1
        # grounded alone is a fixpoint and runs no search
        extensions(random_af(rng, 6, 0.2), "grounded")
        assert len(calls) == 20

    def test_equal_frameworks_answer_alike(self):
        # each object keeps its own search: of two equal fresh frameworks,
        # whichever answers first, the other answers the same, and the
        # record changes neither ==, hash nor repr
        rng = random.Random(139)
        for _ in range(20):
            af = random_af(rng, rng.randint(0, 8), rng.choice((0.0, 0.3)))
            for sigmas in (SEMANTICS, SEMANTICS[::-1]):
                first, second = (AbstractAF(af.args, af.defeats)
                                 for _ in range(2))
                answers = [extensions(first, sigma) for sigma in sigmas]
                assert first == second and hash(first) == hash(second)
                assert repr(first) == repr(second)
                assert [extensions(second, sigma) for sigma in sigmas] \
                    == answers

    def test_dependency_masks_against_scan(self):
        rng = random.Random(131)
        for trial in range(400):
            n = trial % 13
            deps = ([random_clause(rng, n) for _ in range(rng.randint(0, 6))]
                    if n else [])
            assert kernels.dependency_masks(n, deps) == \
                scanned_dependency_masks(n, deps), (n, deps)
        # wider sets, with clauses repeated
        for n in (13, 14, 15, 16, 16):
            deps = [random_clause(rng, n) for _ in range(rng.randint(1, 4))]
            deps += rng.sample(deps, rng.randint(1, len(deps)))
            assert kernels.dependency_masks(n, deps) == \
                scanned_dependency_masks(n, deps), (n, deps)
        # a clause over no bits is false under every mask, tautologies
        # (pos and neg overlap) around it or not
        assert kernels.dependency_masks(0, [(0, 0)]) == \
            scanned_dependency_masks(0, [(0, 0)]) == []
        for n in (1, 3, 9):
            top = 1 << n - 1
            for deps in ([(0, 0)], [(top, top), (0, 0)],
                         [(0, 0), (1, 1), (top, top | 1)]):
                assert kernels.dependency_masks(n, deps) == \
                    scanned_dependency_masks(n, deps) == []
            taut = [(top, top), (1, 1)] * 2
            assert kernels.dependency_masks(n, taut) == list(range(1 << n))
        # clauses on the top bit only split the masks into two halves
        for n in (1, 5, 12, 16):
            top = 1 << n - 1
            for deps in ([(0, top)], [(top, 0)], [(top, top)],
                         [(top, 0), (0, top)]):
                assert kernels.dependency_masks(n, deps) == \
                    scanned_dependency_masks(n, deps), (n, deps)
        # k single-bit ORs keep one mask in 2^k, spread over all 2^n, so the
        # outputs run from every mask to one, across any switch between a
        # dense and a sparse way of reading them out; the same k ORs on the
        # top bits keep the top 2^(n-k) masks in one block.
        for n in (1, 6, 12, 16):
            for k in range(n + 1):
                for shift in (0, n - k):
                    deps = [(0, 1 << i + shift) for i in range(k)]
                    masks = kernels.dependency_masks(n, deps)
                    assert masks == scanned_dependency_masks(n, deps), \
                        (n, deps)
                    assert len(masks) == 1 << n - k
        # synthesized sets: every clause names all n bits, so each excludes
        # exactly the one mask equal to its pos
        for n in range(1, 7):
            full = (1 << n) - 1
            for count in sorted({0, 1, 2, full // 2, full - 1, full}):
                left_out = rng.sample(range(1 << n), count)
                deps = [(m, full ^ m) for m in left_out]
                masks = kernels.dependency_masks(n, deps)
                assert masks == scanned_dependency_masks(n, deps), (n, deps)
                assert masks == sorted(set(range(1 << n)) - set(left_out))

    def test_dependency_clause_on_bit_zero_only(self):
        # bit 0 alternates from each mask to the next, the finest pattern
        # a clause can select
        for n in range(1, 6):
            # OR, NAND, a tautological IMPLY, and an IMPLY from the top bit
            for deps in ([(0, 1)], [(1, 0)], [(1, 1)], [(1 << n - 1, 1)]):
                assert kernels.dependency_masks(n, deps) == \
                    scanned_dependency_masks(n, deps), (n, deps)

    def test_wide_self_attacking_framework(self):
        # 2^1500 subsets, but only the empty one is conflict-free; the
        # search must neither scan them nor recurse 1,500 frames deep.
        names = [f"a{i}" for i in range(1500)]
        af = AbstractAF(names, [(a, a) for a in names])
        start = time.perf_counter()
        assert extensions(af, "admissible") == (frozenset(),)
        assert time.perf_counter() - start < 10

    def test_wide_odd_cycle(self):
        # 2^61 subsets and trillions of conflict-free ones, but only the
        # empty set is admissible: every other branch is cut early.
        names = [f"a{i}" for i in range(61)]
        af = AbstractAF(names, zip(names, names[1:] + names[:1]))
        start = time.perf_counter()
        for sigma in SEMANTICS:
            expected = () if sigma == "stable" else (frozenset(),)
            assert extensions(af, sigma) == expected, sigma
        assert time.perf_counter() - start < 10

    def test_backend_name_reported(self):
        assert kernels.backend_name() == "python"
