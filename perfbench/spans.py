"""Runtime spans around the public functions of each ``uarg`` module.

``Tracer.install`` replaces every binding of a wrapped function, in every
loaded ``uarg`` module, by a wrapper that records a span (name, start, end,
parent span, item); ``AbstractAF.__init__`` and ``Witness.apply`` are
wrapped on their classes.  Nothing under ``src/`` is edited.  A span's self
time is its duration minus the time its child spans cover.

Per-identifier predicates (``is_valid_*``, ``check_*``, ``negate``,
``satisfies``) are left unwrapped: they run once per name or formula, and a
span around them would cost more than their body.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict

# module -> public functions given spans
WRAPPED = {
    "aspic": ("make_theory", "validate_theory", "generate_arguments",
              "attacks", "defeats", "associated_af"),
    "isaf": ("saf_max", "saf_fixed", "rule_completions", "premise_completions",
             "completions_rul", "completions_prem", "uncertain_rules_of",
             "uncertain_premises_of", "is_tidy", "defeat_coherence_check",
             "completion_set_of"),
    "core": ("restrict", "af_equal", "is_conflict_free", "is_admissible",
             "extensions", "parse_af", "serialize_af"),
    "kernels": ("semantics_masks", "dependency_masks"),
    "incomplete": ("completions_arg_iaf", "completions_dep", "is_implicative",
                   "parse_iaf", "serialize_iaf", "synthesize_dependencies"),
    "translate": ("arg_iaf_to_rul_isaf", "arg_iaf_to_prem_isaf",
                  "rul_isaf_to_imp_arg_iaf", "prem_isaf_to_imp_arg_iaf",
                  "tidy", "prem_isaf_to_rul_isaf"),
    "equivalence": ("check_witness", "equivalent", "no_equivalent_arg_iaf",
                    "equivalence_properties_check"),
    "documents": ("load_theory_document", "build_saf", "build_rul_isaf",
                  "build_prem_isaf", "theory_document_of",
                  "parse_completion_set", "serialize_completion_set",
                  "load_framework", "serialize_framework"),
}
WRAPPED_METHODS = (("core", "AbstractAF", "__init__"),
                   ("translate", "Witness", "apply"))

# Text-format entry points; the documents layer owns them wherever they live.
PARSERS = {"core.parse_af", "incomplete.parse_iaf",
           "documents.parse_completion_set", "documents.load_framework",
           "documents.load_theory_document"}
SERIALIZERS = {"core.serialize_af", "incomplete.serialize_iaf",
               "documents.serialize_completion_set",
               "documents.serialize_framework",
               "documents.theory_document_of"}


RATIOS = {"isaf.collapse_ratio", "kernels.semantics_yield",
          "kernels.dependency_yield", "incomplete.horn_share",
          "equivalence.prune_ratio", "trace.overhead"}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name in RATIOS:
        return "ratio"
    return "B" if name == "documents.bytes" else "count"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []      # (id, parent, item, name, start, end)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()  # work counters, see _count
        self.item = -1
        self.active = True                # False while inputs are built
        self._stack: list[list] = []      # [span id, name, child seconds]
        self._restore: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        layers = {short: importlib.import_module("uarg." + short)
                  for short in WRAPPED}
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "uarg"
                                         or name.startswith("uarg."))]
        for short, names in WRAPPED.items():
            module = layers[short]
            for name in names:
                original = getattr(module, name)
                wrapper = self._wrap(f"{short}.{name}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._restore.append((m, attr, original))
                            setattr(m, attr, wrapper)
        for short, cls_name, name in WRAPPED_METHODS:
            cls = getattr(sys.modules["uarg." + short], cls_name)
            original = cls.__dict__[name]
            self._restore.append((cls, name, original))
            setattr(cls, name, self._wrap(f"{cls_name}.{name}", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, key: str, fn):
        stack = self._stack
        spans = self.spans
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter
        count = self._count
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span_id = len(spans) + len(stack)
            parent = stack[-1] if stack else None
            frame = [span_id, key, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s[key] += duration - frame[2]
                calls[key] += 1
                if parent is not None:
                    parent[2] += duration
                spans.append((span_id, parent[0] if parent else -1,
                              tracer.item, key, start, end))
            count(key, args, result, parent)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- work counters ------------------------------------------------------

    def _count(self, key, args, result, parent) -> None:
        c = self.counts
        if key == "aspic.generate_arguments":
            c["arguments_generated"] += len(result)
        elif key == "aspic.defeats":
            c["defeat_pairs"] += len(result)
        elif key in ("isaf.completions_rul", "isaf.completions_prem",
                     "isaf.rule_completions", "isaf.premise_completions"):
            x = args[0]
            uncertain = (x.uncertain_rules if "rul" in key
                         else x.uncertain_axioms | x.uncertain_premises)
            c["subsets"] += 1 << len(uncertain)
            c["graphs"] += len(result)
        elif key == "kernels.semantics_masks":
            c["semantics_scanned"] += 1 << args[0]
            c["semantics_emitted"] += len(result)
        elif key == "kernels.dependency_masks":
            c["dependency_scanned"] += 1 << args[0]
            c["dependency_emitted"] += len(result)
        elif key in ("incomplete.completions_arg_iaf",
                     "incomplete.completions_dep"):
            c["completions_emitted"] += len(result)
            if key == "incomplete.completions_dep":
                c["dep_answered"] += 1
        elif key in ("translate.rul_isaf_to_imp_arg_iaf",
                     "translate.prem_isaf_to_imp_arg_iaf"):
            c["deps_emitted"] += len(result[0].deps)
        elif key == "equivalence.equivalent":
            c["search_nodes"] += result.nodes
            c["search_prunes"] += result.prunes
            if parent is not None and \
                    parent[1] == "equivalence.no_equivalent_arg_iaf":
                c["negcert_candidates"] += 1
        if parent is not None and parent[1] == "incomplete.completions_dep" \
                and key in ("kernels.dependency_masks",
                            "incomplete.completions_arg_iaf"):
            c["dep_by_scan"] += 1  # a 2^n scan, or no dependencies at all
        if (key in PARSERS or key in SERIALIZERS) and not (
                parent is not None
                and (parent[1] in PARSERS or parent[1] in SERIALIZERS)):
            text = args[0] if key in PARSERS else result
            if isinstance(text, str):
                c["document_bytes"] += len(text.encode())

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics; counts are exact, *_s are self seconds."""
        s, n, c = self.self_s, self.calls, self.counts

        def total(*keys):
            return sum(s.get(k, 0.0) for k in keys)

        def module_total(short):
            return sum(v for k, v in s.items() if k.startswith(short + "."))

        def ratio(a, b):
            return a / b if b else 0.0

        # completions_dep calls answered without a 2^n dependency scan and
        # without falling back to completions_arg_iaf: the Horn-closure path
        dep_calls = n["incomplete.completions_dep"]
        horn = c["dep_answered"] - c["dep_by_scan"]

        return {
            "aspic.generate_calls": n["aspic.generate_arguments"],
            "aspic.arguments_generated": c["arguments_generated"],
            "aspic.generate_self_s": total("aspic.generate_arguments"),
            "aspic.defeat_pairs": c["defeat_pairs"],
            "aspic.defeats_self_s": total("aspic.defeats", "aspic.attacks",
                                          "aspic.associated_af"),
            "aspic.validate_self_s": total("aspic.validate_theory",
                                           "aspic.make_theory"),
            "isaf.subsets": c["subsets"],
            "isaf.graphs_distinct": c["graphs"],
            "isaf.collapse_ratio": ratio(c["graphs"], c["subsets"]),
            "isaf.completions_self_s": module_total("isaf"),
            "core.af_built": n["AbstractAF.__init__"],
            "core.af_build_self_s": total("AbstractAF.__init__"),
            "core.restrict_self_s": total("core.restrict"),
            "core.extensions_calls": n["core.extensions"],
            "core.extensions_self_s": total("core.extensions"),
            "kernels.semantics_calls": n["kernels.semantics_masks"],
            "kernels.semantics_masks_scanned": c["semantics_scanned"],
            "kernels.semantics_masks_emitted": c["semantics_emitted"],
            "kernels.semantics_yield": ratio(c["semantics_emitted"],
                                             c["semantics_scanned"]),
            "kernels.semantics_self_s": total("kernels.semantics_masks"),
            "kernels.dependency_calls": n["kernels.dependency_masks"],
            "kernels.dependency_masks_scanned": c["dependency_scanned"],
            "kernels.dependency_masks_emitted": c["dependency_emitted"],
            "kernels.dependency_yield": ratio(c["dependency_emitted"],
                                              c["dependency_scanned"]),
            "kernels.dependency_self_s": total("kernels.dependency_masks"),
            "incomplete.completions_dep_self_s":
                total("incomplete.completions_dep"),
            "incomplete.completions_emitted": c["completions_emitted"],
            "incomplete.completions_arg_iaf_self_s":
                total("incomplete.completions_arg_iaf"),
            "incomplete.synthesize_self_s":
                total("incomplete.synthesize_dependencies"),
            "incomplete.completions_dep_calls": dep_calls,
            "incomplete.horn_path_calls": horn,
            "incomplete.horn_share": ratio(horn, dep_calls),
            "translate.encode_self_s": total("translate.arg_iaf_to_rul_isaf",
                                             "translate.arg_iaf_to_prem_isaf"),
            "translate.imp_self_s": total("translate.rul_isaf_to_imp_arg_iaf",
                                          "translate.prem_isaf_to_imp_arg_iaf"),
            "translate.deps_emitted": c["deps_emitted"],
            "translate.tidy_self_s": total("translate.tidy",
                                           "translate.prem_isaf_to_rul_isaf"),
            "translate.witness_apply_self_s": total("Witness.apply"),
            "equivalence.check_witness_calls": n["equivalence.check_witness"],
            "equivalence.check_witness_self_s":
                total("equivalence.check_witness"),
            "equivalence.search_self_s": total("equivalence.equivalent"),
            "equivalence.search_nodes": c["search_nodes"],
            "equivalence.search_prunes": c["search_prunes"],
            "equivalence.prune_ratio": ratio(c["search_prunes"],
                                             c["search_nodes"]),
            "equivalence.negcert_self_s":
                total("equivalence.no_equivalent_arg_iaf"),
            "equivalence.negcert_candidates": c["negcert_candidates"],
            "documents.parse_self_s": total(*PARSERS),
            "documents.serialize_self_s": total(*SERIALIZERS),
            "documents.bytes": c["document_bytes"],
        }

    def layer_calls(self) -> dict[str, int]:
        """Spans per layer, for the bypass check.  A span belongs to the
        layer its metrics() report it under: the text-format entry points
        to documents wherever they live, the wrapped methods to the module
        of their class, anything else to its module."""
        out: Counter = Counter()
        for key, value in self.calls.items():
            if key in PARSERS or key in SERIALIZERS:
                owner = "documents"
            else:
                owner = key.split(".")[0]
                owner = {"AbstractAF": "core",
                         "Witness": "translate"}.get(owner, owner)
            out[owner] += value
        return dict(out)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,item,name,start_s,end_s\n")
            for span in sorted(self.spans):
                fh.write("%d,%d,%d,%s,%.9f,%.9f\n" % span)
