"""Span tracing and the work meter for the traced benchmark run.

Nothing here touches the package source.  ``Tracer.install`` replaces the
public functions of each layer module with span-recording wrappers in
every ``deplog`` namespace that holds them, and routes the budgets that
``deplog.harness`` builds for itself through ``TallyBudget``;
``uninstall`` puts the originals back.  Runs with tracing off never call
``install``.

A span is (name, start, end, parent index, job id).  Spans stay in memory
until the run ends; ``write`` dumps them as gzipped CSV.
"""
from __future__ import annotations

import gzip
import time
import types
from collections import Counter

LAYERS = ("syntax", "transforms", "fragments", "structures", "team_eval",
          "eso_eval", "harness", "cli")

# Public helpers called once per term or per subformula node, or by the
# evaluators on every call.  A span there would cost more than the call it
# measures, so they run unwrapped and their time counts toward the
# caller's self time.
UNWRAPPED = {
    "structures.eval_term", "structures.tuple_index",
    "syntax.check_symbols", "syntax.contains_dep_atom", "syntax.free_vars",
    "syntax.iter_subformulas", "syntax.iter_terms", "syntax.render_term",
    "syntax.term_vars",
}

# Budget.spend context -> per-layer work count.
TALLY_METRICS = {
    "structure enumeration": "structures.enumerated",
    "function table candidate": "eso_eval.table_candidates",
    "first-order evaluation": "eso_eval.fo_evals",
    "existential extension": "team_eval.exists_ext",
    "disjunction split": "team_eval.split_masks",
    "dependence atom": "team_eval.dep_rows",
    "universal extension": "team_eval.forall_rows",
    "row evaluation": "team_eval.row_evals",
}


def tally_budget_class(budget_cls):
    """Subclass of the package's Budget that also tallies spend by context."""

    class TallyBudget(budget_cls):
        __slots__ = ("tally",)

        def __init__(self, limit: int, tally: Counter):
            super().__init__(limit)
            self.tally = tally

        def spend(self, amount: int = 1, context: str = "work") -> None:
            self.tally[context] += amount
            super().spend(amount, context)

    return TallyBudget


class Tracer:
    def __init__(self, modules: types.SimpleNamespace, counts: Counter):
        self.modules = modules
        self.spans: list = []
        self.stack: list[int] = []
        self.job = -1
        self.recording = True
        self.tally: Counter = Counter()  # Budget.spend amounts by context
        # sizes measured outside the budget: the share denominators below,
        # and transforms.out_nodes, which the rewrite workload adds
        self.counts = counts
        self.TallyBudget = tally_budget_class(modules.budget.Budget)
        self._patched: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span named ``name`` (used around the benchmark's
        own calls into a layer, e.g. one translate pass)."""
        if not self.recording:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(idx)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            self.spans[idx] = (name, t0, t1, parent, self.job)

    def _iter_spans(self, name: str, it):
        while True:
            try:
                item = self.span(name, next, it)
            except StopIteration:
                return
            yield item

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)

        def wrapper(*args, **kwargs):
            if hook is not None and self.recording:
                hook(self, args, kwargs)
            out = self.span(name, fn, *args, **kwargs)
            if isinstance(out, types.GeneratorType):
                return self._iter_spans(name, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / uninstall ------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        mods = self.modules
        namespaces = [mods.package] + [getattr(mods, n) for n in LAYERS]
        for layer in LAYERS:
            module = getattr(mods, layer)
            for attr in module.__all__:
                fn = getattr(module, attr)
                name = f"{layer}.{attr}"
                if (not isinstance(fn, types.FunctionType)
                        or fn.__module__ != module.__name__
                        or name in UNWRAPPED):
                    continue
                wrapper = self._wrap(name, fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._set(ns, key, wrapper)
        # equiv_check builds its own budgets; hand it tallying ones
        harness = mods.harness
        tally, cls = self.tally, self.TallyBudget
        for attr in ("default_structure_budget", "default_check_budget"):
            make = getattr(harness, attr)
            self._set(harness, attr,
                      lambda make=make: cls(make().limit, tally))
        self._set(harness, "Budget", lambda limit: cls(limit, tally))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    def budget(self, limit: int):
        return self.TallyBudget(limit, self.tally)

    # -- output ---------------------------------------------------------------

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,job\n")
            for name, t0, t1, parent, job in self.spans:
                fh.write(f"{name},{t0:.9f},{t1:.9f},{parent},{job}\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer busy time, self time and entry counts from the spans."""
        layer_id = {name: i for i, name in enumerate(LAYERS)}
        n = len(self.spans)
        dur = [0.0] * n
        child = [0.0] * n
        outer_mask = [0] * n  # layers among a span's ancestors
        busy: Counter = Counter()
        selft: Counter = Counter()
        calls: Counter = Counter()
        for i, (name, t0, t1, parent, _) in enumerate(self.spans):
            dur[i] = t1 - t0
            if parent >= 0:
                child[parent] += dur[i]
                pname = self.spans[parent][0]
                pl = layer_id.get(pname.split(".", 1)[0])
                outer_mask[i] = outer_mask[parent] | (1 << pl if pl is not None else 0)
        for i, (name, t0, t1, parent, _) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            lid = layer_id.get(layer)
            if lid is None:
                continue
            selft[layer] += dur[i] - child[i]
            calls[layer] += 1
            if not outer_mask[i] >> lid & 1:
                busy[layer] += dur[i]
                calls[layer + ".entry"] += 1
            if name in _BUSY_GROUPS and not outer_mask[i] >> lid & 1:
                busy[_BUSY_GROUPS[name]] += dur[i]
        out = {f"{layer}.self_s": selft[layer] for layer in LAYERS}
        out.update({
            "syntax.parse_s": busy["parse"],
            "syntax.render_s": busy["render"],
            "syntax.calls": calls["syntax"],
            "fragments.classify_s": busy["fragments"],
            "structures.enumerate_s": busy["enumerate"],
            "harness.equiv_s": busy["equiv"],
            "eso_eval.eval_s": busy["eso_eval"],
            "eso_eval.calls": calls["eso_eval.entry"],
            "team_eval.eval_s": busy["team_eval"],
            "team_eval.calls": calls["team_eval.entry"],
        })
        for name, t0, t1, parent, _ in self.spans:
            if name.startswith("pass."):
                key = f"transforms.{name[5:]}_s"
                out[key] = out.get(key, 0.0) + (t1 - t0)
        for context, metric in TALLY_METRICS.items():
            out[metric] = self.tally[context]
        out["transforms.out_nodes"] = self.counts["transforms.out_nodes"]
        out["eso_eval.candidate_share"] = _share(
            self.tally["function table candidate"], self.counts["table_space"])
        # Every split mask counts, nested splits included, against 2^rows
        # of the teams handed to satisfies with a disjunction on top: a
        # split_teams figure (0 where satisfies is not called that way)
        # that exceeds 1 when nested splits outnumber the top-level masks.
        out["team_eval.split_mask_share"] = _share(
            self.tally["disjunction split"], self.counts["split_space"])
        return out


# Outermost spans of these functions add to a named busy-time group.
_BUSY_GROUPS = {
    "syntax.parse_formula": "parse", "syntax.parse_formula_infer": "parse",
    "syntax.parse_eso": "parse", "syntax.parse_eso_infer": "parse",
    "syntax.render_formula": "render", "syntax.render_eso": "render",
    "structures.enumerate_structures": "enumerate",
    "harness.equiv_check": "equiv",
}


def _share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _split_space(tracer: Tracer, args, kwargs) -> None:
    """Top-level split space of a team: 2^rows when the formula is a
    disjunction."""
    team = _arg(args, kwargs, 1, "team")
    formula = _arg(args, kwargs, 2, "formula")
    if isinstance(formula, tracer.modules.syntax.Or):
        tracer.counts["split_space"] += 2 ** len(team.rows)


def _table_space(tracer: Tracer, args, kwargs) -> None:
    """Product of n^(n^arity) over the quantified functions."""
    n = _arg(args, kwargs, 0, "struct").size
    space = 1
    for _, arity in _arg(args, kwargs, 1, "sentence").functions:
        space *= n ** (n ** arity)
    tracer.counts["table_space"] += space


_HOOKS = {
    "team_eval.satisfies": _split_space,
    "eso_eval.eso_satisfies": _table_space,
}
