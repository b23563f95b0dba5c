"""In-process tracer for the miop benchmark's traced runs.

It wraps public functions of each miop module from outside the package, so no
code under src/ changes. Functions are imported by name across modules, so
every alias is patched (`miop.verify.build` as well as `miop.multiindex.build`)
and methods are patched on their classes. `families.classical_poly` is never
wrapped, because a wrapper would bypass its lru_cache; it is read through
`cache_info()` instead.

Timed probes keep call counts, inclusive and self time per name and per layer;
the coarse ones (CLI items, builds, determinants, tables, checks, quadrature)
also record spans (name, start, end, parent, item) in memory. Scalar
multiplications are counted without a clock to keep the overhead low.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter

# the layers are miop's modules; exact.scalars is counted without a clock,
# so it has no layer time of its own
TIMED_LAYERS = ("exact.poly", "exact.matrix", "families", "multiindex", "rtable",
                "verify", "quad", "cli")
FAMILIES = ("L", "J", "W", "AW")
MAX_M = 3

# run_all calls these through miop.verify's globals; only those calls count
VERIFY_TAGS = {
    "check_rrp": "rrp",
    "check_rrp_override": "rrp-override",
    "check_rtable_shift": "rtable-shift",
    "check_vanishing": "vanishing",
    "regenerate_from_initial": "regeneration",
    "check_seed_proportionality": "seed-proportionality",
    "check_prefix_chain": "prefix-chain",
    "check_permutation": "permutation",
    "check_degrees": "degrees",
}


def metric_names() -> list:
    """Every per-layer metric a traced pass reports, in report order."""
    names = ["multiindex.build.calls", "multiindex.build.unique", "multiindex.build.redundancy"]
    names += [f"multiindex.build.{f}.M{m}.s" for f in FAMILIES for m in range(MAX_M + 1)]
    names += ["multiindex.build.max_coeff_bits",
              "exact.matrix.det.calls", "exact.matrix.det.s"]
    for op in ("mul", "laurent_mul", "exact_div"):
        names += [f"exact.poly.{op}.calls", f"exact.poly.{op}.s"]
    names += ["exact.scalars.gaussian_mul.calls", "exact.scalars.sqrtq_mul.calls",
              "families.classical_poly.hits", "families.classical_poly.misses",
              "families.three_term.calls",
              "families.reduce_to_eta.calls", "families.reduce_to_eta.s",
              "families.x_shift.calls", "families.x_shift.s",
              "rtable.build_rtable.calls", "rtable.build_rtable.s", "rtable.check.s"]
    names += [f"verify.{tag}.s" for tag in VERIFY_TAGS.values()]
    names += ["verify.genericity_probe.s",
              "quad.orthogonality_check.calls", "quad.orthogonality_check.s",
              "quad.integrate.s", "quad.integrand.evals", "quad.integrand.us_per_eval",
              "quad.expected_norm.s",
              "cli.main.s", "cli.serialize.s", "cli.bytes_out"]
    for layer in TIMED_LAYERS:
        names += [f"layer.{layer}.self_s", f"layer.{layer}.incl_s"]
    names += ["trace.unattributed_frac", "trace.coverage", "trace.overhead_frac"]
    return names


def _scalar_bits(c) -> int:
    if isinstance(c, int):
        return c.bit_length()
    if hasattr(c, "numerator"):
        return max(c.numerator.bit_length(), c.denominator.bit_length())
    if hasattr(c, "re"):
        return max(_scalar_bits(c.re), _scalar_bits(c.im))
    return max(_scalar_bits(c.a), _scalar_bits(c.b))


class _Frame:
    __slots__ = ("name", "layer", "child", "span", "rec_parent")

    def __init__(self, name, layer, span, rec_parent):
        self.name = name
        self.layer = layer
        self.child = 0.0
        self.span = span
        self.rec_parent = rec_parent


class Tracer:
    """Patches miop in place; `uninstall` restores every original."""

    def __init__(self):
        self.stack = []
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # name -> calls, incl, self
        self.depth = Counter()
        self.layer_self = defaultdict(float)
        self.layer_incl = defaultdict(float)
        self.counts = Counter()
        self.spans = []
        self.builds = Counter()
        self.build_s = defaultdict(float)
        self.max_coeff_bits = 0
        self.item = None
        self._classical_poly = None
        self._undo = []

    # -- probes -------------------------------------------------------------

    def call(self, name, layer, record, fn, args, kwargs):
        stack = self.stack
        parent = stack[-1] if stack else None
        rec_parent = None if parent is None else (
            parent.span if parent.span is not None else parent.rec_parent)
        span = None
        if record:
            span = len(self.spans)
            self.spans.append(None)
        frame = _Frame(name, layer, span, rec_parent)
        outer = self.depth[layer] == 0
        self.depth[layer] += 1
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.depth[layer] -= 1
            dur = end - start
            own = dur - frame.child
            st = self.stats[name]
            st[0] += 1
            st[1] += dur
            st[2] += own
            self.layer_self[layer] += own
            if outer:
                self.layer_incl[layer] += dur
            if parent is not None:
                parent.child += dur
            if record:
                self.spans[span] = {"id": span, "name": name, "start": start, "end": end,
                                    "covered": frame.child, "parent": rec_parent,
                                    "item": self.item}

    def timed(self, name, layer, fn, record=False):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, layer, record, fn, args, kwargs)
        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _from_run_all(self, name, fn):
        """Timed only when called directly by run_all."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self.stack
            if stack and stack[-1].name == "verify.run_all":
                return self.call(name, "verify", True, fn, args, kwargs)
            return fn(*args, **kwargs)
        return wrapper

    def _build(self, fn):
        @functools.wraps(fn)
        def wrapper(fp, D, n_max=8):
            start = perf_counter()
            pair = self.call("multiindex.build", "multiindex", True, fn, (fp, D, n_max), {})
            self.build_s[(fp.family, D.M)] += perf_counter() - start
            key = (fp, D.label(), n_max)
            if key not in self.builds:
                bits = [_scalar_bits(c) for p in pair.P.values() for c in p.coeffs]
                self.max_coeff_bits = max([self.max_coeff_bits] + bits)
            self.builds[key] += 1
            return pair
        return wrapper

    def _integrate(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            def counted_f(x):
                counts["quad.integrand.evals"] += 1
                return f(x)
            return self.call("quad.integrate", "quad", True, fn, (counted_f,) + args, kwargs)
        return wrapper

    def root(self, item_id, fn, *args):
        """Run one CLI item as a root span named cli.main."""
        self.item = item_id
        return self.call("cli.main", "cli", True, fn, args, {})

    # -- patching -----------------------------------------------------------

    def _patch(self, targets, make):
        """Replace each (owner, attr) target; all must hold the same original."""
        owner, attr = targets[0]
        original = getattr(owner, attr)
        wrapper = make(original)
        for owner, attr in targets:
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"{owner.__name__}.{attr} is not the alias the tracer expects")
            self._undo.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def install(self):
        from miop import cli, exact, families, multiindex, quad, rtable, verify
        from miop.exact import matrix, poly, scalars

        self._classical_poly = families.classical_poly
        timed, counted = self.timed, self.counted

        def patch(owners, attr, make):
            self._patch([(owner, attr) for owner in owners], make)

        patch([multiindex, verify, quad, cli], "build", self._build)
        patch([matrix, exact, multiindex], "det",
              lambda fn: timed("exact.matrix.det", "exact.matrix", fn, record=True))
        for cls, op in ((poly.Poly, "mul"), (poly.LaurentPoly, "laurent_mul")):
            self._patch([(cls, "__mul__"), (cls, "__rmul__")],
                        lambda fn, op=op: timed(f"exact.poly.{op}", "exact.poly", fn))
            patch([cls], "exact_div", lambda fn: timed("exact.poly.exact_div", "exact.poly", fn))
        for cls, op in ((scalars.GaussianRational, "gaussian_mul"), (scalars.SqrtQRational, "sqrtq_mul")):
            self._patch([(cls, "__mul__"), (cls, "__rmul__")],
                        lambda fn, op=op: counted(f"exact.scalars.{op}.calls", fn))
        patch([families, rtable, verify], "three_term",
              lambda fn: counted("families.three_term.calls", fn))
        patch([families, rtable, quad], "reduce_to_eta",
              lambda fn: timed("families.reduce_to_eta", "families", fn))
        patch([families, multiindex, rtable, quad], "x_shift",
              lambda fn: timed("families.x_shift", "families", fn))
        patch([rtable, verify, cli], "build_rtable",
              lambda fn: timed("rtable.build_rtable", "rtable", fn, record=True))
        for name in ("check_rprop", "check_rprop2_rprop3", "check_vanishing_region"):
            patch([rtable, verify], name, lambda fn: timed("rtable.check", "rtable", fn, record=True))
        patch([verify, cli], "run_all", lambda fn: timed("verify.run_all", "verify", fn, record=True))
        for fname, tag in VERIFY_TAGS.items():
            patch([verify], fname, lambda fn, tag=tag: self._from_run_all(f"verify.{tag}", fn))
        patch([verify], "genericity_probe",
              lambda fn: self._from_run_all("verify.genericity_probe", fn))
        patch([quad, cli], "ortho_grid", lambda fn: timed("quad.ortho_grid", "quad", fn, record=True))
        patch([quad], "orthogonality_check",
              lambda fn: timed("quad.orthogonality_check", "quad", fn, record=True))
        patch([quad], "integrate_ts", self._integrate)
        patch([quad], "integrate_gl", self._integrate)
        patch([quad], "expected_norm", lambda fn: timed("quad.expected_norm", "quad", fn))
        patch([multiindex.MultiIndexedPair], "to_json",
              lambda fn: timed("cli.serialize", "cli", fn, record=True))
        patch([rtable.RTable], "to_rows", lambda fn: timed("cli.serialize", "cli", fn, record=True))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results ------------------------------------------------------------

    def metrics(self, run_s: float, bytes_out: int) -> dict:
        """Per-layer metrics of this pass (trace.overhead_frac is set by the caller)."""
        st, counts = self.stats, self.counts
        out = {}
        calls = sum(self.builds.values())
        out["multiindex.build.calls"] = calls
        out["multiindex.build.unique"] = len(self.builds)
        out["multiindex.build.redundancy"] = calls / len(self.builds) if self.builds else 0.0
        for f in FAMILIES:
            for m in range(MAX_M + 1):
                out[f"multiindex.build.{f}.M{m}.s"] = self.build_s.get((f, m), 0.0)
        out["multiindex.build.max_coeff_bits"] = self.max_coeff_bits
        out["exact.matrix.det.calls"] = st["exact.matrix.det"][0]
        out["exact.matrix.det.s"] = st["exact.matrix.det"][1]
        for op in ("mul", "laurent_mul", "exact_div"):
            out[f"exact.poly.{op}.calls"] = st[f"exact.poly.{op}"][0]
            out[f"exact.poly.{op}.s"] = st[f"exact.poly.{op}"][1]
        out["exact.scalars.gaussian_mul.calls"] = counts["exact.scalars.gaussian_mul.calls"]
        out["exact.scalars.sqrtq_mul.calls"] = counts["exact.scalars.sqrtq_mul.calls"]
        info = self._classical_poly.cache_info()
        out["families.classical_poly.hits"] = info.hits
        out["families.classical_poly.misses"] = info.misses
        out["families.three_term.calls"] = counts["families.three_term.calls"]
        for name in ("reduce_to_eta", "x_shift"):
            out[f"families.{name}.calls"] = st[f"families.{name}"][0]
            out[f"families.{name}.s"] = st[f"families.{name}"][1]
        out["rtable.build_rtable.calls"] = st["rtable.build_rtable"][0]
        out["rtable.build_rtable.s"] = st["rtable.build_rtable"][1]
        out["rtable.check.s"] = st["rtable.check"][1]
        for tag in VERIFY_TAGS.values():
            out[f"verify.{tag}.s"] = st[f"verify.{tag}"][1]
        out["verify.genericity_probe.s"] = st["verify.genericity_probe"][1]
        out["quad.orthogonality_check.calls"] = st["quad.orthogonality_check"][0]
        out["quad.orthogonality_check.s"] = st["quad.orthogonality_check"][1]
        out["quad.integrate.s"] = st["quad.integrate"][1]
        evals = counts["quad.integrand.evals"]
        out["quad.integrand.evals"] = evals
        out["quad.integrand.us_per_eval"] = 1e6 * st["quad.integrate"][1] / evals if evals else 0.0
        out["quad.expected_norm.s"] = st["quad.expected_norm"][1]
        _, main_s, main_self = st["cli.main"]
        out["cli.main.s"] = main_s
        out["cli.serialize.s"] = st["cli.serialize"][1]
        out["cli.bytes_out"] = bytes_out
        for layer in TIMED_LAYERS:
            out[f"layer.{layer}.self_s"] = self.layer_self.get(layer, 0.0)
            out[f"layer.{layer}.incl_s"] = self.layer_incl.get(layer, 0.0)
        out["trace.unattributed_frac"] = main_self / main_s if main_s else 0.0
        out["trace.coverage"] = main_s / run_s if run_s else 0.0
        return out

    def item_breakdown(self) -> dict:
        """Per root span: seconds, seconds not under any probe, and run_all's children."""
        out = {}
        by_id = {}
        for span in self.spans:
            by_id[span["id"]] = span
            if span["parent"] is None:
                total = span["end"] - span["start"]
                out[span["item"]] = {"s": total, "unattributed_s": total - span["covered"],
                                     "run_all": defaultdict(float)}
        for span in self.spans:
            parent = by_id.get(span["parent"])
            if parent is not None and parent["name"] == "verify.run_all":
                out[span["item"]]["run_all"][span["name"]] += span["end"] - span["start"]
        return out
