"""Per-layer tracing of pcurv from outside the package.

``Tracer.install`` replaces public functions of the pcurv modules with
timing wrappers; ``Tracer.uninstall`` puts every original back.  The
program is not modified.

* Every binding of a wrapped function is patched: the copies that other
  modules import by name (``from .connection import p_curvature``), the
  package re-exports and class aliases such as ``__radd__ = __add__``.
  Callers outside the package must look functions up on their module at
  call time (``cli.run_scenario``), or they bypass the wrappers.
* Stage functions record one span per call.  Hot kernels (``Poly`` and
  ``OperatorElement`` arithmetic, the H bracket, the parser) record no
  span: they add to totals and to the counters of the enclosing span.
* Self time is inclusive time minus the time of the wrapped calls made
  inside.  Inclusive time counts only the outermost active call of a name,
  so recursion is not counted twice; ``det`` recursion is folded into the
  outermost call entirely.
* Spans stay in memory; the caller writes them out at the end.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

clock = time.perf_counter


def _poly_pairs(args, result):
    a, b = args[0], args[1]
    other = len(b.terms) if hasattr(b, "terms") else int(b % a.ring.p != 0)
    return len(a.terms) * other


def _terms_out(args, result):
    return len(getattr(result, "terms", ()))


def _psi_terms(args, result):
    return sum(len(entry.terms) for m in result.psi for row in m for entry in row)


def _charpoly_terms(args, result):
    return len(result.value.terms)


STAGE, KERNEL = "stage", "kernel"

# (metric name, module, attribute path, kind, count function, fold recursion)
TARGETS = (
    ("poly.mul", "pcurv.poly", "Poly.__mul__", KERNEL, _poly_pairs, False),
    ("poly.add", "pcurv.poly", "Poly.__add__", KERNEL, None, False),
    ("poly.derive", "pcurv.poly", "Poly.derive", KERNEL, None, False),
    ("poly.parse", "pcurv.poly", "parse_poly", KERNEL, None, False),
    ("poly.det", "pcurv.poly", "det", STAGE, None, True),
    ("operators.mul", "pcurv.operators", "OperatorElement.__mul__", KERNEL, _terms_out, False),
    ("operators.add", "pcurv.operators", "OperatorElement.__add__", KERNEL, None, False),
    ("operators.battery", "pcurv.operators", "check_enveloping_p_structure", STAGE, None, False),
    ("operators.lie_polynomials", "pcurv.operators", "lie_polynomials", STAGE, None, False),
    ("operators.p_curvature_element", "pcurv.operators", "p_curvature_element", STAGE, None, False),
    ("algebroid.validate", "pcurv.algebroid", "validate_algebroid", STAGE, None, False),
    ("algebroid.validate", "pcurv.algebroid", "validate_p_structure", STAGE, None, False),
    ("algebroid.h_bracket", "pcurv.algebroid", "AlgebroidPresentation.h_bracket", KERNEL, None, False),
    ("algebroid.p_operation", "pcurv.algebroid", "AlgebroidPresentation.p_operation", KERNEL, None, False),
    ("connection.flatness", "pcurv.connection", "validate_flatness", STAGE, None, False),
    ("connection.p_curvature", "pcurv.connection", "p_curvature", STAGE, _psi_terms, False),
    ("connection.matpow", "pcurv.connection", "MatrixDiffOp.__pow__", STAGE, None, False),
    ("connection.p_linearity", "pcurv.connection", "check_p_linearity", STAGE, None, False),
    ("connection.oracle", "pcurv.connection", "check_abstract_action_oracle", STAGE, None, False),
    ("connection.commutation", "pcurv.connection", "check_flat_commutation", STAGE, None, False),
    ("hitchin.invariants", "pcurv.hitchin", "hitchin_invariants", STAGE, None, False),
    ("hitchin.charpoly", "pcurv.hitchin", "characteristic_polynomial", STAGE, _charpoly_terms, False),
    ("hitchin.trace_flatness", "pcurv.hitchin", "validate_trace_flatness", STAGE, None, False),
    ("hitchin.descend", "pcurv.hitchin", "descend_invariants", STAGE, None, False),
    ("cli.load_scenario", "pcurv.cli", "load_scenario", STAGE, None, False),
    ("cli.report_json", "pcurv.cli", "Report.to_json", STAGE, None, False),
    ("cli.run_scenario", "pcurv.cli", "run_scenario", STAGE, None, False),
    ("cli.identity_suite", "pcurv.cli", "identity_suite", STAGE, None, False),
)


@dataclass
class Stat:
    calls: int = 0
    incl_s: float = 0.0   # outermost calls only
    self_s: float = 0.0
    count: int = 0        # what the target's count function measures


@dataclass
class Span:
    id: int
    parent: int | None
    job: str | None
    name: str
    start: float
    end: float = 0.0
    self_s: float = 0.0
    error: str | None = None
    kernels: dict = field(default_factory=dict)  # name -> [calls, self_s]

    def to_dict(self) -> dict:
        return dict(vars(self))


class Tracer:
    """Timing wrappers around pcurv's public functions, with their totals
    (``stats``) and the stage spans they recorded (``spans``)."""

    def __init__(self):
        self.stats: dict[str, Stat] = {name: Stat() for name, *_ in TARGETS}
        self.spans: list[Span] = []
        self.job: str | None = None    # tag for the spans of the running job
        self._frames: list = []        # [child time] of each active wrapped call
        self._open: list[Span] = []    # active stage spans
        self._depth = dict.fromkeys(self.stats, 0)
        self._patches: list = []       # (owner, attribute, original)

    def reset(self):
        """Zero the totals (spans are kept)."""
        for name in self.stats:
            self.stats[name] = Stat()

    # -- patching ---------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        owners = _owners()
        for name, module, path, kind, count, fold in TARGETS:
            original = _resolve(sys.modules[module], path)
            wrapper = self._wrap(name, original, kind, count, fold)
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        self._patches.append((owner, attr, original))
                        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- the wrapper --------------------------------------------------------

    def _wrap(self, name, fn, kind, count, fold):
        stats, depth = self.stats, self._depth
        frames, open_spans, spans = self._frames, self._open, self.spans
        is_stage = kind == STAGE

        def traced(*args, **kwargs):
            if fold and depth[name]:
                return fn(*args, **kwargs)
            frame = [0.0]
            frames.append(frame)
            span = None
            if is_stage:
                parent = open_spans[-1].id if open_spans else None
                span = Span(len(spans), parent, self.job, name, 0.0)
                spans.append(span)
                open_spans.append(span)
            depth[name] += 1
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                if span is not None:
                    span.error = type(err).__name__
                raise
            finally:
                end = clock()
                depth[name] -= 1
                frames.pop()
                incl = end - start
                own = incl - frame[0]
                if frames:
                    frames[-1][0] += incl
                stat = stats[name]
                stat.calls += 1
                stat.self_s += own
                if not depth[name]:
                    stat.incl_s += incl
                if count is not None and result is not None and result is not NotImplemented:
                    stat.count += count(args, result)
                if span is not None:
                    open_spans.pop()
                    span.start, span.end, span.self_s = start, end, own
                elif open_spans:
                    k = open_spans[-1].kernels.setdefault(name, [0, 0.0])
                    k[0] += 1
                    k[1] += own

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced


def _resolve(module, path: str):
    """The raw attribute (not a bound method) named by a dotted path."""
    owner, _, attr = path.rpartition(".")
    holder = module
    for part in filter(None, owner.split(".")):
        holder = getattr(holder, part)
    return vars(holder)[attr]


def _owners() -> list:
    """Every pcurv module and every class defined in one."""
    owners = []
    for mod_name, module in sorted(sys.modules.items()):
        if module is None or not (mod_name == "pcurv" or mod_name.startswith("pcurv.")):
            continue
        owners.append(module)
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == mod_name:
                owners.append(value)
    return owners


def snapshot() -> dict:
    """(owner, attribute) -> value for every pcurv module and class, to
    show that ``uninstall`` restored everything."""
    return {
        (id(owner), attr): value for owner in _owners() for attr, value in vars(owner).items()
    }


# -- per-layer metrics -------------------------------------------------------------

# metric -> (stat name, field, unit)
LAYER_METRICS = {
    "poly.mul.calls": ("poly.mul", "calls", "count"),
    "poly.mul.self_s": ("poly.mul", "self_s", "s"),
    "poly.mul.term_pairs": ("poly.mul", "count", "count"),
    "poly.add.calls": ("poly.add", "calls", "count"),
    "poly.add.self_s": ("poly.add", "self_s", "s"),
    "poly.derive.calls": ("poly.derive", "calls", "count"),
    "poly.derive.self_s": ("poly.derive", "self_s", "s"),
    "poly.det.incl_s": ("poly.det", "incl_s", "s"),
    "poly.parse.self_s": ("poly.parse", "self_s", "s"),
    "operators.mul.calls": ("operators.mul", "calls", "count"),
    "operators.mul.self_s": ("operators.mul", "self_s", "s"),
    "operators.mul.incl_s": ("operators.mul", "incl_s", "s"),
    "operators.mul.terms_out": ("operators.mul", "count", "count"),
    "operators.add.calls": ("operators.add", "calls", "count"),
    "operators.add.self_s": ("operators.add", "self_s", "s"),
    "operators.battery.incl_s": ("operators.battery", "incl_s", "s"),
    "operators.lie_polynomials.incl_s": ("operators.lie_polynomials", "incl_s", "s"),
    "operators.p_curvature_element.incl_s": ("operators.p_curvature_element", "incl_s", "s"),
    "algebroid.validate.incl_s": ("algebroid.validate", "incl_s", "s"),
    "algebroid.h_bracket.calls": ("algebroid.h_bracket", "calls", "count"),
    "algebroid.h_bracket.self_s": ("algebroid.h_bracket", "self_s", "s"),
    "algebroid.p_operation.incl_s": ("algebroid.p_operation", "incl_s", "s"),
    "connection.flatness.calls": ("connection.flatness", "calls", "count"),
    "connection.flatness.incl_s": ("connection.flatness", "incl_s", "s"),
    "connection.p_curvature.incl_s": ("connection.p_curvature", "incl_s", "s"),
    "connection.matpow.calls": ("connection.matpow", "calls", "count"),
    "connection.matpow.incl_s": ("connection.matpow", "incl_s", "s"),
    "connection.p_linearity.incl_s": ("connection.p_linearity", "incl_s", "s"),
    "connection.oracle.incl_s": ("connection.oracle", "incl_s", "s"),
    "connection.commutation.incl_s": ("connection.commutation", "incl_s", "s"),
    "connection.psi_terms": ("connection.p_curvature", "count", "count"),
    "hitchin.invariants.calls": ("hitchin.invariants", "calls", "count"),
    "hitchin.invariants.incl_s": ("hitchin.invariants", "incl_s", "s"),
    "hitchin.charpoly_terms": ("hitchin.charpoly", "count", "count"),
    "hitchin.trace_flatness.incl_s": ("hitchin.trace_flatness", "incl_s", "s"),
    "hitchin.descend.incl_s": ("hitchin.descend", "incl_s", "s"),
    "cli.load_scenario.incl_s": ("cli.load_scenario", "incl_s", "s"),
    "cli.report_json.self_s": ("cli.report_json", "self_s", "s"),
    "cli.run_scenario.self_s": ("cli.run_scenario", "self_s", "s"),
}


def layer_metrics(stats: dict) -> dict:
    """Metric name -> value for one traced pass (without the overhead,
    which needs an untraced pass to compare with)."""
    out = {
        metric: getattr(stats[stat], attr) for metric, (stat, attr, _) in LAYER_METRICS.items()
    }
    pairs = out["poly.mul.term_pairs"]
    out["poly.mul.ns_per_pair"] = out["poly.mul.self_s"] * 1e9 / pairs if pairs else 0.0
    return out


LAYER_UNITS = {metric: unit for metric, (_, _, unit) in LAYER_METRICS.items()}
LAYER_UNITS["poly.mul.ns_per_pair"] = "ns"
LAYER_UNITS["trace.overhead_frac"] = "ratio"
