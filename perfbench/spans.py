"""Span recording around cayleykit's public functions, and per-layer metrics.

``Recorder.install`` wraps the public functions of each layer module and
rebinds every name under which cayleykit code finds them (its own module,
the modules that import it, and the package), so nested calls such as
identify -> is_isomorphic are recorded too.  Nothing in the program changes;
``uninstall`` puts the originals back.

A span is [name, start, end, parent, request, info]: ``parent`` is the
enclosing span (an index once ``finish`` has run), ``request`` the id of the
request it belongs to, and ``info`` the exact work counts computed from the
call's arguments and result.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from collections import defaultdict

LAYERS = ("words", "cosets", "groups", "tables", "graphs", "matrices", "families", "cli")

# Called once per element or per relator letter; wrapping them would cost
# more than the work they do, so their time stays in the caller's span.
PER_ELEMENT = frozenset(
    {"words.label_word", "words.format_word", "words.free_reduce",
     "words.inverse_word", "words.concat", "words.word_power"}
)

METHODS = (("groups", "Group", "__init__"), ("groups", "Group", "fingerprint"))

# span name -> metric bucket; any other span takes its parent's bucket when
# that bucket is in the same layer, else "<layer>.other".  Every cli
# function is cli.main_self: the argument parsing and reporting around the
# layers.
BUCKETS = {
    "words.parse_presentation": "words.parse",
    "words.parse_word": "words.parse",
    "cosets.todd_coxeter": "cosets.todd_coxeter",
    "cosets.group_from_coset_table": "cosets.group_from_coset_table",
    "groups.Group.__init__": "groups.group_init",
    "groups.Group.fingerprint": "groups.fingerprint",
    "groups.identify": "groups.identify",
    "groups.is_isomorphic": "groups.is_isomorphic",
    "tables.parse_table": "tables.parse",
    "tables.latin_check": "tables.latin",
    "tables.associativity_witness": "tables.assoc",
    "tables.group_from_table": "tables.group_from_table",
    "graphs.load_graph_json": "graphs.load",
    "graphs.is_cayley": "graphs.is_cayley",
    "graphs.extract_presentation": "graphs.extract",
    "matrices.matrix_group_closure": "matrices.closure",
    "families.nonabelian_catalog": "families.catalog",
}

CATALOG_SPAN = "families.nonabelian_catalog"

# per-layer metrics reported in seconds of self time, and as exact counts
TIME_METRICS = (
    "words.parse_s", "cosets.todd_coxeter_s", "cosets.group_from_coset_table_s",
    "groups.group_init_s", "groups.fingerprint_s", "groups.identify_s",
    "groups.is_isomorphic_s", "tables.parse_s", "tables.latin_s", "tables.assoc_s",
    "tables.group_from_table_s", "graphs.load_s", "graphs.is_cayley_s",
    "graphs.extract_s", "matrices.closure_s", "families.catalog_s", "cli.main_self_s",
)
COUNT_METRICS = (
    "cosets.calls", "cosets.cosets_total", "cosets.cap_hits", "cosets.scan_letters",
    "groups.iso_calls", "graphs.relator_letters", "graphs.closure_perms",
    "matrices.closure_elements",
)


# --- exact work counts, from arguments and results ----------------------------


def _todd_coxeter(args, result, exc):
    if exc is not None:
        return {"cap_hit": 1} if type(exc).__name__ == "CapExceeded" else None
    letters = sum(len(rel) for rel in args["presentation"].relators)
    return {"cosets": result.num_cosets, "letters": result.num_cosets * letters}


def _is_isomorphic(args, result, exc):
    return None if exc is not None else {"hit": int(result is not None)}


def _extract(args, result, exc):
    return None if exc is not None else {"letters": sum(len(r) for r in result.relators)}


def _is_cayley(args, result, exc):
    if exc is not None:
        return None
    if result.perm_group_order is not None:
        return {"perms": result.perm_group_order}
    # the closure stopped one element past its limit
    limit = args["order_cap"] if args["full_order"] else args["graph"].node_count
    return {"perms": limit + 1}


def _closure(args, result, exc):
    return None if exc is not None else {"elements": result.order}


WORK_COUNTS = {
    "cosets.todd_coxeter": _todd_coxeter,
    "groups.is_isomorphic": _is_isomorphic,
    "graphs.extract_presentation": _extract,
    "graphs.is_cayley": _is_cayley,
    "matrices.matrix_group_closure": _closure,
}


# --- recording --------------------------------------------------------------


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.request = None
        self._root = None  # the running request's outermost span
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def begin(self, request_id):
        self.request = request_id
        self._root = None

    def _wrap(self, name, fn):
        note = WORK_COUNTS.get(name)
        signature = inspect.signature(fn) if note else None
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(rec._local, "stack", None)
            if stack is None:
                stack = rec._local.stack = []
            # a worker thread's first span hangs under the request's root
            parent = stack[-1] if stack else rec._root
            span = [name, 0.0, 0.0, parent, rec.request, None]
            rec.spans.append(span)
            if parent is None:
                rec._root = span
            stack.append(span)
            result = exc = None
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as error:
                exc = error
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if note is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span[5] = note(bound.arguments, result, exc)

        return wrapper

    def install(self):
        """Wrap every public function of the layer modules, everywhere it is bound."""
        pkg = importlib.import_module("cayleykit")
        modules = {layer: importlib.import_module(f"cayleykit.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if attr.startswith("_") or name in PER_ELEMENT or not callable(obj):
                    continue
                if inspect.isclass(obj) or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                wrapped[id(obj)] = (obj, self._wrap(name, obj))
        for mod in (pkg, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and wrapped[id(obj)][0] is obj:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)][1])
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name)
            original = cls.__dict__[meth]
            self._undo.append((cls, meth, original))
            setattr(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def finish(self) -> list[list]:
        """The spans with parents turned into indices; clears the recorder."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        out = []
        for span in self.spans:
            parent = span[3]
            out.append([span[0], span[1], span[2],
                        None if parent is None else index[id(parent)], span[4], span[5]])
        self.spans = []
        return out


# --- arithmetic over finished spans -------------------------------------------


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it covered by its children
    (the union of their intervals, so overlapping threads count once)."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered = 0.0
        cursor = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def buckets(spans) -> list[str]:
    out: list[str] = []
    for name, _, _, parent, *_ in spans:
        layer = name.split(".", 1)[0]
        bucket = BUCKETS.get(name)
        if bucket is None and layer == "cli":
            bucket = "cli.main_self"
        if bucket is None:
            # parents come before children, so out[parent] is already known
            inherited = out[parent] if parent is not None else ""
            bucket = inherited if inherited.startswith(layer + ".") else f"{layer}.other"
        out.append(bucket)
    return out


def layer_times(spans) -> dict[str, float]:
    """Summed self time per bucket, plus families.catalog_s as the inclusive
    time of outermost catalog builds (their enumeration and Group builds
    included), since that is what a change to the catalog would move."""
    totals: dict[str, float] = defaultdict(float)
    for bucket, t in zip(buckets(spans), self_times(spans)):
        totals[bucket + "_s"] += t
    totals["families.catalog_s"] = 0.0
    for name, start, end, parent, *_ in spans:
        if name == CATALOG_SPAN and not _under(spans, parent, CATALOG_SPAN):
            totals["families.catalog_s"] += end - start
    return totals


def _under(spans, i, name) -> bool:
    while i is not None:
        if spans[i][0] == name:
            return True
        i = spans[i][3]
    return False


def layer_counts(spans) -> dict[str, int]:
    c: dict[str, int] = defaultdict(int)
    for name, _, _, _, _, info in spans:
        info = info or {}
        if name == "cosets.todd_coxeter":
            c["cosets.calls"] += 1
            c["cosets.cosets_total"] += info.get("cosets", 0)
            c["cosets.scan_letters"] += info.get("letters", 0)
            c["cosets.cap_hits"] += info.get("cap_hit", 0)
        elif name == "groups.is_isomorphic":
            c["groups.iso_calls"] += 1
            c["groups.iso_hits"] += info.get("hit", 0)
        elif name == "graphs.extract_presentation":
            c["graphs.relator_letters"] += info.get("letters", 0)
        elif name == "graphs.is_cayley":
            c["graphs.closure_perms"] += info.get("perms", 0)
        elif name == "matrices.matrix_group_closure":
            c["matrices.closure_elements"] += info.get("elements", 0)
    return {k: c.get(k, 0) for k in (*COUNT_METRICS, "groups.iso_hits")}
