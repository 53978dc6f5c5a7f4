"""Span tracer for the kee benchmark's traced runs.

`Tracer.install` replaces every public function of the package at every
module that binds it (``geometry.tau_of_s`` and ``cli.tau_of_s`` are
separate bindings, and each gets its own wrapper around the original), so
calls made through module globals inside the package are seen too.  Each
call becomes one span: name, binding site, start, end, parent span, op id,
whether it raised, and one optional integer payload (knot count of a built
map, bytes of a rendered report, points of a residual grid).  Spans live in
flat `array` buffers until `dump` writes them to one ``.npz`` file.

The tracer keeps one call stack, so it assumes the traced program runs on
one thread; the benchmark refuses to run with ``KEE_THREADS`` set, which is
what keeps the package's sweeps serial.

Run as a script it is the traced child of the cold-CLI workload:

    python3 kee_bench/tracer.py SPANS.npz -- verify --n 1 --beta1 0.5

imports the package under an ``import.package`` span, installs the
wrappers, runs the CLI with the remaining arguments, writes the spans and
exits with the CLI's status.
"""

from __future__ import annotations

import sys
import time
import types
from array import array

PACKAGE = "hirzebruch_kee"
LAYERS = ("profile", "legendre", "geometry", "quadrature", "cohomology",
          "limits", "cli")
# private names that the per-layer metrics need besides the public API
EXTRA_NAMES = {"cli": ("_sweep",)}


def _knots(args, kwargs, result):
    knots = getattr(result, "q_knots", None)
    return -1 if knots is None else len(knots)


def _render_bytes(args, kwargs, result):
    return len(result)


def _grid_points(args, kwargs, result):
    grid = kwargs["grid"] if "grid" in kwargs else args[2]
    return len(grid)


COLUMNS = ("name_id", "site_id", "start", "end", "parent", "op", "raised", "payload")

PAYLOAD = {
    "legendre.build_map": _knots,
    "cli.render": _render_bytes,
    "geometry.einstein_residual": _grid_points,
}


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.site_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.raised = array("b")
        self.payload = array("q")
        self.current_op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[types.ModuleType, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name: str, site: str = "bench") -> int:
        """Start a span by hand (ops, imports); close it with `close`."""
        idx = len(self.start)
        self.name_id.append(self._intern(name))
        self.site_id.append(self._intern(site))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.raised.append(0)
        self.payload.append(-1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int, raised: bool = False) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        if raised:
            self.raised[idx] = 1

    def _wrap(self, fn, qualname: str, site: str):
        name_id, site_id = self._intern(qualname), self._intern(site)
        extract = PAYLOAD.get(qualname)
        stack, clock = self._stack, time.perf_counter
        name_ids, site_ids, starts, ends = self.name_id, self.site_id, self.start, self.end
        parents, ops, raised, payload = self.parent, self.op, self.raised, self.payload

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(name_id)
            site_ids.append(site_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.current_op)
            raised.append(0)
            payload.append(-1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[idx] = clock()
                stack.pop()
                raised[idx] = 1
                raise
            ends[idx] = clock()
            stack.pop()
            if extract is not None:
                payload[idx] = extract(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self) -> int:
        """Wrap every package function at each of its binding sites.

        Returns the number of bindings wrapped.  Only plain functions defined
        in a package layer are wrapped; classes, constants and bindings of
        foreign functions are left alone.
        """
        modules = [sys.modules[PACKAGE]] + [sys.modules[f"{PACKAGE}.{layer}"]
                                            for layer in LAYERS]
        for mod in modules:
            site = mod.__name__.rpartition(".")[2] if mod.__name__ != PACKAGE else PACKAGE
            extra = EXTRA_NAMES.get(site, ())
            for attr, obj in list(vars(mod).items()):
                if not isinstance(obj, types.FunctionType):
                    continue
                if attr.startswith("_") and attr not in extra:
                    continue
                home = obj.__module__ or ""
                if not home.startswith(PACKAGE + "."):
                    continue
                layer = home.rpartition(".")[2]
                if layer not in LAYERS:
                    continue
                self._undo.append((mod, attr, obj))
                setattr(mod, attr, self._wrap(obj, f"{layer}.{obj.__name__}", site))
        return len(self._undo)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._undo):
            setattr(mod, attr, obj)
        self._undo.clear()

    def table(self) -> dict:
        """The spans as numpy columns (copies), plus the interned names."""
        import numpy as np
        cols = {key: np.array(getattr(self, key)) for key in COLUMNS}
        cols["names"] = np.array(self.names)
        return cols

    def dump(self, path) -> None:
        save(path, self.table())


def save(path, table: dict) -> None:
    import numpy as np
    np.savez_compressed(path, **table)


def load(path) -> dict:
    import numpy as np
    with np.load(path) as data:
        return {key: data[key] for key in data.files}


def concat(parts: list[dict]) -> dict:
    """Join span tables of several processes into one; names are re-interned
    and parent indices shifted so each part keeps its own tree."""
    import numpy as np
    ids: dict[str, int] = {}
    cols = {key: [] for key in COLUMNS}
    offset = 0
    for part in parts:
        remap = np.array([ids.setdefault(str(nm), len(ids)) for nm in part["names"]],
                         dtype=np.int32)
        for key in cols:
            col = part[key]
            if key in ("name_id", "site_id"):
                col = remap[col] if len(col) else col
            elif key == "parent":
                col = np.where(col >= 0, col + offset, -1)
            cols[key].append(col)
        offset += len(part["start"])
    out = {k: np.concatenate(v) for k, v in cols.items()}
    out["names"] = np.array(list(ids))
    return out


def _main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        raise SystemExit("usage: tracer.py SPANS.npz -- <kee arguments>")
    spans_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    tracer.current_op = 0
    idx = tracer.open("import.package")
    import hirzebruch_kee.cli  # noqa: F401  (the traced import)
    tracer.close(idx)
    tracer.install()
    status = 1
    try:
        status = sys.modules[f"{PACKAGE}.cli"].main(cli_args)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)
    return status


if __name__ == "__main__":
    raise SystemExit(_main(sys.argv[1:]))
