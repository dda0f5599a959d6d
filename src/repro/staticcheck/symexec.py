"""Layer 4 — symbolic execution of generated kernels (RPR400–401, RPR403–406).

The ``compiled`` backend ``exec``-compiles shape-pinned kernels whose
``as_strided`` views carry generation-time literal strides — the exact
construct where a single wrong literal silently reads out-of-bounds
memory, and which no on-disk AST rule can see because the code does not
exist until plan time.  This layer is an abstract interpreter over the
generated source: it symbolically executes every statement the generator
can emit (allocations, pads, strided views, stacked GEMMs, chunked
stores, plane AXPYs) against the :class:`PassPlan` the source was
generated from, and proves the paper's safety story:

========  ==================================================================
RPR400    the prover could not interpret a construct — fail closed: an
          unanalyzable kernel is rejected, never waved through.
RPR401    an ``as_strided(ext, shape, strides)`` view escapes ``ext``'s
          allocation, or its shape/strides/base deviate from the plan's
          dual-tessellation geometry (Eq. 5 runs over the §3.4
          zero-extended tile).
RPR402    retired (it proved the gather LUTs of a kernel body that is
          no longer generated); the number is not reused.
RPR403    chunk stores fail to tile the shift axis ``[0, x_valid)``
          disjointly and completely (Eq. 13 decomposition), or an
          ``np.empty`` buffer is read before every row was written.
RPR404    GEMM operands do not conform, the weight constants are not the
          plan's Figure-3 triangular stacks, the contraction width
          disagrees with the plan's MMA accounting, or a pinned shape
          (guard / reshape / return) breaks.
RPR405    dtype is not float64 end-to-end (wrong ``dtype=`` literal,
          non-float64 weight constant, promotion).
RPR406    accumulation is fed by dict/set iteration — nondeterministic
          op order breaks the bit-identity contract.
========  ==================================================================

Everything is proven *statically*: the kernel is parsed, never executed.
Shapes are affine in the single symbolic ``batch`` dimension (all other
extents are generation-time literals), so in-bounds facts are decided for
every batch ≥ 1 at once.  Like layer 2, expectations are re-derived here
from the plan (not imported from the generator), so a generator bug
cannot self-certify.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.staticcheck.finding import Finding, sort_findings, source_snippet

__all__ = [
    "check_gemm_spec",
    "check_generated",
    "check_generated_catalog",
]

#: Loop-unroll ceiling for the pinned chunk loop; a generated kernel
#: needing more iterations than this is rejected (RPR400) rather than
#: making the prover unbounded.
_MAX_ITERATIONS = 4096

_FLOAT64 = "float64"


class _Unsupported(Exception):
    """Raised when the interpreter meets a construct it cannot model."""


# ---------------------------------------------------------------------------
# affine integers: c0 + c1·batch  (batch is the only symbolic extent)
# ---------------------------------------------------------------------------


class Sym:
    """An integer affine in the symbolic batch size: ``c0 + c1*batch``."""

    __slots__ = ("c0", "c1")

    def __init__(self, c0: int, c1: int = 0) -> None:
        self.c0 = int(c0)
        self.c1 = int(c1)

    @staticmethod
    def of(value) -> "Sym":
        if isinstance(value, Sym):
            return value
        if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
            return Sym(int(value))
        raise _Unsupported(f"non-integer extent {value!r}")

    def __add__(self, other) -> "Sym":
        o = Sym.of(other)
        return Sym(self.c0 + o.c0, self.c1 + o.c1)

    def __sub__(self, other) -> "Sym":
        o = Sym.of(other)
        return Sym(self.c0 - o.c0, self.c1 - o.c1)

    def __mul__(self, other) -> "Sym":
        o = Sym.of(other)
        if self.c1 and o.c1:
            raise _Unsupported("product quadratic in batch")
        return Sym(
            self.c0 * o.c0, self.c0 * o.c1 + self.c1 * o.c0
        )

    def __eq__(self, other) -> bool:  # type: ignore[override]
        try:
            o = Sym.of(other)
        except _Unsupported:
            return NotImplemented
        return self.c0 == o.c0 and self.c1 == o.c1

    def __hash__(self) -> int:
        return hash((self.c0, self.c1))

    @property
    def is_literal(self) -> bool:
        return self.c1 == 0

    def literal(self) -> int:
        if not self.is_literal:
            raise _Unsupported("symbolic extent where a literal is required")
        return self.c0

    def at1(self) -> int:
        """Value at ``batch == 1`` — the smallest batch the kernel accepts."""
        return self.c0 + self.c1

    def __repr__(self) -> str:
        if self.c1 == 0:
            return str(self.c0)
        if self.c0 == 0:
            return "batch" if self.c1 == 1 else f"{self.c1}*batch"
        return f"{self.c0}+{self.c1}*batch"


def _always_le(a: Sym, b: Sym) -> bool:
    """True when ``a <= b`` for every batch ≥ 1."""
    d = b - a
    return d.c1 >= 0 and d.at1() >= 0


def _prod(dims: Sequence[Sym]) -> Sym:
    total = Sym(1)
    for d in dims:
        total = total * Sym.of(d)
    return total


def _shp(dims: Sequence[Sym]) -> str:
    return "(" + ", ".join(repr(Sym.of(d)) for d in dims) + ")"


# ---------------------------------------------------------------------------
# abstract arrays and allocations
# ---------------------------------------------------------------------------


class Alloc:
    """One backing allocation, sized in bytes (affine in batch)."""

    __slots__ = ("size_bytes", "label")

    def __init__(self, size_bytes: Sym, label: str) -> None:
        self.size_bytes = size_bytes
        self.label = label


class Arr:
    """An abstract ndarray: shape/strides over an allocation, plus the
    write-coverage bookkeeping ``np.empty`` buffers need (RPR403)."""

    __slots__ = (
        "shape",
        "dtype",
        "alloc",
        "base_off",
        "strides",
        "contig",
        "role",
        "data",
        "needs_cover",
        "cover_axis",
        "covered",
    )

    def __init__(
        self,
        shape: Sequence,
        dtype: str,
        *,
        alloc: Optional[Alloc] = None,
        base_off: int = 0,
        strides: Optional[Tuple[int, ...]] = None,
        contig: bool = False,
        role: str = "tmp",
        data: Optional[np.ndarray] = None,
        needs_cover: bool = False,
    ) -> None:
        self.shape: Tuple[Sym, ...] = tuple(Sym.of(d) for d in shape)
        self.dtype = dtype
        self.alloc = alloc
        self.base_off = int(base_off)
        self.strides = strides
        self.contig = contig
        self.role = role
        self.data = data
        self.needs_cover = needs_cover
        self.cover_axis: Optional[int] = None
        self.covered: List[Tuple[int, int]] = []

    @property
    def ndim(self) -> int:
        return len(self.shape)

    def contiguous_strides(self, itemsize: int = 8) -> Tuple[int, ...]:
        """Byte strides of a C-contiguous array of this shape.

        Only the leading extent may be symbolic, so every stride is a
        generation-time literal — exactly the generator's invariant.
        """
        strides: List[int] = []
        acc = itemsize
        for dim in reversed(self.shape[1:]):
            strides.append(acc)
            acc *= dim.literal()
        strides.append(acc)
        return tuple(reversed(strides))


def _fresh(shape, dtype, role, label, **kw) -> Arr:
    shape_syms = tuple(Sym.of(d) for d in shape)
    itemsize = 8  # float64 — the only dtype the prover admits
    alloc = Alloc(_prod(shape_syms) * Sym(itemsize), label)
    arr = Arr(shape_syms, dtype, alloc=alloc, contig=True, role=role, **kw)
    arr.strides = arr.contiguous_strides(itemsize)
    return arr


def _merge_intervals(ivals: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    out: List[Tuple[int, int]] = []
    for lo, hi in sorted(ivals):
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


# ---------------------------------------------------------------------------
# plan-derived expectations (re-derived, never imported from the generator)
# ---------------------------------------------------------------------------


class _Expect:
    """Everything the plan says the generated kernel *must* look like."""

    def __init__(self, pp) -> None:
        k = pp.kernel.edge
        g = k + 1
        self.k, self.g = k, g
        self.ndim = pp.ndim
        self.r_groups = int(pp.offsets.shape[0]) if pp.offsets is not None else 0
        r = self.r_groups
        needed = (r - 1) * g + 2 * k
        self.contraction = k if pp.ndim == 1 else k * k
        self.weights: Dict[str, np.ndarray] = {}
        self.axpy_queue: List[float] = []
        self.views: List[Tuple[Tuple[Sym, ...], Tuple[int, ...], int]] = []
        batch = Sym(0, 1)

        if pp.ndim == 1:
            (n,) = pp.padded_shape
            self.n_ext = max(n, needed)
            self.guard_shape = tuple(pp.padded_shape)
            self.return_shape = (Sym(n - k + 1),)
            self.weights["_WA"] = np.asarray(pp.weights[0], dtype=np.float64)
            self.weights["_WB"] = np.asarray(pp.weights[1], dtype=np.float64)
            spec = ((Sym(r), Sym(k)), (8 * g, 8))
            self.views = [(spec[0], spec[1], 0), (spec[0], spec[1], 8 * k)]
        elif pp.ndim == 2:
            m, n = pp.padded_shape
            self.n_ext = max(n, needed)
            x_valid, y_valid = m - k + 1, n - k + 1
            # the 2-D kernel takes a stack of padded grids (leading batch axis)
            self.guard_shape = tuple(pp.padded_shape)
            self.return_shape = (batch, Sym(x_valid), Sym(y_valid))
            shape = (batch, Sym(x_valid), Sym(k), Sym(r), Sym(k))
            strides = (8 * m * self.n_ext, 8 * self.n_ext, 8 * self.n_ext,
                       8 * g, 8)
            self.weights["_WA_FLAT"] = self._flat(pp.weights[0], k, g)
            self.weights["_WB_FLAT"] = self._flat(pp.weights[1], k, g)
            self.views = [(shape, strides, 0), (shape, strides, 8 * k)]
        else:
            pz_pad, px_pad, py_pad = pp.padded_shape
            pz = pz_pad - k + 1
            x_valid = px_pad - k + 1
            self.n_ext = max(py_pad, needed)
            self.guard_shape = tuple(pp.padded_shape)
            self.return_shape = (Sym(pz), Sym(x_valid), Sym(py_pad - k + 1))
            shape = (Sym(pz), Sym(x_valid), Sym(k), Sym(r), Sym(k))
            strides = (8 * px_pad * self.n_ext, 8 * self.n_ext, 8 * self.n_ext,
                       8 * g, 8)
            for dz, kind, payload in pp.planes:
                if kind == "axpy":
                    self.axpy_queue.append(float(payload[2]))
                elif kind == "conv2d":
                    wa, wb = pp.weights_by_plane[dz]
                    self.weights[f"_WA_FLAT_{dz}"] = self._flat(wa, k, g)
                    self.weights[f"_WB_FLAT_{dz}"] = self._flat(wb, k, g)
                    self.views.append((shape, strides, 0))
                    self.views.append((shape, strides, 8 * k))

    @staticmethod
    def _flat(w, k: int, g: int) -> np.ndarray:
        return np.asarray(w, dtype=np.float64).reshape(k * k, g)


# ---------------------------------------------------------------------------
# the interpreter
# ---------------------------------------------------------------------------

_ROLE_RULE = {"view": "RPR401", "ext": "RPR401", "input": "RPR401",
              "out": "RPR403"}


class _Interp:
    """Abstract interpreter over one generated ``compiled_pass`` body."""

    def __init__(self, file: str, pp, expect: _Expect,
                 constants: Dict[str, object]) -> None:
        self.file = file
        self.pp = pp
        self.exp = expect
        self.constants = dict(constants)
        self.env: Dict[str, object] = {}
        self.findings: List[Finding] = []
        self.returned = False
        self._view_idx = 0
        self._axpy_idx = 0

    # -- findings ----------------------------------------------------------

    def _f(self, rule: str, node, message: str, fix_hint: str = "") -> None:
        line = node if isinstance(node, int) else int(getattr(node, "lineno", 0))
        self.findings.append(
            Finding(rule_id=rule, severity="error", file=self.file,
                    line=line, message=message, fix_hint=fix_hint)
        )

    # -- driver ------------------------------------------------------------

    def run(self, tree: ast.Module) -> None:
        fn = None
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                if node.name != "compiled_pass" or fn is not None:
                    raise _Unsupported(
                        f"unexpected top-level function {node.name!r}"
                    )
                fn = node
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            elif isinstance(node, ast.Expr) and isinstance(
                node.value, ast.Constant
            ) and isinstance(node.value.value, str):
                continue
            else:
                raise _Unsupported(
                    f"unexpected top-level statement {type(node).__name__}"
                )
        if fn is None:
            raise _Unsupported("generated module defines no compiled_pass")
        if len(fn.args.args) != 1 or fn.args.defaults or fn.args.kwonlyargs:
            raise _Unsupported("compiled_pass must take exactly one argument")
        self.env[fn.args.args[0].arg] = self._input_arr()
        for stmt in fn.body:
            self._stmt(stmt)
            if self.returned:
                break
        if not self.returned:
            raise _Unsupported("compiled_pass never returns")
        if self._view_idx < len(self.exp.views):
            self._f(
                "RPR401", 0,
                f"kernel emits {self._view_idx} strided views but the plan "
                f"geometry requires {len(self.exp.views)}",
            )
        if self._axpy_idx < len(self.exp.axpy_queue):
            self._f(
                "RPR404", 0,
                f"kernel performs {self._axpy_idx} plane AXPYs but the plan "
                f"decomposition has {len(self.exp.axpy_queue)}",
            )

    def _input_arr(self) -> Arr:
        shape = tuple(self.pp.padded_shape)
        if self.exp.ndim == 2:
            shape = (Sym(0, 1),) + shape
        arr = _fresh(shape, "unknown", "input", "input")
        arr.contig = False  # callers may pass any layout
        return arr

    # -- statements --------------------------------------------------------

    def _stmt(self, node: ast.stmt) -> None:
        if isinstance(node, ast.Expr):
            if isinstance(node.value, ast.Constant) and isinstance(
                node.value.value, str
            ):
                return  # docstring
            raise _Unsupported("expression statement with a side effect")
        if isinstance(node, ast.Assign):
            if len(node.targets) != 1:
                raise _Unsupported("multi-target assignment")
            target = node.targets[0]
            value = self._eval(node.value)
            if isinstance(target, ast.Name):
                self.env[target.id] = value
                return
            if isinstance(target, ast.Subscript):
                self._store(target, value, node)
                return
            raise _Unsupported(f"assignment to {type(target).__name__}")
        if isinstance(node, ast.AugAssign):
            self._augassign(node)
            return
        if isinstance(node, ast.If):
            self._if(node)
            return
        if isinstance(node, ast.For):
            self._for(node)
            return
        if isinstance(node, ast.Return):
            self._return(node)
            return
        raise _Unsupported(f"statement {type(node).__name__}")

    def _augassign(self, node: ast.AugAssign) -> None:
        if not isinstance(node.op, ast.Add) or not isinstance(
            node.target, ast.Name
        ):
            raise _Unsupported("only `name += expr` accumulation is emitted")
        target = self.env.get(node.target.id)
        if not isinstance(target, Arr):
            raise _Unsupported(f"+= into non-array {node.target.id!r}")
        value = self._read(self._eval(node.value), node.value)
        if not isinstance(value, Arr):
            raise _Unsupported("+= of a non-array value")
        if tuple(value.shape) != tuple(target.shape):
            self._f(
                "RPR404", node,
                f"accumulation shape mismatch: {node.target.id} is "
                f"{_shp(target.shape)} but the added value is "
                f"{_shp(value.shape)}",
            )
        if _FLOAT64 in (target.dtype, value.dtype) and target.dtype != value.dtype:
            self._f(
                "RPR405", node,
                f"accumulation mixes dtypes {target.dtype} += {value.dtype}",
                fix_hint="generated kernels must stay float64 end-to-end",
            )

    def _if(self, node: ast.If) -> None:
        # Shape guard: `if <shape test>: raise TessellationError(...)`.
        if len(node.body) == 1 and isinstance(node.body[0], ast.Raise):
            self._check_guard(node)
            return
        # Contiguity upgrade: `if not x.flags.c_contiguous: x = np.ascont...`.
        test = node.test
        if (
            isinstance(test, ast.UnaryOp)
            and isinstance(test.op, ast.Not)
            and isinstance(test.operand, ast.Attribute)
            and test.operand.attr == "c_contiguous"
        ):
            # Conservatively take the branch: afterwards the array is
            # contiguous on both paths, which is all downstream code needs.
            for stmt in node.body:
                self._stmt(stmt)
            return
        # Concrete remainder clamp inside the pinned chunk loop.
        if isinstance(test, ast.Compare) and len(test.ops) == 1 and isinstance(
            test.ops[0], ast.Gt
        ):
            left = Sym.of(self._eval(test.left)).literal()
            right = Sym.of(self._eval(test.comparators[0])).literal()
            if left > right:
                for stmt in node.body:
                    self._stmt(stmt)
            elif node.orelse:
                for stmt in node.orelse:
                    self._stmt(stmt)
            return
        raise _Unsupported("unrecognised if-statement")

    def _check_guard(self, node: ast.If) -> None:
        """The pinned-shape guard must pin exactly the plan's padded shape."""
        pinned = None
        for cmp_node in ast.walk(node.test):
            if not isinstance(cmp_node, ast.Compare):
                continue
            rhs = cmp_node.comparators[0]
            if isinstance(rhs, ast.Tuple):
                dims = []
                for elt in rhs.elts:
                    if not isinstance(elt, ast.Constant):
                        raise _Unsupported("non-literal shape guard")
                    dims.append(int(elt.value))
                pinned = tuple(dims)
        if pinned is None:
            raise _Unsupported("guard without a literal shape comparison")
        if pinned != tuple(self.exp.guard_shape):
            self._f(
                "RPR404", node,
                f"shape guard pins {pinned} but the plan's padded shape is "
                f"{tuple(self.exp.guard_shape)}",
                fix_hint="the guard must reject every shape the plan was "
                "not built for",
            )

    def _for(self, node: ast.For) -> None:
        if node.orelse or not isinstance(node.target, ast.Name):
            raise _Unsupported("loop with else-clause or tuple target")
        it = node.iter
        if not (
            isinstance(it, ast.Call)
            and isinstance(it.func, ast.Name)
            and it.func.id == "range"
        ):
            raise _Unsupported("loop over a non-range iterable")
        args = [Sym.of(self._eval(a)).literal() for a in it.args]
        values = list(range(*args))
        if len(values) > _MAX_ITERATIONS:
            raise _Unsupported(
                f"chunk loop needs {len(values)} iterations "
                f"(> {_MAX_ITERATIONS})"
            )
        for value in values:
            self.env[node.target.id] = Sym(value)
            for stmt in node.body:
                self._stmt(stmt)

    def _return(self, node: ast.Return) -> None:
        self.returned = True
        if node.value is None:
            raise _Unsupported("bare return")
        value = self._read(self._eval(node.value), node.value)
        if not isinstance(value, Arr):
            raise _Unsupported("returning a non-array")
        if tuple(value.shape) != tuple(self.exp.return_shape):
            self._f(
                "RPR404", node,
                f"kernel returns {_shp(value.shape)} but the plan's valid "
                f"region is {_shp(self.exp.return_shape)}",
            )
        if value.dtype != _FLOAT64:
            self._f(
                "RPR405", node,
                f"kernel returns dtype {value.dtype}, not float64",
            )

    # -- reads, stores, coverage ------------------------------------------

    def _read(self, value, node):
        """Mark a value as consumed; an uncovered np.empty read is RPR403."""
        if isinstance(value, Arr) and value.needs_cover:
            axis = value.cover_axis
            dim = value.shape[axis].literal() if axis is not None else None
            merged = _merge_intervals(value.covered)
            if axis is None or merged != [(0, dim)]:
                self._f(
                    "RPR403", node,
                    "np.empty buffer read before the chunk stores covered "
                    f"axis {axis} completely (covered {merged}, need "
                    f"[(0, {dim})])",
                    fix_hint="chunk ranges must tile [0, x_valid) per Eq. 13",
                )
            value.needs_cover = False  # report once
        return value

    def _store(self, target: ast.Subscript, value, node) -> None:
        base = self.env.get(target.value.id) if isinstance(
            target.value, ast.Name
        ) else None
        if not isinstance(base, Arr):
            raise _Unsupported("subscript store into a non-array")
        value = self._read(value, node)
        if not isinstance(value, Arr):
            raise _Unsupported("storing a non-array block")
        slices = self._slices(target, base.ndim)
        region: List[Sym] = []
        chunk_axis = None
        chunk: Optional[Tuple[int, int]] = None
        for axis, (lo, hi) in enumerate(slices):
            dim = base.shape[axis]
            if lo is None and hi is None:
                region.append(dim)
                continue
            lo_i = 0 if lo is None else Sym.of(lo).literal()
            hi_i = dim.literal() if hi is None else Sym.of(hi).literal()
            if chunk_axis is not None:
                raise _Unsupported("store slicing more than one axis")
            chunk_axis = axis
            chunk = (lo_i, hi_i)
            region.append(Sym(hi_i - lo_i))
        if chunk_axis is None or chunk is None:
            raise _Unsupported("store without a chunk slice")
        dim = base.shape[chunk_axis].literal()
        if not (0 <= chunk[0] <= chunk[1] <= dim):
            self._f(
                "RPR403", node,
                f"chunk store [{chunk[0]}, {chunk[1]}) escapes axis "
                f"{chunk_axis} of extent {dim}",
            )
        if tuple(region) != tuple(value.shape):
            self._f(
                "RPR403", node,
                f"chunk store region {_shp(region)} does not match the "
                f"stored block {_shp(value.shape)}",
            )
        if value.dtype != base.dtype:
            self._f(
                "RPR405", node,
                f"chunk store narrows/widens dtype {value.dtype} -> "
                f"{base.dtype}",
            )
        if base.needs_cover:
            if base.cover_axis is None:
                base.cover_axis = chunk_axis
            elif base.cover_axis != chunk_axis:
                raise _Unsupported("chunk stores disagree on the shift axis")
            for lo, hi in base.covered:
                if chunk[0] < hi and lo < chunk[1]:
                    self._f(
                        "RPR403", node,
                        f"chunk [{chunk[0]}, {chunk[1]}) overlaps an earlier "
                        f"store [{lo}, {hi}) — Eq. 13 chunks must be disjoint",
                    )
            base.covered.append(chunk)

    def _slices(self, node: ast.Subscript, ndim: int):
        """Normalise a subscript into per-axis ``(lo, hi)`` pairs.

        Full slices come back as ``(None, None)``; missing trailing axes
        are full.  Integer indexing is not emitted by the generator.
        """
        sl = node.slice
        items = list(sl.elts) if isinstance(sl, ast.Tuple) else [sl]
        out: List[Tuple[Optional[Sym], Optional[Sym]]] = []
        for item in items:
            if not isinstance(item, ast.Slice):
                raise _Unsupported("non-slice subscript")
            if item.step is not None:
                raise _Unsupported("strided slice")
            lo = None if item.lower is None else Sym.of(self._eval(item.lower))
            hi = None if item.upper is None else Sym.of(self._eval(item.upper))
            out.append((lo, hi))
        if len(out) > ndim:
            raise _Unsupported("subscript has more axes than the array")
        out.extend([(None, None)] * (ndim - len(out)))
        return out

    # -- expressions -------------------------------------------------------

    def _eval(self, node: ast.expr):
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool):
                raise _Unsupported("boolean constant")
            if isinstance(node.value, int):
                return Sym(node.value)
            if isinstance(node.value, (float, str)):
                return node.value
            raise _Unsupported(f"constant {node.value!r}")
        if isinstance(node, ast.Name):
            return self._name(node)
        if isinstance(node, ast.Tuple):
            return tuple(self._eval(elt) for elt in node.elts)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            operand = self._eval(node.operand)
            if isinstance(operand, float):
                return -operand
            return Sym(0) - Sym.of(operand)
        if isinstance(node, ast.BinOp):
            return self._binop(node)
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, ast.Attribute):
            return self._attribute(node)
        if isinstance(node, ast.Subscript):
            return self._subscript(node)
        raise _Unsupported(f"expression {type(node).__name__}")

    def _name(self, node: ast.Name):
        name = node.id
        if name in self.env:
            return self.env[name]
        if name in self.constants:
            arr = self._wrap_constant(name, node)
            self.env[name] = arr
            return arr
        if name in ("np", "as_strided", "TessellationError", "range"):
            return f"<{name}>"
        raise _Unsupported(f"unknown name {name!r}")

    def _wrap_constant(self, name: str, node) -> Arr:
        value = self.constants[name]
        if not isinstance(value, np.ndarray):
            raise _Unsupported(f"non-array constant {name!r}")
        if value.dtype != np.dtype(_FLOAT64):
            self._f(
                "RPR405", node,
                f"constant {name} has dtype {value.dtype}, expected {_FLOAT64}",
            )
        return Arr(value.shape, str(value.dtype), contig=True, role="weight",
                   data=value)

    def _attribute(self, node: ast.Attribute):
        value = self._eval(node.value)
        if node.attr == "shape" and isinstance(value, Arr):
            return tuple(value.shape)
        if node.attr == "float64" and value == "<np>":
            return "<np.float64>"
        if node.attr == "float32" and value == "<np>":
            return "<np.float32>"
        raise _Unsupported(f"attribute .{node.attr}")

    def _subscript(self, node: ast.Subscript):
        base = self._eval(node.value)
        if isinstance(base, tuple):  # e.g. stack.shape[0]
            if isinstance(node.slice, ast.Constant):
                return base[int(node.slice.value)]
            raise _Unsupported("non-literal tuple index")
        if not isinstance(base, Arr):
            raise _Unsupported("subscript of a non-array")
        slices = self._slices(node, base.ndim)
        shape: List[Sym] = []
        base_off = base.base_off
        data = base.data
        strides = base.strides
        rule = _ROLE_RULE.get(base.role, "RPR404")
        if base.needs_cover:
            rule = "RPR403"
        np_index: List[slice] = []
        for axis, (lo, hi) in enumerate(slices):
            dim = base.shape[axis]
            lo_s = Sym(0) if lo is None else lo
            hi_s = dim if hi is None else hi
            if not _always_le(Sym(0), lo_s) or not _always_le(hi_s, dim):
                self._f(
                    rule, node,
                    f"slice [{lo_s!r}:{hi_s!r}] escapes axis {axis} of "
                    f"extent {dim!r}",
                )
                hi_s = dim
            if not _always_le(lo_s, hi_s):
                self._f(rule, node, f"empty/negative slice on axis {axis}")
            shape.append(hi_s - lo_s)
            if strides is not None and not lo_s == Sym(0):
                base_off += lo_s.literal() * strides[axis]
            if data is not None:
                np_index.append(slice(
                    lo_s.literal(), None if hi is None else hi_s.literal()
                ))
        if data is not None:
            data = data[tuple(np_index)]
        out = Arr(shape, base.dtype, alloc=base.alloc, base_off=base_off,
                  strides=strides, contig=False, role=base.role, data=data)
        if base.needs_cover:
            # Reading any slice of an np.empty buffer demands full coverage.
            self._read(base, node)
        return out

    def _binop(self, node: ast.BinOp):
        left = self._eval(node.left)
        right = self._eval(node.right)
        if isinstance(node.op, ast.MatMult):
            return self._matmul(left, right, node)
        if isinstance(node.op, ast.Mult):
            if isinstance(left, float) and isinstance(right, Arr):
                return self._axpy(left, right, node)
            return Sym.of(left) * Sym.of(right)
        if isinstance(node.op, ast.Add):
            return Sym.of(left) + Sym.of(right)
        if isinstance(node.op, ast.Sub):
            return Sym.of(left) - Sym.of(right)
        raise _Unsupported(f"operator {type(node.op).__name__}")

    def _axpy(self, weight: float, arr: Arr, node) -> Arr:
        """A 3-D single-point plane: ``w * padded[dz:, dx:, dy:]``."""
        expected = self.exp.axpy_queue
        if self._axpy_idx >= len(expected):
            self._f(
                "RPR404", node,
                "AXPY plane not present in the plan's decomposition",
            )
        else:
            want = expected[self._axpy_idx]
            if weight != want:
                self._f(
                    "RPR404", node,
                    f"AXPY weight {weight!r} != plan plane weight {want!r}",
                )
        self._axpy_idx += 1
        if arr.dtype != _FLOAT64:
            self._f("RPR405", node, f"AXPY over dtype {arr.dtype}")
        return Arr(arr.shape, _FLOAT64, contig=True, role="tmp")

    def _matmul(self, left, right, node) -> Arr:
        if not isinstance(left, Arr) or not isinstance(right, Arr):
            raise _Unsupported("matmul of non-arrays")
        self._read(left, node)
        if right.role != "weight" or right.data is None:
            self._f(
                "RPR404", node,
                "GEMM right operand is not a generation-time weight constant",
            )
        if left.ndim < 2 or right.ndim != 2:
            raise _Unsupported("matmul rank not (stacked 2-D) @ 2-D")
        inner = left.shape[-1]
        rows, cols = right.shape
        if inner != rows:
            self._f(
                "RPR404", node,
                f"GEMM operands do not conform: left {_shp(left.shape)} @ "
                f"weights {_shp(right.shape)}",
            )
        want = self.exp.contraction
        if not (inner == Sym(want) and rows == Sym(want)):
            self._f(
                "RPR404", node,
                f"GEMM contracts {inner!r} rows but the plan's MMA "
                f"accounting (Eq. 13) is built on {want}",
            )
        if not cols == Sym(self.exp.g):
            self._f(
                "RPR404", node,
                f"GEMM width {cols!r} != group width {self.exp.g}",
            )
        # Weight *values* must be the plan's triangular stacks.
        name = self._weight_name(node.right)
        if name is not None:
            want_w = self.exp.weights.get(name)
            if want_w is None:
                self._f(
                    "RPR404", node,
                    f"weight constant {name} is not part of this plan",
                )
            elif right.data is not None and (
                right.data.shape != want_w.shape
                or not np.array_equal(right.data, want_w)
            ):
                self._f(
                    "RPR404", node,
                    f"weight constant {name} deviates from the plan's "
                    "Figure-3 triangular stack",
                )
        dtype = _FLOAT64
        if left.dtype != _FLOAT64 or right.dtype != _FLOAT64:
            self._f(
                "RPR405", node,
                f"GEMM promotes dtypes {left.dtype} @ {right.dtype}",
            )
            dtype = left.dtype
        shape = tuple(left.shape[:-1]) + (cols,)
        return Arr(shape, dtype, contig=True, role="tmp")

    @staticmethod
    def _weight_name(node: ast.expr) -> Optional[str]:
        return node.id if isinstance(node, ast.Name) else None

    # -- calls -------------------------------------------------------------

    def _call(self, node: ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute):
            target = self._eval(func.value)
            if target == "<np>":
                return self._np_call(func.attr, node)
            if isinstance(target, Arr):
                return self._method(target, func.attr, node)
            raise _Unsupported(f"call on {target!r}")
        if isinstance(func, ast.Name):
            if func.id == "as_strided":
                return self._as_strided(node)
            raise _Unsupported(f"call to {func.id!r}")
        raise _Unsupported("indirect call")

    def _dtype_kwarg(self, node: ast.Call, required: bool):
        for kw in node.keywords:
            if kw.arg == "dtype":
                value = self._eval(kw.value)
                if value == "<np.float64>":
                    return _FLOAT64
                self._f(
                    "RPR405", node,
                    f"allocation dtype is {str(value).strip('<>')}, "
                    "not np.float64",
                    fix_hint="generated kernels are float64 end-to-end "
                    "(Table 3 double-precision contract)",
                )
                return "float32" if "float32" in str(value) else "unknown"
        if required:
            self._f(
                "RPR405", node,
                "allocation without an explicit dtype=np.float64",
            )
        return None

    def _np_call(self, attr: str, node: ast.Call):
        if attr == "asarray":
            arr = self._eval(node.args[0])
            if not isinstance(arr, Arr):
                raise _Unsupported("asarray of a non-array")
            dtype = self._dtype_kwarg(node, required=False)
            if dtype is None:
                self._f(
                    "RPR405", node,
                    "input is not coerced with dtype=np.float64",
                )
                dtype = arr.dtype
            out = Arr(arr.shape, dtype, alloc=arr.alloc,
                      base_off=arr.base_off, strides=arr.strides,
                      contig=arr.contig, role=arr.role)
            return out
        if attr == "ascontiguousarray":
            arr = self._read(self._eval(node.args[0]), node)
            if not isinstance(arr, Arr):
                raise _Unsupported("ascontiguousarray of a non-array")
            return _fresh(arr.shape, arr.dtype, arr.role, "contig-copy")
        if attr == "pad":
            return self._pad(node)
        if attr in ("empty", "zeros"):
            shape = self._eval(node.args[0])
            if not isinstance(shape, tuple):
                shape = (shape,)
            dtype = self._dtype_kwarg(node, required=True) or "unknown"
            arr = _fresh(shape, dtype, "out", f"np.{attr}")
            arr.needs_cover = attr == "empty"
            return arr
        if attr == "float64":
            value = self._eval(node.args[0])
            if isinstance(value, Sym):
                return float(value.literal())
            if isinstance(value, float):
                return value
            raise _Unsupported("np.float64 of a non-number")
        raise _Unsupported(f"np.{attr}")

    def _pad(self, node: ast.Call):
        arr = self._read(self._eval(node.args[0]), node)
        if not isinstance(arr, Arr):
            raise _Unsupported("pad of a non-array")
        for kw in node.keywords:
            if kw.arg == "mode":
                if self._eval(kw.value) != "constant":
                    raise _Unsupported("pad mode other than 'constant'")
        widths = self._eval(node.args[1])
        if not isinstance(widths, tuple):
            raise _Unsupported("non-tuple pad widths")
        if widths and isinstance(widths[0], tuple):
            pairs = widths
        else:
            pairs = (widths,) * arr.ndim
        if len(pairs) != arr.ndim:
            self._f(
                "RPR404", node,
                f"pad widths cover {len(pairs)} axes but the array has "
                f"{arr.ndim}",
            )
            pairs = tuple(pairs[:arr.ndim]) + ((Sym(0), Sym(0)),) * (
                arr.ndim - len(pairs)
            )
        shape = []
        for dim, (before, after) in zip(arr.shape, pairs):
            before_i = Sym.of(before).literal()
            after_i = Sym.of(after).literal()
            if before_i < 0 or after_i < 0:
                raise _Unsupported("negative pad width")
            shape.append(dim + Sym(before_i + after_i))
        return _fresh(shape, arr.dtype, "ext", "np.pad")

    def _method(self, arr: Arr, attr: str, node: ast.Call):
        if attr == "transpose":
            perm = [Sym.of(self._eval(a)).literal() for a in node.args]
            if sorted(perm) != list(range(arr.ndim)):
                self._f(
                    "RPR404", node,
                    f"transpose{tuple(perm)} is not a permutation of "
                    f"{arr.ndim} axes",
                )
                return arr
            shape = tuple(arr.shape[p] for p in perm)
            strides = (
                tuple(arr.strides[p] for p in perm)
                if arr.strides is not None
                else None
            )
            return Arr(shape, arr.dtype, alloc=arr.alloc,
                       base_off=arr.base_off, strides=strides,
                       contig=False, role=arr.role, data=arr.data)
        if attr == "reshape":
            dims = [self._eval(a) for a in node.args]
            if len(dims) == 1 and isinstance(dims[0], tuple):
                dims = list(dims[0])
            old = _prod(arr.shape)
            flat = [Sym.of(d) for d in dims]
            if len(flat) == 1 and flat[0] == Sym(-1):
                return Arr((old,), arr.dtype, contig=arr.contig, role="tmp")
            new = _prod(flat)
            if not new == old:
                self._f(
                    "RPR404", node,
                    f"reshape{_shp(flat)} does not conserve the "
                    f"{old!r} elements of {_shp(arr.shape)}",
                )
            return Arr(flat, arr.dtype, contig=True, role="tmp")
        raise _Unsupported(f"method .{attr}")

    # -- the proved primitive ---------------------------------------------

    def _as_strided(self, node: ast.Call) -> Arr:
        if len(node.args) != 3:
            raise _Unsupported("as_strided without explicit shape+strides")
        base = self._eval(node.args[0])
        shape = self._eval(node.args[1])
        strides = self._eval(node.args[2])
        if not isinstance(base, Arr) or not isinstance(shape, tuple) \
                or not isinstance(strides, tuple):
            raise _Unsupported("as_strided over unknown operands")
        shape_s = tuple(Sym.of(d) for d in shape)
        strides_i = tuple(Sym.of(s).literal() for s in strides)
        if len(shape_s) != len(strides_i):
            self._f(
                "RPR401", node,
                f"as_strided rank mismatch: shape {_shp(shape_s)} vs "
                f"{len(strides_i)} strides",
            )
            return Arr(shape_s, base.dtype, role="view")
        # Structural proof: the view must be exactly the plan's window
        # geometry (shape, strides, and base offset into ext).
        rel_base = base.base_off
        if isinstance(node.args[0], ast.Subscript) and isinstance(
            node.args[0].value, ast.Name
        ):
            root = self.env.get(node.args[0].value.id)
            if isinstance(root, Arr):
                rel_base = base.base_off - root.base_off
        elif isinstance(node.args[0], ast.Name):
            rel_base = 0
        if self._view_idx >= len(self.exp.views):
            self._f(
                "RPR401", node,
                "as_strided view not part of the plan's window geometry",
            )
        else:
            want_shape, want_strides, want_base = self.exp.views[self._view_idx]
            if shape_s != tuple(want_shape):
                self._f(
                    "RPR401", node,
                    f"window view shape {_shp(shape_s)} != plan geometry "
                    f"{_shp(want_shape)}",
                )
            if strides_i != tuple(want_strides):
                self._f(
                    "RPR401", node,
                    f"window view strides {strides_i} != plan geometry "
                    f"{tuple(want_strides)} (Eq. 5 contiguous-run elision)",
                    fix_hint="strides must be (.., 8*n_ext, 8*(k+1), 8) over "
                    "the dirty-zone-extended row",
                )
            if rel_base != want_base:
                self._f(
                    "RPR401", node,
                    f"window view starts {rel_base} bytes into ext, plan "
                    f"geometry says {want_base} (matrix-B shift is 8*k)",
                )
        self._view_idx += 1
        # In-bounds proof: the farthest byte the view can touch must stay
        # inside the allocation, for every batch >= 1.
        if base.alloc is not None:
            last = Sym(base.base_off)
            for dim, stride in zip(shape_s, strides_i):
                if stride < 0:
                    self._f(
                        "RPR401", node,
                        f"negative stride {stride} in a window view",
                    )
                    continue
                if not _always_le(Sym(1), dim):
                    self._f(
                        "RPR401", node,
                        f"window view has empty extent {dim!r}",
                    )
                    continue
                last = last + (dim - Sym(1)) * Sym(stride)
            if not _always_le(last + Sym(8), base.alloc.size_bytes):
                self._f(
                    "RPR401", node,
                    f"window view reaches byte {last!r} but {base.alloc.label} "
                    f"allocates only {base.alloc.size_bytes!r} bytes — "
                    "out-of-bounds read",
                    fix_hint="the dirty zone must extend the row to "
                    "(r_groups-1)*(k+1) + 2k columns (§3.4)",
                )
        return Arr(shape_s, base.dtype, alloc=base.alloc,
                   base_off=base.base_off, strides=strides_i,
                   contig=False, role="view")


# ---------------------------------------------------------------------------
# determinism scan (RPR406) — plain AST, no interpretation needed
# ---------------------------------------------------------------------------


def _scan_determinism(tree: ast.Module, file: str) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.For):
            continue
        it = node.iter
        bad = None
        if isinstance(it, (ast.Dict, ast.Set, ast.DictComp, ast.SetComp)):
            bad = "a dict/set literal"
        elif isinstance(it, ast.Call) and isinstance(it.func, ast.Attribute) \
                and it.func.attr in ("keys", "values", "items"):
            bad = f"a .{it.func.attr}() view"
        elif isinstance(it, ast.Call) and isinstance(it.func, ast.Name) \
                and it.func.id in ("set", "frozenset"):
            bad = "a set()"
        if bad:
            findings.append(
                Finding(
                    rule_id="RPR406",
                    severity="error",
                    file=file,
                    line=int(node.lineno),
                    message=f"loop iterates {bad} — unordered iteration "
                    "feeding accumulation breaks bit-identical op order",
                    fix_hint="iterate a sorted/stable sequence resolved at "
                    "generation time",
                )
            )
    return findings


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------


def check_gemm_spec(spec, label: str = "") -> List[Finding]:
    """Statically verify one :class:`~repro.codegen.specs.GemmSpec`.

    Independently re-derives the Eq.-13 fragment decomposition: chunk
    starts must tile ``[0, contraction_rows)`` exactly once each (the
    overlapped final chunk contributing only its non-zeroed suffix), and
    the implied ``mma_sync`` count must match ``2·⌈k²/4⌉·⌈(k+1)/8⌉``.
    Violations are RPR403/RPR404 findings under ``file="gemm:<label>"``.
    """
    from repro.staticcheck.plan_invariants import eq13_mma_count
    from repro.utils.arrays import ceil_div

    k, g, rows = spec.edge, spec.group, spec.contraction_rows
    file = f"gemm:{label or f'edge{k}'}"

    def f(rule: str, message: str, fix_hint: str = "") -> Finding:
        return Finding(rule_id=rule, severity="error", file=file, line=0,
                       message=message, fix_hint=fix_hint)

    findings: List[Finding] = []
    if g != k + 1:
        findings.append(f("RPR404", f"group width {g} != edge+1 = {k + 1}"))
    if rows not in (k, k * k):
        findings.append(
            f("RPR404",
              f"contraction_rows {rows} is neither k={k} (1-D) nor "
              f"k²={k * k} (2-D)")
        )
        return findings
    if len(spec.chunk_starts) != len(spec.chunk_zero_prefixes):
        findings.append(
            f("RPR404", "chunk starts and zero prefixes differ in length")
        )
        return findings
    want_chunks = max(1, ceil_div(rows, 4))
    if spec.chunks != want_chunks:
        findings.append(
            f("RPR404",
              f"{spec.chunks} fragment chunks for {rows} contraction rows; "
              f"Eq. 13 requires ceil(rows/4) = {want_chunks}")
        )
    if spec.mma_per_tile != 2 * spec.chunks:
        findings.append(
            f("RPR404",
              f"mma_per_tile {spec.mma_per_tile} != 2 chains x "
              f"{spec.chunks} chunks")
        )
    if rows == k * k and g <= 8:
        want = eq13_mma_count(k)
        have = spec.mma_per_tile * ceil_div(g, 8)
        if have != want:
            findings.append(
                f("RPR404",
                  f"spec implies {have} MMAs per tile, Eq. 13 says {want}")
            )
    covered: List[Tuple[int, int]] = []
    frag_rows = max(rows, 4)
    for start, zero in zip(spec.chunk_starts, spec.chunk_zero_prefixes):
        if not (0 <= zero <= 4):
            findings.append(f("RPR403", f"zero prefix {zero} outside [0, 4]"))
            continue
        if start < 0 or start + 4 > frag_rows:
            findings.append(
                f("RPR403",
                  f"fragment chunk [{start}, {start + 4}) escapes the "
                  f"{rows}-row contraction",
                  fix_hint="the final chunk must overlap backwards, not "
                  "overshoot (§3.3, Figure 5)")
            )
            continue
        lo, hi = start + zero, min(start + 4, rows)
        for plo, phi in covered:
            if lo < phi and plo < hi:
                findings.append(
                    f("RPR403",
                      f"chunk rows [{lo}, {hi}) double-accumulate rows "
                      f"already covered by [{plo}, {phi})",
                      fix_hint="the overlapped chunk must zero its re-read "
                      "prefix")
                )
        if lo < hi:
            covered.append((lo, hi))
    if _merge_intervals(covered) != [(0, rows)]:
        findings.append(
            f("RPR403",
              f"fragment chunks cover {_merge_intervals(covered)} of the "
              f"[0, {rows}) contraction — incomplete Eq. 13 tiling")
        )
    return findings


def check_generated(gen, pp) -> List[Finding]:
    """Symbolically execute one generated kernel against its pass plan.

    ``gen`` is a :class:`repro.codegen.compiled.GeneratedPass` (name,
    source, constants, gemm, origin); ``pp`` the
    :class:`~repro.runtime.plan.PassPlan` it was generated from.  Returns
    every violated safety property as an error :class:`Finding` (empty
    list == proven safe); an uninterpretable kernel yields RPR400 — the
    prover fails closed.
    """
    file = f"{gen.name}.py"
    findings: List[Finding] = []
    try:
        tree = ast.parse(gen.source)
    except SyntaxError as exc:
        findings.append(
            Finding(rule_id="RPR400", severity="error", file=file,
                    line=int(getattr(exc, "lineno", 0) or 0),
                    message=f"generated source does not parse: {exc.msg}")
        )
        tree = None
    if tree is not None:
        expect = _Expect(pp)
        interp = _Interp(file, pp, expect, dict(gen.constants))
        try:
            interp.run(tree)
        except _Unsupported as exc:
            interp.findings.append(
                Finding(
                    rule_id="RPR400", severity="error", file=file, line=0,
                    message=f"prover cannot interpret this kernel: {exc}",
                    fix_hint="extend symexec or simplify the generator; "
                    "unproven kernels are rejected, not waved through",
                )
            )
        except Exception as exc:  # fail closed, never crash the gate
            interp.findings.append(
                Finding(
                    rule_id="RPR400", severity="error", file=file, line=0,
                    message="prover crashed interpreting this kernel: "
                    f"{type(exc).__name__}: {exc}",
                )
            )
        findings.extend(interp.findings)
        findings.extend(_scan_determinism(tree, file))
    findings.extend(check_gemm_spec(gen.gemm, label=pp.kernel.name))
    obs.count("staticcheck.kernels_checked")
    out = []
    for f in findings:
        snippet = source_snippet(gen.source, f.line) if f.line > 0 else ""
        out.append(f.with_context(gen.origin, snippet))
    return sort_findings(out)


def check_generated_catalog() -> Tuple[List[Finding], int]:
    """Prove every catalogued kernel's generated code.

    Sweeps the same kernel population as layer 2's
    :func:`~repro.staticcheck.plan_invariants.check_plan_catalog` — every
    catalogued kernel at the awkward catalog shapes, fusion depths 1 and
    2, base and fused passes — one generated kernel per pass (the 2-D
    one takes a leading batch axis).  Returns ``(findings, kernels_checked)``.
    """
    from repro.codegen.compiled import generate_pass
    from repro.runtime.plan import build_plan
    from repro.staticcheck.plan_invariants import _CATALOG_SHAPES
    from repro.stencils.catalog import get_kernel, list_kernels

    findings: List[Finding] = []
    checked = 0
    for kernel_name in list_kernels():
        kernel = get_kernel(kernel_name)
        for depth in (1, 2):
            plan = build_plan(
                kernel, _CATALOG_SHAPES[kernel.ndim], fusion=depth, strategy="gemm"
            )
            passes = [plan.base_pass]
            if plan.fused_pass is not plan.base_pass:
                passes.append(plan.fused_pass)
            for pp in passes:
                findings.extend(check_generated(generate_pass(pp), pp))
                checked += 1
    return findings, checked
