"""``device_class``: Python class hierarchies lowered onto the machine.

A device class is an ordinary Python class whose *annotations* declare
simulated object fields and whose ``@virtual`` / ``@abstract`` methods
declare virtual-function slots::

    @device_class
    class Shape:
        area: "f32"

        @abstract
        def compute(self, ctx): ...

    @device_class
    class Circle(Shape):
        radius: "f32"

        @virtual
        def compute(self, ctx):
            r = self.radius            # charged global load
            ctx.alu(2)
            self.area = np.float32(3.14159265) * r * r   # charged store

The decorator lowers the class onto the existing machinery: it builds a
:class:`~repro.runtime.typesystem.TypeDescriptor` (single inheritance,
C++-style layout) whose method implementations wrap the Python bodies
in a lane-vector :class:`InstanceView`.  Inside a kernel, ``cls.view(ctx,
ptrs)`` is the device-side view of a batch of object pointers: field
reads/writes become charged ``load_field``/``store_field`` operations
through the execution context, and calling a virtual method routes the
pointers through the machine's active dispatch strategy (``ctx.vcall``)
exactly like the hand-written workloads do.

Host-side (uncharged) accessors -- ``alloc``, ``read_field``,
``write_field`` -- cover object-graph construction and validation,
mirroring the paper's methodology of excluding initialisation from
kernel measurements.
"""
from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..errors import FrontendError
from ..memory.heap import SCALAR_TYPES
from ..runtime.typesystem import TypeDescriptor

#: attribute holding the lowered TypeDescriptor on a device class
_DESCRIPTOR_ATTR = "__device_descriptor__"


class _VirtualMethod:
    """Marker a ``@virtual`` / ``@abstract`` decorator leaves on a body."""

    __slots__ = ("fn", "is_abstract")

    def __init__(self, fn: Callable, is_abstract: bool):
        self.fn = fn
        self.is_abstract = is_abstract


def virtual(fn: Callable) -> _VirtualMethod:
    """Mark ``fn(self, ctx)`` as a virtual-method implementation."""
    return _VirtualMethod(fn, is_abstract=False)


def abstract(fn: Callable) -> _VirtualMethod:
    """Declare a pure-virtual slot (the body is never executed)."""
    return _VirtualMethod(fn, is_abstract=True)


class InstanceView:
    """A device-side view of one lane vector's object pointers.

    Attribute access is the lowering seam: reading a declared field
    charges a global load, assigning one charges a global store, and
    calling a virtual method dispatches through the machine's strategy.
    Anything else is a :class:`FrontendError` -- there is no silent
    fallback onto host Python attributes inside a kernel.
    """

    __slots__ = ("_ctx", "_ptrs", "_cls")

    def __init__(self, ctx, ptrs, cls):
        object.__setattr__(self, "_ctx", ctx)
        object.__setattr__(self, "_ptrs",
                           np.asarray(ptrs, dtype=np.uint64))
        object.__setattr__(self, "_cls", cls)

    # ------------------------------------------------------------------
    @property
    def pointers(self) -> np.ndarray:
        """The (possibly tagged) object pointers this view covers."""
        return self._ptrs

    def __len__(self) -> int:
        return len(self._ptrs)

    # ------------------------------------------------------------------
    def __getattr__(self, name: str):
        cls = self._cls
        if name in cls.__device_fields__:
            return self._ctx.load_field(
                self._ptrs, getattr(cls, _DESCRIPTOR_ATTR), name)
        if name in cls.__device_methods__:
            ctx, ptrs = self._ctx, self._ptrs
            td = getattr(cls, _DESCRIPTOR_ATTR)

            def dispatch(uniform: bool = False):
                return ctx.vcall(ptrs, td, name, uniform=uniform)

            dispatch.__name__ = name
            return dispatch
        raise FrontendError(
            f"{cls.__name__} has no device field or virtual method "
            f"{name!r}; fields: {sorted(cls.__device_fields__)}, "
            f"methods: {sorted(cls.__device_methods__)}"
        )

    def __setattr__(self, name: str, value) -> None:
        cls = self._cls
        if name in cls.__device_fields__:
            self._ctx.store_field(
                self._ptrs, getattr(cls, _DESCRIPTOR_ATTR), name, value)
            return
        raise FrontendError(
            f"cannot assign {name!r} on {cls.__name__}: not a declared "
            f"device field (fields: {sorted(cls.__device_fields__)})"
        )


# ----------------------------------------------------------------------
# the decorator
# ----------------------------------------------------------------------
def device_class(cls=None, *, name: Optional[str] = None):
    """Class decorator lowering a Python class onto the type system.

    Usable bare (``@device_class``), with a name override
    (``@device_class(name="Cell#gol0")``), or programmatically on a
    ``type(...)``-built class (parameterised hierarchies).
    """
    if cls is None:
        return lambda c: _lower_class(c, name)
    return _lower_class(cls, name)


def is_device_class(obj) -> bool:
    return isinstance(obj, type) and _DESCRIPTOR_ATTR in obj.__dict__


def _lower_class(cls, name: Optional[str]):
    if not isinstance(cls, type):
        raise FrontendError(
            f"@device_class expects a class, got {type(cls).__name__}")

    device_bases = [b for b in cls.__bases__ if is_device_class(b)]
    plain_bases = [b for b in cls.__bases__
                   if b is not object and b not in device_bases]
    if plain_bases:
        raise FrontendError(
            f"{cls.__name__}: every base must itself be a device class; "
            f"{plain_bases[0].__name__} is not"
        )
    if len(device_bases) > 1:
        raise FrontendError(
            f"{cls.__name__}: multiple inheritance between device "
            f"classes is not supported (the type system is single-"
            f"inheritance, like the paper's workloads)"
        )
    base_cls = device_bases[0] if device_bases else None
    base_td = getattr(base_cls, _DESCRIPTOR_ATTR) if base_cls else None

    # --- fields: the class's own annotations, in declaration order ---
    fields = []
    for fname, dtype in (cls.__dict__.get("__annotations__") or {}).items():
        if isinstance(dtype, str):
            # under `from __future__ import annotations` the literal
            # "u32" arrives as its source text, quotes included
            dtype = dtype.strip("'\"")
        if not isinstance(dtype, str) or dtype not in SCALAR_TYPES:
            raise FrontendError(
                f"{cls.__name__}.{fname}: field dtype must be one of "
                f"{sorted(SCALAR_TYPES)}, got {dtype!r}"
            )
        fields.append((fname, dtype))

    # --- methods: @virtual/@abstract markers; overriding a virtual
    # slot with a plain function is the classic silent C++ bug
    # (non-virtual override), so it is an error here ---
    inherited_slots = set(base_td.vtable_slots()) if base_td else set()
    methods = {}
    bodies = {}
    for mname, mval in list(cls.__dict__.items()):
        if isinstance(mval, _VirtualMethod):
            bodies[mname] = mval
            methods[mname] = None  # patched below once the class is wired
            delattr_safe(cls, mname)
        elif callable(mval) and mname in inherited_slots:
            raise FrontendError(
                f"{cls.__name__}.{mname} overrides virtual method "
                f"{mname!r} without @virtual (a non-virtual override "
                f"would silently bypass dynamic dispatch)"
            )

    overlap = {f for f, _ in fields} & (set(methods) | inherited_slots)
    if overlap:
        raise FrontendError(
            f"{cls.__name__}: {sorted(overlap)} declared both as field "
            f"and as virtual method"
        )

    td = TypeDescriptor(name or cls.__name__, fields=fields,
                        methods=methods, base=base_td)
    # wire the concrete bodies now that the class identity exists: each
    # impl runs the Python body over a view of its lanes
    for mname, marker in bodies.items():
        if not marker.is_abstract:
            td.own_methods[mname] = _make_impl(cls, marker.fn)

    setattr(cls, _DESCRIPTOR_ATTR, td)
    cls.__device_fields__ = frozenset(f.name for f in td.all_fields())
    cls.__device_methods__ = frozenset(td.vtable_slots())

    for helper in (_descriptor, _view, _alloc, _read_field, _write_field):
        setattr(cls, helper.__name__.lstrip("_"), classmethod(helper))
    return cls


def delattr_safe(cls, name: str) -> None:
    try:
        delattr(cls, name)
    except AttributeError:  # pragma: no cover - slotted/odd classes
        pass


def _make_impl(cls, fn: Callable):
    """Wrap ``fn(self, ctx)`` as a ``impl(ctx, objs)`` vtable entry."""

    def impl(ctx, objs):
        return fn(InstanceView(ctx, objs, cls), ctx)

    impl.__name__ = fn.__name__
    impl.__qualname__ = getattr(fn, "__qualname__", fn.__name__)
    return impl


# ----------------------------------------------------------------------
# classmethod helpers attached to every device class
# ----------------------------------------------------------------------
def _descriptor(cls) -> TypeDescriptor:
    """The lowered :class:`TypeDescriptor` of this device class."""
    return getattr(cls, _DESCRIPTOR_ATTR)


def _view(cls, ctx, ptrs) -> InstanceView:
    """Device-side view of ``ptrs`` inside a kernel (charged access)."""
    return InstanceView(ctx, ptrs, cls)


def _alloc(cls, machine, count: int) -> np.ndarray:
    """Allocate ``count`` objects on ``machine``; returns pointers."""
    td = getattr(cls, _DESCRIPTOR_ATTR)
    if td.is_abstract():
        raise FrontendError(
            f"cannot allocate abstract device class {cls.__name__} "
            f"(pure-virtual slots: "
            f"{[m for m, i in zip(td.vtable_slots(), td.vtable_impls()) if i is None]})"
        )
    return machine.new_objects(td, count)


def _read_field(cls, machine, ptrs, field: str) -> np.ndarray:
    """Host-side (uncharged) gather of a field over object pointers."""
    td = getattr(cls, _DESCRIPTOR_ATTR)
    arr = np.atleast_1d(np.asarray(ptrs, dtype=np.uint64))
    return machine.read_field(arr, td, field)


def _write_field(cls, machine, ptrs, field: str, values) -> None:
    """Host-side (uncharged) scatter into a field (initialisation)."""
    td = getattr(cls, _DESCRIPTOR_ATTR)
    lay = machine.registry.layout(td)
    arr = np.atleast_1d(np.asarray(ptrs, dtype=np.uint64))
    np_dtype = SCALAR_TYPES[lay.dtype(field)][0]
    machine.write_field(arr, lay, field,
                        np.asarray(values, dtype=np_dtype))
