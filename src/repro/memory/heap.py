"""A flat, byte-addressable simulated device memory.

All objects, vTables, the COAL virtual range table and workload arrays
live at concrete addresses inside this heap, so the SIMT executor sees
real address streams (the whole point of the paper is address-dependent
behaviour).  Backed by a numpy byte array that grows on demand.

Addresses handed to the heap must be canonical (no TypePointer tag
bits); the MMU is responsible for stripping/faulting before access.
"""
from __future__ import annotations

import numpy as np

from ..errors import InvalidAddress
from .address_space import ADDR_MASK

#: dtype name -> (numpy dtype, size in bytes)
SCALAR_TYPES = {
    "u8": (np.uint8, 1),
    "u16": (np.uint16, 2),
    "u32": (np.uint32, 4),
    "i32": (np.int32, 4),
    "u64": (np.uint64, 8),
    "i64": (np.int64, 8),
    "f32": (np.float32, 4),
    "f64": (np.float64, 8),
}

#: scalar size -> log2(size), for aligned byte-address -> element index
_SHIFT = {1: 0, 2: 1, 4: 2, 8: 3}

#: atomic op name -> the ufunc that folds an operand into the heap
ATOMIC_UFUNCS = {"add": np.add, "min": np.minimum, "max": np.maximum}


class Heap:
    """Byte-addressable backing store for the simulated GPU memory.

    The heap reserves address 0 as a null guard: the first
    ``null_guard`` bytes are unmapped so null-pointer dereferences fault
    just as they would on hardware.
    """

    def __init__(self, capacity: int = 1 << 22, null_guard: int = 256):
        if capacity <= null_guard:
            raise ValueError("heap capacity must exceed the null guard region")
        self._data = np.zeros(capacity, dtype=np.uint8)
        self._limit = capacity          # current backing-array size
        self._brk = null_guard          # first never-handed-out address
        self.null_guard = null_guard
        self._views = {}                # dtype -> typed view (see _typed_view)

    # ------------------------------------------------------------------
    # address-space management
    # ------------------------------------------------------------------
    @property
    def brk(self) -> int:
        """One past the highest address ever reserved via :meth:`sbrk`."""
        return self._brk

    def sbrk(self, size: int, alignment: int = 16) -> int:
        """Reserve ``size`` bytes of fresh address space and return its base.

        This is the primitive all allocators build on.  The returned
        region is zero-initialised.
        """
        if size < 0:
            raise ValueError(f"negative sbrk size {size}")
        base = (self._brk + alignment - 1) & ~(alignment - 1)
        end = base + size
        if end > ADDR_MASK:
            raise InvalidAddress(f"address space exhausted at {end:#x}")
        while end > self._limit:
            self._grow()
        self._brk = end
        return base

    def _grow(self) -> None:
        new_limit = self._limit * 2
        grown = np.zeros(new_limit, dtype=np.uint8)
        grown[: self._limit] = self._data
        self._data = grown
        self._limit = new_limit
        self._views = {}

    def _check_range(self, addr: int, size: int) -> None:
        if addr < self.null_guard:
            raise InvalidAddress(f"access at {addr:#x} inside the null guard page")
        if addr + size > self._brk:
            raise InvalidAddress(
                f"access at {addr:#x}+{size} beyond heap break {self._brk:#x}"
            )

    # ------------------------------------------------------------------
    # scalar access (host-side / construction-time)
    # ------------------------------------------------------------------
    def load(self, addr: int, dtype: str):
        """Load one scalar of ``dtype`` ('u32', 'f64', ...) from ``addr``."""
        np_dtype, size = SCALAR_TYPES[dtype]
        self._check_range(addr, size)
        return self._data[addr : addr + size].view(np_dtype)[0]

    def store(self, addr: int, dtype: str, value) -> None:
        """Store one scalar of ``dtype`` at ``addr``."""
        np_dtype, size = SCALAR_TYPES[dtype]
        self._check_range(addr, size)
        self._data[addr : addr + size].view(np_dtype)[0] = value

    # ------------------------------------------------------------------
    # vectorised access (warp-wide, used by the SIMT executor)
    # ------------------------------------------------------------------
    def gather(self, addrs: np.ndarray, dtype: str) -> np.ndarray:
        """Load one scalar per lane from per-lane addresses.

        ``addrs`` is a uint64 array of canonical addresses.  Misaligned
        addresses are allowed (GPUs allow them for <=8B scalars); out of
        range addresses raise :class:`InvalidAddress`.
        """
        np_dtype, size = SCALAR_TYPES[dtype]
        if addrs.size == 0:
            return np.empty(0, dtype=np_dtype)
        a = self.check_lanes(addrs, size, "gather")
        if size == 1:
            return self._data[a].view(np_dtype)
        if not (a & (size - 1)).any():
            # aligned fast path: one typed fancy index over a heap view
            return self._typed_view(size, np_dtype)[a >> _SHIFT[size]]
        offsets = np.arange(size, dtype=np.int64)
        flat = self._data[(a[:, None] + offsets[None, :]).ravel()]
        return flat.reshape(len(a), size).copy().view(np_dtype).ravel()

    def scatter(self, addrs: np.ndarray, dtype: str, values: np.ndarray) -> None:
        """Store one scalar per lane to per-lane addresses.

        Duplicate addresses follow last-writer-wins in lane order, which
        matches the (undefined but deterministic-in-practice) behaviour
        our deterministic executor needs.
        """
        np_dtype, size = SCALAR_TYPES[dtype]
        if addrs.size == 0:
            return
        a = self.check_lanes(addrs, size, "scatter")
        vals = np.ascontiguousarray(values, dtype=np_dtype)
        if size == 1 or not (a & (size - 1)).any():
            self._typed_view(size, np_dtype)[a >> _SHIFT[size]] = vals
            return
        byte_view = vals.view(np.uint8).reshape(len(a), size)
        offsets = np.arange(size, dtype=np.int64)
        self._data[(a[:, None] + offsets[None, :]).ravel()] = byte_view.ravel()

    def atomic(self, addrs: np.ndarray, dtype: str, values, op: str) -> None:
        """Lane-ordered atomic read-modify-write (atomicAdd/Min/Max).

        Lanes apply in array order, each seeing the previous lane's
        result -- what the hardware's serialised atomic units guarantee.
        Aligned addresses take one unbuffered ``ufunc.at`` on the typed
        heap view, which applies its updates in index order, so a float
        add rounds exactly as the sequential loop does; misaligned ones
        take that loop.  ``min``/``max`` replace the current value only
        when the operand is strictly smaller/larger: a NaN operand never
        wins, and a tie (``0.0`` against ``-0.0``) keeps the current bits.
        """
        ufunc = ATOMIC_UFUNCS.get(op)
        if ufunc is None:
            raise ValueError(f"unsupported atomic op {op!r}")
        np_dtype, size = SCALAR_TYPES[dtype]
        if addrs.size == 0:
            return
        a = self.check_lanes(addrs, size, "atomic")
        vals = np.broadcast_to(np.asarray(values, dtype=np_dtype), a.shape)
        if size > 1 and (a & (size - 1)).any():
            for addr, v in zip(a.tolist(), vals):
                old = self.load(addr, dtype)
                if op == "add":
                    new = np_dtype(old + v)
                elif op == "min":
                    new = v if v < old else old
                else:
                    new = v if v > old else old
                self.store(addr, dtype, new)
            return
        view = self._typed_view(size, np_dtype)
        idx = a >> _SHIFT[size]
        if op == "add" or np.dtype(np_dtype).kind != "f":
            # integer min/max ties are bit-identical, so any order of
            # equal winners gives the loop's bytes
            ufunc.at(view, idx, vals)
            return
        # float min/max: the winning *value* is order-free; fix the bits
        # where ufunc.at and the loop may differ (NaN operands, +-0 ties)
        keep = ~np.isnan(vals)
        idx, vals = idx[keep], vals[keep]
        cells = np.unique(idx)
        before = view[cells]
        with np.errstate(invalid="ignore"):  # a NaN already in the heap
            ufunc.at(view, idx, vals)
        after = view[cells]
        stay = np.isnan(before) | (before == after)
        view[cells[stay]] = before[stay]
        zero = (after == 0) & ~stay
        if zero.any():
            sel = np.isin(idx, cells[zero]) & (vals == 0)
            first_cells, first = np.unique(idx[sel], return_index=True)
            view[first_cells] = vals[sel][first]

    def check_lanes(self, addrs: np.ndarray, size: int,
                    what: str) -> np.ndarray:
        """Validate per-lane ``size``-byte accesses; returns the addresses
        as int64.  Raises :class:`InvalidAddress` naming the first bad
        lane when any access leaves the mapped heap."""
        a = addrs.astype(np.int64, copy=False)
        if int(a.min()) < self.null_guard or int(a.max()) + size > self._brk:
            bad = a[(a < self.null_guard) | (a + size > self._brk)][0]
            raise InvalidAddress(
                f"warp {what} touches invalid address {int(bad):#x}")
        return a

    def _typed_view(self, size: int, np_dtype) -> np.ndarray:
        """A cached ``np_dtype`` view over the backing array (element
        index = byte address / size; only valid for aligned accesses).
        Views are invalidated when the heap grows."""
        views = self._views
        view = views.get(np_dtype)
        if view is None:
            n = self._limit - (self._limit % size)
            view = views[np_dtype] = self._data[:n].view(np_dtype)
        return view

    # ------------------------------------------------------------------
    # bulk array access (host-side convenience for device arrays)
    # ------------------------------------------------------------------
    def read_array(self, addr: int, dtype: str, count: int) -> np.ndarray:
        """Read ``count`` contiguous scalars starting at ``addr``."""
        np_dtype, size = SCALAR_TYPES[dtype]
        self._check_range(addr, size * count)
        return self._data[addr : addr + size * count].copy().view(np_dtype)

    def write_array(self, addr: int, dtype: str, values: np.ndarray) -> None:
        """Write contiguous scalars starting at ``addr``."""
        np_dtype, size = SCALAR_TYPES[dtype]
        vals = np.ascontiguousarray(values, dtype=np_dtype)
        self._check_range(addr, vals.nbytes)
        self._data[addr : addr + vals.nbytes] = vals.view(np.uint8)

    def fill(self, addr: int, size: int, byte: int = 0) -> None:
        """memset ``size`` bytes at ``addr``."""
        self._check_range(addr, size)
        self._data[addr : addr + size] = byte
