"""``@repro.kernel``: launchable kernels in the cudasim style.

A kernel is a Python function whose first parameter is an
:class:`~repro.gpu.executor.ExecutionContext` -- a lane vector that may
span many warps of one wave, with results as if the warps ran one at a
time (see :mod:`repro.gpu.executor` for the contract and for when a
wave re-runs warp by warp); extra parameters are ordinary launch
arguments (device arrays, pointer batches, scalars)::

    @kernel
    def step(ctx, cells, grid):
        ptrs = grid.ld(ctx, ctx.tid)
        Cell.view(ctx, ptrs).update()

    step[n_cells](machine, cells, grid)          # numba-style geometry
    step.launch(machine, n_cells, cells, grid)   # explicit thread count

Geometry can be fixed at decoration time (``@kernel(grid=64,
block=128)``) or supplied per launch via ``k[n]`` / ``k[grid, block]``.
Both spellings validate the configuration *before* anything executes,
raising :class:`~repro.errors.LaunchConfigError` on zero, negative, or
non-integer counts; the total thread count is ``grid * block`` exactly
as ``kernel<<<grid, block>>>`` would give.  The launch itself is
``Machine.launch`` -- one simulated kernel, labelled with the
function's name, returning its :class:`KernelStats`.
"""
from __future__ import annotations

from typing import Callable, Optional

from ..errors import LaunchConfigError
from ..gpu.executor import validate_num_threads


def _validate_dim(value, what: str) -> int:
    try:
        return validate_num_threads(value)
    except LaunchConfigError as exc:
        raise LaunchConfigError(str(exc).replace("num_threads", what)) from None


class KernelFn:
    """A decorated kernel function, optionally with fixed geometry."""

    def __init__(self, fn: Callable, grid: Optional[int] = None,
                 block: Optional[int] = None):
        self.fn = fn
        self.__name__ = getattr(fn, "__name__", "kernel")
        self.__doc__ = getattr(fn, "__doc__", None)
        self.grid = _validate_dim(grid, "grid") if grid is not None else None
        self.block = (_validate_dim(block, "block")
                      if block is not None else None)

    # ------------------------------------------------------------------
    def __getitem__(self, config) -> "_BoundKernel":
        """``k[n]`` -> n threads; ``k[grid, block]`` -> grid*block."""
        if isinstance(config, tuple):
            if len(config) != 2:
                raise LaunchConfigError(
                    f"kernel geometry must be [threads] or [grid, block], "
                    f"got {len(config)} dimensions"
                )
            grid = _validate_dim(config[0], "grid")
            block = _validate_dim(config[1], "block")
            return _BoundKernel(self, grid * block)
        return _BoundKernel(self, _validate_dim(config, "num_threads"))

    def launch(self, machine, num_threads, *args, **kwargs):
        """Run on ``machine`` over exactly ``num_threads`` threads."""
        return self[num_threads](machine, *args, **kwargs)

    def __call__(self, machine, *args, **kwargs):
        """Launch with the geometry fixed at decoration time."""
        if self.grid is None:
            raise LaunchConfigError(
                f"kernel {self.__name__!r} has no geometry: decorate with "
                f"@kernel(grid=..., block=...) or launch via "
                f"{self.__name__}[num_threads](machine, ...)"
            )
        return _BoundKernel(
            self, self.grid * (self.block or 1))(machine, *args, **kwargs)

    def __repr__(self) -> str:
        geom = (f" grid={self.grid} block={self.block}"
                if self.grid is not None else "")
        return f"<kernel {self.__name__}{geom}>"


class _BoundKernel:
    """A kernel with launch geometry resolved; calling it launches."""

    __slots__ = ("kfn", "num_threads")

    def __init__(self, kfn: KernelFn, num_threads: int):
        self.kfn = kfn
        self.num_threads = num_threads

    def __call__(self, machine, *args, **kwargs):
        fn = self.kfn.fn

        def body(ctx):
            return fn(ctx, *args, **kwargs)

        return machine.launch(body, self.num_threads,
                              label=self.kfn.__name__)


def kernel(fn=None, *, grid: Optional[int] = None,
           block: Optional[int] = None):
    """Decorator turning ``fn(ctx, *args)`` into a launchable kernel.

    Bare (``@kernel``) leaves geometry to the call site; keyword form
    (``@kernel(grid=64, block=128)``) fixes it so the kernel launches
    as ``k(machine, *args)``.
    """
    if fn is not None:
        if not callable(fn):
            raise LaunchConfigError(
                "@kernel takes no positional arguments; use "
                "@kernel(grid=..., block=...)"
            )
        return KernelFn(fn)
    return lambda f: KernelFn(f, grid=grid, block=block)
