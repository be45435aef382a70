"""Address patterns for synthetic memory streams.

The cache behaviour of the paper's SPEC95 benchmarks is reproduced with
three pattern families:

* :class:`ArrayWalk` — strided streaming through a (possibly huge) array,
  the dominant pattern of the FP codes (swim, mgrid, hydro2d):
  arrays larger than the 16 KB L1 miss on every new 32-byte line.
* :class:`RandomRegion` — uniform random accesses inside a region, the
  hash-table/heap behaviour of the integer codes (compress, vortex).
* :class:`ChaseRegion` — like RandomRegion but intended for serially
  dependent loads (li's pointer chasing); the distinction matters to the
  dependence structure built in :mod:`repro.trace.program`, not to the
  addresses themselves.

All patterns are deterministic given the trace RNG.
"""

from __future__ import annotations


class AddressPattern:
    """Interface: produce the next effective address."""

    def next_address(self, rng):
        raise NotImplementedError

    def reset(self):
        """Restart the pattern (a fresh trace instantiation calls this)."""


class ArrayWalk(AddressPattern):
    """Strided walk over ``length`` elements of ``elem_bytes`` each.

    The walk wraps around at the end of the array, which is how a loop
    nest revisits its data on the next outer iteration.
    """

    def __init__(self, base, length, elem_bytes=8, stride=1):
        if length <= 0 or elem_bytes <= 0 or stride == 0:
            raise ValueError("ArrayWalk needs positive length/element size and nonzero stride")
        self.base = base
        self.length = length
        self.elem_bytes = elem_bytes
        self.stride = stride
        self._pos = 0

    @property
    def footprint_bytes(self):
        return self.length * self.elem_bytes

    def next_address(self, rng):
        addr = self.base + (self._pos % self.length) * self.elem_bytes
        self._pos += self.stride
        return addr

    def fill(self, addrs, first, count, step):
        """Write the next ``count`` addresses into ``addrs[first::step]``,
        exactly as ``count`` calls of :meth:`next_address` would (the
        trace generator's bulk path; a walk draws no randomness)."""
        length, elem, stride = self.length, self.elem_bytes, self.stride
        pos = self._pos
        at = pos % length
        if stride > 0 and at + (count - 1) * stride < length:  # no wrap
            start = self.base + at * elem
            values = range(start, start + count * stride * elem,
                           stride * elem)
        else:
            values = [self.base + ((pos + k * stride) % length) * elem
                      for k in range(count)]
        addrs[first:first + count * step:step] = values
        self._pos = pos + count * stride

    def reset(self):
        self._pos = 0


class RandomRegion(AddressPattern):
    """Uniformly random aligned addresses within ``size_bytes``."""

    def __init__(self, base, size_bytes, align=8):
        if size_bytes < align or align <= 0:
            raise ValueError("region must hold at least one aligned word")
        self.base = base
        self.size_bytes = size_bytes
        self.align = align
        self._slots = size_bytes // align

    @property
    def footprint_bytes(self):
        return self.size_bytes

    def next_address(self, rng):
        return self.base + rng.randrange(self._slots) * self.align

    def reset(self):
        return None


class ChaseRegion(RandomRegion):
    """Random addresses for pointer-chasing loads.

    Address-wise identical to :class:`RandomRegion`; kernels mark chasing
    loads by making each load's base register the previous load's
    destination, serializing them.
    """


class FixedAddress(AddressPattern):
    """Always the same address — scalar/global accesses and tests."""

    def __init__(self, addr):
        self.addr = addr

    @property
    def footprint_bytes(self):
        return 8

    def next_address(self, rng):
        return self.addr

    def reset(self):
        return None
