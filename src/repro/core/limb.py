"""``LimbFormat``: the representation a polynomial's residue rows are in.

Format is tracked per polynomial (:class:`~repro.core.rns_poly.RNSPoly`),
never per row, which is what lets every cross-limb kernel batch.  A limb
itself is not an object: it is row ``i`` of the polynomial's flat
``(L, N)`` array ``RNSPoly.data``, handed out by
``RNSPoly.limb_arrays()``.
"""

from __future__ import annotations

import enum


class LimbFormat(enum.Enum):
    """Representation of a limb's data."""

    COEFFICIENT = "coeff"
    EVALUATION = "eval"


__all__ = ["LimbFormat"]
