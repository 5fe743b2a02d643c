"""Pluggable evaluation backends behind the high-level API.

The reproduction's core loop runs every workload twice: once functionally
(real RNS polynomials, verified against decryption) and once on the GPU
execution model (kernel-level costs at paper-scale parameters).  The
:class:`EvaluationBackend` protocol is the seam that makes this a single
program: :class:`~repro.api.vector.CipherVector` dispatches each operator
to whichever backend its handle belongs to.

* :class:`~repro.ckks.evaluator.Evaluator` *is* the functional backend
  (``session.backend is session.evaluator``): it executes for real, its
  handles are :class:`~repro.ckks.ciphertext.Ciphertext` objects, and an
  operator call reaches a kernel through ``CipherVector`` → ``Evaluator`` →
  ``RNSPoly`` → ``modmath.stack_*`` with no forwarding layer in between.
* :class:`CostModelBackend` wraps :mod:`repro.perf.costmodel`; its handles
  are :class:`SymbolicCiphertext` objects that follow the evaluator's level
  and scale trajectory -- the matching rule and the operand errors are the
  evaluator's own (:func:`~repro.ckks.ciphertext.match_for_sum` and its
  neighbours) and so is the chain, a real context's; only the data is
  symbolic.  Every operation emits its closed-form kernel decomposition through
  the execution-plane dispatcher, inside the operation scopes the evaluator
  opens.  It keeps no books of its own: ``session.trace()`` and a
  ``Server(trace_costs=...)`` observe, price and roll up a symbolic
  program exactly as they do a functional one, and
  outside a recording region a symbolic operation builds no kernel at all.

Both backends accept plaintext operands either pre-encoded
(:class:`~repro.ckks.ciphertext.Plaintext`) or as raw value arrays, which
they encode at the ladder-restoring scale the evaluator uses.

There is one operation surface: a handle is a batch of ``batch_size``
members (1 unless it came out of ``encrypt_batch``/``batch_from``), and
every operation takes the member count from its operand -- the functional
backend runs fused ``(B·L, N)`` kernels, the cost model prices ``B×`` the
bytes at ``1×`` the launches.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from repro.ckks.ciphertext import (
    Plaintext,
    adjust_is_noop,
    check_dot_operands,
    check_finite_scalar,
    check_fusable,
    check_mod_reduce,
    check_plain_scale,
    check_product_rescale,
    check_product_sum,
    check_scalar_rescale,
    check_sum,
    fused_lengths,
    longest_length,
    match_for_dot,
    match_for_product,
    match_for_sum,
    member_lengths,
)
from repro.ckks.context import Context
from repro.ckks.encoding import check_message
from repro.ckks.evaluator import Evaluator
from repro.ckks.keys import KeySet
from repro.ckks.params import CKKSParameters
from repro.core.dispatch import DISPATCH
from repro.perf.costmodel import CKKSOperationCosts


@runtime_checkable
class EvaluationBackend(Protocol):
    """The operation surface a :class:`~repro.api.vector.CipherVector` needs.

    Handles are opaque to the caller; both backends expose ``level``,
    ``scale``, ``slots``, ``limb_count`` and ``batch_size`` attributes on
    them so the high-level API can report ciphertext metadata without
    knowing which backend produced it.  Both backends also carry the chain
    they track, ``moduli`` (``q_0 … q_L``) and ``scale_ladder`` (one scale
    per level), which a program reads through
    :func:`~repro.ckks.context.rescale_factor` and
    :func:`~repro.ckks.context.ladder_scale` to plan its scales.
    """

    params: CKKSParameters

    def encrypt(self, values, *, scale: float | None = None, level: int | None = None): ...

    def add(self, a, b): ...
    def sub(self, a, b): ...
    def negate(self, a): ...
    def add_plain(self, a, values): ...
    def sub_plain(self, a, values): ...
    def add_scalar(self, a, value: float): ...

    def multiply(self, a, b): ...
    def square(self, a): ...
    def multiply_plain(self, a, values, *, rescale: bool = True): ...
    def multiply_scalar(self, a, value: float): ...

    def rotate(self, a, steps: int): ...
    def conjugate(self, a): ...
    def hoisted_rotations(self, a, steps: Sequence[int]) -> dict: ...

    def rescale(self, a): ...
    def mod_reduce(self, a, limb_count: int): ...
    def at_level(self, a, level: int): ...
    def dot_product_plain(self, handles: Sequence, value_rows: Sequence): ...
    def weighted_sum(self, terms: Sequence, level: int, scale: float | None = None,
                     constant: float = 0.0): ...
    def product_sum(self, a, b, level: int, addends: Sequence = (), multiplier: int = 1,
                    constant: float = 0.0): ...

    # -- fuse / split (a handle is a batch of ``batch_size`` members) --------

    def encrypt_batch(self, value_rows: Sequence, *, scale: float | None = None,
                      level: int | None = None): ...
    def batch_from(self, handles: Sequence): ...
    def batch_split(self, batch) -> list: ...

    def describe(self) -> dict: ...


def as_backend(obj) -> EvaluationBackend:
    """Normalise a backend-ish object (session or backend) to a backend.

    Lets the application layer accept either a
    :class:`~repro.api.session.CKKSSession` or a bare backend.
    """
    backend = getattr(obj, "backend", obj)
    if not isinstance(backend, EvaluationBackend):
        raise TypeError(
            f"{type(obj).__name__} is neither an EvaluationBackend nor an "
            f"object exposing one via a .backend attribute"
        )
    return backend


# ----------------------------------------------------------------------
# cost-model backend
# ----------------------------------------------------------------------


@dataclass
class SymbolicCiphertext:
    """A data-free ciphertext: level, scale and slot metadata only.

    Like :class:`~repro.ckks.ciphertext.Ciphertext` it stands for
    ``batch_size`` members sharing one limb count and scale; each operation
    on it emits the fused kernel stream -- the single-ciphertext kernels
    :meth:`~repro.gpu.kernel.Kernel.batched` to ``B×`` the bytes and integer
    ops at an *unchanged* launch count, which is exactly what the recorded
    execution plane shows.  A fused handle carries one ``encoded_length``
    per member as a tuple.
    """

    limb_count: int
    scale: float
    slots: int
    encoded_length: int | tuple
    batch_size: int = 1

    @property
    def level(self) -> int:
        """Remaining multiplicative depth (limb count minus one)."""
        return self.limb_count - 1

    def copy(self) -> "SymbolicCiphertext":
        """Return a copy (symbolic ciphertexts are treated as immutable)."""
        return replace(self)


class CostModelBackend:
    """Symbolic execution: the evaluator's level/scale trajectory plus
    closed-form kernel emission.

    The twin always tracks a real :class:`~repro.ckks.context.Context`:
    its moduli chain and scale ladder are the context's, so a program
    follows the functional evaluator's levels and scales exactly -- at
    paper-scale parameters too, whose contexts build in milliseconds (the
    functional backend is what is too slow there, not the context).
    ScalarMult and ``at_level`` are one-term weighted sums, as on the
    evaluator.

    Which kernel stream an operation emits is the ``costs`` builder's
    choice.  The default is the stream this repo's own data plane launches
    (``CKKSOperationCosts(limb_batch=None, fusion=True)``: fused, all limbs
    per kernel), which :meth:`CKKSSession.cost_backend
    <repro.api.session.CKKSSession.cost_backend>` builds on the session's
    context; :meth:`for_model` of a
    :class:`~repro.perf.fideslib_model.FIDESlibModel` emits FIDESlib's
    decomposition (fused, limb-batched), of a ``PhantomModel`` Phantom's.

    Passing ``key_inventory`` (a :class:`KeySet`, typically the server key
    set of a session) makes rotations and conjugations fail with the same
    ``KeyError`` the functional backend would raise for a missing key.
    """

    name = "costmodel"

    def __init__(
        self,
        context: Context,
        *,
        costs: CKKSOperationCosts | None = None,
        key_inventory: KeySet | None = None,
    ) -> None:
        self.context = context
        self.params = context.params
        self.costs = costs if costs is not None else CKKSOperationCosts(
            self.params, limb_batch=None, fusion=True
        )
        self.key_inventory = key_inventory

    @classmethod
    def for_model(cls, model) -> "CostModelBackend":
        """Build a backend on ``Context(model.params)`` sharing a perf
        model's cost builder (e.g. FIDESlibModel)."""
        return cls(Context(model.params), costs=model.costs)

    @property
    def moduli(self) -> list:
        """The chain this backend tracks, ``q_0 … q_L`` (the context's)."""
        return self.context.moduli

    @property
    def scale_ladder(self) -> list[float]:
        """The scale of each level on this backend's chain (the context's)."""
        return self.context.scale_ladder

    # -- ladder helpers -----------------------------------------------------

    def _last_modulus(self, limb_count: int):
        return self.moduli[limb_count - 1]

    # -- kernel emission (in Evaluator's scopes) --------------------------------

    #: The evaluator's own scope rule (``batch{B}/name`` for a fused handle);
    #: it only reads ``batch_size``, which a symbolic handle carries too.
    _scope = staticmethod(Evaluator._scope)

    @staticmethod
    def _emit(handle: SymbolicCiphertext, build, *args, **kwargs) -> None:
        """Emit ``build(*args, **kwargs)``'s kernels, covering every member
        of ``handle``.

        The builder only runs inside a recording region, so an unobserved
        symbolic program constructs no kernel descriptors.
        """
        if not DISPATCH.recording:
            return
        for kernel in build(*args, **kwargs).kernels:
            if handle.batch_size > 1:
                kernel = kernel.batched(handle.batch_size)
            DISPATCH.emit(kernel)

    # -- ciphertext sources -------------------------------------------------

    def encrypt(self, values, *, scale: float | None = None,
                level: int | None = None) -> SymbolicCiphertext:
        """Return a fresh symbolic ciphertext (client-side, hence cost-free).

        ``values`` and ``scale`` pass the encoder's checks
        (:func:`~repro.ckks.encoding.check_message`), so a message the
        functional backend refuses is refused here too.
        """
        limb_count = self.params.mult_depth + 1 if level is None else level + 1
        if not 1 <= limb_count <= self.params.mult_depth + 1:
            raise ValueError(f"invalid level {level}")
        scale = self.params.scale if scale is None else float(scale)
        message = check_message(values, scale, self.params.slots)
        return SymbolicCiphertext(limb_count, scale, self.params.slots, len(message))

    def encrypt_batch(self, value_rows: Sequence, *, scale: float | None = None,
                      level: int | None = None) -> SymbolicCiphertext:
        """Return a fresh fused symbolic handle (client-side, hence cost-free)."""
        return self.batch_from(
            [self.encrypt(row, scale=scale, level=level) for row in value_rows]
        )

    def batch_from(self, handles: Sequence[SymbolicCiphertext]) -> SymbolicCiphertext:
        handles = list(handles)
        check_fusable(handles)
        return replace(
            handles[0],
            encoded_length=fused_lengths(handles),
            batch_size=sum(h.batch_size for h in handles),
        )

    def batch_split(self, batch: SymbolicCiphertext) -> list[SymbolicCiphertext]:
        return [
            replace(batch, encoded_length=length, batch_size=1)
            for length in member_lengths(batch)
        ]

    # -- level and scale management ------------------------------------------

    def rescale(self, a: SymbolicCiphertext) -> SymbolicCiphertext:
        if a.limb_count < 2:
            raise ValueError("cannot rescale a level-0 ciphertext")
        with self._scope(a, "rescale"):
            self._emit(a, self.costs.rescale, a.limb_count)
        return self._dropped(a)

    def mod_reduce(self, a: SymbolicCiphertext, limb_count: int) -> SymbolicCiphertext:
        """The evaluator's mod-reduce: ``limb_count`` limbs at an unchanged
        scale.  A fused handle above ``limb_count`` emits its two gathers
        (:meth:`_reduce`) in a ``modreduce`` scope; a window emits nothing."""
        check_mod_reduce(a, limb_count)
        with self._scope(a, "modreduce"):
            self._reduce([a], limb_count)
        return a if limb_count == a.limb_count else replace(a, limb_count=limb_count)

    def _dropped(self, a: SymbolicCiphertext) -> SymbolicCiphertext:
        """``a`` one level down, its scale divided by the dropped prime."""
        return replace(
            a, limb_count=a.limb_count - 1,
            scale=a.scale / self._last_modulus(a.limb_count),
        )

    def at_level(self, a: SymbolicCiphertext, target_level: int,
                 target_scale: float | None = None) -> SymbolicCiphertext:
        if target_scale is None:
            target_scale = self.context.scale_at(target_level)
        if adjust_is_noop(a, target_level, target_scale):
            return a
        with self._scope(a, "at_level"):
            return self._weighted_sum([a], target_level, target_scale)

    # -- plaintext scales (the ladder-restoring scale, on this ladder) ---------

    def _plain_scale(self, a: SymbolicCiphertext, values, *, for_multiplication: bool) -> float:
        if isinstance(values, Plaintext):
            return values.scale
        if for_multiplication and a.level >= 1:
            return self.context.rescale_factor(a.level - 1, a.scale,
                                               self.context.scale_at(a.level - 1))
        return a.scale

    @staticmethod
    def _longest(result: SymbolicCiphertext, *operands) -> SymbolicCiphertext:
        """``result`` with the evaluator's length rule: the longest
        ``encoded_length`` of the ciphertext, plaintext or raw-value
        ``operands`` (:func:`~repro.ckks.ciphertext.longest_length`)."""
        lengths = [op.encoded_length if isinstance(op, (SymbolicCiphertext, Plaintext))
                   else np.asarray(op).size for op in operands]
        return replace(result, encoded_length=longest_length(*lengths))

    # -- additions ----------------------------------------------------------

    def add(self, a: SymbolicCiphertext, b: SymbolicCiphertext) -> SymbolicCiphertext:
        with self._scope(a, "hadd"):
            a2, b2 = match_for_sum(a, b, self.at_level)
            self._emit(a2, self.costs.hadd, a2.limb_count, 1 if a2 is b2 else 2)
        return self._longest(a2, a2, b2)

    sub = add  # HSub launches HAdd's kernels in HAdd's scope

    def negate(self, a: SymbolicCiphertext) -> SymbolicCiphertext:
        with self._scope(a, "negate"):
            self._emit(a, self.costs.negate, a.limb_count)
        return a.copy()

    def add_plain(self, a: SymbolicCiphertext, values) -> SymbolicCiphertext:
        check_plain_scale(a, self._plain_scale(a, values, for_multiplication=False))
        with self._scope(a, "ptadd"):
            self._emit(a, self.costs.ptadd, a.limb_count)
        return self._longest(a, a, values)

    sub_plain = add_plain  # PtSub launches PtAdd's kernels in PtAdd's scope

    def add_scalar(self, a: SymbolicCiphertext, value: float) -> SymbolicCiphertext:
        check_finite_scalar("add_scalar", value)
        with self._scope(a, "scalaradd"):
            self._emit(a, self.costs.scalar_add, a.limb_count)
        return a.copy()

    # -- multiplications ----------------------------------------------------

    def multiply(self, a: SymbolicCiphertext, b: SymbolicCiphertext) -> SymbolicCiphertext:
        check_product_rescale(a, b)
        with self._scope(a, "hmult"):
            a2, b2 = match_for_product(a, b, self.at_level)
            self._emit(a2, self.costs.product_rescale, a2.limb_count)
            return self._longest(self._dropped(replace(a2, scale=a2.scale * b2.scale)),
                                 a2, b2)

    def square(self, a: SymbolicCiphertext) -> SymbolicCiphertext:
        check_product_rescale(a)
        with self._scope(a, "hsquare"):
            self._emit(a, self.costs.product_rescale, a.limb_count, square=True)
            return self._dropped(replace(a, scale=a.scale * a.scale))

    def multiply_plain(self, a: SymbolicCiphertext, values, *,
                       rescale: bool = True) -> SymbolicCiphertext:
        pt_scale = self._plain_scale(a, values, for_multiplication=True)
        with self._scope(a, "ptmult"):
            self._emit(a, self.costs.ptmult, a.limb_count)
            raw = self._longest(replace(a, scale=a.scale * pt_scale), a, values)
            return self.rescale(raw) if rescale else raw

    def multiply_scalar(self, a: SymbolicCiphertext, value: float) -> SymbolicCiphertext:
        check_finite_scalar("multiply_scalar", value)
        check_scalar_rescale(a)
        with self._scope(a, "scalarmult"):
            return self._weighted_sum([a], a.level - 1)

    # -- rotations ----------------------------------------------------------

    def _check_rotation_key(self, steps: int) -> None:
        if self.key_inventory is not None:
            # Raises a descriptive KeyError.
            self.key_inventory.rotation_key(steps, self.params.slots)

    def rotate(self, a: SymbolicCiphertext, steps: int) -> SymbolicCiphertext:
        if steps % a.slots == 0:
            return a
        self._check_rotation_key(steps)
        with self._scope(a, "hrotate"):
            self._emit(a, self.costs.hrotate, a.limb_count)
        return a.copy()

    def conjugate(self, a: SymbolicCiphertext) -> SymbolicCiphertext:
        if self.key_inventory is not None and self.key_inventory.conjugation_key is None:
            raise KeyError("no conjugation key was generated")
        with self._scope(a, "hconjugate"):
            self._emit(a, self.costs.hrotate, a.limb_count)
        return a.copy()

    def hoisted_rotations(self, a: SymbolicCiphertext,
                          steps: Sequence[int]) -> dict[int, SymbolicCiphertext]:
        results: dict[int, SymbolicCiphertext] = {}
        effective = 0
        for step in steps:
            step = int(step)
            results[step] = a.copy()
            if step % a.slots != 0:
                self._check_rotation_key(step)
                effective += 1
        if effective:
            with self._scope(a, "hoisted"):
                self._emit(a, self.costs.hoisted_rotations, a.limb_count, effective)
        return results

    # -- fusions ------------------------------------------------------------

    def dot_product_plain(self, handles: Sequence[SymbolicCiphertext],
                          value_rows: Sequence) -> SymbolicCiphertext:
        check_dot_operands(handles, value_rows)
        handles, scale = match_for_dot(
            handles, [self._plain_scale(h, row, for_multiplication=True)
                      for h, row in zip(handles, value_rows)], self.at_level,
        )
        with self._scope(handles[0], "ptdot"):
            self._emit(handles[0], self.costs.ptdot, handles[0].limb_count, len(handles))
        return self.rescale(self._longest(replace(handles[0], scale=scale),
                                          *handles, *value_rows))

    def _reduce(self, handles: Sequence[SymbolicCiphertext], limb_count: int) -> int:
        """Mod-reduce ``handles`` to ``limb_count`` limbs for one launch and
        return how many distinct operands it reads.  A fused operand above
        ``limb_count`` is a gather per component on the data plane (every
        member keeps its head rows), once per occurrence; any other operand
        is a window, read once however often it occurs."""
        windows: set[int] = set()
        gathered = 0
        for h in handles:
            if h.batch_size > 1 and h.limb_count > limb_count:
                for _ in range(2):
                    self._emit(h, self.costs.limb_copy, limb_count)
                gathered += 1
            else:
                windows.add(id(h))
        return gathered + len(windows)

    def weighted_sum(self, terms: Sequence[tuple[SymbolicCiphertext, float]], level: int,
                     scale: float | None = None, constant: float = 0.0) -> SymbolicCiphertext:
        """The evaluator's weighted sum: one ``scalarmult``/``scalardot``
        launch over ``level + 2`` limbs and one rescale, landing on
        ``scale`` (default: the ladder scale of ``level``)."""
        terms = list(terms)
        check_sum("weighted_sum",
                  [(f"weighted_sum term {i}", h, c) for i, (h, c) in enumerate(terms)],
                  level, constant)
        handles = [h for h, _ in terms]
        with self._scope(handles[0], "scalardot"):
            result = self._weighted_sum(handles, level, scale, constant)
        return self._longest(result, *handles)

    def _weighted_sum(self, handles: list[SymbolicCiphertext], level: int,
                      scale: float | None = None, constant: float = 0.0) -> SymbolicCiphertext:
        """:meth:`weighted_sum` of checked terms, in the caller's scope."""
        operands = self._reduce(handles, level + 2)
        reduced = replace(handles[0], limb_count=level + 2)
        self._emit(reduced, self.costs.weighted_sum, level + 2, len(handles),
                   operands, bool(constant))
        if scale is None:
            scale = self.context.scale_at(level)
        return replace(self.rescale(reduced), scale=float(scale))

    def product_sum(self, a: SymbolicCiphertext, b: SymbolicCiphertext, level: int,
                    addends: Sequence[tuple[SymbolicCiphertext, float]] = (),
                    multiplier: int = 1, constant: float = 0.0) -> SymbolicCiphertext:
        """The evaluator's product sum: one HMult (HSquare when ``a is b``)
        over ``level + 2`` limbs whose addends and constant ride in the
        tensor launch, ending in the merged ModDown-rescale at the product's
        scale ``s_a·s_b/q``."""
        addends = list(addends)
        check_product_sum(a, b, level, addends, multiplier, constant)
        square = a is b
        limbs = level + 2
        with self._scope(a, "hsquare" if square else "hmult"):
            operands = self._reduce(([a] if square else [a, b]) + [h for h, _ in addends],
                                    limbs)
            self._emit(a, self.costs.product_rescale, limbs, square=square,
                       operands=operands, addends=len(addends), constant=bool(constant))
        return self._longest(replace(a, limb_count=level + 1,
                                     scale=a.scale * b.scale / self._last_modulus(limbs)),
                             a, b, *(h for h, _ in addends))

    # -- reporting ----------------------------------------------------------

    def describe(self) -> dict:
        return {
            "backend": self.name,
            "parameter_set": self.params.describe(),
        }


__all__ = [
    "EvaluationBackend",
    "CostModelBackend",
    "SymbolicCiphertext",
    "as_backend",
]
