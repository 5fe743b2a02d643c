"""Operator-overload dispatch of :class:`repro.api.vector.CipherVector`.

Covers the dispatch table (ct∘ct, ct∘pt, ct∘scalar, ct∘ndarray for
``+ - *``), the rotation operators against ``Evaluator.rotate``, powers,
and the scale-safety guarantees of the handle layer.
"""

import numpy as np
import pytest

from repro.api.vector import CipherVector, as_vector
from tests.conftest import assert_close


@pytest.fixture()
def vectors(session, rng):
    a = rng.uniform(-1, 1, 8)
    b = rng.uniform(-1, 1, 8)
    return a, b, session.encrypt(a), session.encrypt(b)


class TestAdditionDispatch:
    def test_ct_plus_ct(self, session, vectors):
        a, b, ct_a, ct_b = vectors
        assert_close(session.decrypt(ct_a + ct_b, 8).real, a + b)

    def test_ct_plus_plaintext(self, session, vectors):
        a, b, ct_a, _ = vectors
        pt = session.encode(b, like=ct_a, for_multiplication=False)
        assert_close(session.decrypt(ct_a + pt, 8).real, a + b)

    def test_ct_plus_scalar(self, session, vectors):
        a, _, ct_a, _ = vectors
        assert_close(session.decrypt(ct_a + 0.5, 8).real, a + 0.5)

    def test_scalar_plus_ct(self, session, vectors):
        a, _, ct_a, _ = vectors
        assert_close(session.decrypt(0.5 + ct_a, 8).real, a + 0.5)

    def test_ct_plus_ndarray(self, session, vectors):
        a, b, ct_a, _ = vectors
        assert_close(session.decrypt(ct_a + b, 8).real, a + b)

    def test_ndarray_plus_ct(self, session, vectors):
        a, b, ct_a, _ = vectors
        assert_close(session.decrypt(b + ct_a, 8).real, a + b)


class TestSubtractionDispatch:
    def test_ct_minus_ct(self, session, vectors):
        a, b, ct_a, ct_b = vectors
        assert_close(session.decrypt(ct_a - ct_b, 8).real, a - b)

    def test_ct_minus_plaintext(self, session, vectors):
        a, b, ct_a, _ = vectors
        pt = session.encode(b, like=ct_a, for_multiplication=False)
        assert_close(session.decrypt(ct_a - pt, 8).real, a - b)

    def test_ct_minus_scalar(self, session, vectors):
        a, _, ct_a, _ = vectors
        assert_close(session.decrypt(ct_a - 0.25, 8).real, a - 0.25)

    def test_scalar_minus_ct(self, session, vectors):
        a, _, ct_a, _ = vectors
        assert_close(session.decrypt(1.0 - ct_a, 8).real, 1.0 - a)

    def test_ct_minus_ndarray(self, session, vectors):
        a, b, ct_a, _ = vectors
        assert_close(session.decrypt(ct_a - b, 8).real, a - b)

    def test_ndarray_minus_ct(self, session, vectors):
        a, b, ct_a, _ = vectors
        assert_close(session.decrypt(b - ct_a, 8).real, b - a)

    def test_negation(self, session, vectors):
        a, _, ct_a, _ = vectors
        assert_close(session.decrypt(-ct_a, 8).real, -a)


class TestMultiplicationDispatch:
    def test_ct_times_ct(self, session, vectors):
        a, b, ct_a, ct_b = vectors
        product = ct_a * ct_b
        assert_close(session.decrypt(product, 8).real, a * b)
        assert product.level == ct_a.level - 1

    def test_ct_times_plaintext(self, session, vectors):
        a, b, ct_a, _ = vectors
        pt = session.encode(b, like=ct_a, for_multiplication=True)
        assert_close(session.decrypt(ct_a * pt, 8).real, a * b)

    def test_ct_times_scalar(self, session, vectors):
        a, _, ct_a, _ = vectors
        assert_close(session.decrypt(ct_a * 3.0, 8).real, a * 3.0)

    def test_scalar_times_ct(self, session, vectors):
        a, _, ct_a, _ = vectors
        assert_close(session.decrypt(3.0 * ct_a, 8).real, a * 3.0)

    def test_ct_times_ndarray(self, session, vectors):
        a, b, ct_a, _ = vectors
        assert_close(session.decrypt(ct_a * b, 8).real, a * b)

    def test_square_via_pow(self, session, vectors):
        a, _, ct_a, _ = vectors
        squared = ct_a ** 2
        assert_close(session.decrypt(squared, 8).real, a ** 2)
        assert squared.level == ct_a.level - 1

    def test_higher_powers(self, session, vectors):
        a, _, ct_a, _ = vectors
        assert_close(session.decrypt(ct_a ** 3, 8).real, a ** 3, 5e-3)
        assert_close(session.decrypt(ct_a ** 4, 8).real, a ** 4, 5e-3)

    def test_pow_rejects_bad_exponents(self, vectors):
        _, _, ct_a, _ = vectors
        with pytest.raises(ValueError):
            ct_a ** 0
        with pytest.raises(ValueError):
            ct_a ** 1.5

    def test_polynomial_expression(self, session, vectors):
        a, b, ct_a, ct_b = vectors
        result = 2.0 * (ct_a * ct_b) + 1.0
        assert_close(session.decrypt(result, 8).real, 2 * a * b + 1, 2e-3)


class TestRotationOperators:
    def test_lshift_matches_evaluator_rotate(self, session, evaluator, vectors):
        _, _, ct_a, _ = vectors
        via_operator = session.decrypt(ct_a << 2, 8)
        via_evaluator = session.decrypt(
            session.wrap(evaluator.rotate(ct_a.handle, 2)), 8
        )
        assert_close(via_operator, via_evaluator, 1e-12)

    def test_lshift_rotates_left(self, session, vectors):
        a, _, ct_a, _ = vectors
        assert_close(session.decrypt(ct_a << 1, 8).real, np.roll(a, -1), 2e-3)

    def test_rshift_rotates_right(self, session, vectors):
        a, _, ct_a, _ = vectors
        assert_close(session.decrypt(ct_a >> 1, 8).real, np.roll(a, 1), 2e-3)

    def test_full_rotation_is_identity(self, session, vectors):
        a, _, ct_a, _ = vectors
        assert_close(session.decrypt(ct_a << ct_a.slots, 8).real, a)

    def test_rotate_many_matches_single_rotations(self, session, vectors):
        a, _, ct_a, _ = vectors
        rotated = ct_a.rotate_many([1, 2])
        assert set(rotated) == {1, 2}
        for step, vec in rotated.items():
            assert_close(session.decrypt(vec, 8).real, np.roll(a, -step), 2e-3)

    def test_missing_rotation_key_lists_available(self, vectors):
        _, _, ct_a, _ = vectors
        with pytest.raises(KeyError, match="available rotation steps"):
            ct_a << 7

    def test_conjugate(self, session, rng):
        values = rng.uniform(-1, 1, 8) + 1j * rng.uniform(-1, 1, 8)
        ct = session.encrypt(values)
        assert_close(session.decrypt(ct.conj(), 8), np.conj(values), 2e-3)


class TestLevelAndScaleManagement:
    def test_properties(self, session, vectors):
        _, _, ct_a, _ = vectors
        assert ct_a.level == session.max_level
        assert ct_a.slots == session.slots
        assert ct_a.limb_count == session.max_level + 1
        assert ct_a.scale == pytest.approx(session.params.scale)

    def test_at_level(self, session, vectors):
        a, _, ct_a, _ = vectors
        lowered = ct_a.at_level(2)
        assert lowered.level == 2
        assert_close(session.decrypt(lowered, 8).real, a, 2e-3)

    def test_rescale_after_raw_product(self, session, vectors):
        a, b, ct_a, ct_b = vectors
        raw = session.wrap(
            session.evaluator.multiply_plain(ct_a.handle, b, rescale=False)
        )
        rescaled = raw.rescale()
        assert rescaled.level == ct_a.level - 1
        assert_close(session.decrypt(rescaled, 8).real, a * b, 2e-3)

    def test_mismatched_levels_align_automatically(self, session, vectors):
        a, b, ct_a, ct_b = vectors
        deeper = ct_a * ct_a  # one level below ct_b
        assert_close(session.decrypt(deeper + ct_b, 8).real, a * a + b, 2e-3)
        assert_close(session.decrypt(deeper * ct_b, 8).real, a * a * b, 5e-3)

    def test_scale_mismatch_is_rejected(self, session, vectors):
        _, b, ct_a, _ = vectors
        raw = session.wrap(
            session.evaluator.multiply_plain(ct_a.handle, b, rescale=False)
        )
        with pytest.raises(ValueError, match="scale mismatch"):
            raw + ct_a


class TestDispatchGuards:
    def test_unsupported_operand_types(self, vectors):
        _, _, ct_a, _ = vectors
        with pytest.raises(TypeError):
            ct_a + "nope"
        with pytest.raises(TypeError):
            ct_a * object()

    def test_complex_scalars_rejected(self, vectors):
        _, _, ct_a, _ = vectors
        with pytest.raises(TypeError, match="complex"):
            ct_a * (1 + 2j)

    def test_cross_backend_mixing_rejected(self, session, vectors):
        _, _, ct_a, _ = vectors
        cost = session.cost_backend()
        other = CipherVector(cost, cost.encrypt([0.5]))
        with pytest.raises(ValueError, match="different backends"):
            ct_a + other

    def test_as_vector_validates_backend(self, session, vectors):
        _, _, ct_a, _ = vectors
        assert as_vector(session.backend, ct_a) is ct_a
        with pytest.raises(ValueError):
            as_vector(session.cost_backend(), ct_a)
