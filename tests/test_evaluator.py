import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from noisyvqc import evaluator
from noisyvqc.channels import I2, PAULI_X, PAULI_Y, PAULI_Z, ChannelKind
from noisyvqc.circuit import CNOT, AnsatzConfig, param_shape
from noisyvqc.evaluator import (
    ansatz_expectations,
    kraus_superop,
    kron_batch,
    rot_matrices,
    rx_matrices,
    static_layer_superop,
)
from noisyvqc.simulator import ansatz_kraus_sets, rotation, run
from noisyvqc.training import predict


def rx(theta):
    return rx_matrices(np.array([theta]))[0]


def rot(phi, theta, omega):
    return rot_matrices(np.array([[phi, theta, omega]]))[0]


class TestGateMatrixStacks:
    def test_rx_zero(self):
        np.testing.assert_allclose(rx(0.0), I2)

    def test_rx_pi(self):
        np.testing.assert_allclose(rx(math.pi), np.array([[0, -1j], [-1j, 0]]), atol=1e-15)

    def test_rx_half_pi_expectation(self):
        # <Z> of RX(theta)|0> is cos(theta); zero at theta = pi/2
        col = rx(math.pi / 2)[:, 0]
        z = abs(col[0]) ** 2 - abs(col[1]) ** 2
        assert z == pytest.approx(0.0, abs=1e-15)

    def test_rot_identity(self):
        np.testing.assert_allclose(rot(0.0, 0.0, 0.0), I2)

    def test_rot_pure_ry(self):
        np.testing.assert_allclose(
            rot(0.0, math.pi, 0.0), np.array([[0, -1], [1, 0]], dtype=complex), atol=1e-15
        )

    def test_rot_phases_add(self):
        a, b = 0.7, -1.9
        np.testing.assert_allclose(rot(a, 0.0, b), rotation(PAULI_Z, a + b), atol=1e-15)

    def test_unitarity_random_angles(self, rng):
        def unitary(u):
            return np.abs(u.conj().T @ u - I2).max() <= 1e-12

        thetas = rng.uniform(-10, 10, size=50)
        triples = rng.uniform(-10, 10, size=(50, 3))
        assert all(unitary(u) for u in rx_matrices(thetas))
        assert all(unitary(u) for u in rot_matrices(triples))
        for pauli in (PAULI_X, PAULI_Y, PAULI_Z):
            assert all(unitary(rotation(pauli, theta)) for theta in thetas)

    def test_rx_matches_oracle(self, rng):
        angles = rng.uniform(-8, 8, size=6)
        stack = rx_matrices(angles)
        for angle, mat in zip(angles, stack):
            np.testing.assert_allclose(mat, rotation(PAULI_X, angle), atol=1e-15)

    def test_rot_matches_oracle(self, rng):
        triples = rng.uniform(-8, 8, size=(6, 3))
        stack = rot_matrices(triples)
        for (phi, theta, omega), mat in zip(triples, stack):
            oracle = rotation(PAULI_Z, omega) @ rotation(PAULI_Y, theta) @ rotation(PAULI_Z, phi)
            np.testing.assert_allclose(mat, oracle, atol=1e-14)

    def test_kron_batch_matches_numpy(self, rng):
        a = rng.normal(size=(4, 2, 2)) + 1j * rng.normal(size=(4, 2, 2))
        b = rng.normal(size=(4, 2, 2)) + 1j * rng.normal(size=(4, 2, 2))
        out = kron_batch(a, b)
        for i in range(4):
            np.testing.assert_allclose(out[i], np.kron(a[i], b[i]), atol=1e-14)


class TestSuperops:
    def test_noise_free_layer_is_cnot_conjugation(self):
        cfg = AnsatzConfig(n_layers=1)
        np.testing.assert_array_equal(static_layer_superop(cfg), kraus_superop([CNOT]))

    def test_cached_superop_is_read_only_and_equal_to_a_fresh_build(self):
        cfg = AnsatzConfig(channel=ChannelKind.AMPLITUDE_DAMPING, probability=0.4, n_layers=2)
        cached = static_layer_superop(cfg)
        assert static_layer_superop(AnsatzConfig(ChannelKind.AMPLITUDE_DAMPING, 0.4, 2)) is cached
        with pytest.raises(ValueError, match="read-only"):
            cached[0, 0] = 1.0
        np.testing.assert_array_equal(cached, static_layer_superop.__wrapped__(cfg))

    def test_unitary_superop_action(self, rng):
        u = CNOT
        rho = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        vec_out = kraus_superop([u]) @ rho.reshape(16)
        np.testing.assert_allclose(vec_out.reshape(4, 4), u @ rho @ u.conj().T, atol=1e-14)


PAULIS = np.array([I2, PAULI_X, PAULI_Y, PAULI_Z])


class TestPauliTransfer:
    def test_rot_ptm_matches_trace_formula(self, rng):
        # (..., 2, 3) triples as a stack of parameter tensors: entry (j, k) is
        # Tr(sigma_j U sigma_k U^dag) / 2 of the same triple's Rot matrix
        triples = rng.uniform(-np.pi, np.pi, size=(40, 2, 3))
        u = rot_matrices(triples)
        traced = 0.5 * np.einsum("jab,...bc,kcd,...ad->...jk", PAULIS, u, PAULIS, u.conj())
        ptms = evaluator.rot_ptms(triples)
        assert ptms.shape == (40, 2, 4, 4) and ptms.dtype == float
        np.testing.assert_allclose(ptms, traced, rtol=0, atol=1e-15)

    def test_rot_ptm_of_one_triple(self):
        # Ry(pi/2) takes X to -Z and Z to X; Rz(pi/2) takes X to Y
        np.testing.assert_allclose(
            evaluator.rot_ptms(np.array([0.0, np.pi / 2, np.pi / 2])),
            [[1, 0, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1], [0, -1, 0, 0]],
            atol=1e-15,
        )

    @pytest.mark.parametrize("kind", list(ChannelKind))
    def test_tail_ptm_is_real_and_trace_preserving(self, kind):
        # the imaginary part is rounding, the first row is e_0, and
        # T^-1 R T gives back the superoperator
        for p in [0.0] if kind is ChannelKind.NONE else [0.1, 0.5, 1.0]:
            superop = static_layer_superop(AnsatzConfig(channel=kind, probability=p, n_layers=1))
            ptm = evaluator.pauli_transfer(superop)
            assert np.abs(ptm.imag).max() < 1e-15
            np.testing.assert_allclose(ptm.real[0], np.eye(16)[0], rtol=0, atol=1e-14)
            back = np.linalg.inv(evaluator._TO_PAULI) @ ptm.real @ evaluator._TO_PAULI
            np.testing.assert_allclose(back, superop, rtol=0, atol=1e-15)


def zero_theta_readout(cfg):
    """(w_II, w_ZI) of the readout pulled back at theta = 0: each of the 2L
    noise steps on qubit 0 scales Z by its channel's contraction, and
    amplitude damping moves the lost weight onto I."""
    p, steps = cfg.probability, 2 * cfg.n_layers
    if cfg.channel is ChannelKind.BIT_FLIP:
        return 0.0, (1 - 2 * p) ** steps
    if cfg.channel is ChannelKind.DEPOLARIZING:
        return 0.0, (1 - 4 * p / 3) ** steps
    if cfg.channel is ChannelKind.AMPLITUDE_DAMPING:
        return 1 - (1 - p) ** steps, (1 - p) ** steps
    return 0.0, 1.0


class TestModelHalves:
    @pytest.mark.parametrize("kind", list(ChannelKind))
    @pytest.mark.parametrize("n_layers", [1, 3, 5])
    def test_pullback_at_zero_is_bias_plus_signal(self, kind, n_layers):
        # h = w_II + w_ZI cos x0 at theta = 0; index 4a + b over (I, X, Y, Z)
        for p in [0.0] if kind is ChannelKind.NONE else [0.0, 0.1, 0.37, 0.5, 1.0]:
            cfg = AnsatzConfig(channel=kind, probability=p, n_layers=n_layers)
            w = evaluator.pullback(np.zeros((1, n_layers, 2, 3)), static_layer_superop(cfg))
            assert w.shape == (1, 16)
            expected = np.zeros(16)
            expected[0], expected[12] = zero_theta_readout(cfg)
            np.testing.assert_allclose(w[0], expected, rtol=0, atol=1e-12)

    def test_encode_is_a_product_of_qubit_coefficients(self):
        # phi(x) = (1, 0, -sin x, cos x) over (I, X, Y, Z)
        phi = {0.0: [1, 0, 0, 1], np.pi / 2: [1, 0, -1, 0], np.pi: [1, 0, 0, -1]}
        rows = np.array([(x0, x1) for x0 in phi for x1 in phi])
        expected = [np.kron(phi[x0], phi[x1]) for x0, x1 in rows]
        np.testing.assert_allclose(evaluator.encode(rows), expected, rtol=0, atol=1e-15)

    def test_expectations_are_pullback_times_encode(self, rng):
        # bitwise, for a gradient's shift stack and a readout with no
        # output below NEAR_ZERO
        cfg = AnsatzConfig(channel=ChannelKind.PHASE_DAMPING, probability=0.3, n_layers=5)
        superop = static_layer_superop(cfg)
        params = shift_stack(rng.normal(size=param_shape(cfg)))
        rows = rng.uniform(0, np.pi, size=(5, 2))
        stacked = ansatz_expectations(np.tile(rows, (len(params), 1)), params, cfg)
        assert len(params) == 61
        expected = (evaluator.pullback(params, superop) @ evaluator.encode(rows).T).reshape(-1)
        assert np.array_equal(stacked.view(np.int64), expected.view(np.int64))
        features = rng.uniform(0, np.pi, size=(100, 2))
        readout = ansatz_expectations(features, params[0], cfg)
        assert (np.abs(readout) >= evaluator.NEAR_ZERO).all()
        expected = (evaluator.pullback(params[:1], superop) @ evaluator.encode(features).T)[0]
        assert np.array_equal(readout.view(np.int64), expected.view(np.int64))


def variant_stack(unshifted, layers, values):
    """(V, L, 2, 3) stack: ``unshifted``, then one variant per entry of ``layers``
    whose layer ``layers[j]`` is replaced by ``values[j]`` (shape (2, 3))."""
    stack = np.repeat(unshifted[None], len(layers) + 1, axis=0)
    for v, (layer, value) in enumerate(zip(layers, values), start=1):
        stack[v, layer] = value
    return stack


def shift_stack(unshifted):
    """The (2P + 1, L, 2, 3) stack of ``training._shift_rule``: ``unshifted``, then
    flat parameter i shifted by +pi/2 and by -pi/2, for i = 0 ... P - 1."""
    flat = np.tile(unshifted.reshape(-1), (2 * unshifted.size + 1, 1))
    idx = np.arange(unshifted.size)
    flat[1 + 2 * idx, idx] += np.pi / 2
    flat[2 + 2 * idx, idx] -= np.pi / 2
    return flat.reshape((-1,) + unshifted.shape)


def oracle(batch_rows, params, cfg):
    """Every tensor of ``params`` over every row of ``batch_rows``, tensor-major,
    by folding ``simulator.ansatz_kraus_sets``."""
    return [run(ansatz_kraus_sets(x, tensor, cfg)) for tensor in params for x in batch_rows]


def random_variant_stack(rng, cfg, n_variants, scale=1.0):
    """A random unshifted tensor and ``n_variants`` one-layer variants at sorted random layers."""
    unshifted = rng.normal(scale=scale, size=param_shape(cfg))
    layers = np.sort(rng.integers(0, cfg.n_layers, size=n_variants))
    values = rng.normal(scale=scale, size=(n_variants, 2, 3))
    return variant_stack(unshifted, layers, values)


class TestAgainstReferenceSimulator:
    @pytest.mark.parametrize("kind", list(ChannelKind))
    @pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_matches_kraus_fold(self, rng, kind, p):
        cfg = AnsatzConfig(channel=kind, probability=p, n_layers=3)
        # an unshifted tensor and four one-layer variants over 2 tiled feature rows
        batch_rows = rng.uniform(0, np.pi, size=(2, 2))
        params = random_variant_stack(rng, cfg, 4, scale=1.5)
        fast = ansatz_expectations(np.tile(batch_rows, (5, 1)), params, cfg)
        np.testing.assert_allclose(fast, oracle(batch_rows, params, cfg), atol=1e-12)
        # one shared tensor over random features
        features = rng.uniform(0, np.pi, size=(4, 2))
        fast = ansatz_expectations(features, params[0], cfg)
        reference = [run(ansatz_kraus_sets(x, params[0], cfg)) for x in features]
        np.testing.assert_allclose(fast, reference, atol=1e-12)

    @settings(derandomize=True, deadline=None, database=None)
    @given(
        kind=st.sampled_from(list(ChannelKind)),
        p=st.floats(0.0, 1.0),
        n_layers=st.integers(1, 5),
        rows=st.integers(1, 2),
        n_tensors=st.integers(1, 5),
        data=st.data(),
    )
    def test_matches_kraus_fold_property(self, kind, p, n_layers, rows, n_tensors, data):
        # a stack of independently drawn tensors, each serving the same rows:
        # tensors may differ in any number of layers, in any order, or repeat
        cfg = AnsatzConfig(channel=kind, probability=p, n_layers=n_layers)
        angles = st.floats(-10.0, 10.0)
        batch_rows = data.draw(arrays(float, (rows, 2), elements=angles), label="features")
        shape = (n_tensors,) + param_shape(cfg)
        params = data.draw(arrays(float, shape, elements=angles), label="params")
        fast = ansatz_expectations(np.tile(batch_rows, (n_tensors, 1)), params, cfg)
        np.testing.assert_allclose(fast, oracle(batch_rows, params, cfg), atol=1e-12)

    def test_shared_params_broadcast(self, rng):
        # each tensor of a shift stack matches its own shared-params call,
        # which has the same bits in the (L, 2, 3) form and as a stack of one
        cfg = AnsatzConfig(channel=ChannelKind.DEPOLARIZING, probability=0.3, n_layers=2)
        batch_rows = rng.uniform(0, np.pi, size=(3, 2))
        params = shift_stack(rng.normal(size=param_shape(cfg)))
        stacked = ansatz_expectations(np.tile(batch_rows, (len(params), 1)), params, cfg)
        for v, tensor in enumerate(params):
            shared = ansatz_expectations(batch_rows, tensor, cfg)
            np.testing.assert_allclose(stacked[3 * v : 3 * v + 3], shared, rtol=0, atol=1e-12)
            np.testing.assert_array_equal(ansatz_expectations(batch_rows, tensor[None], cfg), shared)

    def test_row_independence(self, rng):
        # each tensor's rows match its own call whatever the other tensors,
        # including variants sharing a layer and a variant equal to the
        # unshifted tensor; each row of a shared call is unaffected by the
        # other rows
        cfg = AnsatzConfig(channel=ChannelKind.PHASE_DAMPING, probability=0.6, n_layers=3)
        batch_rows = rng.uniform(0, np.pi, size=(2, 2))
        unshifted = rng.normal(size=param_shape(cfg))
        params = variant_stack(unshifted, [0, 1, 1, 1, 2], rng.normal(size=(5, 2, 3)))
        params[3] = unshifted
        stacked = ansatz_expectations(np.tile(batch_rows, (len(params), 1)), params, cfg)
        for v, tensor in enumerate(params):
            shared = ansatz_expectations(batch_rows, tensor, cfg)
            np.testing.assert_allclose(stacked[2 * v : 2 * v + 2], shared, rtol=0, atol=1e-12)
        features = rng.uniform(0, np.pi, size=(6, 2))
        batch = ansatz_expectations(features, unshifted, cfg)
        for i in range(6):
            single = ansatz_expectations(features[i : i + 1], unshifted, cfg)
            assert single[0] == pytest.approx(batch[i], abs=1e-14)

    # a stack need not be a shift stack: these two are evaluated, not rejected

    def test_variant_differing_in_two_layers(self, rng):
        cfg = AnsatzConfig(channel=ChannelKind.AMPLITUDE_DAMPING, probability=0.3, n_layers=3)
        params = random_variant_stack(rng, cfg, 2)
        params[2, 0] += 1.0
        params[2, 2] += 1.0
        batch_rows = rng.uniform(0, np.pi, size=(2, 2))
        fast = ansatz_expectations(np.tile(batch_rows, (3, 1)), params, cfg)
        np.testing.assert_allclose(fast, oracle(batch_rows, params, cfg), rtol=0, atol=1e-12)

    def test_variants_out_of_layer_order(self, rng):
        cfg = AnsatzConfig(channel=ChannelKind.DEPOLARIZING, probability=0.4, n_layers=3)
        unshifted = rng.normal(size=param_shape(cfg))
        params = variant_stack(unshifted, [0, 2, 1], rng.normal(size=(3, 2, 3)))
        batch_rows = rng.uniform(0, np.pi, size=(2, 2))
        fast = ansatz_expectations(np.tile(batch_rows, (4, 1)), params, cfg)
        np.testing.assert_allclose(fast, oracle(batch_rows, params, cfg), rtol=0, atol=1e-12)


def per_layer_reference(features, params, cfg):
    """Reference evaluator: the encoding through the full Kronecker product,
    and each layer building its own gates and their adjoint.  ``params`` is
    a (V, L, 2, 3) stack.  Its outputs have the bits of evolving each
    tensor's density matrices on their own."""
    batch, n_tensors = len(features), len(params)
    rows = batch // n_tensors
    tail_t = static_layer_superop(cfg).T
    enc = kron_batch(rx_matrices(features[:, 0]), rx_matrices(features[:, 1]))
    col = enc[:, :, 0]
    rho = col[:, :, None] * col.conj()[:, None, :]
    for layer in range(cfg.n_layers):
        u = kron_batch(rot_matrices(params[:, layer, 0, :]), rot_matrices(params[:, layer, 1, :]))
        grouped = rho.reshape(n_tensors, rows, 4, 4).transpose(0, 2, 1, 3)
        left = u @ grouped.reshape(n_tensors, 4, 4 * rows)
        out = left.reshape(n_tensors, 4 * rows, 4) @ u.conj().swapaxes(-1, -2)
        rho = out.reshape(n_tensors, 4, rows, 4).transpose(0, 2, 1, 3)
        rho = (rho.reshape(batch, 16) @ tail_t).reshape(batch, 4, 4)
    z = rho[:, 0, 0] + rho[:, 1, 1] - rho[:, 2, 2] - rho[:, 3, 3]
    return z.real


def counting(monkeypatch, names):
    """Replace each evaluator function in ``names`` by a wrapper that records
    the shape of its first argument; returns {name: [shapes]}."""
    seen = {name: [] for name in names}

    def recorded(name):
        original = getattr(evaluator, name)

        def wrapper(*args):
            seen[name].append(np.shape(args[0]))
            return original(*args)

        return wrapper

    for name in names:
        monkeypatch.setattr(evaluator, name, recorded(name))
    return seen


def boundary_x0(cfg):
    """An x0 whose rows output 0 at all-zero parameters: h = w_II + w_ZI cos x0
    there, with w_II = 0 except under amplitude damping, where it is
    1 - (1 - g)^2L against w_ZI = (1 - g)^2L (L layers, two noise steps
    each; needs (1 - g)^2L above 1/2)."""
    if cfg.channel is ChannelKind.AMPLITUDE_DAMPING:
        return np.arccos(1 - 1 / (1 - cfg.probability) ** (2 * cfg.n_layers))
    return np.pi / 2


COMPLEX_GATES = ["rx_matrices", "rot_matrices", "kron_batch"]


class TestOneGateBuild:
    @pytest.mark.parametrize("n_layers", [1, 5])
    @pytest.mark.parametrize("rows", [1, 3, 6])
    def test_one_rot_and_one_kron_call(self, monkeypatch, rng, n_layers, rows):
        # a shift stack over 1, 3 or 6 tiled feature rows builds the Rot PTMs
        # of the whole stack in one call and no complex gate; so does a
        # readout as a stack of one, and a readout with a row on the class
        # boundary under 1e-7-scale parameters adds one rot_matrices and one
        # kron_batch stack
        names = ["rot_ptms", *COMPLEX_GATES]
        seen = counting(monkeypatch, names)
        cfg = AnsatzConfig(channel=ChannelKind.BIT_FLIP, probability=0.2, n_layers=n_layers)
        params = shift_stack(rng.normal(size=param_shape(cfg)))
        features = np.tile(rng.uniform(0, np.pi, size=(rows, 2)), (len(params), 1))
        evaluator.ansatz_expectations(features, params, cfg)
        gates, readout = params.shape, (1,) + param_shape(cfg)  # (V, L, 2, 3), (1, L, 2, 3)
        assert seen == {"rot_ptms": [gates], **{name: [] for name in COMPLEX_GATES}}
        evaluator.ansatz_expectations(features, params[0], cfg)
        assert seen == {"rot_ptms": [gates, readout], **{name: [] for name in COMPLEX_GATES}}
        features[rows // 2, 0] = np.pi / 2
        evaluator.ansatz_expectations(features, 1e-7 * params[0], cfg)
        assert seen == {
            "rot_ptms": [gates, readout, readout],
            "rx_matrices": [(len(features),), (len(features),)],
            "rot_matrices": [(n_layers, 2, 3)],
            "kron_batch": [(n_layers, 2, 2)],
        }

    @pytest.mark.parametrize("kind", list(ChannelKind))
    def test_bits_equal_per_layer_loop(self, monkeypatch, rng, kind):
        # a shift stack agrees with the per-tensor complex loop at 1e-12, and
        # a readout with a row on the class boundary under 1e-7-scale
        # parameters builds the complex gates and has the loop's bits
        seen = counting(monkeypatch, ["rx_matrices"])
        for _ in range(8):
            high = 0.06 if kind is ChannelKind.AMPLITUDE_DAMPING else 1.0
            cfg = AnsatzConfig(
                channel=kind,
                probability=float(rng.uniform(0, high)),
                n_layers=int(rng.integers(1, 6)),
            )
            rows = int(rng.choice([1, 5, 7]))
            batch_rows = rng.uniform(0, np.pi, size=(rows, 2))
            batch_rows[::3, 0] = np.pi / 2
            scale = rng.choice([1e-7, 1.0])
            params = shift_stack(rng.normal(scale=scale, size=param_shape(cfg)))
            features = np.tile(batch_rows, (len(params), 1))
            fast = ansatz_expectations(features, params, cfg)
            slow = per_layer_reference(features, params, cfg)
            np.testing.assert_allclose(fast, slow, rtol=0, atol=1e-12)
            # a readout: one shared tensor over B random rows
            batch = int(rng.choice([1, 5, 100]))
            features = rng.uniform(0, np.pi, size=(batch, 2))
            features[::7, 0] = boundary_x0(cfg)
            tensor = rng.normal(scale=1e-7, size=param_shape(cfg))
            built = len(seen["rx_matrices"])
            fast = ansatz_expectations(features, tensor, cfg)
            slow = per_layer_reference(features, tensor[None], cfg)
            assert np.array_equal(fast.view(np.int64), slow.view(np.int64))
            assert len(seen["rx_matrices"]) == built + 2

    @pytest.mark.parametrize("kind", list(ChannelKind))
    def test_readout_classes_equal_per_layer_loop(self, monkeypatch, rng, kind):
        # a readout with no output below NEAR_ZERO builds one (1, L, 2, 3) Rot
        # PTM stack and no complex gate, agrees with the complex loop at
        # 1e-13 (10x under NEAR_ZERO) and predicts the same classes; under
        # bit-flip 0.5 every output is 0, so the readout has the loop's bits
        names = ["rot_ptms", *COMPLEX_GATES]
        seen = counting(monkeypatch, names)
        for p in [0.0] if kind is ChannelKind.NONE else [0.1, 0.5, 1.0]:
            zero = kind is ChannelKind.BIT_FLIP and p == 0.5
            for n_layers in range(1, 6):
                cfg = AnsatzConfig(channel=kind, probability=p, n_layers=n_layers)
                for batch in [1, 5, 100, 2000]:
                    features = rng.uniform(0, np.pi, size=(batch, 2))
                    tensor = rng.normal(size=param_shape(cfg))
                    for calls in seen.values():
                        calls.clear()
                    fast = ansatz_expectations(features, tensor, cfg)
                    slow = per_layer_reference(features, tensor[None], cfg)
                    assert seen["rot_ptms"] == [(1, n_layers, 2, 3)]
                    assert [len(seen[name]) for name in COMPLEX_GATES] == [2 * zero, zero, zero]
                    if zero:
                        assert np.array_equal(fast.view(np.int64), slow.view(np.int64))
                    else:
                        assert (np.abs(fast) >= evaluator.NEAR_ZERO).all()
                        np.testing.assert_allclose(fast, slow, rtol=0, atol=1e-13)
                        np.testing.assert_array_equal(predict(fast), predict(slow))

    def test_work_count(self, monkeypatch, rng):
        # a gradient builds the V x L Rot PTM pairs of its stack in one call
        # and no complex gate; a readout builds the L Rot PTM pairs of its
        # tensor, and only a readout with a row on the class boundary under
        # 1e-7-scale parameters also encodes its B rows and builds L Rot gates
        seen = counting(monkeypatch, [*COMPLEX_GATES, "rot_ptms"])
        cfg = AnsatzConfig(channel=ChannelKind.DEPOLARIZING, probability=0.1, n_layers=5)
        params = shift_stack(rng.normal(size=param_shape(cfg)))
        features = np.tile(rng.uniform(0, np.pi, size=(5, 2)), (len(params), 1))
        evaluator.ansatz_expectations(features, params, cfg)
        assert len(params) == 61
        stack = [(61, 5, 2, 3)]
        assert seen == {"rx_matrices": [], "rot_matrices": [], "kron_batch": [], "rot_ptms": stack}
        evaluator.ansatz_expectations(features[:100], params[0], cfg)
        stack.append((1, 5, 2, 3))
        assert seen == {"rx_matrices": [], "rot_matrices": [], "kron_batch": [], "rot_ptms": stack}
        features[0, 0] = np.pi / 2
        evaluator.ansatz_expectations(features[:100], 1e-7 * params[0], cfg)
        stack.append((1, 5, 2, 3))
        assert seen == {
            "rx_matrices": [(100,), (100,)],
            "rot_matrices": [(5, 2, 3)],
            "kron_batch": [(5, 2, 2)],
            "rot_ptms": stack,
        }


class TestValidation:
    def test_bad_feature_shape(self):
        cfg = AnsatzConfig(n_layers=1)
        with pytest.raises(ValueError):
            ansatz_expectations(np.zeros((2, 3)), np.zeros(param_shape(cfg)), cfg)

    def test_bad_param_shape(self):
        cfg = AnsatzConfig(n_layers=2)
        # wrong layer count, shared and stacked; V = 0; V = 3 not dividing B = 4
        for shape in [(3, 2, 3), (2, 1, 2, 3), (0, 2, 2, 3), (3, 2, 2, 3)]:
            with pytest.raises(ValueError, match="params shape"):
                ansatz_expectations(np.zeros((4, 2)), np.zeros(shape), cfg)

    def test_untiled_features(self, rng):
        cfg = AnsatzConfig(n_layers=2)
        params = random_variant_stack(rng, cfg, 1)
        features = np.tile(rng.uniform(0, np.pi, size=(2, 2)), (2, 1))
        features[3, 1] += 0.1
        with pytest.raises(ValueError, match="tiled"):
            ansatz_expectations(features, params, cfg)
