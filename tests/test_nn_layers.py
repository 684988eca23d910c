"""Tests for layers, functional ops, MADE, optimisers, and serialisation."""

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F
from repro.nn import Tensor, lower_module


class TestLinear:
    def test_forward_shape(self):
        layer = nn.Linear(4, 7, rng=np.random.default_rng(0))
        out = layer(Tensor(np.ones((3, 4))))
        assert out.shape == (3, 7)

    def test_gradient_flows_to_parameters(self):
        layer = nn.Linear(4, 2, rng=np.random.default_rng(0))
        out = layer(Tensor(np.ones((3, 4)))).sum()
        out.backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None
        np.testing.assert_allclose(layer.bias.grad, np.full(2, 3.0))

    def test_no_bias(self):
        layer = nn.Linear(4, 2, bias=False)
        assert layer.bias is None
        assert len(list(layer.parameters())) == 1


class TestMaskedLinear:
    def test_mask_zeroes_connections(self):
        layer = nn.MaskedLinear(3, 2, rng=np.random.default_rng(0))
        mask = np.zeros((3, 2))
        mask[0, 0] = 1
        layer.set_mask(mask)
        inputs = np.eye(3)
        out = layer(Tensor(inputs)).numpy() - layer.bias.numpy()
        # Only input 0 -> output 0 is connected.
        assert abs(out[1, 0]) < 1e-12
        assert abs(out[2, 0]) < 1e-12
        assert abs(out[0, 1]) < 1e-12

    def test_bad_mask_shape_rejected(self):
        layer = nn.MaskedLinear(3, 2)
        with pytest.raises(ValueError):
            layer.set_mask(np.ones((2, 3)))


class TestEmbedding:
    def test_lookup_shape(self):
        emb = nn.Embedding(10, 4, rng=np.random.default_rng(0))
        out = emb(np.array([1, 2, 3]))
        assert out.shape == (3, 4)

    def test_gradient_accumulates_on_repeated_index(self):
        emb = nn.Embedding(5, 2, rng=np.random.default_rng(0))
        out = emb(np.array([1, 1, 2]))
        out.sum().backward()
        np.testing.assert_allclose(emb.weight.grad[1], [2.0, 2.0])
        np.testing.assert_allclose(emb.weight.grad[2], [1.0, 1.0])
        np.testing.assert_allclose(emb.weight.grad[0], [0.0, 0.0])

    def test_out_of_range_raises(self):
        emb = nn.Embedding(5, 2)
        with pytest.raises(IndexError):
            emb(np.array([5]))


class TestSequentialAndModule:
    def test_parameter_discovery(self):
        model = nn.Sequential(nn.Linear(3, 4), nn.ReLU(), nn.Linear(4, 2))
        names = [name for name, _ in model.named_parameters()]
        assert len(names) == 4
        assert model.num_parameters() == 3 * 4 + 4 + 4 * 2 + 2

    def test_forward_chain(self):
        model = nn.Sequential(nn.Linear(3, 4), nn.ReLU(), nn.Linear(4, 2))
        out = model(Tensor(np.ones((5, 3))))
        assert out.shape == (5, 2)

    def test_state_dict_roundtrip(self):
        model = nn.Sequential(nn.Linear(3, 4), nn.ReLU(), nn.Linear(4, 2))
        clone = nn.Sequential(nn.Linear(3, 4), nn.ReLU(), nn.Linear(4, 2))
        clone.load_state_dict(model.state_dict())
        x = Tensor(np.random.default_rng(0).normal(size=(2, 3)))
        np.testing.assert_allclose(model(x).numpy(), clone(x).numpy())

    def test_state_dict_mismatch_raises(self):
        model = nn.Linear(3, 4)
        with pytest.raises(KeyError):
            model.load_state_dict({"bogus": np.zeros(1)})

    def test_size_bytes(self):
        model = nn.Linear(10, 10)
        assert model.size_bytes() == (100 + 10) * 4


class TestLSTM:
    def test_cell_shapes(self):
        cell = nn.LSTMCell(3, 5, rng=np.random.default_rng(0))
        hidden, cell_state = cell(Tensor(np.ones((2, 3))))
        assert hidden.shape == (2, 5)
        assert cell_state.shape == (2, 5)

    def test_sequence_output_length(self):
        lstm = nn.LSTM(3, 5, num_layers=2, rng=np.random.default_rng(0))
        sequence = [Tensor(np.ones((2, 3))) for _ in range(4)]
        outputs = lstm(sequence)
        assert len(outputs) == 4
        assert outputs[-1].shape == (2, 5)

    def test_gradients_reach_first_step(self):
        lstm = nn.LSTM(2, 3, rng=np.random.default_rng(0))
        sequence = [Tensor(np.ones((1, 2)), requires_grad=True) for _ in range(3)]
        outputs = lstm(sequence)
        outputs[-1].sum().backward()
        assert sequence[0].grad is not None


class TestFunctional:
    def test_softmax_sums_to_one(self):
        logits = Tensor(np.random.default_rng(0).normal(size=(4, 6)))
        probs = F.softmax(logits).numpy()
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(4), atol=1e-10)
        assert (probs >= 0).all()

    def test_log_softmax_stability_large_values(self):
        logits = Tensor(np.array([[1000.0, 1000.0, 1000.0]]))
        out = F.log_softmax(logits).numpy()
        np.testing.assert_allclose(out, np.log(np.ones((1, 3)) / 3), atol=1e-8)

    def test_cross_entropy_matches_manual(self):
        logits = Tensor(np.array([[2.0, 0.0, -1.0], [0.0, 3.0, 0.0]]), requires_grad=True)
        targets = np.array([0, 1])
        loss = F.cross_entropy(logits, targets)
        manual = -np.log(np.exp([2.0, 3.0]) / np.array(
            [np.exp([2.0, 0.0, -1.0]).sum(), np.exp([0.0, 3.0, 0.0]).sum()]))
        np.testing.assert_allclose(loss.item(), manual.mean(), atol=1e-10)

    def test_cross_entropy_gradient_is_softmax_minus_onehot(self):
        logits = Tensor(np.array([[1.0, 2.0, 3.0]]), requires_grad=True)
        F.cross_entropy(logits, np.array([2])).backward()
        probs = np.exp([1.0, 2.0, 3.0]) / np.exp([1.0, 2.0, 3.0]).sum()
        expected = probs.copy()
        expected[2] -= 1
        np.testing.assert_allclose(logits.grad[0], expected, atol=1e-10)

    @pytest.mark.parametrize("reduction", ["mean", "sum", "none"])
    def test_cross_entropy_matches_log_softmax_nll(self, reduction):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(6, 5)) * 4.0
        targets = np.array([0, 4, 2, 2, 1, 3])
        weights = rng.normal(size=6)
        grads, values = [], []
        for fused in (True, False):
            logits = Tensor(data, requires_grad=True)
            loss = (F.cross_entropy(logits, targets, reduction=reduction) if fused
                    else F.nll_loss(F.log_softmax(logits), targets, reduction=reduction))
            values.append(loss.numpy().copy())
            if reduction == "none":
                loss = (loss * weights).sum()
            loss.backward()
            grads.append(logits.grad)
        np.testing.assert_array_equal(values[0], values[1])
        np.testing.assert_allclose(grads[0], grads[1], rtol=1e-12, atol=1e-15)

    def test_mse(self):
        pred = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        loss = F.mse_loss(pred, np.array([0.0, 0.0]))
        assert loss.item() == pytest.approx(2.5)

    def test_binary_cross_entropy_bounds(self):
        probs = Tensor(np.array([0.0, 1.0]))
        loss = F.binary_cross_entropy(probs, np.array([0.0, 1.0]))
        assert np.isfinite(loss.item())

    def test_gumbel_softmax_is_distribution(self):
        logits = Tensor(np.random.default_rng(0).normal(size=(5, 4)))
        sample = F.gumbel_softmax(logits, temperature=0.5,
                                  rng=np.random.default_rng(1)).numpy()
        np.testing.assert_allclose(sample.sum(axis=1), np.ones(5), atol=1e-8)

    def test_gumbel_softmax_bad_temperature(self):
        with pytest.raises(ValueError):
            F.gumbel_softmax(Tensor(np.zeros((1, 2))), temperature=0.0)

    def test_qerror_symmetric(self):
        estimate = Tensor(np.array([10.0, 2.0]))
        actual = np.array([2.0, 10.0])
        q = F.qerror(estimate, actual).numpy()
        np.testing.assert_allclose(q, [5.0, 5.0])

    def test_qerror_floor(self):
        q = F.qerror(Tensor(np.array([0.0])), np.array([0.0])).numpy()
        np.testing.assert_allclose(q, [1.0])

    def test_mapped_qerror_compresses(self):
        estimate = Tensor(np.array([1e6]))
        actual = np.array([1.0])
        mapped = F.mapped_qerror_loss(estimate, actual).item()
        assert mapped == pytest.approx(np.log2(1e6 + 1))

    def test_qerror_gradient_flows(self):
        estimate = Tensor(np.array([10.0]), requires_grad=True)
        F.mapped_qerror_loss(estimate, np.array([2.0])).backward()
        assert estimate.grad is not None
        assert estimate.grad[0] > 0


class TestMADE:
    def test_output_shape(self):
        made = nn.MADE(input_bins=[3, 4, 2], output_bins=[5, 6, 4], hidden_sizes=[16, 16])
        out = made(Tensor(np.ones((7, 9))))
        assert out.shape == (7, 15)

    def test_column_logits_slicing(self):
        made = nn.MADE(input_bins=[3, 4], output_bins=[5, 6], hidden_sizes=[8])
        out = made(Tensor(np.ones((2, 7))))
        assert made.column_logits(out, 0).shape == (2, 5)
        assert made.column_logits(out, 1).shape == (2, 6)

    def test_autoregressive_property_by_perturbation(self):
        """Output block i must not change when inputs of columns >= i change."""
        made = nn.MADE(input_bins=[2, 3, 2], output_bins=[3, 4, 3],
                       hidden_sizes=[24, 24], seed=3)
        rng = np.random.default_rng(0)
        base = rng.normal(size=(1, 7))
        base_out = made(Tensor(base)).numpy()
        for column in range(3):
            block = made.blocks[column]
            perturbed = base.copy()
            perturbed[:, block.input_start:] += rng.normal(size=(1, 7 - block.input_start))
            out = made(Tensor(perturbed)).numpy()
            np.testing.assert_allclose(
                out[:, block.output_start:block.output_end],
                base_out[:, block.output_start:block.output_end],
                err_msg=f"output for column {column} depends on columns >= {column}")

    def test_first_column_unconditional(self):
        made = nn.MADE(input_bins=[2, 2], output_bins=[3, 3], hidden_sizes=[8])
        a = made(Tensor(np.zeros((1, 4)))).numpy()[:, :3]
        b = made(Tensor(np.ones((1, 4)) * 5)).numpy()[:, :3]
        np.testing.assert_allclose(a, b)

    def test_residual_variant_runs(self):
        made = nn.MADE(input_bins=[2, 3], output_bins=[4, 5],
                       hidden_sizes=[16, 16, 16], residual=True)
        out = made(Tensor(np.ones((2, 5))))
        assert out.shape == (2, 9)

    def test_residual_preserves_autoregressive_property(self):
        made = nn.MADE(input_bins=[2, 2, 2], output_bins=[3, 3, 3],
                       hidden_sizes=[12, 12, 12], residual=True, seed=5)
        base = np.zeros((1, 6))
        perturbed = base.copy()
        perturbed[0, 2:] = 9.0
        np.testing.assert_allclose(
            made(Tensor(base)).numpy()[:, :3],
            made(Tensor(perturbed)).numpy()[:, :3])

    @staticmethod
    def _unordered_forward(made, seed, inputs):
        """The network as drawn, before its units were put in degree order.

        Undoes each hidden layer's relabeling by the inverse permutation,
        checks the result against fresh draws from the same seed, and runs
        it with the unordered degrees' masks.
        """
        rng = np.random.default_rng(seed)
        max_degree = max(made.num_columns - 1, 1)
        degrees = [np.concatenate([np.full(width, column) for column, width
                                   in enumerate(made.input_bins)])]
        degrees += [np.arange(size) % max_degree for size in made.hidden_sizes]
        inverses = [None] + [np.argsort(np.argsort(hidden, kind="stable"))
                             for hidden in degrees[1:]]
        output_degrees = np.concatenate([np.full(width, column) for column, width
                                         in enumerate(made.output_bins)])
        layers = [*made._layers, made.output_layer]
        hidden = inputs
        for index, layer in enumerate(layers):
            weight, bias = layer.weight.data, layer.bias.data
            if index + 1 < len(layers):
                weight, bias = weight[:, inverses[index + 1]], bias[inverses[index + 1]]
            if inverses[index] is not None:
                weight = weight[inverses[index]]
            drawn = nn.MaskedLinear(*weight.shape, rng=rng)
            np.testing.assert_array_equal(weight, drawn.weight.data)
            np.testing.assert_array_equal(bias, drawn.bias.data)
            below = degrees[index]
            if index + 1 < len(layers):
                mask = degrees[index + 1][None, :] >= below[:, None]
                activated = np.maximum(hidden @ (weight * mask) + bias, 0.0)
                hidden = activated + hidden if made.skips[index] else activated
            else:
                mask = output_degrees[None, :] > below[:, None]
                return hidden @ (weight * mask) + bias

    @pytest.mark.parametrize("bins, hidden_sizes, residual", [
        ([2, 3, 2, 4], [24, 16, 16], False),
        ([2, 3, 2, 4], [20, 20, 20], True),
        ([5], [8, 8], False),
    ], ids=["made", "resmade", "one-column"])
    def test_degree_order_keeps_the_unordered_function(self, bins, hidden_sizes,
                                                        residual):
        made = nn.MADE(input_bins=bins, output_bins=[width + 1 for width in bins],
                       hidden_sizes=hidden_sizes, residual=residual, seed=4)
        if residual:
            assert made.skips[1:] == [True, True]
        inputs = np.random.default_rng(1).normal(size=(6, sum(bins)))
        np.testing.assert_allclose(made(Tensor(inputs)).numpy(),
                                   self._unordered_forward(made, 4, inputs),
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("bins, hidden_sizes", [
        ([2, 3, 2, 4], [24, 16, 13]), ([5], [8]), ([2, 3, 2], [])])
    def test_output_block_masks_are_row_prefixes(self, bins, hidden_sizes, monkeypatch):
        monkeypatch.setattr(nn.made, "MIN_SKIPPED_PER_BLOCK", 0)
        made = nn.MADE(input_bins=bins, output_bins=[width + 1 for width in bins],
                       hidden_sizes=hidden_sizes, seed=0)
        limits = made.output_row_limits()
        rows = made.output_layer.in_features
        assert limits == sorted(limits) and limits[0] == 0
        for block, live in zip(made.blocks, limits):
            expected = np.zeros((rows, block.output_width))
            expected[:live] = 1.0
            np.testing.assert_array_equal(
                made.output_layer.mask[:, block.output_start:block.output_end], expected)
        if len(bins) == 1:
            assert limits == [0]

    def test_row_prefixes_only_where_they_skip_enough(self):
        """A DMV-shaped output layer reads degree prefixes; a census-shaped
        one (~2.3k masked-out weights per block) keeps one dense product."""
        made = nn.MADE(input_bins=[2] * 11, output_bins=[500] * 11,
                       hidden_sizes=[16, 1024], seed=0)
        assert made.output_row_limits() == [0, 103, 206, 309, 412, 514, 616,
                                            718, 820, 922, 1024]
        small = nn.MADE(input_bins=[2] * 14, output_bins=[44] * 14,
                        hidden_sizes=[128, 128], residual=True, seed=0)
        assert small.output_row_limits() is None
        assert lower_module(small).stages[-1].row_limits is None

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            nn.MADE(input_bins=[2], output_bins=[2, 3], hidden_sizes=[4])
        with pytest.raises(ValueError):
            nn.MADE(input_bins=[], output_bins=[], hidden_sizes=[4])
        with pytest.raises(ValueError):
            nn.MADE(input_bins=[0], output_bins=[2], hidden_sizes=[4])

    def test_wrong_input_width_raises(self):
        made = nn.MADE(input_bins=[2, 2], output_bins=[2, 2], hidden_sizes=[4])
        with pytest.raises(ValueError):
            made(Tensor(np.ones((1, 5))))

    def test_training_reduces_loss_on_toy_distribution(self):
        """MADE should learn a strongly dependent two-column distribution."""
        rng = np.random.default_rng(0)
        n = 512
        col0 = rng.integers(0, 3, size=n)
        col1 = (col0 + 1) % 3  # deterministic dependency
        onehot = np.zeros((n, 6))
        onehot[np.arange(n), col0] = 1
        onehot[np.arange(n), 3 + col1] = 1

        made = nn.MADE(input_bins=[3, 3], output_bins=[3, 3], hidden_sizes=[32], seed=0)
        optimizer = nn.Adam(made.parameters(), lr=5e-3)
        losses = []
        for _ in range(60):
            out = made(Tensor(onehot))
            loss = (F.cross_entropy(made.column_logits(out, 0), col0)
                    + F.cross_entropy(made.column_logits(out, 1), col1))
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            losses.append(loss.item())
        # col0 is uniform over 3 values (entropy ln 3 ~= 1.10) and col1 is a
        # deterministic function of col0 (entropy 0), so the optimum is ~1.10.
        assert losses[-1] < losses[0] * 0.6
        assert losses[-1] < 1.25


class TestOptimisers:
    def _quadratic_problem(self):
        target = np.array([3.0, -2.0])
        parameter = Tensor(np.zeros(2), requires_grad=True)
        return parameter, target

    def test_sgd_converges(self):
        parameter, target = self._quadratic_problem()
        optimizer = nn.SGD([parameter], lr=0.1)
        for _ in range(200):
            loss = ((parameter - Tensor(target)) ** 2).sum()
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        np.testing.assert_allclose(parameter.data, target, atol=1e-3)

    def test_sgd_momentum_converges(self):
        parameter, target = self._quadratic_problem()
        optimizer = nn.SGD([parameter], lr=0.05, momentum=0.9)
        for _ in range(200):
            loss = ((parameter - Tensor(target)) ** 2).sum()
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        np.testing.assert_allclose(parameter.data, target, atol=1e-2)

    def test_adam_converges(self):
        parameter, target = self._quadratic_problem()
        optimizer = nn.Adam([parameter], lr=0.1)
        for _ in range(300):
            loss = ((parameter - Tensor(target)) ** 2).sum()
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        np.testing.assert_allclose(parameter.data, target, atol=1e-2)

    def test_empty_parameters_rejected(self):
        with pytest.raises(ValueError):
            nn.SGD([], lr=0.1)

    def test_invalid_lr_rejected(self):
        parameter = Tensor(np.zeros(1), requires_grad=True)
        with pytest.raises(ValueError):
            nn.Adam([parameter], lr=0.0)

    def test_clip_grad_norm(self):
        parameter = Tensor(np.zeros(4), requires_grad=True)
        parameter.grad = np.full(4, 10.0)
        norm_before = nn.clip_grad_norm([parameter], max_norm=1.0)
        assert norm_before == pytest.approx(20.0)
        assert np.linalg.norm(parameter.grad) == pytest.approx(1.0)


class TestSerialization:
    def test_save_and_load_roundtrip(self, tmp_path):
        model = nn.Sequential(nn.Linear(3, 4), nn.ReLU(), nn.Linear(4, 2))
        path = tmp_path / "model.npz"
        nn.save_module(model, path, metadata={"dataset": "census"})

        clone = nn.Sequential(nn.Linear(3, 4), nn.ReLU(), nn.Linear(4, 2))
        metadata = nn.load_module(clone, path)
        assert metadata == {"dataset": "census"}
        x = Tensor(np.random.default_rng(0).normal(size=(2, 3)))
        np.testing.assert_allclose(model(x).numpy(), clone(x).numpy())

    def test_roundtrip_without_npz_suffix(self, tmp_path):
        model = nn.Sequential(nn.Linear(3, 4), nn.ReLU(), nn.Linear(4, 2))
        for filename in ("model", "model.v1", "checkpoint.backup"):
            metadata = {"dataset": "census", "epoch": 7, "note": filename}
            returned = nn.save_module(model, tmp_path / filename, metadata=metadata)
            # save_module must return the file numpy actually wrote.
            assert returned.exists()
            assert returned.name == filename + ".npz"

            clone = nn.Sequential(nn.Linear(3, 4), nn.ReLU(), nn.Linear(4, 2))
            # Loading works through the returned path and the original one.
            assert nn.load_module(clone, returned) == metadata
            assert nn.load_module(clone, tmp_path / filename) == metadata
            x = Tensor(np.random.default_rng(1).normal(size=(2, 3)))
            np.testing.assert_allclose(model(x).numpy(), clone(x).numpy())

    def test_suffixed_path_is_not_doubled(self, tmp_path):
        model = nn.Sequential(nn.Linear(2, 2))
        returned = nn.save_module(model, tmp_path / "weights.npz")
        assert returned == tmp_path / "weights.npz"
        assert returned.exists()
        assert not (tmp_path / "weights.npz.npz").exists()
