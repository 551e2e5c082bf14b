"""Golden values that guard refactors of the layers and the training loop.

Each architecture is trained for 2 epochs on the separable toy set with fixed
seeds; the losses and the validation probabilities must match the values
recorded before the bidirectional layers shared one implementation. The
tolerance (1e-6) absorbs BLAS rounding across platforms, not logic changes.
"""
import numpy as np
import pytest

from conftest import separable_toy
from offlang.models import BUILDERS
from offlang.nn import BiLSTM, TrainConfig, predict_proba, train

TOL = 1e-6

GOLDEN_TRAINING = {
    "cnn": (
        [0.7607419341802597, 0.5551365315914154],
        [0.7749877673480472, 0.35378106180432917],
        [0.8507173061, 0.2827945352, 0.5553250313, 0.4010406733, 0.7167969942, 0.2259095907,
         0.6519703865, 0.263253808, 0.6463752985, 0.3297616839, 0.8235882521, 0.2574480772],
    ),
    "blstm_att": (
        [0.7014093101024628, 0.6133455485105515],
        [0.665721643647707, 0.43611040254128347],
        [0.6731120944, 0.418328017, 0.7157937288, 0.4147827923, 0.7532727718, 0.6027414203,
         0.8655107617, 0.4679493904, 0.7315956354, 0.3447797, 0.7772167921, 0.3663144708],
    ),
    "blstm_bgru": (
        [0.7233791053295135, 0.5283175632357597],
        [0.6587640277921692, 0.24729590070709018],
        # re-recorded when the recurrent gates moved to 1/2 tanh(z/2) + 1/2
        [0.4205121398, 0.0690614283, 0.7388730049, 0.1433339715, 0.8196886778, 0.212407276,
         0.5915569663, 0.3071480989, 0.9769852161, 0.0838844031, 0.9288217425, 0.05643728],
    ),
}


@pytest.mark.parametrize("arch", sorted(GOLDEN_TRAINING))
def test_two_epoch_training_matches_recorded_values(arch, tiny_matrix):
    train_losses, val_losses, probs = GOLDEN_TRAINING[arch]
    val = separable_toy(seed=1, n=12)
    model = BUILDERS[arch](tiny_matrix, expected_dim=16, seed=5)
    config = TrainConfig(learning_rate=1e-2, batch_size=8, max_epochs=2, patience=5, seed=3)
    history = train(model, separable_toy(seed=0), val, config)
    assert np.allclose(history["train_loss"], train_losses, rtol=0, atol=TOL)
    assert np.allclose(history["val_loss"], val_losses, rtol=0, atol=TOL)
    assert (history["best_epoch"], history["epochs_run"]) == (2, 2)
    assert np.allclose(predict_proba(model, val.X, val.lengths), probs, rtol=0, atol=TOL)


GOLDEN_FINAL_STATE = {
    "y": [[-0.1912721743, 0.1708660224, -0.0990022081, -0.6408532],
          [0.0314184608, -0.018993697, 0.0069254392, -0.0237622823]],
    "dx": [[[0.1674461556, -0.3253818485], [-0.0654583673, -0.1363436481],
            [0.2335085334, -0.1754715766], [-0.046473985, -0.2085299849]],
           [[-0.0473627493, -0.0848007351], [-0.0376464252, -0.0076878699],
            [0.0, 0.0], [0.0, 0.0]]],
    "lstm_fw_W": [[0.1258269039, 0.0917082334, 0.0041775621, 0.0910744671,
                   2.3337127554, 0.2194989294, -0.0280378391, 0.2375905849],
                  [-0.0494379896, 0.1221503952, -0.0134917082, 0.1615487257,
                   4.5413093488, 0.4103547278, -0.0670361984, 0.4225685047]],
    "lstm_fw_U": [[0.0025332016, -0.0051219307, 0.0004864179, -0.0049083542,
                   -0.1014963317, -0.0169412395, 0.0025642813, -0.0199770749],
                  [-0.0105128908, 0.0146214525, -0.0017253421, 0.0198680171,
                   0.6747537088, 0.06095304, -0.0051673832, 0.0181139034]],
    "lstm_fw_b": [-0.0872138252, 0.0580050955, -0.0135552198, 0.0805871816,
                  1.7345172916, -0.111011946, -0.0493799867, 0.1834708792],
    "lstm_bw_W": [[-0.0052189853, 0.1849635629, 0.0024792451, 0.1900703764,
                   0.040035778, 0.0752895094, 0.029145474, -0.2729735161],
                  [-0.0126030122, -0.2039265688, -0.0044372843, -0.0435358005,
                   0.073830286, 0.4095103606, -0.006191014, -0.5102367098]],
    "lstm_bw_U": [[0.0001213447, 0.0174626272, 0.0005245547, 0.0117677428,
                   -0.0009403436, -0.0176235796, 0.001121598, 0.0368847888],
                  [0.0007894135, 0.0644433749, 0.0020314299, 0.0432821732,
                   -0.0094360399, -0.067831225, 0.0058090834, 0.085779396]],
    "lstm_bw_b": [-0.0024489243, -0.1475831269, -0.0038497632, -0.0803512008,
                  0.0731519969, 0.3291492667, -0.0132197827, -0.2088289476],
}


def test_bilstm_final_state_forward_and_backward_match_recorded_values():
    layer = BiLSTM(2, 2, dropout=0.3, return_sequences=False,
                   rng=np.random.default_rng(4), dtype=np.float64)
    g = np.random.default_rng(6)
    x = g.normal(size=(2, 4, 2))
    y, _ = layer.forward(x, np.array([4, 2]), train=True, rng=np.random.default_rng(7))
    dx = layer.backward(g.normal(size=y.shape))
    assert np.allclose(y, GOLDEN_FINAL_STATE["y"], rtol=0, atol=TOL)
    assert np.allclose(dx, GOLDEN_FINAL_STATE["dx"], rtol=0, atol=TOL)
    for p in layer.parameters():
        assert np.allclose(p.grad, GOLDEN_FINAL_STATE[p.name], rtol=0, atol=TOL), p.name
