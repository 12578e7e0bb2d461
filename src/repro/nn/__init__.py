"""Neural substrate in numpy.

``functional`` holds the stateless ops (softmax, GELU, layer norm);
``transformer`` the forward-only encoder the simulated pre-trained models
run on; ``autograd`` the small manual-gradient module set (linear layers,
attention pooling) that trainable networks — the DeepMatcher baseline —
are built from; ``optim`` the Adam optimizer for those.
"""

from repro.nn.functional import gelu, layer_norm, softmax
from repro.nn.optim import Adam
from repro.nn.transformer import EncoderConfig, TransformerEncoder

__all__ = [
    "Adam",
    "EncoderConfig",
    "TransformerEncoder",
    "gelu",
    "layer_norm",
    "softmax",
]
