"""The EM adapter — the paper's core contribution (Sections 3-4).

An :class:`EMAdapter` pipelines three components:

* a **Tokenizer** (:mod:`repro.adapter.tokenizer`) that turns each pair
  record into one or more ``left [SEP] right`` token sequences —
  unstructured, attribute-based, or hybrid (incremental concatenations);
* an **Embedder** (:mod:`repro.adapter.embedder`) that encodes every
  sequence with a frozen pre-trained transformer into a fixed-size vector;
* a **Combiner** (:mod:`repro.adapter.combiner`) that reduces the
  per-sequence vectors of one record to a single feature vector.

The resulting matrix is what AutoML systems consume. The module also
provides the *no-adapter* featurizations of Section 5.1
(:mod:`repro.adapter.features`) and the data-augmentation future-work
extension (:mod:`repro.adapter.augmentation`).
"""

from repro.adapter.augmentation import balance_dataset, shuffle_attribute, swap_pair
from repro.adapter.combiner import Combiner, ConcatCombiner, MeanCombiner, make_combiner
from repro.adapter.embedder import TransformerEmbedder
from repro.adapter.entity_store import (
    EntityStore,
    clear_entity_store,
    entity_store,
)
from repro.adapter.features import (
    NativeTabularFeaturizer,
    Word2VecFeaturizer,
)
from repro.adapter.local_embedder import LocalWord2VecEmbedder
from repro.adapter.pipeline import EMAdapter
from repro.adapter.tokenizer import (
    TOKENIZER_NAMES,
    AttributeTokenizer,
    HybridTokenizer,
    PairTokenizer,
    UnstructuredTokenizer,
    make_tokenizer,
)

__all__ = [
    "AttributeTokenizer",
    "Combiner",
    "ConcatCombiner",
    "EMAdapter",
    "EntityStore",
    "HybridTokenizer",
    "LocalWord2VecEmbedder",
    "MeanCombiner",
    "NativeTabularFeaturizer",
    "PairTokenizer",
    "TOKENIZER_NAMES",
    "TransformerEmbedder",
    "UnstructuredTokenizer",
    "Word2VecFeaturizer",
    "balance_dataset",
    "clear_entity_store",
    "entity_store",
    "make_combiner",
    "make_tokenizer",
    "shuffle_attribute",
    "swap_pair",
]
