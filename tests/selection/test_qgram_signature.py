"""The q-gram signature pre-filter of the edit-distance index.

The filter must be a pure pruning step — never dropping a true match — and
stable across processes and interpreter runs (no hash randomization).
"""

from __future__ import annotations

import numpy as np

from repro.distances import levenshtein
from repro.selection.edit_index import QGramEditSelector, qgram_signature


class TestQGramSignatureFilter:
    def test_never_prunes_a_true_match(self):
        # Exhaustive check against brute-force edit distance: the signature
        # filter plus counting must return exactly the brute-force answers.
        rng = np.random.default_rng(5)
        alphabet = list("abcde")
        words = [
            "".join(rng.choice(alphabet, size=int(rng.integers(3, 10))))
            for _ in range(120)
        ]
        selector = QGramEditSelector(words)
        for query in words[:15]:
            for threshold in (1.0, 2.0, 3.0):
                expected = {
                    i for i, word in enumerate(words)
                    if levenshtein(query, word) <= threshold
                }
                # Id order follows the length-filter walk; membership is the
                # exactness contract.
                assert set(selector.query(query, threshold)) == expected

    def test_signature_is_deterministic_crc_not_hash(self):
        # Stable across processes: derived from crc32, never from hash().
        grams = ["ab", "bc", "cd"]
        signature = qgram_signature(grams)
        assert isinstance(signature, int)
        assert signature == qgram_signature(list(grams))
        import zlib

        expected = 0
        for gram in grams:
            expected |= 1 << (zlib.crc32(gram.encode("utf-8")) & 63)
        assert signature == expected

    def test_filter_actually_prunes(self):
        # Sanity that the filter is not a no-op: a gram-rich query certifies
        # many absent grams against unrelated strings (>` q·θ`) and prunes
        # them before any gram counting.
        words = ["abcdefgh", "zyxwvuts", "mnopqrst", "abcdefgx"]
        selector = QGramEditSelector(words)
        survivors = selector._signature_survivors(
            int(selector._signatures[0]),
            list(range(len(words))),
            threshold=1,
        )
        assert 0 in survivors and 3 in survivors
        assert 1 not in survivors and 2 not in survivors

    def test_snapshot_restore_recomputes_signatures(self, tmp_path):
        from repro.store import load_component, save_component

        words = ["gram", "grams", "grampa", "signature", "signatures"]
        selector = QGramEditSelector(words)
        save_component(selector, tmp_path / "snap")
        restored = load_component(tmp_path / "snap")
        assert np.array_equal(restored._signatures, selector._signatures)
        assert restored.query("grams", 1.0) == selector.query("grams", 1.0)
