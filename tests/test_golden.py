"""Golden virtual traces: every fixture in every mode, pinned byte for byte.

The digests are sha256 over ``RunTrace.to_jsonl()`` and over the recorded
dependency edge list. A refactor that claims to keep behaviour must leave
every entry unchanged; a change that shifts a virtual trace on purpose
updates the entry and says why.
"""

from __future__ import annotations

import hashlib

import pytest

from conftest import run_fixture

GOLDEN = {
    ("fig1", "sync-sequential"): ("5fd91c2c28bb4ed865b5bf19b558d627f80a638f14fda39bad49805f40246b73", 19.0),
    ("fig1", "sync-parallel"): ("370083237eb31a726ed349f93f80d87f8c6a91e74fa903c756c9cb78d0950ee9", 13.0),
    ("fig1", "async-sequential"): ("57c1a4af8824a83a235e3a7c83571ae1310f58dc2d59b5c70ca665dc8f3fd8ea", 13.0),
    ("fig1", "async-parallel"): ("81e796f76d09d74c2efd03f26827bacb20d023dd5c0fc5b996913188b23aa716", 12.0),
    ("vehicle", "sync-sequential"): ("dae51d3dd899b16fa517f48167366dc5a56a96813c22d76c56c28165719c2429", 10.0),
    ("vehicle", "sync-parallel"): ("a958de9717bd5f9eb6332a2b77ce46e8b9fd067bc69859fd2a01bb32b4dcbe3e", 10.0),
    ("vehicle", "async-sequential"): ("ba6fe100b0a6a90d7e090009794900049d22a0ccd23504320f6bf56a378fc774", 9.0),
    ("vehicle", "async-parallel"): ("4756edfcb94bb85e79d0eeb9ec250b4fd5b6227f5cf56029452b4f11ef39ffa8", 9.0),
    ("diamond", "sync-sequential"): ("6c228d2bcedd7cf4ca4712cdb50c7033d66afd599243b912649267088c17bc79", 21.0),
    ("diamond", "sync-parallel"): ("6bbc74bc933159eb240ac9ae9f25efc425e0df1915c253abe371cb1a949dbeb5", 17.0),
    ("diamond", "async-sequential"): ("f604ddc0d51620b3ba85ec780e15fd95dc8fc8bb7a4962036c361c2e710a0f0b", 15.0),
    ("diamond", "async-parallel"): ("5147aa88b2a735f90c5d4e93dddff02c5364af47b4671c76105c1778f2004290", 15.0),
    ("fail-chain", "sync-sequential"): ("dcd5c7377135d6b08bc0745c23d8afcc36aecd0e3bd5c5119d43b28cae0077c3", 18.0),
    ("fail-chain", "sync-parallel"): ("59f49c10fc405e7b2b04c798237809cc1685929d875bf825aebceafdc107198b", 18.0),
    ("fail-chain", "async-sequential"): ("872bfd8701677a36abbc95a5e239f8ea28eb402b026122f6c6fbf457beca057b", 7.0),
    ("fail-chain", "async-parallel"): ("5010910bb9f2387bb980642a8dfb080077eaa045935501f572437d44f7328bca", 7.0),
    ("thinking", "sync-sequential"): ("b031528aeac624dbb789d172e12731aa430d19a25438a304b193223c8a6af1de", 15.0),
    ("thinking", "sync-parallel"): ("954476a6b77f47c632b0e613632e3afb4c6719e7715fa5d0df72a811137bf5eb", 15.0),
    ("thinking", "async-sequential"): ("5e46568bfadc92cab8482abc104414c8fd98c889b03c7fb9789bb01d44f29221", 9.0),
    ("thinking", "async-parallel"): ("77d0e4ca4bf1e5b0abbfa0ab5587a1fc262d8abdf31a7de12a0122618db3208e", 9.0),
    ("pairs", "sync-sequential"): ("601cbe6d3b580756bfa984c7ad0ce9189feb051f05a015598b6dc945951b1c77", 37.0),
    ("pairs", "sync-parallel"): ("7da35f6273468f1281333618b3e67bcdd3e134acfbbb2af02e97345bb8e97d06", 19.0),
    ("pairs", "async-sequential"): ("f7ab14e79002ad832268401779daebbb00676d842d252c5e62f09eb1b917d2ef", 12.0),
    ("pairs", "async-parallel"): ("aa58307385a1490ef18c645c87d3f2ad50da28684f535b4cbbb47735d0cd6a55", 9.0),
}

# sha256 of ``repr(trace.edges)``. Edges are not in the JSONL, yet
# cancellation walks them in recorded order, so their order is pinned too.
GOLDEN_EDGES = {
    ("fig1", "sync-sequential"): "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ("fig1", "sync-parallel"): "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ("fig1", "async-sequential"): "dc95c6d8613773f0886681afd5794762e81de4ea81e6eac0c92bf5812e13952f",
    ("fig1", "async-parallel"): "dc95c6d8613773f0886681afd5794762e81de4ea81e6eac0c92bf5812e13952f",
    ("vehicle", "sync-sequential"): "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ("vehicle", "sync-parallel"): "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ("vehicle", "async-sequential"): "a017bebbc39e70d40dd8a3499903f95d29ba6c151096e3900dcef8eaab388aa4",
    ("vehicle", "async-parallel"): "a017bebbc39e70d40dd8a3499903f95d29ba6c151096e3900dcef8eaab388aa4",
    ("diamond", "sync-sequential"): "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ("diamond", "sync-parallel"): "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ("diamond", "async-sequential"): "8fbf44bfee1d60902e31c1c3e7624aa62f3d1eb8c4204763bfaf36947b3534b7",
    ("diamond", "async-parallel"): "8fbf44bfee1d60902e31c1c3e7624aa62f3d1eb8c4204763bfaf36947b3534b7",
    ("fail-chain", "sync-sequential"): "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ("fail-chain", "sync-parallel"): "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ("fail-chain", "async-sequential"): "139a0b7a19b65d5ee7eb95322915c9b420a9b4df323f72f93de8c9a7abdb1b46",
    ("fail-chain", "async-parallel"): "139a0b7a19b65d5ee7eb95322915c9b420a9b4df323f72f93de8c9a7abdb1b46",
    ("thinking", "sync-sequential"): "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ("thinking", "sync-parallel"): "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ("thinking", "async-sequential"): "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ("thinking", "async-parallel"): "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ("pairs", "sync-sequential"): "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ("pairs", "sync-parallel"): "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ("pairs", "async-sequential"): "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ("pairs", "async-parallel"): "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
}


@pytest.mark.parametrize("name,mode", sorted(GOLDEN), ids=lambda v: v)
def test_virtual_trace_matches_golden(name, mode):
    digest, end_to_end = GOLDEN[(name, mode)]
    trace = run_fixture(name, mode)
    assert trace.end_to_end == end_to_end
    assert hashlib.sha256(trace.to_jsonl().encode()).hexdigest() == digest


@pytest.mark.parametrize("name,mode", sorted(GOLDEN_EDGES), ids=lambda v: v)
def test_edge_list_matches_golden(name, mode):
    trace = run_fixture(name, mode)
    assert hashlib.sha256(repr(trace.edges).encode()).hexdigest() == GOLDEN_EDGES[(name, mode)]
