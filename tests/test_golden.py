"""Golden virtual traces: every fixture in every mode, pinned byte for byte.

The digests are sha256 over ``RunTrace.to_jsonl()``, over its lines less the
INTEGRATE events, over the recorded dependency edge list and over the
context the run leaves. A refactor that claims to keep behaviour must leave
every entry unchanged; a change that shifts a virtual trace on purpose
updates the entry and says why.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from conftest import run_fixture
from futurecall.trace import INTEGRATE

GOLDEN = {
    ("fig1", "sync-sequential"): ("5fd91c2c28bb4ed865b5bf19b558d627f80a638f14fda39bad49805f40246b73", 19.0),
    ("fig1", "sync-parallel"): ("370083237eb31a726ed349f93f80d87f8c6a91e74fa903c756c9cb78d0950ee9", 13.0),
    ("fig1", "async-sequential"): ("6c1d98ad8a1545477a016ba92fa525d861f1e06a0c74e58804fb03c2f5b9da3d", 13.0),
    ("fig1", "async-parallel"): ("914076044d842b2349743ec8227ed31d49c68320141b939bafbb5ceb6545686f", 12.0),
    ("vehicle", "sync-sequential"): ("dae51d3dd899b16fa517f48167366dc5a56a96813c22d76c56c28165719c2429", 10.0),
    ("vehicle", "sync-parallel"): ("a958de9717bd5f9eb6332a2b77ce46e8b9fd067bc69859fd2a01bb32b4dcbe3e", 10.0),
    ("vehicle", "async-sequential"): ("14dd8fccdaf137189dd1d8f56a205f463820f946d291c06ae3ce1d71358098b9", 9.0),
    ("vehicle", "async-parallel"): ("36c79228af8c1413fdcd1023f46026732209c95760bcefaf28c6df71c37938f2", 9.0),
    ("diamond", "sync-sequential"): ("6c228d2bcedd7cf4ca4712cdb50c7033d66afd599243b912649267088c17bc79", 21.0),
    ("diamond", "sync-parallel"): ("6bbc74bc933159eb240ac9ae9f25efc425e0df1915c253abe371cb1a949dbeb5", 17.0),
    ("diamond", "async-sequential"): ("81a8b40d4213a520d1dd761a653b6647c90e500fa49b700a0ead4c1d57124430", 15.0),
    ("diamond", "async-parallel"): ("da14908c9c1c2d13510605d0bdb2f8275b8953916217e5ceebd2bea096771f8e", 15.0),
    ("fail-chain", "sync-sequential"): ("dcd5c7377135d6b08bc0745c23d8afcc36aecd0e3bd5c5119d43b28cae0077c3", 18.0),
    ("fail-chain", "sync-parallel"): ("59f49c10fc405e7b2b04c798237809cc1685929d875bf825aebceafdc107198b", 18.0),
    ("fail-chain", "async-sequential"): ("872bfd8701677a36abbc95a5e239f8ea28eb402b026122f6c6fbf457beca057b", 7.0),
    ("fail-chain", "async-parallel"): ("5010910bb9f2387bb980642a8dfb080077eaa045935501f572437d44f7328bca", 7.0),
    ("thinking", "sync-sequential"): ("b031528aeac624dbb789d172e12731aa430d19a25438a304b193223c8a6af1de", 15.0),
    ("thinking", "sync-parallel"): ("954476a6b77f47c632b0e613632e3afb4c6719e7715fa5d0df72a811137bf5eb", 15.0),
    ("thinking", "async-sequential"): ("83fd953f78fd3a5dae67694c5e3dbf12c7f50d77d942e972aa770742c33edd85", 9.0),
    ("thinking", "async-parallel"): ("9d0a9545aa126ad19b82abd49c0a2cb31b8011ca6abddf96596af86f52d95d40", 9.0),
    ("pairs", "sync-sequential"): ("601cbe6d3b580756bfa984c7ad0ce9189feb051f05a015598b6dc945951b1c77", 37.0),
    ("pairs", "sync-parallel"): ("7da35f6273468f1281333618b3e67bcdd3e134acfbbb2af02e97345bb8e97d06", 19.0),
    ("pairs", "async-sequential"): ("f184d10e60aa1ed302708f926d281bd5cf05228ca71400b5b938acf77b6d3536", 12.0),
    ("pairs", "async-parallel"): ("6a9cd499bbe5d2d0c02400186a55841d3407be8b380d09ae35bd18ddedd15ce9", 9.0),
    # Queue heads blocked on a pending ``@Fk.field`` path template (one
    # resolves, one fails) and a ``$session/`` read behind a session write.
    ("templated", "sync-sequential"): ("2ac31389bdc8ef0c69026f4712dee6e4759cea366b2804141e99cea1321da509", 25.0),
    ("templated", "sync-parallel"): ("60132aca8f6d8a274feae36b680f9aa93aabe923cf5ccc83f607ebf6af6f197e", 11.0),
    ("templated", "async-sequential"): ("deb25b765fa9d12aa56df1abab0fe0604f73d553d963c50c571fdc9b158720ad", 10.0),
    ("templated", "async-parallel"): ("8a960dcf7dbe81a645f0611690cb8d43c0fe55e90421c967c24fee9a340c3f48", 9.0),
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
    ("templated", "sync-sequential"): "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ("templated", "sync-parallel"): "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ("templated", "async-sequential"): "46b1f21d787074ee42a3d9785048920547ac4eff1e8782a93e60360d7c476fbf",
    ("templated", "async-parallel"): "46b1f21d787074ee42a3d9785048920547ac4eff1e8782a93e60360d7c476fbf",
}


# sha256 over the ``to_jsonl()`` lines whose kind is not ``integrate``, the
# summary line included: the virtual timeline of decodes, executions and
# awaits. How often a boundary integrates may change without moving it.
GOLDEN_TIMELINE = {
    ("fig1", "sync-sequential"): "5fd91c2c28bb4ed865b5bf19b558d627f80a638f14fda39bad49805f40246b73",
    ("fig1", "sync-parallel"): "370083237eb31a726ed349f93f80d87f8c6a91e74fa903c756c9cb78d0950ee9",
    ("fig1", "async-sequential"): "07fb4d91c924b3fa8d623ca2b50cfe448b1eff7ec173067335f451c7c1456ba4",
    ("fig1", "async-parallel"): "6af42d565281aa782e32168d38b8adc1e9457717c883c4591162e7edd571677c",
    ("vehicle", "sync-sequential"): "dae51d3dd899b16fa517f48167366dc5a56a96813c22d76c56c28165719c2429",
    ("vehicle", "sync-parallel"): "a958de9717bd5f9eb6332a2b77ce46e8b9fd067bc69859fd2a01bb32b4dcbe3e",
    ("vehicle", "async-sequential"): "cba6bab66b8d85ffce70803367aae27bb007296270d2da505d46ab52f92ffde1",
    ("vehicle", "async-parallel"): "7d3b93bd68ce665217ee56e161dca0cb22cbb266d2753acc0baf71184594e743",
    ("diamond", "sync-sequential"): "6c228d2bcedd7cf4ca4712cdb50c7033d66afd599243b912649267088c17bc79",
    ("diamond", "sync-parallel"): "6bbc74bc933159eb240ac9ae9f25efc425e0df1915c253abe371cb1a949dbeb5",
    ("diamond", "async-sequential"): "828d9bb249eaeb9455e2451aa326f290e0b5062abf7aea9f0e8c6eadfbbeef79",
    ("diamond", "async-parallel"): "314b7aa5ced9cae70d4d55599ccab64b15e2237a83180645b219e45231c7a896",
    ("fail-chain", "sync-sequential"): "dcd5c7377135d6b08bc0745c23d8afcc36aecd0e3bd5c5119d43b28cae0077c3",
    ("fail-chain", "sync-parallel"): "59f49c10fc405e7b2b04c798237809cc1685929d875bf825aebceafdc107198b",
    ("fail-chain", "async-sequential"): "07ba46cf60a8c85d8481f5b15b53c0b9225ede2b7568368c26f491fc5306ff1c",
    ("fail-chain", "async-parallel"): "48165ff3a328e0cfd9fc8af3004bc4e4f940680f32262e039f8bd7171b07eeea",
    ("thinking", "sync-sequential"): "b031528aeac624dbb789d172e12731aa430d19a25438a304b193223c8a6af1de",
    ("thinking", "sync-parallel"): "954476a6b77f47c632b0e613632e3afb4c6719e7715fa5d0df72a811137bf5eb",
    ("thinking", "async-sequential"): "ec0f1e2a82003d6c9a1df92c3829d2984231c67d3245008048318c864c824e38",
    ("thinking", "async-parallel"): "8c393306e8ff59fadd0b9ae8ed5ffb60ae940f4f81c6fcbb25c6b7ae450ee699",
    ("pairs", "sync-sequential"): "601cbe6d3b580756bfa984c7ad0ce9189feb051f05a015598b6dc945951b1c77",
    ("pairs", "sync-parallel"): "7da35f6273468f1281333618b3e67bcdd3e134acfbbb2af02e97345bb8e97d06",
    ("pairs", "async-sequential"): "a01cd272a73022495ea910217b3facca02bc43bd7b58b48cebb3f6f7d9e85b65",
    ("pairs", "async-parallel"): "16d7c123d551e1cfa3a49a0cab5ce966ee08c568c3641c26cc25fccfe226a6ff",
    ("templated", "sync-sequential"): "2ac31389bdc8ef0c69026f4712dee6e4759cea366b2804141e99cea1321da509",
    ("templated", "sync-parallel"): "60132aca8f6d8a274feae36b680f9aa93aabe923cf5ccc83f607ebf6af6f197e",
    ("templated", "async-sequential"): "15cabfba2c4a114acc718aa7fd8e5b79d2bc7a252e77f2adb6d918be4e7895d1",
    ("templated", "async-parallel"): "8719644dd3ee528454804f3b8dc6f933c57027eb2c7f22d50335b6a3cabe2e1a",
}


# sha256 of ``json.dumps(trace.context_json())``, keys in the order the
# messages build them: what the model sees, placeholders and integrated
# outcomes included.
GOLDEN_CONTEXTS = {
    ("fig1", "sync-sequential"): "ee6ba70f7f949c9de28dcc79f0880ae6d6767c67a80c8162599e3d90967057b8",
    ("fig1", "sync-parallel"): "3e7e803c868e93ef58a7728c2b0e412831c6d97f28678aeb8df8160a29e4a067",
    ("fig1", "async-sequential"): "b6ce75cf9f0ca7f34985b449decb380cc0f3bbbc9a0eef3e25c64f11a02a8087",
    ("fig1", "async-parallel"): "496f9a2674e9f954ae7cf58aa9ccab031ea7aaf2424176ba86131c3caf6eff04",
    ("vehicle", "sync-sequential"): "83f961ccbbbab5a0fc1f2a435dbf939819a825dc031c1c4a7d4cda6bcaaabaed",
    ("vehicle", "sync-parallel"): "83f961ccbbbab5a0fc1f2a435dbf939819a825dc031c1c4a7d4cda6bcaaabaed",
    ("vehicle", "async-sequential"): "d85db869097c69a885f3f6dd6d82bdb92df706087807fc3f6381e154ffe2b31b",
    ("vehicle", "async-parallel"): "d85db869097c69a885f3f6dd6d82bdb92df706087807fc3f6381e154ffe2b31b",
("diamond", "sync-sequential"): "e24775ffd0fbbb015d3c4a950f702da5b45cf3ec7f63055aff461a28895b56f8",
    ("diamond", "sync-parallel"): "6dd6a9842bbe97eb008066a07e41dc9e5fceb9740f2e3fb822d4a2f8423a2c3d",
    ("diamond", "async-sequential"): "f07e845d44fd8e3e6d4cf15d14413ee2dbbb1fc20a8de194b014162296940041",
    ("diamond", "async-parallel"): "57c8d157be71f40d589f68163600acc779812fb964e6794c1f4e07e922e521f9",
    ("fail-chain", "sync-sequential"): "25e66a7ef3f2cd5238f69ff0c7741490707ff24906270a03d83c43b0c34123ba",
    ("fail-chain", "sync-parallel"): "25e66a7ef3f2cd5238f69ff0c7741490707ff24906270a03d83c43b0c34123ba",
    ("fail-chain", "async-sequential"): "d2cbe7c7a4ae14c8b48fa7b68462401eeaaf5f4c0fa2b82bf39d17364cc45bd6",
    ("fail-chain", "async-parallel"): "d2cbe7c7a4ae14c8b48fa7b68462401eeaaf5f4c0fa2b82bf39d17364cc45bd6",
    ("thinking", "sync-sequential"): "3d9bf5e34a8c300c926b939e6afdfd5d896e51c187ec4978541513b83b8ecdf6",
    ("thinking", "sync-parallel"): "3d9bf5e34a8c300c926b939e6afdfd5d896e51c187ec4978541513b83b8ecdf6",
    ("thinking", "async-sequential"): "a3532bb032e8262c9a718f82c683d0494212c7460956ef64512d020cb02b3309",
    ("thinking", "async-parallel"): "a3532bb032e8262c9a718f82c683d0494212c7460956ef64512d020cb02b3309",
    ("pairs", "sync-sequential"): "7087ffa9f5d5dee735d761ca04cbd4f5ba47a26af72514d16d41ab61b15f501b",
    ("pairs", "sync-parallel"): "6c778a7fd5ee9aac36d958611c0b66d9322d9fe2bbbe48c09334104cf93a6d87",
    ("pairs", "async-sequential"): "414dc55cf526df2140d3597b02dc1e376fa4d9c98180ca0a49f079938a713654",
    ("pairs", "async-parallel"): "69b5a728a86c3dbb27da06c777476862b15ccf71aa1d6875c7dc4b5ca15611cd",
    ("templated", "sync-sequential"): "6ade0e9910a4bde9cefb02b1ec3862ccc0bece3439ba5b1bc1db347cf3ef6426",
    ("templated", "sync-parallel"): "aad6508109ffab36f555b6743542267948bbfecd57bb24f453fba6d795c9b569",
    ("templated", "async-sequential"): "af040e81a321e568fbf8e21efc6a5e0892ccb70287f32f866e346f8958cf404a",
    ("templated", "async-parallel"): "dd3b223bdadfd306a4b0358fe4f52adb9d4b56443ae652f6c123c574b50c05a0",
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


@pytest.mark.parametrize("name,mode", sorted(GOLDEN_TIMELINE), ids=lambda v: v)
def test_timeline_without_integrations_matches_golden(name, mode):
    lines = run_fixture(name, mode).to_jsonl().splitlines(keepends=True)
    timeline = "".join(line for line in lines if json.loads(line)["kind"] != INTEGRATE)
    assert hashlib.sha256(timeline.encode()).hexdigest() == GOLDEN_TIMELINE[(name, mode)]


@pytest.mark.parametrize("name,mode", sorted(GOLDEN_CONTEXTS), ids=lambda v: v)
def test_context_matches_golden(name, mode):
    context = json.dumps(run_fixture(name, mode).context_json())
    assert hashlib.sha256(context.encode()).hexdigest() == GOLDEN_CONTEXTS[(name, mode)]
