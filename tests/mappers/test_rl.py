"""RL mapper: the learning loop produces valid mappings and improves.

rl's mappings on the six sweep-exact kernels and its routing work are
pinned, and its sampler is checked against the numpy call it copies.
The digests are independent of ``PYTHONHASHSEED``; CI runs this file
under two hash seeds to keep it that way.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.api import map_dfg
from repro.arch import presets
from repro.core.registry import create
from repro.core.serialize import mapping_to_doc
from repro.ir import kernels
from repro.mappers.rl_mapper import RLMapper, weighted_permutation
from repro.mappers.schedule import priority_order
from repro.obs.tracer import BACKTRACKS, ROUTING_ATTEMPTS, tracing

#: kernel -> digest of rl's ``mapping_to_doc`` on simple4x4
SWEEP_DIGESTS = {
    "fir4": "5ec837581e706fa5",
    "sobel_x": "2a76146fee116d3c",
    "sad": "257b7860e202a32a",
    "iir_biquad": "b832f959174972c4",
    "stencil1d_mem": "049152542f36372f",
    "if_select": "b8d5e82e49f34f16",
}

#: tracer totals over the SWEEP_DIGESTS kernels
SWEEP_TOTALS = {ROUTING_ATTEMPTS: 17_041, BACKTRACKS: 8_912}


@pytest.fixture(scope="module")
def cgra():
    return presets.simple_cgra(4, 4)


@pytest.mark.parametrize("kname", ["dot_product", "if_select", "horner"])
def test_rl_maps_kernels(cgra, kname):
    m = map_dfg(kernels.kernel(kname), cgra, mapper="rl", seed=1)
    assert m.validate() == []


def test_rl_is_deterministic_per_seed(cgra):
    m1 = map_dfg(kernels.if_select(), cgra, mapper="rl", seed=5)
    m2 = map_dfg(kernels.if_select(), cgra, mapper="rl", seed=5)
    assert m1.binding == m2.binding
    assert m1.schedule == m2.schedule


def test_rl_respects_requested_ii(cgra):
    m = map_dfg(kernels.dot_product(), cgra, mapper="rl", ii=2)
    assert m.ii == 2


def test_sweep_kernels_pinned(cgra):
    with tracing() as tr:
        digests = {
            k: hashlib.sha256(json.dumps(
                mapping_to_doc(create("rl").map(kernels.kernel(k), cgra)),
                sort_keys=True,
            ).encode()).hexdigest()[:16]
            for k in SWEEP_DIGESTS
        }
    assert digests == SWEEP_DIGESTS
    totals = {c: sum(r.total(c) for r in tr.roots) for c in SWEEP_TOTALS}
    assert totals == SWEEP_TOTALS


def _probabilities(gen: np.random.Generator, n: int, case: int) -> np.ndarray:
    """A normalised ``p`` of size ``n``: uniform draws, or a softmax of
    normal logits whose wide spread leaves entries near zero."""
    if case % 3:
        w = gen.random(n) + 1e-12
    else:
        z = gen.normal(0.0, 0.5 + case % 40, n)
        w = np.exp(z - z.max())
    return w / w.sum()


def test_weighted_permutation_matches_numpy_choice():
    """The copy returns numpy's permutation and leaves the generator in
    numpy's state, so rl's bytes cannot drift from the call it copies."""
    gen = np.random.default_rng(21)
    near_zero = 0
    for case in range(3000):
        n = 1 + case % 16
        p = _probabilities(gen, n, case)
        near_zero += bool(p.min() < 1e-9)
        ref = np.random.default_rng(case)
        rng = np.random.default_rng(case)
        expect = ref.choice(n, size=n, replace=False, p=p).tolist()
        assert weighted_permutation(rng, p.tolist()) == expect, (case, p)
        assert rng.bit_generator.state == ref.bit_generator.state, case
    assert near_zero > 100


@pytest.mark.parametrize("p", [
    [0.5, float("nan"), 0.5],
    [0.5, 0.5, 0.0],
    [1.0, 0.0],
    [0.7, 0.7],
    [1.2, -0.2],
], ids=["nan", "zero", "zeros", "sum", "negative"])
def test_weighted_permutation_rejects_what_numpy_rejects(p):
    with pytest.raises(ValueError):
        np.random.default_rng(0).choice(
            len(p), size=len(p), replace=False, p=p
        )
    with pytest.raises(ValueError):
        weighted_permutation(np.random.default_rng(0), p)


def test_policy_learns_on_sobel(cgra):
    """Average episode reward improves from the first to the last
    quarter of training — the method-family property [74] claims."""
    mapper = RLMapper(seed=3, episodes=80)
    dfg = kernels.sobel_x()
    order = priority_order(dfg, by="height")
    cand = {
        nid: [c.cid for c in cgra.cells
              if c.supports(dfg.node(nid).op)]
        for nid in order
    }
    logits = {nid: np.zeros(len(cand[nid])) for nid in order}
    rng = np.random.default_rng(3)
    rewards = []
    baseline = 0.0
    for _ in range(mapper.episodes):
        r, _, steps = mapper._episode(
            dfg, cgra, 2, order, cand, logits, rng
        )
        rewards.append(r)
        mapper._reinforce(logits, steps, r - baseline)
        baseline += 0.1 * (r - baseline)
    q = len(rewards) // 4
    assert sum(rewards[-q:]) / q > sum(rewards[:q]) / q
