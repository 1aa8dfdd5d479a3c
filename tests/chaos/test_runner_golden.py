"""Golden chaos runs: ``run_sim``'s executions are pinned bit for bit.

Each case is one ``SIM_TARGETS`` entry under one campaign shape — the
empty plan (what a fuzz run is), ``sample_sim_campaign`` with six
timing windows and no crashes, the same with ``crash_prob=0.3``
(``crash_at``/``crash_after`` entries, plus corruptions on targets that
declare corruptible registers), and
``sample_recover_campaign`` (crash/restart pairs, corruption bursts) —
over fifteen run seeds.  Every run is generated, then its recorded
schedule is replayed; the digest is a sha256 over ``(schedule,
violations, verdicts, steps, done)`` of both.  The literals were
generated before ``run_sim`` stopped settling faults at every step, so
a change to RNG draw order, fault timing, the halted set or monitor
order fails here first.

Re-pin (only for a change that is *meant* to alter executions):
``PYTHONPATH=src python tests/chaos/test_runner_golden.py``.
"""

import hashlib

import pytest

from repro.chaos.plan import (
    Campaign,
    sample_recover_campaign,
    sample_sim_campaign,
)
from repro.chaos.runner import SIM_TARGETS, run_sim

RUN_SEEDS = 15


def _campaign(target, shape):
    seed = f"golden-{target.name}-{shape}"
    if shape == "empty":
        return Campaign(substrate="sim", seed=seed)
    if shape == "recover":
        return sample_recover_campaign(
            seed, pids=target.pids, corruption_registers=target.corruptible
        )
    return sample_sim_campaign(
        seed, pids=target.pids, windows=6,
        crash_prob=0.3 if shape == "crashes" else 0.0,
        corruption_registers=target.corruptible,
    )


def _record(outcome):
    return (
        outcome.schedule,
        [(v.monitor, v.message, v.step) for v in outcome.violations],
        [(v.monitor, v.message, v.step) for v in outcome.verdicts],
        outcome.steps,
        outcome.done,
    )


def measure(name, shape):
    target = SIM_TARGETS[name]
    campaign = _campaign(target, shape)
    digest = hashlib.sha256()
    for index in range(RUN_SEEDS):
        generated = run_sim(target, campaign, run_seed=str(index))
        replayed = run_sim(target, campaign, schedule=generated.schedule)
        digest.update(repr((_record(generated), _record(replayed))).encode())
    return digest.hexdigest()


SHAPES = ("empty", "windows", "crashes", "recover")

GOLDEN = {
    ('fischer_n3', 'empty'): '32f1c50712ea0099074e9095b20fe1a3b009344db63f5a9e52907f520c450cc0',
    ('fischer_n3', 'windows'): 'df94248bf20c71f49a9a2b213eb1fd79824af0158197db27f0d1bade917e4a1e',
    ('fischer_n3', 'crashes'): '4d5d2f0db35590bc78665a5ef418e0a90fba51810e6c6c6d891352b5fddecd68',
    ('fischer_n3', 'recover'): '60dd1531ad87d172cd42b157153acda604946b943011ca9635e2f6e5dc0d4b69',
    ('alg3_n4', 'empty'): 'b953454b9d046325705668088022c8ee37d37f8dc236113375023e8478fcbf36',
    ('alg3_n4', 'windows'): 'fd5a295a71e13b476c717b7e2566cf4afc519230467c2c6726feeb324d21e8b3',
    ('alg3_n4', 'crashes'): 'acbbd52838008bb806cf146b43efdda9c892ba26c7c92e90ddf7b7088ebb1f66',
    ('alg3_n4', 'recover'): '277675e7eb7caabbbc9a46bf752f0eacf6048c7f718762c25cfd7fe37aed42cd',
    ('consensus_n4', 'empty'): 'edd8959133074eb8c487abcf4db2643106c439e9c63c559da0e1b676d4fde75a',
    ('consensus_n4', 'windows'): 'b6acb8e76de17b15d0dfcd64fd9409759c7c5c24b2ee04de424de05b516a23fc',
    ('consensus_n4', 'crashes'): '23a64f6d8c237be6d5a52eb0f2174b706addfe171d5a1c8ef93b62d540f32a5b',
    ('consensus_n4', 'recover'): '8bb111e71e0527d4a4569083337de082150b73fab4c926caca75935c4bf3af39',
    ('dg_mutex_n3', 'empty'): 'f66146438557769bb76d04dd4da4e2cd18e5ec793ef325c89bcd1bb2bff6111b',
    ('dg_mutex_n3', 'windows'): '3341c383e22b5ff53b8abac01a67448cab2ce87e6a4c18dc59179389fe8e28b4',
    ('dg_mutex_n3', 'crashes'): 'd9f25890d4512ba89c30e3b1623658939a9b304c6f75e5914abaf170b9acfa7f',
    ('dg_mutex_n3', 'recover'): 'fcff736776a33fe4bcc6391a7005d417a51af22d72b3b2b5f8edeca79c41a86f',
    ('golab_consensus_n3', 'empty'): '4e2e743f8cea78cb63e12f98165d04914232a13e9e76503a02cf9760bbd1d4f4',
    ('golab_consensus_n3', 'windows'): '5245adeb104a516b17a5915a004ce7a9878483784f42b76863b09e09d7db38cf',
    ('golab_consensus_n3', 'crashes'): '7d845822a12b74f7606f9cbf838b9ee0c302f86297e8a2f0d046abb4348fd3df',
    ('golab_consensus_n3', 'recover'): 'f1ed38704c57a7d46ef3235775638aafd78bb50209cfb59db2ab623e50ffb399',
}


@pytest.mark.parametrize("name,shape", list(GOLDEN))
def test_chaos_run_is_bit_identical_to_the_pinned_one(name, shape):
    assert measure(name, shape) == GOLDEN[name, shape]


def test_every_target_and_shape_is_pinned():
    assert set(GOLDEN) == {(n, s) for n in SIM_TARGETS for s in SHAPES}


if __name__ == "__main__":  # pragma: no cover - re-pinning aid
    for target_name in SIM_TARGETS:
        for shape_name in SHAPES:
            print(f"    ({target_name!r}, {shape_name!r}): "
                  f"{measure(target_name, shape_name)!r},")
