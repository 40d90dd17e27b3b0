"""Absolute simulation goldens: every algorithm's run, pinned by value.

``tests/sim/test_scheduler_model.py`` holds the run loop to a reference
loop that resumes the *same* thread bodies, so a change inside a body
(how Leashed-SGD pins, how HOGWILD! slices its chunks, how a gradient
closure guards its arithmetic) cannot fail it. This file pins the
outcome itself: ``simulation_fingerprint`` of short d = 16 quadratic runs
for every name :func:`repro.core.base.algorithm_names` lists (``LSH_ps<k>``
as ``LSH_ps0`` / ``LSH_ps1``), at m = 1, 4 and 16, with the scheduler's
jitter and speed spread on and off, and one run whose worker is frozen
by ``Scheduler.suspend_after``. Every event, RNG draw, CAS outcome and
float of the trajectory feeds the fingerprint, so an edit that moves
any of them fails here.

The values were computed with the event loop and thread bodies as they
stood before the per-event work was cut (docs/simulator.md,
"Performance"); a change that means to move them must say why.
"""

from __future__ import annotations

import pytest

from repro.core.problem import QuadraticProblem
from repro.harness import runner
from repro.identity import simulation_fingerprint
from repro.sim.cost import CostModel

from tests.conftest import make_run_config

#: ``algorithm_names()`` with the Leashed-SGD family written out.
NAMES = (
    "ASYNC", "HOG", "HOGPP_c2", "HOGPP_c4", "LSH_ADAPT", "LSH_ADAPT_psinf",
    "SEQ", "SYNC", "LSH_ps0", "LSH_ps1", "LSH_psinf",
)


def _problem() -> QuadraticProblem:
    return QuadraticProblem(16, h=1.0, b=1.5, noise_sigma=0.05)


def _cost() -> CostModel:
    # Tc close to the protocol costs: reads, CASes and chunks interleave.
    return CostModel(tc=2e-3, tu=1e-3, t_copy=5e-4, n_chunks=4)


def _config(algorithm: str, m: int, jitter: bool):
    noise = {} if jitter else {"jitter_sigma": 0.0, "speed_spread_sigma": 0.0}
    return make_run_config(
        algorithm=algorithm, m=m, seed=3, epsilons=(0.5, 1e-9), target_epsilon=1e-9,
        max_updates=120, max_virtual_time=1e9, max_wall_seconds=float("inf"), **noise,
    )


#: (algorithm, m, jitter) -> simulation_fingerprint
GOLDENS = {
    ('ASYNC', 1, True): "ea2e0bad6bff4cafde99806eec4cae02fdda6f1668efd9a9e5b0025e01b94624",
    ('ASYNC', 1, False): "2d4f064b950ce5860748d5213d1ee5ca7bbc572268f5f2e95f732208fddcfa8a",
    ('ASYNC', 4, True): "3158ddccd105f497faabe172f1beb0a06ae34595d46bceb5e754cb26362fe32d",
    ('ASYNC', 4, False): "1630c827c4ed953ed53410c82d81c377bda73852723c115e0fcafe4e1564614f",
    ('ASYNC', 16, True): "4f67b147a23dec1fd7c0136284c2822a34cd4a20484161e6374ff5c6c5356a3c",
    ('ASYNC', 16, False): "11ed47a11e22ce549ea0f6d13ba0db0ea732195cbe9eb9b1e1dac6fa280ea72f",
    ('HOG', 1, True): "660325630ad6b0d442b12cd6909605d649d0f571c8f2c00a38db0b68bb878f18",
    ('HOG', 1, False): "db69c08a5780b484522e538d178696647c72d9b264767aed74b207d9d8483960",
    ('HOG', 4, True): "de9a0771e1d77425b55ce69c23e8bfbc75b31ab74881c4898297e2931d0e44c3",
    ('HOG', 4, False): "e6db9a399533e72845c4e0a97a8a8bc965713216e1cb727269fec37d734c453c",
    ('HOG', 16, True): "c430e5858b99663d65462e326a451231a1a3952065e3d0fd15aee6a8fed006e7",
    ('HOG', 16, False): "dfe548ded5ed3e53f181bc3f63f40d632c0d635fe2503252c5555c4ee4e5c556",
    ('HOGPP_c2', 1, True): "8fb152b5a91adde21eb0b8309096621e3e764f383009f61301d2f80bc698b071",
    ('HOGPP_c2', 1, False): "971945e673620b1e2c161c582c7c337d329508e4b6cf292fa0ebec9bda56fe84",
    ('HOGPP_c2', 4, True): "6a2dfe97d3eafa76ac67ccd1d37a2b060116a8c827c8894bf7edb1779637d509",
    ('HOGPP_c2', 4, False): "8b8bfee725dfb59aa1d5907558a7b9174433bcf1ab33cce583f4176a3382d49a",
    ('HOGPP_c2', 16, True): "27d0833fef72a6ff422bbdd8ea06b2a2330fcb209404ddf730cd1c723279fd08",
    ('HOGPP_c2', 16, False): "469b6fcf085ae4708ce378326f6a9f475a32edae659b2c16982f4266094c7b6f",
    ('HOGPP_c4', 1, True): "8883808ee12ebe26a5dd984683601aae5397f1309fa933b9a55d6099de8ef7a2",
    ('HOGPP_c4', 1, False): "15ff9d35c261749e9a77bfef3423abe8408c2e0e45ec689f1e0d99a3dc2dccee",
    ('HOGPP_c4', 4, True): "c59550620283b5e25131e1da0e061ec43f5b8a32e43c2e6c1869daed30b56eef",
    ('HOGPP_c4', 4, False): "c8d7f95a41f3fd9739d683c2970a4a72475d96072dcdd456d5c5fde75593d922",
    ('HOGPP_c4', 16, True): "fe8b4f260b3e84874f8fb647fb9e1dcf1916dc408426cac427cb65b9ac63cf22",
    ('HOGPP_c4', 16, False): "23e30155dc0c4c49eaea1797f7a3b8b46ae7172f6b7ca85759e19e0094821617",
    ('LSH_ADAPT', 1, True): "88b83d3f08805fc8b6adfd7ae166cee76c660567c9c7b90d303798b6f20f8253",
    ('LSH_ADAPT', 1, False): "a67aaa8e5d69f6387e41a6b44b5f40649f1d0e34f49411dd883ad38e9b5ec11e",
    ('LSH_ADAPT', 4, True): "d08c9c52b18ea1def67cfc51720f60efda18d4b742ee658a892a175a50fbaed2",
    ('LSH_ADAPT', 4, False): "dcbd1aa0a2cc339b64e234aebb0e2216b631d731f1747f84eecfad32552726c9",
    ('LSH_ADAPT', 16, True): "a000a6c0db1444c6860e9a300a574e52cfa03b9af193c936fb03fe92935c7d94",
    ('LSH_ADAPT', 16, False): "4a75e8e2f52f183a3791f7be5bc0b1af858229cdf65f50e64fd627cdafbea360",
    ('LSH_ADAPT_psinf', 1, True): "3c42b8dcf4887fc1ab5a05a3d5a62e57e38f8ee0094b550a16b1d0889482b18d",
    ('LSH_ADAPT_psinf', 1, False): "5717c7d7369a6651edee4b8ae5dee18e20ad891ccad21450ef7e7955649eccae",
    ('LSH_ADAPT_psinf', 4, True): "3ce761899e13ae04f62d0a00b10d2b209952d2bb5d68dec37dd67e99fccc4be7",
    ('LSH_ADAPT_psinf', 4, False): "524c09fdf1691dbe6cab6e8d98d1788cd36257ff229bcdb057bfab6fe80133eb",
    ('LSH_ADAPT_psinf', 16, True): "36ea859c7e2b74cb3e292e36b547c7b95318cd84f3e9126c4ad360b6155cabed",
    ('LSH_ADAPT_psinf', 16, False): "b82898a412274a8b87dc57c892d2fe0036b5b7a14d6546a9ea15b41f82426994",
    ('SEQ', 1, True): "2e4b88e1163939d7ad71aeeb753189ac1ca3b8277df83a68363040f8bca84898",
    ('SEQ', 1, False): "c2eb0344dbbfbc16df4901e3a9e6a8b7bc345863814ea2feac93a101ff849219",
    ('SYNC', 1, True): "8904f79dfc64eac01a5d2d9768a05990514c4e5ddf4afa36be42753fd36edc92",
    ('SYNC', 1, False): "0e3c6e55a408d0d1b916f012f14f322d9ae1fc1d9a2ccd240a06589929e5a6bd",
    ('SYNC', 4, True): "38689a77da8e12da6e0bd368b00a6cc9923abdefe9de19b2df3e20edb67c870b",
    ('SYNC', 4, False): "2fc7552ec3d9caf05e653f9dd794b122c236fa0350af5070c76f87c00ba8f25d",
    ('SYNC', 16, True): "8a1881c45bb4a8e5c5da8ac192304885edf56039f4b994469edf68eec4a7dc75",
    ('SYNC', 16, False): "487f3ef89c6e47a71656145a0cc7a3dbed8068267169d84a836ac3a10ce7fb81",
    ('LSH_ps0', 1, True): "93fc13c5649676d9830993ae8d93de5281b8599fa5472feec1777efcf405e283",
    ('LSH_ps0', 1, False): "89df5c7ab01e05baf55693c99e5c3889cb5d01fe6e52ba57cf2eeaaa261ad439",
    ('LSH_ps0', 4, True): "87359c12b8ced6bb3f5ea6c12e7eb716e7108c6d1451376604acc9c3e89e9f94",
    ('LSH_ps0', 4, False): "11ef38da0a1487748d0f1f6d2cc8a35e3ac8dbaea0f0a4900316f88022fcfea7",
    ('LSH_ps0', 16, True): "30fcb53711d09a19233e33c11b4f2f5c9b528c12b564f42e0b345ce90048aeb3",
    ('LSH_ps0', 16, False): "b4724ffb1f2b6180781c0d93742450cf1264e83137a61a872bce24cdf0ebefaf",
    ('LSH_ps1', 1, True): "e38859d5ee08ed6db9932130c10f8b2034aa68f8474766a29eab463068a6c0ed",
    ('LSH_ps1', 1, False): "bdd83b15ad4ec1c7c0db8152c9ab5739d92ddbd0edf808a13f215f862953247c",
    ('LSH_ps1', 4, True): "9ec08c84b909fb1353fe3aadb130178f93fa9f2bc1afe97eeac739cf2de7ff43",
    ('LSH_ps1', 4, False): "e927d946a44d0b2a67c60a1a2afd12aab0f45d63baaddb6f43fc84559f4776c3",
    ('LSH_ps1', 16, True): "a61e5dabb7acdd0ce27b9740223e8dda7727c9f3ada464301f550f6c44e88d37",
    ('LSH_ps1', 16, False): "4d2e3fd8a57b3825861841334f65edc3a907fff6709667fa092e2f9789174543",
    ('LSH_psinf', 1, True): "1c729b333f4eb645a2d9d3f1b6af6cc6144ffb315dff4d202f5640dbdf95277f",
    ('LSH_psinf', 1, False): "9c4b9559926bdc24d61af934aee843e1dde53e1153333821df845d75f24212d9",
    ('LSH_psinf', 4, True): "254fabb34d1ae593e65618da5dcd6adba4edb947974b72e7de1b48ca8f141b23",
    ('LSH_psinf', 4, False): "06515b3e73983e63d01d1ce20ba784b824d6f40e5599ff21908f38bd49d5301d",
    ('LSH_psinf', 16, True): "66ff5024edef773f2055cc827ab7899690edb9e309d60df10d788bd4d7f76516",
    ('LSH_psinf', 16, False): "c0b74adb7cad2c64e6f5b7080e27550da206656549d2275a584ad1a6e7df8d17",
}

#: LSH_ps1 at m = 4 with worker 1 frozen at virtual time 0.01.
SUSPENDED_GOLDEN = "986e4fb2b803ae055518be7701a22c51824ca9b0adba4ab4706c5bfa444d2f35"


def _cases():
    for algorithm in NAMES:
        for m in (1, 4, 16):
            if algorithm == "SEQ" and m != 1:
                continue
            for jitter in (True, False):
                yield algorithm, m, jitter


def test_every_case_has_a_golden():
    assert set(GOLDENS) == set(_cases())


@pytest.mark.parametrize("algorithm,m,jitter", list(_cases()))
def test_run_matches_its_golden(algorithm, m, jitter):
    result = runner.run_once(_problem(), _cost(), _config(algorithm, m, jitter))
    assert simulation_fingerprint(result) == GOLDENS[algorithm, m, jitter]


def suspended_run():
    """``run_once`` with one worker frozen mid-run: the victim's pins,
    held vectors and unfinished LAU-SPC stay as they were."""
    config = _config("LSH_ps1", 4, True)
    prepared = runner._prepare_run(_problem(), _cost(), config)
    scheduler = prepared.scheduler
    scheduler.suspend_after(scheduler._threads[1], 0.01)
    scheduler.run()
    assert [t.tid for t in scheduler.suspended_threads] == [1]
    return runner._finalize_run(_problem(), prepared, 0.0)


def test_suspended_victim_matches_its_golden():
    assert simulation_fingerprint(suspended_run()) == SUSPENDED_GOLDEN
