"""Pinned `run()` results for the cases the golden scenarios miss.

Each case pins the sha256 of `tobytes()` of every `ScenarioResult`
array, the stability trace, and the divergence bookkeeping, so any
change to the step loop must keep every bit, signed zeros and NaNs
included. The pins were made with numpy 2.4.6 / Python 3.11.7; like
the goldens they are only changed on purpose, never to make this test
pass.
"""

import hashlib

import numpy as np
import pytest

from crowdsync.dynamics import CrowdConfig, UniformNoise, WienerNoise
from crowdsync.scenarios import (
    bubble_profile,
    explicit_profile,
    ramp_profile,
    run,
    step_profile,
)
from crowdsync.switching import SwitchRule
from conftest import spec_of

ARRAYS = ("t", "dE", "E", "dS", "S", "dO", "O", "n_reactive",
          "b_total", "ab", "r_instant", "agent_actions")


def fingerprint(result) -> dict:
    """sha256 of each result array's bytes, plus the non-array fields."""
    out = {name: hashlib.sha256(getattr(result, name).tobytes()).hexdigest() for name in ARRAYS}
    out["stability_trace"] = hashlib.sha256(
        ",".join(s.value for s in result.stability_trace).encode("ascii")
    ).hexdigest()
    out["diverged"] = result.diverged
    out["truncated_at"] = result.truncated_at
    return out


def _wiener():
    cfg = CrowdConfig(n=5, a=0.3, b_low=0.1, b_high=0.5, c=[1.0, 0.5, -0.25, 2.0, 0.75],
                      noise_model=WienerNoise(mu=0.01, sigma=0.2), dt=0.5)
    return run(spec_of(cfg, SwitchRule(saturation_scale=1.0, window=3), ramp_profile(60, 0.1, 5, 30), seed=3))


def _uniform_per_agent():
    cfg = CrowdConfig(n=6, a=0.2, b_low=0.0, b_high=[0.9, 0.7, 0.5, 0.8, 0.6, 0.4],
                      c=0.5, noise_amp=[0.0, 0.05, 0.1, 0.2, 0.4, 0.8], noise_model=UniformNoise())
    profile = bubble_profile(80, 0.05, 30, -0.1, 45, confusion_scale=0.3)
    return run(spec_of(cfg, SwitchRule(saturation_scale=0.5, window=4), profile, seed=11))


def _pinned_with_initial_dO():
    cfg = CrowdConfig(n=7, a=0.25, b_low=0.05, b_high=[0.6, 0.3, 0.9, 0.4, 0.7, 0.2, 0.5], c=1.0)
    return run(spec_of(cfg, SwitchRule(saturation_scale=1.0), step_profile(40, 0.5, 10), seed=0),
               pinned_reactive=3, initial_dO=0.7)


def _signed_zeros():
    # negative c and b_low with zero (and negative-zero) increments: -0.0 actions
    cfg = CrowdConfig(n=4, a=0.5, b_low=-0.5, b_high=0.5, c=[-1.0, -2.0, -0.5, -0.0])
    series = [0.0, -0.0, 0.0, -0.0, 0.0, 0.0, 1.0, 0.0, -0.0, 0.0]
    return run(spec_of(cfg, SwitchRule(saturation_scale=2.0, window=2), explicit_profile(10, series)))


def _tied_b_high():
    cfg = CrowdConfig(n=8, a=0.15, b_low=0.1,
                      b_high=[0.5, 0.8, 0.5, 0.8, 0.3, 0.8, 0.3, 0.5], c=0.5)
    return run(spec_of(cfg, SwitchRule(saturation_scale=0.05, window=5), ramp_profile(70, 0.05, 0, 40)))


def _ceiling_divergence():
    cfg = CrowdConfig(n=10, a=0.3, b_low=0.2, b_high=1.0, c=1.0)
    return run(spec_of(cfg, SwitchRule(saturation_scale=0.5), step_profile(200, 1.0, 2),
                       divergence_ceiling=1e6))


def _nan_run():
    cfg = CrowdConfig(n=2, a=1.0, b_low=0.0, b_high=1.0, c=[1e308, -1e308])
    with np.errstate(all="ignore"):
        return run(spec_of(cfg, SwitchRule(saturation_scale=1.0), step_profile(3, 10.0, 0)))


def _quiet_tail():
    # 40-row blocks: a ramp that settles on a fixed point, exact zeros once N_H
    # rounds to 0, a kick in mid-block at step 523, and quiet again to step 899
    cfg = CrowdConfig(n=100, a=0.01, b_low=0.0, b_high=np.linspace(0.2, 0.9, 100),
                      c=np.linspace(-0.5, 1.5, 100))
    series = np.zeros(900)
    series[10:300] = 0.02
    series[523] = -0.3
    return run(spec_of(cfg, SwitchRule(saturation_scale=0.05, window=4), explicit_profile(900, series)))


def _marginal_ceiling():
    # gain a*B exactly 1 with all 64 agents pinned reactive: dO settles at 0.09
    # and O crosses the ceiling at step 557, the 46th row of the block 512-575
    cfg = CrowdConfig(n=64, a=1 / 64, b_low=0.0, b_high=1.0, c=np.linspace(0.1, 0.5, 64))
    return run(spec_of(cfg, SwitchRule(saturation_scale=0.25, window=3), step_profile(700, 0.3, 2),
                       divergence_ceiling=50.0), pinned_reactive=64)


CASES = {
    "wiener": _wiener,
    "uniform-per-agent": _uniform_per_agent,
    "pinned-initial-dO": _pinned_with_initial_dO,
    "signed-zeros": _signed_zeros,
    "tied-b_high": _tied_b_high,
    "ceiling-divergence": _ceiling_divergence,
    "nan-run": _nan_run,
    "quiet-tail": _quiet_tail,
    "marginal-ceiling": _marginal_ceiling,
}

PINS = {"wiener": {"t": "0e303f8413645bd88462259afc735c24c8dd828548b1daa7d19af97f06845fb5",
            "dE": "8a333374a568c26a69f1bb33ddc3d475915f1756fbf0bc0674bb656466097f8d",
            "E": "5d7e9d9ba0b1116fd254ce3f1b0472bd1d50fd9117a994afdfdd8c2649d73228",
            "dS": "0169d2eae55591d9828a065403bd3731f3030f0e11f50fb5cc775a4b2a7db25c",
            "S": "1a735b565d292af2dca9450fa1082f3f33ef1d9d637da9fd587d40f3b7a7e56a",
            "dO": "7474a91e787455ebd44890fd6170cd311875b2a39594c6655208b54b74274840",
            "O": "e65b0bfd317d42e111615df1b4879196557ccb12e9bf99026fdc3d22eba32aae",
            "n_reactive": "26d9701cea298d453bce041e1f424c40bd43ce4e4177d3c8b489b41c09fae4de",
            "b_total": "9b257b7e01ee36347c18fb544f95e92ea9dc38d990d87baf5f7c16d2b6d0c423",
            "ab": "fa3d06c676bd21f4711a44a9c8cfbb23eaffb67a381d47be6dcbf68bcdfa9569",
            "r_instant": "42938e25be8d5395185623f30b8a5bddbe8e9dfc22bb06ee6a89b6561088c8fe",
            "agent_actions": "0c0dc4262d8a558323abf5df8c0b04e5f64eb4d225938aa4ddd17bcb94d9e1bc",
            "stability_trace": "7450bd6cdc1f4d9866d3afb1bef689ab33c1cc59bfa237e003ed5efe8fc123ff",
            "diverged": False,
            "truncated_at": None},
 "uniform-per-agent": {"t": "c8160ed519660b7bddbf8682689a71f98218ec61d4cede930102ab58ff45e061",
                       "dE": "850b6818e5f67ce1cd89a3758eac6ce47264dbe8ea0a16b0222dd267190680ef",
                       "E": "2d397ed9454849f5f9462fe64b4c2e8e424c363d027bbfb652bc0d8096de8099",
                       "dS": "437738c47adee1b016c79694d380d692060d69211caa0a4a4dcfd6b6144effa4",
                       "S": "51e59e0a70e1670ab63721263cc0d2693da84588fc66c82cbd31d93e1c4b82be",
                       "dO": "dd96b66b25546a3cc1d54dab09e739d9c8800ba443005dcc484f45bbea48a086",
                       "O": "54bf3a4fdcc080d086cf704f69a94f7119a44a43e39ec1dc40dac91cca60139c",
                       "n_reactive": "87996b860842ef06362a78c82ba323907e72923b69202cc1a6fb0edeb2cf1862",
                       "b_total": "4bfe852e9a8dd24c2990104014e05a1c9f4ae46a038c0f6eb8a477899afe38f9",
                       "ab": "d7db294e0b703d8ce5954088ae8206e31d203539981f2bf29469958053a83e49",
                       "r_instant": "3fb6995b6a4c3a001f84f20096232e70ba903987c5d7742a321b0b6c221be143",
                       "agent_actions": "ae7ffda80c9003db66aa90d9ec15ef1e3652519db4faf78c47e55ddbfa15c045",
                       "stability_trace": "e96b3cb85d3bcd40b48bdad752934aa2feedb1111eecc5ce0b3c3fdf3e1cdbed",
                       "diverged": False,
                       "truncated_at": None},
 "pinned-initial-dO": {"t": "eedc539e16fc0e9575f1fa403728001991d61b964b66f69d534ec9c36e4be3ba",
                       "dE": "bed690bbb6b41a616e67c14332c58d31d6872804216b7c4f751f9835777a84af",
                       "E": "72a955c1c576d8faf29736a02f91eeffd8bf91fd923bcef6273475e5c5192925",
                       "dS": "760ad068531db44417f93d3a040fe109dc367a724cd34a92468df49bc2cfcde7",
                       "S": "8a6eefce53a3e89ecbadd8aecf6b652f86ed2ab799e64a036a4fd8a1a6d60539",
                       "dO": "edb0e6498db942a72c680144c320e91c0b2e4ed9c7e570eeba3202f43ce8799c",
                       "O": "c648e0135fd1ac9918c2f7d660becabd3b956722a573eef2d5268ccd51ce018f",
                       "n_reactive": "67b1a920685f33ffdb35109f4091120af950f09642e14253db555d05b647b6e9",
                       "b_total": "d52fcd87ac1922c4c0a45f2c8886b1ae403919bf4dd52a4d1715884de9c9f6c4",
                       "ab": "a292334ab388acea9375b07b7ae1d430166bc023310e3053b8b198dd3b089c1f",
                       "r_instant": "bf4d5ee2759a3c5f5d2348929f4da78fb2d1df48a0526ca959757992dd8dde31",
                       "agent_actions": "795ee12699ad59dd433c9b53f774e1fbb089ce84c13201ea45c6045eb8b412b7",
                       "stability_trace": "d8ffc0de760bfc0710167e5b3941bbf9523b6d0e5c9546dacd4f0dca7d3e1298",
                       "diverged": False,
                       "truncated_at": None},
 "signed-zeros": {"t": "23c379d6c0f22ef64cdef873fd530df1f1419b4a3935e9323d5f1d82ca697b6a",
                  "dE": "addc84a272cd026d6aeb6c7336d593d25a88ff9a01c9c8a7c4112ea47e58f6ea",
                  "E": "8a9f77e34dc134b502f6d52170c9b6da71764fd206f1ec9c5019d97ace9fb0a4",
                  "dS": "ba6e77bf515bd03a045ce42c08b99579114c4b62251bc552306650a37c027a24",
                  "S": "6fe81eb7bff8f0c32da0497af70ef1aca0fd3185ebb2688ddafc03c167f1c403",
                  "dO": "3732984bc7d832422d61c35f0c31ced7ec3412a1e71a0f2d7f4a12b1cd546872",
                  "O": "d1ac1180feb5749fef9174f01af83709149ef61569a70455df0d96337893672a",
                  "n_reactive": "05dda8eb93d958c3f23a6ffc4dd7659c07b3b409ee6fb9dcc8325d4b9d8725cf",
                  "b_total": "272736a308d8de235c56e154ee1d69decc341613c7bf1d47e684e46d4ef43bde",
                  "ab": "0c52cc2681a3be2fbbf24ed19e636fa40daa98abca863516cd5530485942a661",
                  "r_instant": "d63293a803a5cd19c6055fb715d0baf1c2528f81836203805f0b0672e230a023",
                  "agent_actions": "61e8149239504beb61a36e566b70b27eda15584250ad87f903e8752a12798d89",
                  "stability_trace": "36e25cdc748fcb69456c1cf533c551db792fc19c47926bbbfe21073cea4f460b",
                  "diverged": False,
                  "truncated_at": None},
 "tied-b_high": {"t": "11fa4ac3ff489100b7285a91886c460dbd6eca6e71f6b4033660d68163134ac5",
                 "dE": "172793cc7e19855ab56bc152aa1e289519f747fc8479043165dbe1b9333749bf",
                 "E": "6985197275b7ebc976f5550686a172f864b14c76998c293efa668077d46a3706",
                 "dS": "83bf57ee3c35db5a4decd9ed9609279ffc0f657c6683a2e6d07baa3dc16747c1",
                 "S": "29176e321a027cf40cc6f4c52bafd66a14c9253b13978922efb701af57dd5f0a",
                 "dO": "19c1b8796c77a93946ccec80dea99ccb5536260df01d10b1206ddb686029ef28",
                 "O": "cbdb892e346a443a303e78bb027edab3736c24dc4ff00e4b1de2a54b84821e52",
                 "n_reactive": "9baee04cd9047faf70fc70212b86b50f4a8b47930a0fbdac389f31600e12e1c9",
                 "b_total": "f0e1bcaa1182b5a766f59fb62b320cf9a743b44314ace4534ec1f912118d49b8",
                 "ab": "44a57ed9053deaa637d111f99c722775ff162d16f3c6dbf5f238af243e91bc3e",
                 "r_instant": "7d356afa365a27eee4a8c84dbe4d3d48d90583bb4281b0dfa390d42f66aeb427",
                 "agent_actions": "86f0429ef50f23270652cec6daf150a3560f9d664cb8b2fed8cad369f934a2cb",
                 "stability_trace": "b2e0b742798a638a40784617f43e85a3200e67c9dc9b216e8396118bc38b7cf6",
                 "diverged": False,
                 "truncated_at": None},
 "ceiling-divergence": {"t": "4107167d6f03f7cb8e829358a6fb9c09ff16b19adc550b79d4874e76e96849bb",
                        "dE": "a2489210c56a58ec775f54380dbd0e09416a066d85f6471518cc3fbe629410ec",
                        "E": "7a030cede9b1b3aa0e995a5cead67cc4400dc5bab67031d855279748c676da0d",
                        "dS": "ae749dfef5a153410b7663bc89e2ca0dabc973786b0cf1d1ec6b94bf53ad117b",
                        "S": "025e7c3d17205883659fe88398c13f44ecc267425f498947bc3c3b863c26801c",
                        "dO": "c06d4c65d8ea9a886fac1f32cd84f4d627e2285be44378900896ab07d33248a3",
                        "O": "68810871d0522a897fa3302d4fd91bfc525d43d84e9a96e569ad34ea74989670",
                        "n_reactive": "68162f6788f00b55cd2619e863173599cfed45047611dad8629b213ac8d307cb",
                        "b_total": "3bc59f389615d9bbab34e9128dd0f83feade4944eddb91025b09346dfc65f4b5",
                        "ab": "86d596803dd7b5e22614680aaf9f2afa39f09ea9799f0aa1bbf00720aa4321c5",
                        "r_instant": "7a030cede9b1b3aa0e995a5cead67cc4400dc5bab67031d855279748c676da0d",
                        "agent_actions": "e7a39fc3080da427d8162911a7af8e0aafb66430cbfa846541ce205a5aa111ed",
                        "stability_trace": "2783944e612dbc7280fe7fcf510b6842984fc9915ca585b3092536ff2099c1b5",
                        "diverged": True,
                        "truncated_at": 14},
 "nan-run": {"t": "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
             "dE": "24b1f4ef66b650ff816e519b01742ff1753733d36e1b4c3e3b52743168915b1f",
             "E": "24b1f4ef66b650ff816e519b01742ff1753733d36e1b4c3e3b52743168915b1f",
             "dS": "2399fcd7f479a73c8d0600bb9ff95d8c0cf687e2e9653d2747d14a026f1c5997",
             "S": "2399fcd7f479a73c8d0600bb9ff95d8c0cf687e2e9653d2747d14a026f1c5997",
             "dO": "2399fcd7f479a73c8d0600bb9ff95d8c0cf687e2e9653d2747d14a026f1c5997",
             "O": "2399fcd7f479a73c8d0600bb9ff95d8c0cf687e2e9653d2747d14a026f1c5997",
             "n_reactive": "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
             "b_total": "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
             "ab": "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
             "r_instant": "74999fd28ab18ccca2bee199f260d19764603a3c78353d773d16d215eebe8e19",
             "agent_actions": "549163ed4f094ef5c25d0b7a960326d9f6b05db29f302aac101be5fdc38e3af1",
             "stability_trace": "d8695505f657990af45916b15b528d85faacefe250cc30c14835ebb036f2bcc4",
             "diverged": True,
             "truncated_at": 0},
 "quiet-tail": {"t": "1227ffb5bb6f93f86cb920f1c01e4cea108f97044322266d2e8d889f936425d5",
               "dE": "c3dfc6542314d3f03aaae18ebed44498f81d16a38e223085e9f579cbb059de9c",
               "E": "64b4161578f6ce4919bc09538d14f6b3e10b8608d90f5637d51813794d1bda80",
               "dS": "41935afe1b6680a935395b4321ab051a0c158449fe4ae132e90e1d5d6600fce2",
               "S": "695cbb9cd8e395aff176a488ba0544f0e258017dad3ae8793489bd6450499736",
               "dO": "6e1b705c1bb9297d6e2d51669c77e4090503746b34e9a46f13a4a3c23a076c91",
               "O": "be292ae1a4e3ca44b7a2a16c7d603665246ce1ac197ecf4e358ec1836e5e7178",
               "n_reactive": "c26e72a97627ab596b1f7f151008af5f71efaff1197bbeebfce060490a262b73",
               "b_total": "c48ae9871d04cc6d1528ea5ab85f6ae993d775a7b6ff24d41e65ec88ef878b4c",
               "ab": "85e4cf0eb427d0ac6c8b29c6b3c8f1e3b563b27d3dfe4e46afa58694171cfec4",
               "r_instant": "6672a6101edc40e62a40af5acd0761b17777a1f551e31f01a5567539bf1f8ad7",
               "agent_actions": "54be0c41eaca46065e9c579f2a02e0fa6eb93288ffa46088ea6a8d6068af3c14",
               "stability_trace": "977cc7f390cd2b28aa430c95464c83e700d7e38c6ecbd0e3e487d4a8ea058fb3",
               "diverged": False,
               "truncated_at": None},
 "marginal-ceiling": {"t": "bee324642433511c49e6b66ef769431105f00cb339c2cff2af7a113565911e2a",
                     "dE": "82907198c44f44b6be8107802729501ffb96faf4b6df24a6e93ea9e4878181ea",
                     "E": "9d0b43f15f3204f74b1dd7abffe6c8da274c9aee63e233578aa3f7f76fc5c88a",
                     "dS": "a122100160a0e008077736a68705c05e4b8a90c9377306820dd11d37d41765c8",
                     "S": "637f9cb336bfb26dad23f1085d79ed881bd61572f56fd8edb19294f3608bfec6",
                     "dO": "b4b240916f925c4f23f10cabac606e4c3865996f754996ba511a67356cfb850b",
                     "O": "7489f62e01bdbb8ae53c899fbb4adab42caffbd3627654b10353c65bb469e073",
                     "n_reactive": "d88bc824631bd7517278bacee5e495a1792d7d8874ae542a472616d297584ea0",
                     "b_total": "91f4b40b37577f78621618b019b2dc12486a98d707f2f7e2f9642414ce7a4882",
                     "ab": "43b9a9476bccf40e5687358fa3287d288d0c36571a6ec85ef275f5092df10597",
                     "r_instant": "5163e4c70e641fcb2ba32f99e9f51dbad7a9ae71b052c251104e88310da99c32",
                     "agent_actions": "a187c01d00b435823aa42a403385b8aff909eafbcc88f386bd01aa3efa83f6a7",
                     "stability_trace": "8b4b2db0dd4728fa2fecda0ed0a205b33d9d1ff7dac07315115277c457fee8b2",
                     "diverged": True,
                     "truncated_at": 557}}


@pytest.mark.parametrize("case", CASES)
def test_run_result_is_pinned(case):
    got = fingerprint(CASES[case]())
    want = PINS[case]
    for field, value in want.items():
        assert got[field] == value, f"{case}: {field} changed"
    assert set(got) == set(want)
