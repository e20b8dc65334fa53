"""Golden reports: every suite at every kind of q, byte for byte.

For each of the 18 suites and q in {symbolic, -1/3, 0, 1}, at default
bounds, the table pins the sha256 of `Report.to_json()`, the sha256 of
`Report.render_text()` (what `qheis verify` prints, less the final
newline) and `Report.all_passed` (exit status 0 or 1).  The JSON report,
the text output and the exit code of every such run must stay exactly as
recorded.

The digests were recorded by running `report_digests()` below on the tree
in which every suite was still a hand-written `_suite_*` function with
closures (before the suites were declared as `(key, fn, args)` items),
once under each of Python 3.10.13, 3.11.7, 3.12.1 and 3.13.0; all four
gave the same 72 rows.  The four `theta-lie` rows were recorded again,
under Python 3.11.7 and 3.13.13 with equal results, when that suite moved
to the Dynkin-Specht-Wever criterion and gained entries that must be
rejected as not Lie.  To re-record after a deliberate change of output,
print `report_digests()` and review every changed row.
"""

import hashlib

import pytest

from qheis.coeff import QValue
from qheis.suites import SUITES, SuiteConfig, run_suite

QS = ("symbolic", "-1/3", "0", "1")


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def report_digests(suite, q):
    rep = run_suite(SuiteConfig(suite=suite, q=QValue.parse(q)))
    return _sha256(rep.to_json()), _sha256(rep.render_text()), rep.all_passed


GOLDEN = {
    ("adad", "symbolic"): (
        "9362d0787688dab7007c516fc6725af59dab83fdecad2f434931fca9fd9dc04a",
        "b4e69cd1d2ca59b5171e7ff6d4af59d7fe9ff1c0690a4ac5a05529d1dae93491", True),
    ("adad", "-1/3"): (
        "e80c5a13460a33203846ff85815de51f338c78a8183d850162a5a2671f4bebfd",
        "a6b3584b3b0ef4117caa25d99b9bb28eace4ceeb8b988ee190a2c316c96302a5", True),
    ("adad", "0"): (
        "590dae4a7bce2b023d289bdf1eb9d997ab72bd81342a98b95f1805a4ea61738b",
        "783ef2a040ff427571b1b5e2d4d02ebee0fce87d29ecd8cd512b7ff9e939f7e8", True),
    ("adad", "1"): (
        "4557d9d54e08b5277a3cd1b4c228edf616e4a58e810fabb20c97b8a240ab0980",
        "db456b0b5a5ef4d554106cb4fb7c9d579c9f730869d3391d0209f20997bbcbfc", True),
    ("beta-closed", "symbolic"): (
        "76435e83165662500b79ce25aa2ce617f6b4f9f4cd0877da7dbb44972467615b",
        "c813a2f2c77fa103ebb6154eb91d06ac2da452c2879625748dd7a3635d701e1f", False),
    ("beta-closed", "-1/3"): (
        "73a6172501f276adc336ef3ae3dfc2ed654792aa2c537ce4afe3dece02b5b95f",
        "d7a89a22033ea7ed5ae8fbbf2ffd132b3296493f2d740bdcf13a1c3ff89c52b4", False),
    ("beta-closed", "0"): (
        "096bdeb9827baaef0fd5c648af430d2103def7b83db31e047365a0de974e6b5d",
        "9c521f0762a08f94b9ee6f8b773698ab55316ef69b2624898c6eee67a9a4d9f3", True),
    ("beta-closed", "1"): (
        "ea5f6bba9fc15efacdbe16605558bb9ada018492ce60a7dc4ba4dbdd18e30ff0",
        "027c9e1b934b268d7592273be41a17dc9657d0cb906caa3fc680bc7e20d214dc", True),
    ("bigcomrel", "symbolic"): (
        "5a94f3b6d1b834b41d5d7c47fbd2bbc50d9588e82d48069372a3ffe827131fc4",
        "ec1af3f4553d7aacdb6797b2a9312adbeef70caf87c80a324bd7bfb160c0b71c", True),
    ("bigcomrel", "-1/3"): (
        "8e39b0688b3f05fd15e0c9168753427d9eee6e2e3cfed96f3802f99279a29275",
        "f985d8bb229eee831a5a7888d30482b0f301da204687822e56ee754e44e2ec72", True),
    ("bigcomrel", "0"): (
        "dacd3e8bd28c3731d3bad1b70c951f78d4e7c9c0aa35896de0927a3255a7255d",
        "d00781bac769ecb4b2616dd75061b2e01a32f1cbb88d9f62892dcb6e079429a6", True),
    ("bigcomrel", "1"): (
        "b2298b7e79f83288a3b25fbc7284ca07d7f9dc4362fc776f809451375a309f23",
        "d6eaa81cb08c45fe613dfe7f54d02b9f39764855d7ca2e72891ee35de07bc8fb", True),
    ("bnan-anbn", "symbolic"): (
        "c4d419ed7b58cc39066f9d4a2c1522af86e00a67d3a7471bb43aa73819e25042",
        "2148145794c9bf15cfb74bbbadf71fc2bcede60d394364386f687e5beeb4964d", True),
    ("bnan-anbn", "-1/3"): (
        "d1b4bad9dc3d00a9d18d4fb747231b4c6fc12315d81d2824aed80d6d2e53d901",
        "72169e2cc3b528c7a43a9862084159a4bb1896d8d1892470c39a39992d1be08a", True),
    ("bnan-anbn", "0"): (
        "e14ec3650ef37a1070a6d0f33d41c2dbf13e5162461742d7a83bb0944f4e510f",
        "f4771086d78b4fae78ce5cc3784cd989369fec11fad83a5710401dede8b8d653", True),
    ("bnan-anbn", "1"): (
        "eaae8197a4002ba6f3d50911f147e8b8c746aa937291fa57a70ae0bd9862ecf1",
        "e8249941d144cc0f8a7de44eb478f7ece9dfe050eb6da55ce0fce62fdc5c648d", True),
    ("fban", "symbolic"): (
        "619f21e3b868387c0f7c0400128ce69ce4daeddc3880cf610d429e295283f1aa",
        "f2a6b53da66ee33de137d4f1216b96894fb8b48dba5742bd74b4ce6befc79e88", True),
    ("fban", "-1/3"): (
        "a93355abe27eca5924456fe934f4f9a084c6d76e5a872f8ca9c265148c16bf95",
        "193146f0bab27c689cdf480e7f452ca843fa8cf11703583af771669de73620bc", True),
    ("fban", "0"): (
        "3de125c73e3546d5858506e9924e5691a5accbc984c1be2b78a5896b77d4aa52",
        "e75e3a93dab11cb1dff4a7b580d9c88fa71aa807e9832a6956e0f07fb5c8bd30", True),
    ("fban", "1"): (
        "a498372ac8b65e10dd2af2c383d07d1cee0dbaa5b750332a79d4c30bdce7f344",
        "c1e70569ae649791935848b20c3bec19a40301dcbaf41d7679856dbf8eefd4b5", True),
    ("grad-basis-roundtrip", "symbolic"): (
        "3c572ebac5d53f673c8c41286490df3bd76130ceb2d6010c24b9eae341586e07",
        "986a44b2a2eb186fee1051e93a0e7ed372051756aeed09a64f87460b70dacf6e", True),
    ("grad-basis-roundtrip", "-1/3"): (
        "4fb70945a2c7225f25a1ebf6440520e7cbb8c5d6a052cb06f1276c06cc9e4f9e",
        "db540bc027cbef99e8b5ac294b471e14f90057b6bd60a27234adde25b682d563", True),
    ("grad-basis-roundtrip", "0"): (
        "d7500c695db39195913566e0c4b3cf8a5ce8d4202adaf1fe5f99581c21e9b55c",
        "3dcbd25bf93cef530cea28ca5bbf86d7880950a0698d9a8e247e356c429856ad", True),
    ("grad-basis-roundtrip", "1"): (
        "5244d503027aac6f704ad0943d8bd51f1194d52c520d6409e43f9b61bb587f6e",
        "1d3dd03f877f0dd2ce868d580e5e992e131ea7c1acd4f8e83b124ea425fdfd84", True),
    ("ideal-generic", "symbolic"): (
        "1feb7a8103bed32f55834eccacd5e3cd4f406ebc22b1f898077a6b7531f3625b",
        "7a865d597ca7c9815d0ace01ec73ee2545a78d5e38a7aeffcabd90f26169c659", True),
    ("ideal-generic", "-1/3"): (
        "355f46b4000d561de30e9cc34fc04ac9ea23730f478e2af4ce7927b4a5cd9ebd",
        "5b5f298510d2806a0bd68f18c1a75ccddf4cf0a0a79831f30f2d7728dba3f187", True),
    ("ideal-generic", "0"): (
        "3159c843bc75e056f688592d2236e93591bf82b3bd1f7dda9655cf2d373d7edd",
        "2ad976f3e72b316b15e660f8af64e554641119f02397297e7ef8edd11eb6d23f", True),
    ("ideal-generic", "1"): (
        "395b92576413a70bc7c86a8fa70b2cf925056899990082125425f2c1c4986a6e",
        "72a495e6c865809b901dcfb853bbc0aa4851c2eabec01b0fafb78578c85765e9", True),
    ("independence", "symbolic"): (
        "a5d2ffd139f620ea484cc926ccc4c5e101c18e2990daa1eb377c4212c1e11372",
        "c9b9a9dd88b4de072da870c4efe963423b71e8be72cb4cbec28b64d76207dbc5", True),
    ("independence", "-1/3"): (
        "7b7df7ff74cfe9458f0a06005216b6651f8f9f6caee1bb12a2371173b46cf600",
        "ee36e7307cc4bb4d6304d9c5eb5d3268a2b0fb9640744c9929ce8122d4c95fdd", True),
    ("independence", "0"): (
        "9eb8a8e106e10bef9bd06800eb7a28b0bea2812bb3796c7fb73e9fd8921ef5e2",
        "1c186c2aae9a309c51ef0645e1e113ead901ad6f69deb5dde1afd3f0885d4f55", True),
    ("independence", "1"): (
        "de6cc785dba71d3cda99612f94244a542d38efac776925562b1f4ab9ba2ef9f7",
        "a8cf06cf5dc930a94fd70ffd061defd2305310245905ae84025386e585eaf2f5", True),
    ("nilpotent-generic", "symbolic"): (
        "60c73e1fe739cdf12341df187c261b5b25db5a450ad1763471c1e66adf403b0d",
        "8d8ef63a61715bbfe110e531faa8e34aed5abf7a579a1d810405940b13f6c245", True),
    ("nilpotent-generic", "-1/3"): (
        "10fda05af9df82bc8555f27ffb61f172557cdc34b11a9bb175ea15c05a4fa12d",
        "736394be394306dd879194ffeee2207711d52723b1b4681a570b57c61aba399f", True),
    ("nilpotent-generic", "0"): (
        "d4222d33a98c8528196dd8f2f005ef1374b5e6f47619ada00be3ff9a4451db82",
        "67e96644f5e8d51d67605beeee1c36c08e24a88bd08ac7ad7b0fa9c25811c8c4", True),
    ("nilpotent-generic", "1"): (
        "c5146779dd30a4c21c9e5cd4d11764939ae981a83551989ececb3279b801e4f3",
        "0d3dc5aabf24ad10244958db22e887f40a1ddac75926c95748c6dd244cc8f499", True),
    ("qcomb", "symbolic"): (
        "15406a153c3d3a98b11fd5d177d16f47b2fc51a734b837f8621859a7bdf8819c",
        "ab04675a6b92f531854d2cd4dd398257f24d14de8ebd313e28a15209d7d1c69d", True),
    ("qcomb", "-1/3"): (
        "0f192d03e1e27ad745d25ee52d659987020dfe024e5fc9d7c0bc47eebe9d9753",
        "21e5827b0d496d2eb0b1d4d2ee4798b0bf0db42cdadfa31dea7c3abecfd8a22a", True),
    ("qcomb", "0"): (
        "210c1cfa73d8cf9d0ba7a6976eb1a8f6dd1ad6a6ce0abd5fa83873a855974cc8",
        "6bd8e7fdf1781562980001be4ba575957b68fb6be8fe3124d76296c21d7e982a", True),
    ("qcomb", "1"): (
        "ecc37e26639c3a3cb9c98685f227ffe09dedc4eb2e70819dc6d842e4d9a3ece2",
        "0128d9495bbd7bdb3c39f3c6c475d1068cedb154276401ad33d69069cdedf81b", True),
    ("reorder", "symbolic"): (
        "1a21db7969522543a4076e879234cb62c395eb43cbe23e350cab98e7440e627e",
        "43636c211f751f6dd948821e6e3f05b3a09f5a7bd4ab5bd6d658cecf3f1efd1b", True),
    ("reorder", "-1/3"): (
        "f332c3b213c9874a64f0fa36f64c50b1cdeae91548eecef70b6caf1ecbd677e5",
        "64eecf18ec80d724a3bb64282539a58bd910d5479d52c6707584be2644d9e743", True),
    ("reorder", "0"): (
        "2907111596ba60e82d42fc1e13e13191d7d8cc345df6bbbf19032595962a8864",
        "0a579619cc8a54f7a7dc191921a22097651a95786f37292cd34a549c15b59267", True),
    ("reorder", "1"): (
        "75c0fb8fb0ebc6e1fe99f858479fe5589e81a17317f167e24476e60654276ef6",
        "6de0f1de0a5491c44c9a31b70089a57e6a658f2360a435f7e057be58c29f4b88", True),
    ("shift", "symbolic"): (
        "bdf22eaa66e421adae7e1bdc8856bf6f1836447d89ff0209addb0a54ae177ec7",
        "488e21944ca3cbb6e3252e33c75fec62b557d9ee342839f98487a54d891353da", True),
    ("shift", "-1/3"): (
        "5be630b943108dd5d3bff69e8d735f3c6e81333bd92ee3847190b60f2e5cc4b6",
        "87f37b50b623966418e0c2139755d6034520baad307441bccabb5eae4c09e3e5", True),
    ("shift", "0"): (
        "18524848b86ddd379d5b4fef9bdeb51778badcbdafd9dc648d8f76b2b4eb3443",
        "0e4822e06343b04eedb9a05a86b7c4a5a8e78b2bb9f3cd4b4d158bf130cb738c", True),
    ("shift", "1"): (
        "d25e7641c552ec821a0b0e520ab0efc5a32cdd26c23f28874236b214ddd6671c",
        "cbdcce44fcdcb52c914ccf5d24cd5c48c463da2c3c3c521f32457ec9956a61fd", True),
    ("table1", "symbolic"): (
        "d5db62031e105c9faba287cf9c01dde02dda3c80146a30830e51f5e5c2312a2b",
        "c6c3952da724f0a8a93221ea1fb3679522b1b3221feb1f408a99dd8f36667cf5", False),
    ("table1", "-1/3"): (
        "ba976e9bc1c21b5e3204dec9c5e5a0f318806600a52297ad9930295a46ac2eb2",
        "7a6d396b2e64156b691e664104a074f0ba57808b34cd93dfa02457235fd7b6d4", False),
    ("table1", "0"): (
        "79d325929f830e37733793356105c4afb2ae1ce7dd2ae59c381eb2e6b38cb095",
        "bd53a1428cd05f82c1e68c56a7df1bbea36f7765ce0369ecfc7c1fa170d99c54", True),
    ("table1", "1"): (
        "b59f7886d565b15a340b9fb17f54029b67ae02ff85b43dcb618acd7ab76a0991",
        "91355f3e7ee4ed5afd4d7bb56c9b162e851395e5bd27c01e29935e655006451b", True),
    ("table2", "symbolic"): (
        "76dbce51f9b9f04a06a5d0daa1d98bb5da1b97731d919972228d4784d9b19e1a",
        "23d02add1bd61765211f4b4b294fb731207ee414252ffb2e14728bbc757c277e", True),
    ("table2", "-1/3"): (
        "6029f5d48aa6266510b27f95e9aa2de9798f5b56960d4604653cba14117f9960",
        "401ec91e51a8a0beb548e5b092380680de10e04f49f71b53bcb7c52b8396fea4", True),
    ("table2", "0"): (
        "e33fa32a6b4380ff0a1e0025714cf38c8a99c74b3e522f094c26812bb8501c70",
        "2b6b385d26449a473fb59a568ca55f421f9e979bc5fdf9d55f256bf3f4ee1398", True),
    ("table2", "1"): (
        "e21fb07ed3192b9778ae707db241124ee2bfe5694a49fb77a72442c18a724f22",
        "415a2b571442469a40819463a652f0db34aad24ddc0ea5bf0596d884bf3802a3", True),
    ("theta-lie", "symbolic"): (
        "5568f70857ae65e8c5288decb32844e4cb09df9c00272b6ebc8b78ecad5b3b1e",
        "61716bc6b519f6203a0bde04c4d0eee3f6255a7b9339a8fb8a0797a0c4999905", True),
    ("theta-lie", "-1/3"): (
        "deb406207f7dcb3950ca642f6aa2b7fc41e0dc0be62c7a2a8cd31a13cd4c9151",
        "39a6ff20f25befe11d7326f020f968f9603e682b23ff81dd4063104b5e746e38", True),
    ("theta-lie", "0"): (
        "cab84853b0e409c7e8298ea408278e66ddf44544017ff6a9062de2c346b69036",
        "cf16fd710dea119edeb739b6579d52635a106417370e6c5c0e3eecbf86d52a91", True),
    ("theta-lie", "1"): (
        "7cc5948c6d98734e829dc417d67e9d5eaeb2db268e6702d16749d87f74c5a833",
        "eb555424f71bc75352ffe9dbf7a253c2a03dcc4544942db45d9488f8de9f2631", True),
    ("zero-basis", "symbolic"): (
        "5e40fda7a7e7d4c68ee2251d2b53a115353b2ff5800780abf5460192f3a0a34f",
        "f6001bc5d3d34c1f3fd8b5304457b7155c8a8dedc3d4295739118fb1ea30fc6a", True),
    ("zero-basis", "-1/3"): (
        "6cd9c398b477e61ef84989e05d55ea76e27f9203d9c58d44a11d9a478957ec00",
        "9c0f290c0f6b21e04744121aba953d5729231deb7b649dd1e5db5f047ebed140", True),
    ("zero-basis", "0"): (
        "653c7025265d7e72d8e5b56c626b26092021b2c6c84a7081a0e2d3cff9560bb8",
        "1b6fe7b864b5ad3034f710aeb589754aa23560cc7262c787615a211e49eacfa8", False),
    ("zero-basis", "1"): (
        "02931ffa91e79a327d44b090078207a34d6992cf0e37b6a9afd9cb3e98f3b937",
        "91a9c1c26210c0f308dd37fce414a3b7394c74aa052c893c783fdeaf879c4539", True),
    ("zero-ideal", "symbolic"): (
        "4aa5c75235abd0f0403259a578bea769a584141c5a722175e28bdffd67614919",
        "e299aafe1fdfa4f9fd233b0ebcadfadf9d90bfe8fed91cfb2ba09159c0a2b2f1", True),
    ("zero-ideal", "-1/3"): (
        "25930e9fea2b492e415bc766ac90077eeb746892fc67be517608f81be5bdb245",
        "d35bd585551eafc348b39312d8c734550566df3f0d6fd6586727ee1a08820df1", True),
    ("zero-ideal", "0"): (
        "997da3ec52f4364a91033a469b7f81e3559d1cdec1b1560d98a2b856595952f1",
        "6ce6cc6c3fcc3b2c23a87fda5db603e42ee221ddce38995c1981e036115fa681", False),
    ("zero-ideal", "1"): (
        "38e6523ef0730edc940e97a8d71d457deece4cdb91182e02d09a07428b2590c3",
        "4a192e010e3cdfc78b4e4647b7c7a85f45544be7f85c73f8121ef2f422cbf2fc", True),
    ("zero-nilpotent", "symbolic"): (
        "8b8536b7302b4a98b2d32ccff212e394be94437393dfa1f95e6bbbb18a24c2ed",
        "3348e67b2899a8ea609f26631906b4eda861f7c71697d8f8362b757cda70a0b4", True),
    ("zero-nilpotent", "-1/3"): (
        "5a8545e11ae1c81129bba5d52d978221734a5e52f8528651c98a522c5a4ebfce",
        "8981670e841065b25f9dfb8d4c2c3dadb10be233a36eb710de3c51c9f338cb86", True),
    ("zero-nilpotent", "0"): (
        "b66d50bb118d7db67e688bc74723b7aa8878624251d25357a8648dca9f5e7549",
        "6dbeee3305a40796e8e054a458c40801e817aa7c6297c64729b73bb6d3f2a4f1", True),
    ("zero-nilpotent", "1"): (
        "f25338736b5d9eac6ca9688975c96953ec4c4484dde255ccbb4f822a1ed84539",
        "b67e0470e789df4dc935a1493a4672f15e201582f2f0ede448edd946b6a11348", True),
}


def test_golden_table_covers_every_suite_and_q():
    assert set(GOLDEN) == {(s, q) for s in SUITES for q in QS}


@pytest.mark.parametrize("suite,q", sorted(GOLDEN))
def test_report_matches_golden(suite, q):
    assert report_digests(suite, q) == GOLDEN[suite, q]
