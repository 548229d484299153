"""The n-ary Figure 4 transform and Figure 3 compile keep the binary rules' output.

The product rule over a flat ``S₁; …; Sₙ`` sums over only the statements
that use θ, last statement first.  Compiled, that is the multiset the
binary rule ``∂(S₁;S₂) = (S₁;∂S₂) + (∂S₁;S₂)`` gave on the left-nested
chains ``seq()`` used to build, member for member: the digests below are
sha256 hashes of the pretty-printed members, in order, recorded with the
binary rules — θ₁ of every Table 3 instance, and every parameter of the
Figure 6 classifiers P1–P3 (498 non-aborting members in all).
"""

import hashlib

import pytest

from repro.autodiff.execution import differentiate_and_compile
from repro.lang.pretty import pretty_print
from repro.vqc.classifier import build_p1, build_p2, build_p3
from repro.vqc.generators import table3_suite

#: label -> (sha256 of the pretty-printed members in order, non-aborting count)
RECORDED = {
    "QNN_S,b": ("9419b42a0847dfe810baba6dea43f82ae6a86a4358738c9cddff2b3f2172f728", 1),
    "QNN_S,s": ("146b761b7c2e819f227fae6cb56001b964473947b3104ae723dde6ca04677465", 6),
    "QNN_S,i": ("639464f317addf6f6c73f2b66aadaf56bf774f35f0e17c2aab2827995d27c554", 12),
    "QNN_S,w": ("63227f7cf08f6c723d72759cec032cf9d3f92bb16c09c2fe4c5aa5e173aba961", 12),
    "QNN_M,i": ("1535afd7abfdf1d424bceccf813edcd8a483db88c159838d4519ae02194af2b5", 24),
    "QNN_M,w": ("3173b43c3401899314246e3e75416bf5e838089cde7d9686a2fc740a39a2d234", 24),
    "QNN_L,i": ("12d2edf5d2865225db691f2f474d7f3e484369404e51744be8249ed9b5fafb47", 48),
    "QNN_L,w": ("b15932449f5411c553f41c4ab3f2a418c1a29cb523964756058647f5badf914d", 48),
    "VQE_S,b": ("8ab2d20b7f6cfee1bf3636bea98b98d9137eb6d48fb84866aa08209452b50e47", 1),
    "VQE_S,s": ("67359a53553ff7e6f9011655341548e2d1fd1be3e3c23338d4db5ef35fe7559c", 2),
    "VQE_S,i": ("e29b5fdf03d6869d3b2812c5033485264e3257e6e40464e816122c35514d2e71", 4),
    "VQE_S,w": ("e97973a0bdcae16de12054f690124cdd531eea2a4a3627255e6d02f3a754cb4c", 4),
    "VQE_M,i": ("1e48d484b98605aaffc30345ee642f0a6330ff7c734758a9c6362b5304ab9fa8", 12),
    "VQE_M,w": ("162b53602e94e04986c93670bb67d9255fecdff6e2dd9bebccdea03990dcd34e", 12),
    "VQE_L,i": ("fb51509aaa24aa55f70db0b410209fa7f6e1c7e6d0bc0043f49016ed6bc8d5ba", 40),
    "VQE_L,w": ("7f8655420ae58ed04f603871044ac8622c539831855a682b097c84b4a411c94a", 40),
    "QAOA_S,b": ("c2989a07b6f314544c98d71c1feb84ae204e59fd0a10c9327fe339d7bca2bfe4", 1),
    "QAOA_S,s": ("a28c0c6f6f7f0c87309cef1303054648a043132353899a191dcd7d0acb5e099a", 3),
    "QAOA_S,i": ("e4855bb11e0e13b632ac9710204ac53940fcbdd942b52b9f3dd2971f4535fbeb", 6),
    "QAOA_S,w": ("28d275ba679f99c3b1d9cb8dcec3d35c7106b21b70dcc8970691d1e18d68a446", 6),
    "QAOA_M,i": ("078efd4cf774cf98c792c2e2ca701343fb8eb5ea8fe963ad3117690d8230da2d", 18),
    "QAOA_M,w": ("72025268dac6b2033e916601d49c1b98aadcca1e7d74f8a158b2a10f3eadd01d", 18),
    "QAOA_L,i": ("6a02329b3f27d8c2dd1bcc186635e07f0955139cdf2db59f417a7004b4440d66", 36),
    "QAOA_L,w": ("68f2d506f3143738ec0e5058101dff88512b734966418908a46e9c39c755058c", 36),
    "P1": ("c5c2e5e78eb74a3a9072eef7cefc140b2f23e9fbab0a34238354161569d00fc4", 24),
    "P2": ("d2b7b5e0990a5707252b847b4ebb8e8c4c55d6e0e79aef585906deaffbb5f68c", 36),
    "P3": ("2334cf8176a52c47462367421b60bc1ee9eeceec9f528cc4f4c46fbff510501f", 24),
}


def _digest(members) -> str:
    digest = hashlib.sha256()
    for member in members:
        digest.update(pretty_print(member).encode())
        digest.update(b"\n\n")
    return digest.hexdigest()


def _compiled(label):
    classifiers = {"P1": build_p1, "P2": build_p2, "P3": build_p3}
    if label in classifiers:
        classifier = classifiers[label]()
        sets = [differentiate_and_compile(classifier.program, p) for p in classifier.parameters]
    else:
        (instance,) = [i for i in table3_suite() if i.label == label]
        sets = [differentiate_and_compile(instance.program, instance.shared_parameter)]
    members = [member for program_set in sets for member in program_set.programs]
    return members, sum(program_set.nonaborting_count for program_set in sets)


def test_the_record_covers_table3_and_the_classifiers():
    assert set(RECORDED) == {i.label for i in table3_suite()} | {"P1", "P2", "P3"}
    assert sum(count for _, count in RECORDED.values()) == 498


@pytest.mark.parametrize("label", sorted(RECORDED))
def test_compiled_members_match_the_binary_rules(label):
    members, count = _compiled(label)
    assert (_digest(members), count) == RECORDED[label]
