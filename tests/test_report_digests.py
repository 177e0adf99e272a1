"""Byte-identity guard: the stdout and exit code of every command on the
committed fixtures, pinned by SHA-256 digests of the reports the command
line printed before its argument parser was flattened.  No command
composes an end's monoid table, so each runs with `ends.end_monoid`
disabled, and `stab`, which prints no end family, runs again with the
family labels disabled."""

import hashlib
import os

import pytest

from galmon import ends, finset
from galmon.cli import run
from galmon.ends import EndObject

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")

# (argv with fixture file names, exit code, SHA-256 of stdout)
REPORTS = [
    ("validate --monoid s3.json --action s3_natural.json",
     0, "c37bd529033d0be939c5979d5ee4655155e35554d404fae802fb905393198632"),
    ("validate --monoid z2.json --action z2_swap.json",
     0, "8c0049488b3c5a522c7f9ddeee037613b05191aeb51e957963771b535e1c397d"),
    ("subgroups --monoid s3.json",
     0, "04cabf533bbc7395d8de7cc2ba1552ea94f8bb3532feccc25df29c5b1dd2379f"),
    ("subgroups --monoid z4.json",
     0, "40b785abe8e0b9e704553645e251fb5ed16f000d5e476642dd57ea6db48e6e7c"),
    ("subgroups --monoid e2.json",
     0, "ecd446ce7a18b0c8e500050354dbcf117368e9bb37013770c4a24112937eca56"),
    ("hopf --monoid s3.json",
     0, "27cb1f1dd877372482720b3bae44c10e715e47779696884f22403f5ae4e32122"),
    ("hopf --monoid e2.json",
     0, "365dd41ef1d6fbae1ced20c0ab374cef02ce40efdd02a8322a745dfe32486067"),
    ("inv --monoid s3.json --hom a3_in_s3.json",
     0, "2400818be4b5437f7f5b4f9006540814544288b3e0bd98d4066be25ee348c23a"),
    ("inv --monoid s3.json --hom z2_in_s3.json --site free+trivial",
     0, "0b38d5041b40cb0e614f0356fc87e770cd0fa0aab86da2037393cf48eca8d2cc"),
    ("stab --monoid s3.json --sub a3_invariants.json",
     0, "3fad6cb10765eab017a7661f46c0b43022d397b3767956a763e16015fc6333b8"),
    ("end --monoid s3.json",
     0, "e6941a209e5c4e63536ca0aa7a65db38af10e7235fd16dd54a7069e8ac944dd5"),
    ("end --monoid z3.json --site free",
     0, "8d6f7378a03df2bb0e1f37de2d1a65b4795c3fd63e88f9e81236b21059cdaa57"),
    ("corr --monoid s3.json",
     0, "f8e03b924911f1ee7745825f6ff392e4322420b8b93bc651746e3c0d6d67c21c"),
    ("corr --monoid e2.json",
     0, "b377719be7247d283e054446cf1b04ab87da50d8ebec9d1bbc9d33da0ece9960"),
    ("corr --monoid z4.json --out dot",
     0, "e539aeea312feaf94544d933a5643115d7cade5476f9752ab605bcc01237c373"),
    ("corr --monoid s3.json --out dot",
     0, "425ef102a5858c430668be1b855b1a56f840fb04b5c15c375952052ed427a078"),
    ("coinduce --monoid s3.json --hom z2_in_s3.json --action z2_swap.json",
     0, "3e78bd8635500b9de0fc00ea7ee03f6f563886e62138cbafb98ee836c697eb1d"),
    ("laws --monoid e2.json --seed 3",
     0, "a6030a7510365d80df2ddc5a188bbaf247152eaffb29c713ea40975d98da0a56"),
    ("laws --monoid s3.json --seed 3",
     0, "c0c0a167788d2fea280872261a02e70fe433ee82cf67d8377f769d031680dada"),
    ("subgroups",
     1, "3960de241e41e8d56b2351414b39a4ef3dda0a2dfbb9a7423b786fbcbdfdeff1"),
    # a unit and six left zeros: every submonoid is an array of strings
    # written in one join, and every extension closes by itself
    ("subgroups --monoid lz6.json",
     0, "857f7b6d384ce8998cc301b2bfe52c25b309e67ba59a2f24f0b57c60597ecc4d"),
    ("corr --monoid lz6.json",
     0, "2794a0c945df69661489ba38b14827cac7e36d9234bd570367008c07bc7a7abb"),
    # a unit and twelve left zeros: 4096 submonoids, listed in one subtree step
    ("subgroups --monoid lz12.json",
     0, "b3485d5c64c156536c3c3b37632027d789a7fd8dba9c10c823812924a4068d3b"),
    ("corr --monoid lz12.json",
     0, "6a455d6d6136faed0801fe2081f4c5af8bd4c24348531cfd562d5a4dbf5d897c"),
    # the law sweep over a dense lattice and over a group's coset site
    ("laws --monoid lz6.json --seed 3",
     0, "7da6a6b411b66b6676f7da8368959d5e996c5348005d96a99b025edc4aa87878"),
    ("laws --monoid z4.json --seed 1",
     0, "29aa9c3d8f6762f3fc99f2b95116cd9a31992624a2db973148aa7f891a5b4713"),
    # sites built from --action files: the checked action constructor, and
    # internal_nat's read-off when the site has no free object
    ("end --monoid s3.json --site custom --action s3_natural.json",
     0, "0395df36aa6d3f6639a547bf23bbe064cd93afade00a41564500c62675e10b85"),
    ("end --monoid s3.json --site free+custom --action s3_natural.json",
     0, "e2f2fb8598165f08efc1d1b865623d76ed4f20bf9289c62cfa7a31416696b551"),
    ("corr --monoid s3.json --site cosets+custom --action s3_natural.json",
     0, "27376f643a2127e709b2fb4142fb0563b596843e3cde5c129f6007be99b3536b"),
    ("laws --monoid s3.json --site custom --action s3_natural.json --seed 2",
     0, "a28ea2e7d89fec24177f2f24a167e7adbc20b88746bca884caf924f510d930ba"),
    # the end route of a stabilizer on a site without a free object
    ("stab --monoid s3.json --site custom --action s3_natural.json --sub s3_natural_point.json",
     0, "e46cf1d25dd14c735d54b4f3b13f093abaa79086399d3fe83527bf223094c02e"),
    # symbols that JSON escapes (non-ASCII, a quote, a backslash), pinned
    # from the reports json.dumps printed before cli._dumps replaced it
    ("subgroups --monoid z3_symbols.json",
     0, "5c622d1e663a2956d3b014e8a262ced6b5edb496973b3da69cbae85324cbfe20"),
    ("hopf --monoid z3_symbols.json",
     0, "75481753f58611dad264afb5e5d5203f9131c2fd84ba20267278bba4055a3c40"),
    ("corr --monoid z3_symbols.json",
     0, "3495e059cfc5f3787005fbe164964945a8f65d4dab944b53d2d2ba2b40fbba7f"),
    ("end --monoid z3_symbols.json",
     0, "c2969d7d05f6dd2723189339e6b45a67362c5cd3d59ad5da50a114296988855e"),
    ("laws --monoid z3_symbols.json --seed 3",
     0, "e056492ad404f8a93a9c2900ca38947e12f70d4bbe205054af83d12ad2e34bab"),
    # S4's default site: 31 objects, so each end family's label runs to
    # 10 119 characters
    ("end --monoid s4.json",
     0, "2ad756e9029073f20e83fe9ad69fd624311e01a2bf7c06f25ad0a2166d78f356"),
    ("stab --monoid s4.json --sub s4_swap_invariants.json",
     0, "331d6f2770cd45438cec71fc379428376dc7918c1f5870f5d907a0651e0cb988"),
    # S4's lattice: 30 submonoids, all closed, from the fixed-point masks of 24 elements
    ("corr --monoid s4.json",
     0, "56caef2de427f3acd1901bfde27739b5c1ea586b5e65d2b8a03771673ebc94cd"),
    ("laws --monoid s4.json --seed 3",
     0, "5edfbce4cff97cd6d2b376913dbd89c478abd221fbc4166aeacebd43e4146b88"),
    # V keeps every point, so stab equalizes End[U]'s own families
    ("stab --monoid s3.json --sub s3_all_points.json",
     0, "87c038cfcb4109dd4a59bd7d3ac645f6f245d51c5c87aebb8d21858ff18f9688"),
]
STABS = [r for r in REPORTS if r[0].startswith("stab ")]


def assert_report(argv, code, digest, capsys):
    args = [os.path.join(FIXTURES, w) if w.endswith(".json") else w for w in argv.split()]
    assert run(args) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, code, digest", REPORTS, ids=[r[0] for r in REPORTS])
def test_report_is_byte_identical(argv, code, digest, capsys, monkeypatch):
    def composed(end):
        raise AssertionError("a command composed the monoid table of %r" % end)

    monkeypatch.setattr(ends, "end_monoid", composed)
    assert_report(argv, code, digest, capsys)


@pytest.mark.parametrize("argv, code, digest", STABS, ids=[r[0] for r in STABS])
def test_stab_labels_no_family(argv, code, digest, capsys, monkeypatch):
    def labelled(*args):
        raise AssertionError("stab wrote the label of an end family")

    monkeypatch.setattr(EndObject, "_prefixes", property(labelled))
    monkeypatch.setattr(EndObject, "label", labelled)
    assert_report(argv, code, digest, capsys)


@pytest.mark.parametrize("argv, code, digest", STABS, ids=[r[0] for r in STABS])
def test_stab_computes_one_end_and_no_second_site(argv, code, digest, capsys, monkeypatch):
    # the end of a second site, such as the underlying carriers', would be a second call
    calls, end_of_forgetful = [], ends.end_of_forgetful

    def counted(site):
        calls.append(site)
        return end_of_forgetful(site)

    monkeypatch.setattr(ends, "end_of_forgetful", counted)
    assert_report(argv, code, digest, capsys)
    assert len(calls) == 1


def test_a_refusal_prints_one_error_object(capsys, monkeypatch):
    # S3's free site has 6 * 6 table cells, counted before it is built
    monkeypatch.setattr(finset, "MAX_ENUMERATION", 10)
    assert run(["end", "--monoid", os.path.join(FIXTURES, "s3.json"), "--site", "free"]) == 2
    assert capsys.readouterr().out == (
        '{\n'
        '  "error": "actions.canonical_site: 36 table cells exceed the limit of 10",\n'
        '  "schema": "galmon/1"\n'
        '}\n')
