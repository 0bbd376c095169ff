"""Golden CLI output: sha256 digests of stdout for a fixed command list.

Each command runs in both text and structured format and must reproduce
its digest and exit code byte for byte, so a refactor of report encoding
or rendering cannot change what a user sees. Text output follows document
key order, so it also pins the order in which reports list their keys.

The digests include floating-point residuals printed to 6 significant
digits (text) or in full (structured); they were taken with numpy 2.4 on
x86-64. To refresh after an intended output change, print
hashlib.sha256(out.encode()).hexdigest() for each case below.

ARGPARSE_OWNED pins, with COLUMNS=80, the help texts, usage errors and
argparse-only spellings (abbreviations, --opt=value) by the digests of
stdout and stderr and the exit code; they were taken with Python 3.11.

DOT pins the exit code and stdout digest of `--format dot` on lattices of
both orders.
"""

import hashlib

import pytest

from projlat.cli import main

GOLDEN = {
    "validate klein4": (
        0,
        "e76470e00ce1e41612a150ad53e682f3a29709ebe633a122a63dd96fe520567f",
        "430ccf0ac742cda954e930242304a016915de61d02f2fcf93966b8fee38fe38e",
    ),
    "validate broken-inverse": (
        1,
        "e122ab601607a476a1c43a0eb1effd26069ef38b765bc0ee693a1b546e9c7baf",
        "136e4bb126ef96a8a724ad1da2f5376d16c9fb652d5119a732e65f74fa869f60",
    ),
    "validate pants2": (
        0,
        "889c4f479f5b5293efe3b0754495529049ed237e2a4a22d7eafa64ba4b0f9b79",
        "9d3f98a0e7324b5b8f4698da4863810b6b701edd430c3d70253c01e2d1ba44f5",
    ),
    "validate pants3 --backend fhilb": (
        0,
        "f3e88205b05d29b2626e450aaaaaaa81024d1f39e1d5ac2aceefc9f204978338",
        "cb1cf2fe8529fd7ea529aecf8c3cc082d7a04a10be1d21b18eae3f939ced3ffe",
    ),
    "validate pants6": (
        0,
        "80b993ef40a0064aa44ab7e03fc793604ffd60095b7531add3b64eb8d77384a2",
        "39e5d849766dc086af82eca7a10ce392a5b60f25826fb87fc92cd50877f482b5",
    ),
    "validate dihedral12": (
        0,
        "39356f527052be629deae53498012e635fb5049a1ace1b8eefc4033c8f9beda5",
        "d6eace48411baf7c46bbc6f5017e5cca03a50b3816fc6c78c87cd0db0cb201bc",
    ),
    "validate two-intervals": (
        0,
        "307713b9a1d9cb16ac00831e01defa99070cbcc7cd1c81b4776451f97d3f98fd",
        "b42529012c831e4b54313d6443f68b36e07711851b45e2cb4ccf4ac2c0231df5",
    ),
    "projections pants2 --seed 7": (
        0,
        "10855dc2e7b46505c854b57cddb43d9ae1727337bbe34c67f7de233acbd264e2",
        "50162e752ad1130d9784ee1a6ac4c91df7c8d0f59f5f5e2833b064ea12dbd866",
    ),
    "projections pants4 --seed 3": (
        0,
        "9b1515ee05f629388f865f53f43e0f4a07e92921481a33b4270622b6e470b156",
        "e94eef356d5bece02da8aae8174a0b695dd4e8452627b483ea52bcbf7df0f54a",
    ),
    "projections klein4": (
        0,
        "668e4c809415effa6fbad7d8e24106d9f9971a914ab732efbc16acbacdfecc63",
        "be427c0c7c7c92008d56398e9c578106d5caa27fb0326aee4fab4d30bf05f276",
    ),
    "lattice klein4 --order inclusion": (
        0,
        "1573d156182f778b8ad6da44fccf389ca806d64c6da360577407c3d9377914bd",
        "c437f0756720e57ba47742fb361356f23c1fb153d8ed80517ad32f6f9624e630",
    ),
    "lattice symmetric3 --order inclusion": (
        0,
        "88099d94b0234e7e59826c29992ff4f16cddf5fccf60e5b7a8b826a5fe344ef3",
        "9dd0e9633c956ea3f46f959a1ab8926fe64e18259858d5651b6fa416564bfa4b",
    ),
    "lattice z2xz4 --order inclusion": (
        0,
        "46510b80d470115f7d4fc2022cec9f7868b8334edbde5a640811fa620890240b",
        "75d3e5c46e2695accb811f9207cd6918378d41d2ad83fe74eaaf104dcf54190a",
    ),
    "lattice interval --order mult": (
        0,
        "0f8bada0fcec085fe5e4907ee0da70bba5e0b78d803fb25cb2850fca2468aa28",
        "0cb3791736fd6b5cffcb96490e9394817fa3ea5031af5024e9867bb5ae51213b",
    ),
    "lattice dihedral4 --order inclusion": (
        0,
        "7048bb9e4108db04cbccca42433e99a4aea5d56bdcc9cdf0d4a8b7e3d80ceb4a",
        "d2f175fb32454dd5ba04e55b8154d4ca2e7152dfe4f2075d65bb5f66ce6fdeea",
    ),
    "lattice dihedral12 --order inclusion": (
        0,
        "62984533413e02dd4906a4e55933716a5a5cc8e91eb40870879fce694f86e2c7",
        "717499d3f982f2ac1b578147ae0eb0b7adb9275c2418f20dfd3f3aabbac36b8e",
    ),
    "lattice dihedral6 --order mult": (
        0,
        "fd531e01ae2d6fc2d52538c41b3b10e14ccaab7031883355a504b11d27ae03eb",
        "da934d5a331b32d2cb44678ae77915ed1bb23a4e253ec2d408563400b65b3456",
    ),
    "lattice cyclic16 --order inclusion": (
        0,
        "13f2a24decb5ec8223aff8a2bd32adf465da03f1b100f4bfcd18e72ee17f6633",
        "e794c38adffa9a791bbaa03103f742317534e6396dc28f5e6226f404bb2355e1",
    ),
    "lattice two-intervals --order mult": (
        0,
        "906a173030728a760c65feffd5baf5c2cfbfc3fa0d014686195a80348d9bb225",
        "a4c97f2c091856b29e7d866dcbdb46e0d24d9f86b4e4b5535f6ead02a8ad37a9",
    ),
    "lattice cyclic4 --order mult": (
        0,
        "15550ae59ffac11f7d743f4e53f06e73f61620d72cec2b2449b35e7e0605d4c9",
        "6bcffe2225c5f00cd23d1e1f9306e6453c05d41081544fda021aff7181295cda",
    ),
    "lattice basis3 --order mult": (
        0,
        "3b4c1624e94853e2b62dcad09473f211e016a061d041b8b855fb9ba486f393bd",
        "53677faf3ed7de1a1e6c1c9267f0839ad726a4c0e673c2b32f27d4b6f5fdf191",
    ),
    "lattice basis5 --order mult": (
        0,
        "6243c22515f14b8f62f7af50c364846f591a2aaffaca55f1745bf0e3deab5081",
        "5b593d2172a1e96520cb49528323f70d48e5428b68abd09b70a44d2def041e4f",
    ),
    "copyables interval": (
        1,
        "96fb314194d43722d428c8a08efd6b66978b4538012fcfab64c969ee591c95c5",
        "5cb8f5901ae1bde445163295d76b099b8bc230310008629f0b4de95b8acc34e6",
    ),
    "copyables klein4": (
        0,
        "b4d1412b42d56b008cbbbdd974564b30130644ac4c880b7ff569d1940d1b4c4d",
        "fb1d3f63b9dc5b57777c940705ef5f61cc25c74568eb03b30303b8f5e43a1c59",
    ),
    "copyables dihedral12": (
        0,
        "2557be5fc3924a9805fee4685001362cef0dc1ff1754e5863b4161a6e4fee395",
        "84ee04fb7ac57adda4daa3556018a981f6655e8c246c60d8c3b5172ced42c557",
    ),
    "copyables z2xz4": (
        0,
        "ae2055a4741b4fd3622d65fe5f065f56a8b0ca5592ba168aabdab7bae24e78b6",
        "e6d24221c333f1769f6ad87b07c942f6b154266bea60547e295dd6daef78f357",
    ),
    "copyables two-intervals": (
        1,
        "c9d1bc0036af40bcecdb4da699439208579c130f8718aa5905d32f09ad717ed2",
        "576058fba378d47d5b494289bacc8d9dee1de4e198ffbbdb65593e7c6cfb7210",
    ),
    "tensor cyclic2 cyclic2": (
        0,
        "bb619b352c0a2d862489dbd180cc97daf0643db810563e04c0fd8dbb2475687e",
        "263bf2627482b448dc6d4be6d4c5c7c9c8607c92ce638e20255facde13ac689f",
    ),
    "tensor basis4 basis3": (
        0,
        "8c532ca6ce076e3760b9ec0cc8ef3aecdfb48a9af4962e3df525845c271f2219",
        "c70a0b4ed57945a586c112624d09742e3649dde40247a739229f9a642f09d0b7",
    ),
    "tensor klein4 interval": (
        0,
        "0be1683af92601a3fff926113490aa35cab8f11988c4c39c264eb51657dd84f7",
        "c489316b378479ae7f0cf4f0a098a0870fa23a801e27c7095d3c760f2f5a2e02",
    ),
    "tensor pants2 basis2": (
        0,
        "33d19c9f4e2437d018c286a93adf292bd37dd67810b12c1e37957981485f6238",
        "048cc2def035754fc638f9dec41c8a78c76975ca4bc0a0e6e201d312b77dc923",
    ),
    "tensor pants2 pants3": (
        0,
        "4880e337c63ac3cbd915050f7a7ec82e52323a8a0479055ddb846810f1c9911f",
        "65a336664abffaedf5d1961d26b7aa5bc8f78e45dd0fe3a309e57f71a7b6834c",
    ),
    "tensor pants4 pants3": (
        0,
        "93634f39fb35c4bcbad38a3146c6d8c164d2ed567f5023cf38167031c9cfd1a6",
        "aaf1c46716f526a8f207f889b52a9e39c65ccbe3f3b1de8918757bd0e1e05b46",
    ),
    "tensor cyclic16 cyclic12": (
        0,
        "3f7dcda208f625717128b091e21e2a05af2bc5fa0c165c5d4b19c3e0c299b518",
        "345b7ac145c76864c2874131ab3a960834c979826f99b33820f24255af97e926",
    ),
    "counterexamples all": (
        0,
        "7b1d313e2db0d4cd97fc5ad044e0a2a347be4ff30f995a31283e22596bf642d6",
        "a6bd85c980bf98215ce85b2712fe5839e5d452114012bf7b793673ec709278ce",
    ),
}


@pytest.mark.parametrize("fmt", ["text", "structured"])
@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_cli_output_matches_golden_digest(command, fmt, capsys):
    code, text_digest, structured_digest = GOLDEN[command]
    got_code = main(command.split() + ["--format", fmt])
    out = capsys.readouterr().out
    assert got_code == code
    want = text_digest if fmt == "text" else structured_digest
    assert hashlib.sha256(out.encode()).hexdigest() == want


# argv (split on spaces) -> (exit code, stdout digest, stderr digest)
ARGPARSE_OWNED = {
    "-h": (
        0,
        "fa6e266f81173e57ad7bc35f6d519c1819ca9d34a7fcb8184d98f466aeff42f1",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "validate -h": (
        0,
        "37d6a1d7b6c8776dbbf78884bfa967158833287215eeea1bed935d784c0f8852",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "projections -h": (
        0,
        "2c114f562c47d17bea08167986c98a924791762924244ed005cb59b380e07df2",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "lattice -h": (
        0,
        "8560744227df34d7d521029db491bfe262c1276186d15d2e6405c7e7cce9531b",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "copyables -h": (
        0,
        "8655c6501993fd2a363f17986bd8f2bb7579d3610fe5534380f045d74c84d52b",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "tensor -h": (
        0,
        "b1b6c8295aa02e0ace26045a7c4674ffbf06c25f6fcf588344b42351fe91b7e9",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "counterexamples -h": (
        0,
        "b58417ef44ae38dd033173fe3fc08d3429a62ed717f20a09735966ba65bb1e04",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "2161912c15fb50cee86128dc59ea0b09596a5b05ee5a3d28ec8f56a1ac55b28e",
    ),
    "nope": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "4522535dd574b75142b33c0f3a9fec362de35786219beb8082cdfb461ef736e0",
    ),
    "lattice klein4": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "4ab06a318eb03c4f44cd482be77a3bc46d7a90770979548d5c64e12141767304",
    ),
    "validate klein4 --format xml": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "dcfb5482455aeeef6982b0950164740defafb3c7a13467349248e64fc61af4ce",
    ),
    "validate klein4 --form structured": (
        0,
        "430ccf0ac742cda954e930242304a016915de61d02f2fcf93966b8fee38fe38e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "projections pants3 --seed=3": (
        0,
        "5c0c0c72f2ed22797f12da69e6b185fd128d50d2cf22ca88b3a2e2625ff95838",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "counterexamples nope": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "2fbf6e7e0e61f6d8d247754bb26548095f3730e725a49e41ee12cdfd291a71f2",
    ),
}


@pytest.mark.parametrize("command", sorted(ARGPARSE_OWNED))
def test_argparse_owned_output_matches_golden_digest(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out_digest, err_digest = ARGPARSE_OWNED[command]
    got_code = main(command.split())
    out, err = capsys.readouterr()
    assert got_code == code
    assert hashlib.sha256(out.encode()).hexdigest() == out_digest
    assert hashlib.sha256(err.encode()).hexdigest() == err_digest


# argv (split on spaces) -> (exit code, stdout digest)
DOT = {
    "lattice klein4 --order inclusion --format dot": (
        0,
        "82e412683c1e93ee9ebe79532296c143ce785adace57e6696a239d09493356a6",
    ),
    "lattice z2xz4 --order inclusion --format dot": (
        0,
        "95af0a595044e44fa016afaec17386df0a8f61dd9fe81b135e73611d7c6f3392",
    ),
    "lattice interval --order mult --format dot": (
        0,
        "3751f6fbcd5adcc8a2199837cf14949c734e820bd2419c537497ae88239118d1",
    ),
    "lattice basis3 --order mult --format dot": (
        0,
        "941f6de13fcf2b58782de1952548101dd3063394c37a72fcba92d901d03d6685",
    ),
}


@pytest.mark.parametrize("command", sorted(DOT))
def test_dot_output_matches_golden_digest(command, capsys):
    code, digest = DOT[command]
    got_code = main(command.split())
    assert got_code == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
