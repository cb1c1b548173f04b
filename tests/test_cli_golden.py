"""Golden CLI calls: each one's stdout, stderr and exit code are pinned by
sha256 digests, and each call that writes a result writes the same bytes
to --out as to stdout.  The --help text of beatty-lab and of each
subcommand is pinned the same way.

These calls cover every subcommand and format, the usage errors and the
defect exits; the benchmark's own digests cover only the large runs.
"""

from __future__ import annotations

import hashlib

import pytest

from beattylab.cli import _read, build_parser, main

# explicit generator files; {dir} in a call is the directory that holds them
FILES = {
    "good.txt": "4, 11, 15, 22, 29, 33, 40\n",  # phi n = 3 terms, comma separated
    "bad.txt": "4 9 12 19\n",  # gap 9 - 4 = 5 is not allowed
    "late.txt": "4 11 15 22 29 33 30\n",  # the violation lies past --limit 12
    "short.txt": "4\n11\n",
    "words.txt": "4 x 11\n",
}

EMPTY = hashlib.sha256(b"").hexdigest()

# call -> (exit code, sha256 of stdout, sha256 of stderr)
GOLDEN = {
    "gen --n 3 --h phi --limit 100": (
        0,
        "cc040c62f1eea61e62d1f702b8fd70f6279f4a5f53d0ce7c31525f78a7e9de01",
        EMPTY,
    ),
    "gen --n 3 --h phi --limit 100 --format json": (
        0,
        "a4c6e08d3b213d96f002f582eb767e10d46f6faaae95539f0ea7719b20835a48",
        EMPTY,
    ),
    "gen --n 2 --alpha sqrt2 --limit 50": (
        0,
        "b18ea5640028455ef40a9eb91c71cbda20723fdd197237ea4b2b432c2b5b4598",
        EMPTY,
    ),
    "gen --n 4 --h identity --limit 60 --format json": (
        0,
        "73633724d86e84dd68f026ae48e764dfc227d5dfea6c42fe69aef04eb6a0299e",
        EMPTY,
    ),
    "gen --n 3 --alpha 7,-1,4 --limit 80": (
        0,
        "1f37d2d51bdf9658d6b3b463ac0d6363d2aa930e6a496c9fc582135413797d5c",
        EMPTY,
    ),
    "gen --n 3 --explicit {dir}/good.txt --limit 30": (
        0,
        "37da1a43d46bcf3e1d53fec6e76b8f818a1b893444c2953101726e5aa484d824",
        EMPTY,
    ),
    "gen --n 3 --explicit {dir}/good.txt --limit 30 --format json": (
        0,
        "428ca7bac4456ac9a4e3325cfb66973254fce9c21778bc99abe1b299dde8e1ec",
        EMPTY,
    ),
    "gen --n 3 --explicit {dir}/bad.txt --limit 10": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "b5abbcc27bbb0c22aaec19ab082d884347bc02584814066df4ec9699bee66efc",
    ),
    "gen --n 3 --explicit {dir}/late.txt --limit 12": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "9d9a657113855a8c94cc1532785d4bd269da274c1821c79ec6894b5c51c31e70",
    ),
    "gen --n 65 --h phi --limit 100": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e9408b5e8a3b7f7b23193726d87854e115712728144e91b3b1df4537864050d3",
    ),
    "gen --n 3 --alpha 1,1,0 --limit 10": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "074e7db4d51b83c3c18c96b61781171ecba61a1a1fdbe1cfdcdd2d780224e238",
    ),
    "gen --n 2 --alpha phi3 --limit 5": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "00b630a6199c87ce7f356c484a25cd06811b4b86f708a1394a6a4f0da7a6ec2f",
    ),
    "gen --n 3 --explicit {dir}/words.txt --limit 10": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "711e75611172e262e77e1fcf67aa0649429b32132ea2f97a5152ff18601c522b",
    ),
    "gen --n 3 --h phi --alpha sqrt2 --limit 5": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "bc5438f257f9e4501b2bbc155d7cb0b456291ea2ec66d3b378892e19ad739abb",
    ),
    "gen --n 3 --h phi --limit 0": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "dc61b2c155ab1bb0bbf8eca697f7758dbee43e014dfb17d462c58fd3062da6ff",
    ),
    "verify --n 3 --h phi --limit 2000": (
        0,
        "3f3b3501eefdc1638075e35ab46223f0a2293a10cf6eca603d5738cfb639d6c5",
        EMPTY,
    ),
    "verify --n 3 --h phi --limit 2000 --format json": (
        0,
        "04fb9059da4f395400611d236d9fd7052f40b011abe2a87041f0a73d131c53fc",
        EMPTY,
    ),
    "verify --n 8 --h identity --limit 3000": (
        0,
        "293eaea91db6b74832dbea7a05d871eb42654b882d5ef6f21118a479ac01baba",
        EMPTY,
    ),
    "verify --n 2 --alpha phi2/2 --limit 500 --format json": (
        0,
        "c1ee77f928105778e87c9c7cb6c90d880d7a4d82825122cc865feb85a5673125",
        EMPTY,
    ),
    "verify --n 3 --explicit {dir}/bad.txt --limit 10": (
        1,
        "d41d2d8a4982c5d99d987e6c85a3f17d821948902e8223311276b51eafa5a997",
        EMPTY,
    ),
    "verify --n 3 --explicit {dir}/bad.txt --limit 10 --format json": (
        1,
        "9583d7548b88b1a2b578ad2275215a5f2c09a69b59e449b94ea58f1c7a1158e0",
        EMPTY,
    ),
    "verify --n 3 --explicit {dir}/good.txt --limit 30": (
        0,
        "0892cfa8407b2341c99adf321e66e1a7b0ff771350a2fbd4407285e709b2d6b6",
        EMPTY,
    ),
    "decompose --n 3 --h phi --m 20": (
        0,
        "a5da84a3b034bafdd5ed6b1a3e44e406b3ee06a8a74812ecab423695014bda7a",
        EMPTY,
    ),
    "decompose --n 3 --h phi --m 1 --format json": (
        0,
        "89ab1b4b624b383f9d8278904d1f3b76a53ca3b1c079b6eabbba26d6bebdaeeb",
        EMPTY,
    ),
    "decompose --n 5 --alpha sqrt2 --m 1000": (
        0,
        "eaf99c26b72bb4ceabd268f2aacfd5dbf7f5f7f12a97e4325f75ab076bf1bb1c",
        EMPTY,
    ),
    "decompose --n 3 --h phi --m 0": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "af493f61290cb0a828c6a1289a52dfc5109d40f56eae9cd0aa4961d68447c815",
    ),
    "decompose --n 3 --explicit {dir}/short.txt --m 100": (
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "dd7869fffd47231b8483946af7c70d7d6aaabe2b26534538b5aac892b14023d8",
    ),
    "identities --N 30": (
        0,
        "a526446b84b54688281017d9d6b13285dd319b7d90ec4eaa6deeb4703ecb73aa",
        EMPTY,
    ),
    "identities --N 12 --format csv": (
        0,
        "fb278db2e7d19a1c4ac27e3b154db824aed29c9c45144b93158b5ef01f4e2813",
        EMPTY,
    ),
    "identities --N 8 --format json": (
        0,
        "48a919aacc280f51dc3ac831524254e025a553f45eaf12c2085b6e769b2bfd33",
        EMPTY,
    ),
    "identities --identity fib-shift --r 5 --N 50": (
        0,
        "bd0f21272e096bdea9d804f68a27a5f9b707d0399cd5bf82f8e797c320434c6e",
        EMPTY,
    ),
    "identities --identity klm-grid --N 3 --inject-off-by-one": (
        1,
        "fed58eda00136c1acbe0fc7cddf1ff08af898114d90696b59a4cd6e2c586a3e0",
        EMPTY,
    ),
    "identities --identity klm-grid --N 3 --inject-off-by-one --format json": (
        1,
        "be6d740bb7eeb0076e4948e27f92e9e7f5ca12564a444f087e16b38504eb5a96",
        EMPTY,
    ),
    "identities --N 0": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "dc61b2c155ab1bb0bbf8eca697f7758dbee43e014dfb17d462c58fd3062da6ff",
    ),
    "identities --identity fib-shift --r a --N 5": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "6115d98b28523c62b7f368126e7e80dbe8d474b64d9465f1652bbe802f099a8a",
    ),
    "identities --identity no-such --N 5": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "f00075c1928ed21371c4f5219ef2267d40dd83edab3d8c6e01dc0ad70198adc3",
    ),
    "classify rows --N 30": (
        0,
        "e0827545881caa35eb4d576707f63a90b881bafb35a6e3fbf0789377a9b7a733",
        EMPTY,
    ),
    "classify rows --N 30 --format json": (
        0,
        "ec5fbe1d67bd00a90f7e314a4ad57f5fa95ddaada510d79aaf9b5910a9524ed9",
        EMPTY,
    ),
    "classify census --N 3000": (
        0,
        "fb96916f70c75970885de79559ff18a76722cbe7335a3a3f9331b58d5f1ce8d9",
        EMPTY,
    ),
    "classify census --N 300 --format json": (
        0,
        "7ecac029a6a6afebf386ed04c76e3000265d6119469d15ee1c1168261e1f7c10",
        EMPTY,
    ),
    "classify ab-over-scd --N 3000": (
        0,
        "7491eb44dc497b6099bcf6a1ab559a856d6e1510b88ae5dcdda08df31825fbd5",
        EMPTY,
    ),
    "classify ab-over-scd --N 300 --format json": (
        0,
        "a111723ec4bc4d8a4fe0f48461076e0b28728ff72cc86695987e0922cff3f813",
        EMPTY,
    ),
    "classify census --N 0": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "dc61b2c155ab1bb0bbf8eca697f7758dbee43e014dfb17d462c58fd3062da6ff",
    ),
    "density --N 3000": (
        0,
        "107a9caf045060c1392a76144d0bcb936926c1cb001a8675527e6839994b0380",
        EMPTY,
    ),
    "density --N 500 --format json": (
        0,
        "fbb31f1dbbce171419c0174afec2ed2740ec0fc7ab6a85968f462cd41f5a5465",
        EMPTY,
    ),
    "density --N 0": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "dc61b2c155ab1bb0bbf8eca697f7758dbee43e014dfb17d462c58fd3062da6ff",
    ),
}

# subcommand ("" for none) -> sha256 of its --help text at COLUMNS=80, to
# which argparse wraps it
HELP = {
    "": "498e3541192538c06043920295c9829e99a9c608bd0aaff3bde40f5c6852c910",
    "gen": "91e86b04f1086c04f27da9cadcbd361599bdf84139bad352b3b457a036e27acf",
    "verify": "833aabc35a44137d53538238edacd9066afbf74986aa775855838d4ea03f9b84",
    "decompose": "45f5bbdf2f8564f44cc7c7240dd3bc42186372c16a04c9427315a6492a6b3b12",
    "identities": "50eb5806d183b603ebd8e906c1321dd3c9f459a28cbb8e2bb92be9c3d3288f94",
    "classify": "c5d26bcb0c9434686b000c227caa79c5e3fcea52d6f2b89974bed51f2ab04452",
    "density": "e2ab6b3d3f52274f6d99f277db86304334ee7d62bb55885f4ee66132494df671",
}


def _call(capsys, directory, call: str, *extra: str) -> tuple[int, str, str]:
    argv = [arg.replace("{dir}", str(directory)) for arg in call.split()] + list(extra)
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture
def explicit_dir(tmp_path):
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    return tmp_path


@pytest.mark.parametrize("call", list(GOLDEN))
def test_output_bytes_pinned(call, capsys, explicit_dir):
    code, out, err = _call(capsys, explicit_dir, call)
    assert (code, _digest(out), _digest(err)) == GOLDEN[call]


@pytest.mark.parametrize("call", list(GOLDEN))
def test_out_file_holds_the_stdout_bytes(call, capsys, explicit_dir, tmp_path):
    target = tmp_path / "result.out"
    code, out, err = _call(capsys, explicit_dir, call, "--out", str(target))
    expected_code, out_digest, err_digest = GOLDEN[call]
    assert (code, out, _digest(err)) == (expected_code, "", err_digest)
    if out_digest == EMPTY:  # usage errors and defects found before a result: no file
        assert code != 0 and not target.exists()
    else:
        assert hashlib.sha256(target.read_bytes()).hexdigest() == out_digest


@pytest.mark.parametrize("command", list(HELP))
def test_help_bytes_pinned(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as info:
        main([command, "--help"] if command else ["--help"])
    out, err = capsys.readouterr()
    assert (info.value.code, _digest(out), err) == (0, HELP[command], "")


@pytest.mark.parametrize("call", list(GOLDEN))
def test_the_direct_reader_reads_each_call_as_argparse(call, explicit_dir):
    # main reads every call here without argparse, but one that argparse refuses
    argv = [arg.replace("{dir}", str(explicit_dir)) for arg in call.split()]
    try:
        expected = vars(build_parser().parse_args(argv))
    except ValueError:
        expected = None
    args = _read(argv)
    assert (None if args is None else vars(args)) == expected
