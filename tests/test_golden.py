"""Golden sha256 digests of `kleinnet limitset`, `kleinnet degenerate`,
`kleinnet qnet --random-circuit`, `kleinnet dessin`, `kleinnet character` and
`kleinnet graph` outputs.

The digests pin the exact bytes of the point-cloud CSV, the PPM image and
stdout for a fixed set of inputs, so any change to the limit-set traversal
that moves a single float shows up here.  The benchmark's 86,426-point cloud
is pinned on its own, as the largest CSV the tests write.  The mixed-chart group below is
built so that depth-floor nodes whose candidates straddle the two charts
occur at every depth from 1 to 4.  The degenerate digests pin the sweep CSV
and the stdout of `--report` the same way, for the word evaluation,
classification and report.  The qnet digests pin the amplitudes CSV of
seeded random circuits and the circuit text that `--emit` writes.  The
dessin digests pin stdout and the `--dot` file of folded subgroups, up to
index 20.  The character digests pin the printed characters, isometry
classes, theta values, trace coordinates, class lists and the re-saved rep
file; the graph digests pin the loop basis and the words of closed walks.
"""

import hashlib

import pytest

from kleinnet.cli import main

# two loxodromics: multipliers 1.5 and 1.4+0.3i, fixed points (0.1, 10) and
# (5, -0.2) (attracting first)
MIXED_CHART_REP = """\
a 0.8123728608220304,0.0 0.041237201056955816,0.0 -0.041237201056955844,0.0 1.2288685914972843,0.0
b 1.1761106089186535,0.1178249649092908 0.06900797527159591,0.04117377857387757 0.06900797527159591,0.04117377857387758 0.8448723276149932,-0.07980917224532155
"""

# (flags, csv sha256, ppm sha256, stdout sha256)
GOLDEN = [
    (
        ["--traces", "3,3,3", "--eps", "1e-3"],
        "5df46c1835e1c8eda981f81526dcde1e0d92a717f52f5db0da89f413bf733f0a",
        "14224bb444508cc83840b7ffdf18b1cc85c17c3835de457eacb35e2e922d3481",
        "254bd70acca76fad12f80421792d7f32ef50dd0e54396b132ae52f1637f71ce8",
    ),
    (
        ["--traces", "3,3,3", "--eps", "2e-3"],
        "be5fc89f454d4b29827e6822f1dbd68afbeb13dd2808d46370dbe786a4224156",
        "622d4c8fb8041a816cbbc38883687571a5e3cc79040dfdaea874be5be5882dfa",
        "71af3f081a1610c34bdffa6a949cef0877356523ae2ef5c2ad26bd8519e81190",
    ),
    (
        ["--traces", "3,3,3", "--eps", "4e-3"],
        "957126d82f97b0f78d983757feea2d2a3c4d91fba131ac6503cbb914cc40d803",
        "4da4df8ba038a766f3b130ba15339d1cab3450a50725c89b1397a22418c4d215",
        "2cb7beaf363fb9837829be1cf28c8a2451ccd7cd8091d5c1a11bc7dd1e2454d1",
    ),
    (
        ["--traces", "3+0.5i,3", "--eps", "1e-3"],
        "d1f7c5e6286389434aa9042b60994ed00b4e0ebd672b58b1571ce37be1f89aa4",
        "24490bb0ab0e8b42358a7632c9198ec325a95ce861f0186052c9972e658959b9",
        "cfa8d8bf909556847854e118bd8e0a0b07df953afc389f31e98852b84472d4f3",
    ),
    (
        ["--traces", "3+0.5i,3", "--eps", "8e-3"],
        "55e522cc8a7adb773c7eb0b9e08d94c2ba64cd69dd9884f4e981577be046819c",
        "ed2d21ad6e540bbb9500af291c58dfaed6c3e912ae5db982525d43fbf36e60cc",
        "adba53faa9d51d7c13bdc9121a264a59850402eb908ead9d4f592a11d95e0906",
    ),
    (
        ["--traces", "3+0.5i,3", "--eps", "2e-4"],
        "83f759eecfa67b95bd3922f5cc6e5b744ca0a371707efc8902c02aeb96a4a715",
        "1a13ac607d341c9c7f5e09ef6b719c632a0a8626f05fcfe9da579ff54b29408a",
        "70c740234bea7a99fd5066810e673c21aeac9d15a513d8251bfb666468058a0b",
    ),
    (
        ["--rep", "REP", "--depth", "1"],
        "d6a75dad19cac1ac2aed85000924ba684d018dedf083341441cb0b09c270d5d9",
        "8ac46a132078b454de696c3031ffafd43fdd3a74e132f470c68309f1e2a2919b",
        "cab2f729f46f5452c6193c351a35009b63f5c917bd454fa71b2a43dffc5a9649",
    ),
    (
        ["--rep", "REP", "--depth", "2"],
        "30af869a968e0d6622cf0e75e6b1f092516a108a77e9288081a1b9f3ee0d95e9",
        "ae3809ec3a9ea129161d7c06e2f2acbd14aec655214cb5b752dab2b9f634e796",
        "3d5b2154338edab27fdd1b72db29bba8febea6917c6a21ae3f6ab2db13cc1468",
    ),
    (
        ["--rep", "REP", "--depth", "3"],
        "cfdc27f60525c6928be37e10ec3e8a80b893ec369476ed4d1d840bf63b8be722",
        "c4e15cb5700fc20a70781dfe42f16f6c529ca38446a08e06b50c25413da14f18",
        "125d61c8da6aecbb3ec739ba1ccf01212f3196bb37ab3dac6c7de8c248282fb8",
    ),
    (
        ["--rep", "REP", "--depth", "4"],
        "446f47b8350e1acc779a27972a04c4098e42b239ebd9a255c46bd6989dca4c32",
        "647401b60724b16184a055a9b20abce5112f3bdb74cd14ffc15dbd94c61590d8",
        "2994a33b48cc6f3606abfacdaece9c5bc750a188524c8202a32ccfb12fffc204",
    ),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("flags,csv_sha,ppm_sha,out_sha", GOLDEN)
def test_limitset_golden_outputs(capsys, tmp_path, flags, csv_sha, ppm_sha, out_sha):
    rep = tmp_path / "rep.txt"
    rep.write_text(MIXED_CHART_REP)
    ppm, csv = tmp_path / "lim.ppm", tmp_path / "lim.csv"
    argv = ["limitset"] + [rep.as_posix() if f == "REP" else f for f in flags]
    code = main(argv + ["--out", str(ppm), "--csv", str(csv)])
    out = capsys.readouterr().out
    assert code == 0
    got = (_sha(csv.read_bytes()), _sha(ppm.read_bytes()), _sha(out.encode()))
    assert got == (csv_sha, ppm_sha, out_sha)


# the cloud of the benchmark's limitset-fractal workload (86,426 points)
FRACTAL_CSV_SHA = "567808b1c5180443c053b0d885054b2761a69ac66ee718b1d5e51f7dddafd4f7"


def test_limitset_fractal_csv_golden(capsys, tmp_path):
    csv = tmp_path / "fractal.csv"
    code = main(["limitset", "--traces", "3+0.5i,3", "--eps", "5e-5", "--csv", str(csv)])
    capsys.readouterr()
    assert code == 0
    assert _sha(csv.read_bytes()) == FRACTAL_CSV_SHA


# (t values, max-len, stdout sha256, csv sha256), all with --report
DEGENERATE_GOLDEN = [
    (
        "5,10", 4,
        "b83195320fe72cbf1eee878191f8d5b10dc97e8d6d5bc83bac2f72d7f7db9069",
        "1e92880f1d2661c490488622611432d8d16dfa64303507758a735d9112294090",
    ),
    (
        "5,10,15,20", 9,
        "0f79f95becee3eefc0fd59515e85966e5b640764e94d1af0e6e7a15759ec00e2",
        "09a99a93231e9e50ba2cea80816bbd38aed2c33109ecc59efb1fde6c64e9fcf4",
    ),
    (
        "5,10,15,20", 10,
        "c8e647498ac94050970dbd2db68526780ad90b561101eee4cc3e1f33abb348ea",
        "26e3f8992fe59f514e749f3f3edc9166888f4ca30e9d642f479ff64eb841cf1e",
    ),
    (
        "0.5,1,2", 7,
        "e3d33d9cf8e6e896d24c515435477719ec6627b6b2180f30335b0c2860798114",
        "13490efbd1232b5ece8948fecc1039bc6ba7c588489df12b9f0c08593bcfb6d2",
    ),
]


@pytest.mark.parametrize("t_values,max_len,out_sha,csv_sha", DEGENERATE_GOLDEN)
def test_degenerate_golden_outputs(capsys, tmp_path, t_values, max_len, out_sha, csv_sha):
    csv = tmp_path / "sweep.csv"
    code = main([
        "degenerate", "--t-values", t_values, "--max-len", str(max_len),
        "--csv", str(csv), "--report",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert (_sha(out.encode()), _sha(csv.read_bytes())) == (out_sha, csv_sha)


# (gates, areas, seed, stdout sha256, --emit file sha256 or None)
QNET_RANDOM_GOLDEN = [
    (
        50, 5, 9,
        "55a01d03ee7569839cde41630328d825227e6a74ddfd62848df4981a51df9eb6",
        None,
    ),
    (
        50, 5, 9,
        "55a01d03ee7569839cde41630328d825227e6a74ddfd62848df4981a51df9eb6",
        "09be5e39e191f1a79dad27ac2b2714f4d781d9e1c5bc022562c792ed651402a2",
    ),
    (
        2000, 16, 3,
        "dfa28bea0ff84680609241490290fb71cf7e78427ea539813a31a3e735a534f0",
        None,
    ),
    (
        4096, 2, 7,
        "8d40daf3a93059aa434a0a41701a7fa3fe24dfeee79d28da885e8f6a6f95bf0c",
        None,
    ),
]


@pytest.mark.parametrize("gates,areas,seed,out_sha,emit_sha", QNET_RANDOM_GOLDEN)
def test_qnet_random_golden_outputs(capsys, tmp_path, gates, areas, seed, out_sha, emit_sha):
    argv = [
        "qnet", "--random-circuit", str(gates), "--areas", str(areas),
        "--seed", str(seed),
    ]
    emit = tmp_path / "circuit.txt"
    if emit_sha is not None:
        argv += ["--emit", str(emit)]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert _sha(out.encode()) == out_sha
    if emit_sha is not None:
        assert _sha(emit.read_bytes()) == emit_sha


# (subgroup generators, stdout sha256, --dot file sha256)
DESSIN_GOLDEN = [
    (
        "aa,b,abA",
        "60da4e06f7d8f7ae074f85540e5898aa73c72c219866433512c1dc883c1d2b80",
        "eaab5557753cb197f15849f9456e4e944eda536bdec16ee00a146b819967c99d",
    ),
    (
        "aaa,b,abA,aabAA",
        "532dff76da1ea5280ecd96cb4dbe06de6f347ee57a304133cac68be55fdbea8e",
        "f93b9c7096e5480ff4cf494c834dd1453cef42f7ab28ca7cfad7283c425d626e",
    ),
    # the Schreier generators of an index-20 subgroup: the stabiliser of
    # dart 1 under a seeded transitive pair of permutations of 20 darts
    (
        "bbAB,aaba,abbaB,AAbAAA,AbabA,AbbAA,baaaB,bAbAb,Babab,BAbb,aaaaBa,"
        "aaabaa,abaaBA,ababAbA,aBaaab,aBabABA,aBBaaa,bababbA,babbbbA,BaaaBAB,"
        "BaabAAb",
        "89bee4801da4a3fe069ce152a8e8a0d5969cf136b4d81bea2bdc938dcc3b7dd3",
        "980bc3e2fd6f79559e2c559b8aab6013689342f660f72cbbecd355f090f48cdb",
    ),
]


@pytest.mark.parametrize("subgroup,out_sha,dot_sha", DESSIN_GOLDEN)
def test_dessin_golden_outputs(capsys, tmp_path, subgroup, out_sha, dot_sha):
    dot = tmp_path / "dessin.dot"
    code = main(["dessin", "--subgroup", subgroup, "--dot", str(dot)])
    out = capsys.readouterr().out
    assert code == 0
    assert (_sha(out.encode()), _sha(dot.read_bytes())) == (out_sha, dot_sha)


# rank 3: an elliptic rotation by 1 radian, a real loxodromic and a complex
# parabolic
CHARACTER_REP3 = """\
a 0.5403023058681398,0.0 -0.8414709848078965,0.0 0.8414709848078965,0.0 0.5403023058681398,0.0
b 2.0,0.0 1.0,0.0 1.0,0.0 1.0,0.0
c 1.0,0.0 0.5,0.5 0.0,0.0 1.0,0.0
"""

CHARACTER_REPS = {"MIXED": MIXED_CHART_REP, "REP3": CHARACTER_REP3}

# one words file per rep, with a comment and a blank line
CHARACTER_WORDS = {
    "MIXED": "# rank 2\n1\na\nB\nab\naB\nabAB\n\nAAbbbaBaBBB\nabababababab\n"
    "aaaaaaaaaaaaaaaaaaaabAbAbAbAbAbAbAbAbAbAbA\n",
    "REP3": "# rank 3\n1\na\naaaaaa\nb\nc\nC\nccccc\nabc\nCBA\nabcABC\n\n"
    "acacacBcbAbCbcAAcabbbBBcbcbC\nbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbcA\n",
}

# (rep, flags, stdout sha256); WORDS stands for the rep's words file
CHARACTER_GOLDEN = [
    ("MIXED", ["--words-file", "WORDS", "--classify", "--theta"], "74c1570892086eb53bd17816a483df5632da52415a1af9901c3bcaf18795c2c6"),
    ("REP3", ["--words-file", "WORDS", "--classify", "--theta"], "15521ae987a3c4135d951925392b26e9937fba15abae646567412760a1d60820"),
    ("REP3", ["--words", "a,bc,cA,abcabc", "--theta"], "50bffd662fd06eab17e8d7b5806c50643233efba8e51342cebdcb8a291e6e7fd"),
    ("MIXED", ["--moduli"], "15cd3614b1a1c01d0bd42fce64e3cc5c02b8b9a909718eab2e9a6f7ab388272d"),
    ("MIXED", ["--list-classes", "--max-len", "4"], "d415842ea277e318e3702890c435cde7560993bbfeb65e4edd6c890bc5295f95"),
    ("REP3", ["--list-classes", "--max-len", "4"], "14320263945ef12ba9faf19dc09fa53209e3d287856bba4b6a7445fbb49d3128"),
]


def _character_argv(tmp_path, rep, flags):
    rep_path, words_path = tmp_path / "rep.txt", tmp_path / "words.txt"
    rep_path.write_text(CHARACTER_REPS[rep])
    words_path.write_text(CHARACTER_WORDS[rep])
    argv = ["character", "--rep", str(rep_path)]
    return argv + [str(words_path) if f == "WORDS" else f for f in flags]


@pytest.mark.parametrize("rep,flags,out_sha", CHARACTER_GOLDEN)
def test_character_golden_outputs(capsys, tmp_path, rep, flags, out_sha):
    code = main(_character_argv(tmp_path, rep, flags))
    out = capsys.readouterr().out
    assert code == 0
    assert _sha(out.encode()) == out_sha


# (rep, stdout sha256, --echo-rep file sha256)
CHARACTER_ECHO_GOLDEN = [
    ("MIXED", "4fa4fdd8c09d9db6fd166b2fe038307fa8339b707b6acbde6597687839acbc96", "296033fbeea29927dd6f79941af3532630511db60d0b271da6e289eab840bdbc"),
    ("REP3", "8206c55609a022c731902c494a2eed85f6cfd655c6708b5fde2782a3b7dc0ede", "9c4909f9cf4a9843b7a01ed7bbd2a63ed30eb48457e95c34181658f7c12f2576"),
]


@pytest.mark.parametrize("rep,out_sha,echo_sha", CHARACTER_ECHO_GOLDEN)
def test_character_echo_rep_golden(capsys, tmp_path, rep, out_sha, echo_sha):
    echo = tmp_path / "echo.txt"
    argv = _character_argv(tmp_path, rep, ["--words", "ab", "--echo-rep", str(echo)])
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert (_sha(out.encode()), _sha(echo.read_bytes())) == (out_sha, echo_sha)


# two components, a self-loop, parallel edges and two areas
GRAPH_NET = """\
v 1
v 2
v 3
v 4
v 5
v 6
e 1 1 2
e 2 2 3
e 3 3 1
e 4 1 3
e 5 3 3
e 6 2 3
e 7 4 5
e 8 5 6
e 9 6 4
e 10 5 4
area left 1 2 3
area right 4 5 6
"""

# (extra flags, stdout sha256)
GRAPH_GOLDEN = [
    ([], "221bd2ffa7a44c122d43bea3c02750c1407351d7a8d8b9d6840dfff06913a1f8"),
    (["--walk", "1,2,5,3,4,-6,-1,4,-5,-4,1,6,-4"], "ee2f542c921bf8b5cf655c59ce7da6fced1485cade1c3bfbf68a8d651d79d93a"),
    (["--walk", "7,8,9,-10,-7"], "6fa0766c1cc010aaa7dc2779d0cedf61932cf8de7d76ba309267c0d77edcafd0"),
]


@pytest.mark.parametrize("flags,out_sha", GRAPH_GOLDEN)
def test_graph_golden_outputs(capsys, tmp_path, flags, out_sha):
    net = tmp_path / "net.txt"
    net.write_text(GRAPH_NET)
    code = main(["graph", "--file", str(net)] + flags)
    out = capsys.readouterr().out
    assert code == 0
    assert _sha(out.encode()) == out_sha
