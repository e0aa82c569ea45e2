"""Golden sha256 digests of `simulate` and `correlate` output bytes.

A change that alters output bytes on purpose updates the digests it
alters and says in CHANGES.md which ones and why.
"""
import hashlib

from cqedkit import cli, config

PULSES = "4000"
SEEDS = ("2", "7")
#: the file the correlations read
CORRELATED = ("single-photon-detuned", "7")
GOLDEN = {
    "simulate default seed 2":
        "55f59307c354738a04dea4de9d2fd1ab3fd200ca67e0305912e3248bb6431f13",
    "simulate default seed 7":
        "94dfd0abe633d4e66eb6a1b86a604f3aa35cdd99e8176348a738e4cd5622f37e",
    "simulate single-photon-detuned seed 2":
        "b7c5dfcdf5e9dd3d207f77764a9ec4a761a30c4bb158a4a5cc0a0548cd65e4a3",
    "simulate single-photon-detuned seed 7":
        "417948cc36743156d9767ada81f149a0c6664cb0a97a994e9bc17f8ab5c5059b",
    "simulate single-photon-resonant seed 2":
        "58771df1a9cf06967bdf94387a3ccf07957671fbc41060ba32f7d4735d7f6e3d",
    "simulate single-photon-resonant seed 7":
        "de8578587a9fbb1b0fe36acbb5cea59ee5974b73f6b7717dc75dab140dce40fd",
    "correlate C histogram":
        "f672d0b1e1a2d5b64190e31a28ec4ffc35e004c520c7f1cc16ba5b5756044f2a",
    "correlate C report":
        "6bbb67abddb623e8c197624069ebb07bcf8ffe388a46278311f82e483874ff08",
    "correlate X histogram":
        "30b6065405a28eee98a1cd36d3204840fb0ae7620db50b81b8f74d4627686e46",
    "correlate X report":
        "f36024a305bd6a70370f3355351ce1e0e4128e746e99b2284037e018de4d0a21",
    "correlate X,C histogram":
        "099331d6a822db4a2c7c15660b46aac9ce6da734a81866bc5486a05bfd92986f",
    "correlate X,C report":
        "56ed71601ca7d62fbca4928b8103f969634efd39a01176bec5c9ac9ec6f4a5be",
    "correlate C,X histogram":
        "1fe3392e3df8d3d638212b00740646d18ae4b9c7859cad66f57d5f254e2fabfc",
    "correlate C,X report":
        "5adc6fcc895c67499c07c0d87028e1942b36edccea85fa77935f7686c50408c5",
}


def output_digests(tmp_path, capsys):
    """{name: sha256} of every click file and of each correlation's
    histogram and report, whose histogram path is cut to the file name."""
    def run(*argv):
        assert cli.main(["--out-dir", str(tmp_path), *argv]) == 0
        return capsys.readouterr().out

    digests = {}
    for preset in config.PRESETS:
        for seed in SEEDS:
            name = f"{preset}-{seed}.csv"
            run("--seed", seed, "simulate", "--preset", preset,
                "--pulses", PULSES, "--name", name)
            digests[f"simulate {preset} seed {seed}"] = hashlib.sha256(
                (tmp_path / name).read_bytes()).hexdigest()
    clicks = str(tmp_path / "{}-{}.csv".format(*CORRELATED))
    for channels in ("C", "X", "X,C", "C,X"):
        report = run("correlate", clicks, "--channels", channels)
        histogram = tmp_path / "histogram.csv"
        report = report.replace(str(histogram), "histogram.csv")
        digests[f"correlate {channels} histogram"] = hashlib.sha256(
            histogram.read_bytes()).hexdigest()
        digests[f"correlate {channels} report"] = hashlib.sha256(
            report.encode()).hexdigest()
    return digests


def test_output_bytes_match_golden_digests(tmp_path, capsys):
    got = output_digests(tmp_path, capsys)
    changed = sorted(k for k in got.keys() | GOLDEN.keys()
                     if got.get(k) != GOLDEN.get(k))
    assert not changed, f"output bytes changed: {', '.join(changed)}"
