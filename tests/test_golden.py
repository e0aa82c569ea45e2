"""Golden sha256 digests of CLI output bytes: `simulate`, `correlate`,
`eigen`, `sweep`, `fit` and `demo-paper`, and of the dense
autocorrelation counts of a resonant-CW stream.

A change that alters output bytes on purpose updates the digests it
alters and says in CHANGES.md which ones and why.  A failure prints each
changed name with its new digest, as an entry of GOLDEN.
"""
import hashlib

import numpy as np

from cqedkit import cli, clickio, config, coupled, hbt, specfit, trajectory
from cqedkit.units import HBAR_UEV_PS

PULSES = "4000"
SEEDS = ("2", "7")
#: the file the correlations read
CORRELATED = ("single-photon-detuned", "7")
#: the fitted series: the temperatures of acceptance criterion 6, 5% noise
FIT_TEMPS = np.concatenate([np.arange(6.0, 8.01, 1.0),
                            np.arange(8.5, 12.51, 0.5),
                            np.arange(13.0, 16.01, 1.0)])
FIT_SEED = 3
#: demo-paper's pulses per Fig. 4 run
DEMO_PULSES = "2000"
#: a resonant-CW stream of the default device: duration (ps), pump rate
#: (1/ps) and seed.  Its +/-30 ns autocorrelations in 10 ps bins have
#: about 580 pairs per click
CW = (1.5e5, 0.05, 4)
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
    "eigen default":
        "92af811dd675bec29c0520f067f0165bf4f6134a5f609aee1a732d914db5768a",
    "eigen single-photon-detuned":
        "0673e05a78290c0141695fdcfc0b0d6481361c51c1f5d4e19038aed78cff506d",
    "eigen single-photon-resonant":
        "5baf4dcd42767b2b66ba00dcf96a493814473903bc73d028b14cba7326863d0b",
    "sweep default":
        "c02cc175ba95ee67ade4b0371a884095727d53eabc492afdf7e35ddb5e6c9b8f",
    "fit series":
        "0f0135dcf372be64f2e1a74e30be75470dca230c00eead0b8ae735ac6915a863",
    "demo-paper":
        "034d608434f120d71a9a3158d00db08f456763ba8b9a331316ca275a6cef08cd",
    "cw C+X counts":
        "710bb04ce8260475b3c1a5129d24888124449ae6c618f0ed4b145fde0dde5fa7",
    "cw C counts":
        "1edb6f11fd9a669a31cb6e8d323edc7ed7a31a6adf9e9e49b37090f3a4cf54ca",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def output_digests(tmp_path, capsys):
    """{name: sha256} of every click file, of each correlation's histogram
    and report, of each `eigen` report, of the default sweep's file, and
    of the `fit` report of one series, of `demo-paper`'s table (it exits 1
    while its acceptance 4 row fails), and of the int64 counts of two
    autocorrelations of one CW stream.  Paths in stdout are cut to the
    file name."""
    def run(*argv):
        assert cli.main(["--out-dir", str(tmp_path), *argv]) == 0
        return capsys.readouterr().out.replace(f"{tmp_path}/", "")

    digests = {}
    for preset in config.PRESETS:
        for seed in SEEDS:
            name = f"{preset}-{seed}.csv"
            run("--seed", seed, "simulate", "--preset", preset,
                "--pulses", PULSES, "--name", name)
            digests[f"simulate {preset} seed {seed}"] = sha256(
                (tmp_path / name).read_bytes())
    clicks = str(tmp_path / "{}-{}.csv".format(*CORRELATED))
    for channels in ("C", "X", "X,C", "C,X"):
        report = run("correlate", clicks, "--channels", channels)
        digests[f"correlate {channels} histogram"] = sha256(
            (tmp_path / "histogram.csv").read_bytes())
        digests[f"correlate {channels} report"] = sha256(report.encode())
    for preset in config.PRESETS:
        digests[f"eigen {preset}"] = sha256(
            run("eigen", "--preset", preset).encode())
    assert run("sweep") == "anticrossing.csv\n"
    digests["sweep default"] = sha256(
        (tmp_path / "anticrossing.csv").read_bytes())
    spectra = specfit.synthetic_anticrossing(
        coupled.SystemParams(0.0, 0.0, HBAR_UEV_PS / 700.0, 85.0, 35.0),
        FIT_TEMPS, np.random.default_rng(FIT_SEED))
    files = []
    for i, s in enumerate(spectra):
        files.append(str(tmp_path / f"spec_{i:02d}.csv"))
        clickio.write_spectrum(files[-1], s)
    digests["fit series"] = sha256(
        run("fit", *files, "--noise-fraction", "0.05").encode())
    assert cli.main(["demo-paper", "--pulses", DEMO_PULSES]) in (0, 1)
    digests["demo-paper"] = sha256(capsys.readouterr().out.encode())
    duration, rate, seed = CW
    cfg = config.validate_config(dict(config.DEFAULT_CONFIG, pump={
        "mode": "resonant_cw", "cw_pump_rate": rate}))
    stream = trajectory.simulate_stream(
        config.build_model(cfg), config.build_pump(cfg),
        config.build_detectors(cfg), duration, seed)
    for channels in (("C", "X"), ("C",)):
        h = hbt.correlate(stream.filter(channels), window=30000.0,
                          bin_width=10.0, duration=duration)
        digests[f"cw {'+'.join(channels)} counts"] = sha256(
            h.counts.astype("<i8").tobytes())
    return digests


def test_output_bytes_match_golden_digests(tmp_path, capsys):
    got = output_digests(tmp_path, capsys)
    changed = sorted(k for k in got.keys() | GOLDEN.keys()
                     if got.get(k) != GOLDEN.get(k))
    # each changed name with its new digest (None: no longer made), in
    # the layout of GOLDEN
    assert not changed, "output bytes changed; new digests:\n" + "".join(
        f'    "{k}":\n        "{got.get(k)}",\n' for k in changed)
