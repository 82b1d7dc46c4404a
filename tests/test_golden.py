"""Golden hashes: the sha256 of every CSV of every shipped config, run at a
reduced size.

Request-count configs run `requests_per_point` = 5000. Duration-based
configs scale their duration, timeline times, class windows and bucket
width by `TIME_SCALE`. Any change to scheduling, routing, random draws or
CSV formatting shows up as a changed hash, so a speed-only or refactoring
change must leave this test passing as it stands. Regenerate the hashes
(run this file as a script) only in a change whose purpose is to alter
behaviour, and say so in CHANGES.md.

The module imports without pytest, so an interpreter that lacks it checks
the table too: `PYTHONPATH=src python tests/test_golden.py --check` prints
each mismatch and exits 1 if there is any. Under pytest,
`test_golden_check_passes_under_other_cpythons` runs that check under every
other CPython 3.10 or later that pyenv installed (`$PYENV_ROOT/versions`,
by default `~/.pyenv/versions`), and is skipped when there is none.
"""

import hashlib
import json
import os
import pathlib
import platform
import re
import subprocess
import sys
import tempfile

try:
    from pytest import mark
    parametrize = mark.parametrize
except ImportError:
    def parametrize(*_):
        return lambda test: test

from racksim.config import ExperimentConfig
from racksim.runner import run_experiment

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"
REQUESTS = 5000
TIME_SCALE = 0.01

GOLDEN = {
    "appendixB-locality": {
        "random.csv":
            "5c06751e78cbaf65dea87938c98707c58ef7bdc4c6b48825ac673402a8881622",
        "scaled.csv":
            "f1900837090dbf8fc28972187077fcc3cc92278f6d5c5baabe19dfec82591f04",
    },
    "appendixB-multiapp": {
        "random.csv":
            "59d6c6d6668e40b64edb445bdccfeff71268f095bc7175c9175c60d9bbe74582",
        "scaled.csv":
            "da83f5134248ffe33d572bbfbe36294cf65440e42d1bf3d6674b99fa301d35a8",
    },
    "appendixB-priority": {
        "scaled.csv":
            "acffe7a52f791038499dab55a0dd4d149d66f0115c70a0971ec24f7a55ba8231",
    },
    "fig11": {
        "round-robin.csv":
            "6a80252ca806697fc12245be56fd37fdc10970e584e902cd3b7e8b9f3712d05e",
        "sampling-2.csv":
            "040ade9f982f9a64b06bfb7ccc831d3afc677b023bd5f17600709a821f7214ab",
        "sampling-4.csv":
            "81631176e84ddb5d064e7e87977ac2723885364f3173f7a38c286df3f0d0304a",
        "shortest.csv":
            "611c141aa645236181849d820439c5973fb61cda097e0d249c02fff1095845cd",
    },
    "fig12": {
        "counter.csv":
            "c22d5d8a93ed14e793d0578179aa43bde5ab4e752ba7f245fea0fe04073d19e1",
        "paired-min.csv":
            "80f93a09143551db5c09d037ea403a69a29e2a25c9a1ff388f381b3a6ef4496f",
        "proactive.csv":
            "ee41b67d687c6ccc403a8db4b6102c0955dff9102e18391490b3ee5018155949",
        "remaining-work.csv":
            "766ab1d1555958d2d5a6cc78778dd24432a03ab083fdfbaf15724362560d84d9",
    },
    "fig13": {
        "scaled.csv":
            "e03d349d13bde3835fbaabdc81bb92aa7f3f968b901f63fe6f48c5901ca2e199",
    },
    "fig2a": {
        "global-cfcfs.csv":
            "591a1abfbd91840d0b564d27548837927c43e3124379774a5eef6afb5ee39839",
        "jsq-cfcfs.csv":
            "4c4f671cda7a6db860efdb40b077979e02e3fbac8af915c0f7f42a3432ffa742",
        "jsq-exact.csv":
            "c2f18c3d3bf22858dd30b4baef49bf267610314bb30fd7e38baa8f6861c4bc0f",
        "per-cfcfs.csv":
            "3911defb4ed462dca8ec4f208160307e8c8426f1e6cf5b17cef5a7aecb875a09",
    },
    "fig2b": {
        "global-ps.csv":
            "c88b454fd8e8c6dfee34fd7a0dd875de7970a9e57718f67073b1a7f9f71cfa5c",
        "jsq-ps.csv":
            "de1e9aa06789864cf8bf312a0b4fb6fc9a580650e5b3c30a68e131c5389918ad",
        "per-ps.csv":
            "93bf5b965219a1fc83f7565f804759742e5fda9f105bd7e2f66fc7c02ab2c0d1",
    },
    "fig9-1": {
        "scaled.csv":
            "69780abcf142c341f6d907db71a7551d2274a1b1be1d42e7afeaa4bb923356c8",
    },
    "fig9-2": {
        "scaled.csv":
            "0482cb344bc68398f330924e59cef5b5a9d6c65418401ce1e1aceca86fbbfec7",
    },
    "fig9-4": {
        "scaled.csv":
            "bb6919306be366895534347af8a6fe3a18b18ba6933d507d91c2434504233d5c",
    },
    "fig9-8": {
        "scaled.csv":
            "3e5cebe81b0617fedebf7a6f0cfe056c8046c2993e3dbd55dbc16fb30dccb974",
    },
}


def reduced(raw: dict) -> dict:
    """A copy of a shipped config at the golden size."""
    raw = json.loads(json.dumps(raw))
    sweep = raw["sweep"]
    if "duration_us" not in sweep:
        sweep["requests_per_point"] = REQUESTS
        return raw
    sweep["duration_us"] *= TIME_SCALE
    if "bucket_us" in raw:
        raw["bucket_us"] *= TIME_SCALE
    for ev in raw.get("timeline", []):
        for key in ("at_us", "duration_us", "purge_delay_us"):
            if key in ev:
                ev[key] *= TIME_SCALE
    for cls in raw.get("workload", {}).get("classes", []):
        for key in ("start_us", "stop_us"):
            if key in cls:
                cls[key] *= TIME_SCALE
    return raw


def csv_hashes(name: str, out_dir) -> dict:
    raw = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    exp = ExperimentConfig.from_dict(reduced(raw))
    paths = map(pathlib.Path, run_experiment(exp, str(out_dir)))
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in paths if p.suffix == ".csv"}


def shipped() -> list:
    return sorted(p.stem for p in CONFIG_DIR.glob("*.json"))


def test_every_shipped_config_has_golden_hashes():
    assert sorted(GOLDEN) == shipped()


@parametrize("name", shipped())
def test_csv_bytes_match_golden(name, tmp_path):
    assert csv_hashes(name, tmp_path) == GOLDEN[name]


PYENV_VERSIONS = pathlib.Path(
    os.environ.get("PYENV_ROOT", pathlib.Path.home() / ".pyenv"), "versions")


def other_cpythons() -> list:
    """Every pyenv-installed CPython 3.10 or later but the running one."""
    return [p.name for p in sorted(PYENV_VERSIONS.glob("3.*"))
            if re.fullmatch(r"3\.1\d\.\d+", p.name)
            and p.name != platform.python_version()
            and (p / "bin" / "python").exists()]


@parametrize("version", other_cpythons())
def test_golden_check_passes_under_other_cpythons(version):
    python = PYENV_VERSIONS / version / "bin" / "python"
    out = subprocess.run([str(python), __file__, "--check"],
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                         capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stdout + out.stderr


def recompute() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        return {name: csv_hashes(name, pathlib.Path(tmp) / name)
                for name in shipped()}


def check() -> int:
    """Print every CSV whose hash differs from `GOLDEN`, or is missing from
    one side; returns the exit status."""
    table = recompute()
    bad = 0
    for name in sorted(set(table) | set(GOLDEN)):
        got, want = table.get(name, {}), GOLDEN.get(name, {})
        for csv in sorted(set(got) | set(want)):
            if got.get(csv) != want.get(csv):
                print(f"MISMATCH {name}/{csv}: got {got.get(csv)}, "
                      f"golden {want.get(csv)}")
                bad += 1
    print(f"{bad} mismatches over {len(table)} configs, "
          f"Python {sys.version.split()[0]}")
    return 1 if bad else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        sys.exit(check())
    json.dump(recompute(), sys.stdout, indent=4, sort_keys=True)
    print()
