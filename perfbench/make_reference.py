#!/usr/bin/env python3
"""Rebuild perfbench/reference.json from untraced full-size records.

    python3 perfbench/make_reference.py [records.jsonl]

Averages the final P(k) of every recorded trajectory per workload over a band
of bins (BAND below):
the band's mean power ("amplitude") and each bin's power over that mean
("shape"). The amplitude may differ by a factor of four: the box-scale
modes of a 64 Mpc/h box scatter its logarithm by about 0.2 between seeds,
with a heavy upper tail from rare massive halos (0.63-2.39 times the
reference over 407 trajectories, 2.0 exceeded four times). The shape may
differ by 45%: its worst bin scatters by about 8% (median over the same
trajectories), and by up to 30% at the band's top bin in the most clustered
realizations. Both limits sit well past the observed tails, so a correct
build fails them far less than once per thousand trajectories.
"""
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Bins 4..15: the 5th fundamental mode (0.54 h/Mpc) to half the Nyquist
# wavenumber of a 64^3 grid (1.6 h/Mpc); spectra are binned one fundamental
# mode wide, so the band is the same on every workload's grid.
BAND = range(4, 16)
AMPLITUDE_FACTOR = 4.0
SHAPE_RTOL = 0.45


def main():
    path = sys.argv[1] if len(sys.argv) > 1 else os.path.join(
        os.path.dirname(HERE), ".bench_build", "perfbench-records.jsonl")
    spectra = {}
    with open(path) as f:
        for line in f:
            r = json.loads(line)
            if r.get("smoke") or not r.get("final_pk"):
                continue
            pks = r["final_pk"]
            if pks and isinstance(pks[0][0], (int, float)):
                pks = [pks]  # one trajectory per record
            for i, pk in enumerate(pks):
                spectra.setdefault(r["workload"], {})[(r["seed"], i)] = pk
    ref = {}
    for workload, by_seed in sorted(spectra.items()):
        pks = list(by_seed.values())
        band = BAND
        amps = [statistics.mean(pk[i][1] for i in band) for pk in pks]
        ref[workload] = {
            "runs": len(by_seed),
            "k": [round(pks[0][i][0], 3) for i in band],
            "amplitude": statistics.mean(amps),
            "shape": [statistics.mean(pk[i][1] / a for pk, a in zip(pks, amps))
                      for i in band],
            "amplitude_factor": AMPLITUDE_FACTOR,
            "shape_rtol": SHAPE_RTOL,
        }
    with open(os.path.join(HERE, "reference.json"), "w") as f:
        json.dump(ref, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
