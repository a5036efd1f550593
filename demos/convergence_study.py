"""Miniature convergence study: breakdown bounds head toward 1/3 as n grows.

Run:  python3 demos/convergence_study.py   (a few seconds; CSVs land in demos/out/)

The full-size study (n up to 1600, 20 trials) runs via:
  halfmed convergence --spec <spec-file> --out <dir>
"""

import pathlib

from halfmed import ExperimentConfig, run_convergence, uniform_ball

out = pathlib.Path(__file__).parent / "out"
cfg = ExperimentConfig(
    name="mini-ball",
    spec=uniform_ball(2, 1.0),
    n_schedule=(50, 100, 200, 400),
    trials=5,
    seed=0,
    out_dir=out,
)
res = run_convergence(cfg)

print(f"{'n':>5}  {'median lambda*':>14}  {'median lower':>12}  "
      f"{'median upper':>12}  {'gap':>8}")
for n in sorted(res.medians):
    m = res.medians[n]
    print(f"{n:>5}  {float(m['lambda_star']):>14.4f}  {float(m['lower']):>12.4f}  "
          f"{float(m['upper']):>12.4f}  {float(m['gap']):>8.4f}")
print()
print(f"CSV tables: {', '.join(p.name for p in res.csv_paths)} in {out}/")
print("The sandwich tightens from below as the sample's maximal depth climbs")
print("toward 1/2; the upper bound sits at exactly 1/3 for every even n.")
