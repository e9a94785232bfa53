from pathlib import Path
import json, glob, statistics, re, sys
from collections import defaultdict
data = defaultdict(lambda: defaultdict(dict))  # (W, metric) -> side -> seed -> value
fails = defaultdict(lambda: [0, 0])
for path in glob.glob(str(Path(__file__).parent / "runs" / "log_*.txt")):
    m = re.match(r".*/log_(bp|bc)_(\w+?)_(\d+)\.txt", path)
    side, W, seed = m.group(1), m.group(2), int(m.group(3))
    lines = open(path).read().splitlines()
    if not lines or not lines[-1].startswith("{"):
        continue
    rec = json.loads(lines[-1])
    fails[W, side][0] += rec["attempted"]; fails[W, side][1] += rec["failed"]
    for name, v in rec["metrics"].items():
        data[W, name][side][seed] = v["value"]
def q(xs):
    xs = sorted(xs); n = len(xs)
    qs = statistics.quantiles(xs, n=4, method="inclusive") if n > 1 else [xs[0]]*3
    return qs
for (W, name), sides in sorted(data.items()):
    p, c = sides.get("bp", {}), sides.get("bc", {})
    seeds = sorted(set(p) & set(c))
    if not seeds: continue
    pv = [p[s] for s in seeds]; cv = [c[s] for s in seeds]
    pq, cq = q(pv), q(cv)
    rel = (statistics.median(cv) - statistics.median(pv)) / statistics.median(pv) if statistics.median(pv) else 0
    print(f"{W:<17}{name:<13} n={len(seeds)} parent med {pq[1]:.6g} [{min(pv):.6g}..{max(pv):.6g}] IQR {pq[2]-pq[0]:.3g} | change med {cq[1]:.6g} [{min(cv):.6g}..{max(cv):.6g}] IQR {cq[2]-cq[0]:.3g} | {rel:+.2%}")
for k, v in sorted(fails.items()):
    print(k, "attempted", v[0], "failed", v[1])
