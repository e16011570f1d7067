#!/bin/sh
# Tour of the command-line interface.  Writes everything under ./cli_out.
set -e

OUT=cli_out
mkdir -p "$OUT"

cat > "$OUT/square.json" << 'EOF'
{
  "nx": 16, "ny": 16, "lambda2": 5.0,
  "a": -0.6666666666666666, "b": 2.0, "c": 2.0,
  "boundary": "planar", "init": "random(0.2)", "seed": 1,
  "tol": 1e-7
}
EOF

echo "== minimize: relax a random start to the stable state"
python3 -m nematicq.cli minimize --config "$OUT/square.json" --out "$OUT/min"
head -3 "$OUT/min/run.json"

echo
echo "== flow: certified gradient-flow relaxation with a trajectory trace"
python3 -m nematicq.cli flow --config "$OUT/square.json" --out "$OUT/flow"
head -4 "$OUT/flow/trajectory.csv"

echo
echo "== landscape: all stationary points of a closed-form test energy"
python3 -m nematicq.cli landscape --toy --out "$OUT/toy"
python3 - "$OUT/toy/landscape.json" << 'EOF'
import json, sys
with open(sys.argv[1]) as f:
    graph = json.load(f)
print(f"{len(graph['nodes'])} nodes, {len(graph['edges'])} edges")
for node in graph["nodes"]:
    print(f"  node {node['id']}: index {node['index']} energy {node['energy']:.4f}")
EOF

echo
echo "== maier-saupe: branch table at one interaction strength"
python3 -m nematicq.cli maier-saupe --alpha 7.0 --out "$OUT/ms"
cat "$OUT/ms/branches.csv"

echo
echo "== hedgehog: radial defect profile"
python3 -m nematicq.cli hedgehog --a -1 --b 1 --c 1 -R 10 -N 256 --out "$OUT/hh"
head -4 "$OUT/hh/hedgehog.csv"

echo
echo "every run writes a run.json manifest naming all of its outputs:"
python3 - "$OUT/hh/run.json" << 'EOF'
import json, sys
with open(sys.argv[1]) as f:
    manifest = json.load(f)
print(json.dumps({k: manifest[k] for k in ("command", "outputs", "build_id")}, indent=2))
EOF
