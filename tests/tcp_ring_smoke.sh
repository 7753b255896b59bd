#!/usr/bin/env bash
# Loopback smoke test of the socket transport: boots a 5-process
# contjoin_noded ring, pushes a small workload through contjoin_client under
# each of the four algorithms (SAI, DAI-Q, DAI-T, DAI-V), and diffs the
# delivered notification content keys against an identical in-process run
# (the oracle). Reliability is on, so the ack/retry/dedup path crosses
# process boundaries too. DAI-T and DAI-V run a second time with JFRT on,
# so direct joins and their acks cross the sockets as well; JFRT changes
# routing, not notification content, so they share the JFRT-off oracle.
#
# Usage: tcp_ring_smoke.sh <contjoin_noded> <contjoin_client>
set -u

NODED=$1
CLIENT=$2
DAEMONS=5
NODES=20
SEED=7
WORKDIR=$(mktemp -d)
trap 'kill $(jobs -p) 2>/dev/null; wait 2>/dev/null; rm -rf "$WORKDIR"' EXIT

cat > "$WORKDIR/script.txt" <<'EOF'
submit 0 SELECT R.A, S.D FROM R, S WHERE R.B = S.E
submit 7 SELECT Doc.Title, Auth.Name FROM Doc, Auth WHERE Doc.Id = Auth.Id
insert 1 R 10 5 100
insert 2 S 20 5 200
insert 3 R 11 5 101
insert 4 S 21 6 201
insert 8 R 12 6 102
insert 9 Doc 77 paper
insert 13 Auth alice 77
insert 11 S 22 6 202
insert 6 R 13 9 103
drain
EOF

# run_ring <algo> <jfrt on|off> <port_base>: output in tcp_<algo>_jfrt-<jfrt>.
run_ring() {
  local algo=$1 jfrt=$2 port_base=$3 attempt
  local out="$WORKDIR/tcp_${algo}_jfrt-$jfrt"
  for attempt in 1 2 3; do
    local pids=()
    for i in $(seq 0 $((DAEMONS - 1))); do
      "$NODED" --index "$i" --daemons "$DAEMONS" --nodes "$NODES" \
        --port-base "$port_base" --algorithm "$algo" --reliability on \
        --jfrt "$jfrt" --seed "$SEED" &
      pids+=($!)
    done
    sleep 0.3
    if "$CLIENT" --daemons "$DAEMONS" --nodes "$NODES" \
        --port-base "$port_base" < "$WORKDIR/script.txt" \
        > "$out.txt" 2> "$out.err"; then
      wait "${pids[@]}" 2>/dev/null
      return 0
    fi
    # A daemon may have lost the port race; clean up and retry elsewhere.
    kill "${pids[@]}" 2>/dev/null
    wait "${pids[@]}" 2>/dev/null
    port_base=$((port_base + 100))
  done
  echo "FAIL($algo, jfrt $jfrt): client could not drive the ring" >&2
  cat "$out.err" >&2
  return 1
}

status=0
port=$((20000 + RANDOM % 20000))
for leg in sai:off daiq:off dait:off daiv:off dait:on daiv:on; do
  algo=${leg%%:*}
  jfrt=${leg##*:}
  label=$algo
  [ "$jfrt" = on ] && label="$algo+jfrt"
  port=$((port + 10))
  if ! run_ring "$algo" "$jfrt" "$port"; then
    status=1
    continue
  fi
  oracle="$WORKDIR/oracle_$algo.txt"
  if [ ! -f "$oracle" ]; then
    "$CLIENT" --oracle --daemons "$DAEMONS" --nodes "$NODES" \
      --algorithm "$algo" --reliability on --seed "$SEED" \
      < "$WORKDIR/script.txt" > "$oracle" 2>&1
  fi
  tcp="$WORKDIR/tcp_${algo}_jfrt-$jfrt.txt"
  if ! diff -u "$oracle" "$tcp"; then
    echo "FAIL($label): TCP ring and oracle notification sets differ" >&2
    status=1
  else
    echo "OK($label): $(grep -c '|' "$tcp") notifications match the oracle"
  fi
done
exit $status
