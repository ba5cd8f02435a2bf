# Node-kill failover integration for the distributed fleet: a primary serve
# node replicating checkpoints to a replica, killed hard (netkill ->
# _Exit(9)) mid-stream.  The ingest client must exhaust its retry budget on
# the dead primary, fail over to the replica, and resume from the replica's
# promoted checkpoint position; the replica must report the promotion and
# finish with verdicts byte-identical to an uninterrupted local run — the
# ISSUE 8 acceptance gate.
#
# Expects -DWORMCTL=<path> -DWORKDIR=<dir>.

set(trace_file ${WORKDIR}/net_failover_trace.csv)
set(baseline_csv ${WORKDIR}/net_failover_baseline.csv)
set(driver ${WORKDIR}/net_failover_driver.sh)

execute_process(
  COMMAND ${WORMCTL} synth --out ${trace_file} --hosts 300 --days 4 --seed 23
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "wormctl synth failed: ${rc}")
endif()

execute_process(
  COMMAND ${WORMCTL} contain --trace ${trace_file} --budget 400 --shards 2
    --verdicts-out ${baseline_csv}
  RESULT_VARIABLE rc OUTPUT_VARIABLE baseline_out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "baseline contain failed: ${rc}")
endif()

# Args: wormctl workdir trace
file(WRITE ${driver} [=[
#!/bin/sh
WORMCTL=$1; WORKDIR=$2; TRACE=$3
RLOG=$WORKDIR/net_failover_replica.log
PLOG=$WORKDIR/net_failover_primary.log
# Logs left by an earlier run still name that run's ports; remove them so
# scrape_port can only read this run's.
rm -f "$RLOG" "$PLOG"

scrape_port() {
  _log=$1; _port=
  i=0
  while [ $i -lt 200 ]; do
    _port=$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9][0-9]*\)$/\1/p' "$_log")
    [ -n "$_port" ] && break
    i=$((i+1)); sleep 0.05
  done
  echo "$_port"
}

# Replica: expects one inbound peer link (the primary's replication stream,
# closed by the kill) and one client (the failed-over ingest).
"$WORMCTL" serve --listen 127.0.0.1:0 --budget 400 --shards 2 \
  --expect-clients 1 --expect-peers 1 \
  --verdicts-out "$WORKDIR/net_failover_replica.csv" > "$RLOG" 2>&1 &
REPLICA=$!
RPORT=$(scrape_port "$RLOG")
[ -n "$RPORT" ] || { echo "replica never printed its port"; kill $REPLICA 2>/dev/null; exit 1; }

# Primary: replicates every 5k records, stalls after frame 3 (long enough
# for the lazily-connected replication link to flush the pending
# checkpoints), then _Exit(9)s after 8 frames — a hard crash with
# checkpoints already on the replica.
"$WORMCTL" serve --listen 127.0.0.1:0 --budget 400 --shards 2 \
  --expect-clients 1 --replicate-to 127.0.0.1:$RPORT --replicate-every 5000 \
  --fault-plan "netstall:3,0.8;netkill:8" > "$PLOG" 2>&1 &
PRIMARY=$!
PPORT=$(scrape_port "$PLOG")
[ -n "$PPORT" ] || { echo "primary never printed its port"; kill $PRIMARY $REPLICA 2>/dev/null; exit 1; }

# Client lists the primary first, the replica second: it must discover the
# death, burn its retry budget, and fail over on its own.
"$WORMCTL" ingest --connect 127.0.0.1:$PPORT,127.0.0.1:$RPORT --trace "$TRACE" \
  --batch-records 4096 --retry-base-ms 10 --retry-cap-ms 50 --retry-max 3 \
  > "$WORKDIR/net_failover_ingest.log" 2>&1
INGEST_RC=$?
# A failed client leaves the nodes waiting for their clients forever: stop them.
[ $INGEST_RC -eq 0 ] || kill $PRIMARY $REPLICA 2>/dev/null
wait $PRIMARY
PRIMARY_RC=$?
wait $REPLICA
REPLICA_RC=$?
[ $INGEST_RC -eq 0 ] || { echo "ingest failed: $INGEST_RC"; exit 1; }
# The kill is _Exit(9); anything else means the fault never fired.
[ $PRIMARY_RC -eq 9 ] || { echo "primary exited $PRIMARY_RC, expected 9 (netkill)"; exit 1; }
exit $REPLICA_RC
]=])

execute_process(
  COMMAND sh ${driver} ${WORMCTL} ${WORKDIR} ${trace_file}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  set(replica_log "<missing>")
  set(ingest_log "<missing>")
  if(EXISTS ${WORKDIR}/net_failover_replica.log)
    file(READ ${WORKDIR}/net_failover_replica.log replica_log)
  endif()
  if(EXISTS ${WORKDIR}/net_failover_ingest.log)
    file(READ ${WORKDIR}/net_failover_ingest.log ingest_log)
  endif()
  message(FATAL_ERROR "failover driver failed (${rc}): ${out}${err}\n"
    "replica log:\n${replica_log}\ningest log:\n${ingest_log}")
endif()

file(READ ${WORKDIR}/net_failover_replica.log replica_log)
if(NOT replica_log MATCHES "promoted from replica checkpoint at position [1-9]")
  message(FATAL_ERROR "replica never promoted from a checkpoint:\n${replica_log}")
endif()

file(READ ${WORKDIR}/net_failover_ingest.log ingest_log)
if(NOT ingest_log MATCHES "[1-9][0-9]* failover")
  message(FATAL_ERROR "client never reported a failover:\n${ingest_log}")
endif()

# The acceptance gate: promoted-replica verdicts == uninterrupted local run,
# byte for byte.
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
    ${baseline_csv} ${WORKDIR}/net_failover_replica.csv
  RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  message(FATAL_ERROR "failover verdicts differ from the uninterrupted run")
endif()
