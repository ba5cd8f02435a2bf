# Multi-process loopback integration for the distributed fleet: a real
# `wormctl serve` process plus two `wormctl ingest` client processes that
# partition one trace host-affinely (--hosts-mod 2,0 / 2,1), then a second
# round where a netdrop fault severs every client connection mid-stream and
# the clients must reconnect and resume.  The gate in both rounds: the
# server's verdict CSV is byte-identical to a local single-process
# `contain` run over the same trace.
#
# Expects -DWORMCTL=<path> -DWORKDIR=<dir>.

set(trace_file ${WORKDIR}/net_loopback_trace.csv)
set(baseline_csv ${WORKDIR}/net_loopback_baseline.csv)
set(driver ${WORKDIR}/net_loopback_driver.sh)

execute_process(
  COMMAND ${WORMCTL} synth --out ${trace_file} --hosts 300 --days 4 --seed 11
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "wormctl synth failed: ${rc}")
endif()

# Local single-pipeline baseline.
execute_process(
  COMMAND ${WORMCTL} contain --trace ${trace_file} --budget 400 --shards 2
    --verdicts-out ${baseline_csv}
  RESULT_VARIABLE rc OUTPUT_VARIABLE baseline_out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "baseline contain failed: ${rc}")
endif()

# POSIX-shell driver: serve in the background on an ephemeral port, scrape
# the bound port from its log, run the two clients, wait for everything
# (stopping serve first if a client failed).
# Args: wormctl workdir trace fault-plan(optional, empty = none) tag
file(WRITE ${driver} [=[
#!/bin/sh
WORMCTL=$1; WORKDIR=$2; TRACE=$3; FAULTS=$4; TAG=$5
SERVE_LOG=$WORKDIR/net_loopback_serve_$TAG.log
# A log left by an earlier run still names that run's port; remove it so the
# scrape below can only read this round's.
rm -f "$SERVE_LOG"
if [ -n "$FAULTS" ]; then
  "$WORMCTL" serve --listen 127.0.0.1:0 --budget 400 --shards 2 \
    --expect-clients 2 --verdicts-out "$WORKDIR/net_loopback_serve_$TAG.csv" \
    --fault-plan "$FAULTS" > "$SERVE_LOG" 2>&1 &
else
  "$WORMCTL" serve --listen 127.0.0.1:0 --budget 400 --shards 2 \
    --expect-clients 2 \
    --verdicts-out "$WORKDIR/net_loopback_serve_$TAG.csv" > "$SERVE_LOG" 2>&1 &
fi
SERVE=$!
PORT=
i=0
while [ $i -lt 200 ]; do
  PORT=$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9][0-9]*\)$/\1/p' "$SERVE_LOG")
  [ -n "$PORT" ] && break
  i=$((i+1)); sleep 0.05
done
if [ -z "$PORT" ]; then
  echo "serve never printed its bound port"; kill $SERVE 2>/dev/null; exit 1
fi
"$WORMCTL" ingest --connect 127.0.0.1:$PORT --trace "$TRACE" --hosts-mod 2,0 \
  --client-id 1 --batch-records 1024 --retry-base-ms 10 --retry-cap-ms 100 \
  > "$WORKDIR/net_loopback_ingest1_$TAG.log" 2>&1 &
CLIENT1=$!
"$WORMCTL" ingest --connect 127.0.0.1:$PORT --trace "$TRACE" --hosts-mod 2,1 \
  --client-id 2 --batch-records 1024 --retry-base-ms 10 --retry-cap-ms 100 \
  > "$WORKDIR/net_loopback_ingest2_$TAG.log" 2>&1
RC2=$?
wait $CLIENT1; RC1=$?
# A failed client leaves serve waiting for --expect-clients forever: stop it.
if [ $RC1 -ne 0 ] || [ $RC2 -ne 0 ]; then kill $SERVE 2>/dev/null; fi
wait $SERVE; RCS=$?
[ $RC1 -eq 0 ] || { echo "client 1 failed: $RC1"; exit 1; }
[ $RC2 -eq 0 ] || { echo "client 2 failed: $RC2"; exit 1; }
exit $RCS
]=])

function(run_round faults tag)
  execute_process(
    COMMAND sh ${driver} ${WORMCTL} ${WORKDIR} ${trace_file} "${faults}" ${tag}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    file(READ ${WORKDIR}/net_loopback_serve_${tag}.log serve_log)
    message(FATAL_ERROR "round '${tag}' failed (${rc}): ${out}${err}\nserve log:\n${serve_log}")
  endif()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
      ${baseline_csv} ${WORKDIR}/net_loopback_serve_${tag}.csv
    RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    message(FATAL_ERROR
      "round '${tag}': distributed verdicts differ from the local pipeline's")
  endif()
endfunction()

# Round 1: clean two-client partition.
run_round("" plain)

# Round 2: the server drops every client connection twice mid-stream; the
# clients must reconnect, resume from the server's position, and converge on
# the same verdicts.
run_round("netdrop:6;netdrop:40" drop)

file(READ ${WORKDIR}/net_loopback_serve_drop.log drop_log)
if(NOT drop_log MATCHES "connections dropped \\(fault\\) +[1-9]")
  message(FATAL_ERROR "netdrop round reported no dropped connections:\n${drop_log}")
endif()
file(READ ${WORKDIR}/net_loopback_ingest1_drop.log ingest1_log)
file(READ ${WORKDIR}/net_loopback_ingest2_drop.log ingest2_log)
if(NOT "${ingest1_log}${ingest2_log}" MATCHES "[1-9][0-9]* reconnect")
  message(FATAL_ERROR
    "netdrop round: no client reported a reconnect:\n${ingest1_log}\n${ingest2_log}")
endif()
