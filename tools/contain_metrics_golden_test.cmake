# Golden-file determinism of the contain metrics export: the deterministic
# slice of the metrics snapshot must be BIT-IDENTICAL across shard counts
# {1, 2, 4}, across a resume-from-checkpoint run, and in both exposition
# formats — for the exact and the HLL counter backend.
#
# Timing and scheduling metrics (histograms in seconds, queue/batch gauges,
# per-shard lines, pool counters) are masked by a keep-list rather than
# value-masked: the deterministic metrics are a closed set, so the filter
# keeps exactly those lines and drops everything else.  Every record reaches
# its shard worker, so records_suppressed (flushed per batch, complete once
# the workers join) and fleet_records_post_removal_total depend on the
# stream alone and are both kept.
#
# Driven with -DWORMCTL=<binary> -DWORKDIR=<dir>.

set(trace_file ${WORKDIR}/wormctl_metrics_trace.csv)

set(keep_names "records_ingested_total|records_suppressed_total|records_post_removal_total|dead_letters_total|dead_letters_overflow_total|hosts_seen_total|hosts_flagged_total|hosts_removed_total|checkpoints_written_total|backend_switches_total|workers_killed_total|workers_respawned_total|counter_memory_bytes")
# Keep-list for the Prometheus text format: "<name>[{labels}] <value>" sample
# lines (the \n anchor skips "# TYPE" lines, which start with '#').
set(keep_prom "fleet_(${keep_names})[\\{ ]")
# Same metrics in the JSON rendering: one {"name":...} object per line.  The
# ["{] after the name matches the closing quote (unlabeled) or the label
# block's opening brace (fleet_dead_letters_total{reason=...}).
set(keep_json "\\{\"name\":\"fleet_(${keep_names})[\"{]")

function(run_contain metrics_file)
  execute_process(
    COMMAND ${WORMCTL} contain --trace ${trace_file} --budget 400
      --check-fraction 0.5 --metrics ${metrics_file} ${ARGN}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "contain --metrics ${metrics_file} ${ARGN} failed (${rc}):\n${out}\n${err}")
  endif()
  if(NOT EXISTS ${metrics_file})
    message(FATAL_ERROR "metrics file was not written: ${metrics_file}")
  endif()
endfunction()

# Reads a metrics file and returns only the deterministic lines, in order.
# Deliberately NOT file(STRINGS)+foreach: CMake list decoding treats a bare
# "[" line (the JSON array opener) as bracket-protecting every following
# semicolon, which silently merges lines.  Regex-extract whole lines instead.
function(filter_deterministic out file regex)
  file(READ ${file} content)
  # Anchor each match at a line start (the prefixed \n covers line one).
  string(REGEX MATCHALL "\n${regex}[^\n]*" kept_list "\n${content}")
  list(JOIN kept_list "" kept)
  if(NOT kept MATCHES "fleet_records_ingested_total")
    message(FATAL_ERROR "filter kept nothing useful from ${file}:\n${kept}")
  endif()
  set(${out} "${kept}" PARENT_SCOPE)
endfunction()

function(expect_identical label got want)
  if(NOT got STREQUAL want)
    message(FATAL_ERROR "${label}: deterministic metrics diverged\n--- got ---\n${got}\n--- want ---\n${want}")
  endif()
endfunction()

execute_process(
  COMMAND ${WORMCTL} synth --out ${trace_file} --hosts 300 --days 6 --seed 11
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "wormctl synth failed: ${rc}")
endif()

# Leg 1: shard counts {1, 2, 4} x backends {exact, hll} — the filtered
# Prometheus export must be bit-identical to the 1-shard run of the same
# backend.  (Cross-backend files legitimately differ: counter_memory_bytes.)
foreach(backend exact hll)
  set(reference "")
  foreach(shards 1 2 4)
    set(mfile ${WORKDIR}/wormctl_metrics_${backend}_${shards}.prom)
    run_contain(${mfile} --counter ${backend} --shards ${shards})
    filter_deterministic(filtered ${mfile} "${keep_prom}")
    if(shards EQUAL 1)
      set(reference "${filtered}")
    else()
      expect_identical("${backend}/${shards} shards vs ${backend}/1 shard"
        "${filtered}" "${reference}")
    endif()
  endforeach()
endforeach()

# Leg 2: the JSON rendering carries the same determinism (1 vs 4 shards).
set(json1 ${WORKDIR}/wormctl_metrics_json_1.json)
set(json4 ${WORKDIR}/wormctl_metrics_json_4.json)
run_contain(${json1} --shards 1 --metrics-format json)
run_contain(${json4} --shards 4 --metrics-format json)
filter_deterministic(json_ref ${json1} "${keep_json}")
filter_deterministic(json_got ${json4} "${keep_json}")
expect_identical("json 4 shards vs 1 shard" "${json_got}" "${json_ref}")

# Leg 3: resume-from-checkpoint.  A run that checkpoints along the way and a
# run resumed from its last snapshot must export identical deterministic
# metrics — the restore path preloads every stream-position counter.
set(ckpt ${WORKDIR}/wormctl_metrics.ckpt)
set(full_prom ${WORKDIR}/wormctl_metrics_full.prom)
set(resumed_prom ${WORKDIR}/wormctl_metrics_resumed.prom)
run_contain(${full_prom} --shards 2 --checkpoint ${ckpt} --checkpoint-every 20000)
run_contain(${resumed_prom} --shards 2 --resume ${ckpt}
  --checkpoint ${WORKDIR}/wormctl_metrics_resume.ckpt --checkpoint-every 20000)
filter_deterministic(full_filtered ${full_prom} "${keep_prom}")
filter_deterministic(resumed_filtered ${resumed_prom} "${keep_prom}")
expect_identical("resumed vs uninterrupted" "${resumed_filtered}" "${full_filtered}")
if(NOT full_filtered MATCHES "fleet_checkpoints_written_total [1-9]")
  message(FATAL_ERROR "checkpointing run exported no checkpoint count:\n${full_filtered}")
endif()
