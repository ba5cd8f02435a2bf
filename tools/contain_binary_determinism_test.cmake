# End-to-end determinism of the binary ingest path: one synthetic trace,
# containment verdicts written as CSV, and every axis — input format
# (CSV vs .wtrace), shard count {1, 2, 4}, and checkpoint/resume over the binary file — must produce a
# byte-identical verdict table.  Also pins the conversion fixed point:
# CSV -> .wtrace -> CSV -> .wtrace reproduces the first binary byte for byte,
# and reruns under a degrade fault plan reproduce verdicts and checkpoints.

set(csv_file ${WORKDIR}/bin_determinism.csv)
set(bin_file ${WORKDIR}/bin_determinism.wtrace)
set(csv2_file ${WORKDIR}/bin_determinism_back.csv)
set(bin2_file ${WORKDIR}/bin_determinism_again.wtrace)
set(ckpt_file ${WORKDIR}/bin_determinism.ckpt)

function(run out)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc OUTPUT_VARIABLE text
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "command failed (${rc}): ${ARGN}\n${text}\n${err}")
  endif()
  set(${out} "${text}" PARENT_SCOPE)
endfunction()

function(expect_same a b label)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${a} ${b}
                  RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    message(FATAL_ERROR "${label}: ${a} and ${b} differ")
  endif()
endfunction()

run(ignored ${WORMCTL} synth --out ${csv_file} --hosts 250 --days 5 --seed 23)

# Conversion fixed point (total stream order makes the sort canonical).
run(ignored ${WORMCTL} trace convert ${csv_file} ${bin_file})
run(ignored ${WORMCTL} trace convert ${bin_file} ${csv2_file})
run(ignored ${WORMCTL} trace convert ${csv2_file} ${bin2_file})
expect_same(${bin_file} ${bin2_file} "conversion is not a fixed point")

# Baseline verdicts: CSV input, one shard.
run(ignored ${WORMCTL} contain --trace ${csv_file} --budget 400 --shards 1
    --verdicts-out ${WORKDIR}/v_base.csv)

foreach(shards 1 2 4)
  run(ignored ${WORMCTL} contain --trace ${csv_file} --budget 400
      --shards ${shards} --verdicts-out ${WORKDIR}/v_csv_${shards}.csv)
  expect_same(${WORKDIR}/v_base.csv ${WORKDIR}/v_csv_${shards}.csv
              "CSV verdicts diverge at shards=${shards}")
  run(bin_out ${WORMCTL} contain --trace ${bin_file} --budget 400
      --shards ${shards} --verdicts-out ${WORKDIR}/v_bin_${shards}.csv)
  expect_same(${WORKDIR}/v_base.csv ${WORKDIR}/v_bin_${shards}.csv
              "binary verdicts diverge at shards=${shards}")
endforeach()

# The binary path must actually stream from the file (mmap, no materialize).
if(NOT bin_out MATCHES "binary trace")
  message(FATAL_ERROR "no binary-streaming line in output:\n${bin_out}")
endif()

# Checkpoint over the binary file, resume (O(1) skip into the mmap), and the
# verdicts still match the uninterrupted CSV baseline.
run(ignored ${WORMCTL} contain --trace ${bin_file} --budget 400 --shards 2
    --checkpoint ${ckpt_file} --checkpoint-every 20000
    --verdicts-out ${WORKDIR}/v_ckpt.csv)
expect_same(${WORKDIR}/v_base.csv ${WORKDIR}/v_ckpt.csv
            "checkpointing over binary changed verdicts")
run(resume_out ${WORMCTL} contain --trace ${bin_file} --budget 400 --shards 4
    --resume ${ckpt_file} --verdicts-out ${WORKDIR}/v_resume.csv)
if(NOT resume_out MATCHES "resumed from .* at record [1-9]")
  message(FATAL_ERROR "no resume line in output:\n${resume_out}")
endif()
expect_same(${WORKDIR}/v_base.csv ${WORKDIR}/v_resume.csv
            "resume over binary diverged from the uninterrupted run")

# Compact backend: banks are bucketed by host id independently of the shard
# count, so compact verdicts (including the failure-policy columns) must be
# byte-identical at shards {1, 2, 4} and across checkpoint/resume — the same
# bar the exact backend clears above.
set(compact_flags --counter compact --compact-bits-per-host 16
    --compact-expected-hosts 1048576 --failure-budget 2000)
set(compact_ckpt ${WORKDIR}/bin_determinism_compact.ckpt)
run(compact_out ${WORMCTL} contain --trace ${bin_file} --budget 400 --shards 1
    ${compact_flags} --verdicts-out ${WORKDIR}/v_compact_1.csv)
if(NOT compact_out MATCHES "compact counter")
  message(FATAL_ERROR "no compact-counter line in output:\n${compact_out}")
endif()
foreach(shards 2 4)
  run(ignored ${WORMCTL} contain --trace ${bin_file} --budget 400
      --shards ${shards} ${compact_flags}
      --verdicts-out ${WORKDIR}/v_compact_${shards}.csv)
  expect_same(${WORKDIR}/v_compact_1.csv ${WORKDIR}/v_compact_${shards}.csv
              "compact verdicts diverge at shards=${shards}")
endforeach()
run(ignored ${WORMCTL} contain --trace ${bin_file} --budget 400 --shards 2
    ${compact_flags} --checkpoint ${compact_ckpt} --checkpoint-every 20000
    --verdicts-out ${WORKDIR}/v_compact_ckpt.csv)
expect_same(${WORKDIR}/v_compact_1.csv ${WORKDIR}/v_compact_ckpt.csv
            "checkpointing changed compact verdicts")
# Resume at a different shard count: the snapshot's banks rehome and the
# verdicts still match the uninterrupted single-shard run.
run(compact_resume_out ${WORMCTL} contain --trace ${bin_file} --budget 400
    --shards 4 ${compact_flags} --resume ${compact_ckpt}
    --verdicts-out ${WORKDIR}/v_compact_resume.csv)
if(NOT compact_resume_out MATCHES "resumed from .* at record [1-9]")
  message(FATAL_ERROR "no resume line in output:\n${compact_resume_out}")
endif()
expect_same(${WORKDIR}/v_compact_1.csv ${WORKDIR}/v_compact_resume.csv
            "compact resume diverged from the uninterrupted run")

# Reproducibility under a fault plan: a worm-injected trace whose removed
# hosts keep sending while two degrade clauses walk shard 0 down the backend
# ladder.  Degrade clauses fire on the shard's batch count, so they land at
# the same stream position only if batch composition follows the stream
# alone, whatever the queues' timing.  Ten reruns at each shard count must
# write byte-identical verdict CSVs and checkpoint files.
set(fault_trace ${WORKDIR}/bin_determinism_faults.wtrace)
run(ignored ${WORMCTL} synth --out ${fault_trace} --hosts 4000 --days 8 --seed 3)
foreach(shards 1 2 4)
  foreach(rep RANGE 1 10)
    # Called directly, not through run(): a function's ARGN would split the
    # plan at its ';'.
    execute_process(
      COMMAND ${WORMCTL} contain --trace ${fault_trace} --budget 400
        --check-fraction 0.5 --cycle-days 4 --shards ${shards}
        --inject-worm 6,1500,6 --fault-plan "degrade:0@200;degrade:0@350"
        --checkpoint ${WORKDIR}/v_faults_${shards}_${rep}.ckpt --checkpoint-every 100000
        --verdicts-out ${WORKDIR}/v_faults_${shards}_${rep}.csv
      RESULT_VARIABLE rc OUTPUT_VARIABLE text ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "fault-plan run failed (${rc}) at shards=${shards}:\n${text}\n${err}")
    endif()
    # Shard 0 sees every batch at one shard, so both clauses must fire there.
    if(shards EQUAL 1 AND NOT text MATCHES "2 shard backend switch")
      message(FATAL_ERROR "the degrade clauses did not both fire at shards=1:\n${text}")
    endif()
    if(NOT rep EQUAL 1)
      expect_same(${WORKDIR}/v_faults_${shards}_1.csv ${WORKDIR}/v_faults_${shards}_${rep}.csv
                  "verdicts under a fault plan differ between reruns at shards=${shards}")
      expect_same(${WORKDIR}/v_faults_${shards}_1.ckpt ${WORKDIR}/v_faults_${shards}_${rep}.ckpt
                  "checkpoints under a fault plan differ between reruns at shards=${shards}")
    endif()
  endforeach()
endforeach()
