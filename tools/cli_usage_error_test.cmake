# A rejected flag fails the command and prints `error: <message>` alone:
# neither the C++ condition behind the check ("precondition failed: ...")
# nor a source path may reach the user.

execute_process(
  COMMAND ${WORMCTL} contain --synth --events-clock synthetic
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "--events-clock without --events was accepted:\n${out}")
endif()
if(NOT err MATCHES "^error: --events-clock requires --events FILE\n$")
  message(FATAL_ERROR "unexpected rejection text:\n${err}")
endif()
if(err MATCHES "precondition failed" OR err MATCHES "\\.cpp:")
  message(FATAL_ERROR "rejection leaks the check's internals:\n${err}")
endif()

# Out-of-range pipeline knobs are rejected at flag parse time, in the same
# clean form, including the compact pool geometry the library validates.
set(bad_knobs
  "--budget 0"
  "--cycle-days 0"
  "--check-fraction 2"
  "--counter compact --compact-bits-per-host 99"
  "--counter compact --compact-virtual-registers 0"
  "--counter compact --compact-expected-hosts 0")
foreach(knob IN LISTS bad_knobs)
  separate_arguments(knob_args UNIX_COMMAND "${knob}")
  execute_process(
    COMMAND ${WORMCTL} contain --synth --hosts 50 --days 1 ${knob_args}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR "contain ${knob} exited ${rc}, expected 1:\n${out}${err}")
  endif()
  if(NOT err MATCHES "^error: ")
    message(FATAL_ERROR "contain ${knob}: unexpected rejection text:\n${err}")
  endif()
  if(err MATCHES "precondition failed" OR err MATCHES "\\.cpp:")
    message(FATAL_ERROR "contain ${knob}: rejection leaks the check's internals:\n${err}")
  endif()
endforeach()

# A mistyped flag is rejected before any work: no verdicts file is written,
# no port is bound, no connection is attempted.
set(typo_csv ${WORKDIR}/cli_usage_typo.csv)
file(REMOVE ${typo_csv})
foreach(command
    "contain --synth --hosts 50 --days 1 --verdicts-out ${typo_csv} --bugdet 10"
    "serve --listen 127.0.0.1:0 --verdicts-out ${typo_csv} --bugdet 10"
    "ingest --connect 127.0.0.1:1 --synth --hosts 50 --days 1 --bugdet 10")
  separate_arguments(command_args UNIX_COMMAND "${command}")
  execute_process(
    COMMAND ${WORMCTL} ${command_args}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err TIMEOUT 60)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR "${command} exited ${rc}, expected 1:\n${out}${err}")
  endif()
  if(NOT err MATCHES "^error: unknown flag\\(s\\): --bugdet\n$")
    message(FATAL_ERROR "${command}: unexpected rejection text:\n${err}")
  endif()
  if(NOT out STREQUAL "")
    message(FATAL_ERROR "${command} did work before rejecting the typo:\n${out}")
  endif()
  if(EXISTS ${typo_csv})
    message(FATAL_ERROR "${command} wrote ${typo_csv} despite the typo")
  endif()
endforeach()
