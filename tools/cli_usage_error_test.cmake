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
