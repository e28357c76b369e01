# Runs one deterministic binary and diffs its stdout against a frozen
# golden transcript. Usage:
#   cmake -DBIN=<exe> "-DARGS=<space-separated args>" -DGOLDEN=<file>
#         -DACTUAL=<file> -P run_golden.cmake
# On a mismatch the actual stdout is written to ACTUAL for diffing.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BIN}" ${args}
  OUTPUT_VARIABLE actual
  ERROR_VARIABLE errors
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} ${ARGS} exited with ${rc}:\n${errors}")
endif()
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  file(WRITE "${ACTUAL}" "${actual}")
  message(FATAL_ERROR "stdout of ${BIN} ${ARGS} differs from the golden "
    "transcript.\n  diff ${GOLDEN} ${ACTUAL}")
endif()
