# Script mode: cmake -DPROG=<binary> "-DARGS=<arg;arg;...>" -P expect_cli_error.cmake
#
# Passes only when PROG exits with status 1 and prints a line starting with
# "error:" (stdout or stderr).  A crash, an abort, a hang (20 s), a zero
# exit or a silent failure all fail the check.
#
# With -DNESTED_JSON=<path>, the script first writes 1,000,000 unclosed '['
# to <path>, an input that overflows the stack of a parser with no nesting
# cap; ARGS then name <path>.
if(DEFINED NESTED_JSON)
  string(REPEAT "[" 1000000 nested)
  file(WRITE "${NESTED_JSON}" "${nested}")
endif()
execute_process(
  COMMAND ${PROG} ${ARGS}
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  TIMEOUT 20)
set(output "${out}${err}")
if(NOT status STREQUAL "1")
  message(FATAL_ERROR
    "expected exit status 1, got '${status}'\n--- output ---\n${output}")
endif()
if(NOT output MATCHES "(^|\n)error: ")
  message(FATAL_ERROR "no 'error:' line in the output\n--- output ---\n${output}")
endif()
