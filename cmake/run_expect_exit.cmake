# Exit-code check: runs one binary and fails unless it exits with
# EXPECT_CODE and its stderr matches EXPECT_STDERR (a regex).  Used for
# front-end rejection tests registered in examples/CMakeLists.txt:
#
#   cmake -DBIN=<binary> "-DARGS=--a=1;--b=2" -DEXPECT_CODE=2
#         -DEXPECT_STDERR=<regex> -P run_expect_exit.cmake
foreach(var BIN EXPECT_CODE EXPECT_STDERR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} not set")
  endif()
endforeach()

execute_process(
  COMMAND ${BIN} ${ARGS}
  RESULT_VARIABLE code
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)

if(NOT code STREQUAL "${EXPECT_CODE}")
  message(FATAL_ERROR "${BIN} exited with ${code}, expected ${EXPECT_CODE}"
    "\nstdout:\n${out}\nstderr:\n${err}")
endif()
if(NOT err MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR "${BIN} stderr does not match '${EXPECT_STDERR}':\n${err}")
endif()

message(STATUS "${BIN} exited ${code} as expected (${ARGS})")
