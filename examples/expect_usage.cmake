# ctest helper: run ${EXE} with the space-separated ${ARGS} and pass only when
# it exits 2 with the usage text on stderr — what a malformed flag value must
# produce instead of a run.
#
#   cmake -DEXE=path/to/capacity_planner "-DARGS=--capacity -1" -P expect_usage.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err TIMEOUT 10)
if(NOT rc STREQUAL "2" OR NOT err MATCHES "usage: ")
  message(FATAL_ERROR "${ARGS}: expected exit 2 with usage text, got '${rc}'\n${out}${err}")
endif()
