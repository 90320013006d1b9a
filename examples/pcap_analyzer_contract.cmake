# ctest helper: write a short capture with ${EXPLORER} (strategy_explorer),
# then check ${ANALYZER} (pcap_analyzer) on it: `--json` and
# `--json --stream` print the same bytes, and `--metrics` writes a file with
# the offline counts. Scratch files go to ${WORK_DIR}.
#
#   cmake -DEXPLORER=... -DANALYZER=... -DWORK_DIR=... -P pcap_analyzer_contract.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(pcap "${WORK_DIR}/run.pcap")

# Run the command; its stdout goes to ${WORK_DIR}/${out_name}.
function(run_to out_name)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc OUTPUT_FILE "${WORK_DIR}/${out_name}"
                  ERROR_VARIABLE err TIMEOUT 60)
  if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "${ARGN}: exit '${rc}'\n${err}")
  endif()
endfunction()

# Positional only: service container application vantage seconds rate_mbps pcap.
run_to(explorer.txt "${EXPLORER}" youtube flash ie research 120 1 "${pcap}")

run_to(batch.json "${ANALYZER}" --json "${pcap}")
run_to(stream.json "${ANALYZER}" --json --stream "${pcap}")
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files "${WORK_DIR}/batch.json"
                        "${WORK_DIR}/stream.json" RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
  message(FATAL_ERROR "pcap_analyzer --json and --json --stream differ on ${pcap}")
endif()

run_to(report.txt "${ANALYZER}" --metrics "${WORK_DIR}/metrics.json" "${pcap}")
file(READ "${WORK_DIR}/metrics.json" metrics)
if(NOT metrics MATCHES "\"analyzer.packets\":[1-9]")
  message(FATAL_ERROR "--metrics wrote no analyzer.packets count:\n${metrics}")
endif()
